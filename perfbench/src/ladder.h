// The traced run's layer ladder: the workload's seeded query stream replayed
// in the benchmark process, one rung per module, each rung calling that
// module's public entry point with the same inputs:
//
//   1 Parse  2 QueryOptimizer::Choose  3 Table::NewSampler + Begin + NextBatch
//   4 estimator / analytics feed  5 SampleReservoirCache::ProbeCovering and
//   Publish  6 Session::Execute (NOCACHE and cached)  7 Encode*
//   8 RemoteClient::Execute  9 the coordinator
//
// Every call is a span in the SpanRecorder; the rungs' timings become the
// per-layer metrics.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <string>
#include <vector>

#include "procs.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

struct LadderInput {
  const std::vector<Query>* replay = nullptr;  // the workload's queries
  const std::vector<Query>* deep = nullptr;    // tasks the workload lacks
  const std::vector<Query>* explore = nullptr; // readers for the insert rung
  const std::vector<storm::Value>* ingest_docs = nullptr;
  bool tiny = false;
  uint64_t seed = 1;
  int server_port = -1;  // the live storm_server, for rung 8
  SpanRecorder* spans = nullptr;
};

// Rungs 1-8 plus the update and set-up layers. Returns false with `error`
// set when a rung's call fails.
bool RunLadder(const LadderInput& in, MetricSet* out, std::string* error);

// Rung 9: the replay's distributable queries through storm_coordinator over
// two shards and directly against each shard.
bool RunCoordinatorRung(const std::vector<Query>& replay,
                        const StackSpec& fleet, SpanRecorder* spans,
                        MetricSet* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
