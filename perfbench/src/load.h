// The load: one benchmark process driving the serving stack over
// RemoteClient connections. Queries run either as an open loop (Poisson
// arrivals at a fixed rate, each query timed from when it was due) or as a
// closed loop (each connection sends its next query when the last one
// returns). Inserts run as a fixed-period open loop on their own
// connection.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storm/storm.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

struct QueryOutcome {
  size_t index = 0;  // into the stream
  bool ok = false;
  std::string error;
  double due_ms = 0.0;       // since the window opened
  double late_ms = -1.0;     // generator lateness; -1 when the query was
                             // sent late because every connection was busy
  double first_ci_ms = 0.0;  // due -> first finite CI (or RESULT)
  double query_ms = 0.0;     // due -> RESULT
  double service_ms = 0.0;   // send -> RESULT
  uint64_t progress_frames = 0;
  storm::QueryResult result;
};

struct InsertOutcome {
  bool ok = false;
  std::string error;
  double late_ms = -1.0;
  double insert_ms = 0.0;  // due -> ack
  uint64_t acked = 0;
};

struct QueryLoad {
  const std::vector<Query>* stream = nullptr;
  size_t first = 0;       // stream offset the window starts at
  int connections = 1;
  double rate_qps = 0.0;  // 0: closed loop
  int parallelism = 1;
  uint64_t arrival_seed = 1;
};

struct InsertLoad {
  const std::vector<storm::Value>* docs = nullptr;
  size_t batch = 0;
  double batches_per_s = 0.0;
};

struct WindowResult {
  std::vector<QueryOutcome> queries;
  std::vector<InsertOutcome> inserts;
  double wall_s = 0.0;  // window open -> last reply
  bool stream_exhausted = false;  // the stream ran out before the window
};

// Runs the queries (and inserts, when `inserts.docs` is set) that fall due
// within `seconds` against 127.0.0.1:port, then waits for the stragglers.
WindowResult RunWindow(int port, const QueryLoad& load,
                       const InsertLoad& inserts, double seconds,
                       SpanRecorder* spans);

// One query over a fresh connection, timed from send.
QueryOutcome RunOne(storm::RemoteClient* client, const Query& q,
                    const storm::ExecOptions& base, SpanRecorder* spans,
                    uint64_t parent_span);

// Sum of each metric family (labels folded) over the processes' METRICS
// frames; histogram series are kept with their suffixes.
using Counters = std::map<std::string, double>;
Counters FetchCounters(const std::vector<int>& ports);
double Delta(const Counters& before, const Counters& after,
             const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
