// Workload inputs, made from the seed: the query streams the load sends,
// the documents `ingest` writes, and the exact answers the checks compare
// against. The exact answers come from a scan of the regenerated demo data
// (the same deterministic generators and options storm_server loads), not
// from the server under test.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storm/storm.h"

namespace perfbench {

enum class Kind {
  kAvg,
  kVariance,
  kGroupCell,
  kMedian,
  kKde,
  kTopTerms,
  kCluster,
  kTrajectory,
  kCountExact,  // LS-tree WOR COUNT run to the exact answer
};
const char* KindName(Kind k);

struct Query {
  std::string text;
  Kind kind = Kind::kAvg;
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;  // REGION as the server parses it
  uint64_t k = 0;                         // SAMPLES cap (0: run to exact)
  bool distributable = false;             // the fleet can answer it
  std::string strategy;                   // "RSTREE", "LSTREE" or "AUTO"
};

// Demo table sizes, as storm_server --tiny or the default loads them.
struct DemoSizes {
  uint64_t osm = 0, tweets = 0, mesowest = 0;
};
DemoSizes DemoTableSizes(bool tiny);

// Loads the three demo tables into `session` exactly as storm_server does.
// Reports the generation and table-build seconds.
storm::Status LoadDemo(storm::Session* session, bool tiny, double* generate_s,
                       double* build_s);

// The Fig 3(a) overview window (mountain west) all streams draw from.
constexpr double kFigX0 = -112, kFigY0 = 28, kFigX1 = -88, kFigY1 = 46;

// explore: every 6th query the overview window, the others random
// half-size pans inside it; AVG(altitude) on osm under USING RSTREE with
// SAMPLES caps. `tiny` shrinks the caps for the self-check.
std::vector<Query> ExploreStream(uint64_t seed, size_t n, bool tiny);
class OsmTruth;
// deep: the seven tasks on fresh seeded windows of the Fig 3(a) family,
// k cycling over {1.6k, 16k, 64k}; the LS-tree COUNT to exact and the KDE
// of each cycle on windows sized (with `truth`) to hold a fixed
// population, and a fixed share left to AUTO.
std::vector<Query> DeepStream(uint64_t seed, size_t n, bool tiny,
                              const OsmTruth& truth);
// fleet: the explore stream interleaved with deep's AVG/COUNT queries.
std::vector<Query> FleetStream(uint64_t seed, size_t n, bool tiny,
                               const OsmTruth& truth);
// ingest: OSM-like documents, placed east of the Fig 3(a) window so the
// explore stream's exact answers do not move while they land.
std::vector<storm::Value> IngestDocs(uint64_t seed, size_t n);

// Exact answers over the regenerated osm table.
class OsmTruth {
 public:
  explicit OsmTruth(bool tiny);
  uint64_t Count(const Query& q) const;
  double Avg(const Query& q) const;
  // The population's values in the window (for MEDIAN).
  std::vector<double> Values(const Query& q) const;
  uint64_t size() const { return lon_.size(); }

 private:
  template <typename Fn>
  void Scan(const Query& q, Fn&& fn) const;
  // Points sorted by longitude.
  std::vector<double> lon_, lat_, alt_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
