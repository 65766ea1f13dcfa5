#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "load.h"
#include "storm/server/protocol.h"
#include "storm/storm.h"

namespace perfbench {

using namespace storm;
using Entry = RTree<3>::Entry;

namespace {

// A sampler that serves pre-drawn entries, so an estimator or analytics
// feed is timed without the draws that produced its input.
class ReplaySampler : public SpatialSampler<3> {
 public:
  explicit ReplaySampler(const std::vector<Entry>* entries)
      : entries_(entries) {}
  Status Begin(const Rect3&, SamplingMode) override {
    pos_ = 0;
    return Status::OK();
  }
  std::optional<Entry> Next() override {
    if (pos_ >= entries_->size()) return std::nullopt;
    return (*entries_)[pos_++];
  }
  uint64_t NextBatch(std::span<Entry> out) override {
    const size_t n = std::min(out.size(), entries_->size() - pos_);
    std::copy_n(entries_->begin() + static_cast<std::ptrdiff_t>(pos_), n,
                out.begin());
    pos_ += n;
    return n;
  }
  CardinalityEstimate Cardinality() const override {
    CardinalityEstimate c;
    c.lower = c.upper = entries_->size();
    c.estimate = static_cast<double>(entries_->size());
    c.exact = true;
    return c;
  }
  bool IsExhausted() const override { return pos_ >= entries_->size(); }
  std::string_view name() const override { return "replay"; }

 private:
  const std::vector<Entry>* entries_;
  size_t pos_ = 0;
};

double NsSince(Clock::time_point t0) { return MsSince(t0) * 1e6; }

Rect3 BoxOf(const QueryAst& ast) { return ast.QueryBox(); }

// Draws up to k entries (k == 0: until exhausted) in batches of 64.
std::vector<Entry> Draw(SpatialSampler<3>* s, uint64_t k) {
  std::vector<Entry> out;
  Entry batch[64];
  const uint64_t want = k == 0 ? std::numeric_limits<uint64_t>::max() : k;
  while (out.size() < want && !s->IsExhausted()) {
    const uint64_t room = std::min<uint64_t>(64, want - out.size());
    const uint64_t got = s->NextBatch(std::span<Entry>(batch, room));
    if (got == 0) break;
    out.insert(out.end(), batch, batch + got);
  }
  return out;
}

// Rung 4: feeds the entries to the estimator or analytics the query's task
// uses, reading its current answer after every batch as the evaluator's
// stopping check does; returns false when a column the task needs is
// missing.
bool Feed(const Query& q, const QueryAst& ast, const Table& table,
          const std::vector<Entry>& entries, uint64_t seed) {
  ReplaySampler replay(&entries);
  const Rect3 box = BoxOf(ast);
  auto column = [&](const std::string& f) -> const std::vector<double>* {
    Result<const std::vector<double>*> c = table.NumericColumn(f);
    return c.ok() ? *c : nullptr;
  };
  auto attr_of = [](const std::vector<double>* col) {
    return [col](const Entry& e) {
      return e.id < col->size() ? (*col)[e.id]
                                : std::numeric_limits<double>::quiet_NaN();
    };
  };
  switch (q.kind) {
    case Kind::kAvg:
    case Kind::kVariance:
    case Kind::kCountExact: {
      const AggregateKind kind =
          q.kind == Kind::kAvg        ? AggregateKind::kAvg
          : q.kind == Kind::kVariance ? AggregateKind::kVariance
                                      : AggregateKind::kCount;
      const std::vector<double>* col = column("altitude");
      if (col == nullptr) return false;
      OnlineAggregator<3> agg(&replay, attr_of(col), kind);
      if (!agg.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        agg.Step(64);
        (void)agg.Current();
      }
      return true;
    }
    case Kind::kGroupCell: {
      const std::vector<double>* col = column("altitude");
      if (col == nullptr) return false;
      const double x0 = q.x0, x1 = q.x1, y0 = q.y0, y1 = q.y1;
      auto key = [=](const Entry& e) -> int64_t {
        auto cell = [](double v, double lo, double hi) {
          return std::clamp(static_cast<int>((v - lo) / (hi - lo) * 4), 0, 3);
        };
        return static_cast<int64_t>(cell(e.point[1], y0, y1)) * 4 +
               cell(e.point[0], x0, x1);
      };
      GroupByAggregator<3> agg(&replay, key, attr_of(col), AggregateKind::kAvg);
      if (!agg.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        agg.Step(64);
        (void)agg.Current();
      }
      return true;
    }
    case Kind::kMedian: {
      const std::vector<double>* col = column("altitude");
      if (col == nullptr) return false;
      OnlineQuantile<3> quant(&replay, attr_of(col), 0.5);
      if (!quant.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        quant.Step(64);
        (void)quant.Current();
      }
      return true;
    }
    case Kind::kKde: {
      KdeOptions o;
      o.grid_width = 32;
      o.grid_height = 32;
      OnlineKde<3> kde(&replay, Rect2(Point2(q.x0, q.y0), Point2(q.x1, q.y1)),
                       o);
      if (!kde.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        kde.Step(64);
        (void)kde.MaxHalfWidth();
      }
      return true;
    }
    case Kind::kTopTerms: {
      std::unordered_map<RecordId, std::string> texts;
      auto text_of = [&](RecordId id) -> std::string_view {
        auto it = texts.find(id);
        if (it == texts.end()) {
          Result<std::string> t = table.TextOf(id, "text");
          it = texts.emplace(id, t.ok() ? *t : std::string()).first;
        }
        return it->second;
      };
      OnlineTermFrequency<3> freq(&replay, text_of);
      if (!freq.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        freq.Step(64);
        (void)freq.TopTerms(1);
      }
      return true;
    }
    case Kind::kCluster: {
      KMeansOptions o;
      o.k = 8;
      OnlineKMeans<3> km(&replay, o, Rng(seed));
      if (!km.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        km.Step(256);
        (void)km.Current();
      }
      return true;
    }
    case Kind::kTrajectory: {
      const std::vector<double>* users = column("user");
      if (users == nullptr) return false;
      const int64_t want = ast.object_id;
      OnlineTrajectory<3> traj(&replay, [users, want](const Entry& e) {
        return e.id < users->size() &&
               static_cast<int64_t>(std::llround((*users)[e.id])) == want;
      });
      if (!traj.Begin(box).ok()) return false;
      while (!replay.IsExhausted()) {
        traj.Step(64);
        (void)traj.Current();
      }
      return true;
    }
  }
  return false;
}

const char* FeedLayer(Kind k) {
  switch (k) {
    case Kind::kAvg: return "estimator.ns_per_sample.avg";
    case Kind::kGroupCell: return "estimator.ns_per_sample.groupby";
    case Kind::kMedian: return "estimator.ns_per_sample.quantile";
    case Kind::kKde: return "analytics.ns_per_sample.kde";
    case Kind::kTopTerms: return "analytics.ns_per_sample.topterms";
    case Kind::kCluster: return "analytics.ns_per_sample.kmeans";
    case Kind::kTrajectory: return "analytics.ns_per_sample.trajectory";
    default: return nullptr;
  }
}

struct Timed {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
};

}  // namespace

bool RunLadder(const LadderInput& in, MetricSet* out, std::string* error) {
  SpanRecorder* spans = in.spans;
  ScopedSpan root(spans, "ladder");
  const Clock::time_point ladder_t0 = Clock::now();
  auto mark = [&](const char* rung) {
    std::fprintf(stderr, "ladder: %-22s at %7.2f s\n", rung,
                 MsSince(ladder_t0) / 1e3);
  };

  // Set-up layer: generate, build, warm the lazy columns.
  Session session;
  double generate_s = 0.0, build_s = 0.0;
  {
    ScopedSpan s(spans, "setup.load", root.id());
    Status st = LoadDemo(&session, in.tiny, &generate_s, &build_s);
    if (!st.ok()) {
      *error = "load demo: " + st.ToString();
      return false;
    }
  }
  const ExecOptions nocache =
      ExecOptions().WithProfile(false).WithSampling(
          SamplingOptions().WithSampleCache(false));
  {
    ScopedSpan s(spans, "setup.warmup", root.id());
    const Clock::time_point t0 = Clock::now();
    for (const char* q :
         {"SELECT AVG(altitude) FROM osm REGION(-112, 28, -88, 46) "
          "SAMPLES 2000 USING RSTREE",
          "SELECT TOPTERMS(10, text) FROM tweets REGION(-112, 28, -88, 46) "
          "SAMPLES 500 USING RSTREE",
          "SELECT TRAJECTORY(user, 1) FROM tweets TIME(1372636800, 1375228800) "
          "SAMPLES 500 USING RSTREE"}) {
      Result<QueryResult> r = session.Execute(q, nocache);
      if (!r.ok()) {
        *error = std::string("warm-up: ") + r.status().ToString();
        return false;
      }
    }
    out->Add("setup.warmup_s", MsSince(t0) / 1e3, "s");
  }
  out->Add("setup.generate_s", generate_s, "s");
  out->Add("setup.index_build_s", build_s, "s", 0, "Session::CreateTable x3");

  // The replay set: the workload's queries, plus one deep query of each
  // task the workload lacks, so every estimator/analytics rung is fed.
  std::vector<Query> set = *in.replay;
  std::set<Kind> have;
  for (const Query& q : set) have.insert(q.kind);
  for (const Query& q : *in.deep) {
    if (have.insert(q.kind).second) set.push_back(q);
  }

  std::vector<QueryAst> asts;
  Timed parse_us, plan_us;
  for (const Query& q : set) {
    ScopedSpan s(spans, "parse", root.id());
    Result<QueryAst> ast = ParseQuery(q.text);
    if (!ast.ok()) {
      *error = "parse '" + q.text + "': " + ast.status().ToString();
      return false;
    }
    asts.push_back(*ast);
  }
  mark("parse, plan");
  // Rung 1 and 2, repeated for a steady per-call time.
  for (size_t i = 0; i < set.size(); ++i) {
    const int reps = 20;
    ScopedSpan s(spans, "parse", root.id(), i);
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < reps; ++r) (void)ParseQuery(set[i].text);
    parse_us.Add(MsSince(t0) * 1e3 / reps);
  }
  for (size_t i = 0; i < set.size(); ++i) {
    Result<Table*> table = session.GetTable(asts[i].table);
    if (!table.ok()) continue;
    const int reps = 20;
    ScopedSpan s(spans, "plan", root.id(), i);
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      (void)session.optimizer()->Choose(**table, BoxOf(asts[i]), set[i].k);
    }
    plan_us.Add(MsSince(t0) * 1e3 / reps);
  }
  out->Add("query.parse_us", Median(parse_us.values), "us",
           parse_us.values.size());
  out->Add("query.plan_us", Median(plan_us.values), "us",
           plan_us.values.size());

  mark("sampler, feed");
  // Rungs 3 and 4 per query: sampler begin, the draw loop, the feed.
  std::vector<double> begin_ms(set.size()), draw_ms(set.size()),
      feed_ms(set.size());
  std::vector<std::vector<Entry>> drawn(set.size());
  std::map<std::string, Timed> feed_ns;
  for (size_t i = 0; i < set.size(); ++i) {
    const Query& q = set[i];
    Table* table = *session.GetTable(asts[i].table);
    // Without replacement first, as every estimator and analytics Begin
    // does at parallelism 1 (the ladder's Session::Execute runs there).
    SamplerStrategy strategy = SamplerStrategy::kRsTree;
    if (q.strategy == "LSTREE") {
      strategy = SamplerStrategy::kLsTree;
    } else if (q.strategy == "AUTO") {
      strategy =
          session.optimizer()->Choose(*table, BoxOf(asts[i]), q.k).strategy;
      if (strategy == SamplerStrategy::kStratified ||
          strategy == SamplerStrategy::kAuto) {
        strategy = SamplerStrategy::kRsTree;
      }
    }
    ScopedSpan qspan(spans, "ladder.query", root.id(), i);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<SpatialSampler<3>> sampler;
    {
      ScopedSpan s(spans, "sampler.begin", qspan.id(), i);
      Result<std::unique_ptr<SpatialSampler<3>>> made =
          table->NewSampler(strategy, in.seed + i);
      if (!made.ok()) {
        *error = "NewSampler: " + made.status().ToString();
        return false;
      }
      sampler = std::move(*made);
      Status st =
          sampler->Begin(BoxOf(asts[i]), SamplingMode::kWithoutReplacement);
      if (st.IsNotSupported()) {
        st = sampler->Begin(BoxOf(asts[i]), SamplingMode::kWithReplacement);
      }
      if (!st.ok()) {
        *error = "Begin: " + st.ToString();
        return false;
      }
    }
    begin_ms[i] = MsSince(t0);
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "sampler.draw", qspan.id(), i);
      drawn[i] = Draw(sampler.get(), q.k);
    }
    draw_ms[i] = MsSince(t0);
    t0 = Clock::now();
    {
      ScopedSpan s(spans, std::string("feed.") + KindName(q.kind), qspan.id(),
                   i);
      if (!Feed(q, asts[i], *table, drawn[i], in.seed + i)) {
        *error = std::string("feed ") + KindName(q.kind) + " failed";
        return false;
      }
    }
    feed_ms[i] = MsSince(t0);
    const char* layer = FeedLayer(q.kind);
    if (layer != nullptr && !drawn[i].empty()) {
      feed_ns[layer].Add(feed_ms[i] * 1e6 /
                         static_cast<double>(drawn[i].size()));
    }
  }
  for (const char* layer :
       {"estimator.ns_per_sample.avg", "estimator.ns_per_sample.groupby",
        "estimator.ns_per_sample.quantile", "analytics.ns_per_sample.kde",
        "analytics.ns_per_sample.topterms", "analytics.ns_per_sample.kmeans",
        "analytics.ns_per_sample.trajectory"}) {
    const Timed& t = feed_ns[layer];
    out->Add(layer, Median(t.values), "ns", t.values.size());
  }

  mark("sampler micro");
  // Rung 3 on fixed inputs: Begin on the replay windows per sampler, and
  // the NextBatch loop at k in {1.6k, 16k, 64k} on the Fig 3(a) window.
  Table* osm = *session.GetTable("osm");
  {
    std::map<std::string, Timed> begin_us;
    const std::pair<const char*, SamplerStrategy> begins[] = {
        {"rstree", SamplerStrategy::kRsTree},
        {"lstree", SamplerStrategy::kLsTree},
        {"queryfirst", SamplerStrategy::kQueryFirst}};
    for (size_t i = 0; i < set.size(); ++i) {
      if (asts[i].table != "osm") continue;
      for (const auto& [name, strategy] : begins) {
        const SamplingMode mode = strategy == SamplerStrategy::kLsTree
                                      ? SamplingMode::kWithoutReplacement
                                      : SamplingMode::kWithReplacement;
        ScopedSpan s(spans, std::string("sampler.begin.") + name, root.id(), i);
        Clock::time_point t0 = Clock::now();
        auto made = osm->NewSampler(strategy, in.seed + i);
        if (made.ok()) (void)(*made)->Begin(BoxOf(asts[i]), mode);
        begin_us[name].Add(MsSince(t0) * 1e3);
      }
    }
    for (const auto& [name, strategy] : begins) {
      out->Add(std::string("sampling.begin_us.") + name,
               Median(begin_us[name].values), "us",
               begin_us[name].values.size());
    }
  }
  {
    const double inf = std::numeric_limits<double>::infinity();
    const Rect3 fig(Point3(kFigX0, kFigY0, -inf), Point3(kFigX1, kFigY1, inf));
    const uint64_t ks[3] = {in.tiny ? 100u : 1'600u, in.tiny ? 300u : 16'000u,
                            in.tiny ? 600u : 64'000u};
    const std::tuple<const char*, SamplerStrategy, SamplingMode> draws[] = {
        {"rstree_wr", SamplerStrategy::kRsTree, SamplingMode::kWithReplacement},
        {"lstree_wor", SamplerStrategy::kLsTree,
         SamplingMode::kWithoutReplacement},
        {"queryfirst", SamplerStrategy::kQueryFirst,
         SamplingMode::kWithReplacement},
        {"samplefirst", SamplerStrategy::kSampleFirst,
         SamplingMode::kWithReplacement}};
    for (const auto& [name, strategy, mode] : draws) {
      double ns = 0.0, samples = 0.0, nodes = 0.0;
      for (uint64_t k : ks) {
        auto made = osm->NewSampler(strategy, in.seed + k);
        if (!made.ok() || !(*made)->Begin(fig, mode).ok()) {
          *error = std::string("draw rung ") + name + " could not begin";
          return false;
        }
        const uint64_t nodes0 = osm->rs_tree().nodes_touched();
        ScopedSpan s(spans, std::string("sampler.draw.") + name, root.id(), k);
        Clock::time_point t0 = Clock::now();
        std::vector<Entry> got = Draw(made->get(), k);
        ns += NsSince(t0);
        samples += static_cast<double>(got.size());
        nodes += static_cast<double>(osm->rs_tree().nodes_touched() - nodes0);
      }
      out->Add(std::string("sampling.draw_ns.") + name,
               samples > 0 ? ns / samples : 0.0, "ns", 0,
               "NextBatch loop at k = 1.6k, 16k, 64k on the Fig 3(a) window");
      if (strategy == SamplerStrategy::kRsTree) {
        out->Add("sampling.nodes_per_sample",
                 samples > 0 ? nodes / samples : 0.0,
                 "count", 0, "RsTree::nodes_touched / samples drawn");
      }
    }
  }

  mark("cache");
  // Rung 5: a private cache filled by replaying the workload's publishes,
  // then probed from up to four threads with the workload's ranges.
  {
    SampleReservoirCache cache;
    Timed publish_us;
    for (size_t i = 0; i < set.size() && i < in.replay->size(); ++i) {
      if (asts[i].table != "osm" || drawn[i].empty()) continue;
      ScopedSpan s(spans, "cache.publish", root.id(), i);
      std::vector<Entry> copy = drawn[i];
      Clock::time_point t0 = Clock::now();
      cache.Publish("osm", osm->epoch(), BoxOf(asts[i]), std::move(copy));
      publish_us.Add(MsSince(t0) * 1e3);
    }
    out->Add("cache.publish_us", Median(publish_us.values), "us",
             publish_us.values.size());
    const int threads = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    std::vector<std::vector<double>> per(static_cast<size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng rng(in.seed * 31 + static_cast<uint64_t>(t));
        for (int round = 0; round < 4; ++round) {
          for (size_t j = 0; j < in.replay->size(); ++j) {
            const size_t i =
                (j + static_cast<size_t>(t) * 7) % in.replay->size();
            if (asts[i].table != "osm") continue;
            ScopedSpan s(spans, "cache.probe", root.id(), i);
            Clock::time_point t0 = Clock::now();
            (void)cache.ProbeCovering("osm", osm->epoch(), BoxOf(asts[i]), rng);
            per[static_cast<size_t>(t)].push_back(MsSince(t0) * 1e3);
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    std::vector<double> probes;
    for (const auto& v : per) probes.insert(probes.end(), v.begin(), v.end());
    out->Add("cache.probe_us.p50", Percentile(probes, 0.5), "us",
             probes.size());
    out->Add("cache.probe_us.p99", Percentile(probes, 0.99), "us",
             probes.size());
  }

  mark("session");
  // Rung 6: Session::Execute, NOCACHE, then cached in stream order.
  std::vector<double> exec_nocache(set.size());
  std::vector<QueryResult> results(set.size());
  Timed cached_ms;
  for (size_t i = 0; i < set.size(); ++i) {
    ScopedSpan s(spans, "session.execute.nocache", root.id(), i);
    Clock::time_point t0 = Clock::now();
    Result<QueryResult> r = session.Execute(set[i].text, nocache);
    exec_nocache[i] = MsSince(t0);
    if (!r.ok()) {
      *error = "Session::Execute: " + r.status().ToString();
      return false;
    }
    results[i] = std::move(*r);
  }
  for (size_t i = 0; i < set.size(); ++i) {
    ScopedSpan s(spans, "session.execute.cached", root.id(), i);
    Clock::time_point t0 = Clock::now();
    Result<QueryResult> r =
        session.Execute(set[i].text, ExecOptions().WithProfile(false));
    cached_ms.Add(MsSince(t0));
    if (!r.ok()) {
      *error = "Session::Execute (cached): " + r.status().ToString();
      return false;
    }
  }
  out->Add("query.execute_ms.nocache", Median(exec_nocache), "ms", set.size());
  out->Add("query.execute_ms.cached", Median(cached_ms.values), "ms",
           cached_ms.values.size());
  std::vector<double> loop_self;
  for (size_t i = 0; i < set.size(); ++i) {
    loop_self.push_back(exec_nocache[i] - begin_ms[i] - draw_ms[i] -
                        feed_ms[i]);
  }
  out->Add("query.loop_self_ms", Median(loop_self), "ms", loop_self.size(),
           "execute(nocache) - begin - draw - feed, per query");

  mark("encode");
  // Rung 7: frame encoding of the answers the session returned.
  {
    Timed result_us, progress_us;
    const int reps = 50;
    for (size_t i = 0; i < set.size(); ++i) {
      ScopedSpan s(spans, "encode", root.id(), i);
      Clock::time_point t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        (void)EncodeFrame(FrameType::kResult, i, EncodeQueryResult(results[i]));
      }
      result_us.Add(MsSince(t0) * 1e3 / reps);
      ProgressUpdate p;
      p.samples = results[i].samples;
      p.ci = results[i].ci;
      p.cardinality_estimate = results[i].cardinality_estimate;
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        (void)EncodeFrame(FrameType::kProgress, i, EncodeProgressUpdate(p));
      }
      progress_us.Add(MsSince(t0) * 1e3 / reps);
    }
    out->Add("server.encode_us.progress", Median(progress_us.values), "us",
             progress_us.values.size());
    out->Add("server.encode_us.result", Median(result_us.values), "us",
             result_us.values.size());
  }

  mark("remote");
  // Rung 8: the same queries through RemoteClient against the live server.
  {
    RemoteClient client;
    Status st = client.Connect("127.0.0.1", in.server_port);
    if (!st.ok()) {
      *error = "connect: " + st.ToString();
      return false;
    }
    // The workload's own queries only: the fleet's front end answers just
    // the tasks the coordinator distributes.
    std::vector<double> wire;
    for (size_t i = 0; i < in.replay->size(); ++i) {
      QueryOutcome o = RunOne(&client, set[i], nocache, spans, root.id());
      if (!o.ok) {
        *error = "RemoteClient::Execute: " + o.error;
        return false;
      }
      wire.push_back(o.service_ms - exec_nocache[i]);
    }
    client.Close();
    out->Add("server.wire_ms.p50", Median(wire), "ms", wire.size(),
             "RemoteClient::Execute - Session::Execute, same query, NOCACHE");
  }

  mark("update");
  // The update layer: InsertBatch with no readers, then beside three.
  {
    Result<UpdateManager*> um = session.Updates("osm");
    if (!um.ok()) {
      *error = "Updates: " + um.status().ToString();
      return false;
    }
    const size_t batch = in.tiny ? 20 : 100;
    const size_t batches = in.ingest_docs->size() / batch;
    Timed idle, loaded;
    auto insert = [&](size_t j, Timed* into) {
      std::vector<Value> docs(in.ingest_docs->begin() + j * batch,
                              in.ingest_docs->begin() + (j + 1) * batch);
      ScopedSpan s(spans, "update.insert_batch", root.id(), j);
      Clock::time_point t0 = Clock::now();
      BatchInsertResult r = (*um)->InsertBatch(docs);
      into->Add(MsSince(t0));
      return r.status.ok();
    };
    for (size_t j = 0; j < batches / 2; ++j) {
      if (!insert(j, &idle)) {
        *error = "InsertBatch failed";
        return false;
      }
    }
    // Three readers at 50 explore queries/s each, as `ingest` runs them.
    // A writer waits for every reader's shared latch to drain; readers
    // that never leave a gap would starve it, so a watchdog ends the
    // readers after 5 s. The metric is the slowest insert, which holds any
    // such wait; the inserts after a watchdog stop run without readers.
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        Clock::time_point due = Clock::now();
        for (size_t i = static_cast<size_t>(t); !stop.load(); i += 3) {
          (void)session.Execute((*in.explore)[i % in.explore->size()].text,
                                ExecOptions().WithProfile(false));
          due += std::chrono::milliseconds(20);
          std::this_thread::sleep_until(due);
        }
      });
    }
    std::thread watchdog([&] {
      for (int i = 0; i < 500 && !stop.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      stop.store(true);
    });
    bool ok = true;
    size_t beside_readers = 0;
    for (size_t j = batches / 2; j < batches; ++j) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ok = insert(j, &loaded) && ok;
      if (!stop.load()) ++beside_readers;
    }
    const bool starved = stop.exchange(true);
    watchdog.join();
    for (std::thread& t : readers) t.join();
    if (!ok) {
      *error = "InsertBatch (loaded) failed";
      return false;
    }
    out->Add("update.insert_batch_ms.idle", Median(idle.values), "ms",
             idle.values.size());
    out->Add("update.insert_batch_ms.loaded",
             *std::max_element(loaded.values.begin(), loaded.values.end()),
             "ms", loaded.values.size(),
             "slowest insert; " + std::to_string(beside_readers) + " of " +
                 std::to_string(loaded.values.size()) +
                 " ended beside 3 reader threads" +
                 (starved ? ", the watchdog stopped the readers" : ""));
  }
  mark("done");
  return true;
}

bool RunCoordinatorRung(const std::vector<Query>& replay,
                        const StackSpec& fleet, SpanRecorder* spans,
                        MetricSet* out, std::string* error) {
  std::unique_ptr<Stack> stack = StartStack(fleet, "coordinator-rung");
  if (stack == nullptr) {
    *error = "fleet did not start";
    return false;
  }
  ScopedSpan root(spans, "coordinator");
  const ExecOptions nocache =
      ExecOptions().WithProfile(false).WithSampling(
          SamplingOptions().WithSampleCache(false));
  const Counters before = FetchCounters({stack->port});
  RemoteClient coord;
  std::vector<std::unique_ptr<RemoteClient>> shards;
  Status st = coord.Connect("127.0.0.1", stack->port);
  for (int port : stack->shard_ports) {
    shards.push_back(std::make_unique<RemoteClient>());
    if (st.ok()) st = shards.back()->Connect("127.0.0.1", port);
  }
  if (!st.ok()) {
    *error = "connect: " + st.ToString();
    return false;
  }
  std::vector<double> fanout, merge;
  size_t used = 0;
  for (size_t i = 0; i < replay.size() && used < 24; ++i) {
    const Query& q = replay[i];
    if (!q.distributable) continue;
    ++used;
    // Warm each shard's lazy columns on the first query.
    QueryOutcome c = RunOne(&coord, q, nocache, spans, root.id());
    if (used == 1) c = RunOne(&coord, q, nocache, spans, root.id());
    double shard_first = 0.0, shard_total = 0.0;
    bool ok = c.ok;
    for (auto& s : shards) {
      QueryOutcome d = RunOne(s.get(), q, nocache, spans, root.id());
      ok = ok && d.ok;
      shard_first = std::max(shard_first, d.first_ci_ms);
      shard_total = std::max(shard_total, d.query_ms);
    }
    if (!ok) {
      *error = "coordinator rung query failed: " + c.error;
      return false;
    }
    fanout.push_back(c.first_ci_ms - shard_first);
    merge.push_back(c.query_ms - shard_total);
  }
  const Counters after = FetchCounters({stack->port});
  coord.Close();
  for (auto& s : shards) s->Close();
  stack->Stop();
  out->Add("cluster.fanout_ms", Median(fanout), "ms", fanout.size(),
           "coordinator first-CI - slowest shard's direct first-CI");
  out->Add("cluster.merge_ms", Median(merge), "ms", merge.size(),
           "coordinator query_ms - slowest shard's direct query_ms");
  out->Add("cluster.rpc_failures",
           Delta(before, after, "storm_coord_shard_rpc_failures_total"),
           "count");
  out->Add("cluster.partials_dropped",
           Delta(before, after, "storm_coord_partials_dropped_total"), "count");
  return true;
}

}  // namespace perfbench
