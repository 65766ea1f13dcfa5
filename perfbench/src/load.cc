#include "load.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace storm;

namespace {

Clock::time_point At(Clock::time_point t0, double ms) {
  return t0 + std::chrono::microseconds(static_cast<int64_t>(ms * 1e3));
}

// Sends `q` and fills the timing fields relative to `due`.
void Execute(RemoteClient* client, const Query& q, const ExecOptions& base,
             Clock::time_point due, QueryOutcome* out, SpanRecorder* spans,
             uint64_t parent) {
  ScopedSpan span(spans, "remote.execute", parent, out->index);
  const Clock::time_point sent = Clock::now();
  bool got_first = false;
  ExecOptions options = base;
  options.WithProgress([&](const QueryProgress& p) {
    ++out->progress_frames;
    if (!got_first && p.samples > 0 && std::isfinite(p.ci.half_width)) {
      got_first = true;
      out->first_ci_ms = MsSince(due);
    }
    return true;
  });
  Result<QueryResult> r = client->Execute(q.text, options);
  const Clock::time_point done = Clock::now();
  out->query_ms = MsSince(due, done);
  out->service_ms = MsSince(sent, done);
  if (!got_first) out->first_ci_ms = out->query_ms;
  if (!r.ok()) {
    out->ok = false;
    out->error = r.status().ToString();
    return;
  }
  out->ok = true;
  out->result = std::move(*r);
  out->result.profile.reset();
}

}  // namespace

QueryOutcome RunOne(RemoteClient* client, const Query& q,
                    const ExecOptions& base, SpanRecorder* spans,
                    uint64_t parent_span) {
  QueryOutcome out;
  Execute(client, q, base, Clock::now(), &out, spans, parent_span);
  return out;
}

WindowResult RunWindow(int port, const QueryLoad& load,
                       const InsertLoad& inserts, double seconds,
                       SpanRecorder* spans) {
  WindowResult out;
  const double window_ms = seconds * 1e3;
  // Open-loop arrivals: exponential gaps at the fixed rate, from the seed.
  std::vector<double> due;
  if (load.rate_qps > 0.0) {
    Rng rng(load.arrival_seed * 0x2545F4914F6CDD1DULL + 0xa77);
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.UniformDouble()) / load.rate_qps * 1e3;
      if (t >= window_ms) break;
      due.push_back(t);
    }
  }
  const size_t available = load.stream->size() - load.first;
  const size_t limit =
      load.rate_qps > 0.0 ? std::min(due.size(), available) : available;
  std::atomic<size_t> next{0};
  std::atomic<bool> exhausted{false};
  std::mutex mu;  // guards out.queries, out.inserts
  std::atomic<int64_t> last_done_ns{0};
  ScopedSpan root(spans, "window");
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = At(start, window_ms);
  auto note_done = [&] {
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count();
    int64_t prev = last_done_ns.load();
    while (ns > prev && !last_done_ns.compare_exchange_weak(prev, ns)) {
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < load.connections; ++c) {
    threads.emplace_back([&] {
      RemoteClient client;
      Status st = client.Connect("127.0.0.1", port);
      std::vector<QueryOutcome> mine;
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= limit) {
          if (load.rate_qps <= 0.0 || limit < due.size()) {
            exhausted.store(true);
          }
          break;
        }
        QueryOutcome o;
        o.index = load.first + i;
        Clock::time_point due_at;
        if (load.rate_qps > 0.0) {
          due_at = At(start, due[i]);
          if (Clock::now() < due_at) {
            std::this_thread::sleep_until(due_at);
            o.late_ms = MsSince(due_at);
          }
        } else {
          due_at = Clock::now();
          if (due_at >= end) break;
        }
        o.due_ms = MsSince(start, due_at);
        if (!st.ok()) {
          o.ok = false;
          o.error = st.ToString();
        } else {
          ExecOptions base;
          base.WithParallelism(load.parallelism);
          Execute(&client, (*load.stream)[o.index], base, due_at, &o, spans,
                  root.id());
        }
        note_done();
        mine.push_back(std::move(o));
      }
      client.Close();
      std::lock_guard<std::mutex> lock(mu);
      for (QueryOutcome& o : mine) out.queries.push_back(std::move(o));
    });
  }
  if (inserts.docs != nullptr && inserts.batches_per_s > 0.0) {
    threads.emplace_back([&] {
      RemoteClient client;
      Status st = client.Connect("127.0.0.1", port);
      std::vector<InsertOutcome> mine;
      const double period_ms = 1e3 / inserts.batches_per_s;
      for (size_t j = 0;; ++j) {
        const double due_ms = static_cast<double>(j) * period_ms;
        const size_t lo = j * inserts.batch;
        if (due_ms >= window_ms || lo + inserts.batch > inserts.docs->size()) {
          break;
        }
        InsertOutcome o;
        const Clock::time_point due_at = At(start, due_ms);
        if (Clock::now() < due_at) {
          std::this_thread::sleep_until(due_at);
          o.late_ms = MsSince(due_at);
        }
        if (!st.ok()) {
          o.error = st.ToString();
        } else {
          ScopedSpan span(spans, "remote.insert_batch", root.id());
          std::vector<Value> batch(inserts.docs->begin() + lo,
                                   inserts.docs->begin() + lo + inserts.batch);
          BatchInsertResult r = client.InsertBatch("osm", batch);
          o.insert_ms = MsSince(due_at);
          o.acked = r.ids.size();
          o.ok = r.status.ok() && r.ids.size() == batch.size();
          if (!o.ok) o.error = r.status.ToString();
        }
        note_done();
        mine.push_back(std::move(o));
      }
      client.Close();
      std::lock_guard<std::mutex> lock(mu);
      out.inserts = std::move(mine);
    });
  }
  for (std::thread& t : threads) t.join();
  out.stream_exhausted = exhausted.load();
  out.wall_s = static_cast<double>(last_done_ns.load()) / 1e9;
  if (out.wall_s < seconds) out.wall_s = seconds;
  return out;
}

Counters FetchCounters(const std::vector<int>& ports) {
  Counters out;
  for (int port : ports) {
    RemoteClient client;
    if (!client.Connect("127.0.0.1", port).ok()) continue;
    Result<std::string> text = client.Metrics();
    client.Close();
    if (!text.ok()) continue;
    std::istringstream in(*text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t name_end = line.find_first_of("{ ");
      const size_t value_at = line.rfind(' ');
      if (name_end == std::string::npos || value_at == std::string::npos) {
        continue;
      }
      out[line.substr(0, name_end)] +=
          std::strtod(line.c_str() + value_at + 1, nullptr);
    }
  }
  return out;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

}  // namespace perfbench
