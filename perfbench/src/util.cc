#include "util.h"

#include <fstream>

namespace perfbench {

std::map<std::string, std::pair<double, double>> SpanRecorder::SelfTimes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, to subtract the interval they cover. Children of
  // one parent run one after another here, so their durations add up.
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns > s.start_ns) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<double, double>> out;
  for (const Span& s : spans_) {
    const int64_t total = std::max<int64_t>(0, s.end_ns - s.start_ns);
    const int64_t self = std::max<int64_t>(0, total - child_ns[s.id]);
    auto& slot = out[s.name];
    slot.first += static_cast<double>(total) / 1e6;
    slot.second += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  f << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << ",\"name\":\"" << JsonEscape(s.name)
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
