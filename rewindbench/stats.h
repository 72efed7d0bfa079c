// RewindBench measurement helpers: raw latency samples with interpolated
// percentiles, the benchmark's own request spans, and process counters.
#ifndef REWINDBENCH_STATS_H_
#define REWINDBENCH_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Percentile `p` in [0, 1] of `v`, linearly interpolated between the two
/// nearest ranks (so a median is not stuck on one clock tick). Reorders
/// `v`. 0 when empty.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  double rank = p * static_cast<double>(v->size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::nth_element(v->begin(), v->begin() + lo, v->end());
  double a = (*v)[lo];
  if (lo + 1 >= v->size()) return a;
  double b = *std::min_element(v->begin() + lo + 1, v->end());
  return a + (b - a) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

/// Samples (latencies in nanoseconds, or counts), kept per window of a
/// timed phase. A percentile is the median over windows of each window's
/// percentile, so a burst of host interference that covers few windows
/// does not move it. Samples added without a window form one window.
struct Samples {
  std::vector<std::vector<double>> windows;

  void Add(std::uint64_t d) { Add(0, d); }
  void Add(std::size_t window, std::uint64_t d) {
    if (windows.size() <= window) windows.resize(window + 1);
    windows[window].push_back(static_cast<double>(d));
  }
  void Merge(const Samples& o) {
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size());
    for (std::size_t w = 0; w < o.windows.size(); ++w) {
      windows[w].insert(windows[w].end(), o.windows[w].begin(),
                        o.windows[w].end());
    }
  }
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& w : windows) n += w.size();
    return n;
  }
  double Sum() const {
    double sum = 0;
    for (const auto& w : windows) {
      for (double v : w) sum += v;
    }
    return sum;
  }
  /// Only the listed windows' samples.
  Samples Keep(const std::vector<std::size_t>& keep) const {
    Samples out;
    for (std::size_t w : keep) {
      if (w < windows.size()) out.windows.push_back(windows[w]);
    }
    return out;
  }
  double PNs(double p) const {
    std::vector<double> per_window;
    for (const auto& w : windows) {
      if (w.empty()) continue;
      std::vector<double> copy = w;
      per_window.push_back(Percentile(&copy, p));
    }
    return Median(per_window);
  }
  double PUs(double p) const { return PNs(p) / 1e3; }
};

/// One benchmark span: a call into the program, or the phase it belongs to.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  const char* name = "";     ///< string literal
  std::uint64_t t0 = 0, t1 = 0;
  std::uint32_t tid = 0;
};

/// Spans of one thread, kept in memory until the run ends. Only the first
/// `cap` are kept (the rest are counted), so a long run's dump stays small;
/// latency figures come from Samples, which see every call.
class SpanLog {
 public:
  SpanLog(std::uint32_t tid, std::size_t cap) : tid_(tid), cap_(cap) {
    spans_.reserve(std::min<std::size_t>(cap, 1 << 16));
  }
  /// Ids are unique across threads: the thread number in the high bits.
  std::uint64_t NewId() { return (std::uint64_t{tid_} << 40) | ++seq_; }
  void Add(const char* name, std::uint64_t parent, std::uint64_t t0,
           std::uint64_t t1, std::uint64_t id = 0) {
    ++total_;
    if (spans_.size() >= cap_) return;
    spans_.push_back({id != 0 ? id : NewId(), parent, name, t0, t1, tid_});
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t total() const { return total_; }

 private:
  std::uint32_t tid_;
  std::size_t cap_;
  std::uint64_t seq_ = 0;
  std::uint64_t total_ = 0;
  std::vector<Span> spans_;
};

/// Writes spans as Chrome trace_event JSON; each event carries its span id
/// and parent id in "args". Returns false when the file cannot be written.
inline bool DumpSpans(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   first ? "" : ",", s.name, s.tid, s.t0 / 1e3,
                   (s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

/// CPU time and context switches of this process (getrusage).
struct ProcUsage {
  double cpu_us = 0;
  double vol_cs = 0;
  double invol_cs = 0;

  static ProcUsage Self() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    u.vol_cs = static_cast<double>(ru.ru_nvcsw);
    u.invol_cs = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  ProcUsage Minus(const ProcUsage& o) const {
    return {cpu_us - o.cpu_us, vol_cs - o.vol_cs, invol_cs - o.invol_cs};
  }
};

}  // namespace rbench

#endif  // REWINDBENCH_STATS_H_
