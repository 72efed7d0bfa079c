// RewindBench: runs one workload against RewindKV and prints every
// metric by name and unit, with the result's last line one JSON object.
//
//   rewindbench --workload=kv-update --seed=1 --seconds=10 --trace=0
//               --kv-server=PATH --run-dir=DIR
//
// It measures from outside the program: it times its own calls into
// KvStore, KvClient and KvStore::Open, and reads the counters the program
// already exposes (NvmStats, KvShardStats, the obs::Registry, STATS v2 and
// /proc/<pid> of the server). Every read is checked against a model the
// benchmark keeps itself (checker.h). See README.md for the workloads.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checker.h"
#include "gen.h"
#include "src/kv/kv_store.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/client.h"
#include "stats.h"

namespace rbench {
namespace {

constexpr std::size_t kValueBytes = 100;
constexpr std::size_t kThreads = 4;
/// User bytes of one live key: its 8-byte key plus its value.
constexpr double kUserBytesPerKey = 8.0 + kValueBytes;
/// Spans kept per thread for the dump (all calls are still timed).
constexpr std::size_t kSpanCap = 20000;
/// Unmeasured lead-in of every timed phase.
constexpr double kWarmupSeconds = 1.0;
/// served-update: rounds of a light and a saturated phase, the warm-up and
/// the window of each phase, and the timed full scans ending each round.
constexpr int kServedRounds = 8;
constexpr double kServedWarmupSeconds = 0.25;
constexpr double kServedWindowSeconds = 0.25;
constexpr int kServedScansPerRound = 20;
/// Embedded recovery and full-scan timing: stores of kRecoveryKeys keys,
/// kRecoveries cycles on each, kRecoveryPuts Puts before each crash.
constexpr int kRecoveryStores = 8;
constexpr std::size_t kRecoveryKeys = 20000;
constexpr int kRecoveries = 4;
constexpr int kRecoveryPuts = 4000;

// Stream purposes for StreamSeed: one independent generator per use.
enum Purpose : std::uint64_t {
  kPurposeOps = 1,
  kPurposeLight = 2,
  kPurposeSaturated = 3,
  kPurposeRestart = 4,
  kPurposeCrash = 5,
  kPurposeRecovery = 6,
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string kv_server;
  std::string run_dir;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "rewindbench: %s\n", msg.c_str());
  std::exit(2);
}

/// Everything a run reports: per-op tallies, end-to-end metrics (printed
/// with --trace=0) and per-layer metrics (printed with --trace=1).
struct Report {
  std::map<std::string, Tally> tallies;
  std::vector<std::tuple<std::string, double, std::string>> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double v, const char* unit) {
    e2e.emplace_back(name, v, unit);
  }
  /// Per-layer metrics take their unit from kLayers.
  void Layer(const std::string& name, double v) { layer[name] = v; }
  void Note(const std::string& line) { notes.push_back(line); }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The store configuration kv_server ships with: 4 hash shards,
/// 1L-NFP/Batch (paper-optimized buckets of 1000, fence groups of 8),
/// emulated NVM at 150 ns per write and 100 ns per fence, a 512 MB heap.
rwd::KvConfig StoreConfig(std::uint32_t checkpoint_ms,
                          const std::string& heap_file = "") {
  rwd::KvConfig c;
  c.rewind.log_impl = rwd::LogImpl::kBatch;
  c.rewind.layers = rwd::Layers::kOne;
  c.rewind.policy = rwd::Policy::kNoForce;
  c.rewind.bucket_capacity = 1000;
  c.rewind.batch_group_size = 8;
  c.rewind.nvm.mode = rwd::NvmMode::kFast;
  c.rewind.nvm.heap_bytes = std::size_t{512} << 20;
  c.rewind.nvm.write_latency_ns = 150;
  c.rewind.nvm.fence_latency_ns = 100;
  c.rewind.nvm.heap_file = heap_file;
  c.shards = 4;
  c.checkpoint_period_ms = checkpoint_ms;
  return c;
}

// ---------------------------------------------------------------------------
// Counters the program exposes, read before and after a phase.
// ---------------------------------------------------------------------------

rwd::obs::Histogram::Snapshot HistDelta(
    const rwd::obs::Histogram::Snapshot& after,
    const rwd::obs::Histogram::Snapshot& before) {
  rwd::obs::Histogram::Snapshot d = after;
  d.count -= before.count;
  d.sum_ns -= before.sum_ns;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
       ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

/// In-process counters of an embedded store.
struct StoreCounters {
  std::uint64_t nvm_writes = 0, fences = 0, flushes = 0;
  rwd::KvShardStats kv;
  std::map<std::string, rwd::obs::Histogram::Snapshot> hist;

  static StoreCounters Read(rwd::KvStore& store) {
    StoreCounters c;
    rwd::NvmStats& s = store.runtime().nvm().stats();
    c.nvm_writes = s.nvm_writes.load();
    c.fences = s.fences.load();
    c.flushes = s.flushes.load();
    for (std::size_t i = 0; i < store.shards(); ++i) {
      rwd::KvShardStats st = store.shard_stats(i);
      c.kv.gets += st.gets;
      c.kv.optimistic_hits += st.optimistic_hits;
      c.kv.optimistic_retries += st.optimistic_retries;
      c.kv.read_latch_acquires += st.read_latch_acquires;
      c.kv.starvation_fallbacks += st.starvation_fallbacks;
    }
    for (const char* h : {"checkpoint.duration", "txn.prepare", "txn.fence",
                          "txn.end", "txn.decision"}) {
      c.hist[h] = rwd::obs::Registry::Get().GetHistogram(h)->Snap();
    }
    return c;
  }
};

/// Time spent in each recovery phase so far in this process, summed over
/// every log partition (the registry's recovery.* histograms; the
/// `.last_us` gauges hold only the partition that recovered last).
struct RecoveryTime {
  double us[4] = {0, 0, 0, 0};  ///< analysis, redo, undo, total

  static RecoveryTime Read() {
    RecoveryTime t;
    const char* names[] = {"recovery.analysis", "recovery.redo",
                           "recovery.undo", "recovery.total"};
    for (int i = 0; i < 4; ++i) {
      t.us[i] = static_cast<double>(
                    rwd::obs::Registry::Get().GetHistogram(names[i])->Snap().sum_ns) /
                1e3;
    }
    return t;
  }
};

std::uint64_t LogBytes(rwd::KvStore& store) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < store.shards(); ++i) {
    total += store.ShardLogBytes(i);
  }
  return total;
}

/// Per-layer metrics of the nvm, core and kv layers from counter deltas.
void ReportStoreLayers(Report* r, const StoreCounters& a,
                       const StoreCounters& b, double acked_writes) {
  r->Layer("nvm.writes_per_acked_write",
           Ratio(static_cast<double>(b.nvm_writes - a.nvm_writes),
                 acked_writes));
  r->Layer("nvm.fences_per_acked_write",
           Ratio(static_cast<double>(b.fences - a.fences), acked_writes));
  r->Layer("nvm.flushes_per_acked_write",
           Ratio(static_cast<double>(b.flushes - a.flushes), acked_writes));
  auto hist = [&](const char* name) {
    return HistDelta(b.hist.at(name), a.hist.at(name));
  };
  rwd::obs::Histogram::Snapshot cp = hist("checkpoint.duration");
  r->Layer("checkpoint.count", static_cast<double>(cp.count));
  r->Layer("checkpoint.duration.p50_us", cp.PercentileNs(50) / 1e3);
  r->Layer("checkpoint.duration.p99_us", cp.PercentileNs(99) / 1e3);
  for (const char* phase : {"prepare", "fence", "end", "decision"}) {
    std::string name = std::string("txn.") + phase;
    r->Layer(name + ".p50_us", hist(name.c_str()).PercentileNs(50) / 1e3);
  }
  double gets = static_cast<double>(b.kv.gets - a.kv.gets);
  r->Layer("kv.optimistic_hits_per_get",
           Ratio(static_cast<double>(b.kv.optimistic_hits -
                                     a.kv.optimistic_hits),
                 gets));
  r->Layer("kv.optimistic_retries_per_get",
           Ratio(static_cast<double>(b.kv.optimistic_retries -
                                     a.kv.optimistic_retries),
                 gets));
  r->Layer("kv.read_latch_acquires_per_get",
           Ratio(static_cast<double>(b.kv.read_latch_acquires -
                                     a.kv.read_latch_acquires),
                 gets));
  r->Layer("kv.starvation_fallbacks",
           static_cast<double>(b.kv.starvation_fallbacks -
                               a.kv.starvation_fallbacks));
}

void ReportRecovery(Report* r, double analysis_us, double redo_us,
                          double undo_us, double total_us) {
  r->Layer("recovery.analysis_us", analysis_us);
  r->Layer("recovery.redo_us", redo_us);
  r->Layer("recovery.undo_us", undo_us);
  r->Layer("recovery.total_us", total_us);
}

void ReportProc(Report* r, const char* prefix, const ProcUsage& d,
                double ops) {
  r->Layer(std::string(prefix) + ".cpu_us_per_op", Ratio(d.cpu_us, ops));
  r->Layer(std::string(prefix) + ".ctx_switches_per_kop",
           Ratio(d.vol_cs + d.invol_cs, ops / 1e3));
}

// ---------------------------------------------------------------------------
// Shared per-key version state of the concurrent workloads.
// ---------------------------------------------------------------------------

/// Key index i is written only by its owner (i % kThreads), so its last
/// acked version is known exactly; readers use [acked, issued] as the
/// window of legal versions (checker.h GetIsLegal).
struct KeyVersions {
  explicit KeyVersions(std::size_t n)
      : issued(new std::atomic<std::uint64_t>[n]),
        acked(new std::atomic<std::uint64_t>[n]),
        size(n) {
    for (std::size_t i = 0; i < n; ++i) {
      issued[i].store(0, std::memory_order_relaxed);
      acked[i].store(0, std::memory_order_relaxed);
    }
  }
  void SetAll(std::uint64_t v) {
    for (std::size_t i = 0; i < size; ++i) {
      issued[i].store(v, std::memory_order_relaxed);
      acked[i].store(v, std::memory_order_relaxed);
    }
  }
  Model ToModel(std::uint64_t seed) const {
    Model m;
    m.seed = seed;
    m.value_size = kValueBytes;
    m.version.resize(size);
    for (std::size_t i = 0; i < size; ++i) m.version[i] = acked[i].load();
    return m;
  }
  std::unique_ptr<std::atomic<std::uint64_t>[]> issued, acked;
  std::size_t size;
};

/// A key index owned by thread `t`, near the sampled one.
std::size_t OwnIndex(std::size_t idx, std::size_t t, std::size_t n) {
  std::size_t own = idx - idx % kThreads + t;
  return own < n ? own : own - kThreads;
}

/// CPU ticks the hypervisor took from this machine's vCPUs, and all
/// ticks, from /proc/stat: a run with much steal measured a busy host.
std::pair<double, double> StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// The clock of a timed phase: a warm-up whose ops are checked but not
/// measured (caches fill, the heap and logs reach their steady shape), then
/// `seconds` split into equal windows of about `window_s`. A thread that
/// sleeps between window ends records how much CPU time the hypervisor
/// took in each window (steal); a phase's figures come from its calmer
/// half of windows, so they measure the program more than the host's other
/// tenants.
class PhaseClock {
 public:
  PhaseClock(double warmup_s, double seconds, double window_s = 1.0)
      : measure_start_(NowNs() + static_cast<std::uint64_t>(warmup_s * 1e9)),
        end_(measure_start_ + static_cast<std::uint64_t>(seconds * 1e9)),
        windows_(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / window_s))),
        steal_(windows_, 0.0),
        monitor_([this] { Monitor(); }) {}
  ~PhaseClock() {
    if (monitor_.joinable()) monitor_.join();
  }
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  /// Window of time `t`: -1 in the warm-up, windows() once past the end.
  long Window(std::uint64_t t) const {
    if (t < measure_start_) return -1;
    if (t >= end_) return static_cast<long>(windows_);
    return static_cast<long>((t - measure_start_) * windows_ /
                             (end_ - measure_start_));
  }
  bool Done(std::uint64_t t) const { return t >= end_; }
  std::size_t windows() const { return windows_; }
  double window_seconds() const {
    return static_cast<double>(end_ - measure_start_) / 1e9 /
           static_cast<double>(windows_);
  }

  /// The half of the windows (rounded up) with the least steal, in time
  /// order. Waits for the phase's last window to end.
  std::vector<std::size_t> CalmWindows() {
    if (monitor_.joinable()) monitor_.join();
    std::vector<std::size_t> idx(windows_);
    for (std::size_t w = 0; w < windows_; ++w) idx[w] = w;
    std::stable_sort(idx.begin(), idx.end(), [this](std::size_t x,
                                                    std::size_t y) {
      return steal_[x] < steal_[y];
    });
    idx.resize((windows_ + 1) / 2);
    std::sort(idx.begin(), idx.end());
    return idx;
  }

 private:
  void Monitor() {
    auto sleep_until = [](std::uint64_t t) {
      std::uint64_t now = NowNs();
      if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
    };
    sleep_until(measure_start_);
    std::pair<double, double> prev = StealTicks();
    for (std::size_t w = 0; w < windows_; ++w) {
      sleep_until(measure_start_ + (end_ - measure_start_) * (w + 1) / windows_);
      std::pair<double, double> cur = StealTicks();
      steal_[w] = Ratio(cur.first - prev.first, cur.second - prev.second);
      prev = cur;
    }
  }

  std::uint64_t measure_start_, end_;
  std::size_t windows_;
  std::vector<double> steal_;
  std::thread monitor_;  // last: it reads the members above
};

/// Per-thread results of a timed phase. Latency samples and window counts
/// cover the measured part; tallies cover every op, warm-up included.
struct ThreadOut {
  Samples put, get, scan, scan_items;  ///< scan_items: items per Scan
  std::vector<std::uint64_t> window_ops;
  std::uint64_t ops = 0, puts_acked = 0;
  std::uint64_t start_ns = 0, end_ns = 0;
  std::map<std::string, Tally> tallies;
  std::unique_ptr<SpanLog> spans;

  /// Counts one op and, given the current time (0 = not read for this op),
  /// moves to that time's window. Returns whether the phase is past its
  /// warm-up.
  bool Tick(const PhaseClock& clock, std::uint64_t now) {
    if (window_ops.empty()) window_ops.assign(clock.windows(), 0);
    ++pending_;
    if (now != 0) {
      if (cur_ >= 0 && static_cast<std::size_t>(cur_) < window_ops.size()) {
        window_ops[static_cast<std::size_t>(cur_)] += pending_;
      }
      pending_ = 0;
      cur_ = clock.Window(now);
    }
    return cur_ >= 0;
  }
  /// The window the thread is in (valid while past the warm-up).
  std::size_t window() const { return static_cast<std::size_t>(cur_); }

 private:
  std::uint64_t pending_ = 0;
  long cur_ = -1;
};

void MergeTallies(std::map<std::string, Tally>* into,
                  const std::map<std::string, Tally>& from) {
  for (const auto& [k, t] : from) (*into)[k].Merge(t);
}

/// Ops per second of the median of `windows` across all threads.
std::vector<double> WindowRates(const std::vector<ThreadOut>& outs,
                                const PhaseClock& clock,
                                const std::vector<std::size_t>& windows) {
  std::vector<double> rates;
  for (std::size_t w : windows) {
    double ops = 0;
    for (const ThreadOut& o : outs) {
      if (w < o.window_ops.size()) ops += static_cast<double>(o.window_ops[w]);
    }
    rates.push_back(ops / clock.window_seconds());
  }
  return rates;
}

double WindowOpsPerSecond(const std::vector<ThreadOut>& outs,
                          const PhaseClock& clock,
                          const std::vector<std::size_t>& windows) {
  return Median(WindowRates(outs, clock, windows));
}

// ---------------------------------------------------------------------------
// Embedded workloads: kv-update and kv-read-scan.
// ---------------------------------------------------------------------------

struct EmbeddedSpec {
  std::size_t keys;
  double put_share;   ///< of timed ops
  double scan_share;  ///< of timed ops
  std::size_t setups;
  /// Time every n-th Get (a clock pair costs a fair share of a latch-free
  /// Get; sampling keeps the read path's throughput honest).
  std::uint64_t get_sample_every;
};

/// Loads every key at version 1 with single Puts from one thread (four
/// writer threads load slower than one on this store), timing each Put.
Samples LoadStore(rwd::KvStore* store, std::uint64_t seed, std::size_t n,
                  Tally* tally) {
  Samples lat;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key = KeyOf(seed, i);
    std::string v = EncodeValue(key, 1, kValueBytes);
    std::uint64_t t0 = NowNs();
    bool ok = store->Put(key, v);
    lat.Add(NowNs() - t0);
    tally->Count(ok);
  }
  return lat;
}

/// Full ordered scan of `store` checked against `model`; returns the
/// items per second of the scan and counts one "verify_scan" op.
double VerifyFullScan(rwd::KvStore& store, const Model& model, Report* r) {
  ScanChecker check(model, 0, ~std::size_t{0});
  std::uint64_t items = 0;
  std::uint64_t t0 = NowNs();
  store.Scan(0, ~std::size_t{0}, [&](std::uint64_t k, std::string_view v) {
    ++items;
    check.Item(k, v);
    return true;
  });
  double secs = static_cast<double>(NowNs() - t0) / 1e9;
  r->tallies["verify_scan"].Count(check.Finish());
  return Ratio(static_cast<double>(items), secs);
}

/// One timed phase of the embedded mix on kThreads threads.
std::vector<ThreadOut> RunEmbeddedPhase(rwd::KvStore* store,
                                        KeyVersions* kv, const Model& base,
                                        const EmbeddedSpec& spec,
                                        std::uint64_t seed,
                                        const PhaseClock& clock, bool spans,
                                        std::uint64_t phase) {
  std::vector<ThreadOut> outs(kThreads);
  std::vector<std::thread> threads;
  const Zipf keys(spec.keys);
  const Zipf lengths(100);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadOut& o = outs[t];
      if (spans) o.spans = std::make_unique<SpanLog>(t + 1, kSpanCap);
      std::uint64_t root = spans ? o.spans->NewId() : 0;
      Rng rng(StreamSeed(seed, kPurposeOps, phase * 64 + t));
      Tally& put_t = o.tallies["put"];
      Tally& get_t = o.tallies["get"];
      Tally& scan_t = o.tallies["scan"];
      std::string value;
      std::uint64_t gets = 0;
      bool measuring = false;
      o.start_ns = NowNs();
      for (;;) {
        double u = rng.Unit();
        std::size_t idx = keys.SampleScrambled(rng);
        std::uint64_t now;
        if (u < spec.put_share) {
          std::size_t own = OwnIndex(idx, t, spec.keys);
          std::uint64_t key = KeyOf(seed, own);
          std::uint64_t ver =
              kv->issued[own].load(std::memory_order_relaxed) + 1;
          std::string v = EncodeValue(key, ver, kValueBytes);
          kv->issued[own].store(ver, std::memory_order_release);
          std::uint64_t t0 = NowNs();
          bool ok = store->Put(key, v);
          now = NowNs();
          kv->acked[own].store(ver, std::memory_order_release);
          if (measuring) o.put.Add(o.window(), now - t0);
          if (spans) o.spans->Add("kv.put", root, t0, now);
          ++o.puts_acked;
          put_t.Count(ok);
        } else if (u < spec.put_share + spec.scan_share) {
          // Start at a key or just before it, so some scans begin in a gap.
          std::uint64_t from = KeyOf(seed, idx) - rng.Below(4);
          std::size_t len = 1 + lengths.Sample(rng);
          ScanChecker check(base, from, len);
          std::uint64_t t0 = NowNs();
          std::size_t n = store->Scan(
              from, len, [&check](std::uint64_t k, std::string_view v) {
                return check.Item(k, v);
              });
          now = NowNs();
          if (measuring) {
            o.scan.Add(o.window(), now - t0);
            o.scan_items.Add(o.window(), n);
          }
          if (spans) o.spans->Add("kv.scan", root, t0, now);
          scan_t.Count(check.Finish());
        } else {
          std::uint64_t key = KeyOf(seed, idx);
          std::uint64_t lo = kv->acked[idx].load(std::memory_order_acquire);
          bool timed = ++gets % spec.get_sample_every == 0;
          std::uint64_t t0 = timed ? NowNs() : 0;
          bool found = store->Get(key, &value);
          now = timed ? NowNs() : 0;
          if (timed) {
            if (measuring) o.get.Add(o.window(), now - t0);
            if (spans) o.spans->Add("kv.get", root, t0, now);
          }
          std::uint64_t hi = kv->issued[idx].load(std::memory_order_acquire);
          get_t.Count(GetIsLegal(key, found, value, kValueBytes, lo, hi));
        }
        ++o.ops;
        // Untimed ops read the clock only every 64th op.
        if (now == 0 && (o.ops & 63) == 0) now = NowNs();
        measuring = o.Tick(clock, now);
        if (now != 0 && clock.Done(now)) break;
      }
      o.end_ns = NowNs();
      if (spans) o.spans->Add("phase.timed", 0, o.start_ns, o.end_ns, root);
    });
  }
  for (std::thread& th : threads) th.join();
  return outs;
}

/// Pins the calling thread to one CPU after another (by index modulo the
/// CPUs it may run on); restores its CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (::pthread_getaffinity_np(::pthread_self(), sizeof(all_), &all_) != 0) {
      Die("cannot read the CPU set");
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Returns the CPU pinned to.
  int PinTo(std::size_t i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
    return cpus_[i % cpus_.size()];
  }
  std::size_t count() const { return cpus_.size(); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Times recovery and full scans on a freshly loaded store of
/// kRecoveryKeys keys, apart from the timed phase's store, so they measure
/// the program and not which interleaving four threads left behind. Each
/// recovery cycle checkpoints every shard (daemons stopped, so the logs
/// hold exactly what follows), writes kRecoveryPuts seeded Puts from one
/// thread, then takes a simulated power failure of the whole store and
/// recovers them; CrashAndRecover restarts the daemons. The store must
/// then equal the model. The caller repeats this on several stores: from
/// store to store (where its memory landed) these times vary by a sixth.
///
/// Cycle i runs pinned to CPU i % nproc: on a shared host one vCPU can run
/// a single thread markedly slower than the others for a while, and the
/// median over every CPU does not depend on which one the thread got.
void TimeRecoveryAndScans(rwd::KvStore* store, const Args& a,
                          std::vector<double>* recover_ms,
                          std::vector<double>* scan_rates, Report* r) {
  constexpr std::size_t keys = kRecoveryKeys;
  KeyVersions kv(keys);
  kv.SetAll(1);
  CpuRotation cpus;
  RecoveryTime rec0 = RecoveryTime::Read();
  Rng rng(StreamSeed(a.seed, kPurposeRecovery));
  for (int i = 0; i < kRecoveries; ++i) {
    cpus.PinTo(i);
    store->StopCheckpointDaemons();
    for (std::size_t s = 0; s < store->shards(); ++s) {
      store->CheckpointShard(s);
    }
    for (int p = 0; p < kRecoveryPuts; ++p) {
      std::size_t idx = rng.Below(keys);
      std::uint64_t key = KeyOf(a.seed, idx);
      std::uint64_t ver = kv.acked[idx].load() + 1;
      r->tallies["recovery_put"].Count(
          store->Put(key, EncodeValue(key, ver, kValueBytes)));
      kv.acked[idx].store(ver);
    }
    std::uint64_t t0 = NowNs();
    store->CrashAndRecover();
    recover_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  RecoveryTime rec1 = RecoveryTime::Read();
  ReportRecovery(r, (rec1.us[0] - rec0.us[0]) / kRecoveries,
                 (rec1.us[1] - rec0.us[1]) / kRecoveries,
                 (rec1.us[2] - rec0.us[2]) / kRecoveries,
                 (rec1.us[3] - rec0.us[3]) / kRecoveries);
  const Model recovered = kv.ToModel(a.seed);
  for (int i = 0; i < 2; ++i) {
    cpus.PinTo(i);
    scan_rates->push_back(VerifyFullScan(*store, recovered, r));
  }
}

void RunEmbedded(const Args& a, const EmbeddedSpec& spec, Report* r) {
  std::vector<double> setup_s, load_rate, scan_rates, recover_ms;
  for (int i = 0; i < kRecoveryStores; ++i) {
    rwd::KvStore small(StoreConfig(50));
    LoadStore(&small, a.seed, kRecoveryKeys, &r->tallies["load_put"]);
    TimeRecoveryAndScans(&small, a, &recover_ms, &scan_rates, r);
  }
  // Set-up, several times: create the store and load it; keep the last.
  std::unique_ptr<rwd::KvStore> store;
  Samples load_put;
  for (std::size_t s = 0; s < spec.setups; ++s) {
    store.reset();
    std::uint64_t t0 = NowNs();
    store = std::make_unique<rwd::KvStore>(StoreConfig(50));
    std::uint64_t t1 = NowNs();
    load_put =
        LoadStore(store.get(), a.seed, spec.keys, &r->tallies["load_put"]);
    std::uint64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    load_rate.push_back(Ratio(static_cast<double>(spec.keys),
                              static_cast<double>(t2 - t1) / 1e9));
  }
  KeyVersions kv(spec.keys);
  kv.SetAll(1);
  const Model loaded = kv.ToModel(a.seed);

  // Timed phase. Traced runs first repeat it untraced for half the time,
  // so the tracing overhead is measured on the same store.
  double untraced_ops_per_s = 0;
  if (a.trace) {
    PhaseClock clock(kWarmupSeconds, a.seconds / 2);
    std::vector<ThreadOut> base = RunEmbeddedPhase(
        store.get(), &kv, loaded, spec, a.seed, clock, false, 1);
    for (const ThreadOut& o : base) MergeTallies(&r->tallies, o.tallies);
    untraced_ops_per_s = WindowOpsPerSecond(base, clock, clock.CalmWindows());
    rwd::obs::TraceEnable();
  }
  // The counters span the warm-up too: per-op ratios are unaffected.
  StoreCounters c0 = StoreCounters::Read(*store);
  ProcUsage u0 = ProcUsage::Self();
  PhaseClock clock(kWarmupSeconds, a.trace ? a.seconds / 2 : a.seconds);
  std::vector<ThreadOut> outs = RunEmbeddedPhase(
      store.get(), &kv, loaded, spec, a.seed, clock, a.trace, 2);
  ProcUsage du = ProcUsage::Self().Minus(u0);
  StoreCounters c1 = StoreCounters::Read(*store);
  if (a.trace) rwd::obs::TraceDisable();

  ThreadOut all;
  for (ThreadOut& o : outs) {
    all.put.Merge(o.put);
    all.get.Merge(o.get);
    all.scan.Merge(o.scan);
    all.scan_items.Merge(o.scan_items);
    all.ops += o.ops;
    all.puts_acked += o.puts_acked;
    MergeTallies(&r->tallies, o.tallies);
  }
  const std::vector<std::size_t> calm = clock.CalmWindows();
  double ops_per_s = WindowOpsPerSecond(outs, clock, calm);
  all.put = all.put.Keep(calm);
  all.get = all.get.Keep(calm);
  all.scan = all.scan.Keep(calm);
  all.scan_items = all.scan_items.Keep(calm);
  std::uint64_t log_bytes = LogBytes(*store);

  // After the timed phase the whole store must equal the model.
  const Model final_model = kv.ToModel(a.seed);
  VerifyFullScan(*store, final_model, r);
  double heap_live = static_cast<double>(store->heap_live_bytes());
  double heap_hwm = static_cast<double>(store->heap_high_watermark());
  double user_bytes =
      static_cast<double>(final_model.LiveKeys()) * kUserBytesPerKey;

  // Put latency: the timed phase's, or the load's where the timed phase
  // writes nothing (kv-read-scan).
  const Samples& puts = all.put.count() == 0 ? load_put : all.put;
  r->E2e("setup_s", Median(setup_s), "s");
  r->E2e("ops_per_s", ops_per_s, "ops/s");
  r->E2e("put_p50_us", puts.PUs(0.5), "us");
  r->Layer("client.put.p99_us", puts.PUs(0.99));
  r->E2e("get_p50_us", all.get.PUs(0.5), "us");
  // Scan rate: items per second inside the timed phase's Scan calls, or
  // the full scans' where the timed phase has none (kv-update).
  r->E2e("scan_items_per_s",
         all.scan.count() == 0
             ? Median(scan_rates)
             : Ratio(all.scan_items.Sum(), all.scan.Sum() / 1e9),
         "items/s");
  r->Layer("recover_ms", Median(recover_ms));
  r->E2e("heap_bytes_per_user_byte", Ratio(heap_live, user_bytes), "B/B");

  double acked = static_cast<double>(all.puts_acked);
  ReportStoreLayers(r, c0, c1, acked);
  r->Layer("nvm.heap_live_bytes", heap_live);
  r->Layer("nvm.heap_high_watermark_bytes", heap_hwm);
  r->Layer("log.live_bytes_at_crash", static_cast<double>(log_bytes));
  r->Layer("kv.put.p50_ns", puts.PNs(0.5));
  r->Layer("kv.put.p99_ns", puts.PNs(0.99));
  r->Layer("kv.get.p50_ns", all.get.PNs(0.5));
  r->Layer("kv.scan.p50_us", all.scan.PUs(0.5));
  r->Layer("kv.scan.items_per_call",
           Ratio(all.scan_items.Sum(), static_cast<double>(all.scan.count())));
  ReportProc(r, "proc", du, static_cast<double>(all.ops));
  r->Layer("load.keys_per_s", Median(load_rate));
  if (a.trace) {
    r->Layer("trace.overhead_pct",
             100.0 * (1.0 - Ratio(ops_per_s, untraced_ops_per_s)));
    std::vector<const SpanLog*> logs;
    std::uint64_t total = 0;
    for (const ThreadOut& o : outs) {
      logs.push_back(o.spans.get());
      total += o.spans->total();
    }
    r->Layer("trace.spans", static_cast<double>(total));
    std::string base = a.run_dir + "/" + a.workload;
    if (!DumpSpans(base + ".spans.json", logs) ||
        !rwd::obs::TraceDumpJson(base + ".trace.json")) {
      Die("cannot write the trace dumps under " + a.run_dir);
    }
    r->Note("spans: " + base + ".spans.json; program trace: " + base +
            ".trace.json");
  }
}

// ---------------------------------------------------------------------------
// served-update: the shipped kv_server as a child process.
// ---------------------------------------------------------------------------

/// A kv_server child: started with its defaults plus an ephemeral port and
/// a heap file, stopped by SIGTERM (graceful) or SIGKILL (a crash).
class ServerProc {
 public:
  ServerProc(const std::string& bin, const std::vector<std::string>& flags) {
    int out[2];
    if (::pipe(out) != 0) Die("pipe failed");
    pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      // Die with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      // A reattaching server maps the heap file back at the address its
      // creator used, and fails when its own start-up mappings took that
      // range; with address randomisation that happens now and then.
      // Without it every server maps the same things in the same places,
      // so a restart always finds the heap's range free.
      ::personality(ADDR_NO_RANDOMIZE);
      ::dup2(out[1], 1);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& f : flags) {
        argv.push_back(const_cast<char*>(f.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    // Wait for "kv_server listening on port N".
    std::string buf;
    std::uint64_t deadline = NowNs() + 60'000'000'000ull;
    while (port_ == 0) {
      pollfd p{out_fd_, POLLIN, 0};
      int left = static_cast<int>((deadline - std::min(deadline, NowNs())) / 1000000);
      if (left <= 0 || ::poll(&p, 1, left) <= 0) Die("kv_server did not start");
      char chunk[512];
      ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) Die("kv_server exited during start-up");
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t at = buf.find("listening on port ");
      if (at != std::string::npos &&
          buf.find(' ', at + 18) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::strtoul(buf.c_str() + at + 18, nullptr, 10));
      }
    }
  }
  ~ServerProc() { Stop(SIGKILL); }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// Signals the server and waits for it (and drains its output).
  void Stop(int sig) {
    if (pid_ <= 0) return;
    ::kill(pid_, sig);
    char chunk[4096];
    while (::read(out_fd_, chunk, sizeof(chunk)) > 0) {
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    ::close(out_fd_);
    pid_ = -1;
  }
  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// CPU time and context switches of another process, from /proc/<pid>/stat
/// and the status file of each of its threads.
ProcUsage ReadProc(pid_t pid) {
  ProcUsage u;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  std::size_t close = line.rfind(')');
  if (close != std::string::npos) {
    std::istringstream in(line.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (in >> tok) f.push_back(tok);
    // Fields 14 and 15 of stat(5) (utime, stime); f[0] is field 3.
    if (f.size() > 12) {
      double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
      u.cpu_us = (std::stod(f[11]) + std::stod(f[12])) / ticks * 1e6;
    }
  }
  // Context switches are counted per thread: sum every task's.
  std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* dir = ::opendir(task_dir.c_str())) {
    while (dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream status(task_dir + "/" + e->d_name + "/status");
      while (std::getline(status, line)) {
        if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
          u.vol_cs += std::stod(line.substr(24));
        } else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
          u.invol_cs += std::stod(line.substr(27));
        }
      }
    }
    ::closedir(dir);
  }
  return u;
}

/// Pins every thread of process `pid` to CPU `cpu`; threads it starts
/// later inherit the CPU from their creator.
void PinProcess(pid_t pid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* dir = ::opendir(task_dir.c_str())) {
    while (dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      ::sched_setaffinity(static_cast<pid_t>(std::atoi(e->d_name)),
                          sizeof(one), &one);
    }
    ::closedir(dir);
  }
}

using Stats2 = std::map<std::string, double>;

Stats2 ReadStats2(std::uint16_t port) {
  rwd::serve::KvClient c;
  std::vector<rwd::serve::MetricSample> samples;
  if (!c.Connect("127.0.0.1", port) || !c.Stats2(&samples)) {
    Die("STATS v2 failed");
  }
  Stats2 m;
  for (const rwd::serve::MetricSample& s : samples) m[s.name] = s.value;
  return m;
}

double Get2(const Stats2& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

/// Counters of one served phase, scraped before and after it.
struct ServedScrape {
  Stats2 stats;
  ProcUsage proc;
  static ServedScrape Take(const ServerProc& srv) {
    return {ReadStats2(srv.port()), ReadProc(srv.pid())};
  }
};

/// Loads every key at version 1 through MPUT frames of 100 keys from
/// kThreads connections, 8 frames in flight each.
void LoadServed(std::uint16_t port, std::uint64_t seed, std::size_t n,
                Tally* tally) {
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rwd::serve::KvClient c;
      if (!c.Connect("127.0.0.1", port)) Die("connect failed");
      constexpr std::size_t kFrame = 100, kDepth = 8;
      std::size_t i = t * kFrame;
      auto queue_next = [&] {
        std::vector<std::pair<std::uint64_t, std::string>> kvs;
        for (std::size_t j = i; j < std::min(n, i + kFrame); ++j) {
          std::uint64_t key = KeyOf(seed, j);
          kvs.emplace_back(key, EncodeValue(key, 1, kValueBytes));
        }
        c.QueueMput(kvs);
        i += kThreads * kFrame;
      };
      while (i < n && c.pending() < kDepth) queue_next();
      while (c.pending() > 0) {
        if (!c.Flush()) Die("load flush failed");
        rwd::serve::KvClient::Reply rep;
        if (!c.ReadReply(&rep)) Die("load reply failed");
        tallies[t].Count(rep.status == rwd::serve::Status::kOk);
        if (i < n) queue_next();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Tally& t : tallies) tally->Merge(t);
}

/// One closed-loop served phase: kThreads connections, `depth` requests
/// in flight on each, the 50/50 Put/Get mix; puts go to the connection's
/// own keys so every Get has a known window of legal versions. `phase`
/// numbers the phases of a run, so their span ids differ.
std::vector<ThreadOut> RunServedPhase(std::uint16_t port, KeyVersions* kv,
                                      std::uint64_t seed, std::size_t n,
                                      std::size_t depth,
                                      const PhaseClock& clock, bool spans,
                                      std::uint64_t purpose,
                                      std::size_t phase = 0) {
  std::vector<ThreadOut> outs(kThreads);
  std::vector<std::thread> threads;
  const Zipf keys(n);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadOut& o = outs[t];
      if (spans) {
        o.spans = std::make_unique<SpanLog>(
            static_cast<std::uint32_t>(phase * kThreads + t + 1), kSpanCap);
      }
      std::uint64_t root = spans ? o.spans->NewId() : 0;
      Rng rng(StreamSeed(seed, purpose, t));
      rwd::serve::KvClient c;
      if (!c.Connect("127.0.0.1", port)) Die("connect failed");
      struct InFlight {
        bool put;
        std::size_t idx;
        std::uint64_t ver;  ///< put: version written; get: acked at send
        std::uint64_t t0;
      };
      std::vector<InFlight> ring(depth);
      std::size_t head = 0, count = 0;
      Tally& put_t = o.tallies["put"];
      Tally& get_t = o.tallies["get"];
      auto send_one = [&] {
        std::size_t idx = keys.SampleScrambled(rng);
        InFlight f{rng.Unit() < 0.5, idx, 0, 0};
        if (f.put) {
          f.idx = OwnIndex(idx, t, n);
          std::uint64_t key = KeyOf(seed, f.idx);
          f.ver = kv->issued[f.idx].load(std::memory_order_relaxed) + 1;
          kv->issued[f.idx].store(f.ver, std::memory_order_release);
          c.QueuePut(key, EncodeValue(key, f.ver, kValueBytes));
        } else {
          f.ver = kv->acked[f.idx].load(std::memory_order_acquire);
          c.QueueGet(KeyOf(seed, f.idx));
        }
        f.t0 = NowNs();
        ring[(head + count) % depth] = f;
        ++count;
      };
      o.start_ns = NowNs();
      bool sending = true, measuring = false;
      while (count > 0 || sending) {
        while (sending && count < depth) send_one();
        if (!c.Flush()) Die("flush failed");
        rwd::serve::KvClient::Reply rep;
        if (!c.ReadReply(&rep)) Die("reply failed");
        std::uint64_t t1 = NowNs();
        InFlight f = ring[head];
        head = (head + 1) % depth;
        --count;
        bool ok = rep.status == rwd::serve::Status::kOk;
        if (f.put) {
          kv->acked[f.idx].store(f.ver, std::memory_order_release);
          if (measuring) o.put.Add(o.window(), t1 - f.t0);
          if (spans) o.spans->Add("client.put", root, f.t0, t1);
          put_t.Count(ok);
          ++o.puts_acked;
        } else {
          std::uint64_t key = KeyOf(seed, f.idx);
          std::uint64_t hi = kv->issued[f.idx].load(std::memory_order_acquire);
          bool found = ok && !rep.payload.empty();
          bool legal = (ok || rep.status == rwd::serve::Status::kNotFound) &&
                       GetIsLegal(key, found, rep.payload, kValueBytes,
                                  f.ver, hi);
          if (measuring) o.get.Add(o.window(), t1 - f.t0);
          if (spans) o.spans->Add("client.get", root, f.t0, t1);
          get_t.Count(legal);
        }
        ++o.ops;
        measuring = o.Tick(clock, t1);
        if (clock.Done(t1)) sending = false;
      }
      o.end_ns = NowNs();
      if (spans) o.spans->Add("phase.served", 0, o.start_ns, o.end_ns, root);
    });
  }
  for (std::thread& th : threads) th.join();
  return outs;
}

/// Items a timed full scan returned, and its seconds.
struct ScanTime {
  double items = 0, secs = 0;
};

/// Full scan over the wire (SCAN_STREAM) checked against the model.
ScanTime VerifyServedScan(std::uint16_t port, const Model& model, Report* r) {
  rwd::serve::KvClient c;
  std::vector<std::pair<std::uint64_t, std::string>> items;
  std::uint64_t t0 = NowNs();
  bool ok = c.Connect("127.0.0.1", port) &&
            c.ScanStream(0, 0xffffffffu, &items);
  double secs = static_cast<double>(NowNs() - t0) / 1e9;
  ScanChecker check(model, 0, ~std::size_t{0});
  for (const auto& [k, v] : items) check.Item(k, v);
  r->tallies["verify_scan"].Count(ok && check.Finish());
  return {static_cast<double>(items.size()), secs};
}

/// A phase type's figures summed over its rounds: the server's counter
/// deltas, its process figures and the ops the clients completed.
struct ServedTotals {
  Stats2 stats;
  ProcUsage proc;
  std::uint64_t ops = 0;

  void Add(const ServedScrape& b, const ServedScrape& e) {
    for (const auto& [name, v] : e.stats) stats[name] += v - Get2(b.stats, name);
    ProcUsage d = e.proc.Minus(b.proc);
    proc.cpu_us += d.cpu_us;
    proc.vol_cs += d.vol_cs;
    proc.invol_cs += d.invol_cs;
  }
  double operator[](const char* name) const { return Get2(stats, name); }
};

void RunServed(const Args& a, Report* r) {
  // The client threads and the server (which inherits the CPU set) share
  // one CPU at a time. Spread over four vCPUs, each request wakes idle
  // vCPUs several times over (client, epoll worker, batcher, apply pool),
  // and the hypervisor's delay in running them decided the figures:
  // saturated throughput ranged 12k-40k ops/s on one commit as host steal
  // went from 0 to 17%. On one busy vCPU those handoffs are context
  // switches, and steal slows the phase only in proportion. One vCPU's
  // speed moves with its host core's other load, so set-up i and round i
  // run on CPU i (modulo the CPUs this process may use).
  CpuRotation pin;
  constexpr std::size_t kKeys = 50000;
  constexpr std::size_t kSetups = 4;
  const std::string heap = a.run_dir + "/served.heap";
  std::vector<std::string> flags = {"--port=0", "--heap-file=" + heap};
  if (a.trace) flags.push_back("--trace-out=" + a.run_dir + "/served-update.trace.json");

  auto fresh_server = [&](std::vector<std::string> f, double* setup_s,
                          double* load_rate) {
    ::unlink(heap.c_str());
    std::uint64_t t0 = NowNs();
    auto srv = std::make_unique<ServerProc>(a.kv_server, f);
    std::uint64_t t1 = NowNs();
    LoadServed(srv->port(), a.seed, kKeys, &r->tallies["load_mput"]);
    std::uint64_t t2 = NowNs();
    *setup_s = static_cast<double>(t2 - t0) / 1e9;
    *load_rate = Ratio(static_cast<double>(kKeys),
                       static_cast<double>(t2 - t1) / 1e9);
    return srv;
  };

  // Traced runs first measure the saturated phase on an untraced server,
  // for the tracing overhead.
  double untraced_ops_per_s = 0;
  if (a.trace) {
    double s, l;
    std::vector<std::string> plain = {"--port=0", "--heap-file=" + heap};
    pin.PinTo(0);
    auto srv = fresh_server(plain, &s, &l);
    KeyVersions kv(kKeys);
    kv.SetAll(1);
    PhaseClock clock(kWarmupSeconds, a.seconds / 4);
    std::vector<ThreadOut> outs = RunServedPhase(
        srv->port(), &kv, a.seed, kKeys, 16, clock, false, kPurposeSaturated);
    for (const ThreadOut& o : outs) MergeTallies(&r->tallies, o.tallies);
    untraced_ops_per_s = WindowOpsPerSecond(outs, clock, clock.CalmWindows());
    srv->Stop(SIGTERM);
  }

  std::unique_ptr<ServerProc> srv;
  std::vector<double> setup_s, load_rate;
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (srv) srv->Stop(SIGTERM);
    pin.PinTo(s);
    double st, lr;
    srv = fresh_server(flags, &st, &lr);
    setup_s.push_back(st);
    load_rate.push_back(lr);
  }
  KeyVersions kv(kKeys);
  kv.SetAll(1);

  // kServedRounds rounds of phase light (4 callers, each waiting for its
  // reply) then phase saturated (4 connections, 16 requests in flight
  // each), every phase on fresh connections and client threads, so each
  // figure samples the whole run and not one stretch of the host's load.
  // At light load the four callers fall into step with the batcher's
  // window or out of it and stay so for seconds (get p50 about 25 or 34 us
  // on one commit); each round starts them afresh. A phase's figures are
  // medians over the calm windows of all its rounds.
  const double phase_s =
      (a.trace ? a.seconds / 4 : a.seconds / 2) / kServedRounds;
  ServedTotals light, sat;
  Samples light_put, light_get;
  std::vector<double> sat_rates;
  std::vector<std::vector<ThreadOut>> traced;
  Stats2 after_first_light;
  auto take_windows = [](const Samples& s, const std::vector<std::size_t>& w,
                         Samples* into) {
    Samples kept = s.Keep(w);
    into->windows.insert(into->windows.end(), kept.windows.begin(),
                         kept.windows.end());
  };
  // The scrapes bracket each phase's warm-up too: per-op ratios are
  // unaffected.
  auto run_phase = [&](bool saturated, int round) {
    ServedScrape b = ServedScrape::Take(*srv);
    PhaseClock clock(kServedWarmupSeconds, phase_s, kServedWindowSeconds);
    std::vector<ThreadOut> outs = RunServedPhase(
        srv->port(), &kv, a.seed, kKeys, saturated ? 16 : 1, clock, a.trace,
        (saturated ? kPurposeSaturated : kPurposeLight) + 16 * round,
        (saturated ? kServedRounds : 0) + round);
    ServedScrape e = ServedScrape::Take(*srv);
    ServedTotals& totals = saturated ? sat : light;
    totals.Add(b, e);
    if (!saturated && round == 0) after_first_light = e.stats;
    Samples put, get;
    for (ThreadOut& o : outs) {
      put.Merge(o.put);
      get.Merge(o.get);
      totals.ops += o.ops;
      MergeTallies(&r->tallies, o.tallies);
    }
    const std::vector<std::size_t> calm = clock.CalmWindows();
    if (saturated) {
      for (double rate : WindowRates(outs, clock, calm)) {
        sat_rates.push_back(rate);
      }
    } else {
      take_windows(put, calm, &light_put);
      take_windows(get, calm, &light_get);
    }
    if (a.trace) traced.push_back(std::move(outs));
  };
  // Each round ends with a group of full scans over the wire, checked
  // against the model of that moment. A group's rate is its items over its
  // seconds, so the 50 ms checkpoints overlap the same share of every
  // group, and scan_items_per_s is the median over the groups.
  std::vector<double> scan_rates;
  for (int round = 0; round < kServedRounds; ++round) {
    PinProcess(srv->pid(), pin.PinTo(static_cast<std::size_t>(round)));
    run_phase(false, round);
    run_phase(true, round);
    const Model model = kv.ToModel(a.seed);
    ScanTime sum;
    for (int i = 0; i < kServedScansPerRound; ++i) {
      ScanTime t = VerifyServedScan(srv->port(), model, r);
      sum.items += t.items;
      sum.secs += t.secs;
    }
    scan_rates.push_back(Ratio(sum.items, sum.secs));
  }
  const double sat_ops_per_s = Median(sat_rates);

  // Per-phase sums of the server's counters and process figures.
  for (auto [label, t] : {std::make_pair("light", &light),
                          std::make_pair("saturated", &sat)}) {
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "phase %s: rounds=%d ops=%" PRIu64 " acked_writes=%.0f batches=%.0f "
        "gets=%.0f 2pc=%.0f parallel_applies=%.0f checkpoints=%.0f "
        "server_cpu_us=%.0f server_vol_cs=%.0f server_invol_cs=%.0f",
        label, kServedRounds, t->ops, (*t)["server.acked_writes"],
        (*t)["server.batches"], (*t)["server.gets"],
        (*t)["txn.prepare.count"], (*t)["kv.parallel_applies"],
        (*t)["checkpoint.duration.count"], t->proc.cpu_us, t->proc.vol_cs,
        t->proc.invol_cs);
    r->Note(line);
  }
  r->Note("set-up i and round i on CPU number i mod " +
          std::to_string(pin.count()) +
          " of this process's CPU set (client threads and kv_server)");

  // The log left behind, then a SIGKILL and a restart on the same heap
  // file (timed to "listening"), after which every acked write must still
  // be there.
  const Model final_model = kv.ToModel(a.seed);
  rwd::serve::StatsReply v1;
  {
    rwd::serve::KvClient c;
    if (!c.Connect("127.0.0.1", srv->port()) || !c.Stats(&v1)) {
      Die("STATS failed");
    }
  }
  std::uint64_t log_bytes = 0;
  for (std::uint64_t b : v1.shard_log_bytes) log_bytes += b;
  const Stats2 end_stats = ReadStats2(srv->port());
  double heap_live = Get2(end_stats, "server.heap_used_bytes");
  double heap_hwm = Get2(end_stats, "server.heap_high_watermark");
  std::vector<double> recover_ms;
  Stats2 after_restart;
  for (int i = 0; i < 7; ++i) {
    srv->Stop(SIGKILL);
    std::uint64_t t0 = NowNs();
    std::vector<std::string> reopen = {"--port=0", "--heap-file=" + heap};
    srv = std::make_unique<ServerProc>(a.kv_server, reopen);
    recover_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    after_restart = ReadStats2(srv->port());
    VerifyServedScan(srv->port(), final_model, r);
  }
  srv->Stop(SIGTERM);
  ::unlink(heap.c_str());

  double user_bytes =
      static_cast<double>(final_model.LiveKeys()) * kUserBytesPerKey;
  r->E2e("setup_s", Median(setup_s), "s");
  r->E2e("ops_per_s", sat_ops_per_s, "ops/s");
  r->E2e("put_p50_us", light_put.PUs(0.5), "us");
  r->Layer("client.put.p99_us", light_put.PUs(0.99));
  r->E2e("get_p50_us", light_get.PUs(0.5), "us");
  r->E2e("scan_items_per_s", Median(scan_rates), "items/s");
  r->Layer("recover_ms", Median(recover_ms));
  r->E2e("heap_bytes_per_user_byte", Ratio(heap_live, user_bytes), "B/B");

  // Per-layer figures: latencies from the light phase, throughput
  // figures from the saturated one. Latency percentiles of the server's
  // histograms are read after the first light phase, which they cover
  // together with the load.
  r->Layer("nvm.heap_live_bytes", heap_live);
  r->Layer("nvm.heap_high_watermark_bytes", heap_hwm);
  r->Layer("log.live_bytes_at_crash", static_cast<double>(log_bytes));
  // The restarted server's registry saw only its own start-up recovery.
  auto rec_sum = [&](const char* h) {
    return Get2(after_restart, std::string(h) + ".mean_us") *
           Get2(after_restart, std::string(h) + ".count");
  };
  ReportRecovery(r, rec_sum("recovery.analysis"), rec_sum("recovery.redo"),
                 rec_sum("recovery.undo"), rec_sum("recovery.total"));
  const Stats2& l1 = after_first_light;
  r->Layer("checkpoint.count", light["checkpoint.duration.count"]);
  r->Layer("checkpoint.duration.p50_us",
           Get2(l1, "checkpoint.duration.p50_us"));
  r->Layer("checkpoint.duration.p99_us",
           Get2(l1, "checkpoint.duration.p99_us"));
  for (const char* phase : {"prepare", "fence", "end", "decision"}) {
    std::string name = std::string("txn.") + phase + ".p50_us";
    r->Layer(name, Get2(l1, name));
  }
  double sat_batches = sat["server.batches"];
  r->Layer("txn.two_phase_commits_per_batch",
           Ratio(sat["txn.prepare.count"], sat_batches));
  double light_gets = light["server.gets"];
  r->Layer("kv.optimistic_hits_per_get",
           Ratio(light["kv.optimistic_hits"], light_gets));
  r->Layer("kv.optimistic_retries_per_get",
           Ratio(light["kv.optimistic_retries"], light_gets));
  r->Layer("kv.read_latch_acquires_per_get",
           Ratio(light["kv.read_latch_acquires"], light_gets));
  r->Layer("kv.starvation_fallbacks", light["kv.starvation_fallbacks"] +
                                          sat["kv.starvation_fallbacks"]);
  r->Layer("kv.parallel_applies_per_batch",
           Ratio(sat["kv.parallel_applies"], sat_batches));
  double srv_put = Get2(l1, "server.op.put.p50_us");
  double srv_get = Get2(l1, "server.op.get.p50_us");
  r->Layer("server.op.put.p50_us", srv_put);
  r->Layer("server.op.put.p99_us", Get2(l1, "server.op.put.p99_us"));
  r->Layer("server.op.get.p50_us", srv_get);
  r->Layer("batcher.window.p50_us", Get2(l1, "batcher.window.p50_us"));
  r->Layer("batcher.commit.p50_us", Get2(l1, "batcher.commit.p50_us"));
  r->Layer("batcher.commit.p99_us", Get2(l1, "batcher.commit.p99_us"));
  r->Layer("server.writes_per_batch",
           Ratio(sat["server.batched_writes"], sat_batches));
  r->Layer("batcher.apply_fanout", Get2(end_stats, "batcher.apply_fanout"));
  r->Layer("net.put_residual_us", light_put.PUs(0.5) - srv_put);
  r->Layer("net.get_residual_us", light_get.PUs(0.5) - srv_get);
  ReportProc(r, "server", sat.proc, static_cast<double>(sat.ops));
  r->Layer("load.keys_per_s", Median(load_rate));
  if (a.trace) {
    r->Layer("trace.overhead_pct",
             100.0 * (1.0 - Ratio(sat_ops_per_s, untraced_ops_per_s)));
    std::vector<const SpanLog*> logs;
    std::uint64_t total = 0;
    for (const std::vector<ThreadOut>& phase : traced) {
      for (const ThreadOut& o : phase) {
        logs.push_back(o.spans.get());
        total += o.spans->total();
      }
    }
    r->Layer("trace.spans", static_cast<double>(total));
    std::string path = a.run_dir + "/served-update.spans.json";
    if (!DumpSpans(path, logs)) Die("cannot write " + path);
    r->Note("spans: " + path + "; server trace: " + a.run_dir +
            "/served-update.trace.json");
  }
}

// ---------------------------------------------------------------------------
// restart: crash, SIGKILL and reattach, process after process.
// ---------------------------------------------------------------------------

constexpr std::size_t kRestartKeys = 20000;
constexpr std::size_t kCyclesPerRound = 8;
constexpr std::size_t kOpsPerCycle = 3000;
constexpr std::size_t kCheckpointEvery = 250;
/// The crash lands at a persistence event drawn from [1, kMaxCrashEvent].
constexpr std::uint64_t kMaxCrashEvent = 150000;

/// Child-to-parent message over a pipe (fixed size, so each write is
/// atomic and a SIGKILL never leaves half a message).
struct Msg {
  enum Tag : std::uint32_t {
    kAck,         ///< a = op index acked
    kPutNs,       ///< a = put latency
    kGetNs,       ///< a = get latency
    kSetupNs,     ///< a = create + load, b = load only
    kOpenNs,      ///< a = KvStore::Open
    kRecovery,    ///< a = analysis, b = redo, c = undo, d = total (ns)
    kCrash,       ///< a = live log bytes at the crash
    kOpsPhase,    ///< a = ops acked, b = op phase ns, c = nvm writes,
                  ///< d = fences, e = flushes (deltas over the op phase)
    kCheckpoint,  ///< a = checkpoint ns
    kHeap,        ///< a = heap live bytes, b = high watermark
    kScan,        ///< a = items, b = ns
    kTally,       ///< x = op type, a = attempted, b = failed
    kInflight,    ///< a = Inflight outcome
    kSpan,        ///< x = span name, a = t0, b = t1
    kHeapBase,    ///< a = address the created heap is mapped at
  };
  std::uint32_t tag = 0;
  std::uint32_t x = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0;
};

const char* const kTallyNames[] = {"put", "delete", "multiput", "get",
                                   "verify_scan", "inflight", "load_put"};
const char* const kSpanNames[] = {"kv.open", "kv.put", "kv.delete",
                                  "kv.multiput", "kv.get", "kv.scan",
                                  "kv.checkpoint"};

class ChildOut {
 public:
  explicit ChildOut(int fd, bool spans) : fd_(fd), spans_(spans) {}
  void Send(Msg m) {
    if (::write(fd_, &m, sizeof(m)) != sizeof(m)) ::_exit(3);
  }
  void Send(Msg::Tag tag, std::uint64_t a, std::uint64_t b = 0,
            std::uint32_t x = 0) {
    Msg m;
    m.tag = tag;
    m.x = x;
    m.a = a;
    m.b = b;
    Send(m);
  }
  void Span(std::uint32_t name, std::uint64_t t0, std::uint64_t t1) {
    if (spans_ && sent_spans_++ < 2000) Send(Msg::kSpan, t0, t1, name);
  }

 private:
  int fd_;
  bool spans_;
  std::uint64_t sent_spans_ = 0;
};

/// The op stream of one cycle: seeded Puts (60%), Deletes (20%) and
/// MultiPuts of 2-8 keys (20%). Versions are unique per run.
std::vector<WriteOp> CycleOps(std::uint64_t seed, std::uint64_t round,
                              std::uint64_t cycle) {
  Rng rng(StreamSeed(seed, kPurposeRestart, round * 1000 + cycle));
  std::vector<WriteOp> ops(kOpsPerCycle);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    WriteOp& op = ops[i];
    double u = rng.Unit();
    op.version = ((round * 1000 + cycle) << 20) | (i + 1);
    if (u < 0.6) {
      op.kind = WriteOp::Kind::kPut;
      op.idx = {rng.Below(kRestartKeys)};
    } else if (u < 0.8) {
      op.kind = WriteOp::Kind::kDelete;
      op.idx = {rng.Below(kRestartKeys)};
    } else {
      op.kind = WriteOp::Kind::kMultiPut;
      std::size_t n = 2 + rng.Below(7);
      while (op.idx.size() < n) {
        std::size_t k = rng.Below(kRestartKeys);
        if (std::find(op.idx.begin(), op.idx.end(), k) == op.idx.end()) {
          op.idx.push_back(k);
        }
      }
    }
  }
  return ops;
}

/// Version the store holds for key index i (0 absent, ~0 corrupted).
std::uint64_t StoredVersion(rwd::KvStore& store, const Model& m,
                            std::size_t i) {
  std::string v;
  if (!store.Get(m.Key(i), &v)) return 0;
  std::uint64_t ver = 0;
  return ValueOf(m.Key(i), v, kValueBytes, &ver) ? ver : ~std::uint64_t{0};
}

/// Runs `ops` with the crash injector armed at `crash_at`, acking each op
/// to the parent. On the crash, reports the log left and dies by SIGKILL.
[[noreturn]] void ChildOps(rwd::KvStore& store, Model model,
                           const std::vector<WriteOp>& ops,
                           std::uint64_t crash_at, ChildOut& out) {
  rwd::NvmStats& ns = store.runtime().nvm().stats();
  std::uint64_t w0 = ns.nvm_writes.load(), f0 = ns.fences.load(),
                fl0 = ns.flushes.load();
  std::uint64_t acked = 0;
  Tally tallies[3];
  std::uint64_t t_start = NowNs();
  auto report_phase = [&] {
    Msg m;
    m.tag = Msg::kOpsPhase;
    m.a = acked;
    m.b = NowNs() - t_start;
    m.c = ns.nvm_writes.load() - w0;
    m.d = ns.fences.load() - f0;
    m.e = ns.flushes.load() - fl0;
    out.Send(m);
    for (std::uint32_t k = 0; k < 3; ++k) {
      out.Send(Msg::kTally, tallies[k].attempted, tallies[k].failed, k);
    }
  };
  store.runtime().nvm().crash_injector().Arm(crash_at);
  try {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const WriteOp& op = ops[i];
      bool ok = false;
      std::uint64_t t0 = NowNs();
      std::uint32_t kind = 0;
      if (op.kind == WriteOp::Kind::kPut) {
        std::uint64_t key = model.Key(op.idx[0]);
        ok = store.Put(key, EncodeValue(key, op.version, kValueBytes));
      } else if (op.kind == WriteOp::Kind::kDelete) {
        kind = 1;
        ok = store.Delete(model.Key(op.idx[0])) ==
             (model.version[op.idx[0]] != 0);
      } else {
        kind = 2;
        std::vector<std::pair<std::uint64_t, std::string>> kvs;
        for (std::size_t k : op.idx) {
          kvs.emplace_back(model.Key(k),
                           EncodeValue(model.Key(k), op.version, kValueBytes));
        }
        ok = store.MultiPut(kvs);
      }
      std::uint64_t t1 = NowNs();
      op.ApplyTo(&model);
      tallies[kind].Count(ok);
      ++acked;
      out.Send(Msg::kAck, i);
      if (kind == 0) out.Send(Msg::kPutNs, t1 - t0);
      out.Span(1 + kind, t0, t1);
      if ((i + 1) % kCheckpointEvery == 0) {
        std::uint64_t c0 = NowNs();
        for (std::size_t s = 0; s < store.shards(); ++s) {
          store.CheckpointShard(s);
        }
        std::uint64_t c1 = NowNs();
        out.Send(Msg::kCheckpoint, c1 - c0);
        out.Span(6, c0, c1);
      }
    }
  } catch (const rwd::CrashException&) {
    report_phase();
    out.Send(Msg::kCrash, LogBytes(store));
    ::raise(SIGKILL);
  }
  // The crash event fell past the cycle's ops: no op is in flight.
  report_phase();
  out.Send(Msg::kCrash, LogBytes(store));
  ::raise(SIGKILL);
  ::_exit(4);
}

/// Reattach check in a fresh process: resolves the in-flight op (all or
/// nothing), then every key must hold its acked version and a full scan
/// must equal the model. Returns the resolved model.
Model ChildVerify(rwd::KvStore& store, Model model, const WriteOp* inflight,
                  ChildOut& out) {
  Tally get_t, scan_t, inflight_t;
  if (inflight != nullptr) {
    Inflight res = ResolveInflight(model, *inflight, [&](std::size_t i) {
      return StoredVersion(store, model, i);
    });
    inflight_t.Count(res != Inflight::kTorn);
    out.Send(Msg::kInflight, static_cast<std::uint64_t>(res));
    if (res == Inflight::kApplied) inflight->ApplyTo(&model);
  }
  for (std::size_t i = 0; i < model.version.size(); ++i) {
    std::string v;
    std::uint64_t t0 = NowNs();
    bool found = store.Get(model.Key(i), &v);
    std::uint64_t t1 = NowNs();
    out.Send(Msg::kGetNs, t1 - t0);
    out.Span(4, t0, t1);
    std::uint64_t ver = model.version[i];
    get_t.Count(GetIsLegal(model.Key(i), found, v, kValueBytes, ver, ver));
  }
  ScanChecker check(model, 0, ~std::size_t{0});
  std::uint64_t t0 = NowNs();
  std::size_t items = store.Scan(
      0, ~std::size_t{0},
      [&check](std::uint64_t k, std::string_view v) { return check.Item(k, v); });
  std::uint64_t t1 = NowNs();
  out.Span(5, t0, t1);
  scan_t.Count(check.Finish());
  out.Send(Msg::kScan, items, t1 - t0);
  out.Send(Msg::kTally, get_t.attempted, get_t.failed, 3);
  out.Send(Msg::kTally, scan_t.attempted, scan_t.failed, 4);
  out.Send(Msg::kTally, inflight_t.attempted, inflight_t.failed, 5);
  return model;
}

/// Everything the parent learns from one child.
struct ChildResult {
  std::vector<std::uint64_t> acks;
  bool crashed = false;
  bool has_inflight = false;
  Inflight inflight = Inflight::kNotApplied;
  std::uint64_t heap_live = 0, heap_hwm = 0;
  std::uint64_t heap_base = 0;
};

struct RestartAcc {
  Samples put, get, open, checkpoint;
  std::vector<double> setup_s, load_rate, heap_ratio, heap_live, heap_hwm;
  std::vector<double> rec[4];
  std::vector<double> log_at_crash;
  double scan_items = 0, scan_ns = 0;
  double ops = 0, ops_ns = 0, nvm_w = 0, nvm_f = 0, nvm_fl = 0;
  std::map<std::string, Tally> tallies;
  std::vector<Span> spans;
  std::uint64_t span_total = 0;
};

ChildResult RunChild(const std::function<void(ChildOut&)>& body, bool spans,
                     RestartAcc* acc) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  std::fflush(stdout);
  pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ChildOut out(fds[1], spans);
    try {
      body(out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rewindbench child: %s\n", e.what());
      ::_exit(5);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  ChildResult res;
  Msg m;
  std::uint64_t span_seq = 0;
  for (;;) {
    ssize_t n = ::read(fds[0], &m, sizeof(m));
    if (n == 0) break;
    if (n < 0 && errno == EINTR) continue;
    if (n != sizeof(m)) Die("short read from child");
    switch (m.tag) {
      case Msg::kAck: res.acks.push_back(m.a); break;
      case Msg::kPutNs: acc->put.Add(m.a); break;
      case Msg::kGetNs: acc->get.Add(m.a); break;
      case Msg::kSetupNs:
        acc->setup_s.push_back(static_cast<double>(m.a) / 1e9);
        acc->load_rate.push_back(Ratio(static_cast<double>(kRestartKeys),
                                       static_cast<double>(m.b) / 1e9));
        break;
      case Msg::kOpenNs: acc->open.Add(m.a); break;
      case Msg::kRecovery:
        acc->rec[0].push_back(static_cast<double>(m.a) / 1e3);
        acc->rec[1].push_back(static_cast<double>(m.b) / 1e3);
        acc->rec[2].push_back(static_cast<double>(m.c) / 1e3);
        acc->rec[3].push_back(static_cast<double>(m.d) / 1e3);
        break;
      case Msg::kCrash:
        res.crashed = true;
        acc->log_at_crash.push_back(static_cast<double>(m.a));
        break;
      case Msg::kOpsPhase:
        acc->ops += static_cast<double>(m.a);
        acc->ops_ns += static_cast<double>(m.b);
        acc->nvm_w += static_cast<double>(m.c);
        acc->nvm_f += static_cast<double>(m.d);
        acc->nvm_fl += static_cast<double>(m.e);
        break;
      case Msg::kCheckpoint: acc->checkpoint.Add(m.a); break;
      case Msg::kHeap:
        res.heap_live = m.a;
        res.heap_hwm = m.b;
        break;
      case Msg::kScan:
        acc->scan_items += static_cast<double>(m.a);
        acc->scan_ns += static_cast<double>(m.b);
        break;
      case Msg::kTally: {
        Tally& t = acc->tallies[kTallyNames[m.x]];
        t.attempted += m.a;
        t.failed += m.b;
        break;
      }
      case Msg::kInflight:
        res.has_inflight = true;
        res.inflight = static_cast<Inflight>(m.a);
        break;
      case Msg::kHeapBase: res.heap_base = m.a; break;
      case Msg::kSpan:
        ++acc->span_total;
        acc->spans.push_back({++span_seq | (std::uint64_t{1} << 40), 0,
                              kSpanNames[m.x], m.a, m.b, 1});
        break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!(res.crashed ? killed : clean)) {
    Die("restart child ended unexpectedly (status " + std::to_string(status) +
        ")");
  }
  return res;
}

/// The address range every restart child maps the heap into. A
/// file-backed heap reattaches at the address its creator mapped it at, so
/// the parent, which forks every child and keeps allocating, holds the
/// range reserved. The kernel places new mappings top down, in the highest
/// gap that fits; so the creating child keeps the top kCap of the range
/// reserved and the heap lands just below it, and a reattaching child
/// frees the heap's range together with everything above it, so whatever
/// it maps before the heap lands above the heap's range, not on it.
class HeapRange {
 public:
  static constexpr std::size_t kCap = std::size_t{64} << 20;
  static constexpr std::size_t kHeap = std::size_t{512} << 20;
  static constexpr std::size_t kBytes = kHeap + 3 * kCap;

  HeapRange() {
    void* p = ::mmap(nullptr, kBytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) Die("cannot reserve the heap's address range");
    lo_ = reinterpret_cast<std::uintptr_t>(p);
  }
  HeapRange(const HeapRange&) = delete;
  HeapRange& operator=(const HeapRange&) = delete;

  /// In the child about to create the heap.
  void BeforeCreate() const {
    ::munmap(reinterpret_cast<void*>(lo_), kBytes);
    void* cap = ::mmap(reinterpret_cast<void*>(hi() - kCap), kCap, PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                           MAP_FIXED_NOREPLACE,
                       -1, 0);
    if (cap == MAP_FAILED) throw std::runtime_error("cannot re-reserve");
  }
  /// The created heap's base, or 0 when it did not land inside the range.
  std::uintptr_t BaseOf(rwd::KvStore& store) const {
    rwd::NvmHeap& heap = store.runtime().nvm().heap();
    std::uintptr_t base = lo_ - heap.OffsetOf(reinterpret_cast<void*>(lo_));
    return base >= lo_ && base + kHeap <= hi() - kCap ? base : 0;
  }
  /// In the child about to reattach the heap created at `base`.
  void BeforeOpen(std::uintptr_t base) const {
    ::munmap(reinterpret_cast<void*>(base), hi() - base);
  }

 private:
  std::uintptr_t hi() const { return lo_ + kBytes; }
  std::uintptr_t lo_ = 0;
};

/// One round: a fresh file-backed store is created and loaded, then
/// kCyclesPerRound crash/SIGKILL/reattach cycles run on it, and a last
/// process reattaches, checks and reports the heap.
void RestartRound(const Args& a, const HeapRange& range,
                  std::uint64_t round, bool spans, RestartAcc* acc) {
  const std::string heap = a.run_dir + "/restart.heap";
  ::unlink(heap.c_str());
  Model model;
  model.seed = a.seed;
  model.value_size = kValueBytes;
  model.version.assign(kRestartKeys, 0);
  Rng crash_rng(StreamSeed(a.seed, kPurposeCrash, round));
  std::vector<WriteOp> ops;
  const WriteOp* inflight = nullptr;
  std::uintptr_t heap_base = 0;
  for (std::size_t cycle = 0; cycle <= kCyclesPerRound; ++cycle) {
    bool last = cycle == kCyclesPerRound;
    std::vector<WriteOp> next_ops =
        last ? std::vector<WriteOp>{} : CycleOps(a.seed, round, cycle);
    std::uint64_t crash_at = 1 + crash_rng.Below(kMaxCrashEvent);
    ChildResult res = RunChild(
        [&](ChildOut& out) {
          rwd::KvConfig cfg = StoreConfig(0, heap);
          std::unique_ptr<rwd::KvStore> store;
          Model m = model;
          if (cycle == 0) {
            // Set-up: create the store and load every key at version 1.
            range.BeforeCreate();
            std::uint64_t t0 = NowNs();
            store = std::make_unique<rwd::KvStore>(cfg);
            std::uint64_t t1 = NowNs();
            std::uintptr_t base = range.BaseOf(*store);
            if (base == 0) {
              throw std::runtime_error("heap created outside its range");
            }
            out.Send(Msg::kHeapBase, base);
            Tally load;
            for (std::size_t i = 0; i < kRestartKeys; ++i) {
              load.Count(store->Put(m.Key(i),
                                    EncodeValue(m.Key(i), 1, kValueBytes)));
              m.version[i] = 1;
            }
            for (std::size_t s = 0; s < store->shards(); ++s) {
              store->CheckpointShard(s);
            }
            std::uint64_t t2 = NowNs();
            out.Send(Msg::kSetupNs, t2 - t0, t2 - t1);
            out.Send(Msg::kTally, load.attempted, load.failed, 6);
          } else {
            if (spans) rwd::obs::TraceEnable();
            range.BeforeOpen(heap_base);
            std::uint64_t t0 = NowNs();
            store = rwd::KvStore::Open(heap, cfg);
            std::uint64_t t1 = NowNs();
            out.Send(Msg::kOpenNs, t1 - t0);
            out.Span(0, t0, t1);
            // A fresh process: its registry saw only this Open's recovery.
            RecoveryTime rt = RecoveryTime::Read();
            Msg rec;
            rec.tag = Msg::kRecovery;
            rec.a = static_cast<std::uint64_t>(rt.us[0] * 1e3);
            rec.b = static_cast<std::uint64_t>(rt.us[1] * 1e3);
            rec.c = static_cast<std::uint64_t>(rt.us[2] * 1e3);
            rec.d = static_cast<std::uint64_t>(rt.us[3] * 1e3);
            out.Send(rec);
            m = ChildVerify(*store, m, inflight, out);
          }
          if (last) {
            out.Send(Msg::kHeap, store->heap_live_bytes(),
                     store->heap_high_watermark());
            if (spans) {
              rwd::obs::TraceDumpJson(a.run_dir + "/restart.trace.json");
            }
            store.reset();  // clean shutdown
            return;
          }
          ChildOps(*store, m, next_ops, crash_at, out);
        },
        spans, acc);
    // Fold what the child saw into the model: the resolved in-flight op
    // of the previous cycle, then this cycle's acked prefix.
    if (cycle == 0) {
      heap_base = res.heap_base;
      std::fill(model.version.begin(), model.version.end(), 1);
    } else if (inflight != nullptr && res.has_inflight &&
               res.inflight == Inflight::kApplied) {
      inflight->ApplyTo(&model);
    }
    if (last) {
      double user = static_cast<double>(model.LiveKeys()) * kUserBytesPerKey;
      acc->heap_ratio.push_back(
          Ratio(static_cast<double>(res.heap_live), user));
      acc->heap_live.push_back(static_cast<double>(res.heap_live));
      acc->heap_hwm.push_back(static_cast<double>(res.heap_hwm));
      break;
    }
    ops = std::move(next_ops);
    std::size_t acked = res.acks.size();
    for (std::size_t i = 0; i < acked; ++i) ops[i].ApplyTo(&model);
    inflight = acked < ops.size() ? &ops[acked] : nullptr;
  }
  ::unlink(heap.c_str());
}

void RunRestart(const Args& a, Report* r) {
  // Rounds run until the time is up, at least two; traced runs first run
  // untraced rounds for half the time, for the tracing overhead.
  const HeapRange range;
  double untraced_ops_per_s = 0;
  std::uint64_t round = 0;
  if (a.trace) {
    RestartAcc base;
    std::uint64_t t0 = NowNs();
    while (round < 2 ||
           static_cast<double>(NowNs() - t0) / 1e9 < a.seconds / 2) {
      RestartRound(a, range, round++, false, &base);
    }
    MergeTallies(&r->tallies, base.tallies);
    untraced_ops_per_s = Ratio(base.ops, base.ops_ns / 1e9);
  }
  RestartAcc acc;
  std::uint64_t t0 = NowNs();
  std::uint64_t first = round;
  double budget = a.trace ? a.seconds / 2 : a.seconds;
  while (round < first + 2 ||
         static_cast<double>(NowNs() - t0) / 1e9 < budget) {
    RestartRound(a, range, round++, a.trace, &acc);
  }
  MergeTallies(&r->tallies, acc.tallies);
  double ops_per_s = Ratio(acc.ops, acc.ops_ns / 1e9);
  r->E2e("setup_s", Median(acc.setup_s), "s");
  r->E2e("ops_per_s", ops_per_s, "ops/s");
  r->E2e("put_p50_us", acc.put.PUs(0.5), "us");
  r->Layer("client.put.p99_us", acc.put.PUs(0.99));
  r->E2e("get_p50_us", acc.get.PUs(0.5), "us");
  r->E2e("scan_items_per_s", Ratio(acc.scan_items, acc.scan_ns / 1e9),
         "items/s");
  r->Layer("recover_ms", acc.open.PNs(0.5) / 1e6);
  r->E2e("heap_bytes_per_user_byte", Median(acc.heap_ratio), "B/B");

  r->Layer("nvm.writes_per_acked_write", Ratio(acc.nvm_w, acc.ops));
  r->Layer("nvm.fences_per_acked_write", Ratio(acc.nvm_f, acc.ops));
  r->Layer("nvm.flushes_per_acked_write", Ratio(acc.nvm_fl, acc.ops));
  r->Layer("nvm.heap_live_bytes", Median(acc.heap_live));
  r->Layer("nvm.heap_high_watermark_bytes", Median(acc.heap_hwm));
  r->Layer("log.live_bytes_at_crash", Median(acc.log_at_crash));
  ReportRecovery(r, Median(acc.rec[0]), Median(acc.rec[1]),
                       Median(acc.rec[2]), Median(acc.rec[3]));
  r->Layer("checkpoint.count", static_cast<double>(acc.checkpoint.count()));
  r->Layer("checkpoint.duration.p50_us", acc.checkpoint.PUs(0.5));
  r->Layer("checkpoint.duration.p99_us", acc.checkpoint.PUs(0.99));
  r->Layer("kv.put.p50_ns", acc.put.PNs(0.5));
  r->Layer("kv.put.p99_ns", acc.put.PNs(0.99));
  r->Layer("kv.get.p50_ns", acc.get.PNs(0.5));
  r->Layer("load.keys_per_s", Median(acc.load_rate));
  if (a.trace) {
    r->Layer("trace.overhead_pct",
             100.0 * (1.0 - Ratio(ops_per_s, untraced_ops_per_s)));
    r->Layer("trace.spans", static_cast<double>(acc.span_total));
    SpanLog log(1, acc.spans.size());
    for (const Span& s : acc.spans) log.Add(s.name, 0, s.t0, s.t1, s.id);
    std::string path = a.run_dir + "/restart.spans.json";
    if (!DumpSpans(path, {&log})) Die("cannot write " + path);
    r->Note("spans: " + path + "; program trace: " + a.run_dir +
            "/restart.trace.json");
  }
}

// ---------------------------------------------------------------------------

/// Every per-layer metric with its unit. A name with no meaning on a
/// workload is printed as 0, so every run prints the same set (README.md
/// says which apply where).
const std::pair<const char*, const char*> kLayers[] = {
    {"nvm.writes_per_acked_write", "count"},
    {"nvm.fences_per_acked_write", "count"},
    {"nvm.flushes_per_acked_write", "count"},
    {"nvm.heap_live_bytes", "B"},
    {"nvm.heap_high_watermark_bytes", "B"},
    {"log.live_bytes_at_crash", "B"},
    {"recover_ms", "ms"},
    {"recovery.analysis_us", "us"},
    {"recovery.redo_us", "us"},
    {"recovery.undo_us", "us"},
    {"recovery.total_us", "us"},
    {"checkpoint.count", "count"},
    {"checkpoint.duration.p50_us", "us"},
    {"checkpoint.duration.p99_us", "us"},
    {"txn.prepare.p50_us", "us"},
    {"txn.fence.p50_us", "us"},
    {"txn.end.p50_us", "us"},
    {"txn.decision.p50_us", "us"},
    {"txn.two_phase_commits_per_batch", "count"},
    {"client.put.p99_us", "us"},
    {"kv.put.p50_ns", "ns"},
    {"kv.put.p99_ns", "ns"},
    {"kv.get.p50_ns", "ns"},
    {"kv.scan.p50_us", "us"},
    {"kv.scan.items_per_call", "count"},
    {"kv.optimistic_hits_per_get", "count"},
    {"kv.optimistic_retries_per_get", "count"},
    {"kv.read_latch_acquires_per_get", "count"},
    {"kv.starvation_fallbacks", "count"},
    {"kv.parallel_applies_per_batch", "count"},
    {"server.op.put.p50_us", "us"},
    {"server.op.put.p99_us", "us"},
    {"server.op.get.p50_us", "us"},
    {"batcher.window.p50_us", "us"},
    {"batcher.commit.p50_us", "us"},
    {"batcher.commit.p99_us", "us"},
    {"server.writes_per_batch", "count"},
    {"batcher.apply_fanout", "count"},
    {"net.put_residual_us", "us"},
    {"net.get_residual_us", "us"},
    {"proc.cpu_us_per_op", "us"},
    {"proc.ctx_switches_per_kop", "count"},
    {"server.cpu_us_per_op", "us"},
    {"server.ctx_switches_per_kop", "count"},
    {"load.keys_per_s", "keys/s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

void Print(const Report& r, bool trace) {
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [op, t] : r.tallies) {
    if (t.attempted == 0) continue;
    std::printf("# op %s attempted=%" PRIu64 " failed=%" PRIu64 "\n",
                op.c_str(), t.attempted, t.failed);
    attempted += t.attempted;
    failed += t.failed;
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::map<std::string, std::pair<double, std::string>> metrics;
  if (trace) {
    for (const auto& [n, unit] : kLayers) {
      auto it = r.layer.find(n);
      metrics[n] = {it == r.layer.end() ? 0.0 : it->second, unit};
    }
    for (const auto& [n, v] : r.layer) {
      if (metrics.count(n) == 0) Die("per-layer metric " + n + " has no unit");
    }
  } else {
    for (const auto& [n, v, u] : r.e2e) metrics[n] = {v, u};
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [n, vu] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", vu.first);
    json += (first ? "\"" : ", \"") + n + "\": {\"value\": " + buf +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::string Flag(int argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

}  // namespace
}  // namespace rbench

int main(int argc, char** argv) {
  using namespace rbench;
  Args a;
  a.workload = Flag(argc, argv, "workload");
  a.seed = std::strtoull(Flag(argc, argv, "seed").c_str(), nullptr, 10);
  a.seconds = std::atof(Flag(argc, argv, "seconds").c_str());
  a.trace = Flag(argc, argv, "trace") == "1";
  a.kv_server = Flag(argc, argv, "kv-server");
  a.run_dir = Flag(argc, argv, "run-dir");
  if (a.seconds <= 0 || a.run_dir.empty()) {
    Die("usage: rewindbench --workload=W --seed=N --seconds=S --trace=0|1 "
        "--kv-server=PATH --run-dir=DIR");
  }
  std::signal(SIGPIPE, SIG_IGN);
  Report r;
  std::pair<double, double> steal0 = StealTicks();
  try {
    if (a.workload == "kv-update") {
      RunEmbedded(a, {100000, 0.5, 0.0, 3, 1}, &r);
    } else if (a.workload == "kv-read-scan") {
      RunEmbedded(a, {300000, 0.0, 0.03, 2, 8}, &r);
    } else if (a.workload == "served-update") {
      if (a.kv_server.empty()) Die("served-update needs --kv-server");
      RunServed(a, &r);
    } else if (a.workload == "restart") {
      RunRestart(a, &r);
    } else {
      Die("unknown workload '" + a.workload + "'");
    }
  } catch (const std::exception& e) {
    Die(e.what());
  }
  std::pair<double, double> steal1 = StealTicks();
  char note[96];
  std::snprintf(note, sizeof(note), "host steal_pct=%.2f",
                100.0 * Ratio(steal1.first - steal0.first,
                              steal1.second - steal0.second));
  r.Note(note);
  Print(r, a.trace);
  return 0;
}
