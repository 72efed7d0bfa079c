// RewindBench checker: a reference model of the store's contents, built
// apart from the program, and the checks every read, scan and restart is
// held to. A check that fails counts one failed operation.
#ifndef REWINDBENCH_CHECKER_H_
#define REWINDBENCH_CHECKER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "gen.h"

namespace rbench {

/// Attempted and failed operations of one op type.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// True when `value` is a well-formed, uncorrupted value of `key` at some
/// version, of the run's value size; the version goes to `*version`.
inline bool ValueOf(std::uint64_t key, std::string_view value,
                    std::size_t value_size, std::uint64_t* version) {
  std::uint64_t k = 0;
  return value.size() == value_size && DecodeValue(value, &k, version) &&
         k == key && *version != 0;
}

/// A Get is legal when it returns a version of the key that was acked or
/// in flight during the call: `lo` is the version acked before the call
/// began (0 = the key was absent) and `hi` the newest version whose write
/// began before the call ended. With no write in flight (lo == hi) the
/// read must return exactly the last acked version. Versions only grow.
inline bool GetIsLegal(std::uint64_t key, bool found, std::string_view value,
                       std::size_t value_size, std::uint64_t lo,
                       std::uint64_t hi) {
  if (!found) return lo == 0;
  std::uint64_t v = 0;
  return ValueOf(key, value, value_size, &v) && v >= lo && v <= hi;
}

/// Expected contents: key index i holds KeyOf(seed, i) at version[i]
/// (0 = absent). Keys ascend with the index.
struct Model {
  std::uint64_t seed = 0;
  std::size_t value_size = 0;
  std::vector<std::uint64_t> version;

  std::uint64_t Key(std::size_t i) const { return KeyOf(seed, i); }
  /// First index whose key is >= `key` (size() if none).
  std::size_t LowerBound(std::uint64_t key) const {
    std::size_t lo = 0, hi = version.size();
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (Key(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  std::uint64_t LiveKeys() const {
    return static_cast<std::uint64_t>(
        std::count_if(version.begin(), version.end(),
                      [](std::uint64_t v) { return v != 0; }));
  }
};

/// Checks one ordered scan as its items arrive: keys ascend and are
/// contiguous from the start key (no live model key skipped, none
/// invented), every value is intact and current, and the scan delivers
/// min(max_items, live keys at or after the start) items.
class ScanChecker {
 public:
  ScanChecker(const Model& model, std::uint64_t from, std::size_t max_items)
      : model_(model), next_(model.LowerBound(from)), left_(max_items) {}

  /// Feeds the next delivered item; false once the scan has gone wrong.
  bool Item(std::uint64_t key, std::string_view value) {
    if (!ok_) return false;
    SkipAbsent();
    std::uint64_t v = 0;
    if (left_ == 0 || next_ >= model_.version.size() ||
        key != model_.Key(next_) ||
        !ValueOf(key, value, model_.value_size, &v) ||
        v != model_.version[next_]) {
      ok_ = false;
      return false;
    }
    ++next_;
    --left_;
    return true;
  }
  /// True when every item was right and none is missing at the end.
  bool Finish() {
    if (!ok_) return false;
    SkipAbsent();
    return left_ == 0 || next_ >= model_.version.size();
  }

 private:
  void SkipAbsent() {
    while (next_ < model_.version.size() && model_.version[next_] == 0) {
      ++next_;
    }
  }

  const Model& model_;
  std::size_t next_;
  std::size_t left_;
  bool ok_ = true;
};

/// One write of the restart workload's op stream.
struct WriteOp {
  enum class Kind : std::uint8_t { kPut, kDelete, kMultiPut };
  Kind kind = Kind::kPut;
  std::vector<std::size_t> idx;  ///< key indexes written
  std::uint64_t version = 0;     ///< version every put key gets

  /// The model after this op.
  void ApplyTo(Model* m) const {
    for (std::size_t i : idx) {
      m->version[i] = kind == Kind::kDelete ? 0 : version;
    }
  }
};

/// What a reattached store shows of the op that was in flight at a crash.
enum class Inflight { kApplied, kNotApplied, kTorn };

/// Decides whether the in-flight op surfaced all-or-nothing. `observed(i)`
/// returns the version the store now holds for key index i (0 = absent,
/// ~0 = a corrupted value). `before` is the model after the acked prefix.
inline Inflight ResolveInflight(
    const Model& before, const WriteOp& op,
    const std::function<std::uint64_t(std::size_t)>& observed) {
  std::size_t applied = 0, untouched = 0;
  for (std::size_t i : op.idx) {
    std::uint64_t now = observed(i);
    std::uint64_t after = op.kind == WriteOp::Kind::kDelete ? 0 : op.version;
    if (now == after) ++applied;
    if (now == before.version[i]) ++untouched;
    if (now != after && now != before.version[i]) return Inflight::kTorn;
  }
  // A delete of an absent key, or a rewrite to the same version, leaves
  // both outcomes identical; count it as not applied.
  if (untouched == op.idx.size()) return Inflight::kNotApplied;
  if (applied == op.idx.size()) return Inflight::kApplied;
  return Inflight::kTorn;
}

}  // namespace rbench

#endif  // REWINDBENCH_CHECKER_H_
