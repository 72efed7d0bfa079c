// RewindBench input generation: everything a run sends to the store is
// derived here from the run's --seed, so the same seed gives the same keys,
// values and op streams, and nothing depends on the program under test.
#ifndef REWINDBENCH_GEN_H_
#define REWINDBENCH_GEN_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace rbench {

/// SplitMix64: a small, fast, seedable generator with a full 64-bit period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Stateless 64-bit mix (the SplitMix64 finalizer).
inline std::uint64_t Mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of an independent stream: one per (run seed, purpose, index).
inline std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t purpose,
                                std::uint64_t index = 0) {
  return Mix(seed * 0x9e3779b97f4a7c15ull ^ Mix(purpose + 1) ^
             Mix(index + 0x51ed27));
}

/// YCSB's zipfian distribution over ranks [0, n) with YCSB's constant
/// theta of 0.99 (Gray et al., "Quickly generating billion-record
/// synthetic databases"). Rank 0 is the most popular.
class Zipf {
 public:
  static constexpr double kTheta = 0.99;

  explicit Zipf(std::uint64_t n) : n_(n) {
    double zeta2 = 0;
    for (std::uint64_t i = 1; i <= 2 && i <= n; ++i) {
      zeta2 += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    zetan_ = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kTheta)) /
           (1.0 - zeta2 / zetan_);
  }
  std::uint64_t Sample(Rng& rng) const {
    double u = rng.Unit();
    double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, kTheta)) return n_ > 1 ? 1 : 0;
    auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }
  /// YCSB's scrambled zipfian: popular ranks scattered over the key space.
  std::uint64_t SampleScrambled(Rng& rng) const {
    return Mix(Sample(rng) ^ 0x5bd1e995) % n_;
  }

 private:
  std::uint64_t n_;
  double zetan_, alpha_, eta_;
};

/// The key of key-index `i` in a run: strictly increasing in `i`, sparse
/// (gaps of 1..31 between neighbours) and seed-dependent, so ordered scans
/// cannot pass by counting.
inline std::uint64_t KeyOf(std::uint64_t seed, std::uint64_t i) {
  return ((i + 1) << 5) | (Mix(seed ^ (i * 0x2545f4914f6cdd1dull)) & 31);
}

/// Value layout: "K<16 hex key>V<16 hex version>:" then filler bytes that
/// are a pure function of (key, version). A read is validated without
/// trusting the store: the header names the key and version it claims,
/// and the whole value must equal the encoding of that pair.
constexpr std::size_t kHeaderBytes = 35;

/// The filler byte stream that follows the header of a (key, version) value.
class Filler {
 public:
  Filler(std::uint64_t key, std::uint64_t version)
      : rng_(Mix(key) ^ (version * 0x9e3779b97f4a7c15ull)) {}
  char Next() {
    if (left_ == 0) {
      bits_ = rng_.Next();
      left_ = 8;
    }
    char c = static_cast<char>('a' + (bits_ & 0xff) % 26);
    bits_ >>= 8;
    --left_;
    return c;
  }

 private:
  Rng rng_;
  std::uint64_t bits_ = 0;
  int left_ = 0;
};

inline std::string EncodeValue(std::uint64_t key, std::uint64_t version,
                               std::size_t size) {
  char head[kHeaderBytes + 1];
  std::snprintf(head, sizeof(head), "K%016llxV%016llx:",
                static_cast<unsigned long long>(key),
                static_cast<unsigned long long>(version));
  std::string v(head, kHeaderBytes);
  Filler fill(key, version);
  while (v.size() < size) v.push_back(fill.Next());
  return v;
}

/// Parses a value's claimed (key, version) and checks the whole value is
/// that pair's encoding. False for anything malformed or corrupted.
inline bool DecodeValue(std::string_view v, std::uint64_t* key,
                        std::uint64_t* version) {
  if (v.size() < kHeaderBytes || v[0] != 'K' || v[17] != 'V' ||
      v[34] != ':') {
    return false;
  }
  auto hex = [](std::string_view s, std::uint64_t* out) {
    std::uint64_t x = 0;
    for (char c : s) {
      int d = c >= '0' && c <= '9'   ? c - '0'
              : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                     : -1;
      if (d < 0) return false;
      x = (x << 4) | static_cast<std::uint64_t>(d);
    }
    *out = x;
    return true;
  };
  if (!hex(v.substr(1, 16), key) || !hex(v.substr(18, 16), version)) {
    return false;
  }
  Filler fill(*key, *version);
  for (std::size_t i = kHeaderBytes; i < v.size(); ++i) {
    if (v[i] != fill.Next()) return false;
  }
  return true;
}

}  // namespace rbench

#endif  // REWINDBENCH_GEN_H_
