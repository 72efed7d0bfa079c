// Tests of RewindBench's own checker and generator: every kind of wrong
// answer the benchmark claims to catch must count as a failure, and the
// same seed must give the same inputs.
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "gen.h"
#include "gtest/gtest.h"

namespace rbench {
namespace {

constexpr std::size_t kSize = 100;

Model MakeModel(std::size_t n, std::uint64_t version = 1) {
  Model m;
  m.seed = 7;
  m.value_size = kSize;
  m.version.assign(n, version);
  return m;
}

/// Feeds `items` to a ScanChecker and returns its verdict.
bool ScanOk(const Model& m, std::uint64_t from, std::size_t max,
            const std::vector<std::pair<std::uint64_t, std::string>>& items) {
  ScanChecker check(m, from, max);
  for (const auto& [k, v] : items) check.Item(k, v);
  return check.Finish();
}

/// The scan a correct store returns.
std::vector<std::pair<std::uint64_t, std::string>> GoodScan(
    const Model& m, std::size_t first, std::size_t count) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (std::size_t i = first; i < m.version.size() && out.size() < count;
       ++i) {
    if (m.version[i] == 0) continue;
    out.emplace_back(m.Key(i), EncodeValue(m.Key(i), m.version[i], kSize));
  }
  return out;
}

TEST(Generator, SameSeedSameInputs) {
  for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
    Rng a(StreamSeed(seed, 1, 3)), b(StreamSeed(seed, 1, 3));
    Zipf z(100000);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(z.SampleScrambled(a), z.SampleScrambled(b));
    }
    for (std::uint64_t i = 0; i < 1000; ++i) {
      ASSERT_EQ(KeyOf(seed, i), KeyOf(seed, i));
      ASSERT_LT(KeyOf(seed, i), KeyOf(seed, i + 1));
    }
  }
  EXPECT_NE(StreamSeed(1, 1, 0), StreamSeed(2, 1, 0));
  int differ = 0;
  for (std::uint64_t i = 0; i < 100; ++i) differ += KeyOf(1, i) != KeyOf(2, i);
  EXPECT_GT(differ, 50) << "keys depend on the seed";
  EXPECT_EQ(EncodeValue(42, 3, kSize), EncodeValue(42, 3, kSize));
}

TEST(Generator, ZipfStaysInRangeAndFavoursHotKeys) {
  Zipf z(1000);
  Rng rng(5);
  std::map<std::uint64_t, int> hits;
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t r = z.Sample(rng);
    ASSERT_LT(r, 1000u);
    ++hits[r];
  }
  EXPECT_GT(hits[0], hits[500] * 50);
}

TEST(Checker, ValueRoundTripsAndCorruptionIsCaught) {
  std::string v = EncodeValue(1234, 9, kSize);
  std::uint64_t ver = 0;
  ASSERT_TRUE(ValueOf(1234, v, kSize, &ver));
  EXPECT_EQ(ver, 9u);
  EXPECT_FALSE(ValueOf(1235, v, kSize, &ver)) << "wrong key";
  EXPECT_FALSE(ValueOf(1234, v.substr(0, kSize - 1), kSize, &ver))
      << "truncated";
  for (std::size_t at : {0, 5, 20, 34, 35, 60, 99}) {
    std::string bad = v;
    bad[at] ^= 1;
    EXPECT_FALSE(ValueOf(1234, bad, kSize, &ver)) << "flip at " << at;
  }
}

TEST(Checker, GetWindow) {
  std::string v5 = EncodeValue(77, 5, kSize);
  EXPECT_TRUE(GetIsLegal(77, true, v5, kSize, 5, 5));
  EXPECT_TRUE(GetIsLegal(77, true, v5, kSize, 4, 6)) << "write in flight";
  EXPECT_FALSE(GetIsLegal(77, true, v5, kSize, 6, 6)) << "stale read";
  EXPECT_FALSE(GetIsLegal(77, true, v5, kSize, 1, 4)) << "from the future";
  EXPECT_FALSE(GetIsLegal(77, false, "", kSize, 5, 5)) << "missing key";
  EXPECT_TRUE(GetIsLegal(77, false, "", kSize, 0, 0)) << "never written";
  std::string corrupt = v5;
  corrupt[70] = '#';
  EXPECT_FALSE(GetIsLegal(77, true, corrupt, kSize, 5, 5));
  EXPECT_FALSE(GetIsLegal(78, true, v5, kSize, 5, 5)) << "another key's value";

  // A check that fails is one failed op of the run.
  Tally t;
  t.Count(GetIsLegal(77, true, v5, kSize, 5, 5));
  t.Count(GetIsLegal(77, true, corrupt, kSize, 5, 5));
  t.Count(GetIsLegal(77, false, "", kSize, 5, 5));
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.failed, 2u);
}

TEST(Checker, ScanAcceptsTheRightAnswer) {
  Model m = MakeModel(200);
  m.version[10] = 0;  // a deleted key is skipped, not a gap
  m.version[11] = 4;
  EXPECT_TRUE(ScanOk(m, m.Key(5), 20, GoodScan(m, 5, 20)));
  // Starting between keys begins at the next key: key index i lies in
  // [(i+1) << 5, (i+2) << 5).
  EXPECT_TRUE(ScanOk(m, std::uint64_t{6} << 5, 3, GoodScan(m, 5, 3)));
  // Short at the end of the key space.
  EXPECT_TRUE(ScanOk(m, m.Key(195), 100, GoodScan(m, 195, 100)));
  EXPECT_TRUE(ScanOk(m, 0, ~std::size_t{0}, GoodScan(m, 0, 1000)));
}

TEST(Checker, ScanFailures) {
  Model m = MakeModel(200);
  auto good = GoodScan(m, 5, 10);

  auto gap = good;
  gap.erase(gap.begin() + 4);
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, gap)) << "gap";

  auto swapped = good;
  std::swap(swapped[2], swapped[3]);
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, swapped)) << "out of order";

  auto late_start = GoodScan(m, 6, 10);
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, late_start)) << "not from start key";

  auto short_scan = good;
  short_scan.pop_back();
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, short_scan)) << "too few items";

  auto long_scan = GoodScan(m, 5, 11);
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, long_scan)) << "too many items";

  auto corrupt = good;
  corrupt[7].second[50] ^= 2;
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, corrupt)) << "corrupted value";

  auto stale = good;
  stale[1].second = EncodeValue(stale[1].first, 2, kSize);
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, stale)) << "wrong version";

  auto invented = good;
  invented.insert(invented.begin() + 2,
                  {invented[1].first + 1,
                   EncodeValue(invented[1].first + 1, 1, kSize)});
  invented.pop_back();
  EXPECT_FALSE(ScanOk(m, m.Key(5), 10, invented)) << "key not in the model";

  Model with_deleted = m;
  with_deleted.version[8] = 0;
  EXPECT_FALSE(ScanOk(with_deleted, m.Key(5), 10, good))
      << "deleted key returned";
}

TEST(Checker, RestartInflightAllOrNothing) {
  Model before = MakeModel(50);
  before.version[3] = 0;
  WriteOp mput;
  mput.kind = WriteOp::Kind::kMultiPut;
  mput.idx = {1, 3, 7};
  mput.version = 100;
  auto store_with = [](std::map<std::size_t, std::uint64_t> now,
                       const Model& base) {
    return [now, &base](std::size_t i) {
      auto it = now.find(i);
      return it != now.end() ? it->second : base.version[i];
    };
  };
  EXPECT_EQ(ResolveInflight(before, mput, store_with({}, before)),
            Inflight::kNotApplied);
  EXPECT_EQ(ResolveInflight(before, mput,
                            store_with({{1, 100}, {3, 100}, {7, 100}}, before)),
            Inflight::kApplied);
  EXPECT_EQ(ResolveInflight(before, mput,
                            store_with({{1, 100}, {7, 100}}, before)),
            Inflight::kTorn)
      << "two of three keys applied";
  EXPECT_EQ(ResolveInflight(before, mput, store_with({{3, 55}}, before)),
            Inflight::kTorn)
      << "a version nobody wrote";
  EXPECT_EQ(ResolveInflight(before, mput,
                            store_with({{1, ~std::uint64_t{0}}}, before)),
            Inflight::kTorn)
      << "corrupted value";

  WriteOp del;
  del.kind = WriteOp::Kind::kDelete;
  del.idx = {4};
  EXPECT_EQ(ResolveInflight(before, del, store_with({{4, 0}}, before)),
            Inflight::kApplied);
  EXPECT_EQ(ResolveInflight(before, del, store_with({}, before)),
            Inflight::kNotApplied);

  Model after = before;
  mput.ApplyTo(&after);
  EXPECT_EQ(after.version[3], 100u);
  del.ApplyTo(&after);
  EXPECT_EQ(after.version[4], 0u);
}

}  // namespace
}  // namespace rbench
