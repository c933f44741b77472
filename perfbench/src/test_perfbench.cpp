// Unit tests of the benchmark's own helpers.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <set>

#include "helpers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(OneToOne, EstimateNeverMatchesTwoTruths) {
  // One estimate halfway between two responders 0.4 m apart: within
  // tolerance of both, but it may claim only one.
  const std::vector<RangePoint> truths = {{0, 6.0}, {1, 6.4}};
  const std::vector<RangePoint> estimates = {{-1, 6.25}};
  const auto matches = assign_one_to_one(estimates, truths);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].truth, 1u);  // the nearer one
}

TEST(OneToOne, TruthNeverMatchedTwice) {
  // Two estimates near one responder (a response and its echo).
  const std::vector<RangePoint> truths = {{0, 3.0}, {1, 10.0}};
  const std::vector<RangePoint> estimates = {{-1, 3.05}, {-1, 3.4}};
  const auto matches = assign_one_to_one(estimates, truths);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].estimate, 0u);
  EXPECT_NEAR(matches[0].error_m, 0.05, 1e-12);
}

TEST(OneToOne, EveryMatchIsUniqueOnBothSides) {
  std::vector<RangePoint> truths, estimates;
  for (int i = 0; i < 20; ++i) truths.push_back({i, 1.0 + 0.3 * i});
  for (int i = 0; i < 30; ++i) estimates.push_back({-1, 1.1 + 0.21 * i});
  const auto matches = assign_one_to_one(estimates, truths);
  std::set<std::size_t> est_seen, truth_seen;
  for (const RangeMatch& m : matches) {
    EXPECT_TRUE(est_seen.insert(m.estimate).second);
    EXPECT_TRUE(truth_seen.insert(m.truth).second);
    EXPECT_LE(std::abs(m.error_m), kMatchToleranceM);
  }
}

TEST(OneToOne, ToleranceAndIds) {
  EXPECT_NEAR(kMatchToleranceM, 1.2, 0.01);  // c * 8 ns / 2
  const std::vector<RangePoint> truths = {{3, 5.0}, {4, 5.1}};
  // An identified estimate only matches its own responder...
  auto matches = assign_one_to_one({{4, 5.0}}, truths);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].truth, 1u);
  // ...and nothing beyond the tolerance.
  EXPECT_TRUE(assign_one_to_one({{-1, 6.5}}, truths).empty());
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  for (std::size_t n = 11; n <= 400; ++n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    std::shuffle(v.begin(), v.end(), std::mt19937_64(n));
    const TailPercentile p = tail_percentile(v, 90.0);
    ASSERT_TRUE(p.valid);
    std::size_t beyond = 0;
    for (const double x : v) beyond += x > p.value ? 1 : 0;
    EXPECT_GE(beyond, kMinTailSamples) << "n = " << n;
    EXPECT_EQ(beyond, p.beyond);
    EXPECT_LE(p.percentile, 90.0 + 100.0 / static_cast<double>(n));
  }
}

TEST(TailPercentile, NominalWhenTheRunIsLongEnough) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const TailPercentile p = tail_percentile(v, 90.0);
  EXPECT_DOUBLE_EQ(p.value, 900.0);
  EXPECT_DOUBLE_EQ(p.percentile, 90.0);
  EXPECT_EQ(p.beyond, 100u);
  EXPECT_FALSE(tail_percentile(std::vector<double>(10, 1.0), 90.0).valid);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // round [0, 100]: construct [0, 20], run_round [20, 100] with two
  // replayed children of 30 and 10 (recorded later, outside the interval)
  // and a grandchild that must not be subtracted from run_round.
  const std::vector<SpanRecord> spans = {
      {"round", 0, 100, -1, 7},           {"session.construct", 0, 20, 0, 7},
      {"session.run_round", 20, 100, 0, 7}, {"replay.channel", 150, 180, 2, 7},
      {"replay.cir", 180, 190, 2, 7},       {"inner", 150, 160, 3, 7},
  };
  EXPECT_EQ(self_ns(spans, 0), 0);
  EXPECT_EQ(self_ns(spans, 2), 80 - 30 - 10);
  EXPECT_EQ(self_ns(spans, 3), 20);
  EXPECT_EQ(self_ns(spans, 4), 10);
  // The layer rows (construct + run_round self + replayed children) sum to
  // the round's wall time.
  EXPECT_EQ(spans[1].duration_ns() + self_ns(spans, 2) + spans[3].duration_ns() +
                spans[4].duration_ns(),
            spans[0].duration_ns());
}

TEST(Seed, SameSeedSameDigestOtherSeedOther) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::uint64_t a = sample_digest(WorkloadKind::kHallwayFig4, 11, dir);
  const std::uint64_t b = sample_digest(WorkloadKind::kHallwayFig4, 11, dir);
  const std::uint64_t c = sample_digest(WorkloadKind::kHallwayFig4, 12, dir);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Seed, TimedRoundsFollowTheSeed) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  Workload w(WorkloadKind::kHallwayFig4, 5, dir);
  bool ok = false;
  w.setup(&ok);
  ASSERT_TRUE(ok);
  const std::uint64_t base = uwb::derive_seed(5, kTimedStream);
  const TimedRun run = run_timed(w, base, 0.2, false, 256);
  std::uint64_t digest = 0;
  EXPECT_EQ(w.check(base, run.rounds, &digest), 0);
  EXPECT_EQ(digest, sample_digest(WorkloadKind::kHallwayFig4, 5, dir));
}

}  // namespace
}  // namespace perfbench
