// Tests of the serving ledger's own helpers: percentiles with their sample
// counts, span self time, the open-loop schedule and lateness verdict, and
// seeded determinism of the workload inputs.
#include <gtest/gtest.h>

#include <cstring>

#include "ledger.hpp"

namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // n..1, unsorted on purpose
}

TEST(Percentile, NearestRankReportsSamplesBeyond) {
  const pb::Quantile p99 = pb::nearest_rank(iota_samples(1000), 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000U);
  EXPECT_EQ(p99.beyond, 10U);  // enough evidence for a p99

  const pb::Quantile small = pb::nearest_rank(iota_samples(50), 99.0);
  EXPECT_EQ(small.value, 50.0);
  EXPECT_EQ(small.beyond, 0U);  // a p99 of 50 samples is its maximum

  const pb::Quantile p50 = pb::nearest_rank(iota_samples(10), 50.0);
  EXPECT_EQ(p50.value, 5.0);
  EXPECT_EQ(p50.beyond, 5U);

  EXPECT_EQ(pb::nearest_rank({}, 50.0).samples, 0U);
  EXPECT_EQ(pb::median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Percentile, WindowedMedianIgnoresOneStalledWindow) {
  std::vector<double> v(5000, 1.0);
  for (std::size_t i = 1000; i < 1100; ++i) v[i] = 50.0;  // one stall
  EXPECT_EQ(pb::nearest_rank(v, 99.0).value, 50.0);
  EXPECT_EQ(pb::windowed_percentile(v, 99.0, 1000), 1.0);
  // Fewer samples than one window: a plain percentile.
  EXPECT_EQ(pb::windowed_percentile(iota_samples(500), 99.0, 1000), 495.0);
  EXPECT_EQ(pb::windowed_percentile({}, 50.0, 1000), 0.0);
}

TEST(Spans, SelfTimeSubtractsUnionOfNestedChildren) {
  std::vector<pb::Span> spans = {
      {0, -1, 1, "round", 0.0, 100.0},
      {1, 0, 1, "tokenise", 10.0, 40.0},
      {2, 1, 1, "codec", 10.0, 25.0},   // grandchild: not the root's child
      {3, 0, 1, "nn", 30.0, 70.0},      // overlaps tokenise by 10
      {4, 0, 1, "cache", 90.0, 130.0},  // runs past the root: clipped to 10
  };
  // Root: 100 minus union [10,70] u [90,100] = 100 - 70.
  EXPECT_DOUBLE_EQ(pb::self_time_us(spans, 0), 30.0);
  EXPECT_DOUBLE_EQ(pb::self_time_us(spans, 1), 15.0);  // 30 - codec 15
  EXPECT_DOUBLE_EQ(pb::self_time_us(spans, 2), 15.0);  // leaf
  EXPECT_DOUBLE_EQ(pb::self_time_us(spans, 4), 40.0);
}

TEST(Spans, TracerAttributesEveryMicrosecondOnce) {
  pb::Tracer tr;
  const int root = tr.begin("round", 7);
  const int tok = tr.begin("tokenise", 7);
  tr.end(tok);
  tr.add("codec", 7, tok, tr.spans()[static_cast<std::size_t>(tok)].t0_us, 0.0);
  const int nn = tr.begin("nn", 7);
  tr.end(nn);
  tr.end(root);
  EXPECT_EQ(tr.spans()[static_cast<std::size_t>(tok)].parent, root);
  EXPECT_EQ(tr.roots(), 1U);
  double sum = 0.0;
  for (const auto& [layer, us] : tr.self_time_us()) sum += us;
  EXPECT_NEAR(sum, tr.root_time_us(), 1e-6);
  EXPECT_NE(tr.chrome_json().find("\"name\":\"codec\""), std::string::npos);
  EXPECT_THROW(tr.end(root), std::logic_error);
}

TEST(Schedule, DueTimesAreFixedAndCountCoversMinimum) {
  const pb::Schedule s{10.0, 200.0, 5};
  EXPECT_DOUBLE_EQ(s.due_s(0), 10.0);
  EXPECT_DOUBLE_EQ(s.due_s(200), 11.0);
  EXPECT_EQ(pb::Schedule::count_for(200.0, 6.0, 1000), 1200U);
  EXPECT_EQ(pb::Schedule::count_for(200.0, 2.0, 1000), 1000U);
}

TEST(Schedule, LatenessBeyondTheBoundInvalidatesThePhase) {
  std::vector<double> late(1000, 0.0001);
  EXPECT_TRUE(pb::judge_lateness(late, 0.02).valid);
  for (std::size_t i = 0; i < 11; ++i) late[i] = 0.5;  // a stalled generator
  const pb::Lateness l = pb::judge_lateness(late, 0.02);
  EXPECT_FALSE(l.valid);
  EXPECT_DOUBLE_EQ(l.max_s, 0.5);
  // Ten stragglers sit beyond the p99 rank and leave it valid.
  late.assign(1000, 0.0001);
  for (std::size_t i = 0; i < 10; ++i) late[i] = 0.5;
  EXPECT_TRUE(pb::judge_lateness(late, 0.02).valid);
}

TEST(Workloads, SameSeedSameFramesAndBpp) {
  for (const pb::Workload w :
       {pb::Workload::kIndustrial, pb::Workload::kWildlife}) {
    pb::Codecs codecs;
    const pb::WorkloadInputs a = pb::make_inputs(w, 11, codecs);
    const pb::WorkloadInputs b = pb::make_inputs(w, 11, codecs);
    const pb::WorkloadInputs c = pb::make_inputs(w, 12, codecs);
    ASSERT_EQ(a.pool.size(), b.pool.size());
    EXPECT_EQ(a.bpp(), b.bpp());
    EXPECT_EQ(a.stream, b.stream);
    for (std::size_t i = 0; i < a.pool.size(); ++i) {
      EXPECT_TRUE(pb::same_bytes(a.pool[i].original, b.pool[i].original));
      EXPECT_EQ(a.pool[i].compressed.payload.bytes,
                b.pool[i].compressed.payload.bytes);
    }
    EXPECT_NE(a.pool[0].compressed.payload.bytes,
              c.pool[0].compressed.payload.bytes);
  }
}

TEST(Workloads, ResendsPointBackWithinTheCacheWindow) {
  pb::Codecs codecs;
  const pb::WorkloadInputs in =
      pb::make_inputs(pb::Workload::kWildlife, 3, codecs);
  std::size_t resends = 0;
  for (std::size_t i = 96; i < 3000; ++i) {
    bool seen = false;
    for (std::size_t back = 48; back <= 96 && !seen; ++back) {
      seen = in.stream[i - back] == in.stream[i];
    }
    if (i % 3 == 2) {
      EXPECT_TRUE(seen) << i;
      ++resends;
    }
  }
  EXPECT_GT(resends, 900U);
  EXPECT_THROW(pb::parse_workload("industrial"), std::invalid_argument);
}

}  // namespace
