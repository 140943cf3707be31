// Tests of the benchmark's own machinery: seeded inputs, the tail helper and
// the open-loop generator's latency accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "inputs.hpp"
#include "open_loop.hpp"
#include "stats.hpp"
#include "store/format.hpp"
#include "store/serde.hpp"

namespace perfbench {
namespace {

/// Digest of every input a run with `seed` generates: clocknet layouts,
/// the first crossover passes (shapes and refined layouts) and a batch of
/// serve request bodies.
store::Digest inputs_digest(std::uint64_t seed) {
  store::Hasher h;
  auto add = [&h](const store::Digest& d) {
    h.u64(d.hi);
    h.u64(d.lo);
  };
  for (const ClocknetCase& c : clocknet_cases(seed)) add(layout_digest(c.layout));
  for (int pass = 0; pass < 2; ++pass)
    for (const CrossoverCase& c : crossover_pass(seed, pass)) {
      h.str(c.band);
      h.u64(static_cast<std::uint64_t>(c.wires));
      h.u64(static_cast<std::uint64_t>(c.cols));
      h.u64(static_cast<std::uint64_t>(c.spacing));
      h.u64(static_cast<std::uint64_t>(c.signal));
      if (c.filaments() <= 1024) add(layout_digest(crossover_layout(c)));
    }
  for (int b = 0; b < 16; ++b) {
    const std::vector<std::uint8_t> body = encode_request(serve_request(seed, b));
    add(store::hash_bytes(body.data(), body.size()));
  }
  return h.digest();
}

TEST(Inputs, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(inputs_digest(7), inputs_digest(7));
  const auto a = encode_request(serve_request(7, 3));
  const auto b = encode_request(serve_request(7, 3));
  EXPECT_EQ(a, b);
}

TEST(Inputs, OtherSeedGivesOtherInputs) {
  EXPECT_NE(inputs_digest(7), inputs_digest(8));
  EXPECT_NE(encode_request(serve_request(7, 3)),
            encode_request(serve_request(8, 3)));
}

TEST(Inputs, SeedKeepsTheSizeClass) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<int> sizes;
    for (const CrossoverCase& c : crossover_pass(seed, 0))
      sizes.push_back(c.filaments());
    std::sort(sizes.begin(), sizes.end());
    std::vector<int> first;
    for (const CrossoverCase& c : crossover_pass(1, 0))
      first.push_back(c.filaments());
    std::sort(first.begin(), first.end());
    EXPECT_EQ(sizes, first);
  }
}

TEST(Tail, PicksHighestPercentileWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Tail t = tail(v);
  EXPECT_DOUBLE_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples_beyond, 10u);

  std::vector<double> v40;
  for (int i = 40; i >= 1; --i) v40.push_back(i);  // order must not matter
  const Tail t40 = tail(v40);
  EXPECT_DOUBLE_EQ(t40.value, 30.0);
  EXPECT_DOUBLE_EQ(t40.percentile, 75.0);

  std::vector<double> v11(11, 1.0);
  v11[10] = 5.0;
  EXPECT_DOUBLE_EQ(tail(v11).value, 1.0);
  EXPECT_EQ(tail(v11).samples_beyond, 10u);
}

TEST(Tail, TooFewSamplesReportsTheMaximumWithFewerBeyond) {
  const Tail t = tail({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_LT(t.samples_beyond, 10u);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(OpenLoop, LatencyCountsFromDueTimeSoAStallDelaysLaterRequests) {
  // 20 requests at 200/s (5 ms apart). Request 5's send stalls for 60 ms;
  // the service itself answers instantly.
  const std::vector<double> due = constant_rate_schedule(200.0, 20);
  std::vector<Clock::time_point> answered(due.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const std::vector<double> lag =
      run_open_loop(start, due, [&](std::size_t i) {
        if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(60));
        answered[i] = Clock::now();
        return true;
      });
  ASSERT_EQ(lag.size(), due.size());
  auto latency_ms = [&](std::size_t i) {
    return std::chrono::duration<double, std::milli>(answered[i] -
                                                     due_time(start, due[i]))
        .count();
  };
  // Before the stall: prompt. The stalled request and the ones queued behind
  // it inherit the stall, shrinking by the 5 ms spacing per request.
  EXPECT_LT(latency_ms(2), 20.0);
  EXPECT_GE(latency_ms(5), 60.0);
  EXPECT_GE(latency_ms(6), 50.0);
  EXPECT_GE(latency_ms(10), 30.0);
  EXPECT_GE(lag[6], 50.0);  // the generator itself reports running late
  // Had latency been timed from the actual send, request 6 would look fast.
  const std::chrono::duration<double, std::milli> since_previous =
      answered[6] - answered[5];
  EXPECT_LT(since_previous.count(), 20.0);
}

TEST(OpenLoop, StopsWhenSendRefuses) {
  const std::vector<double> due = constant_rate_schedule(1000.0, 10);
  const auto lag = run_open_loop(Clock::now(), due,
                                 [](std::size_t i) { return i < 3; });
  EXPECT_EQ(lag.size(), 4u);
}

}  // namespace
}  // namespace perfbench
