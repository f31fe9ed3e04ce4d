#include <gtest/gtest.h>

#include "net/wireless.hpp"
#include "proxy/bandwidth.hpp"
#include "sim/simulator.hpp"

namespace pp::proxy {
namespace {

using sim::Time;

BandwidthEstimator fit_linear(double a, double b) {
  std::vector<BandwidthEstimator::Sample> samples;
  for (std::uint32_t n : {100u, 400u, 700u, 1000u, 1400u})
    samples.push_back({n, a + b * n});
  return BandwidthEstimator{samples};
}

TEST(BandwidthEstimator, RecoversExactLinearModel) {
  const auto est = fit_linear(1e-3, 2e-6);
  EXPECT_NEAR(est.overhead_seconds(), 1e-3, 1e-9);
  EXPECT_NEAR(est.seconds_per_byte(), 2e-6, 1e-12);
  EXPECT_TRUE(est.fitted());
}

TEST(BandwidthEstimator, FitFromNoisySamplesIsClose) {
  std::vector<BandwidthEstimator::Sample> samples;
  sim::Rng rng{5};
  for (std::uint32_t n = 100; n <= 1400; n += 100) {
    const double y = 1e-3 + 2e-6 * n + rng.uniform(-2e-5, 2e-5);
    samples.push_back({n, y});
  }
  BandwidthEstimator est{samples};
  EXPECT_NEAR(est.overhead_seconds(), 1e-3, 1e-4);
  EXPECT_NEAR(est.seconds_per_byte(), 2e-6, 2e-7);
}

TEST(BandwidthEstimator, PacketCostIsAffine) {
  const auto est = fit_linear(1e-3, 2e-6);
  EXPECT_NEAR(est.packet_cost(0).to_seconds(), 1e-3, 1e-9);
  EXPECT_NEAR(est.packet_cost(1000).to_seconds(), 3e-3, 1e-9);
}

TEST(BandwidthEstimator, BulkCostCountsPacketsAndTail) {
  const auto est = fit_linear(1e-3, 1e-6);
  // 3000 bytes at mtu 1400: two full packets + a 200-byte tail.
  const double expect =
      2 * (1e-3 + 1.4e-3) + (1e-3 + 0.2e-3);
  EXPECT_NEAR(est.bulk_cost(3000, 1400).to_seconds(), expect, 1e-9);
}

TEST(BandwidthEstimator, BulkCostChargesAcks) {
  const auto est = fit_linear(1e-3, 1e-6);
  const double no_ack = est.bulk_cost(2800, 1400).to_seconds();
  const double with_ack = est.bulk_cost(2800, 1400, 40).to_seconds();
  EXPECT_NEAR(with_ack - no_ack, 2 * (1e-3 + 40e-6), 1e-9);
}

TEST(BandwidthEstimator, ZeroBytesCostNothing) {
  const auto est = fit_linear(1e-3, 1e-6);
  EXPECT_EQ(est.bulk_cost(0, 1400), Time::zero());
  EXPECT_EQ(est.payload_budget(Time::zero(), 1400), 0u);
}

TEST(BandwidthEstimator, BudgetInvertsBulkCost) {
  const auto est = fit_linear(1.75e-3, 2e-6);
  for (std::uint64_t bytes : {1ull, 551ull, 1400ull, 6151ull, 40000ull,
                              123456ull}) {
    const sim::Duration cost = est.bulk_cost(bytes, 1400, 40);
    // A slot sized by bulk_cost must admit at least that many bytes.
    EXPECT_GE(est.payload_budget(cost, 1400, 40), bytes)
        << "bytes=" << bytes;
  }
}

TEST(BandwidthEstimator, BudgetDoesNotWildlyOvershoot) {
  const auto est = fit_linear(1.75e-3, 2e-6);
  for (std::uint64_t bytes : {1400ull, 14000ull, 140000ull}) {
    const sim::Duration cost = est.bulk_cost(bytes, 1400, 40);
    EXPECT_LE(est.payload_budget(cost, 1400, 40), bytes + 1400);
  }
}

TEST(BandwidthEstimator, BudgetMonotoneInSlot) {
  const auto est = fit_linear(1.75e-3, 2e-6);
  std::uint64_t prev = 0;
  for (int ms = 1; ms <= 100; ms += 3) {
    const auto b = est.payload_budget(Time::ms(ms), 1400, 40);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(BandwidthEstimator, CalibrationAgainstMediumMatchesAirtime) {
  sim::Simulator sim;
  net::WirelessMedium medium{sim};
  std::vector<BandwidthEstimator::Sample> samples;
  for (std::uint32_t payload : {100u, 500u, 900u, 1400u}) {
    net::Packet p;
    p.payload = payload;
    p.dst = net::Ipv4Addr::octets(1, 2, 3, 4);
    samples.push_back({payload, medium.airtime_of(p).to_seconds()});
  }
  BandwidthEstimator est{samples};
  // The medium's airtime IS affine in payload, so the fit is exact.
  net::Packet probe;
  probe.payload = 777;
  probe.dst = net::Ipv4Addr::octets(1, 2, 3, 4);
  EXPECT_NEAR(est.packet_cost(777).to_seconds(),
              medium.airtime_of(probe).to_seconds(), 1e-9);
}

}  // namespace
}  // namespace pp::proxy
