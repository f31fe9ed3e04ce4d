#include <gtest/gtest.h>

#include "energy/wnic.hpp"

namespace pp::energy {
namespace {

using sim::Time;

TEST(WnicPowerModel, WavelanNumbersMatchPaper) {
  const auto m = WnicPowerModel::wavelan();
  EXPECT_DOUBLE_EQ(m.mw(WnicMode::Idle), 1319.0);
  EXPECT_DOUBLE_EQ(m.mw(WnicMode::Receive), 1425.0);
  EXPECT_DOUBLE_EQ(m.mw(WnicMode::Transmit), 1675.0);
  EXPECT_DOUBLE_EQ(m.mw(WnicMode::Sleep), 177.0);
  EXPECT_EQ(m.wake_transition, Time::ms(2));
}

TEST(EnergyAccountant, IdleOnlyIntegration) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant acc{ledger, Time::zero()};
  // 10 seconds idle at 1319 mW = 13190 mJ.
  EXPECT_NEAR(acc.energy_mj(Time::sec(10)), 13190.0, 1e-6);
}

TEST(EnergyAccountant, SleepSavesEnergy) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant idle{ledger, Time::zero()};
  EnergyAccountant sleepy{ledger, Time::zero()};
  sleepy.set_mode(Time::zero(), WnicMode::Sleep);
  EXPECT_LT(sleepy.energy_mj(Time::sec(10)), idle.energy_mj(Time::sec(10)));
  EXPECT_NEAR(sleepy.energy_mj(Time::sec(10)), 1770.0, 1e-6);
}

TEST(EnergyAccountant, ModeTimeline) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant acc{ledger, Time::zero()};
  acc.set_mode(Time::sec(1), WnicMode::Sleep);
  acc.set_mode(Time::sec(4), WnicMode::Idle);
  acc.set_mode(Time::sec(5), WnicMode::Receive);
  acc.set_mode(Time::sec(6), WnicMode::Idle);
  // idle 1s + sleep 3s + idle 1s + receive 1s, then idle onward.
  EXPECT_EQ(acc.time_in(WnicMode::Sleep), Time::sec(3));
  EXPECT_EQ(acc.time_in(WnicMode::Receive), Time::sec(1));
  const double expect = 1319.0 * 1 + 177.0 * 3 + 1319.0 * 1 + 1425.0 * 1 +
                        WnicPowerModel::wavelan().wake_energy_mj();
  EXPECT_NEAR(acc.energy_mj(Time::sec(6)), expect, 1e-6);
}

TEST(EnergyAccountant, WakeTransitionPenaltyCharged) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant acc{ledger, Time::zero()};
  acc.set_mode(Time::zero(), WnicMode::Sleep);
  acc.set_mode(Time::sec(1), WnicMode::Idle);
  acc.set_mode(Time::sec(2), WnicMode::Sleep);
  acc.set_mode(Time::sec(3), WnicMode::Idle);
  EXPECT_EQ(acc.wake_transitions(), 2u);
  EXPECT_NEAR(acc.wake_penalty_mj(), 2 * 1319.0 * 0.002, 1e-9);
}

TEST(EnergyAccountant, RedundantTransitionIsNoop) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant acc{ledger, Time::zero()};
  acc.set_mode(Time::sec(1), WnicMode::Idle);
  EXPECT_EQ(acc.wake_transitions(), 0u);
}

TEST(EnergyAccountant, TransientReceiveChargesDelta) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant acc{ledger, Time::zero()};
  acc.add_transient(WnicMode::Receive, Time::ms(500));
  // 1s idle + 0.5s of (1425-1319) delta.
  EXPECT_NEAR(acc.energy_mj(Time::sec(1)), 1319.0 + 0.5 * 106.0, 1e-6);
}

TEST(EnergyAccountant, HighPowerTimeExcludesSleep) {
  EnergyLedger ledger{WnicPowerModel::wavelan()};
  EnergyAccountant acc{ledger, Time::zero()};
  acc.set_mode(Time::sec(2), WnicMode::Sleep);
  acc.set_mode(Time::sec(5), WnicMode::Receive);
  acc.set_mode(Time::sec(6), WnicMode::Idle);
  acc.set_mode(Time::sec(7), WnicMode::Sleep);  // settle receive+idle
  EXPECT_EQ(acc.high_power_time(), Time::sec(4));
}

TEST(OptimalFormula, MatchesHandComputation) {
  // 1 second of receive airtime in a 119-second stream.
  OptimalInput in{119.0, 1.0, WnicPowerModel::wavelan()};
  const double opt = optimal_energy_saved_fraction(in);
  const double e_opt = 1.0 * 1425 + 118.0 * 177;
  const double e_naive = 1.0 * 1425 + 118.0 * 1319;
  EXPECT_NEAR(opt, 1.0 - e_opt / e_naive, 1e-12);
}

TEST(OptimalFormula, LowerBandwidthSavesMore) {
  // Smaller receive airtime (lower-bitrate stream) => larger saving.
  OptimalInput low{119.0, 1.0};
  OptimalInput high{119.0, 12.0};
  EXPECT_GT(optimal_energy_saved_fraction(low),
            optimal_energy_saved_fraction(high));
}

TEST(OptimalFormula, ApproachesSleepIdleRatioForTinyStreams) {
  OptimalInput in{1000.0, 0.001};
  const double limit = 1.0 - 177.0 / 1319.0;  // ~0.8658
  EXPECT_NEAR(optimal_energy_saved_fraction(in), limit, 0.01);
}

}  // namespace
}  // namespace pp::energy
