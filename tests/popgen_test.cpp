// Tests for the population generator: seeded determinism, rate shaping,
// config parsing, and fleet-level thread-count invariance.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/root_coordinator.h"
#include "src/popgen/app_catalog.h"
#include "src/popgen/board_population.h"
#include "src/popgen/population_generator.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

PopulationConfig RichConfig() {
  PopulationConfig cfg;
  cfg.seed = 0x5eed;
  cfg.base_rate_hz = 80.0;
  cfg.diurnal_amplitude = 0.6;
  cfg.diurnal_period = 300 * kMillisecond;
  cfg.flash_start = Millis(400);
  cfg.flash_duration = Millis(150);
  cfg.flash_multiplier = 3.0;
  cfg.adversarial_fraction = 0.1;
  cfg.adversarial_period = Millis(500);
  cfg.adversarial_duty = 0.4;
  cfg.tenants_per_board = 2;
  return cfg;
}

TEST(PopulationGeneratorTest, SameSeedSameArrivalSequence) {
  const PopulationConfig cfg = RichConfig();
  PopulationGenerator a(cfg, 42);
  PopulationGenerator b(cfg, 42);
  for (int i = 0; i < 500; ++i) {
    const GeneratedArrival x = a.Next();
    const GeneratedArrival y = b.Next();
    EXPECT_EQ(x.when, y.when);
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_EQ(x.catalog_index, y.catalog_index);
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.adversarial, y.adversarial);
    EXPECT_EQ(x.tenant, y.tenant);
  }
}

TEST(PopulationGeneratorTest, DifferentSeedsDiverge) {
  const PopulationConfig cfg = RichConfig();
  PopulationGenerator a(cfg, 1);
  PopulationGenerator b(cfg, 2);
  bool diverged = false;
  for (int i = 0; i < 50 && !diverged; ++i) {
    diverged = a.Next().when != b.Next().when;
  }
  EXPECT_TRUE(diverged);
}

TEST(PopulationGeneratorTest, ArrivalsStrictlyIncreaseAndStayBounded) {
  const PopulationConfig cfg = RichConfig();
  PopulationGenerator gen(cfg, 7);
  TimeNs prev = -1;
  for (int i = 0; i < 1000; ++i) {
    const GeneratedArrival a = gen.Next();
    EXPECT_GT(a.when, prev);
    prev = a.when;
    EXPECT_GE(a.catalog_index, 0);
    EXPECT_LT(a.catalog_index, static_cast<int>(AppCatalog().size()));
    EXPECT_GE(a.iterations, cfg.min_iterations);
    EXPECT_LE(a.iterations, cfg.max_iterations);
    EXPECT_GE(a.tenant, 0);
    EXPECT_LT(a.tenant, cfg.tenants_per_board);
  }
}

TEST(PopulationGeneratorTest, FlashCrowdRaisesRate) {
  const PopulationConfig cfg = RichConfig();
  PopulationGenerator gen(cfg, 7);
  const TimeNs inside = cfg.flash_start + cfg.flash_duration / 2;
  // One diurnal period later: identical diurnal phase, but past the flash
  // window — the ratio is exactly the flash multiplier.
  const TimeNs matched = inside + cfg.diurnal_period;
  ASSERT_GE(matched, cfg.flash_start + cfg.flash_duration);
  EXPECT_NEAR(gen.RateAt(inside) / gen.RateAt(matched), cfg.flash_multiplier,
              1e-9);
}

TEST(PopulationGeneratorTest, AdversarialPhaseEmitsCamouflage) {
  PopulationConfig cfg = RichConfig();
  cfg.adversarial_fraction = 1.0;
  cfg.adversarial_period = 0;  // always in-phase
  cfg.adversarial_duty = 1.0;
  PopulationGenerator gen(cfg, 3);
  for (int i = 0; i < 20; ++i) {
    const GeneratedArrival a = gen.Next();
    EXPECT_TRUE(a.adversarial);
    EXPECT_EQ(a.catalog_index, CamouflageIndex());
  }
}

TEST(PopulationConfigTest, ParsesFullConfig) {
  PopulationConfig cfg;
  std::string error;
  ASSERT_TRUE(ParsePopulationConfig(
      "# comment\n"
      "seed,0x1234\n"
      "base_rate_hz,25\n"
      "diurnal_amplitude,0.3\n"
      "diurnal_period_ms,250\n"
      "flash_start_ms,100\n"
      "flash_duration_ms,50\n"
      "flash_multiplier,4\n"
      "tenants_per_board,3\n"
      "tenant_budget_j,0.5\n"
      "child_budget_j,0.02\n"
      "mix,calib3d,2\n"
      "mix,wget,1\n",
      &cfg, &error))
      << error;
  EXPECT_EQ(cfg.seed, 0x1234u);
  EXPECT_DOUBLE_EQ(cfg.base_rate_hz, 25.0);
  EXPECT_EQ(cfg.diurnal_period, 250 * kMillisecond);
  EXPECT_EQ(cfg.tenants_per_board, 3);
  ASSERT_EQ(cfg.mix.size(), 2u);
  EXPECT_EQ(cfg.mix[0].app, "calib3d");
  EXPECT_DOUBLE_EQ(cfg.mix[1].weight, 1.0);
}

TEST(PopulationConfigTest, RejectsUnknownKeyWithDescriptiveError) {
  PopulationConfig cfg;
  std::string error;
  EXPECT_FALSE(ParsePopulationConfig("definitely_not_a_key,1\n", &cfg, &error));
  EXPECT_NE(error.find("definitely_not_a_key"), std::string::npos);
}

TEST(PopulationConfigTest, RejectsUnknownMixApp) {
  PopulationConfig cfg;
  std::string error;
  EXPECT_FALSE(ParsePopulationConfig(
      "base_rate_hz,10\nmix,not_an_app,1\n", &cfg, &error));
  EXPECT_NE(error.find("not_an_app"), std::string::npos);
}

TEST(PopulationConfigTest, RejectsOutOfRangeValues) {
  PopulationConfig cfg;
  std::string error;
  EXPECT_FALSE(
      ParsePopulationConfig("diurnal_amplitude,1.5\n", &cfg, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParsePopulationConfig("base_rate_hz,nope\n", &cfg, &error));
  EXPECT_FALSE(error.empty());
}

FleetScenario PopulatedScenario(int boards, TimeNs horizon) {
  FleetScenario scenario;
  scenario.seed = 0xF1EE;
  scenario.horizon = horizon;
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = 2;
  scenario.root_period = 3;
  scenario.migration.enabled = false;
  scenario.boards.resize(static_cast<size_t>(boards));
  scenario.population.seed = 0x90D5;
  scenario.population.base_rate_hz = 60.0;
  scenario.population.diurnal_amplitude = 0.4;
  scenario.population.tenants_per_board = 2;
  scenario.population.tenant_budget = 0.5;
  scenario.population.child_budget = 0.05;
  return scenario;
}

TEST(PopulationFleetTest, FingerprintIdenticalAcrossThreadCounts) {
  const TimeNs horizon = Millis(300);
  uint64_t fp[3] = {0, 0, 0};
  uint64_t spawned[3] = {0, 0, 0};
  const int threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    RootCoordinator fleet(PopulatedScenario(4, horizon), threads[i]);
    const FleetStats stats = fleet.Run();
    fp[i] = stats.Fingerprint();
    for (const FleetBoardStats& b : stats.boards) {
      spawned[i] += b.popgen_spawned;
    }
  }
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_EQ(fp[0], fp[2]);
  EXPECT_GT(spawned[0], 0u);
  EXPECT_EQ(spawned[0], spawned[1]);
  EXPECT_EQ(spawned[0], spawned[2]);
}

TEST(PopulationFleetTest, BoardStreamsAreIndependent) {
  // Two boards under one config must not mirror each other's arrivals.
  RootCoordinator fleet(PopulatedScenario(2, Millis(300)), 1);
  const FleetStats stats = fleet.Run();
  ASSERT_EQ(stats.boards.size(), 2u);
  // Identical streams would give identical spawn counts *and* identical
  // per-board fingerprint inputs; spawn counts alone can collide, so compare
  // the per-board energy too.
  const bool same_counts =
      stats.boards[0].popgen_spawned == stats.boards[1].popgen_spawned;
  const bool same_energy =
      stats.boards[0].rail_energy == stats.boards[1].rail_energy;
  EXPECT_FALSE(same_counts && same_energy);
}

TEST(PopulationFleetTest, AccountingBoundHoldsUnderPopulation) {
  RootCoordinator fleet(PopulatedScenario(2, Millis(400)), 2);
  fleet.Run();
  for (int b = 0; b < 2; ++b) {
    BoardPopulation* pop = fleet.population(b);
    ASSERT_NE(pop, nullptr);
    EXPECT_EQ(pop->AccountingViolations(0.10), 0u);
  }
}

// A population long enough that each board has seen hundreds of apps come
// and go: the drivers' dispatch indexes, the accelerator governor's and the
// CPU utilisation sample's per-window visits all run with a large dead
// history behind them. The constants were captured from the code that
// scanned every app ever seen, so any drift in which app is picked next, in
// a governor step or in a utilisation double shows up here.
TEST(PopulationFleetTest, LongHorizonRunIsPinned) {
  constexpr uint64_t kFingerprint = 0xae2ef267dd71e262ull;
  constexpr uint64_t kEventsFired = 27663;
  constexpr uint32_t kCheckpointCrc = 0x709c017eu;
  const FleetScenario scenario = PopulatedScenario(2, Seconds(4));
  const std::string path = testing::TempDir() + "popgen_long_horizon.snap";
  RootCoordinator fleet(scenario, 2);
  // Root boundaries fall every 3 epochs: the one cut lands at 2.01 s.
  fleet.set_checkpoint(path, 200);
  const FleetStats stats = fleet.Run();
  uint64_t events = 0;
  uint64_t spawned = 0;
  for (const FleetBoardStats& b : stats.boards) {
    events += b.events_fired;
    spawned += b.popgen_spawned;
  }
  EXPECT_GE(spawned, 400u);
  EXPECT_EQ(stats.Fingerprint(), kFingerprint);
  EXPECT_EQ(events, kEventsFired);
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(SnapshotCrc32(bytes.data(), bytes.size()), kCheckpointCrc);

  // The restored run rebuilds every driver index from the checkpoint and
  // must land on the same fingerprint at another thread count.
  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(scenario, 1, path, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->Run().Fingerprint(), kFingerprint);
}

}  // namespace
}  // namespace psbox
