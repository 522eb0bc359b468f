// Telemetry retention and the restructured virtual-meter sampling path.
//
// The retention contract (Kernel::TrimTelemetry): trimming power telemetry
// behind a horizon folds exact energy bases first, so
//   * rail-metered psbox energy reads are BIT-IDENTICAL with retention on or
//     off (the fold replays the identical span-by-span addition sequence);
//   * direct-metered (§7 display/GPS) reads are exact up to FP association
//     (the banked split changes the order of additions);
//   * the steady-state telemetry working set is bounded by the retention
//     window, independent of simulated duration;
//   * fleet fingerprints are invariant under retention and thread count.
//
// The sampling contract (PsboxManager::Sample): one shared timestamp grid
// per drain — a multi-component box can never return mismatched series or
// exceed the caller's cap, and the grid stays phase-aligned across
// mid-period drains.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fleet/root_coordinator.h"
#include "src/popgen/board_population.h"
#include "src/snapshot/snapshot_io.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

constexpr DurationNs kRetention = 50 * kMillisecond;

KernelConfig RetentionConfig(DurationNs retention = kRetention) {
  KernelConfig cfg;
  cfg.telemetry_retention = retention;
  return cfg;
}

// --- exactness: retention on vs off ---------------------------------------

TEST(RetentionTest, EnergyAndSamplesBitIdenticalWithRetention) {
  // Two identical stacks, one with bounded retention. Stepping both through
  // the same schedule of reads and drains must produce bit-identical psbox
  // energy and bit-identical sample streams: trimming folds exact bases and
  // consumes no randomness.
  TestStack plain(BoardConfig{}, KernelConfig{});
  TestStack trimmed(BoardConfig{}, RetentionConfig());
  for (TestStack* s : {&plain, &trimmed}) {
    s->SpawnBusy("busy");
  }
  const int box_plain = plain.manager.CreateBox(0, {HwComponent::kCpu});
  const int box_trim = trimmed.manager.CreateBox(0, {HwComponent::kCpu});
  plain.manager.EnterBox(box_plain);
  trimmed.manager.EnterBox(box_trim);

  std::vector<PowerSample> buf_plain;
  std::vector<PowerSample> buf_trim;
  for (TimeNs t = Millis(20); t <= Millis(500); t += Millis(20)) {
    plain.kernel.RunUntil(t);
    trimmed.kernel.RunUntil(t);
    EXPECT_EQ(plain.manager.ReadEnergy(box_plain),
              trimmed.manager.ReadEnergy(box_trim))
        << "at " << t;
    buf_plain.clear();
    buf_trim.clear();
    const size_t n_plain = plain.manager.Sample(box_plain, &buf_plain, 1u << 20);
    const size_t n_trim = trimmed.manager.Sample(box_trim, &buf_trim, 1u << 20);
    ASSERT_EQ(n_plain, n_trim) << "at " << t;
    for (size_t i = 0; i < buf_plain.size(); ++i) {
      ASSERT_EQ(buf_plain[i].timestamp, buf_trim[i].timestamp);
      ASSERT_EQ(buf_plain[i].watts, buf_trim[i].watts);
      ASSERT_EQ(buf_plain[i].estimated, buf_trim[i].estimated);
    }
  }

  // The trimmed stack really trimmed (this is not a vacuous comparison) and
  // holds strictly less history than the unbounded one.
  EXPECT_GT(trimmed.kernel.last_trim_horizon(), 0);
  const StepTrace& rail_plain = plain.board.RailFor(HwComponent::kCpu).trace();
  const StepTrace& rail_trim = trimmed.board.RailFor(HwComponent::kCpu).trace();
  EXPECT_GT(rail_trim.trimmed_steps(), 0u);
  EXPECT_LT(rail_trim.size(), rail_plain.size());
}

TEST(RetentionTest, ManualTrimPreservesEnergyDetailExactly) {
  // Reading energy immediately before and after an explicit trim must agree
  // bit-for-bit on a rail-metered component: TrimOwned folds exactly the
  // spans the untrimmed query would have integrated, in the same order.
  TestStack s;
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(200));

  const Joules before = s.manager.ReadEnergy(box);
  const PowerSandbox::EnergyDetail detail_before = s.manager.ReadEnergyDetail(box);
  const TimeNs horizon = s.kernel.TrimTelemetry(s.kernel.Now() - Millis(50));
  EXPECT_GT(horizon, 0);
  EXPECT_LE(horizon, s.kernel.Now() - Millis(50));
  const PowerSandbox::EnergyDetail detail_after = s.manager.ReadEnergyDetail(box);
  EXPECT_EQ(before, s.manager.ReadEnergy(box));
  EXPECT_EQ(detail_before.measured, detail_after.measured);
  EXPECT_EQ(detail_before.estimated, detail_after.estimated);
  EXPECT_EQ(detail_before.measured_time, detail_after.measured_time);
  EXPECT_EQ(detail_before.estimated_time, detail_after.estimated_time);

  // Trimming again at the same horizon is a no-op for the accounting.
  s.kernel.TrimTelemetry(s.kernel.Now() - Millis(50));
  EXPECT_EQ(before, s.manager.ReadEnergy(box));
}

TEST(RetentionTest, TrimPreservesDropoutEstimationSplit) {
  // A meter-dropout window behind the horizon: its estimated share must ride
  // into the bases and the reported measured/estimated split must not move.
  BoardConfig board;
  board.faults.meter_dropout.push_back({Millis(40), Millis(60)});
  TestStack s(board);
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(200));

  const PowerSandbox::EnergyDetail before = s.manager.ReadEnergyDetail(box);
  ASSERT_GT(before.estimated_time, 0) << "dropout window never sampled";
  s.kernel.TrimTelemetry(Millis(150));  // horizon well past the dropout
  const PowerSandbox::EnergyDetail after = s.manager.ReadEnergyDetail(box);
  EXPECT_EQ(before.measured, after.measured);
  EXPECT_EQ(before.estimated_time, after.estimated_time);
  // The estimated share is recomputed from the aggregated measured average
  // at query time; folding keeps those aggregates identical.
  EXPECT_EQ(before.estimated, after.estimated);
}

TEST(RetentionTest, DirectMeteredBankIsNearExact) {
  // §7 display energy: banking the pre-horizon integral splits one integral
  // into two, so the read is exact up to FP association (not bit-identical).
  TestStack plain(BoardConfig{}, KernelConfig{});
  TestStack trimmed(BoardConfig{}, RetentionConfig());
  for (TestStack* s : {&plain, &trimmed}) {
    const AppId mine = s->kernel.CreateApp("mine");
    s->kernel.SpawnTask(mine, "t", std::make_unique<BusyBehavior>());
    s->board.display().SetSurface(mine, 0.4, 0.5);
  }
  const int box_plain = plain.manager.CreateBox(0, {HwComponent::kDisplay});
  const int box_trim = trimmed.manager.CreateBox(0, {HwComponent::kDisplay});
  plain.manager.EnterBox(box_plain);
  trimmed.manager.EnterBox(box_trim);
  plain.kernel.RunUntil(Seconds(1));
  trimmed.kernel.RunUntil(Seconds(1));

  const Joules expect = plain.manager.ReadEnergy(box_plain);
  const Joules got = trimmed.manager.ReadEnergy(box_trim);
  ASSERT_GT(expect, 0.0);
  EXPECT_NEAR(got, expect, 1e-9 * expect);
  EXPECT_GT(trimmed.manager.sandbox(box_trim)
                .direct_energy_base(HwComponent::kDisplay),
            0.0);
}

// --- bounded memory --------------------------------------------------------

TEST(RetentionTest, SteadyStateWorkingSetIndependentOfDuration) {
  // Under retention, the retained telemetry (rail steps, ownership
  // intervals, timeline edges, ledger records) covers a bounded window, so
  // running 4x longer must not grow the working set materially.
  auto run = [](TimeNs until) {
    auto s = std::make_unique<TestStack>(BoardConfig{}, RetentionConfig());
    s->SpawnBusy("busy");
    const int box = s->manager.CreateBox(0, {HwComponent::kCpu});
    s->manager.EnterBox(box);
    s->kernel.RunUntil(until);
    return s;
  };
  auto short_run = run(Seconds(1));
  auto long_run = run(Seconds(4));

  const size_t rail_short =
      short_run->board.RailFor(HwComponent::kCpu).trace().size();
  const size_t rail_long =
      long_run->board.RailFor(HwComponent::kCpu).trace().size();
  EXPECT_GT(long_run->board.RailFor(HwComponent::kCpu).trace().trimmed_steps(),
            0u);
  // Generous 2x slack over the steady state; without trimming the 4 s run
  // holds ~4x the steps of the 1 s run.
  EXPECT_LE(rail_long, 2 * rail_short);

  const IntervalSet& owned_short =
      short_run->manager.sandbox(0).owned(HwComponent::kCpu);
  const IntervalSet& owned_long =
      long_run->manager.sandbox(0).owned(HwComponent::kCpu);
  EXPECT_GT(owned_long.trimmed_intervals(), 0u);
  EXPECT_LE(owned_long.size(), 2 * owned_short.size());

  EXPECT_LE(long_run->kernel.ledger().records(HwComponent::kCpu).size(),
            2 * short_run->kernel.ledger().records(HwComponent::kCpu).size() + 8);
}

TEST(RetentionTest, UndrainedSampleBacklogDropsLikeRingBuffer) {
  // A reader that stops draining for longer than the retention window loses
  // the oldest samples (counted in samples_lost) but keeps the grid phase:
  // every sample it eventually gets still lands on the original DAQ grid.
  TestStack s(BoardConfig{}, RetentionConfig());
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(400));  // >> retention, never drained

  const PowerSandbox& sb = s.manager.sandbox(box);
  EXPECT_GT(sb.samples_lost(), 0u);
  EXPECT_GE(sb.sample_cursor(), s.kernel.last_trim_horizon());

  const DurationNs period = s.board.config().meter.sample_period;
  std::vector<PowerSample> buf;
  ASSERT_GT(s.manager.Sample(box, &buf, 1u << 20), 0u);
  for (const PowerSample& sample : buf) {
    EXPECT_EQ(sample.timestamp % period, 0) << "off the DAQ grid";
    EXPECT_GE(sample.timestamp, s.kernel.last_trim_horizon());
  }
}

// --- folded read prefix ----------------------------------------------------

void ExpectSameDetail(const PowerSandbox::EnergyDetail& a,
                      const PowerSandbox::EnergyDetail& b) {
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.estimated, b.estimated);
  EXPECT_EQ(a.measured_time, b.measured_time);
  EXPECT_EQ(a.estimated_time, b.estimated_time);
}

TEST(FoldedPrefixTest, FrequentReadsMatchOneLateRead) {
  // One stack reads its box after every 10 ms epoch (the prefix advances
  // read by read, across trims), the other only at the end (the prefix is
  // built in one go). Dropout windows split owned spans, and a mid-run
  // ResetMeter restarts the sums; every field must still agree exactly.
  BoardConfig board;
  board.faults.meter_dropout = {{Millis(40), Millis(60)},
                                {Millis(133), Millis(137)},
                                {Millis(300), Millis(420)}};
  for (const DurationNs retention : {DurationNs{0}, kRetention}) {
    SCOPED_TRACE("retention=" + std::to_string(retention));
    TestStack often(board, RetentionConfig(retention));
    TestStack once(board, RetentionConfig(retention));
    for (TestStack* s : {&often, &once}) {
      s->SpawnBusy("boxed");
      s->SpawnBusy("rival0");
      s->SpawnBusy("rival1");
      s->manager.EnterBox(s->manager.CreateBox(0, {HwComponent::kCpu}));
    }
    for (TimeNs t = Millis(10); t <= Millis(600); t += Millis(10)) {
      often.kernel.RunUntil(t);
      once.kernel.RunUntil(t);
      (void)often.manager.ReadEnergyDetail(0);
      if (t == Millis(250)) {
        often.manager.ResetEnergy(0);
        once.manager.ResetEnergy(0);
      }
    }
    ExpectSameDetail(often.manager.ReadEnergyDetail(0),
                     once.manager.ReadEnergyDetail(0));
    const IntervalSet& owned = often.manager.sandbox(0).owned(HwComponent::kCpu);
    EXPECT_GT(owned.size() + owned.trimmed_intervals(), 20u)
        << "ownership must be fragmented for the prefix to matter";
  }
}

TEST(FoldedPrefixTest, PastReadEqualsUnfoldedComputation) {
  // After the prefix has advanced to now, a direct read at an earlier
  // instant cuts into folded intervals; it must equal the computation of a
  // box with no prefix at all (a snapshot copy — the prefix is never
  // serialised), and reading at now again must not be disturbed.
  BoardConfig board;
  board.faults.meter_dropout = {{Millis(70), Millis(90)}};
  TestStack s(board);
  s.SpawnBusy("boxed");
  s.SpawnBusy("rival0");
  s.SpawnBusy("rival1");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(300));
  (void)s.manager.ReadEnergyDetail(box);

  const PowerSandbox& sb = s.manager.sandbox(box);
  SnapshotWriter w;
  sb.SaveState(w);
  SnapshotReader r;
  ASSERT_TRUE(r.Open(w.Seal()));
  PowerSandbox unfolded(sb.id(), sb.app(), sb.hardware(), 0);
  unfolded.RestoreState(r);
  ASSERT_TRUE(r.ok()) << r.error();

  const PowerRail& rail = s.board.RailFor(HwComponent::kCpu);
  const FaultInjector* faults = &s.board.fault_injector();
  for (const TimeNs t : {Millis(80), Millis(150), Millis(295), s.kernel.Now()}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    ExpectSameDetail(sb.ObservedEnergyDetail(rail, HwComponent::kCpu, t, faults),
                     unfolded.ObservedEnergyDetail(rail, HwComponent::kCpu, t,
                                                   faults));
  }
}

// --- dormant boxes leave the trim path --------------------------------------

TEST(RetentionTest, TrimVisitsOnlyBoxesHoldingHistory) {
  // A population arrives for 300 ms and then stops; once its apps have
  // exited and a trim has run, only tenants and still-live boxes may hold
  // rail history, however many boxes the board has created. (Before that, a
  // long balloon can pin the horizon and keep dead boxes' intervals.)
  TestStack s(BoardConfig{}, RetentionConfig());
  PopulationConfig cfg;
  cfg.base_rate_hz = 200.0;
  cfg.tenants_per_board = 2;
  BoardPopulation pop(cfg, 0x5EED, 0, &s.kernel, &s.manager);
  pop.CreateTenants(/*restoring=*/false);
  for (TimeNs t = Millis(10); t <= Millis(300); t += Millis(10)) {
    pop.ScheduleWindow(t);
    s.kernel.RunUntil(t);
  }
  ASSERT_GT(pop.spawned(), 20u);
  TimeNs t = Millis(300);
  while (pop.CompletedCount() < pop.spawned() && t < Seconds(20)) {
    t += Millis(100);
    s.kernel.RunUntil(t);
  }
  ASSERT_EQ(pop.CompletedCount(), pop.spawned());
  // Two retention windows past the last exit: the horizon has passed every
  // dead box's last owned interval.
  s.kernel.RunUntil(t + 2 * kRetention);
  EXPECT_GT(s.kernel.last_trim_horizon(), t);
  EXPECT_LE(s.manager.held_box_count(),
            static_cast<size_t>(pop.tenant_count()));  // no live box is left
  EXPECT_GT(s.manager.box_count(), pop.spawned());
}

// --- the single-grid sampling path -----------------------------------------

TEST(SampleMergeTest, MultiComponentBoxSharesOneGrid) {
  // Regression: the per-component merge used to assemble separate vectors
  // and silently truncate to the shortest on length mismatch. One shared
  // grid cannot mismatch: a CPU+GPU box returns exactly one series on the
  // DAQ grid with strictly increasing timestamps.
  TestStack s;
  s.SpawnBusy("busy");
  const int box =
      s.manager.CreateBox(0, {HwComponent::kCpu, HwComponent::kGpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));

  const DurationNs period = s.board.config().meter.sample_period;
  std::vector<PowerSample> buf;
  const size_t n = s.manager.Sample(box, &buf, 1u << 20);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(buf.size(), n);
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i].timestamp, static_cast<TimeNs>(i) * period);
    // Both rails contribute: the merged reading is at least the two idle
    // draws minus noise floor — just check it is a sane positive merge.
    EXPECT_GT(buf[i].watts, 0.0);
  }
}

TEST(SampleMergeTest, CapIsExactOnMidPeriodDrains) {
  // Regression: the drain loop used to emit floor(span/period)+1 samples,
  // overshooting the caller's cap by one on mid-period drains.
  TestStack s;
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  const DurationNs period = s.board.config().meter.sample_period;
  s.kernel.RunUntil(Millis(10) + period / 2);  // not on the grid

  std::vector<PowerSample> buf;
  EXPECT_EQ(s.manager.Sample(box, &buf, 50), 50u);
  EXPECT_EQ(buf.size(), 50u);
  // The rest of the backlog drains on the same grid, phase preserved.
  buf.clear();
  const size_t rest = s.manager.Sample(box, &buf, 1u << 20);
  ASSERT_GT(rest, 0u);
  EXPECT_EQ(buf.front().timestamp, static_cast<TimeNs>(50) * period);
  for (const PowerSample& sample : buf) {
    EXPECT_EQ(sample.timestamp % period, 0);
  }
  // Fully drained: the cursor sits at the first grid point past now, so an
  // immediate re-drain returns nothing.
  buf.clear();
  EXPECT_EQ(s.manager.Sample(box, &buf, 1u << 20), 0u);
}

TEST(SampleMergeTest, DropoutSamplesAreIdleAndEstimated) {
  // Samples inside a meter-dropout window report exactly the rail's idle
  // draw (no noise draw is consumed) and carry the estimated tag.
  BoardConfig board;
  board.faults.meter_dropout.push_back({Millis(5), Millis(10)});
  TestStack s(board);
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(15));

  const Watts idle = s.board.RailFor(HwComponent::kCpu).idle_power();
  std::vector<PowerSample> buf;
  ASSERT_GT(s.manager.Sample(box, &buf, 1u << 20), 0u);
  size_t dropped = 0;
  for (const PowerSample& sample : buf) {
    if (sample.timestamp >= Millis(5) && sample.timestamp < Millis(10)) {
      EXPECT_TRUE(sample.estimated);
      EXPECT_EQ(sample.watts, idle);
      ++dropped;
    } else {
      EXPECT_FALSE(sample.estimated);
    }
  }
  EXPECT_GT(dropped, 0u);
}

// --- fleet invariance -------------------------------------------------------

FleetScenario RetentionScenario(uint64_t seed, DurationNs retention) {
  // CPU/GPU/WiFi apps only: rail-metered paths are bit-exact under
  // retention, so the fingerprint must not move at all.
  FleetScenario scenario;
  scenario.seed = seed;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(3);
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = retention;
  }

  struct Mix {
    const char* name;
    AppFactory factory;
    int board;
    bool sandboxed;
    Joules budget;
  };
  const Mix mix[] = {
      {"calib3d", &SpawnCalib3d, 0, true, 1.0},
      {"triangle", &SpawnTriangle, 0, true, 0.7},
      {"bodytrack", &SpawnBodytrack, 1, false, 0.0},
      {"scp", &SpawnScp, 1, true, 0.5},
      {"mediascan", &SpawnMediaScan, 2, true, 0.4},
      {"dedup", &SpawnDedup, 2, false, 0.0},
  };
  for (const Mix& m : mix) {
    FleetAppSpec spec;
    spec.name = m.name;
    spec.factory = m.factory;
    spec.board = m.board;
    spec.options.deadline = scenario.horizon;
    spec.options.use_psbox = m.sandboxed;
    spec.energy_budget = m.budget;
    spec.migratable = m.sandboxed;
    scenario.apps.push_back(spec);
  }
  return scenario;
}

uint64_t RunFingerprint(const FleetScenario& scenario, int threads) {
  RootCoordinator fleet(scenario, threads);
  return fleet.Run().Fingerprint();
}

TEST(FleetRetentionTest, FingerprintInvariantUnderRetentionAndThreads) {
  const uint64_t unbounded =
      RunFingerprint(RetentionScenario(0xF1EE7, 0), 2);
  const FleetScenario bounded = RetentionScenario(0xF1EE7, kRetention);
  EXPECT_EQ(unbounded, RunFingerprint(bounded, 1));
  EXPECT_EQ(unbounded, RunFingerprint(bounded, 2));
  EXPECT_EQ(unbounded, RunFingerprint(bounded, 4));
}

TEST(FleetRetentionTest, BoundedShardsActuallyTrim) {
  // Guard against vacuity: the invariance test must cover real trimming.
  RootCoordinator fleet(RetentionScenario(0xF1EE7, kRetention), 2);
  (void)fleet.Run();
  bool any_trimmed = false;
  for (int i = 0; i < fleet.board_count(); ++i) {
    any_trimmed |= fleet.kernel(i).last_trim_horizon() > 0;
  }
  EXPECT_TRUE(any_trimmed);
}

}  // namespace
}  // namespace psbox
