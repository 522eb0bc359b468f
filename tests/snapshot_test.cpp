// Checkpoint/restore contracts:
//
//   bit identity — a board shard serialised at a quiescent point and restored
//     into a fresh world is indistinguishable from the original: re-saving it
//     yields the same bytes, and continuing both worlds yields the same
//     bytes again. At fleet scope, a run interrupted by checkpoint + restore
//     reproduces the uninterrupted run's fingerprint at any thread count and
//     with telemetry retention on or off.
//
//   corruption rejection — truncation, bit flips, a foreign magic/version,
//     and scenario mismatches are all refused up front with a descriptive
//     error; no partial state ever reaches a live board.
//
//   format compatibility — a golden snapshot committed to the repo must stay
//     restorable; breaking it means the format changed without a version
//     bump (regen with PSBOX_REGEN_GOLDEN=1 after bumping).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/fleet/root_coordinator.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- stream primitives -----------------------------------------------------

// Bitwise CRC-32 (reflected, polynomial 0xEDB88320): the definition the
// table-driven SnapshotCrc32 must reproduce exactly.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(SnapshotCrcTest, MatchesBitwiseReference) {
  const char* check = "123456789";
  EXPECT_EQ(SnapshotCrc32(reinterpret_cast<const uint8_t*>(check), 9),
            0xCBF43926u);

  std::mt19937_64 gen(0xC3C3);
  // Every length 0..257 at every alignment mod 8: covers the 8-byte body,
  // the bytewise tail, and unaligned starts.
  std::vector<uint8_t> buf(257 + 8);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(gen());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(SnapshotCrc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  std::vector<uint8_t> big(5 * 1024 * 1024 + 3);
  for (uint8_t& b : big) {
    b = static_cast<uint8_t>(gen());
  }
  EXPECT_EQ(SnapshotCrc32(big.data(), big.size()),
            ReferenceCrc32(big.data(), big.size()));
}

// A field that runs past the payload's end poisons the reader with the
// payload length as the offset, and every later read returns zero.
TEST(SnapshotReaderTest, ShortFieldFailsAtPayloadEnd) {
  SnapshotWriter w;
  w.U32(7);
  w.U8(1);
  w.U8(2);
  SnapshotReader r;
  ASSERT_TRUE(r.Open(w.Seal()));
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "snapshot payload exhausted at offset 6");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_EQ(r.error(), "snapshot payload exhausted at offset 6");
}

// OpenFile reads what WriteFile wrote, without the sealed copy in between.
TEST(SnapshotReaderTest, FileRoundTrip) {
  SnapshotWriter w;
  w.Section("t");
  w.I64(-5);
  w.F64(0.25);
  w.Str("psbox");
  const std::string path = testing::TempDir() + "stream_round_trip.snap";
  std::string error;
  ASSERT_TRUE(w.WriteFile(path, &error)) << error;
  EXPECT_EQ(ReadFileBytes(path), w.Seal());
  SnapshotReader r;
  ASSERT_TRUE(r.OpenFile(path)) << r.error();
  EXPECT_TRUE(r.Section("t"));
  EXPECT_EQ(r.I64(), -5);
  EXPECT_EQ(r.F64(), 0.25);
  EXPECT_EQ(r.Str(), "psbox");
  EXPECT_TRUE(r.ok() && r.AtEnd());
}

// --- board-level round trip ------------------------------------------------

struct World {
  std::unique_ptr<Board> board;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<PsboxManager> manager;
};

World MakeWorld() {
  World w;
  BoardConfig config;
  config.seed = 0x70B0;
  w.board = std::make_unique<Board>(config);
  w.kernel = std::make_unique<Kernel>(w.board.get(), KernelConfig{});
  w.manager = std::make_unique<PsboxManager>(w.kernel.get());
  return w;
}

void SpawnApps(World& w) {
  AppOptions sandboxed;
  sandboxed.use_psbox = true;
  sandboxed.deadline = Millis(800);
  SpawnCalib3d(*w.kernel, "calib3d", sandboxed);
  AppOptions plain;
  plain.deadline = Millis(800);
  SpawnScp(*w.kernel, "scp", plain);
}

std::vector<uint8_t> SaveShard(World& w) {
  SnapshotWriter writer;
  std::string error;
  EXPECT_TRUE(
      SaveBoardShard(*w.board, *w.kernel, *w.manager, &writer, &error))
      << error;
  return writer.Seal();
}

TEST(BoardSnapshotTest, RoundTripIsBitIdentical) {
  World original = MakeWorld();
  SpawnApps(original);
  original.kernel->RunUntil(Millis(200));
  const std::vector<uint8_t> at_200ms = SaveShard(original);

  World restored = MakeWorld();
  SnapshotReader r;
  ASSERT_TRUE(r.Open(at_200ms)) << r.error();
  std::string error;
  ASSERT_TRUE(RestoreBoardShard(r, *restored.board, *restored.kernel,
                                *restored.manager,
                                [&restored] { SpawnApps(restored); }, &error))
      << error;

  // Saving the restored world immediately reproduces the exact bytes: every
  // field that went in came back out.
  EXPECT_EQ(SaveShard(restored), at_200ms);

  // And the restored world *behaves* identically: both worlds advanced the
  // same distance produce the same bytes again, same event count included.
  original.kernel->RunUntil(Millis(500));
  restored.kernel->RunUntil(Millis(500));
  EXPECT_EQ(original.kernel->sim().total_fired(),
            restored.kernel->sim().total_fired());
  EXPECT_EQ(SaveShard(restored), SaveShard(original));
}

// --- fleet-level warm restart ----------------------------------------------

// Three boards, mixed sandboxed/plain apps, one mid-run board failure: the
// checkpoint exercised here covers live shards, a frozen (failed) shard,
// pending timers, sandboxes, and migration history.
FleetScenario CheckpointScenario(DurationNs retention) {
  FleetScenario scenario;
  scenario.seed = 0xC4EC;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(3);
  scenario.boards[1].fail_at = Millis(400);
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
      {"triangle", &SpawnTriangle, 1, true, 0.7},
      {"bodytrack", &SpawnBodytrack, 1, false, 0.0},
      {"scp", &SpawnScp, 2, true, 0.5},
      {"mediascan", &SpawnMediaScan, 2, true, 0.4},
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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(FleetCheckpointTest, WarmRestartMatchesUninterruptedRun) {
  for (const DurationNs retention : {DurationNs{0}, Millis(100)}) {
    SCOPED_TRACE("retention=" + std::to_string(retention));
    const FleetScenario scenario = CheckpointScenario(retention);
    const uint64_t baseline = RootCoordinator(scenario, 2).Run().Fingerprint();

    // Checkpoint at epoch 73 (730 ms) — after the board-1 crash, mid-run.
    const std::string path = TempPath("fleet_warm_restart.snap");
    RootCoordinator writer(scenario, 2);
    writer.set_checkpoint(path, 73);
    EXPECT_EQ(writer.Run().Fingerprint(), baseline)
        << "checkpointing itself must not perturb the run";

    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::string error;
      auto restored =
          RootCoordinator::RestoreFromCheckpoint(scenario, threads, path, &error);
      ASSERT_NE(restored, nullptr) << error;
      EXPECT_EQ(restored->resume_time(), Millis(730));
      EXPECT_EQ(restored->Run().Fingerprint(), baseline);
    }
  }
}

// A hierarchical fleet checkpoint carries strictly more state than a flat
// one: per-sub-fleet budget allocations, per-sub-fleet spawn logs and
// migration histories, the root migration list, and any apps parked between
// sub-fleets at the cut. Warm restart through that format must still
// reproduce the uninterrupted fingerprint, at any thread count.
//
// Checkpoints cut only at root boundaries: with a 10 ms epoch and
// root_period = 4 the boundaries fall on 40 ms multiples, so a cadence of
// "every 73 epochs" fires at the first boundary at or past epoch 73 —
// epoch 76, i.e. 760 ms.
TEST(FleetCheckpointTest, HierarchicalWarmRestartMatchesUninterruptedRun) {
  FleetScenario scenario = CheckpointScenario(Millis(100));
  scenario.subfleets = 2;
  scenario.root_period = 4;
  scenario.fleet_budget = 8.0;
  const uint64_t baseline = RootCoordinator(scenario, 2).Run().Fingerprint();

  const std::string path = TempPath("fleet_hier_restart.snap");
  RootCoordinator writer(scenario, 2);
  writer.set_checkpoint(path, 73);
  EXPECT_EQ(writer.Run().Fingerprint(), baseline)
      << "checkpointing itself must not perturb the run";

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string error;
    auto restored =
        RootCoordinator::RestoreFromCheckpoint(scenario, threads, path, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->resume_time(), Millis(760));
    EXPECT_EQ(restored->Run().Fingerprint(), baseline);
  }
}

// --- corruption rejection --------------------------------------------------

class SnapshotCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    scenario_ = CheckpointScenario(0);
    path_ = TempPath("fleet_corruption.snap");
    RootCoordinator fleet(scenario_, 2);
    fleet.set_checkpoint(path_, 50);
    fleet.Run();
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), kSnapshotHeaderSize);
  }

  // Writes |bytes| to a scratch file and expects restore to fail with an
  // error mentioning |expect_in_error|.
  void ExpectRejected(const std::vector<uint8_t>& bytes,
                      const std::string& expect_in_error) {
    const std::string path = TempPath("fleet_corrupted.snap");
    WriteFileBytes(path, bytes);
    std::string error;
    auto restored =
        RootCoordinator::RestoreFromCheckpoint(scenario_, 2, path, &error);
    EXPECT_EQ(restored, nullptr);
    EXPECT_NE(error.find(expect_in_error), std::string::npos)
        << "error was: " << error;
  }

  FleetScenario scenario_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncationRejected) {
  std::vector<uint8_t> torn = bytes_;
  torn.resize(torn.size() / 2);
  ExpectRejected(torn, "truncated");
}

TEST_F(SnapshotCorruptionTest, HeaderTruncationRejected) {
  std::vector<uint8_t> stub = bytes_;
  stub.resize(kSnapshotHeaderSize / 2);
  ExpectRejected(stub, "header truncated");
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipRejected) {
  std::vector<uint8_t> flipped = bytes_;
  flipped[kSnapshotHeaderSize + flipped.size() / 3] ^= 0x10;
  ExpectRejected(flipped, "CRC");
}

TEST_F(SnapshotCorruptionTest, ForeignMagicRejected) {
  std::vector<uint8_t> foreign = bytes_;
  foreign[0] ^= 0xFF;
  ExpectRejected(foreign, "magic");
}

TEST_F(SnapshotCorruptionTest, UnknownVersionRejected) {
  std::vector<uint8_t> future = bytes_;
  future[8] += 1;  // format version field
  ExpectRejected(future, "version");
}

TEST_F(SnapshotCorruptionTest, DifferentScenarioRejected) {
  FleetScenario other = scenario_;
  other.seed ^= 1;
  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(other, 2, path_, &error);
  EXPECT_EQ(restored, nullptr);
  EXPECT_NE(error.find("different fleet scenario"), std::string::npos)
      << "error was: " << error;
}

TEST_F(SnapshotCorruptionTest, MissingFileRejected) {
  std::string error;
  auto restored = RootCoordinator::RestoreFromCheckpoint(
      scenario_, 2, TempPath("does_not_exist.snap"), &error);
  EXPECT_EQ(restored, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos)
      << "error was: " << error;
}

// The snapshot_corrupt fault scope: a checkpoint written while the writing
// board is injecting snapshot corruption is torn mid-file, and a restore
// attempt rejects it the same way as any other truncation.
TEST_F(SnapshotCorruptionTest, TornCheckpointWriteRejectedOnRestore) {
  FleetScenario scenario = CheckpointScenario(0);
  scenario.boards[0].board.faults.snapshot_corrupt_prob = 1.0;
  const std::string path = TempPath("fleet_torn.snap");
  RootCoordinator fleet(scenario, 2);
  fleet.set_checkpoint(path, 50);
  fleet.Run();  // the run itself is oblivious to the torn write

  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(scenario, 2, path, &error);
  EXPECT_EQ(restored, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("truncated"), std::string::npos)
      << "error was: " << error;
}

// --- golden snapshot -------------------------------------------------------

// Pinned scenario for the committed golden checkpoint. Never change this
// without regenerating the golden (and bumping kSnapshotFormatVersion if the
// wire format moved).
FleetScenario GoldenScenario() {
  FleetScenario scenario;
  scenario.seed = 0x601D;
  scenario.horizon = Millis(500);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(2);
  // Hierarchical so the golden pins the v2 blocks too: two one-board
  // sub-fleets, root barrier every 2 epochs, a fleet-wide budget.
  scenario.subfleets = 2;
  scenario.root_period = 2;
  scenario.fleet_budget = 2.0;

  FleetAppSpec calib;
  calib.name = "calib3d";
  calib.factory = &SpawnCalib3d;
  calib.board = 0;
  calib.options.deadline = scenario.horizon;
  calib.options.use_psbox = true;
  calib.energy_budget = 1.0;
  calib.migratable = true;
  scenario.apps.push_back(calib);

  FleetAppSpec scp;
  scp.name = "scp";
  scp.factory = &SpawnScp;
  scp.board = 1;
  scp.options.deadline = scenario.horizon;
  scp.options.use_psbox = true;
  scenario.apps.push_back(scp);

  // Generated population so the golden pins the v3 blocks too: the
  // population compat block, per-record spawn timestamps, and the nested
  // tenant sandbox state — the checkpoint cuts mid-population.
  scenario.population.seed = 0x90D5;
  scenario.population.base_rate_hz = 40.0;
  scenario.population.diurnal_amplitude = 0.5;
  scenario.population.tenants_per_board = 2;
  scenario.population.tenant_budget = 0.5;
  scenario.population.child_budget = 0.05;
  return scenario;
}

TEST(GoldenSnapshotTest, CommittedCheckpointStaysRestorable) {
  const std::string golden =
      std::string(PSBOX_SOURCE_DIR) + "/tests/golden/fleet_checkpoint_v3.snap";
  if (std::getenv("PSBOX_REGEN_GOLDEN") != nullptr) {
    RootCoordinator fleet(GoldenScenario(), 2);
    // Cadence 25 with root boundaries on 20 ms multiples: the one
    // checkpoint fires at epoch 26 (260 ms).
    fleet.set_checkpoint(golden, 25);
    fleet.Run();
    GTEST_SKIP() << "regenerated " << golden;
  }

  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(GoldenScenario(), 2, golden, &error);
  ASSERT_NE(restored, nullptr)
      << "committed golden snapshot no longer restores — the wire format "
         "changed without a version bump (or the golden scenario drifted): "
      << error;
  EXPECT_EQ(restored->resume_time(), Millis(260));
  // Resuming from the golden must still converge on the uninterrupted run:
  // the golden guards semantic compatibility, not just parseability.
  EXPECT_EQ(restored->Run().Fingerprint(),
            RootCoordinator(GoldenScenario(), 2).Run().Fingerprint());
}

// The golden scenario with telemetry retention on: the checkpoint carries
// trimmed ownership history, folded energy bases and advanced sample
// cursors, so the byte comparison pins the retention path's meter state.
FleetScenario GoldenRetainedScenario() {
  FleetScenario scenario = GoldenScenario();
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = Millis(50);
  }
  return scenario;
}

TEST(GoldenSnapshotTest, RetainedCheckpointIsByteExact) {
  const std::string golden = std::string(PSBOX_SOURCE_DIR) +
                             "/tests/golden/fleet_checkpoint_retained_v3.snap";
  if (std::getenv("PSBOX_REGEN_GOLDEN") != nullptr) {
    RootCoordinator fleet(GoldenRetainedScenario(), 2);
    fleet.set_checkpoint(golden, 25);
    fleet.Run();
    GTEST_SKIP() << "regenerated " << golden;
  }
  const std::vector<uint8_t> expected = ReadFileBytes(golden);
  ASSERT_FALSE(expected.empty()) << "missing " << golden;

  // A fresh run writes the committed bytes exactly (one cut, at 260 ms).
  const std::string fresh = TempPath("golden_retained_fresh.snap");
  {
    RootCoordinator fleet(GoldenRetainedScenario(), 2);
    fleet.set_checkpoint(fresh, 25);
    fleet.Run();
  }
  EXPECT_EQ(ReadFileBytes(fresh), expected)
      << "a retention-on checkpoint changed bytes without a format bump";

  // Restore, continue, re-save: the cut at 480 ms must match the one an
  // uninterrupted run writes there, byte for byte.
  std::string error;
  auto restored = RootCoordinator::RestoreFromCheckpoint(
      GoldenRetainedScenario(), 2, golden, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->resume_time(), Millis(260));
  const std::string resaved = TempPath("golden_retained_resaved.snap");
  restored->set_checkpoint(resaved, 24);
  const uint64_t resumed_fp = restored->Run().Fingerprint();

  const std::string uninterrupted = TempPath("golden_retained_480.snap");
  RootCoordinator fleet(GoldenRetainedScenario(), 2);
  fleet.set_checkpoint(uninterrupted, 24);
  EXPECT_EQ(fleet.Run().Fingerprint(), resumed_fp);
  const std::vector<uint8_t> resaved_bytes = ReadFileBytes(resaved);
  ASSERT_FALSE(resaved_bytes.empty());
  EXPECT_EQ(resaved_bytes, ReadFileBytes(uninterrupted));
}

}  // namespace
}  // namespace psbox
