// Fleet benchmark driver: runs one pinned fleet workload through
// RootCoordinator (one sub-fleet, one worker thread), checks the results,
// and prints the workload's metrics as one JSON object on the last line.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              --population CONFIG.csv --dir SCRATCH_DIR
//              [--fleet-seed X] [--popgen-seed X]
//
// Workloads (see README.md for why each exists):
//   cast_fleet           32 boards x 4 s, six-app cast on every board, fleet
//                        budget on, seeded fault plans, one board fails at
//                        1/3 of the horizon (crash evacuation by state
//                        transfer).
//   population_long      4 boards x 32 s, six-app cast round-robin plus the
//                        generated population of CONFIG.csv, retention off.
//   population_retained  population_long with 200 ms telemetry retention.
//
// A run repeats whole rounds while the next one is expected to end within S
// seconds of wall time. One round builds the scenario several times (setup),
// runs it once with a checkpoint cut at 3/4 of the horizon, and restores
// from that checkpoint several times.
// The first round also resumes the restored fleet to the horizon and every
// round checks the results (see Check()). Times are process CPU time scaled
// to a nominal host speed: a fixed register-only reference loop is timed
// before and after each timed phase, and each CPU time is multiplied by the
// loop's nominal time over its measured time (see HostScale()). Each metric
// is the median over the run's samples.
//
// --trace 1 adds, to every round, a replica of RootCoordinator::Run() built
// from the public per-layer calls (BoardPopulation, Kernel::RunUntil,
// SubFleetCoordinator barriers, SaveBoardShard, FleetRuntime::CloseHop),
// each timed in thread CPU time. The replica must reproduce the untraced
// run's per-board events fired and rail energy exactly; it reports the
// per-layer metrics instead of the end-to-end ones.
//
// The seed picks the inputs: fleet seed 0x5eed + N (board, fault and
// migration randomness; on cast_fleet also the failing board N mod 32) and
// population seed 0x90d5 + N. --fleet-seed / --popgen-seed override either.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/root_coordinator.h"
#include "src/fleet/subfleet_coordinator.h"
#include "src/popgen/population_config.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  int boards;
  int seconds;           // simulated horizon
  bool cast_every_board; // six-app cast on every board vs round-robin once
  bool population;
  int retention_ms;      // 0 = telemetry retention off
  bool faults;           // seeded fault plan on every board
  bool fail_one;         // one board fails at 1/3 of the horizon
  Joules fleet_budget;   // 0 = off
};

constexpr Workload kWorkloads[] = {
    {"cast_fleet", 32, 4, true, false, 0, true, true, 160.0},
    {"population_long", 4, 32, false, true, 0, false, false, 0.0},
    {"population_retained", 4, 32, false, true, 200, false, false, 0.0},
};

// Constructions timed per round for setup_s.
constexpr int kSetupsPerRound = 20;
// Restores from the round's checkpoint timed per round for restore_s.
constexpr int kRestoresPerRound = 3;
// The checkpoint is cut at this share of the horizon.
constexpr int kCheckpointNum = 3;
constexpr int kCheckpointDen = 4;
// Per-level accounting bound the tenant check holds children to.
constexpr double kTenantBound = 0.10;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  uint64_t fleet_seed = 0;
  uint64_t popgen_seed = 0;
  std::string population_path;
  std::string dir;
};

// fleet_cli's six-app Table-5 cast: sandboxed, budgeted, migratable apps per
// component class plus plain CPU co-runners.
struct CastEntry {
  const char* name;
  AppFactory factory;
  bool sandboxed;
  Joules budget;
};
constexpr CastEntry kCast[] = {
    {"calib3d", &SpawnCalib3d, true, 1.2},
    {"bodytrack", &SpawnBodytrack, false, 0.0},
    {"triangle", &SpawnTriangle, true, 0.8},
    {"scp", &SpawnScp, true, 0.6},
    {"dedup", &SpawnDedup, false, 0.0},
    {"mediascan", &SpawnMediaScan, true, 0.5},
};

void AddApp(FleetScenario* scenario, const CastEntry& c, int board,
            const std::string& name) {
  FleetAppSpec spec;
  spec.name = name;
  spec.factory = c.factory;
  spec.board = board;
  spec.options.deadline = scenario->horizon;
  spec.options.use_psbox = c.sandboxed;
  spec.energy_budget = c.budget;
  spec.migratable = c.sandboxed;
  scenario->apps.push_back(spec);
}

// Builds the workload's scenario, loading the population config from disk
// (part of what setup_s times). False with |error| on a bad config.
bool BuildScenario(const Options& opt, FleetScenario* out, std::string* error) {
  const Workload& w = *opt.workload;
  FleetScenario s;
  s.seed = opt.fleet_seed;
  s.epoch = 10 * kMillisecond;
  s.horizon = Seconds(w.seconds);
  s.fleet_budget = w.fleet_budget;
  s.boards.resize(static_cast<size_t>(w.boards));
  for (FleetBoardSpec& b : s.boards) {
    if (w.retention_ms > 0) {
      b.kernel.telemetry_retention = Millis(w.retention_ms);
    }
    if (w.faults) {
      b.board.faults.accel_hang_prob = 0.02;
      b.board.faults.wifi_tx_loss_prob = 0.05;
      b.board.faults.storage_hang_prob = 0.02;
    }
  }
  if (w.fail_one) {
    s.boards[opt.seed % static_cast<uint64_t>(w.boards)].fail_at =
        s.horizon / 3;
  }
  if (w.cast_every_board) {
    for (int b = 0; b < w.boards; ++b) {
      for (const CastEntry& c : kCast) {
        AddApp(&s, c, b, std::string(c.name) + std::to_string(b));
      }
    }
  } else {
    int board = 0;
    for (const CastEntry& c : kCast) {
      AddApp(&s, c, board, std::string(c.name) + std::to_string(board));
      board = (board + 1) % w.boards;
    }
  }
  if (w.population) {
    if (!LoadPopulationConfig(opt.population_path, &s.population, error)) {
      return false;
    }
    s.population.seed = opt.popgen_seed;
  }
  *out = std::move(s);
  return true;
}

int CheckpointEvery(const FleetScenario& s) {
  return static_cast<int>(s.horizon * kCheckpointNum / kCheckpointDen /
                          s.epoch);
}

// ---------------------------------------------------------------------------
// Clocks and statistics

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host-speed reference. The VM's vCPUs run faster or slower by up to ~40%
// over minutes as the load on the host changes (turbo frequency, a busy
// hyperthread sibling, neighbours in the shared cache and memory), and CPU
// time follows. One pass of the reference runs two fixed kernels that touch
// nothing of the simulator: dependent register-only operations (core speed)
// and a dependent random walk over an array of kRefChaseBytes (cache, TLB
// and memory latency). Their thread CPU time measures the host's speed.
constexpr int kRefAluIterations = 20'000'000;
constexpr size_t kRefChaseBytes = 16u << 20;
constexpr int kRefChaseSteps = 250'000;
// Reference-pass CPU time that defines speed 1.0: about what one pass takes
// on a quiet 2.1 GHz Xeon vCPU.
constexpr double kRefNominalNs = 85e6;

class HostReference {
 public:
  // The walk is one cycle through every slot (Sattolo's shuffle, fixed
  // seed), so it never settles into a short loop the caches could hold.
  HostReference() : next_(kRefChaseBytes / sizeof(uint32_t)) {
    for (uint32_t i = 0; i < next_.size(); ++i) {
      next_[i] = i;
    }
    uint64_t x = 0x243F6A8885A308D3ull;
    for (size_t i = next_.size() - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[i], next_[(x >> 33) % i]);
    }
  }

  // Thread CPU ns of one pass.
  double PassNs() const {
    const int64_t t0 = ThreadCpuNs();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint64_t sum = 0;
    for (int i = 0; i < kRefAluIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += x * static_cast<uint64_t>(i | 1);
    }
    uint32_t at = 0;
    for (int i = 0; i < kRefChaseSteps; ++i) {
      at = next_[at];
    }
    asm volatile("" : : "r"(sum), "r"(at));
    return static_cast<double>(ThreadCpuNs() - t0);
  }

  // Resident bytes the array adds to the process for its whole life.
  size_t bytes() const { return next_.size() * sizeof(uint32_t); }

 private:
  std::vector<uint32_t> next_;
};

// Factor that turns a CPU time measured between two reference passes into
// CPU time at nominal host speed: < 1 on a slowed host, > 1 on a fast one.
double HostScale(double ref_before_ns, double ref_after_ns) {
  return kRefNominalNs / (0.5 * (ref_before_ns + ref_after_ns));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Correctness checks, computed here from the scenario and public reads.

// Expected generated arrivals on one board over [0, until]: the integral of
// base * (1 + A sin(2 pi t / P)) * (flash multiplier inside the window).
double ExpectedArrivals(const PopulationConfig& p, TimeNs until) {
  const double a = p.diurnal_period > 0 ? p.diurnal_amplitude : 0.0;
  const double period = ToSeconds(p.diurnal_period);
  // Integral of the diurnal factor over [t0, t1] seconds.
  const auto wave = [&](double t0, double t1) {
    if (a == 0.0) {
      return t1 - t0;
    }
    const double k = 2.0 * M_PI / period;
    return (t1 - t0) + a / k * (std::cos(k * t0) - std::cos(k * t1));
  };
  const double end = ToSeconds(until);
  double lambda = p.base_rate_hz * wave(0.0, end);
  if (p.flash_duration > 0) {
    const double f0 = std::min(end, ToSeconds(p.flash_start));
    const double f1 = std::min(end, ToSeconds(p.flash_start + p.flash_duration));
    lambda += p.base_rate_hz * (p.flash_multiplier - 1.0) * wave(f0, f1);
  }
  return lambda;
}

// Every check of one finished run; appends a line per violation.
void Check(const FleetScenario& s, const FleetStats& stats,
           RootCoordinator& fleet, std::vector<std::string>* failures) {
  const auto fail = [failures](const std::string& what) {
    failures->push_back(what);
  };
  const size_t boards = s.boards.size();
  if (stats.boards.size() != boards) {
    fail("board count mismatch");
    return;
  }

  // Every live board reaches the horizon; a failed one stops at fail_at.
  for (size_t b = 0; b < boards; ++b) {
    const FleetBoardStats& bs = stats.boards[b];
    const TimeNs want = s.boards[b].fail_at > 0 ? s.boards[b].fail_at : s.horizon;
    if (bs.failed != (s.boards[b].fail_at > 0) || bs.ran_until != want) {
      fail("board " + std::to_string(b) + " stopped at " +
           std::to_string(bs.ran_until) + " ns, expected " +
           std::to_string(want));
    }
  }

  // Budget conservation per hop: carried == max(0, before - consumed).
  std::map<std::string, Joules> budget;
  for (const FleetAppSpec& app : s.apps) {
    budget[app.name] = app.energy_budget;
  }
  std::vector<bool> evac_target(boards, false);
  for (const MigrationRecord& m : stats.migrations) {
    auto it = budget.find(m.app);
    if (it == budget.end()) {
      fail("migration of unknown app " + m.app);
      continue;
    }
    const Joules want = std::max(0.0, it->second - m.consumed_source);
    if (m.budget_carried != want) {
      fail("hop of " + m.app + " carried " + std::to_string(m.budget_carried) +
           " J, expected " + std::to_string(want));
    }
    it->second = m.budget_carried;
    if (m.crash) {
      evac_target[static_cast<size_t>(m.to)] = true;
    }
  }

  uint64_t arrivals = 0;
  for (size_t b = 0; b < boards; ++b) {
    PsboxManager& mgr = fleet.manager(static_cast<int>(b));
    const size_t n = mgr.box_count();
    std::vector<Joules> energy(n);
    std::vector<Joules> child_sum(n, 0.0);
    std::vector<bool> has_child(n, false);
    Joules top_level = 0.0;
    for (size_t i = 0; i < n; ++i) {
      energy[i] = mgr.ReadEnergy(static_cast<int>(i));
    }
    for (size_t i = 0; i < n; ++i) {
      const PsboxId parent = mgr.sandbox(static_cast<int>(i)).parent();
      if (parent < 0) {
        top_level += energy[i];
      } else {
        child_sum[static_cast<size_t>(parent)] += energy[i];
        has_child[static_cast<size_t>(parent)] = true;
      }
    }
    // Tenant bound: children together bill at most 1.10x their tenant.
    for (size_t i = 0; i < n; ++i) {
      if (has_child[i] && child_sum[i] > (1.0 + kTenantBound) * energy[i]) {
        fail("board " + std::to_string(b) + " tenant box " + std::to_string(i) +
             ": children " + std::to_string(child_sum[i]) + " J > 1.10 x " +
             std::to_string(energy[i]) + " J");
      }
    }
    // Top-level billing never exceeds the metered rails on a board whose
    // boxes carry no energy from elsewhere.
    const FleetBoardStats& bs = stats.boards[b];
    if (!bs.failed && !evac_target[b] && top_level > bs.rail_energy) {
      fail("board " + std::to_string(b) + " bills " + std::to_string(top_level) +
           " J to top-level boxes > rail energy " +
           std::to_string(bs.rail_energy) + " J");
    }
    // Generated arrivals inside a +-5 sigma Poisson band.
    if (s.population.enabled()) {
      const double lambda = ExpectedArrivals(s.population, bs.ran_until);
      const double got = static_cast<double>(bs.popgen_spawned);
      if (std::fabs(got - lambda) > 5.0 * std::sqrt(lambda)) {
        fail("board " + std::to_string(b) + " generated " +
             std::to_string(bs.popgen_spawned) + " arrivals, expected " +
             std::to_string(lambda) + " +- 5 sigma");
      }
      arrivals += bs.popgen_spawned;
    }
  }
  if (s.population.enabled() && arrivals == 0) {
    fail("population enabled but nothing arrived");
  }
}

// ---------------------------------------------------------------------------
// Traced replica of RootCoordinator::Run() for one flat sub-fleet.

struct Layers {
  int64_t popgen_ns = 0;
  int64_t step_ns = 0;
  int64_t barrier_ns = 0;
  int64_t digest_ns = 0;
  int64_t trim_ns = 0;
  int64_t save_ns = 0;
  int64_t read_ns = 0;
  int64_t replica_ns = 0;  // the replayed Run() loop, reads excluded
  uint64_t reads = 0;
  uint64_t barriers = 0;
  uint64_t save_bytes = 0;
  uint64_t migrations = 0;
  uint64_t boxes_held = 0;
  uint64_t arrivals = 0;
  uint64_t events = 0;
  uint64_t cancelled = 0;
  uint64_t rescheduled = 0;
  uint64_t cascades = 0;
  uint64_t closure_heap_allocs = 0;
  uint64_t balloons[5] = {};  // cpu, gpu, dsp, wifi, storage
  uint64_t balloons_aborted = 0;
  uint64_t recoveries = 0;
  std::vector<uint64_t> board_events;
  std::vector<Joules> board_rail;
};

constexpr HwComponent kBalloonDomains[5] = {
    HwComponent::kCpu, HwComponent::kGpu, HwComponent::kDsp,
    HwComponent::kWifi, HwComponent::kStorage};
constexpr const char* kBalloonDomainNames[5] = {"cpu", "gpu", "dsp", "wifi",
                                                "storage"};

// Adds the thread CPU time of |fn| to |*acc|.
template <typename Fn>
void Span(int64_t* acc, Fn&& fn) {
  const int64_t t0 = ThreadCpuNs();
  fn();
  *acc += ThreadCpuNs() - t0;
}

// Replays Run() from public calls: the same construction order as
// RootCoordinator::Init, the same per-epoch step / checkpoint / barrier
// sequence, and the same end-of-run settle and per-board aggregation. The
// checkpoint is written to |ckpt| the way WriteCheckpoint writes it: spawn
// log and every shard serialised, then sealed (header + CRC) and written
// through a temp file and rename. Root barrier steps that need more than one
// sub-fleet (parked hand-offs, rebalancing) cannot occur with one sub-fleet
// and live boards, so their absence is checked instead.
bool RunReplica(const FleetScenario& scenario, const std::string& ckpt,
                Layers* out, std::string* error) {
  FleetRuntime rt(scenario);
  const int boards = static_cast<int>(rt.shards().size());
  SubFleetCoordinator sf(&rt, 0, 0, boards, 1);
  const Joules total_budget = scenario.fleet_budget;
  if (total_budget > 0.0) {
    sf.set_allocation(total_budget * boards / boards);
  }
  for (auto& shard : rt.shards()) {
    if (shard->population != nullptr) {
      shard->population->CreateTenants(/*restoring=*/false);
    }
  }
  auto& apps = rt.apps();
  for (size_t i = 0; i < apps.size(); ++i) {
    sf.AdoptApp(static_cast<int>(i));
    rt.SpawnOn(apps[i], apps[i].spec.board, &sf.spawn_log());
  }

  Layers& L = *out;
  const int every = CheckpointEvery(scenario);
  const int64_t loop_start = ThreadCpuNs();
  TimeNs t = 0;
  int epochs = 0;
  while (t < scenario.horizon) {
    const TimeNs next = std::min<TimeNs>(t + scenario.epoch, scenario.horizon);
    for (auto& sp : rt.shards()) {
      FleetShard* s = sp.get();
      if (s->failed) {
        continue;
      }
      const TimeNs target = s->fail_at > 0 ? std::min(next, s->fail_at) : next;
      if (target <= s->now) {
        continue;
      }
      Span(&L.popgen_ns, [&] {
        if (s->population != nullptr) {
          s->population->ScheduleWindow(target);
        }
      });
      Span(&L.step_ns, [&] { s->kernel->RunUntil(target); });
      s->now = target;
    }
    ++epochs;
    if (next % kSecond == 0) {
      // Virtual-meter sample: every box of every live board, once per
      // simulated second (the whole sweep is timed, reads are counted).
      for (auto& sp : rt.shards()) {
        if (sp->failed) {
          continue;
        }
        PsboxManager& mgr = *sp->manager;
        const int n = static_cast<int>(mgr.box_count());
        Span(&L.read_ns, [&] {
          for (int box = 0; box < n; ++box) {
            mgr.ReadEnergy(box);
          }
        });
        L.reads += static_cast<uint64_t>(n);
      }
    }
    if (epochs == every && next < scenario.horizon) {
      bool saved = true;
      Span(&L.save_ns, [&] {
        SnapshotWriter w;
        w.Section("fleet");
        w.U64(sf.spawn_log().size());
        for (const SpawnRecord& rec : sf.spawn_log()) {
          w.I64(rec.app_index);
          w.I64(rec.board);
          w.Str(rec.label);
          w.U64(rec.iterations);
          w.I64(rec.when);
        }
        for (auto& sp : rt.shards()) {
          w.Bool(sp->failed);
          w.I64(sp->now);
          saved = saved && SaveBoardShard(*sp->board, *sp->kernel,
                                          *sp->manager, &w, error);
        }
        saved = saved && w.WriteFile(ckpt, error);
      });
      if (!saved) {
        return false;
      }
      std::error_code ec;
      L.save_bytes = std::filesystem::file_size(ckpt, ec);
      std::filesystem::remove(ckpt, ec);
    }
    Span(&L.barrier_ns, [&] { sf.ProcessBarrier(next); });
    Span(&L.trim_ns, [&] { sf.TrimShards(); });
    ++L.barriers;
    SubFleetDigest digest;
    Span(&L.digest_ns, [&] { digest = sf.BuildDigest(); });
    for (const FleetAppRuntime& app : apps) {
      if (app.parked || app.evac_pending) {
        *error = "app " + app.spec.name +
                 " needs a root hand-off the replica does not model";
        return false;
      }
    }
    if (total_budget > 0.0) {
      sf.set_allocation(digest.alive_boards > 0
                            ? total_budget * digest.alive_boards /
                                  digest.alive_boards
                            : 0.0);
    }
    t = next;
  }
  for (FleetAppRuntime& app : apps) {
    if (!app.finished && !app.lost && !app.parked && !app.evac_pending &&
        app.board >= 0) {
      rt.CloseHop(app);
    }
  }

  // Per-board results, as Aggregate() gathers them; part of the replica.
  L.migrations = sf.migrations().size();
  for (auto& sp : rt.shards()) {
    Kernel& k = *sp->kernel;
    const Simulator& sim = k.sim();
    L.board_events.push_back(sim.total_fired());
    L.board_rail.push_back(rt.BoardEnergy(sp->index));
    L.events += sim.total_fired();
    L.cancelled += sim.stats().cancelled;
    L.rescheduled += sim.stats().rescheduled;
    L.cascades += sim.stats().cascades;
    L.closure_heap_allocs += sim.stats().closure_heap_allocs;
    for (size_t d = 0; d < 5; ++d) {
      L.balloons[d] += k.domain(kBalloonDomains[d]).domain_stats().balloons;
    }
    for (size_t c = 0; c < kNumHwComponents; ++c) {
      const DomainStats& ds =
          k.domain(static_cast<HwComponent>(c)).domain_stats();
      L.balloons_aborted += ds.aborted;
      L.recoveries += ds.recoveries;
    }
    L.boxes_held += sp->manager->box_count();
    if (sp->population != nullptr) {
      L.arrivals += sp->population->spawned();
    }
  }
  L.replica_ns += ThreadCpuNs() - loop_start - L.read_ns;
  return true;
}

// ---------------------------------------------------------------------------
// One round

struct Samples {
  std::vector<double> setup_s;
  std::vector<double> board_s_per_cpu_s;
  std::vector<double> cpu_ns_per_event;
  std::vector<double> restore_s;
  std::vector<double> checkpoint_mb;
  double peak_rss_mb = 0.0;
  std::vector<double> run_cpu_s;   // reference output only (unscaled)
  std::vector<double> host_scale;  // reference output only, one per Run()
  std::vector<double> run_wall_s;  // reference output only
  std::map<std::string, std::vector<double>> layer_ns;  // traced times
  Layers last_layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Returns false when the round could not be carried out at all (bad config).
bool RunRound(const Options& opt, const HostReference& ref, int round,
              Samples* out) {
  const std::string ckpt =
      opt.dir + "/ckpt-" + std::to_string(getpid()) + ".snap";
  std::string error;

  // Setup: configuration load + coordinator construction, timed repeatedly.
  // The setups and the run share the host-speed scale of the reference
  // passes before and after them; the restores that of the passes around
  // the restores.
  const double ref_start_ns = ref.PassNs();
  std::vector<double> setup_ns;
  FleetScenario scenario;
  std::unique_ptr<RootCoordinator> fleet;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    fleet.reset();
    ++out->attempted;
    const int64_t t0 = ProcessCpuNs();
    if (!BuildScenario(opt, &scenario, &error)) {
      std::fprintf(stderr, "fleetbench: bad population config: %s\n",
                   error.c_str());
      return false;
    }
    fleet = std::make_unique<RootCoordinator>(scenario, 1);
    setup_ns.push_back(static_cast<double>(ProcessCpuNs() - t0));
  }

  // The measured run, with its checkpoint cut at 3/4 of the horizon.
  ++out->attempted;
  fleet->set_checkpoint(ckpt, CheckpointEvery(scenario));
  const auto w0 = std::chrono::steady_clock::now();
  const int64_t r0 = ProcessCpuNs();
  const FleetStats stats = fleet->Run();
  const double run_cpu_ns = static_cast<double>(ProcessCpuNs() - r0);
  out->run_wall_s.push_back(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
          .count());
  const double ref_run_ns = ref.PassNs();
  const double run_scale = HostScale(ref_start_ns, ref_run_ns);
  out->run_cpu_s.push_back(run_cpu_ns * 1e-9);
  out->host_scale.push_back(run_scale);
  for (double ns : setup_ns) {
    out->setup_s.push_back(ns * run_scale * 1e-9);
  }
  double board_s = 0.0;
  uint64_t events = 0;
  for (const FleetBoardStats& b : stats.boards) {
    board_s += ToSeconds(b.ran_until);
    events += b.events_fired;
  }
  out->board_s_per_cpu_s.push_back(board_s / (run_cpu_ns * run_scale * 1e-9));
  out->cpu_ns_per_event.push_back(run_cpu_ns * run_scale /
                                  static_cast<double>(events));
  const uint64_t fingerprint = stats.Fingerprint();
  Check(scenario, stats, *fleet, &out->failures);
  fleet.reset();

  std::error_code ec;
  const auto bytes = std::filesystem::file_size(ckpt, ec);
  if (ec) {
    out->failures.push_back("no checkpoint written: " + ec.message());
    ++out->failed;
    return true;
  }
  out->checkpoint_mb.push_back(static_cast<double>(bytes) / (1024.0 * 1024.0));

  // Restore from the cut, several times; the last restored fleet is kept.
  std::unique_ptr<RootCoordinator> restored;
  std::vector<double> restore_ns;
  for (int i = 0; i < kRestoresPerRound; ++i) {
    restored.reset();
    ++out->attempted;
    const int64_t s0 = ProcessCpuNs();
    restored = RootCoordinator::RestoreFromCheckpoint(scenario, 1, ckpt, &error);
    restore_ns.push_back(static_cast<double>(ProcessCpuNs() - s0));
    if (restored == nullptr) {
      out->failures.push_back("restore failed: " + error);
      ++out->failed;
      std::filesystem::remove(ckpt, ec);
      return true;
    }
  }
  const double restore_scale = HostScale(ref_run_ns, ref.PassNs());
  for (double ns : restore_ns) {
    out->restore_s.push_back(ns * restore_scale * 1e-9);
  }

  // Warm restart, once per run: resuming must reproduce the fingerprint.
  if (round == 0) {
    ++out->attempted;
    const FleetStats resumed = restored->Run();
    if (resumed.Fingerprint() != fingerprint) {
      out->failures.push_back("warm restart fingerprint " +
                              Hex(resumed.Fingerprint()) + " != " +
                              Hex(fingerprint));
    }
    for (size_t b = 0; b < stats.boards.size(); ++b) {
      if (resumed.boards[b].events_fired != stats.boards[b].events_fired) {
        out->failures.push_back("warm restart board " + std::to_string(b) +
                                " fired a different event count");
      }
    }
    uint64_t arrivals = 0;
    for (const FleetBoardStats& b : stats.boards) {
      arrivals += b.popgen_spawned;
    }
    std::printf(
        "%s seed %" PRIu64 ": fleet seed 0x%" PRIx64 ", popgen seed 0x%" PRIx64
        ", fingerprint %s, %" PRIu64 " events, %" PRIu64
        " arrivals, %zu migrations, checkpoint %.2f MB\n",
        opt.workload->name, opt.seed, opt.fleet_seed, opt.popgen_seed,
        Hex(fingerprint).c_str(), events, arrivals, stats.migrations.size(),
        out->checkpoint_mb.back());
    std::printf("events per board:");
    for (const FleetBoardStats& b : stats.boards) {
      std::printf(" %" PRIu64, b.events_fired);
    }
    std::printf("\n");
  }
  restored.reset();
  std::filesystem::remove(ckpt, ec);
  if (round == 0) {
    // Memory freed by a round stays mapped in the allocator's arenas, so a
    // later reading would grow with the number of rounds: the peak is taken
    // once, through the first round's setups, run, restores and resume.
    // The reference's array is resident from before the first round on, so
    // it adds exactly its size to the peak; that share is not the program's.
    out->peak_rss_mb =
        PeakRssMb() - static_cast<double>(ref.bytes()) / (1024.0 * 1024.0);
  }

  if (!opt.trace) {
    return true;
  }

  // Traced replica: must match the untraced run board by board.
  ++out->attempted;
  Layers L;
  if (!RunReplica(scenario, ckpt, &L, &error)) {
    out->failures.push_back("replica failed: " + error);
    ++out->failed;
    return true;
  }
  for (size_t b = 0; b < stats.boards.size(); ++b) {
    if (L.board_events[b] != stats.boards[b].events_fired ||
        L.board_rail[b] != stats.boards[b].rail_energy) {
      out->failures.push_back(
          "replica board " + std::to_string(b) + ": " +
          std::to_string(L.board_events[b]) + " events / " +
          std::to_string(L.board_rail[b]) + " J vs untraced " +
          std::to_string(stats.boards[b].events_fired) + " / " +
          std::to_string(stats.boards[b].rail_energy));
    }
  }
  auto& ns = out->layer_ns;
  ns["popgen.window_ns"].push_back(static_cast<double>(L.popgen_ns));
  ns["board.step_ns"].push_back(static_cast<double>(L.step_ns));
  ns["board.step_ns_per_event"].push_back(static_cast<double>(L.step_ns) /
                                          static_cast<double>(L.events));
  ns["psbox.read_ns"].push_back(
      L.reads > 0 ? static_cast<double>(L.read_ns) / static_cast<double>(L.reads)
                  : 0.0);
  ns["fleet.barrier_ns"].push_back(static_cast<double>(L.barrier_ns));
  ns["fleet.digest_ns"].push_back(static_cast<double>(L.digest_ns));
  ns["fleet.trim_ns"].push_back(static_cast<double>(L.trim_ns));
  ns["fleet.dispatch_ns"].push_back(run_cpu_ns -
                                    static_cast<double>(L.replica_ns));
  ns["snapshot.save_ns"].push_back(static_cast<double>(L.save_ns));
  ns["trace.replica_ns"].push_back(static_cast<double>(L.replica_ns));
  ns["trace.untraced_run_ns"].push_back(run_cpu_ns);
  out->last_layers = std::move(L);
  return true;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::vector<Metric> LayerMetrics(const Samples& s) {
  const Layers& L = s.last_layers;
  const auto med = [&s](const char* name) {
    return Median(s.layer_ns.at(name));
  };
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"popgen.window_ns", med("popgen.window_ns"), "ns"},
      {"popgen.arrivals", count(L.arrivals), "count"},
      {"board.step_ns", med("board.step_ns"), "ns"},
      {"board.step_ns_per_event", med("board.step_ns_per_event"), "ns"},
      {"sim.events", count(L.events), "count"},
      {"sim.cancelled", count(L.cancelled), "count"},
      {"sim.rescheduled", count(L.rescheduled), "count"},
      {"sim.cascades", count(L.cascades), "count"},
      {"sim.closure_heap_allocs", count(L.closure_heap_allocs), "count"},
  };
  for (size_t d = 0; d < 5; ++d) {
    m.push_back({std::string("kernel.") + kBalloonDomainNames[d] + ".balloons",
                 count(L.balloons[d]), "count"});
  }
  const std::vector<Metric> rest = {
      {"kernel.balloons_aborted", count(L.balloons_aborted), "count"},
      {"kernel.recoveries", count(L.recoveries), "count"},
      {"psbox.read_ns", med("psbox.read_ns"), "ns"},
      {"psbox.reads", count(L.reads), "count"},
      {"psbox.boxes_held", count(L.boxes_held), "count"},
      {"fleet.barrier_ns", med("fleet.barrier_ns"), "ns"},
      {"fleet.barriers", count(L.barriers), "count"},
      {"fleet.digest_ns", med("fleet.digest_ns"), "ns"},
      {"fleet.migrations", count(L.migrations), "count"},
      {"fleet.trim_ns", med("fleet.trim_ns"), "ns"},
      {"fleet.dispatch_ns", med("fleet.dispatch_ns"), "ns"},
      {"snapshot.save_ns", med("snapshot.save_ns"), "ns"},
      {"snapshot.bytes", count(L.save_bytes), "bytes"},
      {"trace.replica_ns", med("trace.replica_ns"), "ns"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void PrintLayerTable(const Samples& s, const std::vector<Metric>& metrics) {
  std::printf("per-layer metrics (%zu traced round(s), times are medians):\n",
              s.layer_ns.at("trace.replica_ns").size());
  for (const Metric& m : metrics) {
    std::printf("  %-26s %18.1f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const double untraced = Median(s.layer_ns.at("trace.untraced_run_ns"));
  const double traced = Median(s.layer_ns.at("trace.replica_ns"));
  std::printf(
      "traced replica %.1f ms CPU vs untraced Run() %.1f ms CPU "
      "(traced/untraced %.3f)\n",
      traced * 1e-6, untraced * 1e-6, traced / untraced);
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --population CONFIG.csv --dir DIR "
               "[--fleet-seed X] [--popgen-seed X]\n");
  return 2;
}

}  // namespace
}  // namespace psbox

int main(int argc, char** argv) {
  using namespace psbox;
  Options opt;
  bool fleet_seed_set = false;
  bool popgen_seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* val = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(val)) {
          opt.workload = &w;
        }
      }
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "fleetbench: unknown workload %s\n", val);
        return 2;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 0);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(val);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (arg == "--population") {
      opt.population_path = val;
    } else if (arg == "--dir") {
      opt.dir = val;
    } else if (arg == "--fleet-seed") {
      opt.fleet_seed = std::strtoull(val, nullptr, 0);
      fleet_seed_set = true;
    } else if (arg == "--popgen-seed") {
      opt.popgen_seed = std::strtoull(val, nullptr, 0);
      popgen_seed_set = true;
    } else {
      return Usage();
    }
  }
  if (opt.workload == nullptr || opt.seconds < 1 || opt.dir.empty() ||
      (opt.workload->population && opt.population_path.empty())) {
    return Usage();
  }
  if (!fleet_seed_set) {
    opt.fleet_seed = 0x5eed + opt.seed;
  }
  if (!popgen_seed_set) {
    opt.popgen_seed = 0x90d5 + opt.seed;
  }

  const HostReference ref;
  Samples samples;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(opt.seconds);
  // A round is started only if one as long as the last would still end
  // before the deadline, so a run overruns --seconds by at most its first
  // round.
  int round = 0;
  std::chrono::steady_clock::duration last_round{};
  do {
    const auto start = std::chrono::steady_clock::now();
    if (!RunRound(opt, ref, round, &samples)) {
      return 1;
    }
    ++round;
    last_round = std::chrono::steady_clock::now() - start;
  } while (std::chrono::steady_clock::now() + last_round < deadline);

  for (const std::string& f : samples.failures) {
    std::fprintf(stderr, "fleetbench: CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = samples.failures.empty();
  const auto [cpu_min, cpu_max] = std::minmax_element(
      samples.run_cpu_s.begin(), samples.run_cpu_s.end());
  const auto [wall_min, wall_max] = std::minmax_element(
      samples.run_wall_s.begin(), samples.run_wall_s.end());
  const auto [scale_min, scale_max] = std::minmax_element(
      samples.host_scale.begin(), samples.host_scale.end());
  std::printf(
      "%s: %d round(s) in %d s; Run() CPU median %.3f s (%.3f-%.3f), "
      "wall median %.3f s (%.3f-%.3f), unscaled; host-speed scale median "
      "%.3f (%.3f-%.3f)\n",
      opt.workload->name, round, opt.seconds, Median(samples.run_cpu_s),
      *cpu_min, *cpu_max, Median(samples.run_wall_s), *wall_min, *wall_max,
      Median(samples.host_scale), *scale_min, *scale_max);

  if (opt.trace) {
    if (samples.layer_ns.empty()) {
      std::fprintf(stderr, "fleetbench: no traced round completed\n");
      return 1;
    }
    const std::vector<Metric> metrics = LayerMetrics(samples);
    PrintLayerTable(samples, metrics);
    PrintJson(correct, samples.attempted, samples.failed, metrics);
  } else {
    PrintJson(correct, samples.attempted, samples.failed,
              {{"board_s_per_cpu_s", Median(samples.board_s_per_cpu_s),
                "board-s/s"},
               {"cpu_ns_per_event", Median(samples.cpu_ns_per_event), "ns"},
               {"setup_s", Median(samples.setup_s), "s"},
               {"restore_s", Median(samples.restore_s), "s"},
               {"checkpoint_mb", Median(samples.checkpoint_mb), "MB"},
               {"peak_rss_mb", samples.peak_rss_mb, "MB"}});
  }
  return 0;
}
