// The uniform ResourceDomain surface: every sandboxed resource reports the
// same DomainStats with the same invariants, and the kernel registry covers
// every HwComponent — balloon-carrying policies for CPU/GPU/DSP/WiFi/storage
// and direct-metered policies for the §7 entanglement-free display and GPS.

#include <gtest/gtest.h>

#include "src/workloads/table5_apps.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

using Factory = AppHandle (*)(Kernel&, const std::string&, AppOptions);

struct DomainCase {
  HwComponent hw;
  Factory factory;  // spawns an app exercising exactly this component's domain
};

class DomainStatsParity : public ::testing::TestWithParam<DomainCase> {};

TEST_P(DomainStatsParity, InvariantsHoldOnEveryDomain) {
  const DomainCase c = GetParam();
  TestStack s;
  AppOptions sandboxed;
  sandboxed.deadline = Millis(600);
  sandboxed.use_psbox = true;
  c.factory(s.kernel, "boxed", sandboxed);
  // A same-kind competitor so balloons actually have someone to drain.
  AppOptions plain;
  plain.deadline = Millis(600);
  c.factory(s.kernel, "rival", plain);

  s.kernel.RunUntil(Millis(300));
  const DomainStats mid = s.kernel.domain(c.hw).domain_stats();
  s.kernel.RunUntil(Millis(700));
  const DomainStats end = s.kernel.domain(c.hw).domain_stats();

  // The sandboxed app got balloons, and the counters are well-formed.
  EXPECT_GT(end.balloons, 0u) << HwComponentName(c.hw);
  EXPECT_GT(end.total_balloon_time, 0) << HwComponentName(c.hw);
  EXPECT_LE(end.aborted, end.balloons) << HwComponentName(c.hw);

  // Monotonicity across snapshots.
  EXPECT_GE(end.balloons, mid.balloons) << HwComponentName(c.hw);
  EXPECT_GE(end.total_balloon_time, mid.total_balloon_time)
      << HwComponentName(c.hw);
  EXPECT_GE(end.aborted, mid.aborted) << HwComponentName(c.hw);

  // Recovery actions only ever happen under fault injection.
  EXPECT_EQ(end.recoveries, 0u) << HwComponentName(c.hw);
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, DomainStatsParity,
    ::testing::Values(DomainCase{HwComponent::kCpu, &SpawnCalib3d},
                      DomainCase{HwComponent::kGpu, &SpawnTriangle},
                      DomainCase{HwComponent::kDsp, &SpawnSgemm},
                      DomainCase{HwComponent::kWifi, &SpawnScp},
                      DomainCase{HwComponent::kStorage, &SpawnMediaScan}),
    [](const ::testing::TestParamInfo<DomainCase>& info) {
      return std::string(HwComponentName(info.param.hw));
    });

TEST(DomainRegistryTest, TypedAccessorsAliasTheRegistry) {
  TestStack s;
  EXPECT_EQ(&s.kernel.domain(HwComponent::kCpu),
            static_cast<ResourceDomain*>(&s.kernel.scheduler()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kGpu),
            static_cast<ResourceDomain*>(&s.kernel.gpu_driver()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kDsp),
            static_cast<ResourceDomain*>(&s.kernel.dsp_driver()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kWifi),
            static_cast<ResourceDomain*>(&s.kernel.net()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kStorage),
            static_cast<ResourceDomain*>(&s.kernel.storage_driver()));
}

TEST(DomainRegistryTest, RegistryCoversEveryComponent) {
  TestStack s;
  for (size_t i = 0; i < kNumHwComponents; ++i) {
    const HwComponent hw = static_cast<HwComponent>(i);
    EXPECT_NE(s.kernel.FindDomain(hw), nullptr) << HwComponentName(hw);
  }
}

TEST(DomainRegistryTest, DirectMeteredDomainsCarryNoBalloonProtocol) {
  TestStack s;
  // Display and GPS take the §7 entanglement-free path: thin pass-through
  // policies whose balloon counters stay at zero forever.
  for (HwComponent hw : {HwComponent::kDisplay, HwComponent::kGps}) {
    ResourceDomain& domain = s.kernel.domain(hw);
    EXPECT_TRUE(domain.direct_metered()) << HwComponentName(hw);
    domain.SetSandboxed(/*app=*/0, /*box=*/1);  // arming is a no-op
    s.kernel.RunUntil(Millis(50));
    const DomainStats stats = domain.domain_stats();
    EXPECT_EQ(stats.balloons, 0u) << HwComponentName(hw);
    EXPECT_EQ(stats.aborted, 0u) << HwComponentName(hw);
    EXPECT_EQ(domain.balloon_owner(), kNoApp) << HwComponentName(hw);
    EXPECT_TRUE(domain.timeline().empty()) << HwComponentName(hw);
  }
  // Balloon-metered domains reject the direct surface: asking the CPU
  // scheduler for a direct reading is a caller bug, reported by name.
  EXPECT_FALSE(s.kernel.domain(HwComponent::kCpu).direct_metered());
  EXPECT_DEATH(s.kernel.domain(HwComponent::kCpu).DirectPowerAt(0, 0),
               "balloon-metered, not direct-metered");
}

TEST(DomainRegistryTest, DriverForRejectsNonAccelerators) {
  TestStack s;
  EXPECT_DEATH(s.kernel.DriverFor(HwComponent::kWifi), "not an accelerator");
}

// The dispatch index of each command-queue domain holds live apps only:
// once short-lived apps have submitted, completed and exited, and the
// domain's recency window (50 ms for accelerators and storage, 200 ms for
// WiFi) has passed, the next dispatch leaves only the app still running.
Action SubmitOn(HwComponent hw) {
  switch (hw) {
    case HwComponent::kGpu:
      return Action::SubmitAccel(hw, 1, kMillisecond, 0.5);
    case HwComponent::kStorage:
      return Action::StorageRead(64 * 1024);
    default:
      return Action::Send(2000);
  }
}

Action WaitOn(HwComponent hw) {
  switch (hw) {
    case HwComponent::kGpu:
      return Action::WaitAccel(1);
    case HwComponent::kStorage:
      return Action::WaitStorage(1);
    default:
      return Action::WaitNet();
  }
}

size_t LiveApps(Kernel& kernel, HwComponent hw) {
  switch (hw) {
    case HwComponent::kGpu:
      return kernel.gpu_driver().live_app_count();
    case HwComponent::kStorage:
      return kernel.storage_driver().live_app_count();
    default:
      return kernel.net().live_app_count();
  }
}

TEST(DispatchIndexTest, ExitedAppsLeaveTheLiveSet) {
  for (const HwComponent hw :
       {HwComponent::kGpu, HwComponent::kStorage, HwComponent::kWifi}) {
    SCOPED_TRACE(HwComponentName(hw));
    TestStack s;
    constexpr size_t kShortLived = 20;
    std::vector<Task*> short_lived;
    for (size_t i = 0; i < kShortLived; ++i) {
      short_lived.push_back(s.SpawnScript(
          "short" + std::to_string(i),
          {SubmitOn(hw), WaitOn(hw), SubmitOn(hw), WaitOn(hw)}));
    }
    const AppId survivor = s.kernel.CreateApp("survivor");
    s.kernel.SpawnTask(
        survivor, "survivor",
        std::make_unique<FnBehavior>([hw, phase = 0](TaskEnv&) mutable {
          switch (phase++ % 3) {
            case 0:
              return SubmitOn(hw);
            case 1:
              return WaitOn(hw);
            default:
              return Action::Sleep(kMillisecond);
          }
        }));
    s.kernel.RunUntil(Millis(5));
    EXPECT_EQ(LiveApps(s.kernel, hw), kShortLived + 1);
    s.kernel.RunUntil(Millis(800));
    for (const Task* t : short_lived) {
      EXPECT_EQ(t->state(), TaskState::kExited);
    }
    EXPECT_EQ(LiveApps(s.kernel, hw), 1u);
  }
}

}  // namespace
}  // namespace psbox
