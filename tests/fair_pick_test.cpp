// FairPick, the live fair-pick index of the command-queue domains, against
// a brute-force copy of the full scans it replaced: over seeded random
// sequences of submit, dispatch pop, score change, sandbox flip, owner
// change and time advance, every query must return exactly what the scan
// over every app ever seen returns (same AppId, same double), including
// equal-score ties, the exact recency boundary and an empty live set.

#include "src/kernel/fair_pick.h"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <map>
#include <random>
#include <vector>

namespace psbox {
namespace {

// A per-app record shaped like the drivers' (NetStack's wants() rule; with
// expected_rx at zero it is the accelerator and storage rule).
struct Record {
  std::deque<int> q;
  double credit = 0.0;
  bool sandboxed = false;
  TimeNs last_seen = -1;
  int expected_rx = 0;

  double score() const { return credit; }
  bool wants() const { return !q.empty() || (sandboxed && expected_rx > 0); }
};

// The scans the drivers ran before the index, over every record.
struct BruteForce {
  const std::map<AppId, Record>& all;
  DurationNs window;

  AppId BestWanting(TimeNs, AppId excluded) const {
    AppId best = kNoApp;
    double best_score = std::numeric_limits<double>::infinity();
    for (const auto& [app, r] : all) {
      if (!r.wants() || app == excluded) {
        continue;
      }
      if (r.score() < best_score) {
        best_score = r.score();
        best = app;
      }
    }
    return best;
  }

  AppId BestQueuedUnsandboxed() const {
    AppId best = kNoApp;
    double best_score = std::numeric_limits<double>::infinity();
    for (const auto& [app, r] : all) {
      if (r.q.empty() || r.sandboxed) {
        continue;
      }
      if (r.score() < best_score) {
        best_score = r.score();
        best = app;
      }
    }
    return best;
  }

  double MinRecentCompetitor(AppId owner, TimeNs now) const {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& [app, r] : all) {
      if (app == owner) {
        continue;
      }
      const bool recent = r.last_seen >= 0 && now - r.last_seen <= window;
      if (!r.q.empty() || recent) {
        best = std::min(best, r.score());
      }
    }
    return best;
  }
};

constexpr DurationNs kWindow = 50 * kMillisecond;

TEST(FairPickTest, EmptyLiveSet) {
  FairPick<Record> pick(kWindow);
  EXPECT_EQ(pick.BestWanting(0), kNoApp);
  EXPECT_EQ(pick.BestQueuedUnsandboxed(0), kNoApp);
  EXPECT_EQ(pick.MinRecentCompetitor(kNoApp, 0),
            std::numeric_limits<double>::infinity());
  // A member that never did anything is dropped by the first query.
  Record idle;
  pick.Touch(7, &idle);
  EXPECT_EQ(pick.size(), 1u);
  EXPECT_EQ(pick.BestWanting(Seconds(1)), kNoApp);
  EXPECT_EQ(pick.size(), 0u);
}

TEST(FairPickTest, EqualScoresBreakTowardLowestAppId) {
  FairPick<Record> pick(kWindow);
  std::map<AppId, Record> all;
  for (const AppId app : {9, 3, 5}) {  // touched out of order
    Record& r = all[app];
    r.q.push_back(1);
    r.credit = 2.5;
    r.last_seen = 0;
    pick.Touch(app, &r);
  }
  EXPECT_EQ(pick.BestWanting(0), 3);
  EXPECT_EQ(pick.BestWanting(0, 3), 5);
  EXPECT_EQ(pick.BestQueuedUnsandboxed(0), 3);
  all[3].sandboxed = true;
  EXPECT_EQ(pick.BestQueuedUnsandboxed(0), 5);
}

TEST(FairPickTest, RecencyIsInclusiveAtTheWindowEdge) {
  FairPick<Record> pick(kWindow);
  Record r;
  r.credit = 4.0;
  r.last_seen = Millis(10);
  pick.Touch(1, &r);
  const TimeNs edge = r.last_seen + kWindow;
  EXPECT_EQ(pick.MinRecentCompetitor(kNoApp, edge), 4.0);
  EXPECT_EQ(pick.size(), 1u);
  // The owner is excluded even when it is the only recent app.
  EXPECT_EQ(pick.MinRecentCompetitor(1, edge),
            std::numeric_limits<double>::infinity());
  // One nanosecond later it is idle and out of the window: gone.
  EXPECT_EQ(pick.MinRecentCompetitor(kNoApp, edge + 1),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(pick.size(), 0u);
}

TEST(FairPickTest, MatchesFullScanOverRandomSequences) {
  constexpr AppId kApps = 24;
  // Few distinct scores, so equal-score ties are common.
  const double kScores[] = {0.0, 1.0, 1.0, 2.5, 4.0, 1e9,
                            std::numeric_limits<double>::infinity()};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto pick_int = [&rng](int n) {
      return static_cast<int>(rng() % static_cast<uint64_t>(n));
    };
    std::map<AppId, Record> all;
    FairPick<Record> index(kWindow);
    const BruteForce scan{all, kWindow};
    TimeNs now = 0;
    AppId owner = kNoApp;
    size_t max_live = 0;
    for (int step = 0; step < 3000; ++step) {
      const AppId app = pick_int(kApps);
      Record& r = all[app];
      switch (pick_int(9)) {
        case 0:  // submit
          r.q.push_back(step);
          r.last_seen = now;
          index.Touch(app, &r);
          break;
        case 1:  // dispatch pop: no touch
          if (!r.q.empty()) {
            r.q.pop_front();
          }
          break;
        case 2:  // completion: billed and seen
          r.credit = kScores[pick_int(7)];
          r.last_seen = now;
          index.Touch(app, &r);
          break;
        case 3:  // balloon billing: a score change alone, no touch
          r.credit = kScores[pick_int(7)];
          break;
        case 4:  // sandbox flip; raising it can raise demand
          r.sandboxed = !r.sandboxed;
          if (r.sandboxed) {
            index.Touch(app, &r);
          }
          break;
        case 5:  // a response is owed (arrives with TX completion) or lands
          if (pick_int(2) == 0) {
            ++r.expected_rx;
            r.last_seen = now;
            index.Touch(app, &r);
          } else if (r.expected_rx > 0) {
            --r.expected_rx;
            r.last_seen = now;
            index.Touch(app, &r);
          }
          break;
        case 6:  // reset requeue at the front: no timestamp refresh
          r.q.push_front(-step);
          index.Touch(app, &r);
          break;
        case 7:  // balloon owner changes
          owner = pick_int(4) == 0 ? kNoApp : pick_int(kApps);
          break;
        default: {  // time advances, often onto the exact window edge
          const int how = pick_int(5);
          if (how == 0) {
            now += 1;
          } else if (how == 1) {
            now += kWindow;
          } else if (how == 2) {
            now += 3 * kWindow;
          } else if (r.last_seen >= 0 && r.last_seen + kWindow >= now) {
            now = r.last_seen + kWindow + (how == 3 ? 0 : 1);
          }
          break;
        }
      }
      const AppId probe = pick_int(3) == 0 ? kNoApp : pick_int(kApps);
      ASSERT_EQ(index.BestWanting(now), scan.BestWanting(now, kNoApp));
      ASSERT_EQ(index.BestWanting(now, owner), scan.BestWanting(now, owner));
      ASSERT_EQ(index.BestQueuedUnsandboxed(now), scan.BestQueuedUnsandboxed());
      const double got = index.MinRecentCompetitor(probe, now);
      const double want = scan.MinRecentCompetitor(probe, now);
      ASSERT_EQ(got, want);
      max_live = std::max(max_live, index.size());
      // Every member left after a query is live at |now|.
      size_t live = 0;
      for (const auto& [a, rec] : all) {
        live += rec.wants() ||
                (rec.last_seen >= 0 && now - rec.last_seen <= kWindow);
      }
      ASSERT_EQ(index.size(), live);
    }
    EXPECT_GT(max_live, 1u);
  }
}

}  // namespace
}  // namespace psbox
