// Live fair-pick index shared by the command-queue domains (accelerators,
// storage, WiFi): the three "who goes next" queries of per-app fair
// queueing (§5), answered over the apps that are live instead of every app
// the driver has ever seen.
//
// An app is live while it wants the device or was active within the
// domain's recency window; every query's predicate implies liveness, so an
// app that is not live can never be an answer. Members are kept in
// ascending AppId order and hold a pointer to the driver's own per-app
// record, so the queries read the current score, queue and sandbox flag
// directly: a score change needs no index update, and the only sites that
// must call Touch() are those that can make an app live again (a command
// queued, an activity timestamp refreshed, a demand flag raised). Apps
// leave lazily: each query drops the members it finds idle and outside
// the window. Time only moves forward, so such a member stays dead until
// it is touched again.
//
// Each query scans the members in ascending AppId with the same predicate,
// the same strict `<` (or std::min) over the same doubles, and the same
// owner exclusion as the full scan it replaces, so the answer is identical
// bit for bit: ties go to the lowest AppId, and recency is inclusive at
// exactly now - last_seen == window.
//
// The per-app record type R must provide
//   q           the pending command queue (empty() when nothing is queued),
//   sandboxed   whether the app runs in a psbox,
//   last_seen   time of the last activity, -1 before any,
//   score()     the fairness score (virtual runtime, service time, credit),
//   wants()     whether the app demands the device now; true whenever q is
//               non-empty.
// Records must not move while they are members (std::map nodes do not).

#ifndef SRC_KERNEL_FAIR_PICK_H_
#define SRC_KERNEL_FAIR_PICK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "src/base/time.h"
#include "src/base/types.h"

namespace psbox {

template <class R>
class FairPick {
 public:
  explicit FairPick(DurationNs window) : window_(window) {}

  // Makes |app| a member. Call after any change that can make the record
  // want the device or refresh its last_seen.
  void Touch(AppId app, const R* record) {
    if (live_.empty() || live_.back().app < app) {
      live_.push_back(Member{app, record});  // arrivals mostly come in order
      return;
    }
    const auto it = std::lower_bound(
        live_.begin(), live_.end(), app,
        [](const Member& m, AppId a) { return m.app < a; });
    if (it->app != app) {
      live_.insert(it, Member{app, record});
    }
  }

  void Clear() { live_.clear(); }
  size_t size() const { return live_.size(); }

  // Lowest score among apps that want the device, other than |excluded|
  // (kNoApp excludes nobody); kNoApp when there is none.
  AppId BestWanting(TimeNs now, AppId excluded = kNoApp) {
    return Best(now, [excluded](AppId app, const R& r) {
      return r.wants() && app != excluded;
    });
  }

  // Lowest score among unsandboxed apps with a queued command; kNoApp when
  // there is none.
  AppId BestQueuedUnsandboxed(TimeNs now) {
    return Best(now,
                [](AppId, const R& r) { return !r.q.empty() && !r.sandboxed; });
  }

  // Lowest score among apps other than |owner| that have queued commands
  // or were active within the window; +infinity when there is none.
  double MinRecentCompetitor(AppId owner, TimeNs now) {
    double best = std::numeric_limits<double>::infinity();
    ForEachLive(now, [&](AppId app, const R& r) {
      if (app != owner && (!r.q.empty() || Recent(r, now))) {
        best = std::min(best, r.score());
      }
    });
    return best;
  }

 private:
  struct Member {
    AppId app;
    const R* record;
  };

  bool Recent(const R& r, TimeNs now) const {
    return r.last_seen >= 0 && now - r.last_seen <= window_;
  }

  template <class Pred>
  AppId Best(TimeNs now, Pred eligible) {
    AppId best = kNoApp;
    double best_score = std::numeric_limits<double>::infinity();
    ForEachLive(now, [&](AppId app, const R& r) {
      if (eligible(app, r) && r.score() < best_score) {
        best_score = r.score();
        best = app;
      }
    });
    return best;
  }

  // Visits the live members in ascending AppId, compacting away the dead.
  template <class F>
  void ForEachLive(TimeNs now, F&& visit) {
    auto out = live_.begin();
    for (const Member& m : live_) {
      if (m.record->wants() || Recent(*m.record, now)) {
        *out++ = m;
        visit(m.app, *m.record);
      }
    }
    live_.erase(out, live_.end());
  }

  DurationNs window_;
  std::vector<Member> live_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_FAIR_PICK_H_
