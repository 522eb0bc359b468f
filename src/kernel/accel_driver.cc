#include "src/kernel/accel_driver.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

AccelDriver::AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind,
                         Kernel* kernel, AccelDriverConfig config)
    : ResourceDomain(sim, kind, config.drain_timeout),
      device_(device), kernel_(kernel), config_(config) {
  context_opp_[0] = device_->opp_index();
  device_->set_on_complete([this](const AccelCompletion& c) { OnComplete(c); });
  last_ctx_mark_ = sim_->Now();
  gov_event_ = sim_->ScheduleAfter(config_.governor_period, [this] { OnGovernorTick(); });
}

void AccelDriver::SchedulePumpAt(TimeNs when) {
  // Prune fired entries so the list stays small and checkpoints only see
  // genuinely pending wake-ups.
  std::erase_if(pump_events_, [this](EventId e) { return !sim_->IsPending(e); });
  pump_events_.push_back(sim_->ScheduleAt(when, [this] { Pump(); }));
}

void AccelDriver::MarkContextTime() {
  const TimeNs now = sim_->Now();
  if (busy_since_ >= 0) {
    ctx_busy_[current_context_] += now - busy_since_;
    busy_since_ = now;
  }
  ctx_wall_[current_context_] += now - last_ctx_mark_;
  last_ctx_mark_ = now;
}

AccelDriver::AppQueue& AccelDriver::QueueFor(AppId app) { return queues_[app]; }

AccelDriver::AppQueue& AccelDriver::TouchQueue(AppId app) {
  AppQueue& q = queues_[app];
  pick_.Touch(app, &q);
  return q;
}

void AccelDriver::Submit(Task* task, AccelCommand cmd) {
  cmd.id = next_cmd_id_++;
  cmd.app = task->app();
  ++stats_.submitted;
  AppQueue& q = TouchQueue(cmd.app);
  q.q.push_back(Pending{cmd, task, sim_->Now()});
  q.last_seen = sim_->Now();
  Pump();
}

void AccelDriver::Pump() {
  // Busy-state bookkeeping for the frequency governor.
  auto update_busy = [this] {
    if (device_->in_flight() > 0 && busy_since_ < 0) {
      busy_since_ = sim_->Now();
    } else if (device_->in_flight() == 0 && busy_since_ >= 0) {
      ctx_busy_[current_context_] += sim_->Now() - busy_since_;
      busy_since_ = -1;
    }
  };

  while (true) {
    switch (balloon_phase()) {
      case BalloonPhase::kIdle: {  // phase 5 / normal fair dispatch
        if (!device_->CanDispatch()) {
          update_busy();
          return;
        }
        AppId best = pick_.BestWanting(sim_->Now());
        if (best == kNoApp) {
          update_busy();
          return;
        }
        if (QueueFor(best).sandboxed) {
          // A sandboxed app only takes the device when it is not still
          // repaying its previous balloon relative to apps that will be back
          // momentarily (non-work-conserving toward the sandbox; this is
          // what confines the loss to the sandboxed app, §6.3).
          const double competitor =
              pick_.MinRecentCompetitor(best, sim_->Now());
          if (QueueFor(best).vruntime >
              competitor + static_cast<double>(config_.switch_lead)) {
            // Try the best non-sandboxed pending app instead.
            const AppId fallback = pick_.BestQueuedUnsandboxed(sim_->Now());
            if (fallback == kNoApp) {
              // Idle on purpose; retry once the competition catches up.
              if (retry_event_ == kInvalidEventId) {
                retry_event_ = sim_->ScheduleAfter(1 * kMillisecond, [this] {
                  retry_event_ = kInvalidEventId;
                  Pump();
                });
              }
              update_busy();
              return;
            }
            best = fallback;
          } else {
            // Phase 1 — drain others: buffer everything until the device is
            // empty, then the balloon owns it.
            BalloonRequest(best, QueueFor(best).box);
            continue;
          }
        }
        AppQueue& q = QueueFor(best);
        Pending p = q.q.front();
        q.q.pop_front();
        const DurationNs lat = sim_->Now() - p.submit_time;
        stats_.total_dispatch_latency += lat;
        stats_.max_dispatch_latency = std::max(stats_.max_dispatch_latency, lat);
        device_->Dispatch(p.cmd);
        in_flight_[p.cmd.id] = p;
        ArmCommandWatchdog(p.cmd.id);
        update_busy();
        continue;
      }
      case BalloonPhase::kDrainOthers: {
        if (device_->in_flight() > 0) {
          update_busy();
          return;
        }
        // Balloon-in: exclusive ownership begins; restore the sandbox's
        // virtualised operating frequency before the observer looks.
        if (config_.virtualize_freq) {
          SwitchOppContext(QueueFor(balloon_owner()).opp_context);
        }
        BalloonServe();
        continue;
      }
      case BalloonPhase::kServe: {
        AppQueue& sq = QueueFor(balloon_owner());
        const AppId contender = pick_.BestWanting(sim_->Now(), balloon_owner());
        const bool grant_over = sim_->Now() - balloon_start() >= config_.min_grant;
        const bool owner_idle = sq.q.empty() && device_->in_flight() == 0;
        if (owner_idle) {
          if (owner_idle_since_ < 0) {
            owner_idle_since_ = sim_->Now();
            SchedulePumpAt(sim_->Now() + config_.idle_release);
          }
        } else {
          owner_idle_since_ = -1;
        }
        const bool idle_expired =
            owner_idle && sim_->Now() - owner_idle_since_ >= config_.idle_release;
        // The owner's accrued-so-far billing for this balloon counts toward
        // the lead check — otherwise a single long balloon (whose billing
        // only lands at balloon end) could hold the device forever.
        const double accrued =
            static_cast<double>(sim_->Now() - balloon_start()) * device_->slots();
        const bool lead_exceeded =
            contender != kNoApp &&
            sq.vruntime + (config_.bill_balloon ? accrued : 0.0) -
                    QueueFor(contender).vruntime >
                static_cast<double>(config_.switch_lead);
        if ((contender != kNoApp && grant_over && (owner_idle || lead_exceeded)) ||
            idle_expired) {
          owner_idle_since_ = -1;
          BalloonRelease();  // phase 4: drain the owner
          continue;
        }
        if (!device_->CanDispatch() || sq.q.empty()) {
          // Nothing to do now. If a contender is waiting for the grant to
          // expire, make sure we come back then.
          if (contender != kNoApp && !grant_over) {
            const TimeNs when = balloon_start() + config_.min_grant;
            SchedulePumpAt(std::max(when, sim_->Now()));
          }
          update_busy();
          return;
        }
        // Phases 2-3 — flush & serve the sandboxed app.
        Pending p = sq.q.front();
        sq.q.pop_front();
        const DurationNs lat = sim_->Now() - p.submit_time;
        stats_.total_dispatch_latency += lat;
        stats_.max_dispatch_latency = std::max(stats_.max_dispatch_latency, lat);
        device_->Dispatch(p.cmd);
        in_flight_[p.cmd.id] = p;
        ArmCommandWatchdog(p.cmd.id);
        update_busy();
        continue;
      }
      case BalloonPhase::kDrainOwner: {
        if (device_->in_flight() > 0) {
          update_busy();
          return;
        }
        // Balloon-out: bill the *whole* accelerator for the whole balloon to
        // the sandboxed app (drain stalls and idle slots included).
        AppQueue& sq = QueueFor(balloon_owner());
        if (config_.bill_balloon) {
          sq.vruntime += static_cast<double>(sim_->Now() - balloon_start()) *
                         device_->slots();
        }
        if (config_.virtualize_freq) {
          SwitchOppContext(0);
        }
        BalloonFinish();
        owner_idle_since_ = -1;
        continue;  // phase 5: flush others in queueing order
      }
    }
  }
}

void AccelDriver::OnComplete(const AccelCompletion& completion) {
  auto it = in_flight_.find(completion.cmd.id);
  PSBOX_CHECK(it != in_flight_.end());
  const Pending p = it->second;
  in_flight_.erase(it);
  sim_->Cancel(p.watchdog);
  ++stats_.completed;
  AppQueue& q = TouchQueue(completion.cmd.app);
  ++q.completed;
  q.last_seen = sim_->Now();
  if (completion.cmd.app != balloon_owner()) {
    // Normal billing: the span the command occupied the device, as visible
    // to the CPU side (dispatch to completion interrupt).
    q.vruntime +=
        static_cast<double>(completion.end_time - completion.dispatch_time);
  }
  if (ledger_ != nullptr) {
    ledger_->Add(kind(), completion.cmd.app, completion.dispatch_time,
                 completion.end_time);
  }
  // Deliver the completion to the submitting task (may wake it).
  if (p.task != nullptr) {
    ++p.task->pending_accel_completions;
    kernel_->DeliverAccelCompletion(p.task);
  }
  Pump();
}

void AccelDriver::SetSandboxed(AppId app, PsboxId box) {
  AppQueue& q = QueueFor(app);
  q.sandboxed = true;
  q.box = box;
  if (q.opp_context < 0) {
    q.opp_context = CreateOppContext();
  }
  Pump();
}

void AccelDriver::ClearSandboxed(AppId app) {
  AppQueue& q = QueueFor(app);
  q.sandboxed = false;
  if (balloon_owner() == app) {
    if (balloon_phase() == BalloonPhase::kDrainOthers) {
      // Balloon never took ownership; just unwind.
      BalloonCancel();
    } else if (balloon_phase() == BalloonPhase::kServe) {
      BalloonRelease();
    }
  }
  Pump();
}

int AccelDriver::CreateOppContext() {
  const int ctx = next_context_++;
  context_opp_[ctx] = 0;
  return ctx;
}

void AccelDriver::SwitchOppContext(int ctx) {
  PSBOX_CHECK(context_opp_.count(ctx) > 0);
  if (ctx == current_context_) {
    return;
  }
  MarkContextTime();
  context_opp_[current_context_] = device_->opp_index();
  current_context_ = ctx;
  device_->SetOppIndex(context_opp_[ctx]);
  if (std::find(window_ctxs_.begin(), window_ctxs_.end(), ctx) ==
      window_ctxs_.end()) {
    window_ctxs_.push_back(ctx);
  }
}

void AccelDriver::OnGovernorTick() {
  MarkContextTime();
  // Update every context that owned the device long enough this window,
  // judging each by the utilisation measured while it was in charge. Only
  // the contexts made current this window can have any; the others sit at
  // zero wall and busy time already.
  for (const int ctx : window_ctxs_) {
    DurationNs& wall = ctx_wall_.at(ctx);  // MarkContextTime keyed it
    if (wall >= 2 * kMillisecond) {
      const double util =
          static_cast<double>(ctx_busy_[ctx]) / static_cast<double>(wall);
      int opp = context_opp_[ctx];
      if (ctx == current_context_) {
        opp = device_->opp_index();
      }
      if (util > config_.governor_up) {
        opp = device_->num_opps() - 1;
      } else if (util < config_.governor_down) {
        opp = std::max(0, opp - 1);
      }
      context_opp_[ctx] = opp;
      if (ctx == current_context_) {
        device_->SetOppIndex(opp);
      }
    }
    wall = 0;
    ctx_busy_[ctx] = 0;
  }
  window_ctxs_.assign(1, current_context_);
  gov_event_ = sim_->ScheduleAfter(config_.governor_period, [this] { OnGovernorTick(); });
}

void AccelDriver::ArmCommandWatchdog(uint64_t cmd_id) {
  // Raw slab event instead of a heap-allocated Watchdog object: the handle
  // rides in the in-flight record and the whole arm/complete cycle stays
  // allocation-free.
  Pending& p = in_flight_.at(cmd_id);
  const DurationNs timeout =
      config_.command_timeout_base +
      static_cast<DurationNs>(static_cast<double>(p.cmd.nominal_work) *
                              config_.command_timeout_work_factor);
  p.watchdog =
      sim_->ScheduleAfter(timeout, [this, cmd_id] { OnCommandTimeout(cmd_id); });
}

void AccelDriver::OnCommandTimeout(uint64_t cmd_id) {
  if (in_flight_.count(cmd_id) == 0) {
    return;  // completed concurrently with the expiry; stale
  }
  ++stats_.watchdog_fires;
  ResetAndRequeue();
  Pump();
}

void AccelDriver::ResetAndRequeue() {
  std::vector<AccelDevice::AbortedCommand> aborted = device_->Reset();
  ++stats_.device_resets;
  RecordRecovery();
  // Every in-flight command was aborted; their watchdogs go with them. (For
  // the expired watchdog that got us here, Cancel is a stale-handle no-op:
  // its event already left the simulator queue.)
  for (auto& [cmd_id, pending] : in_flight_) {
    sim_->Cancel(pending.watchdog);
    pending.watchdog = kInvalidEventId;
  }
  // Push front in reverse so the requeued commands re-dispatch in their
  // original order, ahead of anything submitted since.
  for (auto it = aborted.rbegin(); it != aborted.rend(); ++it) {
    auto fit = in_flight_.find(it->cmd.id);
    PSBOX_CHECK(fit != in_flight_.end());
    Pending p = fit->second;
    in_flight_.erase(fit);
    if (it->hung) {
      ++p.retries;
    }
    if (p.retries > config_.max_command_retries) {
      FailCommand(p);
      continue;
    }
    ++stats_.command_retries;
    TouchQueue(p.cmd.app).q.push_front(p);
  }
}

void AccelDriver::OnDrainTimeout() {
  ++stats_.watchdog_fires;
  // Unwind the balloon before clearing the hardware: ResetAndRequeue can
  // re-enter Pump (a failed command wakes its submitter, which may submit
  // again synchronously), and the reentrant pump must see a settled domain.
  AppQueue& sq = QueueFor(balloon_owner());
  const bool owned = balloon_phase() == BalloonPhase::kDrainOwner;
  if (owned && config_.virtualize_freq) {
    SwitchOppContext(0);
  }
  // Bills only the service actually rendered — nothing for a kDrainOthers
  // abort, where ownership never began and no balloon-in was signalled.
  const DurationNs served = BalloonAbort();
  if (owned && config_.bill_balloon) {
    sq.vruntime += static_cast<double>(served) * device_->slots();
  }
  owner_idle_since_ = -1;
  if (device_->in_flight() > 0) {
    // The drain was stuck behind wedged work; clear it now rather than wait
    // for the per-command watchdogs to come around.
    ResetAndRequeue();
  }
  Pump();
}

void AccelDriver::FailCommand(const Pending& p) {
  ++stats_.commands_failed;
  // The submitter still gets a completion (an error status, in a real
  // driver) so it unblocks and can react to the loss.
  if (p.task != nullptr) {
    ++p.task->pending_accel_completions;
    kernel_->DeliverAccelCompletion(p.task);
  }
}

void AccelDriver::SaveState(SnapshotWriter& w) const {
  w.Section("accel_driver");
  SaveDomainState(w);
  auto save_cmd = [&w](const AccelCommand& cmd) {
    w.U64(cmd.id);
    w.I64(cmd.app);
    w.U32(static_cast<uint32_t>(cmd.type));
    w.I64(cmd.nominal_work);
    w.F64(cmd.active_power);
  };
  auto save_pending_fields = [&](const Pending& p) {
    save_cmd(p.cmd);
    w.I64(p.task != nullptr ? p.task->id() : 0);
    w.I64(p.submit_time);
    w.U32(static_cast<uint32_t>(p.retries));
  };
  w.U64(queues_.size());
  for (const auto& [app, q] : queues_) {
    w.I64(app);
    w.U64(q.q.size());
    for (const Pending& p : q.q) {
      save_pending_fields(p);
    }
    w.F64(q.vruntime);
    w.Bool(q.sandboxed);
    w.I64(q.box);
    w.U32(static_cast<uint32_t>(q.opp_context));
    w.U64(q.completed);
    w.I64(q.last_seen);
  }
  // In-flight commands in id order; each carries its hang watchdog.
  std::map<uint64_t, const Pending*> inflight;
  for (const auto& [id, p] : in_flight_) {
    inflight[id] = &p;
  }
  w.U64(inflight.size());
  for (const auto& [id, p] : inflight) {
    save_pending_fields(*p);
    SaveEvent(w, *sim_, p->watchdog);
  }
  w.U64(next_cmd_id_);
  w.I64(owner_idle_since_);
  const std::map<int, int> opps(context_opp_.begin(), context_opp_.end());
  w.U64(opps.size());
  for (const auto& [ctx, opp] : opps) {
    w.U32(static_cast<uint32_t>(ctx));
    w.U32(static_cast<uint32_t>(opp));
  }
  w.U32(static_cast<uint32_t>(next_context_));
  w.U32(static_cast<uint32_t>(current_context_));
  w.I64(busy_since_);
  w.I64(last_ctx_mark_);
  const std::map<int, DurationNs> busy(ctx_busy_.begin(), ctx_busy_.end());
  w.U64(busy.size());
  for (const auto& [ctx, ns] : busy) {
    w.U32(static_cast<uint32_t>(ctx));
    w.I64(ns);
  }
  const std::map<int, DurationNs> wall(ctx_wall_.begin(), ctx_wall_.end());
  w.U64(wall.size());
  for (const auto& [ctx, ns] : wall) {
    w.U32(static_cast<uint32_t>(ctx));
    w.I64(ns);
  }
  w.U64(stats_.submitted);
  w.U64(stats_.completed);
  w.I64(stats_.total_dispatch_latency);
  w.I64(stats_.max_dispatch_latency);
  w.U64(stats_.watchdog_fires);
  w.U64(stats_.device_resets);
  w.U64(stats_.command_retries);
  w.U64(stats_.commands_failed);
  SaveEvent(w, *sim_, retry_event_);
  SaveEvent(w, *sim_, gov_event_);
  uint64_t pumps = 0;
  for (const EventId e : pump_events_) {
    if (sim_->IsPending(e)) {
      ++pumps;
    }
  }
  w.U64(pumps);
  for (const EventId e : pump_events_) {
    if (sim_->IsPending(e)) {
      SaveEvent(w, *sim_, e);
    }
  }
}

void AccelDriver::RestoreState(SnapshotReader& r, EventRearmer& rearmer) {
  if (!r.Section("accel_driver")) {
    return;
  }
  RestoreDomainState(r, rearmer);
  auto load_cmd = [&r](AccelCommand& cmd) {
    cmd.id = r.U64();
    cmd.app = static_cast<AppId>(r.I64());
    cmd.type = static_cast<int>(r.U32());
    cmd.nominal_work = r.I64();
    cmd.active_power = r.F64();
  };
  auto load_pending_fields = [&](Pending& p) {
    load_cmd(p.cmd);
    const TaskId task_id = static_cast<TaskId>(r.I64());
    p.task = task_id != 0 ? kernel_->TaskById(task_id) : nullptr;
    p.submit_time = r.I64();
    p.retries = static_cast<int>(r.U32());
    p.watchdog = kInvalidEventId;
  };
  queues_.clear();
  pick_.Clear();
  const size_t num_queues = r.Count(8);
  for (size_t i = 0; i < num_queues; ++i) {
    const AppId app = static_cast<AppId>(r.I64());
    AppQueue& q = queues_[app];
    const size_t depth = r.Count(8);
    for (size_t j = 0; j < depth; ++j) {
      Pending p{};
      load_pending_fields(p);
      q.q.push_back(p);
    }
    q.vruntime = r.F64();
    q.sandboxed = r.Bool();
    q.box = static_cast<PsboxId>(r.I64());
    q.opp_context = static_cast<int>(r.U32());
    q.completed = r.U64();
    q.last_seen = r.I64();
    pick_.Touch(app, &q);  // the first dispatch drops the dead ones
    if (!r.ok()) {
      return;
    }
  }
  in_flight_.clear();
  const size_t num_inflight = r.Count(8);
  for (size_t i = 0; i < num_inflight; ++i) {
    Pending p{};
    load_pending_fields(p);
    const uint64_t cmd_id = p.cmd.id;
    in_flight_[cmd_id] = p;
    LoadEvent(r, rearmer, [this, cmd_id](TimeNs when) {
      in_flight_.at(cmd_id).watchdog =
          sim_->ScheduleAt(when, [this, cmd_id] { OnCommandTimeout(cmd_id); });
    });
    if (!r.ok()) {
      return;
    }
  }
  next_cmd_id_ = r.U64();
  owner_idle_since_ = r.I64();
  context_opp_.clear();
  const size_t num_ctx = r.Count(8);
  for (size_t i = 0; i < num_ctx; ++i) {
    const int ctx = static_cast<int>(r.U32());
    context_opp_[ctx] = static_cast<int>(r.U32());
  }
  next_context_ = static_cast<int>(r.U32());
  current_context_ = static_cast<int>(r.U32());
  busy_since_ = r.I64();
  last_ctx_mark_ = r.I64();
  ctx_busy_.clear();
  const size_t num_busy = r.Count(12);
  for (size_t i = 0; i < num_busy; ++i) {
    const int ctx = static_cast<int>(r.U32());
    ctx_busy_[ctx] = r.I64();
  }
  ctx_wall_.clear();
  window_ctxs_.clear();
  const size_t num_wall = r.Count(12);
  for (size_t i = 0; i < num_wall; ++i) {
    const int ctx = static_cast<int>(r.U32());
    ctx_wall_[ctx] = r.I64();
    window_ctxs_.push_back(ctx);  // the first tick visits them all
  }
  if (ctx_wall_.count(current_context_) == 0) {
    window_ctxs_.push_back(current_context_);
  }
  stats_.submitted = r.U64();
  stats_.completed = r.U64();
  stats_.total_dispatch_latency = r.I64();
  stats_.max_dispatch_latency = r.I64();
  stats_.watchdog_fires = r.U64();
  stats_.device_resets = r.U64();
  stats_.command_retries = r.U64();
  stats_.commands_failed = r.U64();
  retry_event_ = kInvalidEventId;
  gov_event_ = kInvalidEventId;
  pump_events_.clear();
  LoadEvent(r, rearmer, [this](TimeNs when) {
    retry_event_ = sim_->ScheduleAt(when, [this] {
      retry_event_ = kInvalidEventId;
      Pump();
    });
  });
  LoadEvent(r, rearmer, [this](TimeNs when) {
    gov_event_ = sim_->ScheduleAt(when, [this] { OnGovernorTick(); });
  });
  const size_t num_pumps = r.Count(1);
  for (size_t i = 0; i < num_pumps; ++i) {
    LoadEvent(r, rearmer, [this](TimeNs when) { SchedulePumpAt(when); });
    if (!r.ok()) {
      return;
    }
  }
}

uint64_t AccelDriver::CompletedFor(AppId app) const {
  auto it = queues_.find(app);
  return it == queues_.end() ? 0 : it->second.completed;
}

}  // namespace psbox
