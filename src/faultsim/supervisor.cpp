#include "faultsim/supervisor.hpp"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "faultsim/checkpoint.hpp"
#include "faultsim/shard.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace motsim {

namespace sp = subprocess;

namespace {

constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

/// Everything a forked worker needs. All of it lives in the coordinator's
/// address space and reaches the child through fork's copy-on-write pages —
/// nothing (circuit, test, options) is ever serialized.
struct WorkerContext {
  const Circuit* circuit = nullptr;
  const TestSequence* test = nullptr;
  const SeqTrace* good = nullptr;
  const std::vector<Fault>* faults = nullptr;
  MotOptions options;  // num_threads/campaign_time_ms already zeroed
  bool run_baseline = false;
  JournalMeta meta;
  std::string shard_path;  // "" = no shard journaling
  shard::ServeOptions serve;
};

/// The worker process body: serve Assign frames until Shutdown/EOF.
/// Runs after fork; must never return into the forked copy of the
/// coordinator's stack (spawn() _exits with the return value).
int worker_main(int cmd_fd, int res_fd, const WorkerContext& ctx) {
  // The coordinator owns terminal signals; a Ctrl-C must stop the campaign
  // through the coordinator's clean-shutdown path, not kill workers ahead
  // of their final results. SIGTERM drops any handler inherited from the
  // CLI (whose CancelToken means nothing here). SIGPIPE on a dead
  // coordinator becomes EPIPE, which ends the serve loop.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGPIPE, SIG_IGN);

  const MotBatchRunner runner(*ctx.circuit, ctx.options, ctx.run_baseline);
  std::unique_ptr<CampaignJournal> journal_shard;
  if (!ctx.shard_path.empty()) {
    // Shard journaling is belt-and-braces on top of the pipe; a worker that
    // cannot create its shard still contributes via frames alone.
    std::string err;
    journal_shard = CampaignJournal::create(ctx.shard_path, ctx.meta, err);
  }

  netio::FdChannel chan(cmd_fd, res_fd, /*own=*/false);
  sp::FrameReader reader(chan);
  const shard::WorkerLane lane{runner, *ctx.test, *ctx.good, *ctx.faults,
                               ctx.run_baseline};
  // Every end is exit 0: the coordinator judges a worker by its frames and
  // its wait status, and a chaos kill never returns (die_hard).
  shard::serve_assignments(
      chan, reader, lane, ctx.serve,
      [&](const MotBatchItem& item, const std::string& /*record*/) {
        if (journal_shard) journal_shard->append(item);
      });
  return 0;
}

/// Coordinator-side view of one worker slot. `chan` is the slot's link to
/// its worker: an owning FdChannel over a forked child's pipe pair, or the
/// SocketChannel of a TCP connection that passed the handshake. `child`
/// (pid, and the pipe fds its siblings must close after fork) is filled in
/// local mode only. Everything else — assignment, outstanding-fault
/// accounting, liveness timestamps, incarnation fencing — is
/// transport-agnostic.
struct Slot {
  sp::ChildHandles child;
  std::unique_ptr<netio::ByteChannel> chan;
  std::unique_ptr<sp::FrameReader> reader;
  bool alive = false;
  std::size_t incarnation = 0;  // lives started on this slot so far
  std::vector<std::size_t> group;            // current assignment, in order
  std::unordered_set<std::size_t> outstanding;  // not yet committed
  std::size_t in_flight = kNoFault;
  std::uint64_t last_frame_ms = 0;
  std::uint64_t group_assigned_ms = 0;
  bool shutdown_sent = false;
  bool respawn_pending = false;
  std::uint64_t respawn_at_ms = 0;

  bool idle() const { return alive && group.empty(); }
};

/// A TCP connection that has been accepted but not yet welcomed into a
/// slot — it has until `deadline_ms` to present a valid Hello.
struct PendingConn {
  std::unique_ptr<netio::SocketChannel> chan;
  std::unique_ptr<sp::FrameReader> reader;
  std::uint64_t deadline_ms = 0;
};

}  // namespace

std::string worker_shard_path(const std::string& journal_path,
                              std::size_t slot) {
  if (journal_path.empty()) return {};
  return journal_path + ".w" + std::to_string(slot);
}

SupervisedMotRunner::SupervisedMotRunner(const Circuit& c, MotOptions options,
                                         bool run_baseline,
                                         SupervisorOptions sup)
    : circuit_(&c),
      options_(options),
      run_baseline_(run_baseline),
      sup_(sup) {}

std::vector<MotBatchItem> SupervisedMotRunner::run(
    const TestSequence& test, const SeqTrace& good,
    const std::vector<Fault>& faults, std::span<const std::size_t> indices,
    CampaignJournal* journal, const CancelToken* cancel,
    SupervisorStats* stats) const {
  SupervisorStats local;
  if (stats == nullptr) stats = &local;
  std::vector<MotBatchItem> items(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    items[i].fault_index = indices[i];
  }
  if (indices.empty()) return items;

  const std::size_t workers = std::max<std::size_t>(sup_.workers, 1);
  const std::string jpath = journal != nullptr ? journal->path() : "";
  const bool remote = sup_.listen_fd >= 0;
  // The campaign identity remote workers must prove in their Hello. With a
  // journal this is its meta verbatim; without one it is assembled from the
  // same ingredients, so the two modes admit exactly the same workers.
  const JournalMeta expected_meta =
      journal != nullptr ? journal->meta()
                         : make_journal_meta(circuit_->name(), faults.size(),
                                             test, options_, run_baseline_);

  // A worker writing into a vanished coordinator (or vice versa) must see
  // EPIPE, not die of SIGPIPE mid-supervision.
  struct sigaction ignore_pipe = {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction old_pipe = {};
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  std::unordered_map<std::size_t, std::size_t> pos;
  pos.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) pos[indices[i]] = i;

  std::vector<char> done(indices.size(), 0);
  auto commit = [&](const MotBatchItem& item) {
    const auto it = pos.find(item.fault_index);
    if (it == pos.end() || done[it->second]) return false;
    items[it->second] = item;
    done[it->second] = 1;
    if (journal != nullptr) journal->append(item);
    return true;
  };

  // Resume: outcomes the journal already holds are merged, never re-run.
  std::vector<std::size_t> pending;
  pending.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t k = indices[i];
    if (journal != nullptr) {
      if (const MotBatchItem* rec = journal->lookup(k)) {
        items[i] = *rec;
        done[i] = 1;
        continue;
      }
    }
    pending.push_back(k);
  }

  // Harvest orphaned journal shards from a previous run whose coordinator
  // died: every record a worker committed before the lights went out is
  // merged into the main journal now, before any simulation.
  if (journal != nullptr && !pending.empty()) {
    const std::size_t slash = jpath.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : jpath.substr(0, slash);
    const std::string prefix =
        (slash == std::string::npos ? jpath : jpath.substr(slash + 1)) + ".w";
    std::vector<std::string> orphans;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (const struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() <= prefix.size() ||
            name.compare(0, prefix.size(), prefix) != 0) {
          continue;
        }
        const std::string tail = name.substr(prefix.size());
        if (tail.find_first_not_of("0123456789") != std::string::npos) continue;
        orphans.push_back(dir + "/" + name);
      }
      ::closedir(d);
    }
    for (const std::string& orphan : orphans) {
      std::string err;
      const auto shard_journal =
          CampaignJournal::open_resume(orphan, journal->meta(), err);
      if (shard_journal == nullptr) continue;  // stale or foreign; overwritten
      for (const std::size_t k : pending) {
        if (const MotBatchItem* rec = shard_journal->lookup(k)) {
          if (commit(*rec)) ++stats->harvested_records;
        }
      }
    }
    std::erase_if(pending, [&](std::size_t k) { return done[pos[k]]; });
  }

  std::deque<std::vector<std::size_t>> queue;
  for (auto& g : shard::plan_fault_groups(pending, workers, sup_.group_size)) {
    queue.push_back(std::move(g));
  }

  const Deadline campaign = Deadline::after_ms(options_.campaign_time_ms);
  std::unordered_map<std::size_t, std::size_t> attempts;
  std::vector<Slot> slots(workers);
  std::size_t restarts_used = 0;
  RetrySchedule restart_schedule(sup_.restart_backoff);
  bool stopping = false;
  std::uint64_t stop_deadline_ms = 0;
  // Remote fleet-loss clock: while no worker is connected, the campaign is
  // declared lost once this passes. Starts as the join window; every
  // disconnect pushes it out by the rejoin window.
  std::uint64_t fleet_deadline_ms = sp::steady_now_ms() + sup_.remote_join_ms;
  std::vector<PendingConn> pending_conns;
  if (remote) sp::set_nonblocking(sup_.listen_fd);

  // Workers beat at a quarter of the coordinator's silence timeout.
  const std::uint64_t heartbeat_period_ms =
      sup_.heartbeat_ms == 0
          ? 0
          : std::max<std::uint64_t>(sup_.heartbeat_ms / 4, 20);

  WorkerContext base_ctx;
  base_ctx.circuit = circuit_;
  base_ctx.test = &test;
  base_ctx.good = &good;
  base_ctx.faults = &faults;
  base_ctx.options = options_;
  // Workers are serial lanes: parallelism is the process count, and the
  // campaign-level deadline belongs to the coordinator alone.
  base_ctx.options.num_threads = 1;
  base_ctx.options.campaign_time_ms = 0;
  base_ctx.run_baseline = run_baseline_;
  if (journal != nullptr) base_ctx.meta = journal->meta();
  base_ctx.serve.heartbeat_period_ms = heartbeat_period_ms;
  base_ctx.serve.chaos_kill_permille = sup_.chaos_kill_permille;
  base_ctx.serve.chaos_kill_seed = sup_.chaos_kill_seed;
  base_ctx.serve.chaos_abort_fault = sup_.chaos_abort_fault;
  base_ctx.serve.die_hard = true;  // a forked worker is disposable

  auto spawn_slot = [&](std::size_t s) {
    Slot& slot = slots[s];
    WorkerContext ctx = base_ctx;
    ctx.shard_path = worker_shard_path(jpath, s);
    ctx.serve.incarnation = slot.incarnation;
    std::vector<int> close_in_child;
    for (std::size_t o = 0; o < slots.size(); ++o) {
      if (o == s || !slots[o].alive) continue;
      close_in_child.push_back(slots[o].child.command_fd);
      close_in_child.push_back(slots[o].child.result_fd);
    }
    const int err = sp::spawn(
        [ctx](int cmd_fd, int res_fd) {
          return worker_main(cmd_fd, res_fd, ctx);
        },
        close_in_child, slot.child);
    if (err != 0) return false;
    sp::set_nonblocking(slot.child.result_fd);
    slot.chan = std::make_unique<netio::FdChannel>(slot.child.result_fd,
                                                   slot.child.command_fd);
    slot.reader = std::make_unique<sp::FrameReader>(*slot.chan);
    slot.alive = true;
    ++slot.incarnation;
    slot.group.clear();
    slot.outstanding.clear();
    slot.in_flight = kNoFault;
    slot.shutdown_sent = false;
    slot.respawn_pending = false;
    slot.last_frame_ms = sp::steady_now_ms();
    return true;
  };

  auto close_slot_fds = [&](Slot& slot) {
    slot.reader.reset();  // before the channel it reads from
    slot.chan.reset();    // closes the pipe pair or the socket
    slot.child.command_fd = -1;
    slot.child.result_fd = -1;
  };

  auto slot_write = [&](Slot& slot, shard::MsgType type,
                        std::string_view payload) {
    return sp::write_frame(*slot.chan, static_cast<std::uint8_t>(type),
                           payload);
  };

  auto assign_group = [&](Slot& slot, std::vector<std::size_t> group) {
    slot.group = std::move(group);
    slot.outstanding.clear();
    slot.outstanding.insert(slot.group.begin(), slot.group.end());
    slot.in_flight = kNoFault;
    slot.group_assigned_ms = sp::steady_now_ms();
    const int err = slot_write(slot, shard::MsgType::Assign,
                               shard::encode_assign(slot.group));
    if (err != 0) {
      // The worker is dying or dead; the reap path below recovers the group.
      return false;
    }
    return true;
  };

  /// Shared recovery path for every kind of worker death. `status_token`
  /// is the one-token evidence (wait status and/or supervision cause)
  /// recorded against a fault this death poisons.
  auto handle_death = [&](std::size_t s, const std::string& status_token) {
    Slot& slot = slots[s];
    slot.alive = false;
    close_slot_fds(slot);
    ++stats->worker_deaths;

    // Harvest the shard journal first: results the worker committed to disk
    // but never got to stream are merged, not re-simulated. (Remote workers
    // have no shard on this filesystem — their equivalent is the in-memory
    // replay log they re-stream after reconnecting.)
    const std::string shard_path = remote ? "" : worker_shard_path(jpath, s);
    if (!shard_path.empty() && !slot.outstanding.empty() &&
        journal != nullptr) {
      std::string err;
      if (const auto shard_journal =
              CampaignJournal::open_resume(shard_path, journal->meta(), err)) {
        for (const std::size_t k : slot.group) {
          if (slot.outstanding.count(k) == 0) continue;
          if (const MotBatchItem* rec = shard_journal->lookup(k)) {
            if (commit(*rec)) ++stats->harvested_records;
            slot.outstanding.erase(k);
            if (slot.in_flight == k) slot.in_flight = kNoFault;
          }
        }
      }
    }

    // Charge the death to the fault that was in flight — and only to it.
    if (slot.in_flight != kNoFault &&
        slot.outstanding.count(slot.in_flight) != 0) {
      const std::size_t k = slot.in_flight;
      const std::size_t tries = ++attempts[k];
      if (tries >= sup_.max_fault_attempts) {
        MotBatchItem poison;
        poison.fault_index = k;
        poison.completed = true;
        poison.mot.unresolved = UnresolvedReason::EngineError;
        poison.error = sanitize_token("worker_killed_" + status_token +
                                      "_attempts_" + std::to_string(tries));
        if (run_baseline_) {
          poison.baseline.aborted = true;
          poison.baseline.unresolved = UnresolvedReason::EngineError;
        }
        commit(poison);
        ++stats->poisoned_faults;
        slot.outstanding.erase(k);
      }
    }

    // Requeue the rest of the group (input order preserved) for survivors.
    std::vector<std::size_t> requeue;
    for (const std::size_t k : slot.group) {
      if (slot.outstanding.count(k) != 0) requeue.push_back(k);
    }
    if (!requeue.empty()) {
      stats->requeued_faults += requeue.size();
      queue.push_front(std::move(requeue));
    }
    slot.group.clear();
    slot.outstanding.clear();
    slot.in_flight = kNoFault;

    if (!stopping) {
      if (!remote && restarts_used < sup_.max_worker_restarts) {
        ++restarts_used;
        slot.respawn_pending = true;
        slot.respawn_at_ms =
            sp::steady_now_ms() +
            restart_schedule.delay_us(restarts_used) / 1000;
      }
      if (remote) {
        // Hold the campaign open for a reconnect: the worker (or a fresh
        // one) may rejoin within the window. Admission charges the restart
        // budget; this only keeps the door open.
        fleet_deadline_ms =
            std::max(fleet_deadline_ms,
                     sp::steady_now_ms() + sup_.remote_rejoin_ms);
      }
    }
  };

  auto kill_and_reap = [&](std::size_t s, const char* cause) {
    Slot& slot = slots[s];
    if (remote) {
      // No SIGKILL across a network. Closing the connection *is* the kill:
      // it fences this incarnation off — its late frames land on a closed
      // socket — and the worker, if actually alive, rejoins as a fresh
      // incarnation through the handshake.
      handle_death(s, std::string(cause) + "_fenced");
      return;
    }
    ::kill(slot.child.pid, SIGKILL);
    int status = 0;
    sp::wait_blocking(slot.child.pid, status);
    handle_death(s, std::string(cause) + "_" +
                        sp::describe_wait_status(status));
  };

  auto request_shutdown = [&](Slot& slot) {
    if (!slot.alive || slot.shutdown_sent) return;
    slot.shutdown_sent = true;
    slot_write(slot, shard::MsgType::Shutdown, "");
  };

  auto reject_conn = [&](PendingConn& pc, std::string_view reason) {
    sp::write_frame(*pc.chan, static_cast<std::uint8_t>(shard::MsgType::Reject),
                    reason);
    pc.chan->close();
  };

  /// Welcomes a handshaken connection into a worker slot. First lives of a
  /// slot are free (they are the initial fleet); re-filling a used slot is a
  /// restart and spends the max_worker_restarts budget like a local respawn.
  auto admit_conn = [&](PendingConn& pc) {
    std::size_t chosen = kNoFault;
    bool rejoin = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].alive && slots[s].incarnation == 0) {
        chosen = s;
        break;
      }
    }
    if (chosen == kNoFault) {
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].alive) {
          chosen = s;
          rejoin = true;
          break;
        }
      }
    }
    if (chosen == kNoFault) {
      // Transient by design: the worker retries after backoff, by which
      // time the dead incarnation's EOF has usually been processed.
      reject_conn(pc, "no_free_slot");
      return;
    }
    if (rejoin) {
      if (restarts_used >= sup_.max_worker_restarts) {
        reject_conn(pc, "restart_budget_spent");
        return;
      }
      ++restarts_used;
      ++stats->worker_restarts;
    }
    Slot& slot = slots[chosen];
    shard::WelcomeInfo info;
    info.slot = chosen;
    info.incarnation = slot.incarnation;
    info.heartbeat_period_ms = heartbeat_period_ms;
    if (sp::write_frame(*pc.chan,
                        static_cast<std::uint8_t>(shard::MsgType::Welcome),
                        shard::encode_welcome(info)) != 0) {
      pc.chan->close();
      return;
    }
    ++slot.incarnation;
    slot.chan = std::move(pc.chan);
    slot.reader = std::move(pc.reader);
    slot.alive = true;
    slot.group.clear();
    slot.outstanding.clear();
    slot.in_flight = kNoFault;
    slot.shutdown_sent = false;
    slot.respawn_pending = false;
    slot.last_frame_ms = sp::steady_now_ms();
  };

  /// Accepts fresh connections and advances every pending handshake. A
  /// connection becomes a worker only through a Hello whose meta matches
  /// this campaign exactly.
  auto serve_handshakes = [&] {
    while (true) {
      int aerr = 0;
      const int cfd = netio::tcp_accept(sup_.listen_fd, aerr);
      if (cfd < 0) break;  // EAGAIN (nothing pending) or a transient error
      if (pending_conns.size() >= 64) {
        ::close(cfd);  // flood guard: the worker retries with backoff
        continue;
      }
      auto ch = std::make_unique<netio::SocketChannel>(cfd);
      ch->set_nonblocking();
      PendingConn pc;
      pc.reader = std::make_unique<sp::FrameReader>(*ch);
      pc.chan = std::move(ch);
      pc.deadline_ms = sp::steady_now_ms() + 5000;
      pending_conns.push_back(std::move(pc));
    }
    for (auto it = pending_conns.begin(); it != pending_conns.end();) {
      PendingConn& pc = *it;
      bool resolved = false;
      while (!resolved) {
        std::uint8_t type = 0;
        std::string payload;
        if (pc.reader->next(type, payload)) {
          if (static_cast<shard::MsgType>(type) != shard::MsgType::Hello) {
            continue;  // pre-Hello noise; the deadline bounds patience
          }
          JournalMeta hello_meta;
          if (!shard::decode_hello(payload, hello_meta) ||
              !(hello_meta == expected_meta)) {
            reject_conn(pc, "campaign_mismatch");
          } else if (stopping) {
            reject_conn(pc, "stopping");
          } else {
            admit_conn(pc);
          }
          resolved = true;
          break;
        }
        if (pc.reader->corrupt()) {
          pc.chan->close();
          resolved = true;
          break;
        }
        int err = 0;
        switch (pc.reader->feed(err)) {
          case sp::FrameReader::FeedStatus::Data:
            continue;
          case sp::FrameReader::FeedStatus::WouldBlock:
            break;
          case sp::FrameReader::FeedStatus::Eof:
          case sp::FrameReader::FeedStatus::Error:
            pc.chan->close();
            resolved = true;
            break;
        }
        if (!resolved) break;  // WouldBlock: try again next tick
      }
      if (!resolved && sp::steady_now_ms() >= pc.deadline_ms) {
        pc.chan->close();  // never said Hello; not a worker
        resolved = true;
      }
      it = resolved ? pending_conns.erase(it) : std::next(it);
    }
  };

  /// Drains and dispatches every complete frame from one worker. Returns
  /// false when the stream ended (EOF/error/corruption) — worker death.
  auto drain_frames = [&](std::size_t s) {
    Slot& slot = slots[s];
    while (true) {
      std::uint8_t type = 0;
      std::string payload;
      while (slot.reader->next(type, payload)) {
        slot.last_frame_ms = sp::steady_now_ms();
        switch (static_cast<shard::MsgType>(type)) {
          case shard::MsgType::FaultStart: {
            std::size_t k = kNoFault;
            if (shard::decode_fault_start(payload, k)) slot.in_flight = k;
            break;
          }
          case shard::MsgType::FaultResult: {
            MotBatchItem item;
            if (decode_journal_record(payload, run_baseline_, item)) {
              commit(item);
              slot.outstanding.erase(item.fault_index);
              if (slot.in_flight == item.fault_index) slot.in_flight = kNoFault;
            }
            break;
          }
          case shard::MsgType::GroupDone:
            // Defensive: anything the worker skipped goes back to the pool.
            if (!slot.outstanding.empty()) {
              std::vector<std::size_t> leftover;
              for (const std::size_t k : slot.group) {
                if (slot.outstanding.count(k) != 0) leftover.push_back(k);
              }
              queue.push_front(std::move(leftover));
            }
            slot.group.clear();
            slot.outstanding.clear();
            slot.in_flight = kNoFault;
            break;
          case shard::MsgType::Heartbeat:
            break;
          default:
            break;
        }
      }
      if (slot.reader->corrupt()) return false;
      int err = 0;
      switch (slot.reader->feed(err)) {
        case sp::FrameReader::FeedStatus::Data:
          continue;
        case sp::FrameReader::FeedStatus::WouldBlock:
          return true;
        case sp::FrameReader::FeedStatus::Eof:
        case sp::FrameReader::FeedStatus::Error:
          return false;
      }
    }
  };

  // Initial fleet: one worker per slot, capped by the number of groups —
  // idle processes would only dilute the kill/restart accounting. Remote
  // mode forks nothing: slots fill as workers connect and handshake.
  if (!remote) {
    const std::size_t initial =
        std::min<std::size_t>(workers, std::max<std::size_t>(queue.size(), 1));
    for (std::size_t s = 0; s < initial && !queue.empty(); ++s) {
      if (!spawn_slot(s)) continue;
      assign_group(slots[s], std::move(queue.front()));
      queue.pop_front();
    }
  }

  // ------------------------- supervision loop -------------------------
  while (true) {
    const std::uint64_t now = sp::steady_now_ms();

    if (!stopping &&
        ((cancel != nullptr && cancel->cancelled()) || campaign.expired() ||
         (journal != nullptr && journal->failed()))) {
      stopping = true;
      stop_deadline_ms = now + sup_.shutdown_grace_ms;
      for (Slot& slot : slots) request_shutdown(slot);
    }

    bool any_live = false;
    bool any_busy = false;
    bool any_respawn = false;
    for (const Slot& slot : slots) {
      any_live |= slot.alive;
      any_busy |= slot.alive && !slot.group.empty();
      any_respawn |= slot.respawn_pending;
    }

    if (!stopping) {
      if (queue.empty() && !any_busy) break;  // campaign complete
      if (!remote && !any_live && !any_respawn) {
        // Every worker is dead and the restart budget is spent: surrender
        // the remainder as incomplete (resumable), never hang.
        for (const auto& g : queue) stats->lost_faults += g.size();
        break;
      }
      if (remote && !any_live && now >= fleet_deadline_ms) {
        // No worker connected within the join window (or reconnected within
        // the rejoin window): the fleet is lost; same surrender as above.
        for (const auto& g : queue) stats->lost_faults += g.size();
        break;
      }
    } else {
      if (!any_live || now >= stop_deadline_ms) break;
    }

    // Respawns that have served their backoff (local), then admissions
    // (remote), then stealing — so a worker that joined this very tick can
    // claim work this very tick.
    if (!stopping) {
      if (!remote) {
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (!slots[s].respawn_pending || now < slots[s].respawn_at_ms) {
            continue;
          }
          slots[s].respawn_pending = false;
          if (queue.empty() && !any_busy) continue;  // nothing left to do
          if (spawn_slot(s)) ++stats->worker_restarts;
        }
      }
    }
    if (remote) serve_handshakes();
    if (!stopping) {
      // Work stealing: idle survivors immediately claim requeued groups.
      for (Slot& slot : slots) {
        if (queue.empty()) break;
        if (!slot.idle()) continue;
        assign_group(slot, std::move(queue.front()));
        queue.pop_front();
      }
    }

    // Wait for worker traffic (bounded so timeouts and respawns progress).
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_slot;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].alive) continue;
      fds.push_back({slots[s].reader->fd(), POLLIN, 0});
      fd_slot.push_back(s);
    }
    if (!fds.empty()) {
      const int r = ::poll(fds.data(), fds.size(), 20);
      if (r < 0 && errno != EINTR) break;  // coordinator fd table is broken
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // Frames, then reaping: a worker that exited cleanly after streaming
    // its last result must have that result committed before the reap.
    for (std::size_t f = 0; f < fds.size(); ++f) {
      const std::size_t s = fd_slot[f];
      if (!slots[s].alive) continue;
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!drain_frames(s)) {
        if (remote) {
          // Remote disconnect. During teardown it is the expected goodbye;
          // mid-campaign it is a death (even an idle worker's vanishing
          // matters: the rejoin window must open and the stats must show it).
          if (stopping) {
            slots[s].alive = false;
            close_slot_fds(slots[s]);
          } else {
            handle_death(s, "disconnect");
          }
          continue;
        }
        int status = 0;
        sp::wait_blocking(slots[s].child.pid, status);
        if (stopping || (sp::exited_cleanly(status) &&
                         slots[s].outstanding.empty())) {
          // Expected exit (shutdown or post-work EOF): not a death.
          slots[s].alive = false;
          close_slot_fds(slots[s]);
        } else {
          handle_death(s, sp::describe_wait_status(status));
        }
      }
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].alive || remote) continue;
      int status = 0;
      if (sp::try_wait(slots[s].child.pid, status) == 1) {
        drain_frames(s);  // final pipe contents survive the process
        if (stopping || (sp::exited_cleanly(status) &&
                         slots[s].outstanding.empty())) {
          slots[s].alive = false;
          close_slot_fds(slots[s]);
        } else {
          handle_death(s, sp::describe_wait_status(status));
        }
      }
    }

    // Liveness policing: heartbeat gaps and shard deadlines.
    const std::uint64_t policed = sp::steady_now_ms();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.alive) continue;
      if (sup_.heartbeat_ms > 0 &&
          policed - slot.last_frame_ms > sup_.heartbeat_ms) {
        kill_and_reap(s, "heartbeat_timeout");
        continue;
      }
      if (sup_.shard_deadline_ms > 0 && !slot.group.empty() &&
          policed - slot.group_assigned_ms > sup_.shard_deadline_ms) {
        kill_and_reap(s, "shard_deadline");
      }
    }
  }

  // Teardown: ask politely, then insist. Every result already streamed is
  // committed; workers that ignore Shutdown past the grace are SIGKILLed.
  for (Slot& slot : slots) request_shutdown(slot);
  const std::uint64_t teardown_deadline =
      sp::steady_now_ms() + sup_.shutdown_grace_ms;
  while (true) {
    bool any_live = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.alive) continue;
      if (remote) {
        // A remote worker acknowledges Shutdown by closing its end; there
        // is no process to reap here.
        if (!drain_frames(s)) {
          slot.alive = false;
          close_slot_fds(slot);
        } else {
          any_live = true;
        }
        continue;
      }
      if (slot.reader != nullptr && !drain_frames(s)) {
        int status = 0;
        sp::wait_blocking(slot.child.pid, status);
        slot.alive = false;
        close_slot_fds(slot);
        continue;
      }
      int status = 0;
      if (sp::try_wait(slot.child.pid, status) == 1) {
        slot.alive = false;
        close_slot_fds(slot);
        continue;
      }
      any_live = true;
    }
    if (!any_live) break;
    if (sp::steady_now_ms() >= teardown_deadline) {
      for (Slot& slot : slots) {
        if (!slot.alive) continue;
        if (remote) {
          slot.alive = false;
          close_slot_fds(slot);  // past the grace: hang up on the straggler
          continue;
        }
        ::kill(slot.child.pid, SIGKILL);
        int status = 0;
        sp::wait_blocking(slot.child.pid, status);
        slot.alive = false;
        close_slot_fds(slot);
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Connections that never finished their handshake get a door shut, not a
  // dangling socket. The listening fd stays open — the caller owns it.
  for (PendingConn& pc : pending_conns) {
    if (pc.chan != nullptr) pc.chan->close();
  }
  pending_conns.clear();

  // Shard files are fully merged into the main journal — retire them. If
  // the main journal failed mid-run they are the only durable copy of the
  // tail, so they are kept for the next resume's orphan harvest.
  if (journal != nullptr && !journal->failed()) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const std::string shard_path = worker_shard_path(jpath, s);
      if (!shard_path.empty()) ::unlink(shard_path.c_str());
    }
  }

  // One outcome per requested fault, always: whatever was neither resumed,
  // simulated, harvested, nor poisoned comes back incomplete — the resume
  // path re-runs exactly these.
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (done[i]) continue;
    items[i].completed = false;
    items[i].mot = MotResult{};
    items[i].mot.unresolved = UnresolvedReason::Cancelled;
    if (run_baseline_) {
      items[i].baseline = BaselineResult{};
      items[i].baseline.unresolved = UnresolvedReason::Cancelled;
    }
  }

  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  return items;
}

}  // namespace motsim
