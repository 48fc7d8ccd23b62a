#include "faultsim/remote.hpp"

#include <poll.h>

#include <algorithm>

#include "faultsim/checkpoint.hpp"
#include "faultsim/shard.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace motsim {

namespace sp = subprocess;

namespace {

/// Cancel-aware sleep in small poll slices (no signals: library code).
void sleep_ms(std::uint64_t ms, const CancelToken* cancel) {
  const std::uint64_t deadline = sp::steady_now_ms() + ms;
  while (sp::steady_now_ms() < deadline) {
    if (cancel != nullptr && cancel->cancelled()) return;
    const std::uint64_t left = deadline - sp::steady_now_ms();
    struct pollfd none = {-1, 0, 0};
    ::poll(&none, 0, static_cast<int>(std::min<std::uint64_t>(left, 50)));
  }
}

}  // namespace

int serve_remote_worker(const Circuit& c, MotOptions options, bool run_baseline,
                        const TestSequence& test, const SeqTrace& good,
                        const std::vector<Fault>& faults,
                        const RemoteWorkerOptions& opts,
                        RemoteWorkerReport* report, const CancelToken* cancel) {
  RemoteWorkerReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RemoteWorkerReport{};

  // Remote workers are serial lanes, exactly like forked ones: parallelism
  // is the worker count, and campaign budgets belong to the coordinator.
  MotOptions opt = options;
  opt.num_threads = 1;
  opt.campaign_time_ms = 0;
  const MotBatchRunner runner(c, opt, run_baseline);
  const shard::WorkerLane lane{runner, test, good, faults, run_baseline};
  shard::ServeOptions serve;
  serve.chaos_kill_permille = opts.chaos_kill_permille;
  serve.chaos_kill_seed = opts.chaos_kill_seed;
  serve.chaos_abort_fault = opts.chaos_abort_fault;
  serve.die_hard = opts.chaos_die_hard;
  serve.cancel = cancel;
  const JournalMeta meta =
      make_journal_meta(c.name(), faults.size(), test, opt, run_baseline);
  const std::string hello = shard::encode_hello(meta);

  // Journal records produced by this process, in production order. Replayed
  // after every reconnect; cleared only by an emulated chaos kill (a real
  // SIGKILL clears it by losing the process).
  std::vector<std::string> replay;

  RetrySchedule backoff(opts.reconnect_backoff);
  std::size_t consecutive_failures = 0;

  auto cancelled = [&] { return cancel != nullptr && cancel->cancelled(); };
  auto connect_failed = [&](const std::string& why) {
    ++consecutive_failures;
    if (consecutive_failures >= opts.max_connect_attempts) {
      report->error = why;
      return true;
    }
    sleep_ms(backoff.delay_us(consecutive_failures) / 1000, cancel);
    return false;
  };

  while (true) {
    if (cancelled()) {
      report->error = "cancelled";
      return kRemoteWorkerOk;
    }

    // ---- connect + handshake -----------------------------------------
    std::string conn_err;
    const int fd =
        netio::tcp_connect(opts.host, opts.port, opts.connect_deadline_ms,
                           conn_err);
    if (fd < 0) {
      if (connect_failed("connect: " + conn_err)) {
        return kRemoteWorkerTransportFailure;
      }
      continue;
    }
    netio::SocketChannel chan(fd);
    sp::FrameReader reader(chan);
    if (sp::write_frame(chan, static_cast<std::uint8_t>(shard::MsgType::Hello),
                        hello) != 0) {
      if (connect_failed("handshake write failed")) {
        return kRemoteWorkerTransportFailure;
      }
      continue;
    }

    shard::WelcomeInfo welcome;
    {
      const std::uint64_t deadline =
          sp::steady_now_ms() + opts.handshake_timeout_ms;
      bool have_verdict = false;
      bool ok = false;
      while (!have_verdict) {
        std::uint8_t type = 0;
        std::string payload;
        if (reader.next(type, payload)) {
          const auto mt = static_cast<shard::MsgType>(type);
          if (mt == shard::MsgType::Welcome) {
            have_verdict = true;
            ok = shard::decode_welcome(payload, welcome);
            if (!ok) report->error = "malformed welcome";
          } else if (mt == shard::MsgType::Reject) {
            // "no_free_slot" is a race, not a verdict: the coordinator has
            // not yet noticed our previous incarnation's death. Back off and
            // retry. Every other reason (wrong campaign, budget spent,
            // campaign stopping) is authoritative.
            if (payload == "no_free_slot") {
              have_verdict = false;
              report->error = "rejected: " + payload;
              break;
            }
            report->error = "rejected: " + payload;
            return kRemoteWorkerTransportFailure;
          }
          continue;  // anything else pre-welcome is ignored
        }
        if (reader.corrupt() || cancelled() ||
            sp::steady_now_ms() >= deadline) {
          break;
        }
        // A timeout only re-checks the deadline and the cancel token. A read
        // now would block until the coordinator answers, and a connection
        // still waiting in its accept queue is never answered.
        const int ready = sp::poll_readable(chan.poll_fd(), 100);
        if (ready < 0) break;
        if (ready == 0) continue;
        int err = 0;
        const auto fs = reader.feed(err);
        if (fs == sp::FrameReader::FeedStatus::Eof ||
            fs == sp::FrameReader::FeedStatus::Error) {
          break;
        }
      }
      if (cancelled()) {
        report->error = "cancelled";
        return kRemoteWorkerOk;
      }
      if (!have_verdict || !ok) {
        if (connect_failed(report->error.empty() ? "handshake timed out"
                                                 : report->error)) {
          return kRemoteWorkerTransportFailure;
        }
        continue;
      }
    }
    consecutive_failures = 0;
    ++report->connections;

    // ---- admitted: replay, then serve ----------------------------------
    // Replay first: anything this process already computed but the
    // coordinator may not have seen (the link died mid-stream). Duplicates
    // are dropped by the coordinator's idempotent commit.
    shard::ServeEnd end = shard::ServeEnd::Lost;
    bool replay_ok = true;
    for (const std::string& record : replay) {
      if (sp::write_frame(
              chan, static_cast<std::uint8_t>(shard::MsgType::FaultResult),
              record) != 0) {
        replay_ok = false;
        break;
      }
      ++report->replayed_records;
    }
    if (replay_ok) {
      serve.heartbeat_period_ms = welcome.heartbeat_period_ms;
      serve.incarnation = welcome.incarnation;
      end = shard::serve_assignments(
          chan, reader, lane, serve,
          [&](const MotBatchItem& /*item*/, const std::string& record) {
            ++report->faults_simulated;
            replay.push_back(record);
          });
    }
    chan.close();

    switch (end) {
      case shard::ServeEnd::Shutdown:
        report->clean_shutdown = true;
        return kRemoteWorkerOk;
      case shard::ServeEnd::Cancelled:
        report->error = "cancelled";
        return kRemoteWorkerOk;
      case shard::ServeEnd::ChaosKilled:
        // Emulated SIGKILL: the "process" loses everything it knew and a
        // fresh one reconnects. The coordinator sees an abrupt disconnect
        // followed by a new incarnation — indistinguishable from the real
        // signal, minus the lost test binary.
        replay.clear();
        ++report->chaos_kills;
        continue;
      case shard::ServeEnd::Lost:
        if (connect_failed("connection lost")) {
          return kRemoteWorkerTransportFailure;
        }
        continue;
    }
  }
}

}  // namespace motsim
