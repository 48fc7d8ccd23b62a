// Remote worker of the multi-host campaign supervisor.
//
// A distributed campaign runs one coordinator (SupervisedMotRunner with
// SupervisorOptions::listen_fd set — the `--listen` CLI mode) and any number
// of worker processes, possibly on other hosts, each running
// serve_remote_worker (`--connect`). The worker rebuilds the exact same
// deterministic pipeline the coordinator runs — circuit, test sequence,
// options — from its own flags, proves it via the JournalMeta handshake
// (shard.hpp), and then serves Assign/Shutdown frames over TCP with the
// same loop a forked pipe worker runs (shard::serve_assignments). The two
// worker kinds share that loop, and the coordinator gives both the same
// one-channel slot; they differ only in spawn (connect vs fork), handshake
// (Hello/Welcome vs none) and replay (in-memory log vs journal shard).
//
// Robustness contract (the whole point of this layer):
//
//  * reconnect w/ backoff   a dropped connection — coordinator restart,
//                           network partition, chaos proxy sever — is
//                           weather: the worker reconnects under its
//                           RetryPolicy and re-handshakes for a fresh slot
//                           incarnation. Only a Reject (wrong campaign,
//                           restart budget spent) or an exhausted attempt
//                           budget ends the worker, with exit code 6.
//  * replay on reconnect    every journal record the worker has produced in
//                           this process is kept in an in-memory replay log
//                           and re-streamed after each reconnect. Records
//                           are deterministic bytes and the coordinator's
//                           commit is idempotent (first record per fault
//                           wins, later duplicates are dropped), so replay
//                           can only fill gaps — results that were in flight
//                           when the link died are never lost, and never
//                           double-counted.
//  * no process-level state this is library code (the chaos tests run
//                           several workers as plain threads inside one
//                           test binary): no signal handlers, no _exit, no
//                           globals. The CLI owns signals and exit codes.
//
// The chaos hooks are the fork-mode worker's, in the same shared loop: the
// seeded kill schedule fires after FaultStart, before the result. With
// `chaos_die_hard` the worker raises SIGKILL for real (CLI processes); the
// in-process tests leave it false and get an *emulated* kill instead — the
// worker drops its connection, forgets its replay log (a killed process
// loses its memory), and reconnects as a fresh incarnation. Both look
// identical to the coordinator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/batch.hpp"
#include "util/errors.hpp"

namespace motsim {

struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Per-attempt connect deadline (nonblocking connect; a black-holed
  /// coordinator fails after this, never hangs the reconnect loop).
  std::uint64_t connect_deadline_ms = 5000;

  /// Consecutive failed connect/handshake attempts before the worker gives
  /// up (exit code 6). A successful handshake resets the count.
  std::size_t max_connect_attempts = 10;

  /// Backoff between reconnect attempts (deterministic-jitter policy shared
  /// with the journal and supervisor retries).
  RetryPolicy reconnect_backoff;

  /// How long to wait for the coordinator's Welcome/Reject after Hello.
  std::uint64_t handshake_timeout_ms = 10000;

  /// --- chaos hooks (tests and the chaos CLI flags) ---------------------
  std::uint64_t chaos_kill_permille = 0;
  std::uint64_t chaos_kill_seed = 0;
  std::size_t chaos_abort_fault = static_cast<std::size_t>(-1);
  /// true: a chaos kill raises SIGKILL (CLI worker processes only).
  /// false: the kill is emulated in-process — drop the connection, clear
  /// the replay log, reconnect as a fresh incarnation — so threaded tests
  /// can exercise the coordinator's death handling without losing the test
  /// process itself.
  bool chaos_die_hard = false;
};

/// What one worker did across all its connections. Diagnostic only.
struct RemoteWorkerReport {
  std::size_t connections = 0;       ///< successful handshakes (incarnations)
  std::size_t faults_simulated = 0;  ///< results computed in this process
  std::size_t replayed_records = 0;  ///< records re-streamed after reconnects
  std::size_t chaos_kills = 0;       ///< emulated chaos deaths
  bool clean_shutdown = false;       ///< ended via a Shutdown frame
  std::string error;                 ///< "" unless the return code is nonzero
};

/// Process exit codes of the worker CLI mode (tests/cli_exit_codes_test.sh).
inline constexpr int kRemoteWorkerOk = 0;
inline constexpr int kRemoteWorkerTransportFailure = 6;

/// Serves MOT fault simulation to a remote coordinator until a Shutdown
/// frame (returns kRemoteWorkerOk), the coordinator rejects or disappears
/// past the attempt budget (kRemoteWorkerTransportFailure), or `cancel`
/// trips (kRemoteWorkerOk with report->error = "cancelled"). `c`, `test`,
/// `good` and `faults` must be the same deterministic pipeline the
/// coordinator built; the handshake enforces it.
int serve_remote_worker(const Circuit& c, MotOptions options, bool run_baseline,
                        const TestSequence& test, const SeqTrace& good,
                        const std::vector<Fault>& faults,
                        const RemoteWorkerOptions& opts,
                        RemoteWorkerReport* report = nullptr,
                        const CancelToken* cancel = nullptr);

}  // namespace motsim
