#include "verify/checks.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bdd/symbolic.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "faultsim/full_faultsim.hpp"
#include "faultsim/parallel.hpp"
#include "faultsim/remote.hpp"
#include "faultsim/supervisor.hpp"
#include "mot/oracle.hpp"
#include "netlist/iscas_io.hpp"
#include "sim/seq_sim.hpp"
#include "util/chaos_proxy.hpp"
#include "util/fsio.hpp"
#include "util/socket.hpp"
#include "util/sha256.hpp"
#include "util/strings.hpp"

namespace motsim::verify {

std::string_view check_name(CheckId c) {
  switch (c) {
    case CheckId::ConvImpliesImpl: return "conv-implies-impl";
    case CheckId::ImplImpliesProposed: return "impl-implies-proposed";
    case CheckId::BaselineImpliesProposed: return "baseline-implies-proposed";
    case CheckId::ProposedImpliesGeneral: return "proposed-implies-general";
    case CheckId::ConventionalSound: return "conventional-sound";
    case CheckId::ImplicationOnlySound: return "implication-only-sound";
    case CheckId::ProposedSound: return "proposed-sound";
    case CheckId::BaselineSound: return "baseline-sound";
    case CheckId::GeneralSound: return "general-sound";
    case CheckId::OraclesAgree: return "oracles-agree";
    case CheckId::PlainMatchesBaseline: return "plain-matches-baseline";
    case CheckId::BudgetMonotonic: return "budget-monotonic";
    case CheckId::ThreadInvariance: return "thread-invariance";
    case CheckId::ResumeEquivalence: return "resume-equivalence";
    case CheckId::WorkerQuarantine: return "worker-quarantine";
    case CheckId::FaultedResume: return "faulted-resume";
    case CheckId::WorkerKill: return "worker-kill";
    case CheckId::RemoteWorkerKill: return "remote-worker-kill";
    case CheckId::PrepassMatchesSerial: return "prepass-matches-serial";
    case CheckId::IscasConformance: return "iscas-conformance";
    case CheckId::All: return "all";
  }
  return "?";
}

bool check_from_name(std::string_view name, CheckId& out) {
  for (std::uint8_t v = 0; v <= static_cast<std::uint8_t>(CheckId::All); ++v) {
    const CheckId c = static_cast<CheckId>(v);
    if (name == check_name(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

namespace {

bool enabled(const VerifyOptions& opts, CheckId c) {
  return opts.only == CheckId::All || opts.only == c;
}

bool fully_specified(const TestSequence& test) {
  for (std::size_t u = 0; u < test.length(); ++u) {
    for (std::size_t i = 0; i < test.num_inputs(); ++i) {
      if (!is_specified(test.at(u, i))) return false;
    }
  }
  return true;
}

/// Exact restricted-MOT ground truth for one fault, from whichever exact
/// method is in range; `witness` is a non-conflicting initial state when the
/// symbolic enumeration produced one.
struct GroundTruth {
  bool have = false;
  bool detected = false;
  std::string source;
  std::optional<std::uint64_t> witness;
};

void add(std::vector<Violation>& out, CheckId check, const Fault& f,
         std::string detail) {
  out.push_back(Violation{check, f, std::move(detail)});
}

/// Budget outcomes that excuse a missing proposed-engine detection in the
/// subsumption checks. NStates is deliberately *not* here for the
/// implication-only and baseline edges: an NStates abort means collection
/// and the §3.2 check ran to completion (which subsumes implication-only)
/// and the plain-expansion fallback ran (which subsumes the baseline), so a
/// detection either engine found must have been found too.
bool stopped_by_external_budget(UnresolvedReason r) {
  return r == UnresolvedReason::Deadline || r == UnresolvedReason::WorkLimit ||
         r == UnresolvedReason::Cancelled || r == UnresolvedReason::PairCap ||
         r == UnresolvedReason::EngineError;
}

std::string describe(const Circuit& c, const Fault& f) {
  return fault_name(c, f);
}

/// ExpansionBaseline's relabeling of a plain proposed run, restated here so
/// PlainMatchesBaseline detects drift in the wrapper itself.
BaselineResult relabel_plain(const MotResult& r) {
  BaselineResult out;
  out.detected = r.detected;
  out.detected_conventional = r.detected_conventional;
  out.passes_c = r.passes_c;
  out.expansions = r.expansions;
  out.final_sequences = r.final_sequences;
  out.aborted = r.passes_c && !r.detected;
  out.unresolved = r.unresolved;
  return out;
}

void check_one_fault(EngineSet& engines, const TestSequence& test,
                     const SeqTrace& good, const Fault& f,
                     const VerifyOptions& opts, std::vector<Violation>& out) {
  const Circuit& c = engines.circuit();
  const EngineOutcomes eo = engines.run(test, good, f);
  const DetectionClass conv = classify(eo.conv);
  const DetectionClass impl = classify(eo.impl);
  const DetectionClass prop = classify(eo.proposed);
  const DetectionClass base = classify(eo.baseline);
  const DetectionClass gen = classify(eo.general);

  // --- Subsumption chain -------------------------------------------------
  if (enabled(opts, CheckId::ConvImpliesImpl) &&
      conv == DetectionClass::Detected && impl == DetectionClass::Undetected) {
    add(out, CheckId::ConvImpliesImpl, f,
        str_format("%s: conventional detects but implication-only does not",
                   describe(c, f).c_str()));
  }
  if (enabled(opts, CheckId::ImplImpliesProposed) &&
      impl == DetectionClass::Detected && prop != DetectionClass::Detected &&
      !stopped_by_external_budget(eo.proposed.unresolved)) {
    add(out, CheckId::ImplImpliesProposed, f,
        str_format("%s: implication-only detects but proposed ends %s (%s)",
                   describe(c, f).c_str(),
                   std::string(detection_class_name(prop)).c_str(),
                   to_string(eo.proposed.unresolved)));
  }
  if (enabled(opts, CheckId::BaselineImpliesProposed) &&
      base == DetectionClass::Detected && prop != DetectionClass::Detected &&
      !stopped_by_external_budget(eo.proposed.unresolved)) {
    add(out, CheckId::BaselineImpliesProposed, f,
        str_format("%s: [4] baseline detects but proposed ends %s (%s)",
                   describe(c, f).c_str(),
                   std::string(detection_class_name(prop)).c_str(),
                   to_string(eo.proposed.unresolved)));
  }
  if (enabled(opts, CheckId::ProposedImpliesGeneral) &&
      prop == DetectionClass::Detected && gen == DetectionClass::Undetected) {
    add(out, CheckId::ProposedImpliesGeneral, f,
        str_format("%s: proposed (restricted) detects but general MOT does not",
                   describe(c, f).c_str()));
  }

  // --- Ground truth ------------------------------------------------------
  // Exact only for fully specified stimulus; partially specified corpus
  // entries still get the full subsumption/agreement/monotonicity lattice.
  GroundTruth gt;
  const bool full = fully_specified(test);
  if (full) {
    SymbolicOptions sym_opt;
    sym_opt.node_budget = opts.symbolic_node_budget;
    const SymbolicEnumeration sym =
        symbolic_enumerate_initial_states(c, test, good, f, sym_opt);
    OracleVerdict oracle;
    if (c.num_dffs() <= opts.oracle_max_ffs) {
      oracle = restricted_mot_oracle(c, test, good, f, opts.oracle_max_ffs);
    }
    if (enabled(opts, CheckId::OraclesAgree) && sym.computable &&
        oracle.computable && sym.detected != oracle.detected) {
      add(out, CheckId::OraclesAgree, f,
          str_format("%s: exhaustive oracle says %s, BDD enumeration says %s "
                     "(%llu/%llu states detected)",
                     describe(c, f).c_str(),
                     oracle.detected ? "detected" : "undetected",
                     sym.detected ? "detected" : "undetected",
                     static_cast<unsigned long long>(sym.detected_states),
                     static_cast<unsigned long long>(sym.num_states)));
    }
    if (sym.computable) {
      gt = {true, sym.detected, "bdd-enumeration", sym.undetected_witness};
    } else if (oracle.computable) {
      gt = {true, oracle.detected, "exhaustive-oracle", std::nullopt};
    }
  }

  const auto unsound = [&](CheckId check, DetectionClass d, const char* who) {
    if (!enabled(opts, check)) return;
    if (d != DetectionClass::Detected || !gt.have || gt.detected) return;
    std::string detail = str_format(
        "%s: %s claims detection but ground truth (%s) says undetected",
        describe(c, f).c_str(), who, gt.source.c_str());
    if (gt.witness) {
      detail += str_format("; undetected initial state 0x%llx",
                           static_cast<unsigned long long>(*gt.witness));
    }
    add(out, check, f, std::move(detail));
  };
  unsound(CheckId::ConventionalSound, conv, "conventional");
  unsound(CheckId::ImplicationOnlySound, impl, "implication-only");
  unsound(CheckId::ProposedSound, prop, "proposed");
  unsound(CheckId::BaselineSound, base, "[4] baseline");
  // Like the restricted ground truth, the general oracle's "undetected" is
  // only a refutation when the stimulus is fully specified.
  if (enabled(opts, CheckId::GeneralSound) && full &&
      gen == DetectionClass::Detected &&
      c.num_dffs() <= opts.general_oracle_max_ffs) {
    const OracleVerdict g =
        general_mot_oracle(c, test, f, opts.general_oracle_max_ffs);
    if (g.computable && !g.detected) {
      add(out, CheckId::GeneralSound, f,
          str_format("%s: general MOT claims detection but the general oracle "
                     "says undetected",
                     describe(c, f).c_str()));
    }
  }

  // --- Baseline wrapper agreement ---------------------------------------
  if (enabled(opts, CheckId::PlainMatchesBaseline)) {
    const BaselineResult expect = relabel_plain(eo.plain);
    if (!(expect == eo.baseline)) {
      add(out, CheckId::PlainMatchesBaseline, f,
          str_format("%s: ExpansionBaseline (det=%d exp=%zu seq=%zu ab=%d) != "
                     "proposed-without-implications (det=%d exp=%zu seq=%zu "
                     "ab=%d)",
                     describe(c, f).c_str(), int(eo.baseline.detected),
                     eo.baseline.expansions, eo.baseline.final_sequences,
                     int(eo.baseline.aborted), int(expect.detected),
                     expect.expansions, expect.final_sequences,
                     int(expect.aborted)));
    }
  }

  // --- Budget monotonicity ----------------------------------------------
  if (enabled(opts, CheckId::BudgetMonotonic)) {
    std::vector<std::uint64_t> limits = opts.work_limits;
    limits.push_back(0);  // unlimited
    bool detected_at_smaller = false;
    std::uint64_t smaller = 0;
    for (const std::uint64_t limit : limits) {
      MotOptions o = opts.mot;
      o.per_fault_work_limit = limit;
      o.per_fault_time_ms = 0;
      const MotResult r = engines.run_proposed(o, test, good, f);
      if (detected_at_smaller && !r.detected) {
        add(out, CheckId::BudgetMonotonic, f,
            str_format("%s: detected with work limit %llu but %s with the "
                       "larger limit %llu",
                       describe(c, f).c_str(),
                       static_cast<unsigned long long>(smaller),
                       std::string(detection_class_name(classify(r))).c_str(),
                       static_cast<unsigned long long>(limit)));
        break;
      }
      if (r.detected && !detected_at_smaller) {
        detected_at_smaller = true;
        smaller = limit;
      }
    }
  }
}

std::string scratch_journal_path(const VerifyOptions& opts) {
  std::string dir = opts.scratch_dir;
  if (dir.empty()) {
    const char* t = std::getenv("TMPDIR");
    dir = (t != nullptr && *t != '\0') ? t : "/tmp";
  }
  static std::atomic<std::uint64_t> seq{0};
  return dir + "/motsim_verify_" + std::to_string(::getpid()) + "_" +
         std::to_string(seq.fetch_add(1)) + ".journal";
}

std::string item_summary(const MotBatchItem& item) {
  return str_format("det=%d phase=%u exp=%zu seq=%zu work=%llu unres=%s "
                    "base_det=%d",
                    int(item.mot.detected),
                    unsigned(static_cast<std::uint8_t>(item.mot.phase)),
                    item.mot.expansions, item.mot.final_sequences,
                    static_cast<unsigned long long>(item.mot.work_used),
                    to_string(item.mot.unresolved), int(item.baseline.detected));
}

/// The StaleResume mutant: a serializer that loses fields.
MotBatchItem strip_for_resume(MotBatchItem item) {
  item.mot.work_used = 0;
  item.mot.counters = EffectivenessCounters{};
  return item;
}

void check_thread_invariance(const Circuit& c, const TestSequence& test,
                             const SeqTrace& good,
                             const std::vector<Fault>& faults,
                             const VerifyOptions& opts,
                             std::vector<Violation>& out) {
  if (opts.thread_counts.size() < 2 || faults.empty()) return;
  std::vector<std::size_t> indices(faults.size());
  for (std::size_t k = 0; k < indices.size(); ++k) indices[k] = k;

  // Random selection is the hardest case for determinism: it exercises the
  // per-fault reseed machinery the batch driver relies on.
  std::vector<std::vector<MotBatchItem>> runs;
  for (const std::size_t threads : opts.thread_counts) {
    MotOptions o = opts.mot;
    o.selection = SelectionPolicy::Random;
    o.num_threads = threads;
    if (opts.mutant == Mutant::ThreadSeedDrift) {
      o.selection_seed += threads;
    }
    const MotBatchRunner runner(c, o, /*run_baseline=*/true);
    runs.push_back(runner.run(test, good, faults, indices));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (runs[0][i] == runs[r][i]) continue;
      add(out, CheckId::ThreadInvariance, faults[i],
          str_format("%s: batch item differs between %zu and %zu threads: "
                     "[%s] vs [%s]",
                     describe(c, faults[i]).c_str(), opts.thread_counts[0],
                     opts.thread_counts[r], item_summary(runs[0][i]).c_str(),
                     item_summary(runs[r][i]).c_str()));
      return;  // first divergence is the actionable one
    }
  }
}

void check_resume_equivalence(const Circuit& c, const TestSequence& test,
                              const SeqTrace& good,
                              const std::vector<Fault>& faults,
                              const VerifyOptions& opts,
                              std::vector<Violation>& out) {
  if (faults.empty()) return;
  std::vector<std::size_t> indices(faults.size());
  for (std::size_t k = 0; k < indices.size(); ++k) indices[k] = k;

  MotOptions o = opts.mot;
  o.num_threads = 1;
  const MotBatchRunner runner(c, o, /*run_baseline=*/true);
  const std::vector<MotBatchItem> reference =
      runner.run(test, good, faults, indices);

  // Emulate a campaign killed after the first half: its journal holds
  // exactly those records (round-tripped through the real serializer).
  const JournalMeta meta =
      make_journal_meta(c.name(), faults.size(), test, o, /*baseline=*/true);
  const std::string path = scratch_journal_path(opts);
  std::string err;
  {
    auto journal = CampaignJournal::create(path, meta, err);
    if (journal == nullptr) {
      add(out, CheckId::ResumeEquivalence, faults[0],
          "cannot create scratch journal: " + err);
      return;
    }
    const std::size_t half = (reference.size() + 1) / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const MotBatchItem item = opts.mutant == Mutant::StaleResume
                                    ? strip_for_resume(reference[i])
                                    : reference[i];
      journal->append(item);
    }
  }
  auto journal = CampaignJournal::open_resume(path, meta, err);
  if (journal == nullptr) {
    add(out, CheckId::ResumeEquivalence, faults[0],
        "journal written by this campaign does not resume: " + err);
    std::remove(path.c_str());
    return;
  }
  const std::vector<MotBatchItem> resumed =
      runner.run(test, good, faults, indices, journal.get());
  journal.reset();
  std::remove(path.c_str());

  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (resumed[i] == reference[i]) continue;
    add(out, CheckId::ResumeEquivalence, faults[i],
        str_format("%s: resumed campaign differs from uninterrupted run: "
                   "[%s] vs [%s]",
                   describe(c, faults[i]).c_str(),
                   item_summary(resumed[i]).c_str(),
                   item_summary(reference[i]).c_str()));
    return;
  }
}

void check_worker_quarantine(const Circuit& c, const TestSequence& test,
                             const SeqTrace& good,
                             const std::vector<Fault>& faults,
                             const VerifyOptions& opts,
                             std::vector<Violation>& out) {
  if (faults.empty() || opts.thread_counts.empty()) return;
  std::vector<std::size_t> indices(faults.size());
  for (std::size_t k = 0; k < indices.size(); ++k) indices[k] = k;
  const std::size_t target = 0;  // the fault whose engine "crashes"

  // Reference: the clean batch at the reference thread count. The quarantine
  // must be contained — every fault other than the target must come out
  // exactly as it would have without the injected error.
  MotOptions base = opts.mot;
  base.num_threads = opts.thread_counts[0];
  const MotBatchRunner clean(c, base, /*run_baseline=*/true);
  const std::vector<MotBatchItem> reference =
      clean.run(test, good, faults, indices);

  std::vector<MotBatchItem> first_run;
  std::size_t first_threads = 0;
  for (const std::size_t threads : opts.thread_counts) {
    MotOptions o = opts.mot;
    o.num_threads = threads;
    MotBatchRunner runner(c, o, /*run_baseline=*/true);
    runner.set_fault_hook([target](std::size_t k) {
      if (k == target) {
        throw std::runtime_error("verify-injected engine fault");
      }
    });
    std::vector<MotBatchItem> items = runner.run(test, good, faults, indices);

    if (opts.mutant == Mutant::SwallowWorkerException) {
      // The planted bug: the driver's catch-all eats the exception and
      // reports a pristine, evidence-free item.
      MotBatchItem& it = items[target];
      it.mot = MotResult{};
      it.baseline = BaselineResult{};
      it.degrade = DegradeLevel::None;
      it.error.clear();
      it.completed = true;
    }

    const MotBatchItem& q = items[target];
    const bool evidence =
        !q.error.empty() &&
        (q.mot.unresolved == UnresolvedReason::EngineError ||
         q.degrade != DegradeLevel::None);
    if (!evidence) {
      add(out, CheckId::WorkerQuarantine, faults[target],
          str_format("%s: injected engine error at %zu threads left no "
                     "evidence (error=\"%s\" unresolved=%s degrade=%s)",
                     describe(c, faults[target]).c_str(), threads,
                     q.error.c_str(), to_string(q.mot.unresolved),
                     to_string(q.degrade)));
      return;
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (i == target || items[i] == reference[i]) continue;
      add(out, CheckId::WorkerQuarantine, faults[i],
          str_format("%s: quarantining fault %zu perturbed this fault at %zu "
                     "threads: [%s] vs clean [%s]",
                     describe(c, faults[i]).c_str(), target, threads,
                     item_summary(items[i]).c_str(),
                     item_summary(reference[i]).c_str()));
      return;
    }
    if (first_run.empty()) {
      first_run = std::move(items);
      first_threads = threads;
      continue;
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (items[i] == first_run[i]) continue;
      add(out, CheckId::WorkerQuarantine, faults[i],
          str_format("%s: quarantined batch differs between %zu and %zu "
                     "threads: [%s] vs [%s]",
                     describe(c, faults[i]).c_str(), first_threads, threads,
                     item_summary(first_run[i]).c_str(),
                     item_summary(items[i]).c_str()));
      return;
    }
  }
}

void check_faulted_resume(const Circuit& c, const TestSequence& test,
                          const SeqTrace& good,
                          const std::vector<Fault>& faults,
                          const VerifyOptions& opts,
                          std::vector<Violation>& out) {
  if (faults.empty() || opts.thread_counts.empty()) return;
  std::vector<std::size_t> indices(faults.size());
  for (std::size_t k = 0; k < indices.size(); ++k) indices[k] = k;

  MotOptions o = opts.mot;
  o.num_threads = 1;
  const MotBatchRunner serial(c, o, /*run_baseline=*/true);
  const std::vector<MotBatchItem> reference =
      serial.run(test, good, faults, indices);
  const JournalMeta meta =
      make_journal_meta(c.name(), faults.size(), test, o, /*baseline=*/true);

  // Zero-delay retries: the schedules are exercised, the check stays fast.
  RetryPolicy fast;
  fast.base_delay_us = 0;
  fast.max_delay_us = 0;

  struct Scenario {
    const char* name;
    fsio::FaultPlan plan;  ///< fail_at_op == 0 → no I/O fault injected
    bool signal = false;   ///< emulate SIGINT mid-campaign via CancelToken
  };
  // fail_at_op 12 lands inside the append stream (journal creation costs
  // ~7 ops); on tiny fault lists the fault may simply never fire, which
  // degenerates to a plain resume check, not a false violation.
  const Scenario scenarios[] = {
      {"crash-mid-append", {12, fsio::FaultKind::Crash, EIO, 1}, false},
      {"enospc-persistent",
       {12, fsio::FaultKind::Errno, ENOSPC, UINT64_MAX},
       false},
      {"eagain-transient", {12, fsio::FaultKind::Errno, EAGAIN, 2}, false},
      {"signal-mid-campaign", {}, true},
  };

  for (const Scenario& s : scenarios) {
    const std::string path = scratch_journal_path(opts);
    fsio::FaultInjectingFsIo io(s.plan);
    CancelToken cancel;
    std::string err;
    {
      auto journal = CampaignJournal::create(path, meta, err, &io);
      if (journal == nullptr) {
        add(out, CheckId::FaultedResume, faults[0],
            str_format("%s: cannot create scratch journal: %s", s.name,
                       err.c_str()));
        continue;
      }
      journal->set_retry_policy(fast, [](std::uint64_t) {});
      MotBatchRunner runner(c, o, /*run_baseline=*/true);
      if (s.signal) {
        const std::size_t mid = faults.size() / 2;
        runner.set_fault_hook([&cancel, mid](std::size_t k) {
          if (k == mid) cancel.cancel();
        });
      }
      runner.run(test, good, faults, indices, journal.get(), &cancel);
    }
    // Recovery on the healthy filesystem: resuming the faulted campaign at
    // the reference and the widest thread count must reproduce the
    // uninterrupted run exactly.
    for (const std::size_t threads :
         {opts.thread_counts.front(), opts.thread_counts.back()}) {
      auto journal = CampaignJournal::open_resume(path, meta, err);
      if (journal == nullptr) {
        add(out, CheckId::FaultedResume, faults[0],
            str_format("%s: faulted journal does not resume: %s", s.name,
                       err.c_str()));
        break;
      }
      MotOptions ro = opts.mot;
      ro.num_threads = threads;
      const MotBatchRunner recovery(c, ro, /*run_baseline=*/true);
      const std::vector<MotBatchItem> resumed =
          recovery.run(test, good, faults, indices, journal.get());
      bool diverged = false;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (resumed[i] == reference[i]) continue;
        add(out, CheckId::FaultedResume, faults[i],
            str_format("%s: resumed campaign at %zu threads differs from the "
                       "uninterrupted run for %s: [%s] vs [%s]",
                       s.name, threads, describe(c, faults[i]).c_str(),
                       item_summary(resumed[i]).c_str(),
                       item_summary(reference[i]).c_str()));
        diverged = true;
        break;
      }
      if (diverged) break;
    }
    std::remove(path.c_str());
  }
}

void check_worker_kill(const Circuit& c, const TestSequence& test,
                       const SeqTrace& good, const std::vector<Fault>& faults,
                       const VerifyOptions& opts, std::vector<Violation>& out) {
  if (faults.empty()) return;
  std::vector<std::size_t> indices(faults.size());
  for (std::size_t k = 0; k < indices.size(); ++k) indices[k] = k;

  MotOptions o = opts.mot;
  o.num_threads = 1;
  const MotBatchRunner serial(c, o, /*run_baseline=*/true);
  const std::vector<MotBatchItem> reference =
      serial.run(test, good, faults, indices);

  // Chaos schedule: roughly a quarter of the fault attempts SIGKILL their
  // worker. Attempts and restarts are effectively unbounded so no fault is
  // poisoned — every outcome must come from a real simulation, making
  // bit-identity with the serial reference the whole obligation.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SupervisorOptions sup;
    sup.workers = workers;
    sup.heartbeat_ms = 20000;
    sup.shutdown_grace_ms = 20000;
    sup.restart_backoff.base_delay_us = 0;
    sup.chaos_kill_permille = 250;
    sup.chaos_kill_seed = 0x5eed + workers;
    sup.max_fault_attempts = 1000;
    sup.max_worker_restarts = 10000;
    const SupervisedMotRunner runner(c, o, /*run_baseline=*/true, sup);
    SupervisorStats stats;
    const std::vector<MotBatchItem> got =
        runner.run(test, good, faults, indices, nullptr, nullptr, &stats);
    if (stats.poisoned_faults != 0 || stats.lost_faults != 0) {
      add(out, CheckId::WorkerKill, faults[0],
          str_format("chaos run at %zu workers lost work it had budget to "
                     "retry: %zu poisoned, %zu lost (%zu deaths)",
                     workers, stats.poisoned_faults, stats.lost_faults,
                     stats.worker_deaths));
      return;
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (got[i] == reference[i]) continue;
      add(out, CheckId::WorkerKill, faults[i],
          str_format("%s: supervised result at %zu workers (%zu deaths) "
                     "differs from the in-process run: [%s] vs [%s]",
                     describe(c, faults[i]).c_str(), workers,
                     stats.worker_deaths, item_summary(got[i]).c_str(),
                     item_summary(reference[i]).c_str()));
      return;
    }
  }
}

void check_remote_worker_kill(const Circuit& c, const TestSequence& test,
                              const SeqTrace& good,
                              const std::vector<Fault>& faults,
                              const VerifyOptions& opts,
                              std::vector<Violation>& out) {
  if (faults.empty()) return;
  std::vector<std::size_t> indices(faults.size());
  for (std::size_t k = 0; k < indices.size(); ++k) indices[k] = k;

  MotOptions o = opts.mot;
  o.num_threads = 1;
  const MotBatchRunner serial(c, o, /*run_baseline=*/true);
  const std::vector<MotBatchItem> reference =
      serial.run(test, good, faults, indices);

  // Loopback remote campaign under compound chaos: the workers join through
  // a seeded proxy that severs their first connections mid-stream, and on
  // top of that a seeded kill schedule wipes worker state (emulated SIGKILL:
  // dropped link, forgotten replay log, fresh incarnation). Attempts and
  // restarts are effectively unbounded, so bit-identity with the serial
  // reference is again the whole obligation.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    std::string error;
    const int listen_fd = netio::tcp_listen("127.0.0.1", 0, error);
    if (listen_fd < 0) {
      add(out, CheckId::RemoteWorkerKill, faults[0],
          str_format("cannot open a loopback listener: %s", error.c_str()));
      return;
    }
    const std::uint16_t port = netio::local_port(listen_fd);
    netio::ChaosProxyPlan plan;
    plan.seed = 0xc4a05 + workers;
    plan.sever_after_bytes = 400;
    plan.max_severs = workers;  // every worker's first link gets cut, then
                                // the proxy behaves: completion is assured
    netio::ChaosProxy proxy(port, plan);
    if (!proxy.ok()) {
      ::close(listen_fd);
      add(out, CheckId::RemoteWorkerKill, faults[0],
          str_format("cannot start the chaos proxy: %s",
                     proxy.error().c_str()));
      return;
    }

    RemoteWorkerOptions ropts;
    ropts.port = proxy.port();
    ropts.max_connect_attempts = 100;
    ropts.reconnect_backoff.base_delay_us = 1000;
    ropts.reconnect_backoff.max_delay_us = 20000;
    ropts.chaos_kill_permille = 250;
    ropts.chaos_kill_seed = 0x5eed + workers;
    std::vector<std::thread> fleet;
    std::vector<int> rcs(workers, -1);
    for (std::size_t w = 0; w < workers; ++w) {
      fleet.emplace_back([&, w] {
        rcs[w] = serve_remote_worker(c, o, /*run_baseline=*/true, test, good,
                                     faults, ropts);
      });
    }

    SupervisorOptions sup;
    sup.workers = workers;
    sup.listen_fd = listen_fd;
    sup.heartbeat_ms = 20000;
    sup.shutdown_grace_ms = 20000;
    sup.restart_backoff.base_delay_us = 0;
    sup.max_fault_attempts = 1000;
    sup.max_worker_restarts = 10000;
    const SupervisedMotRunner runner(c, o, /*run_baseline=*/true, sup);
    SupervisorStats stats;
    const std::vector<MotBatchItem> got =
        runner.run(test, good, faults, indices, nullptr, nullptr, &stats);
    ::close(listen_fd);  // orphaned reconnects fail fast after completion
    for (std::thread& t : fleet) t.join();
    proxy.shutdown();

    if (stats.poisoned_faults != 0 || stats.lost_faults != 0) {
      add(out, CheckId::RemoteWorkerKill, faults[0],
          str_format("remote chaos run at %zu workers lost work it had "
                     "budget to retry: %zu poisoned, %zu lost (%zu deaths, "
                     "%llu severed links)",
                     workers, stats.poisoned_faults, stats.lost_faults,
                     stats.worker_deaths,
                     static_cast<unsigned long long>(proxy.severed())));
      return;
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (got[i] == reference[i]) continue;
      add(out, CheckId::RemoteWorkerKill, faults[i],
          str_format("%s: remote result at %zu workers (%zu deaths, %llu "
                     "severed links) differs from the in-process run: [%s] "
                     "vs [%s]",
                     describe(c, faults[i]).c_str(), workers,
                     stats.worker_deaths,
                     static_cast<unsigned long long>(proxy.severed()),
                     item_summary(got[i]).c_str(),
                     item_summary(reference[i]).c_str()));
      return;
    }
  }
}

/// The pre-pass reads the fault-free line values; the serial reference
/// simulates each faulty machine in full (`good` may carry no lines).
void check_prepass(const Circuit& c, const TestSequence& test,
                   const SeqTrace& good, const std::vector<Fault>& faults,
                   std::vector<Violation>& out) {
  SeqTrace plain = good;
  plain.lines.clear();
  const std::vector<ConvOutcome> serial =
      ConventionalFaultSimulator(c).run(test, plain, faults);
  const SeqTrace lined =
      SequentialSimulator(c).run_fault_free(test, /*keep_lines=*/true);
  const std::vector<ConvOutcome> packed =
      ParallelFaultSimulator(c).run(test, lined, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (serial[i].detected == packed[i].detected &&
        serial[i].passes_c == packed[i].passes_c) {
      continue;
    }
    add(out, CheckId::PrepassMatchesSerial, faults[i],
        str_format("%s: pre-pass detected=%d passes_c=%d, serial "
                   "detected=%d passes_c=%d",
                   describe(c, faults[i]).c_str(), int(packed[i].detected),
                   int(packed[i].passes_c), int(serial[i].detected),
                   int(serial[i].passes_c)));
    return;  // first divergence is the actionable one
  }
}

}  // namespace

std::vector<Violation> check_fault(const Circuit& c, const TestSequence& test,
                                   const SeqTrace& good, const Fault& f,
                                   const VerifyOptions& opts) {
  std::vector<Violation> out;
  EngineSet engines(c, opts.mot, opts.good_n_states, opts.mutant);
  check_one_fault(engines, test, good, f, opts, out);
  return out;
}

std::vector<Violation> check_batch(const Circuit& c, const TestSequence& test,
                                   const SeqTrace& good,
                                   const std::vector<Fault>& faults,
                                   const VerifyOptions& opts) {
  std::vector<Violation> out;
  if (enabled(opts, CheckId::ThreadInvariance)) {
    check_thread_invariance(c, test, good, faults, opts, out);
  }
  if (enabled(opts, CheckId::ResumeEquivalence)) {
    check_resume_equivalence(c, test, good, faults, opts, out);
  }
  if (enabled(opts, CheckId::WorkerQuarantine)) {
    check_worker_quarantine(c, test, good, faults, opts, out);
  }
  if (enabled(opts, CheckId::FaultedResume)) {
    check_faulted_resume(c, test, good, faults, opts, out);
  }
  if (enabled(opts, CheckId::WorkerKill)) {
    check_worker_kill(c, test, good, faults, opts, out);
  }
  if (enabled(opts, CheckId::RemoteWorkerKill)) {
    check_remote_worker_kill(c, test, good, faults, opts, out);
  }
  if (enabled(opts, CheckId::PrepassMatchesSerial)) {
    check_prepass(c, test, good, faults, out);
  }
  return out;
}

std::vector<Violation> verify_case(const Circuit& c, const TestSequence& test,
                                   const std::vector<Fault>& faults,
                                   const VerifyOptions& opts) {
  std::vector<Violation> out;
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(test);
  EngineSet engines(c, opts.mot, opts.good_n_states, opts.mutant);
  for (const Fault& f : faults) {
    check_one_fault(engines, test, good, f, opts, out);
  }
  const std::vector<Violation> batch = check_batch(c, test, good, faults, opts);
  out.insert(out.end(), batch.begin(), batch.end());
  return out;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// First line index (0-based) where the two .ans renderings differ, with a
/// short excerpt of both — a byte diff alone is useless in a CI log.
std::string first_ans_divergence(const std::string& got,
                                 const std::string& want) {
  std::size_t line = 0, gp = 0, wp = 0;
  while (gp < got.size() && wp < want.size()) {
    const std::size_t ge = got.find('\n', gp);
    const std::size_t we = want.find('\n', wp);
    const std::string_view gl(got.data() + gp,
                              (ge == std::string::npos ? got.size() : ge) - gp);
    const std::string_view wl(want.data() + wp,
                              (we == std::string::npos ? want.size() : we) - wp);
    if (gl != wl) {
      return str_format("line %zu: got '%.*s', golden '%.*s'", line + 1,
                        static_cast<int>(gl.size()), gl.data(),
                        static_cast<int>(wl.size()), wl.data());
    }
    if (ge == std::string::npos || we == std::string::npos) break;
    gp = ge + 1;
    wp = we + 1;
    ++line;
  }
  return str_format("got %zu bytes, golden %zu bytes (common prefix matches)",
                    got.size(), want.size());
}

}  // namespace

std::vector<Violation> check_iscas_conformance(
    const IscasConformanceOptions& opts) {
  std::vector<Violation> out;
  auto violate = [&out](std::string detail) {
    out.push_back(Violation{CheckId::IscasConformance, Fault{}, std::move(detail)});
  };

  std::vector<std::string> circuits = opts.circuits;
  if (circuits.empty()) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(opts.testcases_dir, ec)) {
      if (entry.path().extension() == ".v") {
        circuits.push_back(entry.path().stem().string());
      }
    }
    if (ec) {
      violate("cannot list testcase directory '" + opts.testcases_dir +
              "': " + ec.message());
      return out;
    }
    std::sort(circuits.begin(), circuits.end());
  }
  if (circuits.empty()) {
    violate("no <ckt>.v testcases in '" + opts.testcases_dir + "'");
    return out;
  }

  for (const std::string& ckt : circuits) {
    const std::string base = opts.testcases_dir + "/" + ckt;
    const IscasParseResult parsed = parse_iscas_file(base + ".v");
    if (!parsed.ok) {
      violate(ckt + ": cannot parse netlist: " + parsed.error +
              (parsed.error_line ? " (line " + std::to_string(parsed.error_line) + ")"
                                 : ""));
      continue;
    }
    std::string golden, pin;
    if (!read_file(base + ".ans", golden)) {
      violate(ckt + ": cannot read golden '" + base + ".ans'");
      continue;
    }
    if (!read_file(base + ".ans.sha", pin)) {
      violate(ckt + ": cannot read SHA pin '" + base + ".ans.sha'");
      continue;
    }
    const std::string want_sha(trim(pin));
    const std::string have_sha = sha256_hex(golden);
    if (have_sha != want_sha) {
      violate(ckt + ": golden drift — sha256(" + ckt + ".ans) = " + have_sha +
              " but " + ckt + ".ans.sha pins " + want_sha);
      continue;
    }
    const InParseResult in = parse_conformance_in_file(base + ".in", parsed.circuit);
    if (!in.ok) {
      violate(ckt + ": cannot parse patterns: " + in.error + " (line " +
              std::to_string(in.error_line) + ")");
      continue;
    }
    for (const KernelKind kernel : {KernelKind::Legacy, KernelKind::SoA}) {
      for (const std::size_t threads : opts.thread_counts) {
        FullFaultSimOptions fopts;
        fopts.kernel = kernel;
        fopts.num_threads = threads;
        const FullFaultSimResult r =
            run_full_faultsim(parsed.circuit, in.patterns, fopts);
        const char* kname = kernel == KernelKind::Legacy ? "legacy" : "soa";
        if (!r.ok) {
          violate(str_format("%s [%s, %zu threads]: %s", ckt.c_str(), kname,
                             threads, r.error.c_str()));
          continue;
        }
        if (r.ans != golden) {
          violate(str_format(
              "%s [%s, %zu threads]: .ans diverges from the committed golden "
              "(%s)",
              ckt.c_str(), kname, threads,
              first_ans_divergence(r.ans, golden).c_str()));
        }
      }
    }
  }
  return out;
}

}  // namespace motsim::verify
