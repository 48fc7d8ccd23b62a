// The invariant lattice of the differential verification harness.
//
// The paper's central structural claims, checked mechanically per
// (circuit, test, fault):
//
//   subsumption   conventional ⊆ implication-only ⊆ proposed ⊆ general, and
//                 baseline ⊆ proposed (Section 4's containment chain —
//                 backward implications change how cheaply faults are
//                 detected, never whether a detected fault stays detected);
//   soundness     every engine's "detected" is confirmed by exact ground
//                 truth: the exhaustive initial-state oracle and the BDD
//                 symbolic enumeration (which must also agree with each
//                 other wherever both are computable);
//   agreement     the [4] baseline wrapper is a pure relabeling of the
//                 proposed engine with implications disabled;
//   monotonicity  a larger per-fault work limit never flips a fault from
//                 detected to undetected (budgets stop the procedure, they
//                 must not steer it);
//
// and per (circuit, test, fault *list*):
//
//   invariance    MotBatchRunner results are bit-identical at 1/2/8 threads
//                 (Random selection policy, the hardest case);
//   resume        merging journal records back into a campaign reproduces
//                 the uninterrupted run field-for-field;
//   quarantine    an injected engine exception is contained to its fault and
//                 always leaves evidence (diagnostic + EngineError/degrade);
//   fault resume  a campaign stopped by injected journal I/O faults or an
//                 emulated signal resumes bit-identically to the clean run;
//   worker kill   the multi-process supervisor run under a seeded SIGKILL
//                 chaos schedule merges to exactly the in-process result;
//   pre-pass      the 64-way event-driven pre-pass classifies every fault
//                 exactly like the serial conventional simulator.
//
// An engine verdict of Unresolved (budget/abort) excuses a subsumption or
// monotonicity obligation — an engine that gave up is not an engine that
// disagreed — but never excuses unsoundness: a detection claim is checked
// against ground truth no matter which budgets fired.
#pragma once

#include <string>
#include <vector>

#include "verify/engines.hpp"

namespace motsim::verify {

enum class CheckId : std::uint8_t {
  ConvImpliesImpl,       ///< conventional ⊆ implication-only
  ImplImpliesProposed,   ///< implication-only ⊆ proposed
  BaselineImpliesProposed,  ///< [4] baseline ⊆ proposed
  ProposedImpliesGeneral,   ///< restricted (proposed) ⊆ general MOT
  ConventionalSound,     ///< conventional detection confirmed by ground truth
  ImplicationOnlySound,
  ProposedSound,
  BaselineSound,
  GeneralSound,          ///< general detection confirmed by the general oracle
  OraclesAgree,          ///< exhaustive enumeration == BDD enumeration
  PlainMatchesBaseline,  ///< baseline wrapper == proposed w/o implications
  BudgetMonotonic,       ///< larger work limit never loses a detection
  ThreadInvariance,      ///< batch results identical at 1/2/8 threads
  ResumeEquivalence,     ///< journal-resumed campaign == uninterrupted run
  /// An injected engine exception never yields a silently clean result: the
  /// quarantined fault carries a diagnostic plus either Unresolved
  /// {EngineError} or a recorded degradation, neighbouring faults are
  /// untouched, and the whole batch stays identical across thread counts.
  WorkerQuarantine,
  /// A campaign interrupted by injected journal I/O faults (crash,
  /// persistent ENOSPC, transient EAGAIN) or an emulated mid-campaign
  /// signal resumes to exactly the uninterrupted run, at 1 and N threads.
  FaultedResume,
  /// The multi-process supervisor survives SIGKILLed workers: under a
  /// seeded chaos kill schedule the merged result is bit-identical to the
  /// in-process runner at every worker count (see faultsim/supervisor.hpp).
  WorkerKill,
  /// The multi-host path gives the same guarantee over a hostile network:
  /// remote workers (faultsim/remote.hpp) joined through a seeded chaos
  /// proxy that severs their connections mid-stream, plus emulated chaos
  /// kills that wipe worker state, must still merge bit-identically to the
  /// serial in-process run — dropped links, replayed records and slot
  /// rejoins included.
  RemoteWorkerKill,
  /// The 64-way event-driven pre-pass (ParallelFaultSimulator) classifies
  /// every fault exactly like the serial conventional simulator: equal
  /// `detected` and condition-(C) `passes_c`, fault for fault.
  PrepassMatchesSerial,
  /// ISCAS-85 conformance: the combinational full-fault-simulation driver
  /// reproduces the committed SHA-pinned third-party-format goldens
  /// (tests/testcases/<ckt>.{v,in,ans,ans.sha}) byte-identically, under
  /// both kernels and at 1 and 8 threads — the one check whose ground
  /// truth is a file motsim cannot silently regenerate (the .ans.sha pin
  /// catches golden drift first). See check_iscas_conformance.
  IscasConformance,
  All,                   ///< sentinel: run every check (bundle replays)
};

std::string_view check_name(CheckId c);
bool check_from_name(std::string_view name, CheckId& out);

struct Violation {
  CheckId check = CheckId::All;
  Fault fault;         ///< offending fault (first differing one for batch checks)
  std::string detail;  ///< human-readable evidence
};

struct VerifyOptions {
  /// Base per-engine options. Small n_states values (8/16) make the
  /// expansion-budget abort paths reachable on fuzz-sized circuits.
  MotOptions mot;
  std::size_t good_n_states = 8;  ///< general engine's fault-free budget
  /// Exhaustive-oracle flip-flop cap (2^k simulations per fault).
  std::size_t oracle_max_ffs = 14;
  /// General-oracle flip-flop cap (2^k x 2^k trace comparisons).
  std::size_t general_oracle_max_ffs = 8;
  std::size_t symbolic_node_budget = 1u << 18;
  /// Thread counts the invariance check compares (first entry is the
  /// reference).
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  /// Ascending per-fault work limits for the monotonicity check; one
  /// unlimited run is appended implicitly.
  std::vector<std::uint64_t> work_limits = {48, 384};
  /// Directory for the resume-equivalence check's scratch journals
  /// ("" = $TMPDIR or /tmp).
  std::string scratch_dir;
  Mutant mutant = Mutant::None;
  /// Run only this check (CheckId::All = run everything). The shrinker
  /// replays a failure against exactly the check that caught it.
  CheckId only = CheckId::All;
};

/// Per-fault checks: subsumption, soundness, oracle agreement, baseline
/// agreement, budget monotonicity.
std::vector<Violation> check_fault(const Circuit& c, const TestSequence& test,
                                   const SeqTrace& good, const Fault& f,
                                   const VerifyOptions& opts);

/// Batch-level checks over a fault list: thread-count invariance,
/// checkpoint-resume equivalence, the worker checks and the pre-pass.
std::vector<Violation> check_batch(const Circuit& c, const TestSequence& test,
                                   const SeqTrace& good,
                                   const std::vector<Fault>& faults,
                                   const VerifyOptions& opts);

/// Full verification of one (circuit, test) pair over `faults`: per-fault
/// checks for each fault, then the batch checks over the whole list.
std::vector<Violation> verify_case(const Circuit& c, const TestSequence& test,
                                   const std::vector<Fault>& faults,
                                   const VerifyOptions& opts);

struct IscasConformanceOptions {
  /// Directory holding <ckt>.v/.in/.ans/.ans.sha quadruples.
  std::string testcases_dir;
  /// Circuit names to check; empty means every <ckt>.v in the directory.
  std::vector<std::string> circuits;
  /// Thread counts the byte-identity obligation covers per kernel.
  std::vector<std::size_t> thread_counts = {1, 8};
};

/// The iscas-conformance check, standalone (it needs a testcase directory,
/// not a fuzzed circuit): verifies each committed .ans golden still matches
/// its .ans.sha pin, then re-runs full fault simulation under Legacy and SoA
/// at every thread count and demands byte-identical .ans output. Any
/// mismatch (pin drift, claim mismatch, kernel divergence) is a Violation
/// with CheckId::IscasConformance.
std::vector<Violation> check_iscas_conformance(
    const IscasConformanceOptions& opts);

}  // namespace motsim::verify
