// Parallel-fault conventional simulation.
//
// Packs up to 63 faulty machines (plus the fault-free machine in slot 63)
// into the two-word PVal encoding and simulates them simultaneously, one
// bitwise gate evaluation serving all slots, through the packed group
// kernel's event-driven sweep (faultsim/group_kernel.hpp): per frame only
// the gates that carry a live fault or read a line differing from the
// fault-free machine are evaluated, against the fault-free line values of
// the trace. On top of that step this pre-pass keeps the condition-(C)
// bookkeeping, drops each detected fault inside its group, and drops a
// group once all of its faults are detected.
//
// Semantically identical to ConventionalFaultSimulator (asserted by the
// integration tests and the verify harness); used as the fast pre-pass
// that classifies the whole fault universe before the per-fault MOT
// procedures run.
#pragma once

#include <vector>

#include "faultsim/conventional.hpp"
#include "faultsim/group_kernel.hpp"

namespace motsim {

class ParallelFaultSimulator {
 public:
  explicit ParallelFaultSimulator(const Circuit& c) : circuit_(&c) {}

  /// Detection + condition-(C) classification for every fault.
  ///
  /// `fault_free` must carry line values (simulated with keep_lines);
  /// throws std::invalid_argument if it does not.
  ///
  /// `num_threads` spreads the 63-fault PVal groups over a thread pool with
  /// one GroupScratch per worker (0 = all hardware threads, 1 = serial).
  /// Every group writes a disjoint slice of the outcome vector, so the
  /// result is identical for every thread count; with 1 the pool is never
  /// constructed and the code path is exactly the historical serial loop.
  std::vector<ConvOutcome> run(const TestSequence& test,
                               const SeqTrace& fault_free,
                               const std::vector<Fault>& faults,
                               std::size_t num_threads = 1) const;

 private:
  /// Reusable per-run buffers (a fresh allocation per group dominated the
  /// profile on the largest circuits).
  struct GroupScratch {
    FaultGroupSites sites;
    std::vector<PVal> state;
    EventScratch events;
  };

  void run_group(const PackedGroupKernel& kernel, const TestSequence& test,
                 const SeqTrace& fault_free, const Fault* faults,
                 std::size_t n_faults,
                 ConvOutcome* outcomes, GroupScratch& scratch) const;

  const Circuit* circuit_;
};

}  // namespace motsim
