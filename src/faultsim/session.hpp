// Incremental parallel-fault simulation session.
//
// Holds the running state of the fault-free machine and of every faulty
// machine (packed 63 per PVal group) so that test patterns can be applied
// segment by segment. Cloning a session forks all machine states, which is
// what simulation-guided test generation needs: propose a candidate segment
// on a fork, keep the winner, never resimulate the prefix.
//
// apply() is semantically equivalent to running ParallelFaultSimulator over
// the concatenation of every segment applied so far (asserted by tests); both
// advance their groups through the same packed step (faultsim/group_kernel).
// The per-group fault sites never change, so every clone shares one copy and
// a fork copies only the machine states.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "faultsim/group_kernel.hpp"
#include "sim/test_sequence.hpp"

namespace motsim {

class ParallelFaultSession {
 public:
  /// The session keeps a reference to `circuit`, which must outlive it
  /// (clones included); `faults` is only read here.
  ParallelFaultSession(const Circuit& circuit, const std::vector<Fault>& faults);

  ParallelFaultSession(const ParallelFaultSession&) = default;
  ParallelFaultSession& operator=(const ParallelFaultSession&) = default;

  /// Simulates `segment` from the current state of every machine.
  void apply(const TestSequence& segment);

  /// Faults conventionally detected by everything applied so far.
  std::size_t detected_count() const { return detected_count_; }
  bool is_detected(std::size_t fault_index) const {
    return (detected_[fault_index / kFaultGroup] >>
            (fault_index % kFaultGroup)) & 1;
  }

  /// Total number of patterns applied.
  std::size_t length() const { return length_; }

 private:
  /// Immutable after construction and shared by every clone.
  struct Groups {
    explicit Groups(const Circuit& c) : kernel(c) {}
    PackedGroupKernel kernel;
    std::vector<FaultGroupSites> sites;
  };

  const Circuit* circuit_;
  std::shared_ptr<const Groups> groups_;
  std::vector<PVal> state_;              // num_dffs values per group
  std::vector<std::uint64_t> detected_;  // slot mask per group
  std::vector<Val> good_state_;          // fault-free machine state
  std::size_t detected_count_ = 0;
  std::size_t length_ = 0;
};

}  // namespace motsim
