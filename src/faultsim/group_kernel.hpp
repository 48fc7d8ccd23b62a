// One frame of packed parallel-fault simulation for a group of faults.
//
// Up to 63 faulty machines share one PVal per line, one slot each (slot 63
// and any unused slot carry no fault). A frame step drives the primary
// inputs, sweeps the circuit's levelized order with one bitwise evaluation
// per gate, patches each fault's effect into its own slot, compares the
// primary outputs with the fault-free response and latches the next state.
//
// This is the only packed fault-simulation kernel: the one-shot pre-pass
// (ParallelFaultSimulator) and the incremental session (ParallelFaultSession)
// both advance their groups through PackedGroupKernel::step.
//
// A group's fault sites are sorted by where the step applies them, so the
// sweep walks them with a cursor and a gate without a fault costs one
// compare — faults on other gates are never looked at.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "logic/pval.hpp"
#include "netlist/levelized.hpp"

namespace motsim {

/// Faults per group; slot 63 always simulates the fault-free machine.
inline constexpr std::size_t kFaultGroup = 63;

/// The faults of one group, split by the part of the step that applies
/// them. Immutable once built, so one instance may be shared freely.
struct FaultGroupSites {
  struct Site {
    std::uint32_t at;  ///< input index, order() position or flip-flop index
    std::int32_t pin;  ///< kOutputPin or the faulty input pin
    std::uint8_t slot;
    Val stuck;
  };
  std::vector<Site> inputs;  ///< primary-input stem faults
  std::vector<Site> gates;   ///< combinational faults by order() position
  std::vector<Site> dffs;    ///< D-pin and Q-stem faults
  std::uint64_t mask = 0;    ///< slots that carry a fault
};

/// What one frame showed at the primary outputs, restricted to the group's
/// fault slots.
struct GroupFrameResult {
  /// Slots whose output conflicts with a specified fault-free output.
  std::uint64_t detected = 0;
  /// Slots with an X output where the fault-free output is specified.
  std::uint64_t x_outputs = 0;
};

class PackedGroupKernel {
 public:
  /// Keeps a reference to `c`, which must outlive the kernel.
  explicit PackedGroupKernel(const Circuit& c);

  /// Fills `out` with the sites of faults[0, n), n <= kFaultGroup; fault s
  /// occupies slot s. Reuses `out`'s capacity.
  void build_sites(const Fault* faults, std::size_t n,
                   FaultGroupSites& out) const;

  /// The group's initial state (num_dffs values): all X except the
  /// Q-stem-stuck flip-flops.
  void reset_state(const FaultGroupSites& sites, PVal* state) const;

  /// Applies `pattern` (num_inputs values) from `state` (num_dffs values),
  /// compares against `good_outputs` (num_outputs values) and overwrites
  /// `state` with the next state. `vals` is num_gates scratch.
  GroupFrameResult step(const FaultGroupSites& sites, const Val* pattern,
                        const Val* good_outputs, PVal* state, PVal* vals) const;

 private:
  const Circuit* circuit_;
  const LevelizedCircuit* lv_;
  /// Per gate: its input index, order() position or flip-flop index.
  std::vector<std::uint32_t> at_;
};

}  // namespace motsim
