// One frame of packed parallel-fault simulation for a group of faults.
//
// Up to 63 faulty machines share one PVal per line, one slot each (slot 63
// and any unused slot carry no fault). A frame step drives the primary
// inputs, evaluates the circuit's levelized order with one bitwise
// evaluation per gate, patches each fault's effect into its own slot,
// compares the primary outputs with the fault-free response and latches the
// next state.
//
// This is the only packed fault-simulation kernel. It has two gate sweeps
// that share everything else (the fault sites, the initial state, the
// output compare and the latch):
//
//  - step() is the dense sweep: it evaluates every gate. The incremental
//    session (ParallelFaultSession) uses it. Test generation grades short
//    segments on small circuits, where about a third of the evaluations
//    differ from the fault-free machine, so skipping the rest would cost
//    more bookkeeping than it saves; the session also has no fault-free
//    line values to compare against.
//  - step_events() is the event-driven sweep: it evaluates only the gates
//    that carry a live fault site or read a line that differs from the
//    fault-free machine, and reads every other line from the fault-free
//    line values. The one-shot pre-pass (ParallelFaultSimulator) uses it.
//    On the large circuits a few percent of the evaluations differ, since
//    most faults stay undetected and their effects die out close to the
//    site. It also drops detected slots inside their group: a detected
//    slot stops injecting its faults and its state is reset to the
//    fault-free next state, so its effects stop generating events.
//
// A group's fault sites are sorted by where the step applies them, so a
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

/// Reusable buffers of the event-driven sweep, O(gates); one per lane.
/// step_events() sizes them on first use.
struct EventScratch {
  std::vector<PVal> vals;             ///< line value, valid where stamp == frame
  std::vector<std::uint32_t> stamp;   ///< frame that last marked each line
  std::vector<std::uint64_t> pending; ///< order() positions still to evaluate
  std::uint32_t frame = 0;
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

  /// Dense sweep. Applies `pattern` (num_inputs values) from `state`
  /// (num_dffs values), compares against `good_outputs` (num_outputs
  /// values) and overwrites `state` with the next state. `vals` is
  /// num_gates scratch.
  GroupFrameResult step(const FaultGroupSites& sites, const Val* pattern,
                        const Val* good_outputs, PVal* state, PVal* vals) const;

  /// Event-driven sweep of the same frame. `good_lines` (num_gates values)
  /// are the fault-free machine's line values at this frame and
  /// `good_outputs` its outputs. Only the slots in `live` inject their
  /// faults; every other slot must hold the fault-free state on entry and
  /// gets the fault-free next state, and so does a slot this frame detects.
  /// Equals step() on the slots in `live`.
  GroupFrameResult step_events(const FaultGroupSites& sites,
                               std::uint64_t live, const Val* good_lines,
                               const Val* good_outputs, PVal* state,
                               EventScratch& scratch) const;

 private:
  /// Forces one fault site into `v`, the value just computed for gate `id`;
  /// `line(g)` reads the frame's value of line g.
  template <typename Line>
  void patch_site(const FaultGroupSites::Site& site, GateId id, Line&& line,
                  PVal& v) const;

  /// The output compare, reading the frame's line values through `line`.
  template <typename Line>
  GroupFrameResult compare_outputs(const FaultGroupSites& sites,
                                   const Val* good_outputs, Line&& line) const;

  /// Latches the next state read through `line`, patching the D-pin and
  /// Q-stem faults of the slots in `live`.
  template <typename Line>
  void latch(const FaultGroupSites& sites, std::uint64_t live, Line&& line,
             PVal* state) const;

  const Circuit* circuit_;
  const LevelizedCircuit* lv_;
  /// Per gate: its input index, order() position or flip-flop index.
  std::vector<std::uint32_t> at_;
};

}  // namespace motsim
