// Reproduces the paper's Figures 1-3 on ISCAS-89 s27 with the frame
// implication engine.
//
//  Figure 1: conventional simulation, all next-state/output values X.
//  Figure 2: state expansion at time 0 — 3/0/5 specified values for
//            G5/G6/G7 (the paper expands "state variable 7").
//  Figure 3: backward implication of G6 at time 1 — 7 specified values.
#include <cstdio>

#include "bench_common.hpp"
#include "circuits/embedded.hpp"
#include "mot/implicator.hpp"
#include "sim/seq_sim.hpp"

using namespace motsim;

namespace {

FrameVals s27_frame(const Circuit& c) {
  FrameVals vals(c.num_gates(), Val::X);
  const Val pattern[] = {Val::One, Val::Zero, Val::One, Val::One};
  for (std::size_t k = 0; k < 4; ++k) vals[c.inputs()[k]] = pattern[k];
  SequentialSimulator(c).eval_frame(vals, FaultView(c));
  return vals;
}

std::size_t count_specified(const Circuit& c, const FrameVals& vals) {
  const FaultView fv(c);
  std::size_t n = 0;
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    n += is_specified(fv.next_state(j, vals));
  }
  for (GateId po : c.outputs()) n += is_specified(vals[po]);
  return n;
}

}  // namespace

int main() {
  benchutil::heading(
      "Figures 1-3: s27 under pattern 1011 (paper's '(1001)' in its own "
      "input ordering)");
  const Circuit c = circuits::make_s27();
  const FaultView fv(c);
  const FrameVals base = s27_frame(c);
  std::printf("Figure 1 (conventional): specified NSV/PO values = %zu "
              "(paper: 0)\n", count_specified(c, base));

  FrameImplicator impl(c);
  std::printf("Figure 2 (expansion at time 0):\n");
  const char* names[] = {"G5", "G6", "G7"};
  const int paper[] = {3, 0, 5};
  for (std::size_t j = 0; j < 3; ++j) {
    std::size_t total = 0;
    for (Val v : {Val::Zero, Val::One}) {
      FrameVals vals = base;
      const std::pair<GateId, Val> seed{c.dffs()[j], v};
      impl.run(vals, fv, {}, {&seed, 1}, ImplMode::Fixpoint);
      total += count_specified(c, vals);
      impl.undo(vals);
    }
    std::printf("  expand %s: %zu specified values (paper: %d)\n", names[j],
                total, paper[j]);
  }

  std::size_t total = 0;
  for (Val v : {Val::Zero, Val::One}) {
    FrameVals vals = base;
    const std::pair<GateId, Val> seed{c.dff_input(1), v};
    impl.run(vals, fv, {}, {&seed, 1}, ImplMode::Fixpoint);
    total += count_specified(c, vals);
    impl.undo(vals);
  }
  std::printf("Figure 3 (backward implication of G6@1): %zu specified values "
              "at time 0 (paper: 7)\n", total);
}
