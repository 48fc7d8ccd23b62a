// Reproduces the paper's Figure 4 — a backward implication that uncovers a
// conflict, halving the states to consider.
#include <cstdio>

#include "bench_common.hpp"
#include "circuits/embedded.hpp"
#include "mot/implicator.hpp"
#include "sim/seq_sim.hpp"

using namespace motsim;

namespace {

FrameVals fig4_frame(const Circuit& c) {
  FrameVals vals(c.num_gates(), Val::X);
  vals[c.inputs()[0]] = Val::Zero;
  SequentialSimulator(c).eval_frame(vals, FaultView(c));
  return vals;
}

}  // namespace

int main() {
  benchutil::heading("Figure 4: conflict found by backward implication");
  const Circuit c = circuits::make_fig4_conflict();
  const FaultView fv(c);
  const FrameVals base = fig4_frame(c);
  std::printf("input L1=0 implies L3=%c, L4=%c and nothing else (paper: only "
              "lines 3 and 4 set to 0)\n",
              v_to_char(base[c.find("L3")]), v_to_char(base[c.find("L4")]));
  FrameImplicator impl(c);
  for (Val v : {Val::Zero, Val::One}) {
    FrameVals vals = base;
    const std::pair<GateId, Val> seed{c.find("L11"), v};
    const ImplOutcome out = impl.run(vals, fv, {}, {&seed, 1}, ImplMode::Fixpoint);
    std::printf("next-state L11 = %c: %s\n", v_to_char(v),
                out == ImplOutcome::Conflict
                    ? "CONFLICT (paper: L5=1 and L6=0 force opposite values "
                      "on L2)"
                    : "consistent");
    impl.undo(vals);
  }
  std::printf("=> the present-state variable can only be 0 at time 1: one "
              "state sequence survives instead of two.\n");
}
