// Ablation A: how much do the implication pass discipline and the backward
// depth matter?
//
//  * TwoPass is the paper's implementation ("to keep the computation time
//    low, we use only two passes");
//  * Fixpoint runs the local rules to convergence (the paper's "several
//    passes ... may be required");
//  * backward_depth > 1 crosses multiple time units (the multi-frame
//    extension sketched at the end of the paper's Section 2).
#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "util/table.hpp"

using namespace motsim;
using namespace motsim::experiments;

const char* const kCircuits[] = {"s208", "s298", "s344", "s420"};

int main() {
  benchutil::heading("Ablation A: implication passes and backward depth");
  struct Config {
    const char* label;
    ImplMode mode;
    int depth;
  };
  const Config configs[] = {
      {"two-pass, depth 1 (paper)", ImplMode::TwoPass, 1},
      {"fixpoint, depth 1", ImplMode::Fixpoint, 1},
      {"fixpoint, depth 2", ImplMode::Fixpoint, 2},
      {"fixpoint, depth 3", ImplMode::Fixpoint, 3},
  };
  Table t({"circuit", "conv.", "two-pass d1", "fixpoint d1", "fixpoint d2",
           "fixpoint d3"});
  for (const char* name : kCircuits) {
    const auto* profile = circuits::find_profile(name);
    t.new_row().add(name);
    bool conv_added = false;
    for (const Config& cfg : configs) {
      RunConfig rc;
      rc.mot.impl_mode = cfg.mode;
      rc.mot.backward_depth = cfg.depth;
      rc.run_baseline = false;
      const RunResult r = run_benchmark(*profile, rc);
      if (!conv_added) {
        // conv. is identical across configs; recorded once.
        t.add(r.conv_detected);
        conv_added = true;
      }
      t.add(r.proposed_extra);
    }
  }
  std::printf("%s\n(cells: extra detections beyond conventional)\n",
              t.render().c_str());
}
