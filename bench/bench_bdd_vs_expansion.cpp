// Extension experiment: the paper's positioning argument, measured.
//
// Section 1: BDD-based methods [5] are exact "but applicable [only] to
// circuits for which BDDs can be derived"; state expansion with backward
// implications trades exactness for unconditional applicability. This bench
// sweeps flip-flop count on generated circuits and reports, per size:
//
//   * how often the symbolic ([5]-style) detector completes within a node
//     budget vs. gives up,
//   * the detections of the proposed procedure vs. the symbolic exact count
//     where available,
//   * wall-clock per fault for both.
#include <chrono>
#include <cstdio>

#include "bdd/symbolic.hpp"
#include "bench_common.hpp"
#include "circuits/generator.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"
#include "util/table.hpp"

using namespace motsim;

int main() {
  benchutil::heading("BDD-based [5] vs state expansion: applicability sweep");
  Table t({"FFs", "faults", "BDD ok", "BDD gave up", "BDD detected",
           "proposed detected", "BDD ms/fault", "proposed ms/fault"});
  for (const std::size_t ffs : {6u, 12u, 24u, 48u, 96u}) {
    circuits::GeneratorParams p;
    p.name = "bddsweep";
    p.seed = 1000 + ffs;
    p.num_inputs = 5;
    p.num_outputs = 4;
    p.num_dffs = ffs;
    p.num_comb_gates = ffs * 8;
    p.uninit_fraction = 0.4;
    const Circuit c = circuits::generate(p);
    Rng rng(17 + ffs);
    const TestSequence test = random_sequence(c.num_inputs(), 24, rng);
    const SeqTrace good = SequentialSimulator(c).run_fault_free(test);
    const auto faults = collapsed_fault_list(c);

    SymbolicOptions sym_opt;
    sym_opt.node_budget = 50000;
    MotFaultSimulator proposed(c);

    std::size_t bdd_ok = 0, bdd_fail = 0, bdd_det = 0, prop_det = 0;
    double bdd_secs = 0.0, prop_secs = 0.0;
    using Clock = std::chrono::steady_clock;
    // Sample the fault list to keep each size comparable in effort.
    const std::size_t step = std::max<std::size_t>(1, faults.size() / 100);
    std::size_t sampled = 0;
    for (std::size_t k = 0; k < faults.size(); k += step) {
      ++sampled;
      auto t0 = Clock::now();
      const SymbolicVerdict sv = symbolic_mot_detect(c, test, good, faults[k], sym_opt);
      bdd_secs += std::chrono::duration<double>(Clock::now() - t0).count();
      if (sv.computable) {
        ++bdd_ok;
        bdd_det += sv.detected;
      } else {
        ++bdd_fail;
      }
      t0 = Clock::now();
      const MotResult pr = proposed.simulate_fault(test, good, faults[k]);
      prop_secs += std::chrono::duration<double>(Clock::now() - t0).count();
      prop_det += pr.detected;
    }
    t.new_row()
        .add(ffs)
        .add(sampled)
        .add(bdd_ok)
        .add(bdd_fail)
        .add(bdd_det)
        .add(prop_det)
        .add(1000.0 * bdd_secs / static_cast<double>(sampled), 2)
        .add(1000.0 * prop_secs / static_cast<double>(sampled), 2);
  }
  std::printf("%s\n(faults column = sampled fault count; 'BDD gave up' = node"
              " budget of 50000 exceeded)\n", t.render().c_str());
}
