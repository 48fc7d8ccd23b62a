// Ablation B: sensitivity to the N_STATES budget (the paper fixes 64).
//
// Sweeps the sequence budget for both procedures. The paper's qualitative
// claim — backward implications make fewer expansions necessary, so the
// proposed procedure reaches its detections at smaller budgets — shows up
// as the proposed column saturating earlier than the [4] column.
#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "util/table.hpp"

using namespace motsim;
using namespace motsim::experiments;

const std::size_t kBudgets[] = {2, 4, 8, 16, 32, 64, 128, 256};

int main() {
  benchutil::heading("Ablation B: N_STATES sweep ([4] vs proposed extras)");
  for (const char* name : {"s298", "s344", "s420"}) {
    const auto* profile = circuits::find_profile(name);
    Table t({"N_STATES", "[4] extra", "proposed extra"});
    for (std::size_t budget : kBudgets) {
      RunConfig rc;
      rc.mot.n_states = budget;
      const RunResult r = run_benchmark(*profile, rc);
      t.new_row().add(budget).add(r.baseline_extra).add(r.proposed_extra);
    }
    std::printf("%s:\n%s\n", name, t.render().c_str());
  }
}
