// Regenerates the paper's Table 2: detected faults under random patterns
// for the full 13-circuit suite — conventional vs. the [4] expansion
// baseline vs. the proposed backward-implication procedure, N_STATES = 64.
//
// The circuits are registry stand-ins matched to the published benchmark
// interfaces (see DESIGN.md §3); absolute counts differ from the paper, the
// comparisons (proposed ⊇ [4] ⊇ conventional; where the extra detections
// concentrate) are the reproduced result. As in the paper, the baseline is
// NA on the two heavy circuits; their MOT candidate caps are printed in the
// diagnostics block — nothing is truncated silently.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "experiments/report.hpp"

namespace {

using namespace motsim;
using namespace motsim::experiments;

void reproduction() {
  benchutil::heading("Table 2: detected faults using random patterns "
                     "(N_STATES = 64)");
  RunConfig config;
  std::vector<RunResult> rows;
  for (const auto& profile : circuits::benchmark_suite()) {
    std::printf("running %-8s ...\n", profile.name.c_str());
    std::fflush(stdout);
    rows.push_back(run_benchmark(profile, config));
  }
  std::printf("\n%s\n", render_table2(rows).c_str());
  std::printf("Diagnostics (no counterpart in the paper):\n%s\n",
              render_diagnostics(rows).c_str());
  std::printf("Paper-shape checks:\n");
  bool dominance = true;
  std::size_t proposed_wins = 0;
  for (const RunResult& r : rows) {
    dominance = dominance && r.baseline_only == 0;
    if (r.baseline_available && r.proposed_extra > r.baseline_extra) {
      ++proposed_wins;
    }
  }
  std::printf("  every [4]-detected fault also detected by proposed: %s\n",
              dominance ? "yes (matches the paper)" : "NO");
  std::printf("  circuits where proposed finds strictly more than [4]: %zu\n",
              proposed_wins);
}

void bm_run_small_circuit(benchmark::State& state) {
  const auto* profile = circuits::find_profile("s298");
  RunConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_benchmark(*profile, config));
  }
}
BENCHMARK(bm_run_small_circuit)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

MOTSIM_BENCH_MAIN(reproduction)
