// Regenerates the paper's Table 3: the effectiveness of backward
// implications, measured as per-fault averages of the number of detection
// sides (N_det), conflict sides (N_conf) and implied state-variable values
// (N_extra) over the faults the proposed procedure detected.
//
// The paper's reference point: without backward implications N_det = N_conf
// = 0 and N_extra <= 12 (six expansions, two values each); values far above
// that quantify what the implications contribute.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "experiments/report.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"

namespace {

using namespace motsim;
using namespace motsim::experiments;

void reproduction() {
  benchutil::heading("Table 3: effectiveness of backward implications");
  RunConfig config;
  std::vector<RunResult> rows;
  for (const auto& profile : circuits::benchmark_suite()) {
    std::printf("running %-8s ...\n", profile.name.c_str());
    std::fflush(stdout);
    rows.push_back(run_benchmark(profile, config));
  }
  std::printf("\n%s\n", render_table3(rows).c_str());
  std::printf("Reference: without backward implications every row would be "
              "detect=0, conf=0, extra<=12.\n");
  std::size_t above = 0;
  for (const RunResult& r : rows) above += r.avg_extra > 12.0;
  std::printf("rows with extra above the no-implication ceiling of 12: "
              "%zu/%zu\n", above, rows.size());
}

void bm_counters_per_fault(benchmark::State& state) {
  const Circuit c = circuits::build_benchmark("s344");
  Rng rng(7);
  const TestSequence t = random_sequence(c.num_inputs(), 120, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  // A condition-(C) candidate to time the collection machinery on.
  MotFaultSimulator proposed(c);
  const auto faults = collapsed_fault_list(c);
  const Fault* candidate = nullptr;
  for (const Fault& f : faults) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    if (r.passes_c) {
      candidate = &f;
      break;
    }
  }
  if (candidate == nullptr) {
    state.SkipWithError("no condition-C candidate");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(proposed.simulate_fault(t, good, *candidate));
  }
}
BENCHMARK(bm_counters_per_fault)->Unit(benchmark::kMillisecond);

}  // namespace

MOTSIM_BENCH_MAIN(reproduction)
