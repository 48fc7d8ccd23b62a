// Regenerates the paper's closing experiment (Section 4): fault simulation
// of a *deterministic* test sequence for s5378 — HITEC's sequence in the
// paper, a coverage-directed HITEC-like sequence here — comparing the extra
// detections of the proposed procedure against the [4] baseline.
//
// Paper result: proposed 14 extra vs [4] 12 extra. The reproduced shape:
// the deterministic sequence leaves fewer but harder undetected faults, and
// the proposed procedure still detects at least as many extras as [4].
//
// Doubles as the thread-scaling benchmark: the pipeline runs once with
// --threads 1 (the historical serial path) and once with all hardware
// threads on the *same* generated sequence, asserts the detection counts
// are identical.
#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "experiments/report.hpp"

using namespace motsim;
using namespace motsim::experiments;

int main() {
  benchutil::heading("Deterministic (HITEC-like) sequence on s5378");
  RunConfig config;
  config.mot.num_threads = 1;  // reference row: the serial path
  const HitecExperimentResult r = run_hitec_experiment("s5378", config);
  std::printf("generated sequence length: %zu\n", r.sequence_length);
  std::printf("%s\n", render_table2({r.run}).c_str());
  std::printf("%s\n", render_diagnostics({r.run}).c_str());
  std::printf("paper (real s5378 + HITEC): proposed 14 extra, [4] 12 extra\n");
  std::printf("reproduced shape: proposed extra (%zu) >= [4] extra (%zu): %s\n",
              r.run.proposed_extra, r.run.baseline_extra,
              r.run.proposed_extra >= r.run.baseline_extra ? "yes" : "NO");

  const Circuit c = circuits::build_benchmark("s5378");

  // Scaling row: the same circuit and sequence through the sharded MOT
  // dispatch on every hardware thread. Detection counts must not move.
  benchutil::heading("Thread scaling (same sequence, sharded MOT dispatch)");
  const bool single_core = benchutil::hardware_threads() <= 1;
  if (single_core) {
    std::fprintf(stderr,
                 "WARNING: this host reports a single hardware thread; the "
                 "\"parallel\" row below is a second serial measurement and "
                 "the 1-vs-N speedup is meaningless.\n"
                 "WARNING: rerun on a multi-core host to get a real "
                 "thread-scaling row.\n");
  }
  RunConfig par_config;
  par_config.mot.num_threads = 0;  // all hardware threads
  apply_profile_caps("s5378", par_config);
  const RunResult par = run_circuit(c, r.sequence, par_config);
  const bool identical =
      par.conv_detected == r.run.conv_detected &&
      par.proposed_extra == r.run.proposed_extra &&
      par.baseline_extra == r.run.baseline_extra &&
      par.baseline_only == r.run.baseline_only;
  std::printf("threads %zu -> %zu: %.2fs -> %.2fs (speedup %.2fx)\n",
              r.run.threads, par.threads, r.run.seconds, par.seconds,
              par.seconds > 0.0 ? r.run.seconds / par.seconds : 0.0);
  std::printf("detection counts identical across thread counts: %s\n",
              identical ? "yes" : "NO");
}
