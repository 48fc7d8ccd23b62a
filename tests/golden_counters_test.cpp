// Golden-file pinning of the Table 3 effectiveness counters and of the
// Table 2/3 rows of the generated benchmark suite.
//
// The EffectivenessCounters (n_det / n_conf / n_extra) are the paper's
// evidence that backward implications do useful work per selected pair.
// Heuristic reorderings elsewhere in the engine can silently change them
// without failing any soundness test, so this test pins their exact values
// (plus the detection counts) for the embedded paper circuits under fixed
// stimulus, and pins the experiment harness's Table 2 detections and Table 3
// averages for the smallest generated stand-ins.
//
// To regenerate after an intentional engine change:
//   MOTSIM_UPDATE_GOLDEN=1 ./build/tests/golden_counters_test
// then review the diff of tests/golden/*.txt like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "circuits/embedded.hpp"
#include "experiments/experiments.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"

#ifndef MOTSIM_GOLDEN_DIR
#error "MOTSIM_GOLDEN_DIR must point at tests/golden"
#endif

namespace motsim {
namespace {

struct GoldenRow {
  std::string circuit;
  std::uint64_t n_det = 0;
  std::uint64_t n_conf = 0;
  std::uint64_t n_extra = 0;
  std::size_t detected = 0;
  std::size_t detected_conventional = 0;
};

GoldenRow measure(const Circuit& c, std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  const TestSequence test = random_sequence(c.num_inputs(), length, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(test);
  MotOptions options;
  options.n_states = 16;
  MotFaultSimulator mot(c, options);
  GoldenRow row;
  row.circuit = c.name();
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = mot.simulate_fault(test, good, f);
    row.n_det += r.counters.n_det;
    row.n_conf += r.counters.n_conf;
    row.n_extra += r.counters.n_extra;
    row.detected += r.detected;
    row.detected_conventional += r.detected_conventional;
  }
  return row;
}

std::string render(const GoldenRow& r) {
  std::ostringstream out;
  out << r.circuit << " n_det=" << r.n_det << " n_conf=" << r.n_conf
      << " n_extra=" << r.n_extra << " detected=" << r.detected
      << " conv=" << r.detected_conventional;
  return out.str();
}

std::string render(const experiments::RunResult& r) {
  std::ostringstream out;
  out << r.circuit << " conv=" << r.conv_detected
      << " baseline_extra=" << r.baseline_extra
      << " proposed_extra=" << r.proposed_extra
      << " baseline_only=" << r.baseline_only << std::fixed
      << std::setprecision(4) << " avg_det=" << r.avg_det
      << " avg_conf=" << r.avg_conf << " avg_extra=" << r.avg_extra;
  return out.str();
}

/// Compares `lines` against the golden file `name` (comment lines skipped),
/// or rewrites the file under MOTSIM_UPDATE_GOLDEN.
void check_golden(const std::string& name, const std::string& header,
                  const std::vector<std::string>& lines) {
  const std::string path = std::string(MOTSIM_GOLDEN_DIR) + "/" + name;
  if (std::getenv("MOTSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << header << "# MOTSIM_UPDATE_GOLDEN=1 and review the diff.\n";
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with MOTSIM_UPDATE_GOLDEN=1 to create it)";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]);
  }
}

TEST(GoldenCounters, EmbeddedCircuitsMatchPinnedValues) {
  std::vector<std::string> lines;
  lines.push_back(render(measure(circuits::make_s27(), 11, 16)));
  lines.push_back(render(measure(circuits::make_table1_example(), 12, 12)));
  lines.push_back(render(measure(circuits::make_fig4_conflict(), 13, 12)));
  check_golden("effectiveness_counters.txt",
               "# Table 3 effectiveness counters, pinned. Regenerate with\n",
               lines);
}

TEST(GoldenCounters, GeneratedSuiteRowsMatchPinnedValues) {
  experiments::RunConfig config;
  config.test_seed = 7;
  config.mot.num_threads = 1;
  std::vector<std::string> lines;
  for (const char* name : {"s208", "s298", "s344"}) {
    const circuits::BenchmarkProfile* profile = circuits::find_profile(name);
    ASSERT_NE(profile, nullptr) << name;
    lines.push_back(render(experiments::run_benchmark(*profile, config)));
  }
  check_golden("benchmark_suite.txt",
               "# Table 2 detections and Table 3 averages of the generated\n"
               "# suite (run_benchmark, test_seed 7), pinned. Regenerate with\n",
               lines);
}

}  // namespace
}  // namespace motsim
