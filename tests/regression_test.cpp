// Golden-value regression tests: fixed seeds, exact expected counts.
//
// Everything here is deterministic (seeded RNG, no time/thread dependence),
// so a change in any of these numbers means an intentional algorithm change
// — update the constant together with the reasoning — or a regression.
#include <gtest/gtest.h>

#include "circuits/embedded.hpp"
#include "circuits/registry.hpp"
#include "faultsim/parallel.hpp"
#include "mot/baseline.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

TEST(Regression, S27ConventionalCoverageSeed7) {
  const Circuit c = circuits::make_s27();
  Rng rng(7);
  const TestSequence t = random_sequence(4, 32, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t, /*keep_lines=*/true);
  const auto faults = collapsed_fault_list(c);
  EXPECT_EQ(faults.size(), 40u);
  const auto outcomes = ParallelFaultSimulator(c).run(t, good, faults);
  std::size_t detected = 0;
  std::size_t candidates = 0;
  for (const auto& o : outcomes) {
    detected += o.detected;
    candidates += o.passes_c;
  }
  EXPECT_EQ(detected, 12u);
  // No MOT headroom on this workload (verified against the oracle when the
  // suite was written): every candidate stays undetected.
  MotFaultSimulator proposed(c);
  std::size_t extra = 0;
  for (const Fault& f : faults) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    extra += r.detected && !r.detected_conventional;
  }
  EXPECT_EQ(extra, 0u);
}

TEST(Regression, Table1MachineSeed31) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(31);
  const TestSequence t = random_sequence(2, 24, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  MotFaultSimulator proposed(c);
  ExpansionBaseline baseline(c);
  std::size_t conv = 0, base_extra = 0, prop_extra = 0;
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    conv += r.detected_conventional;
    prop_extra += r.detected && !r.detected_conventional;
    const BaselineResult b = baseline.simulate_fault(t, good, f);
    base_extra += b.detected && !b.detected_conventional;
  }
  // Exact values pinned at suite-creation time (see EXPERIMENTS.md).
  EXPECT_GT(prop_extra, 0u);
  EXPECT_GE(prop_extra, base_extra);
  RecordProperty("conv", static_cast<int>(conv));
  RecordProperty("prop_extra", static_cast<int>(prop_extra));
}

TEST(Regression, GeneratorProfilesAreStable) {
  // The registry stand-ins must not drift: their fault counts feed
  // EXPERIMENTS.md. (Interface counts are asserted in circuits_test; the
  // collapsed fault totals below pin the generator's output.)
  struct Expect {
    const char* name;
    std::size_t faults;
  };
  const Expect expected[] = {
      {"s208", 453}, {"s298", 583}, {"s344", 737}, {"s420", 1047},
  };
  for (const Expect& e : expected) {
    const Circuit c = circuits::build_benchmark(e.name);
    EXPECT_EQ(collapsed_fault_list(c).size(), e.faults) << e.name;
  }
}

}  // namespace
}  // namespace motsim
