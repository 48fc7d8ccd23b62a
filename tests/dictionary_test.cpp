// Tests for the fault dictionary and diagnosis.
#include <gtest/gtest.h>

#include "circuits/embedded.hpp"
#include "faultsim/conventional.hpp"
#include "faultsim/dictionary.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

struct World {
  Circuit c;
  TestSequence test;
  SeqTrace good;
  std::vector<Fault> faults;
};

World s27_world(std::uint64_t seed = 3, std::size_t length = 24) {
  World w{circuits::make_s27(), {}, {}, {}};
  Rng rng(seed);
  w.test = random_sequence(w.c.num_inputs(), length, rng);
  w.good = SequentialSimulator(w.c).run_fault_free(w.test);
  w.faults = collapsed_fault_list(w.c);
  return w;
}

// ---------------------------------------------------------- dictionary ----

TEST(Dictionary, DetectionMatchesConventionalSimulator) {
  World w = s27_world();
  const FaultDictionary dict =
      FaultDictionary::build(w.c, w.test, w.good, w.faults);
  const ConventionalFaultSimulator conv(w.c);
  ASSERT_EQ(dict.num_faults(), w.faults.size());
  for (std::size_t k = 0; k < w.faults.size(); ++k) {
    EXPECT_EQ(dict.is_detected(k), conv.analyze(w.test, w.good, w.faults[k]).detected)
        << fault_name(w.c, w.faults[k]);
  }
}

TEST(Dictionary, DiagnosisFindsTheInjectedFault) {
  World w = s27_world();
  const FaultDictionary dict =
      FaultDictionary::build(w.c, w.test, w.good, w.faults);
  // Observe the exact response of each detected fault: the fault itself
  // must be among the candidates, and the fault-free machine must not be.
  for (std::size_t k = 0; k < dict.num_faults(); ++k) {
    if (!dict.is_detected(k)) continue;
    bool fault_free_ok = true;
    const auto candidates = dict.diagnose(dict.response(k), &fault_free_ok);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), k),
              candidates.end());
    EXPECT_FALSE(fault_free_ok) << fault_name(w.c, w.faults[k]);
  }
}

TEST(Dictionary, PartialObservationWidensTheCandidateSet) {
  World w = s27_world();
  const FaultDictionary dict =
      FaultDictionary::build(w.c, w.test, w.good, w.faults);
  std::size_t detected = 0;
  for (std::size_t k = 0; k < dict.num_faults() && detected == 0; ++k) {
    if (!dict.is_detected(k)) continue;
    detected = 1;
    const auto full = dict.diagnose(dict.response(k));
    // Mask the second half of the observation.
    auto partial = dict.response(k);
    for (std::size_t u = partial.size() / 2; u < partial.size(); ++u) {
      for (Val& v : partial[u]) v = Val::X;
    }
    const auto widened = dict.diagnose(partial);
    EXPECT_GE(widened.size(), full.size());
    for (std::size_t cand : full) {
      EXPECT_NE(std::find(widened.begin(), widened.end(), cand), widened.end());
    }
  }
  ASSERT_EQ(detected, 1u);
}

TEST(Dictionary, AllXObservationIsConsistentWithEverything) {
  World w = s27_world(5, 8);
  const FaultDictionary dict =
      FaultDictionary::build(w.c, w.test, w.good, w.faults);
  std::vector<std::vector<Val>> blind(
      w.test.length(), std::vector<Val>(w.c.num_outputs(), Val::X));
  bool fault_free_ok = false;
  const auto candidates = dict.diagnose(blind, &fault_free_ok);
  EXPECT_EQ(candidates.size(), dict.num_faults());
  EXPECT_TRUE(fault_free_ok);
}

TEST(Dictionary, EquivalenceClassesPartitionTheFaultList) {
  World w = s27_world();
  const FaultDictionary dict =
      FaultDictionary::build(w.c, w.test, w.good, w.faults);
  const auto classes = dict.equivalence_classes();
  std::size_t total = 0;
  for (const auto& cls : classes) {
    EXPECT_FALSE(cls.empty());
    total += cls.size();
    // All members share the response of the first member.
    for (std::size_t k : cls) {
      EXPECT_EQ(dict.response(k), dict.response(cls.front()));
    }
  }
  EXPECT_EQ(total, dict.num_faults());
  EXPECT_GT(classes.size(), 1u);
}

}  // namespace
}  // namespace motsim
