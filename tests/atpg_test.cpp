// Tests for the PODEM frame engine and the deterministic sequential ATPG.
#include <gtest/gtest.h>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "circuits/registry.hpp"
#include "faultsim/parallel.hpp"
#include "netlist/builder.hpp"
#include "testgen/deterministic_atpg.hpp"
#include "testgen/podem.hpp"
#include "testgen/random_gen.hpp"
#include "util/sha256.hpp"

namespace motsim {
namespace {

/// Validity check for every PODEM pattern: simulating the frame from the
/// given state must specify a conflicting good/faulty pair on some output.
bool pattern_detects_in_frame(const Circuit& c, std::span<const Val> state,
                              const Fault& f, const std::vector<Val>& pattern) {
  const SequentialSimulator sim(c);
  const FaultView fv(c, f);
  const FaultView fault_free(c);
  FrameVals good(c.num_gates(), Val::X);
  FrameVals faulty(c.num_gates(), Val::X);
  for (std::size_t i = 0; i < c.num_inputs(); ++i) {
    good[c.inputs()[i]] = pattern[i];
    faulty[c.inputs()[i]] = fv.input_value(i, pattern[i]);
  }
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    good[c.dffs()[j]] = state[j];
    faulty[c.dffs()[j]] = fv.present_state(j, state[j]);
  }
  sim.eval_frame(good, fault_free);
  sim.eval_frame(faulty, fv);
  for (GateId po : c.outputs()) {
    if (conflicts(good[po], faulty[po])) return true;
  }
  return false;
}

TEST(Podem, SimpleCombinationalTarget) {
  // z = AND(a, b); a stuck-at-0 needs a=1, b=1.
  CircuitBuilder b("comb");
  const GateId a = b.add_input("a");
  const GateId in_b = b.add_input("b");
  const GateId z = b.add_gate(GateType::And, "z", {a, in_b});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  FramePodem podem(c);
  const Fault f{a, kOutputPin, Val::Zero};
  const auto pattern = podem.generate({}, f);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ((*pattern)[0], Val::One);
  EXPECT_EQ((*pattern)[1], Val::One);
  EXPECT_TRUE(pattern_detects_in_frame(c, {}, f, *pattern));
}

TEST(Podem, RespectsUnknownState) {
  // z = AND(q, a): with q unknown the fault a stuck-at-0 cannot be
  // propagated in this frame (the side input is uncontrollable X).
  CircuitBuilder b("stateblock");
  const GateId a = b.add_input("a");
  const GateId q = b.declare("q");
  const GateId z = b.add_gate(GateType::And, "z", {a, q});
  b.define(q, GateType::Dff, {z});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  FramePodem podem(c);
  const Fault f{a, kOutputPin, Val::Zero};
  const std::vector<Val> unknown = {Val::X};
  EXPECT_FALSE(podem.generate(unknown, f).has_value());
  // With q known to be 1, the pattern exists.
  const std::vector<Val> known = {Val::One};
  const auto pattern = podem.generate(known, f);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_TRUE(pattern_detects_in_frame(c, known, f, *pattern));
}

TEST(Podem, UnexcitableFaultFailsCleanly) {
  // z = OR(a, a') is constant 1: z stuck-at-1 has no test.
  CircuitBuilder b("taut");
  const GateId a = b.add_input("a");
  const GateId an = b.add_gate(GateType::Not, "an", {a});
  const GateId z = b.add_gate(GateType::Or, "z", {a, an});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  FramePodem podem(c);
  EXPECT_FALSE(podem.generate({}, Fault{z, kOutputPin, Val::One}).has_value());
}

class PodemValidity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemValidity, EveryReturnedPatternDetectsInFrame) {
  circuits::GeneratorParams p;
  p.name = "podem";
  p.seed = GetParam();
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_dffs = 5;
  p.num_comb_gates = 40;
  p.uninit_fraction = 0.2;
  const Circuit c = circuits::generate(p);
  FramePodem podem(c);
  Rng rng(GetParam() * 3 + 1);
  // Random (partially known) states, all faults.
  std::vector<Val> state(c.num_dffs());
  for (int trial = 0; trial < 3; ++trial) {
    for (Val& v : state) {
      const int r = static_cast<int>(rng.next_below(3));
      v = r == 0 ? Val::Zero : (r == 1 ? Val::One : Val::X);
    }
    std::size_t found = 0;
    for (const Fault& f : collapsed_fault_list(c)) {
      FramePodem::Stats stats;
      const auto pattern = podem.generate(state, f, 200, &stats);
      if (!pattern.has_value()) continue;
      ++found;
      EXPECT_TRUE(pattern_detects_in_frame(c, state, f, *pattern))
          << fault_name(c, f) << " state "
          << vals_to_string(state.data(), state.size());
    }
    EXPECT_GT(found, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemValidity, ::testing::Values(1, 2, 3, 4, 5));

// -------------------------------------------------------------- driver ----

class AtpgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtpgProperty, CoverageAtLeastRandomOfSameLength) {
  circuits::GeneratorParams p;
  p.name = "atpg";
  p.seed = GetParam();
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 60;
  p.uninit_fraction = 0.1;
  const Circuit c = circuits::generate(p);
  const auto faults = collapsed_fault_list(c);

  AtpgParams params;
  params.max_length = 64;
  params.seed = GetParam() * 7 + 5;
  const AtpgResult atpg = generate_deterministic(c, faults, params);
  EXPECT_GT(atpg.detected, 0u);
  // Whether PODEM fires depends on how controllable the generated machine
  // is from an unknown start; the aggregate check below (TargetedPatterns-
  // HappenSomewhere) asserts the engine contributes on some workloads.
  RecordProperty("targeted", static_cast<int>(atpg.targeted_patterns));

  // Verify the reported coverage against an independent simulation.
  const SeqTrace good = SequentialSimulator(c).run_fault_free(atpg.sequence);
  const auto outcomes = ParallelFaultSimulator(c).run(atpg.sequence, good, faults);
  std::size_t recount = 0;
  for (const auto& o : outcomes) recount += o.detected;
  EXPECT_EQ(recount, atpg.detected);

  // A random sequence of the same length should not beat the targeted one.
  Rng rng(params.seed);
  const TestSequence random = random_sequence(c.num_inputs(),
                                              atpg.sequence.length(), rng);
  const SeqTrace rgood = SequentialSimulator(c).run_fault_free(random);
  const auto routcomes = ParallelFaultSimulator(c).run(random, rgood, faults);
  std::size_t random_detected = 0;
  for (const auto& o : routcomes) random_detected += o.detected;
  EXPECT_GE(atpg.detected + 2, random_detected)  // small tolerance
      << "targeted " << atpg.detected << " vs random " << random_detected;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtpgProperty, ::testing::Values(1, 2, 3));

TEST(Atpg, TargetedPatternsHappenSomewhere) {
  std::size_t targeted = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    circuits::GeneratorParams p;
    p.name = "atpg-agg";
    p.seed = seed;
    p.num_inputs = 5;
    p.num_outputs = 3;
    p.num_dffs = 5;
    p.num_comb_gates = 50;
    p.uninit_fraction = 0.05;
    const Circuit c = circuits::generate(p);
    AtpgParams params;
    params.max_length = 48;
    params.seed = seed;
    targeted += generate_deterministic(c, collapsed_fault_list(c), params)
                    .targeted_patterns;
  }
  EXPECT_GT(targeted, 0u);
}

TEST(Atpg, StopsOnBudgetsAndIsDeterministic) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  AtpgParams params;
  params.max_length = 32;
  params.seed = 9;
  const AtpgResult a = generate_deterministic(c, faults, params);
  const AtpgResult b = generate_deterministic(c, faults, params);
  EXPECT_LE(a.sequence.length(), params.max_length);
  EXPECT_EQ(a.sequence.to_string(), b.sequence.to_string());
  EXPECT_EQ(a.detected, b.detected);
}

// Pins the generator's output on the s298 stand-in at the default budgets,
// so a change to PODEM, the driver or the session kernel under it cannot
// move a single generated pattern unnoticed.
TEST(Atpg, PinnedOnS298) {
  const Circuit c = circuits::build_benchmark("s298");
  const AtpgResult r = generate_deterministic(c, collapsed_fault_list(c));
  EXPECT_EQ(r.sequence.length(), 78u);
  EXPECT_EQ(r.detected, 135u);
  EXPECT_EQ(sha256_hex(r.sequence.to_string()),
            "e423f386fe15b59c2ea7eda067814c8f71c36c9e31e257f33bfecd1d95704166");
}

}  // namespace
}  // namespace motsim
