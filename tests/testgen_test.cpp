// Tests for src/testgen: random sequences and the HITEC-like generator.
#include <gtest/gtest.h>

#include <stdexcept>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "circuits/registry.hpp"
#include "faultsim/parallel.hpp"
#include "testgen/hitec_like.hpp"
#include "testgen/random_gen.hpp"
#include "util/sha256.hpp"

namespace motsim {
namespace {

TEST(RandomGen, FullySpecifiedAndDeterministic) {
  Rng a(42);
  Rng b(42);
  const TestSequence ta = random_sequence(5, 30, a);
  const TestSequence tb = random_sequence(5, 30, b);
  EXPECT_EQ(ta.to_string(), tb.to_string());
  for (std::size_t u = 0; u < ta.length(); ++u) {
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_TRUE(is_specified(ta.at(u, k)));
    }
  }
}

TEST(RandomGen, WithXRespectsProbabilityEdges) {
  Rng rng(7);
  const TestSequence none = random_sequence_with_x(4, 20, 0.0, rng);
  for (std::size_t u = 0; u < none.length(); ++u) {
    for (std::size_t k = 0; k < 4; ++k) EXPECT_NE(none.at(u, k), Val::X);
  }
  const TestSequence all = random_sequence_with_x(4, 20, 1.0, rng);
  for (std::size_t u = 0; u < all.length(); ++u) {
    for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(all.at(u, k), Val::X);
  }
}

TEST(HitecLike, CoverageMatchesRecount) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  HitecLikeParams params;
  params.max_length = 64;
  params.seed = 3;
  const HitecLikeResult r = generate_hitec_like(c, faults, params);
  ASSERT_GT(r.sequence.length(), 0u);
  ASSERT_LE(r.sequence.length(), params.max_length);

  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(r.sequence, /*keep_lines=*/true);
  const auto outcomes = ParallelFaultSimulator(c).run(r.sequence, good, faults);
  std::size_t detected = 0;
  for (const auto& o : outcomes) detected += o.detected;
  EXPECT_EQ(detected, r.detected);
}

TEST(HitecLike, BeatsOrMatchesSingleRandomBurst) {
  circuits::GeneratorParams p;
  p.name = "tg";
  p.seed = 12;
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 60;
  p.uninit_fraction = 0.1;
  const Circuit c = circuits::generate(p);
  const auto faults = collapsed_fault_list(c);

  HitecLikeParams params;
  params.max_length = 80;
  params.segment_length = 8;
  params.seed = 5;
  const HitecLikeResult guided = generate_hitec_like(c, faults, params);

  Rng rng(5);
  const TestSequence plain = random_sequence(c.num_inputs(), 8, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(plain, /*keep_lines=*/true);
  const auto outcomes = ParallelFaultSimulator(c).run(plain, good, faults);
  std::size_t plain_detected = 0;
  for (const auto& o : outcomes) plain_detected += o.detected;

  EXPECT_GE(guided.detected, plain_detected);
}

TEST(HitecLike, DeterministicInSeed) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  HitecLikeParams params;
  params.max_length = 40;
  params.seed = 11;
  const HitecLikeResult a = generate_hitec_like(c, faults, params);
  const HitecLikeResult b = generate_hitec_like(c, faults, params);
  EXPECT_EQ(a.sequence.to_string(), b.sequence.to_string());
  EXPECT_EQ(a.detected, b.detected);
}

// A zero budget, segment length or candidate count would return a sequence
// that breaks the generator's own contracts (longer than max_length, or
// empty), so each is rejected.
TEST(HitecLike, RejectsZeroFields) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  struct Case {
    const char* name;
    std::size_t HitecLikeParams::*field;
  };
  for (const Case& k : {Case{"max_length", &HitecLikeParams::max_length},
                        Case{"segment_length", &HitecLikeParams::segment_length},
                        Case{"candidates_per_round",
                             &HitecLikeParams::candidates_per_round}}) {
    SCOPED_TRACE(k.name);
    HitecLikeParams params;
    params.*k.field = 0;
    EXPECT_THROW(generate_hitec_like(c, faults, params), std::invalid_argument);
  }
}

// Without a single round the fallback burst still respects max_length.
TEST(HitecLike, FallbackBurstRespectsMaxLength) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  HitecLikeParams params;
  params.max_length = 3;
  params.patience = 0;
  const HitecLikeResult r = generate_hitec_like(c, faults, params);
  EXPECT_EQ(r.sequence.length(), 3u);
}

// The campaign benchmark's Section 4 inputs: 64-pattern sequences on the
// am2910 stand-in for sequence seeds 7 and 1007. Pinned so that a change to
// the generator or to the session kernel under it cannot move a single
// generated pattern unnoticed.
TEST(HitecLike, PinnedOnAm2910) {
  const Circuit c = circuits::build_benchmark("am2910");
  const auto faults = collapsed_fault_list(c);
  struct Pin {
    std::uint64_t seed;
    std::size_t length;
    std::size_t detected;
    const char* sha256;
  };
  for (const Pin& pin : {Pin{7 * 131 + 17, 64, 1545,
                             "ae72f371519bc75623e098cce5e818a0"
                             "2530f0d4204526742810db7b753628d9"},
                         Pin{1007 * 131 + 17, 64, 1772,
                             "e5c4760019ddd3ff31ea93412038fcab"
                             "6fd8fbd9fd565d883837906fd170ccbe"}}) {
    HitecLikeParams params;
    params.max_length = 64;
    params.seed = pin.seed;
    const HitecLikeResult r = generate_hitec_like(c, faults, params);
    EXPECT_EQ(r.sequence.length(), pin.length) << "seed " << pin.seed;
    EXPECT_EQ(r.detected, pin.detected) << "seed " << pin.seed;
    EXPECT_EQ(sha256_hex(r.sequence.to_string()), pin.sha256) << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace motsim
