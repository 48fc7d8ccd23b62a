// Coverage-directed deterministic test-sequence generation.
//
// The paper's final experiment simulates the deterministic sequence HITEC
// [9] generated for s5378. HITEC itself is not available, so this module
// provides a greedy simulation-guided generator in its spirit: candidate
// subsequences are proposed at random, fault-simulated (with the fast
// parallel-fault simulator), and kept only when they detect so-far-
// undetected faults; generation stops after a run of fruitless candidates
// or when the length budget is reached. The result is a compact sequence
// with deterministic-ATPG-like coverage structure — exactly what the
// experiment needs to contrast with plain random patterns.
#pragma once

#include <vector>

#include "fault/fault.hpp"
#include "sim/test_sequence.hpp"
#include "util/rng.hpp"

namespace motsim {

struct HitecLikeParams {
  std::size_t max_length = 400;        ///< total sequence budget
  std::size_t segment_length = 8;      ///< length of each candidate burst
  std::size_t candidates_per_round = 8;///< candidates tried per extension
  std::size_t patience = 6;            ///< fruitless rounds before stopping
  std::uint64_t seed = 97;
};

struct HitecLikeResult {
  TestSequence sequence;
  std::size_t detected = 0;  ///< conventionally detected by the sequence
};

/// Throws std::invalid_argument when `max_length`, `segment_length` or
/// `candidates_per_round` is 0: the result would break the generator's own
/// contracts (a non-empty sequence no longer than `max_length`).
HitecLikeResult generate_hitec_like(const Circuit& c,
                                    const std::vector<Fault>& faults,
                                    const HitecLikeParams& params);

}  // namespace motsim
