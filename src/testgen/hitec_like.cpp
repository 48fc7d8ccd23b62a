#include "testgen/hitec_like.hpp"

#include <algorithm>
#include <stdexcept>

#include "faultsim/session.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {

HitecLikeResult generate_hitec_like(const Circuit& c,
                                    const std::vector<Fault>& faults,
                                    const HitecLikeParams& params) {
  if (params.max_length == 0 || params.segment_length == 0 ||
      params.candidates_per_round == 0) {
    throw std::invalid_argument(
        "generate_hitec_like: max_length, segment_length and "
        "candidates_per_round must be positive");
  }
  Rng rng(params.seed);
  TestSequence best(c.num_inputs(), 0);
  // Incremental session: candidate segments are evaluated on forks of the
  // accepted prefix, so each candidate costs only its own length.
  ParallelFaultSession accepted(c, faults);
  std::size_t fruitless = 0;

  while (best.length() < params.max_length && fruitless < params.patience) {
    TestSequence best_ext;
    std::size_t best_ext_cov = accepted.detected_count();
    ParallelFaultSession best_session = accepted;
    bool improved = false;
    for (std::size_t cand = 0; cand < params.candidates_per_round; ++cand) {
      const std::size_t seg =
          std::min(params.segment_length, params.max_length - best.length());
      if (seg == 0) break;
      const TestSequence segment = random_sequence(c.num_inputs(), seg, rng);
      ParallelFaultSession trial = accepted;
      trial.apply(segment);
      if (trial.detected_count() > best_ext_cov) {
        best_ext_cov = trial.detected_count();
        best_ext = segment;
        best_session = std::move(trial);
        improved = true;
      }
    }
    if (improved) {
      best.append_all(best_ext);
      accepted = std::move(best_session);
      fruitless = 0;
    } else {
      ++fruitless;
    }
  }

  // Deterministic generators without progress still need a non-empty
  // sequence for the experiment to run.
  if (best.length() == 0) {
    best = random_sequence(c.num_inputs(),
                           std::min(params.segment_length, params.max_length),
                           rng);
    ParallelFaultSession session(c, faults);
    session.apply(best);
    return HitecLikeResult{std::move(best), session.detected_count()};
  }
  return HitecLikeResult{std::move(best), accepted.detected_count()};
}

}  // namespace motsim
