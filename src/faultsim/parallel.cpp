#include "faultsim/parallel.hpp"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.hpp"

namespace motsim {

void ParallelFaultSimulator::run_group(const PackedGroupKernel& kernel,
                                       const TestSequence& test,
                                       const SeqTrace& fault_free,
                                       const Fault* faults, std::size_t n_faults,
                                       ConvOutcome* outcomes,
                                       GroupScratch& scratch) const {
  const Circuit& c = *circuit_;
  kernel.build_sites(faults, n_faults, scratch.sites);
  const FaultGroupSites& sites = scratch.sites;
  std::vector<PVal>& state = scratch.state;
  state.resize(c.num_dffs());
  scratch.vals.resize(c.num_gates());
  kernel.reset_state(sites, state.data());

  std::uint64_t detected = 0;
  // Condition (C) tracking: first frame with an unspecified state variable
  // and last frame with a fault-free-specified / faulty-X output.
  std::vector<int> first_x_sv(64, -1);
  std::vector<int> last_out_pair(64, -1);

  for (std::size_t u = 0; u < test.length(); ++u) {
    // Record slots that still have unspecified state variables.
    std::uint64_t x_sv = 0;
    for (const PVal& sv : state) x_sv |= ~(sv.ones | sv.zeros);
    for (unsigned s = 0; s < n_faults; ++s) {
      if (first_x_sv[s] < 0 && ((x_sv >> s) & 1)) {
        first_x_sv[s] = static_cast<int>(u);
      }
    }

    const GroupFrameResult frame =
        kernel.step(sites, test.pattern(u).data(), fault_free.outputs[u].data(),
                    state.data(), scratch.vals.data());
    detected |= frame.detected;
    for (unsigned s = 0; s < n_faults; ++s) {
      if ((frame.x_outputs >> s) & 1) last_out_pair[s] = static_cast<int>(u);
    }

    // Drop-on-detect: once every fault in the group is detected the later
    // frames cannot change any outcome — detection is sticky and condition
    // (C) is only consulted for undetected faults.
    if (detected == sites.mask) break;
  }

  for (unsigned s = 0; s < n_faults; ++s) {
    ConvOutcome& out = outcomes[s];
    out.detected = (detected >> s) & 1;
    out.passes_c = !out.detected && first_x_sv[s] >= 0 &&
                   last_out_pair[s] >= first_x_sv[s];
  }
}

std::vector<ConvOutcome> ParallelFaultSimulator::run(
    const TestSequence& test, const SeqTrace& fault_free,
    const std::vector<Fault>& faults, std::size_t num_threads) const {
  assert(fault_free.length() == test.length());
  std::vector<ConvOutcome> outcomes(faults.size());
  const PackedGroupKernel kernel(*circuit_);
  const std::size_t n_groups = (faults.size() + kFaultGroup - 1) / kFaultGroup;
  const std::size_t threads =
      std::min(std::max<std::size_t>(n_groups, 1), resolve_thread_count(num_threads));
  if (threads <= 1) {
    GroupScratch scratch;
    for (std::size_t base = 0; base < faults.size(); base += kFaultGroup) {
      const std::size_t n = std::min(kFaultGroup, faults.size() - base);
      run_group(kernel, test, fault_free, faults.data() + base, n,
                outcomes.data() + base, scratch);
    }
    return outcomes;
  }
  // Each lane owns one scratch; each group writes a disjoint outcome slice,
  // so the merge is the identity and the result is schedule-independent.
  std::vector<GroupScratch> scratch(threads);
  ThreadPool pool(threads);
  pool.parallel_for_dynamic(
      n_groups, /*grain=*/1,
      [&](std::size_t gb, std::size_t ge, std::size_t lane) {
        for (std::size_t g = gb; g < ge; ++g) {
          const std::size_t base = g * kFaultGroup;
          const std::size_t n = std::min(kFaultGroup, faults.size() - base);
          run_group(kernel, test, fault_free, faults.data() + base, n,
                    outcomes.data() + base, scratch[lane]);
        }
      });
  return outcomes;
}

}  // namespace motsim
