#include "faultsim/session.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fault/fault_view.hpp"
#include "sim/seq_sim.hpp"

namespace motsim {

ParallelFaultSession::ParallelFaultSession(const Circuit& circuit,
                                           const std::vector<Fault>& faults)
    : circuit_(&circuit) {
  auto groups = std::make_shared<Groups>(circuit);
  const std::size_t n_groups = (faults.size() + kFaultGroup - 1) / kFaultGroup;
  groups->sites.resize(n_groups);
  state_.resize(n_groups * circuit.num_dffs());
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::size_t base = g * kFaultGroup;
    groups->kernel.build_sites(faults.data() + base,
                               std::min(kFaultGroup, faults.size() - base),
                               groups->sites[g]);
    groups->kernel.reset_state(groups->sites[g],
                               state_.data() + g * circuit.num_dffs());
  }
  groups_ = std::move(groups);
  detected_.assign(n_groups, 0);
  good_state_.assign(circuit.num_dffs(), Val::X);
}

void ParallelFaultSession::apply(const TestSequence& segment) {
  const Circuit& c = *circuit_;
  assert(segment.num_inputs() == c.num_inputs());
  if (segment.length() == 0) return;
  const SeqTrace good =
      SequentialSimulator(c).run(segment, FaultView(c), false, good_state_);
  good_state_ = good.states.back();

  const PackedGroupKernel& kernel = groups_->kernel;
  std::vector<PVal> vals(c.num_gates());
  for (std::size_t g = 0; g < detected_.size(); ++g) {
    const FaultGroupSites& sites = groups_->sites[g];
    std::uint64_t& detected = detected_[g];
    // Detection is sticky, so a fully detected group's machines are never
    // observed again and its state may go stale.
    if (detected == sites.mask) continue;
    const std::uint64_t before = detected;
    PVal* state = state_.data() + g * c.num_dffs();
    for (std::size_t u = 0; u < segment.length(); ++u) {
      detected |= kernel.step(sites, segment.pattern(u).data(),
                              good.outputs[u].data(), state, vals.data())
                      .detected;
      if (detected == sites.mask) break;
    }
    detected_count_ += std::popcount(detected & ~before);
  }
  length_ += segment.length();
}

}  // namespace motsim
