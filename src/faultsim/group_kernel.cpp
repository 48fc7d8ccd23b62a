#include "faultsim/group_kernel.hpp"

#include <algorithm>
#include <cassert>

#include "logic/eval.hpp"

namespace motsim {

PackedGroupKernel::PackedGroupKernel(const Circuit& c)
    : circuit_(&c), lv_(&c.levelized()), at_(c.num_gates(), 0) {
  for (std::size_t k = 0; k < c.num_inputs(); ++k) {
    at_[c.inputs()[k]] = static_cast<std::uint32_t>(k);
  }
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    at_[c.dffs()[k]] = static_cast<std::uint32_t>(k);
  }
  const std::vector<GateId>& order = lv_->order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    at_[order[i]] = static_cast<std::uint32_t>(i);
  }
}

void PackedGroupKernel::build_sites(const Fault* faults, std::size_t n,
                                    FaultGroupSites& out) const {
  assert(n <= kFaultGroup);
  out.inputs.clear();
  out.gates.clear();
  out.dffs.clear();
  out.mask = n == 0 ? 0 : ~0ull >> (64 - n);
  for (std::size_t s = 0; s < n; ++s) {
    const Fault& f = faults[s];
    const FaultGroupSites::Site site{at_[f.gate], f.pin,
                                     static_cast<std::uint8_t>(s), f.stuck};
    switch (lv_->type(f.gate)) {
      case GateType::Input:
        out.inputs.push_back(site);
        break;
      case GateType::Dff:
        out.dffs.push_back(site);
        break;
      default:
        out.gates.push_back(site);
    }
  }
  std::sort(out.gates.begin(), out.gates.end(),
            [](const auto& a, const auto& b) {
              return a.at != b.at ? a.at < b.at : a.slot < b.slot;
            });
}

void PackedGroupKernel::reset_state(const FaultGroupSites& sites,
                                    PVal* state) const {
  std::fill(state, state + circuit_->num_dffs(), pv_all_x());
  for (const auto& site : sites.dffs) {
    if (site.pin == kOutputPin) pv_set(state[site.at], site.slot, site.stuck);
  }
}

GroupFrameResult PackedGroupKernel::step(const FaultGroupSites& sites,
                                         const Val* pattern,
                                         const Val* good_outputs, PVal* state,
                                         PVal* vals) const {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lv_;

  // Drive primary inputs and the present state.
  for (std::size_t k = 0; k < c.num_inputs(); ++k) {
    vals[c.inputs()[k]] = pv_splat(pattern[k]);
  }
  for (const auto& site : sites.inputs) {
    pv_set(vals[c.inputs()[site.at]], site.slot, site.stuck);
  }
  for (std::size_t k = 0; k < c.num_dffs(); ++k) vals[c.dffs()[k]] = state[k];

  // Bulk evaluation in levelized order (constants first), patching each
  // fault site right after its gate.
  const std::vector<GateId>& order = lv.order();
  const FaultGroupSites::Site* site = sites.gates.data();
  const FaultGroupSites::Site* const sites_end = site + sites.gates.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const GateId id = order[i];
    const GateId* fanins = lv.fanins(id);
    const std::uint32_t n_fanins = lv.fanin_count(id);
    vals[id] = pv_eval_gate_fn(
        lv.type(id), n_fanins,
        [&](std::size_t k) -> const PVal& { return vals[fanins[k]]; });
    for (; site != sites_end && site->at == i; ++site) {
      Val v = site->stuck;
      if (site->pin != kOutputPin) {
        // Re-evaluate this gate for the slot with the faulty pin forced.
        v = eval_gate_fn(lv.type(id), n_fanins, [&](std::size_t k) {
          return static_cast<int>(k) == site->pin
                     ? site->stuck
                     : pv_get(vals[fanins[k]], site->slot);
        });
      }
      pv_set(vals[id], site->slot, v);
    }
  }

  // Compare against the fault-free response.
  GroupFrameResult r;
  for (std::size_t o = 0; o < c.num_outputs(); ++o) {
    const Val good = good_outputs[o];
    if (!is_specified(good)) continue;
    const PVal& po = vals[c.outputs()[o]];
    r.detected |= good == Val::One ? po.zeros : po.ones;
    r.x_outputs |= ~(po.ones | po.zeros);
  }
  r.detected &= sites.mask;
  r.x_outputs &= sites.mask;

  // Latch the next state with D-pin and Q-stem patching.
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    state[k] = vals[lv.dff_input(k)];
  }
  for (const auto& s : sites.dffs) pv_set(state[s.at], s.slot, s.stuck);
  return r;
}

}  // namespace motsim
