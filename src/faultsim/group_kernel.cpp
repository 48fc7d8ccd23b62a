#include "faultsim/group_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "logic/eval.hpp"

namespace motsim {

namespace {

/// Slots in `keep` from `a`, every other slot from `b`.
PVal pv_blend(const PVal& a, const PVal& b, std::uint64_t keep) {
  return PVal{(a.ones & keep) | (b.ones & ~keep),
              (a.zeros & keep) | (b.zeros & ~keep)};
}

}  // namespace

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

template <typename Line>
void PackedGroupKernel::patch_site(const FaultGroupSites::Site& site, GateId id,
                                   Line&& line, PVal& v) const {
  Val sv = site.stuck;
  if (site.pin != kOutputPin) {
    // Re-evaluate this gate for the slot with the faulty pin forced.
    const GateId* fanins = lv_->fanins(id);
    sv = eval_gate_fn(lv_->type(id), lv_->fanin_count(id), [&](std::size_t k) {
      return static_cast<int>(k) == site.pin ? site.stuck
                                             : pv_get(line(fanins[k]), site.slot);
    });
  }
  pv_set(v, site.slot, sv);
}

template <typename Line>
GroupFrameResult PackedGroupKernel::compare_outputs(const FaultGroupSites& sites,
                                                    const Val* good_outputs,
                                                    Line&& line) const {
  const Circuit& c = *circuit_;
  GroupFrameResult r;
  for (std::size_t o = 0; o < c.num_outputs(); ++o) {
    const Val good = good_outputs[o];
    if (!is_specified(good)) continue;
    const PVal po = line(c.outputs()[o]);
    r.detected |= good == Val::One ? po.zeros : po.ones;
    r.x_outputs |= ~(po.ones | po.zeros);
  }
  r.detected &= sites.mask;
  r.x_outputs &= sites.mask;
  return r;
}

template <typename Line>
void PackedGroupKernel::latch(const FaultGroupSites& sites, std::uint64_t live,
                              Line&& line, PVal* state) const {
  for (std::size_t k = 0; k < circuit_->num_dffs(); ++k) {
    state[k] = line(lv_->dff_input(k));
  }
  for (const auto& s : sites.dffs) {
    if ((live >> s.slot) & 1) pv_set(state[s.at], s.slot, s.stuck);
  }
}

GroupFrameResult PackedGroupKernel::step(const FaultGroupSites& sites,
                                         const Val* pattern,
                                         const Val* good_outputs, PVal* state,
                                         PVal* vals) const {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lv_;
  const auto line = [vals](GateId g) -> const PVal& { return vals[g]; };

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
    vals[id] = pv_eval_gate_fn(
        lv.type(id), lv.fanin_count(id),
        [&](std::size_t k) -> const PVal& { return vals[fanins[k]]; });
    for (; site != sites_end && site->at == i; ++site) {
      patch_site(*site, id, line, vals[id]);
    }
  }

  const GroupFrameResult r = compare_outputs(sites, good_outputs, line);
  latch(sites, sites.mask, line, state);
  return r;
}

GroupFrameResult PackedGroupKernel::step_events(const FaultGroupSites& sites,
                                                std::uint64_t live,
                                                const Val* good_lines,
                                                const Val* good_outputs,
                                                PVal* state,
                                                EventScratch& scratch) const {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lv_;
  const std::vector<GateId>& order = lv.order();
  if (scratch.stamp.size() != c.num_gates()) {
    scratch.vals.assign(c.num_gates(), pv_all_x());
    scratch.stamp.assign(c.num_gates(), 0);
    scratch.pending.assign(order.size() / 64 + 1, 0);
    scratch.frame = 0;
  }
  // A new frame number unmarks every line at once.
  if (++scratch.frame == 0) {
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.frame = 1;
  }
  const std::uint32_t now = scratch.frame;
  PVal* const vals = scratch.vals.data();
  std::uint32_t* const stamp = scratch.stamp.data();
  std::uint64_t* const pending = scratch.pending.data();

  // A line marked in this frame holds its own value; every other line
  // equals the fault-free machine in every slot.
  const auto line = [&](GateId g) -> PVal {
    return stamp[g] == now ? vals[g] : pv_splat(good_lines[g]);
  };
  const auto schedule = [&](std::uint32_t pos) {
    pending[pos / 64] |= 1ull << (pos % 64);
  };
  // Marks `v` as line g's value if it differs from the fault-free machine
  // and schedules the gates that read it; the latch reads flip-flop inputs.
  const auto mark = [&](GateId g, const PVal& v) {
    if (v == pv_splat(good_lines[g])) return;
    vals[g] = v;
    stamp[g] = now;
    const GateId* fo = lv.fanouts(g);
    for (std::uint32_t k = 0; k < lv.fanout_count(g); ++k) {
      if (lv.type(fo[k]) != GateType::Dff) schedule(at_[fo[k]]);
    }
  };

  // Sources of difference: live primary-input stem faults (a stem may carry
  // two, so all are patched before any is compared), flip-flops whose state
  // differs, and live combinational sites. A marked line that turns out to
  // equal the fault-free value still reads correctly.
  for (const auto& site : sites.inputs) {
    if (!((live >> site.slot) & 1)) continue;
    const GateId id = c.inputs()[site.at];
    PVal v = line(id);
    pv_set(v, site.slot, site.stuck);
    vals[id] = v;
    stamp[id] = now;
  }
  for (const auto& site : sites.inputs) {
    if ((live >> site.slot) & 1) {
      const GateId id = c.inputs()[site.at];
      mark(id, vals[id]);
    }
  }
  for (std::size_t k = 0; k < c.num_dffs(); ++k) mark(c.dffs()[k], state[k]);
  for (const auto& site : sites.gates) {
    if ((live >> site.slot) & 1) schedule(site.at);
  }

  // Evaluate the scheduled positions in order. Fanouts come later in
  // order(), so a gate scheduled while sweeping is still ahead.
  const FaultGroupSites::Site* site = sites.gates.data();
  const FaultGroupSites::Site* const sites_end = site + sites.gates.size();
  for (std::size_t w = 0; w < scratch.pending.size(); ++w) {
    while (pending[w] != 0) {
      const std::uint64_t bits = pending[w];
      pending[w] = bits & (bits - 1);
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const GateId id = order[i];
      const GateId* fanins = lv.fanins(id);
      PVal v = pv_eval_gate_fn(lv.type(id), lv.fanin_count(id),
                               [&](std::size_t k) { return line(fanins[k]); });
      for (; site != sites_end && site->at < i; ++site) {}
      for (; site != sites_end && site->at == i; ++site) {
        if ((live >> site->slot) & 1) patch_site(*site, id, line, v);
      }
      mark(id, v);
    }
  }

  const GroupFrameResult r = compare_outputs(sites, good_outputs, line);
  // Detection is final, so a slot detected now is reset to the fault-free
  // machine and injects nothing more.
  const std::uint64_t still_live = live & ~r.detected;
  latch(sites, still_live,
        [&](GateId g) {
          return pv_blend(line(g), pv_splat(good_lines[g]), still_live);
        },
        state);
  return r;
}

}  // namespace motsim
