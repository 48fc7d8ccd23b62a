// Ablation C: the value of the pair-selection machinery of Section 3.3.
//
//  * full      — criteria (1)-(4) plus phase-1 in-place closures (the paper)
//  * time-only — criteria (1)-(2), the information available to [4]
//  * random    — uniformly random valid pair
//  * no-phase1 — full criteria but one-sided conflict/detection pairs are
//                NOT applied in place (measures what the free closures add)
#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "util/table.hpp"

using namespace motsim;
using namespace motsim::experiments;

int main() {
  benchutil::heading("Ablation C: pair selection policies (extra detections)");
  Table t({"circuit", "full (paper)", "time-only", "random", "no-phase1"});
  for (const char* name : {"s208", "s298", "s344", "s420"}) {
    const auto* profile = circuits::find_profile(name);
    t.new_row().add(name);
    struct Variant {
      SelectionPolicy policy;
      bool phase1;
    };
    const Variant variants[] = {
        {SelectionPolicy::Full, true},
        {SelectionPolicy::TimeOnly, true},
        {SelectionPolicy::Random, true},
        {SelectionPolicy::Full, false},
    };
    for (const Variant& v : variants) {
      RunConfig rc;
      rc.mot.selection = v.policy;
      rc.mot.use_phase1 = v.phase1;
      // Isolate the selection policy: no plain-expansion rescue.
      rc.mot.fallback_plain_expansion = false;
      rc.run_baseline = false;
      const RunResult r = run_benchmark(*profile, rc);
      t.add(r.proposed_extra);
    }
  }
  std::printf("%s\n", t.render().c_str());
}
