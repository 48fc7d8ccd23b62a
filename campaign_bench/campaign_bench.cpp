// Campaign benchmark program: runs one fault-grading workload of the motsim
// experiment pipeline, times it, and checks its outputs.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --lanes L --scratch DIR [--smoke]
//
// A workload grades one circuit against a few test sequences drawn from the
// seed. --trace 0 times the real program path with nothing in between: the
// set-up calls (circuit, collapsed fault list, test sequences, fault-free
// traces), then experiments::run_circuit once per sequence, the campaign
// repeated until S seconds are spent; it reports medians. --trace 1 makes
// one untraced reference run, then a traced run that times every call into
// a layer's public functions from out here (no span is recorded inside the
// program) and re-simulates each processed candidate serially through the
// MOT layer to split its time.
//
// Every run checks its outputs: repeated campaigns must agree exactly, the
// per-fault batch items must aggregate to each campaign's counters, serial
// re-simulation must reproduce the batch items, and the forked fleet must
// reproduce the in-process run item for item. The last stdout line is one
// JSON object (provenance, counters, failed checks, metrics); run.py checks
// the pinned counters and prints the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "experiments/experiments.hpp"
#include "fault/fault.hpp"
#include "fault/fault_view.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "faultsim/conventional.hpp"
#include "mot/baseline.hpp"
#include "mot/collector.hpp"
#include "mot/proposed.hpp"
#include "sim/seq_sim.hpp"
#include "testgen/hitec_like.hpp"
#include "testgen/random_gen.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace {

using namespace motsim;
using experiments::RunConfig;
using experiments::RunResult;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  const char* name;
  const char* circuit;       ///< registry stand-in
  std::size_t sequences;     ///< test sequences graded per campaign
  std::size_t hitec_length;  ///< HITEC-like pattern budget; 0 = random
  bool fleet;                ///< SupervisedMotRunner workers + journal
  std::size_t prefix;        ///< candidates processed per sequence
  std::size_t setup_reps;    ///< set-ups per run; setup_s is their median
  /// Registry profile the RunConfig is built from: the circuit's own, also
  /// in smoke mode, where the circuit is swapped for a small one.
  const char* profile = nullptr;
};

// Why each workload is here, and why its sizes, is in README.md. Several
// sequences per campaign average out how much one random sequence happens
// to detect, so runs at different seeds do comparable work.
constexpr Workload kWorkloads[] = {
    {"table2_s5378", "s5378", 2, 0, false, 100, 40},
    {"heavy_s35932", "s35932", 1, 0, false, 60, 30},
    {"hitec_am2910", "am2910", 2, 64, false, 300, 2},
    {"fleet_am2910", "am2910", 4, 0, true, 100, 60},
};

/// Smoke mode keeps each workload's code path but runs it on s298, one
/// set-up, one campaign.
constexpr const char* kSmokeCircuit = "s298";

/// Candidates re-simulated serially on the reference kernel by the
/// --trace 0 output check.
constexpr std::size_t kSpotChecks = 8;

/// Sequence j of workload seed n; sequence 0 is the program's own sequence
/// for seed n (seed 7 = the experiments' default).
std::uint64_t sequence_seed(std::uint64_t n, std::size_t j) {
  return n + 1000 * static_cast<std::uint64_t>(j);
}

struct Stimulus {
  std::uint64_t seed = 0;
  TestSequence test;
  SeqTrace good;  ///< fault-free trace with line values
};

struct Inputs {
  Circuit circuit;
  std::vector<Fault> faults;
  std::vector<Stimulus> stimuli;
};

struct SetupTimes {
  double build = 0, collapse = 0, sequence = 0, fault_free = 0;
  double total() const { return build + collapse + sequence + fault_free; }
};

/// The set-up calls of a campaign, each timed (sequence and fault-free times
/// summed over the sequences). The sequence seeds mirror
/// experiments::run_benchmark and run_hitec_experiment, so the program sees
/// the inputs its own entry points would build.
std::unique_ptr<Inputs> set_up(const Workload& w, std::uint64_t seed,
                               SetupTimes& t) {
  auto in = std::make_unique<Inputs>();
  auto start = Clock::now();
  in->circuit = circuits::build_benchmark(w.circuit);
  // The levelized view the SoA kernel builds on first use belongs to the
  // circuit, not to the first fault-free simulation that happens to ask.
  in->circuit.levelized();
  t.build = since(start);

  start = Clock::now();
  in->faults = collapsed_fault_list(in->circuit);
  t.collapse = since(start);

  in->stimuli.resize(w.sequences);
  for (std::size_t j = 0; j < w.sequences; ++j) {
    Stimulus& st = in->stimuli[j];
    st.seed = sequence_seed(seed, j);
    start = Clock::now();
    if (w.hitec_length > 0) {
      HitecLikeParams params;
      params.seed = st.seed * 131 + 17;
      params.max_length = w.hitec_length;
      st.test = generate_hitec_like(in->circuit, in->faults, params).sequence;
    } else {
      const circuits::BenchmarkProfile& p = *circuits::find_profile(w.circuit);
      Rng rng(st.seed * 1000003 + p.params.seed);
      st.test = random_sequence(in->circuit.num_inputs(), p.test_length, rng);
    }
    t.sequence += since(start);

    start = Clock::now();
    st.good = SequentialSimulator(in->circuit).run_fault_free(st.test,
                                                              /*keep_lines=*/true);
    t.fault_free += since(start);
  }
  return in;
}

/// The RunConfig run_benchmark / run_hitec_experiment would build for
/// sequence `j`, at `lanes` lanes (threads, or forked workers on the fleet
/// workload) and with the workload's prefix.
RunConfig make_config(const Workload& w, const Stimulus& st, std::size_t j,
                      std::size_t lanes, const std::string& scratch) {
  RunConfig cfg;
  cfg.test_seed = st.seed;
  cfg.mot.num_threads = lanes;
  cfg.run_baseline = !circuits::find_profile(w.profile)->heavy;
  cfg.max_mot_faults = w.prefix;
  experiments::apply_profile_caps(w.profile, cfg);
  if (w.fleet) {
    cfg.supervisor.workers = lanes;
    cfg.journal_path = scratch + "/campaign-" + std::to_string(j) + ".journal";
  }
  return cfg;
}

/// Every exact output of one sequence's campaign that the benchmark compares.
struct Counters {
  std::size_t total_faults = 0, conv_detected = 0, proposed_extra = 0,
              baseline_extra = 0, baseline_only = 0, candidates = 0,
              processed = 0, collection_capped = 0, budget_stopped = 0,
              failed = 0;
  double avg_det = 0, avg_conf = 0, avg_extra = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

Counters counters_of(const RunResult& r) {
  Counters c;
  c.total_faults = r.total_faults;
  c.conv_detected = r.conv_detected;
  c.proposed_extra = r.proposed_extra;
  c.baseline_extra = r.baseline_extra;
  c.baseline_only = r.baseline_only;
  c.candidates = r.candidates;
  c.processed = r.processed;
  c.collection_capped = r.collection_capped_faults;
  c.budget_stopped = r.budget_stopped_faults;
  c.failed = r.incomplete_faults + r.quarantined_faults +
             r.worker_lost_faults + r.worker_poisoned_faults;
  c.avg_det = r.avg_det;
  c.avg_conf = r.avg_conf;
  c.avg_extra = r.avg_extra;
  return c;
}

std::vector<Counters> counters_of(const std::vector<RunResult>& rs) {
  std::vector<Counters> out;
  for (const RunResult& r : rs) out.push_back(counters_of(r));
  return out;
}

/// Failed output checks; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

RunResult run_campaign(const Inputs& in, const Stimulus& st,
                       const RunConfig& cfg) {
  if (!cfg.journal_path.empty()) {
    // Each fleet campaign starts a fresh journal (never a resume).
    std::filesystem::remove(cfg.journal_path);
  }
  RunResult r = experiments::run_circuit(in.circuit, st.test, cfg);
  if (!r.journal_error.empty() || !r.journal_io_error.empty()) {
    throw std::runtime_error("journal failure: " + r.journal_error +
                             r.journal_io_error);
  }
  return r;
}

/// The candidates run_circuit processes — undetected faults passing
/// condition (C), in fault order, cut to the prefix — found by serial
/// conventional simulation, independently of the 64-way pre-pass.
std::vector<std::size_t> candidates_of(const Inputs& in, const Stimulus& st,
                                       const RunConfig& cfg) {
  const ConventionalFaultSimulator conv(in.circuit, cfg.mot.kernel);
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < in.faults.size(); ++k) {
    if (cfg.max_mot_faults > 0 && out.size() == cfg.max_mot_faults) break;
    const ConvOutcome o = conv.analyze(st.test, st.good, in.faults[k]);
    if (!o.detected && o.passes_c) out.push_back(k);
  }
  return out;
}

/// The merged items a fleet campaign committed to its journal.
std::vector<MotBatchItem> journal_items(const Inputs& in, const Stimulus& st,
                                        const RunConfig& cfg,
                                        const std::vector<std::size_t>& cand,
                                        Checks& checks) {
  std::string err;
  const auto journal = CampaignJournal::open_resume(
      cfg.journal_path,
      make_journal_meta(in.circuit.name(), in.faults.size(), st.test, cfg.mot,
                        cfg.run_baseline),
      err);
  std::vector<MotBatchItem> items;
  checks.expect(journal != nullptr, "fleet journal unreadable: " + err);
  if (journal == nullptr) return items;
  for (const std::size_t k : cand) {
    const MotBatchItem* rec = journal->lookup(k);
    checks.expect(rec != nullptr,
                  "fleet journal lacks fault " + std::to_string(k));
    items.push_back(rec != nullptr ? *rec : MotBatchItem{});
  }
  return items;
}

/// The in-process batch items of one sequence's campaign
/// (MotBatchRunner::run), checked against the campaign's counters and, on
/// the fleet workload, against the items the workers journaled.
std::vector<MotBatchItem> checked_items(const Inputs& in, const Stimulus& st,
                                        const RunConfig& cfg, const RunResult& r,
                                        Checks& checks) {
  const std::vector<std::size_t> cand = candidates_of(in, st, cfg);
  const MotBatchRunner runner(in.circuit, cfg.mot, cfg.run_baseline);
  std::vector<MotBatchItem> items = runner.run(st.test, st.good, in.faults, cand);
  if (cfg.supervisor.workers > 0) {
    checks.expect(journal_items(in, st, cfg, cand, checks) == items,
                  "fleet items differ from the in-process run");
  }
  checks.expect(cand.size() == r.processed,
                "candidate prefix differs from the campaign's");
  std::size_t proposed = 0, base = 0, incomplete = 0;
  for (const MotBatchItem& item : items) {
    if (!item.completed) ++incomplete;
    if (item.mot.detected) ++proposed;
    if (cfg.run_baseline && item.baseline.detected) ++base;
  }
  checks.expect(proposed == r.proposed_extra,
                "batch items disagree with proposed_extra");
  checks.expect(base == r.baseline_extra,
                "batch items disagree with baseline_extra");
  checks.expect(incomplete == r.incomplete_faults,
                "batch items disagree with incomplete_faults");
  return items;
}

/// Layer totals of the serial per-fault pass.
struct SerialStats {
  double trace_s = 0, collect_s = 0, proposed_s = 0, baseline_s = 0;
  std::uint64_t probes = 0, pairs = 0, useful_pairs = 0, check_detected = 0,
                capped = 0, work_units = 0, expansions = 0, phase1_pairs = 0,
                final_sequences = 0, detected_collection = 0,
                detected_expansion = 0, nstates_aborts = 0,
                fallback_resolved = 0, baseline_expansions = 0,
                baseline_aborts = 0;
  std::vector<double> proposed_ms;  ///< per fault
  double fault_sum_s = 0;           ///< trace + proposed + baseline, summed
  double fault_max_s = 0;           ///< the slowest single fault
};

/// Re-simulates candidates one at a time through the public calls a batch
/// lane makes (same simulators, same per-fault reseeding), timing each call,
/// and compares every result with the batch item for that fault.
class SerialPass {
 public:
  SerialPass(const Inputs& in, const Stimulus& st, const RunConfig& cfg)
      : in_(in),
        st_(st),
        seed_(cfg.mot.selection_seed),
        conv_(in.circuit, cfg.mot.kernel),
        collector_(in.circuit, cfg.mot),
        proposed_(in.circuit, cfg.mot) {
    if (cfg.run_baseline) baseline_.emplace(in.circuit, cfg.mot);
  }

  void run(const MotBatchItem& expect, SerialStats& s, Checks& checks) {
    const std::size_t k = expect.fault_index;
    const Fault& f = in_.faults[k];

    auto start = Clock::now();
    SeqTrace faulty =
        conv_.simulate_fault(st_.test, f, /*keep_lines=*/true, &st_.good);
    const double trace_s = since(start);

    // An unlimited budget counts the backward probes without stopping them.
    WorkBudget probes;
    start = Clock::now();
    const CollectionResult col =
        collector_.collect(st_.good, faulty, FaultView(in_.circuit, f), &probes);
    const double collect_s = since(start);

    proposed_.reseed_selection(per_fault_selection_seed(seed_, k));
    start = Clock::now();
    const MotResult mot = proposed_.simulate_fault(st_.test, st_.good, f, faulty);
    const double proposed_s = since(start);
    checks.expect(mot == expect.mot,
                  "serial MOT result differs from batch item for fault " +
                      std::to_string(k));

    double baseline_s = 0;
    if (baseline_) {
      baseline_->reseed_selection(per_fault_selection_seed(~seed_, k));
      start = Clock::now();
      const BaselineResult b =
          baseline_->simulate_fault(st_.test, st_.good, f, faulty);
      baseline_s = since(start);
      checks.expect(b == expect.baseline,
                    "serial [4] result differs from batch item for fault " +
                        std::to_string(k));
      s.baseline_expansions += b.expansions;
      if (b.aborted) ++s.baseline_aborts;
    }

    s.trace_s += trace_s;
    s.collect_s += collect_s;
    s.proposed_s += proposed_s;
    s.baseline_s += baseline_s;
    s.probes += probes.work_used();
    s.pairs += col.pairs.size();
    for (const PairInfo& p : col.pairs) {
      if (!p.both_open()) ++s.useful_pairs;
    }
    if (col.detected_by_check) ++s.check_detected;
    if (col.capped) ++s.capped;
    s.work_units += mot.work_used;
    s.expansions += mot.expansions;
    s.phase1_pairs += mot.phase1_pairs;
    s.final_sequences += mot.final_sequences;
    if (mot.phase == MotPhase::Collection) ++s.detected_collection;
    if (mot.phase == MotPhase::Expansion) ++s.detected_expansion;
    if (mot.unresolved == UnresolvedReason::NStates) ++s.nstates_aborts;
    if (mot.via_fallback) ++s.fallback_resolved;
    s.proposed_ms.push_back(proposed_s * 1e3);
    const double fault_s = trace_s + proposed_s + baseline_s;
    s.fault_sum_s += fault_s;
    s.fault_max_s = std::max(s.fault_max_s, fault_s);
  }

 private:
  const Inputs& in_;
  const Stimulus& st_;
  std::uint64_t seed_;
  ConventionalFaultSimulator conv_;
  BackwardCollector collector_;
  MotFaultSimulator proposed_;
  std::optional<ExpansionBaseline> baseline_;
};

/// `n` spread-out items to spot-check: half among the items a procedure
/// detected (the extra detections the paper is about), the rest among all.
std::vector<std::size_t> spot_checks(const std::vector<MotBatchItem>& items,
                                     std::size_t n) {
  std::vector<std::size_t> detected, all;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].mot.detected || items[i].baseline.detected) {
      detected.push_back(i);
    }
    all.push_back(i);
  }
  std::vector<std::size_t> out;
  const auto spread = [&out](const std::vector<std::size_t>& from,
                             std::size_t k) {
    k = std::min(k, from.size());
    for (std::size_t i = 0; i < k; ++i) out.push_back(from[i * from.size() / k]);
  };
  spread(detected, n / 2);
  spread(all, n - out.size());
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Peak resident set of this process plus that of its largest reaped child
/// (the forked fleet workers), in MiB.
double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::size_t lanes = 0;
  std::string scratch;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    std::size_t used = v.size();
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v, &used);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--lanes") {
      a.lanes = std::stoul(v, &used);
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != v.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + v);
    }
  }
  if (a.lanes == 0 || a.lanes > 256) {
    throw std::invalid_argument("--lanes must be in [1, 256]");
  }
  if (a.scratch.empty()) throw std::invalid_argument("--scratch DIR is required");
  return a;
}

struct Report {
  std::vector<Counters> counters;  ///< per sequence
  std::vector<std::size_t> sequence_lengths;
  std::vector<std::uint64_t> test_hashes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

void describe_inputs(const Inputs& in, Report& rep) {
  for (const Stimulus& st : in.stimuli) {
    rep.sequence_lengths.push_back(st.test.length());
    rep.test_hashes.push_back(hash_test(st.test));
  }
}

Report run_untraced(const Workload& w, const Args& a, Checks& checks) {
  Report rep;
  const auto start = Clock::now();

  std::vector<double> setups;
  std::unique_ptr<Inputs> in;
  const std::size_t setup_reps = a.smoke ? 1 : w.setup_reps;
  for (std::size_t i = 0; i < setup_reps; ++i) {
    in.reset();
    SetupTimes t;
    in = set_up(w, a.seed, t);
    setups.push_back(t.total());
  }
  std::vector<RunConfig> cfgs;
  for (std::size_t j = 0; j < w.sequences; ++j) {
    cfgs.push_back(make_config(w, in->stimuli[j], j, a.lanes, a.scratch));
  }

  std::vector<double> campaigns;
  double campaign_total = 0;
  std::vector<RunResult> first;
  do {
    std::vector<RunResult> rs;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < w.sequences; ++j) {
      rs.push_back(run_campaign(*in, in->stimuli[j], cfgs[j]));
    }
    campaigns.push_back(since(t0));
    if (first.empty()) first = rs;
    checks.expect(counters_of(rs) == counters_of(first),
                  "repeated campaigns disagree");
    for (const Counters& c : counters_of(rs)) {
      rep.attempted += c.processed;
      rep.failed += c.failed;
    }
    // Run for the measuring time, and give the campaigns at least a third
    // of it even where set-up dominates.
    campaign_total += campaigns.back();
  } while (!a.smoke &&
           (since(start) < a.seconds || campaign_total < a.seconds / 3));
  const double rss = peak_rss_mb();

  // Output checks on the campaigns' items, with a few serial spot checks
  // per sequence on the Legacy kernel, the event-driven engines the SoA
  // kernel must match bit for bit, so they hold at any seed.
  const std::size_t spots = (kSpotChecks + w.sequences - 1) / w.sequences;
  for (std::size_t j = 0; j < w.sequences; ++j) {
    const Stimulus& st = in->stimuli[j];
    const std::vector<MotBatchItem> items =
        checked_items(*in, st, cfgs[j], first[j], checks);
    RunConfig reference = cfgs[j];
    reference.mot.kernel = KernelKind::Legacy;
    SerialPass serial(*in, st, reference);
    SerialStats unused;
    for (const std::size_t i : spot_checks(items, spots)) {
      serial.run(items[i], unused, checks);
    }
  }

  rep.counters = counters_of(first);
  describe_inputs(*in, rep);
  double faults = 0, conv = 0, proposed = 0, baseline = 0, processed = 0,
         failed = 0;
  for (const RunResult& r : first) {
    faults += static_cast<double>(r.total_faults);
    conv += static_cast<double>(r.conv_detected);
    proposed += static_cast<double>(r.proposed_total());
    baseline += static_cast<double>(r.baseline_total());
    processed += static_cast<double>(r.processed);
    failed += static_cast<double>(counters_of(r).failed);
  }
  const auto print_reps = [](const char* what, const std::vector<double>& v) {
    std::string reps;
    for (const double x : v) reps += ' ' + json_num(x);
    std::fprintf(stderr, "campaign_bench: %s seconds per repetition:%s\n",
                 what, reps.c_str());
  };
  print_reps("set-up", setups);
  print_reps("campaign", campaigns);
  const double setup_s = median(setups);
  const double campaign_s = median(campaigns);
  rep.metrics = {
      {"setup_s", setup_s, "s"},
      {"campaign_s", campaign_s, "s"},
      {"faults_per_s", faults / (setup_s + campaign_s), "faults/s"},
      {"peak_rss_mb", rss, "MB"},
      {"conv_detected", conv, "faults"},
      {"proposed_detected", proposed, "faults"},
      {"baseline_detected", baseline, "faults"},
      {"completed_fraction",
       processed > 0 ? 1.0 - failed / processed : 0.0, "ratio"},
  };
  return rep;
}

Report run_traced(const Workload& w, const Args& a, Checks& checks) {
  Report rep;

  // Untraced reference: the same set-up and campaigns with no spans, whose
  // wall time the traced run is compared against, and the batch items the
  // serial pass must reproduce.
  auto start = Clock::now();
  SetupTimes untimed;
  std::unique_ptr<Inputs> in = set_up(w, a.seed, untimed);
  std::vector<RunConfig> cfgs;
  std::vector<RunResult> ref;
  for (std::size_t j = 0; j < w.sequences; ++j) {
    cfgs.push_back(make_config(w, in->stimuli[j], j, a.lanes, a.scratch));
    ref.push_back(run_campaign(*in, in->stimuli[j], cfgs[j]));
  }
  const double ref_wall = since(start);
  std::vector<std::vector<MotBatchItem>> items;
  for (std::size_t j = 0; j < w.sequences; ++j) {
    items.push_back(checked_items(*in, in->stimuli[j], cfgs[j], ref[j], checks));
  }
  in.reset();

  // Traced run. Spans: the set-up calls, run_circuit per sequence with the
  // stage clocks it reports (pre-pass, batch), the journal read-back, and
  // per fault the serial calls.
  const auto traced_start = Clock::now();
  SetupTimes t;
  in = set_up(w, a.seed, t);
  double campaign_s = 0, prepass_s = 0, batch_s = 0;
  std::vector<RunResult> rs;
  for (std::size_t j = 0; j < w.sequences; ++j) {
    start = Clock::now();
    rs.push_back(run_campaign(*in, in->stimuli[j], cfgs[j]));
    campaign_s += since(start);
    prepass_s += rs.back().seconds_prepass;
    batch_s += rs.back().seconds_mot;
  }
  const double overhead_s = since(traced_start) - ref_wall;
  checks.expect(counters_of(rs) == counters_of(ref),
                "traced campaign disagrees with the untraced one");

  double journal_s = 0;
  std::uintmax_t journal_bytes = 0;
  std::size_t journal_records = 0;
  if (w.fleet) {
    start = Clock::now();
    for (std::size_t j = 0; j < w.sequences; ++j) {
      journal_bytes += std::filesystem::file_size(cfgs[j].journal_path);
      std::vector<std::size_t> cand;
      for (const MotBatchItem& item : items[j]) cand.push_back(item.fault_index);
      journal_records +=
          journal_items(*in, in->stimuli[j], cfgs[j], cand, checks).size();
    }
    journal_s = since(start);
  }

  SerialStats s;
  for (std::size_t j = 0; j < w.sequences; ++j) {
    SerialPass serial(*in, in->stimuli[j], cfgs[j]);
    for (const MotBatchItem& item : items[j]) serial.run(item, s, checks);
  }
  const double wall_s = since(traced_start);

  rep.counters = counters_of(rs);
  describe_inputs(*in, rep);
  double faults = 0, candidates = 0, sequence_len = 0, worker_deaths = 0;
  for (const RunResult& r : rs) {
    faults += static_cast<double>(r.total_faults);
    candidates += static_cast<double>(r.candidates);
    worker_deaths += static_cast<double>(r.worker_deaths);
    rep.failed += counters_of(r).failed;
  }
  for (const Stimulus& st : in->stimuli) sequence_len += st.test.length();
  rep.attempted = s.proposed_ms.size();

  // The rest of run_circuit outside its two stage clocks: its own fault
  // list and fault-free trace, journal creation, candidate selection and
  // aggregation. Measured, not estimated, so it is never negative.
  const double merge_s = campaign_s - prepass_s - batch_s;
  // Self times of disjoint spans; with trace.unattributed_s they sum to
  // trace.wall_s.
  const double self_sum = t.total() + prepass_s + batch_s + merge_s +
                          journal_s + s.trace_s + s.collect_s + s.proposed_s +
                          s.baseline_s;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.metrics = {
      {"circuits.build_s", t.build, "s"},
      {"fault.collapse_s", t.collapse, "s"},
      {"testgen.sequence_s", t.sequence, "s"},
      {"testgen.sequence_len", sequence_len, "patterns"},
      {"sim.fault_free_s", t.fault_free, "s"},
      {"faultsim.prepass_s", prepass_s, "s"},
      {"faultsim.prepass_faults_per_s", faults / prepass_s, "faults/s"},
      {"faultsim.candidates", candidates, "faults"},
      {"faultsim.batch_s", batch_s, "s"},
      {"faultsim.batch_efficiency",
       s.fault_sum_s / (static_cast<double>(a.lanes) * batch_s), "ratio"},
      {"faultsim.batch_tail_ms", s.fault_max_s * 1e3, "ms"},
      {"faultsim.journal_s", journal_s, "s"},
      {"faultsim.journal_bytes", n(journal_bytes), "bytes"},
      {"faultsim.journal_records", n(journal_records), "records"},
      {"faultsim.worker_deaths", worker_deaths, "count"},
      {"mot.faulty_trace_s", s.trace_s, "s"},
      {"mot.collect_s", s.collect_s, "s"},
      {"mot.collect_probes", n(s.probes), "probes"},
      {"mot.collect_pairs", n(s.pairs), "pairs"},
      {"mot.collect_useful_ratio",
       s.pairs > 0 ? n(s.useful_pairs) / n(s.pairs) : 0, "ratio"},
      {"mot.collect_check_detected", n(s.check_detected), "faults"},
      {"mot.collect_capped", n(s.capped), "faults"},
      {"mot.proposed_s", s.proposed_s, "s"},
      {"mot.proposed_fault_p50_ms", percentile(s.proposed_ms, 50), "ms"},
      {"mot.proposed_fault_p99_ms", percentile(s.proposed_ms, 99), "ms"},
      {"mot.proposed_fault_samples", n(s.proposed_ms.size()), "faults"},
      {"mot.expand_resim_s", s.proposed_s - s.collect_s, "s"},
      {"mot.work_units", n(s.work_units), "units"},
      {"mot.expansions", n(s.expansions), "count"},
      {"mot.phase1_pairs", n(s.phase1_pairs), "pairs"},
      {"mot.final_sequences", n(s.final_sequences), "sequences"},
      {"mot.detected_collection", n(s.detected_collection), "faults"},
      {"mot.detected_expansion", n(s.detected_expansion), "faults"},
      {"mot.nstates_aborts", n(s.nstates_aborts), "faults"},
      {"mot.fallback_resolved", n(s.fallback_resolved), "faults"},
      {"mot.baseline_s", s.baseline_s, "s"},
      {"mot.baseline_expansions", n(s.baseline_expansions), "count"},
      {"mot.baseline_aborts", n(s.baseline_aborts), "faults"},
      {"experiments.merge_s", merge_s, "s"},
      {"trace.unattributed_s", wall_s - self_sum, "s"},
      {"trace.overhead_s", overhead_s, "s"},
      {"trace.wall_s", wall_s, "s"},
  };
  return rep;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string counters_json(const Report& rep) {
  std::string out = "[";
  for (std::size_t j = 0; j < rep.counters.size(); ++j) {
    const Counters& c = rep.counters[j];
    out += (j ? ", " : "");
    out += "{\"total_faults\": " + std::to_string(c.total_faults) +
           ", \"conv_detected\": " + std::to_string(c.conv_detected) +
           ", \"proposed_extra\": " + std::to_string(c.proposed_extra) +
           ", \"baseline_extra\": " + std::to_string(c.baseline_extra) +
           ", \"baseline_only\": " + std::to_string(c.baseline_only) +
           ", \"avg_det\": " + json_num(c.avg_det) +
           ", \"avg_conf\": " + json_num(c.avg_conf) +
           ", \"avg_extra\": " + json_num(c.avg_extra) +
           ", \"candidates\": " + std::to_string(c.candidates) +
           ", \"processed\": " + std::to_string(c.processed) +
           ", \"collection_capped\": " + std::to_string(c.collection_capped) +
           ", \"budget_stopped\": " + std::to_string(c.budget_stopped) +
           ", \"failed\": " + std::to_string(c.failed) +
           ", \"sequence_length\": " + std::to_string(rep.sequence_lengths[j]) +
           ", \"test_hash\": " + json_str(std::to_string(rep.test_hashes[j])) +
           "}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
  const Workload* found = find_workload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "campaign_bench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  Workload w = *found;
  w.profile = w.circuit;
  if (a.smoke) {
    w.circuit = kSmokeCircuit;
    w.prefix = 0;
  }

  Checks checks;
  Report rep;
  try {
    rep = a.trace ? run_traced(w, a, checks) : run_untraced(w, a, checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }

  std::string out = "{\"workload\": " + json_str(w.name) +
                    ", \"circuit\": " + json_str(w.circuit) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"lanes\": " + std::to_string(a.lanes) +
                    ", \"build_type\": " + json_str(BENCH_BUILD_TYPE) +
                    ", \"cxx_flags\": " + json_str(BENCH_CXX_FLAGS) +
                    ", \"compiler\": " + json_str(BENCH_COMPILER);
#ifdef NDEBUG
  out += ", \"ndebug\": true";
#else
  out += ", \"ndebug\": false";
#endif
  out += ", \"counters\": " + counters_json(rep) + ", \"checks_failed\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    out += (i ? ", " : "") + json_str(checks.failures[i]);
  }
  out += "], \"attempted\": " + std::to_string(rep.attempted) +
         ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " +
           json_num(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
