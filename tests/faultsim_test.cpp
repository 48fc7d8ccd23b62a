// Tests for src/faultsim: the serial conventional fault simulator and the
// equivalence of the 64-way parallel-fault accelerator.
#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "faultsim/parallel.hpp"
#include "faultsim/session.hpp"
#include "mot/oracle.hpp"
#include "netlist/builder.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

TEST(Conventional, DetectsObviousOutputFault) {
  const Circuit c = circuits::make_s27();
  Rng rng(3);
  const TestSequence t = random_sequence(4, 16, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  // G17 is the only output; stuck-at on it conflicts as soon as the
  // fault-free value is specified opposite.
  const ConventionalFaultSimulator fs(c);
  bool any_output_specified = false;
  for (const auto& row : good.outputs) {
    any_output_specified = any_output_specified || is_specified(row[0]);
  }
  ASSERT_TRUE(any_output_specified);
  const Fault sa0{c.find("G17"), kOutputPin, Val::Zero};
  const Fault sa1{c.find("G17"), kOutputPin, Val::One};
  const bool d0 = fs.analyze(t, good, sa0).detected;
  const bool d1 = fs.analyze(t, good, sa1).detected;
  // At least one polarity must conflict with a specified good value.
  EXPECT_TRUE(d0 || d1);
}

TEST(Conventional, SomeUndetectedFaultPassesConditionC) {
  const Circuit c = circuits::make_table1_example();
  // XOR state feedback: states stay unspecified, outputs partially X —
  // the Table-1 machine exists precisely to exercise the MOT pipeline, so
  // its fault list must contain condition-(C) candidates.
  Rng rng(5);
  const TestSequence t = random_sequence(2, 10, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const ConventionalFaultSimulator fs(c);
  std::size_t candidates = 0;
  for (const Fault& f : collapsed_fault_list(c)) {
    const ConvOutcome out = fs.analyze(t, good, f);
    EXPECT_FALSE(out.detected && out.passes_c);  // mutually exclusive
    candidates += out.passes_c;
  }
  EXPECT_GT(candidates, 0u);
}

TEST(Conventional, DetectionImpliesOracleDetection) {
  // Single-observation-time detection is sound for restricted MOT: if the
  // all-X faulty response conflicts, every initial state's response does.
  const Circuit c = circuits::make_s27();
  Rng rng(11);
  const TestSequence t = random_sequence(4, 20, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const ConventionalFaultSimulator fs(c);
  for (const Fault& f : collapsed_fault_list(c)) {
    if (!fs.analyze(t, good, f).detected) continue;
    const OracleVerdict o = restricted_mot_oracle(c, t, good, f);
    ASSERT_TRUE(o.computable);
    EXPECT_TRUE(o.detected) << fault_name(c, f);
  }
}

// ---------------------------------------------- parallel == serial ----

struct ParCase {
  std::uint64_t seed;
  std::size_t length;
  double x_prob;
};

class ParallelEquivalence : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelEquivalence, MatchesSerialOnGeneratedCircuits) {
  const ParCase pc = GetParam();
  circuits::GeneratorParams p;
  p.name = "par";
  p.seed = pc.seed;
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 60;
  p.uninit_fraction = 0.3;
  const Circuit c = circuits::generate(p);
  Rng rng(pc.seed * 13 + 7);
  const TestSequence t =
      pc.x_prob > 0 ? random_sequence_with_x(5, pc.length, pc.x_prob, rng)
                    : random_sequence(5, pc.length, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const auto faults = collapsed_fault_list(c);

  const ConventionalFaultSimulator serial(c);
  const ParallelFaultSimulator parallel(c);
  const auto so = serial.run(t, good, faults);
  const auto po = parallel.run(t, good, faults);
  ASSERT_EQ(so.size(), po.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(so[k].detected, po[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(so[k].passes_c, po[k].passes_c) << fault_name(c, faults[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ParallelEquivalence,
    ::testing::Values(ParCase{1, 12, 0.0}, ParCase{2, 20, 0.0},
                      ParCase{3, 8, 0.0}, ParCase{4, 16, 0.25},
                      ParCase{5, 10, 0.5}, ParCase{6, 24, 0.0},
                      ParCase{7, 12, 0.1}, ParCase{8, 18, 0.0}));

TEST(ParallelEquivalence, MatchesSerialOnS27) {
  const Circuit c = circuits::make_s27();
  Rng rng(21);
  const TestSequence t = random_sequence(4, 30, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const auto faults = enumerate_faults(c);  // uncollapsed: more coverage
  const auto so = ConventionalFaultSimulator(c).run(t, good, faults);
  const auto po = ParallelFaultSimulator(c).run(t, good, faults);
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(so[k].detected, po[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(so[k].passes_c, po[k].passes_c) << fault_name(c, faults[k]);
  }
}

TEST(ParallelEquivalence, HandlesMoreThanOneGroup) {
  // >63 faults forces multiple parallel groups.
  circuits::GeneratorParams p;
  p.name = "groups";
  p.seed = 42;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_dffs = 8;
  p.num_comb_gates = 120;
  const Circuit c = circuits::generate(p);
  const auto faults = collapsed_fault_list(c);
  ASSERT_GT(faults.size(), 130u);
  Rng rng(17);
  const TestSequence t = random_sequence(6, 10, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const auto so = ConventionalFaultSimulator(c).run(t, good, faults);
  const auto po = ParallelFaultSimulator(c).run(t, good, faults);
  std::size_t serial_detected = 0;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    serial_detected += so[k].detected;
    ASSERT_EQ(so[k].detected, po[k].detected) << k;
  }
  EXPECT_GT(serial_detected, 0u);
}

// ----------------------------------------------- incremental session ----

/// Session detections equal a one-shot ParallelFaultSimulator run over
/// everything the session was given. The session and the pre-pass share
/// one packed step, so the serial simulator is checked too: it alone would
/// notice a fault site that step mishandles.
void expect_matches_one_shot(const ParallelFaultSession& session,
                             const Circuit& c, const std::vector<Fault>& faults,
                             const TestSequence& applied) {
  const SeqTrace good = SequentialSimulator(c).run_fault_free(applied);
  const auto ref = ParallelFaultSimulator(c).run(applied, good, faults);
  const auto serial = ConventionalFaultSimulator(c).run(applied, good, faults);
  EXPECT_EQ(session.length(), applied.length());
  std::size_t ref_detected = 0;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    ref_detected += ref[k].detected;
    EXPECT_EQ(session.is_detected(k), ref[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(serial[k].detected, ref[k].detected) << fault_name(c, faults[k]);
  }
  EXPECT_EQ(session.detected_count(), ref_detected);
}

class SessionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionEquivalence, SegmentedApplyMatchesOneShotSimulation) {
  circuits::GeneratorParams p;
  p.name = "sess";
  p.seed = GetParam();
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 50;
  p.uninit_fraction = 0.3;
  const Circuit c = circuits::generate(p);
  const auto faults = collapsed_fault_list(c);
  Rng rng(GetParam() * 5 + 2);
  const TestSequence full = random_sequence(4, 21, rng);

  // Session: apply in unequal segments (7 + 1 + 13).
  ParallelFaultSession session(c, faults);
  TestSequence seg1(4, 0), seg2(4, 0), seg3(4, 0);
  for (std::size_t u = 0; u < full.length(); ++u) {
    TestSequence& dst = u < 7 ? seg1 : (u < 8 ? seg2 : seg3);
    dst.append(full.pattern(u));
  }
  session.apply(seg1);
  session.apply(seg2);
  session.apply(seg3);
  expect_matches_one_shot(session, c, faults, full);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/// A random sequential circuit with both constants, primary inputs that
/// fan out and drive an output, and two flip-flops sharing a D driver, so
/// its uncollapsed fault list has every site the packed step patches:
/// PI stems, constant-gate faults, gate pins, DFF Q stems and DFF D pins.
Circuit session_circuit(std::uint64_t seed) {
  Rng rng(seed);
  CircuitBuilder b("sess_sites");
  std::vector<GateId> pool;
  for (int k = 0; k < 4; ++k) pool.push_back(b.add_input("i" + std::to_string(k)));
  pool.push_back(b.add_gate(GateType::Const0, "c0", {}));
  pool.push_back(b.add_gate(GateType::Const1, "c1", {}));
  std::vector<GateId> q;
  for (int k = 0; k < 5; ++k) {
    q.push_back(b.declare("q" + std::to_string(k)));
    pool.push_back(q.back());
  }
  const GateType kinds[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor,
                            GateType::Not, GateType::Buf};
  for (int k = 0; k < 40; ++k) {
    const GateType t = kinds[rng.next_below(8)];
    const std::size_t n =
        t == GateType::Not || t == GateType::Buf ? 1 : 2 + rng.next_below(2);
    std::vector<GateId> fanins;
    while (fanins.size() < n) {
      const GateId f = pool[rng.next_below(pool.size())];
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end()) {
        fanins.push_back(f);
      }
    }
    pool.push_back(b.add_gate(t, "g" + std::to_string(k), std::move(fanins)));
  }
  b.define(q[0], GateType::Dff, {pool.back()});
  b.define(q[1], GateType::Dff, {pool.back()});
  for (std::size_t k = 2; k < q.size(); ++k) {
    b.define(q[k], GateType::Dff, {pool[pool.size() - 2 - rng.next_below(20)]});
  }
  b.mark_output(pool[pool.size() - 2]);
  b.mark_output(pool[pool.size() - 3]);
  b.mark_output(pool[0]);
  return b.build_or_throw();
}

TEST_P(SessionEquivalence, ForkAfterFullyDetectedGroupsMatchesOneShot) {
  const Circuit c = session_circuit(GetParam());
  std::vector<Fault> faults = enumerate_faults(c);
  const auto has = [&](auto pred) {
    return std::any_of(faults.begin(), faults.end(), pred);
  };
  ASSERT_TRUE(has([&](const Fault& f) {
    return c.gate(f.gate).type == GateType::Input;
  }));
  ASSERT_TRUE(has([&](const Fault& f) {
    const GateType t = c.gate(f.gate).type;
    return t == GateType::Const0 || t == GateType::Const1;
  }));
  ASSERT_TRUE(has([&](const Fault& f) {
    return c.gate(f.gate).type == GateType::Dff && f.pin == kOutputPin;
  }));
  ASSERT_TRUE(has([&](const Fault& f) {
    return c.gate(f.gate).type == GateType::Dff && f.pin != kOutputPin;
  }));

  Rng rng(GetParam() * 11 + 3);
  const TestSequence prefix = random_sequence(4, 12, rng);
  const TestSequence tail_a = random_sequence(4, 9, rng);
  const TestSequence tail_b = random_sequence(4, 9, rng);

  // The leading group holds only faults the prefix detects (repeated as
  // needed; a fault list may list a fault twice), so after the prefix it is
  // fully detected and the tails run past a skipped group. The whole
  // universe follows, ending in a ragged group.
  const SeqTrace prefix_good = SequentialSimulator(c).run_fault_free(prefix);
  const auto by_prefix = ParallelFaultSimulator(c).run(prefix, prefix_good, faults);
  std::vector<Fault> easy;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (by_prefix[k].detected) easy.push_back(faults[k]);
  }
  ASSERT_FALSE(easy.empty());
  std::vector<Fault> ordered;
  for (std::size_t k = 0; k < kFaultGroup; ++k) ordered.push_back(easy[k % easy.size()]);
  ordered.insert(ordered.end(), faults.begin(), faults.end());
  faults = std::move(ordered);
  if (faults.size() % kFaultGroup == 0) faults.pop_back();
  ASSERT_GT(faults.size(), 2 * kFaultGroup);

  ParallelFaultSession session(c, faults);
  TestSequence head(4, 0), rest(4, 0);
  for (std::size_t u = 0; u < prefix.length(); ++u) {
    (u < 5 ? head : rest).append(prefix.pattern(u));
  }
  session.apply(head);
  session.apply(rest);
  expect_matches_one_shot(session, c, faults, prefix);
  for (std::size_t k = 0; k < kFaultGroup; ++k) ASSERT_TRUE(session.is_detected(k));

  // Fork, then advance parent and clone along different tails.
  ParallelFaultSession fork = session;
  session.apply(tail_a);
  fork.apply(tail_b);
  fork.apply(tail_a);
  TestSequence seq_a = prefix, seq_b = prefix;
  seq_a.append_all(tail_a);
  seq_b.append_all(tail_b);
  seq_b.append_all(tail_a);
  expect_matches_one_shot(session, c, faults, seq_a);
  expect_matches_one_shot(fork, c, faults, seq_b);
}

TEST(Session, CloneForksTheState) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  Rng rng(9);
  ParallelFaultSession a(c, faults);
  a.apply(random_sequence(4, 10, rng));
  ParallelFaultSession b = a;
  const std::size_t before = a.detected_count();
  b.apply(random_sequence(4, 10, rng));
  EXPECT_EQ(a.detected_count(), before);       // original untouched
  EXPECT_GE(b.detected_count(), before);       // detections only grow
}

TEST(Parallel, EmptyFaultListIsFine) {
  const Circuit c = circuits::make_s27();
  Rng rng(1);
  const TestSequence t = random_sequence(4, 4, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  EXPECT_TRUE(ParallelFaultSimulator(c).run(t, good, {}).empty());
}

}  // namespace
}  // namespace motsim
