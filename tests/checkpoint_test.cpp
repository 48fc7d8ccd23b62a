// Campaign resilience tests: per-fault budgets, campaign stops, the
// crash-safe journal (kill-and-resume determinism, torn-record recovery,
// meta validation), I/O fault injection (crash at every syscall, retry and
// backoff of transient errors), worker quarantine and the graceful
// degradation ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "faultsim/parallel.hpp"
#include "testgen/random_gen.hpp"
#include "util/fsio.hpp"

namespace motsim {
namespace {

struct Pipeline {
  Circuit circuit;
  TestSequence test;
  SeqTrace good;
  std::vector<Fault> faults;
  std::vector<std::size_t> candidates;  // undetected, passes condition (C)
};

Pipeline prepare(Circuit c, std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  TestSequence test = random_sequence(c.num_inputs(), length, rng);
  const SequentialSimulator sim(c);
  SeqTrace good = sim.run_fault_free(test, /*keep_lines=*/true);
  std::vector<Fault> faults = collapsed_fault_list(c);
  const ParallelFaultSimulator pfs(c);
  const std::vector<ConvOutcome> conv = pfs.run(test, good, faults);
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (!conv[k].detected && conv[k].passes_c) candidates.push_back(k);
  }
  return {std::move(c), std::move(test), std::move(good), std::move(faults),
          std::move(candidates)};
}

/// A circuit with many uninitializable state variables: its undetected MOT
/// candidates grind through the expansion budget, which is exactly the load
/// the budget/campaign controls exist for.
Pipeline prepare_grinding() {
  circuits::GeneratorParams params;
  params.name = "grind";
  params.num_inputs = 6;
  params.num_outputs = 4;
  params.num_dffs = 18;
  params.num_comb_gates = 90;
  params.uninit_fraction = 0.8;
  params.seed = 5;
  return prepare(circuits::generate(params), 40, 23);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void expect_items_identical(const std::vector<MotBatchItem>& a,
                            const std::vector<MotBatchItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "item " << i;
  }
}

TEST(CampaignJournal, RoundTripPreservesEveryField) {
  const std::string path = temp_path("roundtrip.journal");
  JournalMeta meta;
  meta.circuit = "unit";
  meta.num_faults = 100;
  meta.test_length = 7;
  meta.test_hash = 0x1234;
  meta.options_hash = 0xabcd;
  meta.baseline = true;

  MotBatchItem item;
  item.fault_index = 42;
  item.mot.detected = true;
  item.mot.phase = MotPhase::Expansion;
  item.mot.detected_conventional = false;
  item.mot.passes_c = true;
  item.mot.counters = {3, 5, 77};
  item.mot.expansions = 12;
  item.mot.phase1_pairs = 4;
  item.mot.final_sequences = 64;
  item.mot.collection_capped = true;
  item.mot.via_fallback = true;
  item.mot.unresolved = UnresolvedReason::None;
  item.mot.work_used = 123456789;
  item.baseline.detected = false;
  item.baseline.passes_c = true;
  item.baseline.expansions = 63;
  item.baseline.final_sequences = 64;
  item.baseline.aborted = true;
  item.baseline.unresolved = UnresolvedReason::NStates;

  MotBatchItem other;
  other.fault_index = 7;
  other.mot.unresolved = UnresolvedReason::WorkLimit;
  other.mot.work_used = 1000;
  other.baseline.unresolved = UnresolvedReason::Deadline;

  {
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    EXPECT_EQ(journal->resumed_count(), 0u);
    EXPECT_TRUE(journal->append(item));
    EXPECT_TRUE(journal->append(other));
  }
  std::string err;
  auto journal = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(journal, nullptr) << err;
  EXPECT_EQ(journal->resumed_count(), 2u);
  ASSERT_NE(journal->lookup(42), nullptr);
  EXPECT_EQ(*journal->lookup(42), item);
  ASSERT_NE(journal->lookup(7), nullptr);
  EXPECT_EQ(*journal->lookup(7), other);
  EXPECT_EQ(journal->lookup(0), nullptr);
}

TEST(CampaignJournal, MetaMismatchIsRejected) {
  const std::string path = temp_path("meta.journal");
  JournalMeta meta;
  meta.circuit = "unit";
  meta.num_faults = 10;
  {
    std::string err;
    ASSERT_NE(CampaignJournal::create(path, meta, err), nullptr) << err;
  }
  JournalMeta wrong = meta;
  wrong.options_hash = 999;
  std::string err;
  EXPECT_EQ(CampaignJournal::open_resume(path, wrong, err), nullptr);
  EXPECT_NE(err.find("does not match"), std::string::npos) << err;

  err.clear();
  EXPECT_EQ(CampaignJournal::open_resume(temp_path("missing.journal"), meta, err),
            nullptr);
  EXPECT_FALSE(err.empty());
}

TEST(CampaignJournal, TornFinalRecordIsDiscardedAndOverwritten) {
  const std::string path = temp_path("torn.journal");
  JournalMeta meta;
  meta.circuit = "unit";
  meta.num_faults = 10;
  MotBatchItem a;
  a.fault_index = 1;
  a.mot.detected = true;
  a.mot.phase = MotPhase::Collection;
  {
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    EXPECT_TRUE(journal->append(a));
  }
  // Emulate a crash mid-append: a record prefix without the terminator.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "f 9 1 4 0";
  }
  std::string err;
  auto journal = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(journal, nullptr) << err;
  EXPECT_EQ(journal->resumed_count(), 1u);
  EXPECT_EQ(journal->lookup(9), nullptr);

  // The torn bytes were truncated away, so appending keeps the file valid.
  MotBatchItem b;
  b.fault_index = 2;
  EXPECT_TRUE(journal->append(b));
  journal.reset();
  auto reopened = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(reopened, nullptr) << err;
  EXPECT_EQ(reopened->resumed_count(), 2u);
  ASSERT_NE(reopened->lookup(2), nullptr);
  EXPECT_EQ(*reopened->lookup(2), b);
}

TEST(CampaignJournal, CorruptionBeforeTheEndIsAnError) {
  const std::string path = temp_path("corrupt.journal");
  JournalMeta meta;
  meta.circuit = "unit";
  meta.num_faults = 10;
  {
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "garbage line\n";
    out << "f 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 ;\n";
  }
  std::string err;
  EXPECT_EQ(CampaignJournal::open_resume(path, meta, err), nullptr);
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
}

// Property test: a journal truncated at EVERY byte offset must either
// resume cleanly or be rejected with a clear error — never crash, hang, or
// silently drop a record that was fully written. Truncation anywhere past
// the header must resume (only the torn final record may be discarded);
// every record whose terminator survived the cut must come back verbatim.
TEST(CampaignJournal, TruncationAtEveryByteOffsetResumesOrRejects) {
  const std::string path = temp_path("truncation_prop.journal");
  JournalMeta meta;
  meta.circuit = "unit";
  meta.num_faults = 50;
  meta.baseline = true;

  std::vector<MotBatchItem> items;
  for (std::uint64_t i = 0; i < 5; ++i) {
    MotBatchItem item;
    item.fault_index = static_cast<std::size_t>(i * 3 + 1);
    item.mot.detected = (i % 2) == 0;
    item.mot.phase = MotPhase::Expansion;
    item.mot.passes_c = true;
    item.mot.counters = {i, 2 * i, 3 * i};
    item.mot.expansions = static_cast<std::size_t>(i);
    item.mot.work_used = 1000 + i;
    item.mot.unresolved =
        i == 4 ? UnresolvedReason::WorkLimit : UnresolvedReason::None;
    item.baseline.detected = (i % 3) == 0;
    item.baseline.expansions = static_cast<std::size_t>(7 * i);
    items.push_back(item);
  }
  {
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    for (const MotBatchItem& item : items) ASSERT_TRUE(journal->append(item));
  }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t header_end = text.find("end\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::size_t body_start = header_end + 4;
  std::vector<std::size_t> record_ends;  // offset one past each ";\n"
  for (std::size_t pos = body_start; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    record_ends.push_back(nl + 1);
    pos = nl + 1;
  }
  ASSERT_EQ(record_ends.size(), items.size());

  const std::string cut_path = temp_path("truncation_prop_cut.journal");
  for (std::size_t len = 0; len <= text.size(); ++len) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(text.data(), static_cast<std::streamsize>(len));
    }
    // A record is complete once its ';' terminator is inside the prefix;
    // the trailing newline is only a separator.
    std::size_t complete = 0;
    while (complete < record_ends.size() && record_ends[complete] - 1 <= len) {
      ++complete;
    }
    std::string err;
    auto journal = CampaignJournal::open_resume(cut_path, meta, err);
    if (journal == nullptr) {
      // Rejection is only legal inside the header, and must say why.
      EXPECT_LT(len, body_start) << "offset " << len << ": " << err;
      EXPECT_FALSE(err.empty()) << "offset " << len;
      continue;
    }
    EXPECT_EQ(journal->resumed_count(), complete) << "offset " << len;
    for (std::size_t i = 0; i < complete; ++i) {
      const MotBatchItem* got = journal->lookup(items[i].fault_index);
      ASSERT_NE(got, nullptr) << "offset " << len << " record " << i;
      EXPECT_EQ(*got, items[i]) << "offset " << len << " record " << i;
    }
  }
}

RetryPolicy zero_delay_policy() {
  RetryPolicy policy;
  policy.base_delay_us = 0;
  policy.max_delay_us = 0;
  return policy;
}

/// Synthetic items for the fault-injection journal tests.
std::vector<MotBatchItem> synthetic_items(std::size_t n) {
  std::vector<MotBatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    MotBatchItem item;
    item.fault_index = i * 2 + 1;
    item.mot.detected = (i % 2) == 0;
    item.mot.phase = MotPhase::Expansion;
    item.mot.passes_c = true;
    item.mot.counters = {i, i + 1, i + 2};
    item.mot.work_used = 100 + i;
    item.baseline.detected = (i % 3) == 0;
    item.baseline.expansions = 5 * i;
    if (i == n - 1) {
      item.mot.unresolved = UnresolvedReason::EngineError;
      item.degrade = DegradeLevel::PlainExpansion;
      item.error = "synthetic_diagnostic";
    }
    items.push_back(item);
  }
  return items;
}

// The tentpole property test: crash the "filesystem" at EVERY operation of
// a journaled campaign. Whatever state the crash leaves behind, recovery
// (resume if the file is usable, else a fresh journal) plus finishing the
// remaining appends must reconstruct the full record set verbatim — never a
// crash, never a corrupted record accepted, never a fully-fsync'd record
// lost.
TEST(FsioFaultInjection, CrashAtEveryOpIsRecoverable) {
  JournalMeta meta;
  meta.circuit = "crashprop";
  meta.num_faults = 20;
  meta.baseline = true;
  const std::vector<MotBatchItem> items = synthetic_items(4);
  const std::string path = temp_path("crash_at_every_op.journal");

  // Fault-free pass through a counting shim sizes the sweep.
  std::uint64_t total_ops = 0;
  {
    std::remove(path.c_str());
    fsio::FaultInjectingFsIo counter{fsio::FaultPlan{}};
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err, &counter);
    ASSERT_NE(journal, nullptr) << err;
    for (const MotBatchItem& item : items) ASSERT_TRUE(journal->append(item));
    journal.reset();
    total_ops = counter.ops();
  }
  ASSERT_GT(total_ops, 10u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    fsio::FaultPlan plan;
    plan.fail_at_op = k;
    plan.kind = fsio::FaultKind::Crash;
    fsio::FaultInjectingFsIo io(plan);
    std::string err;
    std::size_t appended = 0;
    {
      auto journal = CampaignJournal::create(path, meta, err, &io);
      if (journal != nullptr) {
        journal->set_retry_policy(zero_delay_policy(), [](std::uint64_t) {});
        for (const MotBatchItem& item : items) {
          if (!journal->append(item)) break;
          ++appended;
        }
        EXPECT_TRUE(appended == items.size() || journal->failed())
            << "crash at op " << k << ": append failed without latching";
      }
    }

    // Recovery happens on the healthy filesystem the next process sees.
    auto resumed = CampaignJournal::open_resume(path, meta, err);
    if (resumed == nullptr) {
      // Crash before the journal became durable: a fresh campaign must be
      // able to start from scratch.
      std::string err2;
      auto fresh = CampaignJournal::create(path, meta, err2);
      ASSERT_NE(fresh, nullptr) << "crash at op " << k << ": " << err
                                << " / " << err2;
      resumed = std::move(fresh);
    }
    // Every record that survived is verbatim one of ours, and they form a
    // prefix: a record is only ever durable after all its predecessors.
    const std::size_t have = resumed->resumed_count();
    EXPECT_GE(have, appended) << "crash at op " << k
                              << " lost an acknowledged record";
    EXPECT_LE(have, appended + 1) << "crash at op " << k;
    for (std::size_t i = 0; i < have; ++i) {
      const MotBatchItem* got = resumed->lookup(items[i].fault_index);
      ASSERT_NE(got, nullptr) << "crash at op " << k << " record " << i;
      EXPECT_EQ(*got, items[i]) << "crash at op " << k << " record " << i;
    }
    // Finishing the campaign on the recovered journal yields the full set.
    for (std::size_t i = have; i < items.size(); ++i) {
      ASSERT_TRUE(resumed->append(items[i])) << "crash at op " << k;
    }
    resumed.reset();
    auto final_check = CampaignJournal::open_resume(path, meta, err);
    ASSERT_NE(final_check, nullptr) << "crash at op " << k << ": " << err;
    EXPECT_EQ(final_check->resumed_count(), items.size());
    for (const MotBatchItem& item : items) {
      const MotBatchItem* got = final_check->lookup(item.fault_index);
      ASSERT_NE(got, nullptr) << "crash at op " << k;
      EXPECT_EQ(*got, item) << "crash at op " << k;
    }
  }
  std::remove(path.c_str());
}

// Transient errno values (EAGAIN) on append are retried under the journal's
// RetryPolicy and succeed without surfacing; the backoff delays come from
// the deterministic schedule.
TEST(CampaignJournal, TransientAppendErrorsAreRetried) {
  JournalMeta meta;
  meta.circuit = "retry";
  meta.num_faults = 10;
  const std::string path = temp_path("retry.journal");

  // Count the ops journal creation consumes so the fault can be aimed at
  // the first append's write.
  std::uint64_t create_ops = 0;
  {
    fsio::FaultInjectingFsIo counter{fsio::FaultPlan{}};
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err, &counter);
    ASSERT_NE(journal, nullptr) << err;
    create_ops = counter.ops();
  }

  fsio::FaultPlan plan;
  plan.fail_at_op = create_ops + 1;  // the first append's write
  plan.kind = fsio::FaultKind::Errno;
  plan.err = EAGAIN;
  plan.fail_count = 2;  // the write and the rollback ftruncate
  fsio::FaultInjectingFsIo io(plan);
  std::string err;
  auto journal = CampaignJournal::create(path, meta, err, &io);
  ASSERT_NE(journal, nullptr) << err;
  std::vector<std::uint64_t> sleeps;
  RetryPolicy policy;  // default: real backoff values, injected sleeper
  journal->set_retry_policy(policy,
                            [&](std::uint64_t us) { sleeps.push_back(us); });

  MotBatchItem item;
  item.fault_index = 3;
  EXPECT_TRUE(journal->append(item));
  EXPECT_FALSE(journal->failed());
  ASSERT_EQ(sleeps.size(), 1u) << "one transient failure, one retry";
  RetrySchedule expected(policy);
  EXPECT_EQ(sleeps[0], expected.delay_us(1));

  // The record is intact after the retried append.
  journal.reset();
  auto reopened = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(reopened, nullptr) << err;
  EXPECT_EQ(reopened->resumed_count(), 1u);
  ASSERT_NE(reopened->lookup(3), nullptr);
  EXPECT_EQ(*reopened->lookup(3), item);
  std::remove(path.c_str());
}

// EINTR never reaches the retry machinery at all: write_all restarts it
// inline (the audit regression for the classic unhandled-EINTR bug).
TEST(CampaignJournal, EintrIsRestartedWithoutRetries) {
  JournalMeta meta;
  meta.circuit = "eintr";
  meta.num_faults = 10;
  const std::string path = temp_path("eintr.journal");
  std::uint64_t create_ops = 0;
  {
    fsio::FaultInjectingFsIo counter{fsio::FaultPlan{}};
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err, &counter);
    ASSERT_NE(journal, nullptr) << err;
    create_ops = counter.ops();
  }
  fsio::FaultPlan plan;
  plan.fail_at_op = create_ops + 1;
  plan.kind = fsio::FaultKind::Errno;
  plan.err = EINTR;
  plan.fail_count = 3;
  fsio::FaultInjectingFsIo io(plan);
  std::string err;
  auto journal = CampaignJournal::create(path, meta, err, &io);
  ASSERT_NE(journal, nullptr) << err;
  std::vector<std::uint64_t> sleeps;
  journal->set_retry_policy(RetryPolicy{},
                            [&](std::uint64_t us) { sleeps.push_back(us); });
  MotBatchItem item;
  item.fault_index = 5;
  EXPECT_TRUE(journal->append(item));
  EXPECT_TRUE(sleeps.empty()) << "EINTR must be restarted, not retried";
  EXPECT_FALSE(journal->failed());
  std::remove(path.c_str());
}

// A permanent error (disk full) latches failed() immediately — no retries,
// no sleeps — and every later append refuses fast.
TEST(CampaignJournal, PermanentAppendErrorLatchesFailure) {
  JournalMeta meta;
  meta.circuit = "enospc";
  meta.num_faults = 10;
  const std::string path = temp_path("enospc.journal");
  std::uint64_t create_ops = 0;
  {
    fsio::FaultInjectingFsIo counter{fsio::FaultPlan{}};
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err, &counter);
    ASSERT_NE(journal, nullptr) << err;
    create_ops = counter.ops();
  }
  fsio::FaultPlan plan;
  plan.fail_at_op = create_ops + 1;
  plan.kind = fsio::FaultKind::Errno;
  plan.err = ENOSPC;
  plan.fail_count = UINT64_MAX;
  fsio::FaultInjectingFsIo io(plan);
  std::string err;
  auto journal = CampaignJournal::create(path, meta, err, &io);
  ASSERT_NE(journal, nullptr) << err;
  std::vector<std::uint64_t> sleeps;
  journal->set_retry_policy(RetryPolicy{},
                            [&](std::uint64_t us) { sleeps.push_back(us); });
  MotBatchItem item;
  item.fault_index = 1;
  EXPECT_FALSE(journal->append(item));
  EXPECT_TRUE(journal->failed());
  EXPECT_TRUE(sleeps.empty()) << "permanent errors must not be retried";
  EXPECT_NE(journal->failure().find("append failed"), std::string::npos)
      << journal->failure();
  // Later appends refuse immediately without touching the filesystem.
  const std::uint64_t ops_before = io.ops();
  EXPECT_FALSE(journal->append(item));
  EXPECT_EQ(io.ops(), ops_before);
  std::remove(path.c_str());
}

// Persistent zero-byte writes (a misbehaving filesystem making no progress)
// must fail bounded instead of spinning forever in the append loop.
TEST(CampaignJournal, PersistentZeroByteWritesFailBounded) {
  JournalMeta meta;
  meta.circuit = "zerowrite";
  meta.num_faults = 10;
  const std::string path = temp_path("zerowrite.journal");
  std::uint64_t create_ops = 0;
  {
    fsio::FaultInjectingFsIo counter{fsio::FaultPlan{}};
    std::string err;
    auto journal = CampaignJournal::create(path, meta, err, &counter);
    ASSERT_NE(journal, nullptr) << err;
    create_ops = counter.ops();
  }
  fsio::FaultPlan plan;
  plan.fail_at_op = create_ops + 1;
  plan.kind = fsio::FaultKind::ZeroWrite;
  plan.fail_count = UINT64_MAX;
  fsio::FaultInjectingFsIo io(plan);
  std::string err;
  auto journal = CampaignJournal::create(path, meta, err, &io);
  ASSERT_NE(journal, nullptr) << err;
  journal->set_retry_policy(zero_delay_policy(), [](std::uint64_t) {});
  MotBatchItem item;
  item.fault_index = 1;
  EXPECT_FALSE(journal->append(item));  // EIO after the bounded zero burst
  EXPECT_TRUE(journal->failed());
  std::remove(path.c_str());
}

// Worker isolation: an engine exception on one fault quarantines exactly
// that fault with a diagnostic, the rest of the batch is untouched, the
// result is identical at 1 and 8 threads, and the quarantine record
// round-trips through the journal.
TEST(WorkerIsolation, QuarantineIsContainedDeterministicAndJournaled) {
  const Pipeline p = prepare(circuits::make_table1_example(), 24, 11);
  ASSERT_GE(p.candidates.size(), 3u);
  const std::size_t target = p.candidates[1];

  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner clean(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> reference =
      clean.run(p.test, p.good, p.faults, p.candidates);

  std::vector<std::vector<MotBatchItem>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    MotOptions o;
    o.num_threads = threads;
    MotBatchRunner runner(p.circuit, o, /*run_baseline=*/true);
    runner.set_fault_hook([target](std::size_t k) {
      if (k == target) throw std::runtime_error("injected lane crash");
    });
    runs.push_back(runner.run(p.test, p.good, p.faults, p.candidates));
  }
  expect_items_identical(runs[0], runs[1]);

  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    const MotBatchItem& item = runs[0][i];
    if (p.candidates[i] != target) {
      EXPECT_EQ(item, reference[i]) << "quarantine perturbed fault " << i;
      continue;
    }
    EXPECT_TRUE(item.completed) << "quarantine is a definitive outcome";
    EXPECT_FALSE(item.error.empty());
    EXPECT_EQ(item.error, "injected_lane_crash");  // sanitized diagnostic
    // Evidence invariant: never a silent clean result.
    EXPECT_TRUE(item.mot.unresolved == UnresolvedReason::EngineError ||
                item.degrade != DegradeLevel::None);
    EXPECT_TRUE(item.baseline.aborted);
  }

  // The quarantined item is journaled and comes back verbatim on resume.
  const JournalMeta meta = make_journal_meta(
      p.circuit.name(), p.faults.size(), p.test, opt, /*baseline=*/true);
  const std::string path = temp_path("quarantine.journal");
  std::string err;
  {
    auto journal = CampaignJournal::create(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/true);
    runner.set_fault_hook([target](std::size_t k) {
      if (k == target) throw std::runtime_error("injected lane crash");
    });
    runner.run(p.test, p.good, p.faults, p.candidates, journal.get());
  }
  auto journal = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(journal, nullptr) << err;
  EXPECT_EQ(journal->resumed_count(), p.candidates.size());
  std::size_t target_pos = 0;
  while (p.candidates[target_pos] != target) ++target_pos;
  ASSERT_NE(journal->lookup(target), nullptr);
  EXPECT_EQ(*journal->lookup(target), runs[0][target_pos]);
  std::remove(path.c_str());
}

// The graceful-degradation ladder: with degrade_on_budget set, a fault whose
// own budget stopped the proposed procedure is retried on the cheaper rungs.
// Degradation is sound (never flips an undegraded detection away), recorded
// (never silent) and thread-count invariant.
TEST(Degradation, BudgetStoppedFaultsWalkTheLadder) {
  Pipeline p = prepare_grinding();
  ASSERT_GE(p.candidates.size(), 4u);
  if (p.candidates.size() > 10) p.candidates.resize(10);

  MotOptions strict;
  strict.n_states = 256;
  strict.per_fault_work_limit = 1500;
  strict.num_threads = 1;
  const MotBatchRunner plain_runner(p.circuit, strict, /*run_baseline=*/false);
  const std::vector<MotBatchItem> undegraded =
      plain_runner.run(p.test, p.good, p.faults, p.candidates);

  MotOptions ladder = strict;
  ladder.degrade_on_budget = true;
  std::vector<std::vector<MotBatchItem>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ladder.num_threads = threads;
    const MotBatchRunner runner(p.circuit, ladder, /*run_baseline=*/false);
    runs.push_back(runner.run(p.test, p.good, p.faults, p.candidates));
  }
  expect_items_identical(runs[0], runs[1]);

  std::size_t degraded = 0;
  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    const MotBatchItem& was = undegraded[i];
    const MotBatchItem& now = runs[0][i];
    // Soundness: the ladder may add detections, never remove them.
    if (was.mot.detected) {
      EXPECT_TRUE(now.mot.detected) << "fault " << i;
    }
    if (now.degrade != DegradeLevel::None) {
      ++degraded;
      // A recorded downgrade only exists for budget-stopped faults here,
      // and a non-detection keeps the unresolved reason.
      EXPECT_TRUE(was.mot.unresolved == UnresolvedReason::Deadline ||
                  was.mot.unresolved == UnresolvedReason::WorkLimit)
          << "fault " << i;
      if (!now.mot.detected) {
        EXPECT_EQ(now.mot.unresolved, was.mot.unresolved) << "fault " << i;
      } else {
        EXPECT_EQ(now.mot.unresolved, UnresolvedReason::None) << "fault " << i;
      }
    } else {
      // No downgrade recorded: the outcome must be the undegraded one.
      EXPECT_EQ(now, was) << "fault " << i;
    }
  }
  EXPECT_GT(degraded, 0u) << "work limit produced no ladder candidates";
}

// Deterministic work limits around the clock stride boundary (the limits
// where the sticky poll does or does not consult the clock on the stopping
// poll) stay thread-count invariant — the regression fence for off-by-one
// drift in WorkBudget::poll.
TEST(Budgets, StrideBoundaryWorkLimitsAreThreadCountInvariant) {
  Pipeline p = prepare_grinding();
  ASSERT_GE(p.candidates.size(), 4u);
  if (p.candidates.size() > 8) p.candidates.resize(8);

  for (const std::uint64_t limit :
       {WorkBudget::kClockStride - 1, WorkBudget::kClockStride,
        WorkBudget::kClockStride + 1, 2 * WorkBudget::kClockStride + 1}) {
    MotOptions opt;
    opt.n_states = 256;
    opt.per_fault_work_limit = limit;
    std::vector<std::vector<MotBatchItem>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      opt.num_threads = threads;
      const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/false);
      runs.push_back(runner.run(p.test, p.good, p.faults, p.candidates));
    }
    expect_items_identical(runs[0], runs[1]);
    for (const MotBatchItem& item : runs[0]) {
      if (item.mot.unresolved == UnresolvedReason::WorkLimit) {
        EXPECT_GE(item.mot.work_used, limit);
      }
    }
  }
}

// The acceptance scenario: a campaign interrupted after k faults and then
// resumed must produce bit-identical results to an uninterrupted run, at
// 1 thread and at 8 threads.
TEST(CampaignJournal, KillAndResumeMatchesUninterruptedRun) {
  const Pipeline p = prepare(circuits::make_table1_example(), 24, 11);
  ASSERT_GE(p.candidates.size(), 4u);
  const std::size_t k = p.candidates.size() / 2;

  MotOptions opt;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    opt.num_threads = threads;
    const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/true);
    const std::vector<MotBatchItem> reference =
        runner.run(p.test, p.good, p.faults, p.candidates);

    const JournalMeta meta = make_journal_meta(
        p.circuit.name(), p.faults.size(), p.test, opt, /*baseline=*/true);
    const std::string path =
        temp_path("resume" + std::to_string(threads) + ".journal");
    std::string err;
    {
      // "Killed" campaign: only the first k candidates ever ran.
      auto journal = CampaignJournal::create(path, meta, err);
      ASSERT_NE(journal, nullptr) << err;
      runner.run(p.test, p.good, p.faults,
                 std::span<const std::size_t>(p.candidates.data(), k),
                 journal.get());
    }
    auto journal = CampaignJournal::open_resume(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    EXPECT_EQ(journal->resumed_count(), k);
    const std::vector<MotBatchItem> resumed =
        runner.run(p.test, p.good, p.faults, p.candidates, journal.get());
    expect_items_identical(resumed, reference);

    // After the resumed run the journal holds every candidate, so a second
    // resume re-simulates nothing and still matches.
    journal.reset();
    auto full = CampaignJournal::open_resume(path, meta, err);
    ASSERT_NE(full, nullptr) << err;
    EXPECT_EQ(full->resumed_count(), p.candidates.size());
    expect_items_identical(
        runner.run(p.test, p.good, p.faults, p.candidates, full.get()),
        reference);
  }
}

// The journal contract as it is: records are appended in completion order,
// so only a 1-thread journal is byte-reproducible. At any thread count the
// header and the *set* of records are the same — compared here as sorted
// file lines and through lookup() on every candidate.
TEST(CampaignJournal, RecordSetIsThreadCountInvariant) {
  const Pipeline p = prepare(circuits::make_table1_example(), 24, 11);
  ASSERT_GE(p.candidates.size(), 4u);

  MotOptions opt;
  std::vector<std::vector<std::string>> lines;
  std::vector<std::unique_ptr<CampaignJournal>> journals;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    opt.num_threads = threads;
    const JournalMeta meta = make_journal_meta(
        p.circuit.name(), p.faults.size(), p.test, opt, /*baseline=*/true);
    const std::string path =
        temp_path("record_set" + std::to_string(threads) + ".journal");
    std::string err;
    {
      auto journal = CampaignJournal::create(path, meta, err);
      ASSERT_NE(journal, nullptr) << err;
      const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/true);
      runner.run(p.test, p.good, p.faults, p.candidates, journal.get());
    }
    std::ifstream in(path);
    std::vector<std::string> file;
    for (std::string line; std::getline(in, line);) file.push_back(line);
    std::sort(file.begin(), file.end());  // the header lines sort along
    lines.push_back(std::move(file));
    journals.push_back(CampaignJournal::open_resume(path, meta, err));
    ASSERT_NE(journals.back(), nullptr) << err;
    EXPECT_EQ(journals.back()->resumed_count(), p.candidates.size());
    std::remove(path.c_str());
  }
  EXPECT_EQ(lines[0], lines[1]);
  for (std::size_t k : p.candidates) {
    const MotBatchItem* serial = journals[0]->lookup(k);
    const MotBatchItem* sharded = journals[1]->lookup(k);
    ASSERT_NE(serial, nullptr) << "fault " << k;
    ASSERT_NE(sharded, nullptr) << "fault " << k;
    EXPECT_EQ(*serial, *sharded) << "fault " << k;
  }
}

// A deterministic work-unit cap must produce identical outcomes at every
// thread count — Unresolved{WorkLimit} included.
TEST(Budgets, WorkLimitOutcomesAreThreadCountInvariant) {
  Pipeline p = prepare_grinding();
  ASSERT_GE(p.candidates.size(), 4u);
  if (p.candidates.size() > 12) p.candidates.resize(12);

  MotOptions opt;
  opt.n_states = 256;
  opt.per_fault_work_limit = 2000;
  std::vector<std::vector<MotBatchItem>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    opt.num_threads = threads;
    const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/false);
    runs.push_back(runner.run(p.test, p.good, p.faults, p.candidates));
  }
  expect_items_identical(runs[0], runs[1]);

  std::size_t limited = 0;
  for (const MotBatchItem& item : runs[0]) {
    EXPECT_TRUE(item.completed);
    if (item.mot.unresolved == UnresolvedReason::WorkLimit) {
      ++limited;
      EXPECT_FALSE(item.mot.detected);
      EXPECT_GE(item.mot.work_used, opt.per_fault_work_limit);
    }
  }
  EXPECT_GT(limited, 0u) << "grinding circuit produced no work-limited fault";
}

// The acceptance scenario: a worst-case fault under a 10 ms per-fault
// deadline comes back Unresolved{Deadline} within about twice the budget,
// and the rest of the batch still completes.
TEST(Budgets, PerFaultDeadlineStopsWorstCaseFaultPromptly) {
  Pipeline p = prepare_grinding();
  ASSERT_GE(p.candidates.size(), 3u);
  if (p.candidates.size() > 6) p.candidates.resize(6);

  MotOptions opt;
  opt.num_threads = 1;
  // Effectively unbounded expansion: without a deadline the grinding faults
  // would churn through this budget for a very long time.
  opt.n_states = 1u << 16;
  opt.per_fault_time_ms = 10;

  const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/false);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<MotBatchItem> items =
      runner.run(p.test, p.good, p.faults, p.candidates);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  ASSERT_EQ(items.size(), p.candidates.size());
  std::size_t deadline_stopped = 0;
  for (const MotBatchItem& item : items) {
    EXPECT_TRUE(item.completed);
    if (item.mot.unresolved == UnresolvedReason::Deadline) ++deadline_stopped;
  }
  EXPECT_GT(deadline_stopped, 0u) << "no fault hit the 10 ms deadline";
  // Every fault is bounded by ~2x its budget (polling granularity); allow
  // generous slack for conventional simulation and CI jitter on top.
  EXPECT_LT(ms, static_cast<double>(p.candidates.size()) * 2.0 * 10.0 + 500.0);
}

}  // namespace
}  // namespace motsim
