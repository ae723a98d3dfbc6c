// Determinism regression gate for the sharded, double-buffered pipeline:
// run_stress / run_with_faults results must be bit-identical for the same
// spec at 1 worker thread and at hardware_concurrency workers — both at
// the trial level and with the within-trial (trial, family) sharding —
// and with the double-buffered plan generator on or off.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "durability/recovery.hpp"
#include "faults/fault_model.hpp"
#include "obs/export.hpp"
#include "pram/snapshot.hpp"
#include "util/parallel.hpp"

namespace pramsim {
namespace {

/// Restore the automatic worker policy even when an assertion fails.
struct WorkerOverrideGuard {
  ~WorkerOverrideGuard() { util::set_parallel_workers_override(0); }
};

void expect_stats_identical(const util::RunningStats& a,
                            const util::RunningStats& b,
                            const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
  EXPECT_DOUBLE_EQ(a.sum(), b.sum()) << what;
  EXPECT_DOUBLE_EQ(a.min(), b.min()) << what;
  EXPECT_DOUBLE_EQ(a.max(), b.max()) << what;
  EXPECT_DOUBLE_EQ(a.variance(), b.variance()) << what;
}

void expect_identical(const core::TraceRunResult& a,
                      const core::TraceRunResult& b, const char* what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  expect_stats_identical(a.time, b.time, what);
  expect_stats_identical(a.work, b.work, what);
  expect_stats_identical(a.live_after_stage1, b.live_after_stage1, what);
  expect_stats_identical(a.max_queue, b.max_queue, what);
  EXPECT_DOUBLE_EQ(a.storage_factor, b.storage_factor) << what;
  EXPECT_EQ(a.reliability.reads_served, b.reliability.reads_served) << what;
  EXPECT_EQ(a.reliability.wrong_reads, b.reliability.wrong_reads) << what;
  EXPECT_EQ(a.reliability.faults_masked, b.reliability.faults_masked) << what;
  EXPECT_EQ(a.reliability.erasures_skipped, b.reliability.erasures_skipped)
      << what;
  EXPECT_EQ(a.reliability.uncorrectable, b.reliability.uncorrectable) << what;
  EXPECT_EQ(a.reliability.writes_dropped, b.reliability.writes_dropped)
      << what;
  EXPECT_EQ(a.reliability.corrupt_stores, b.reliability.corrupt_stores)
      << what;
}

std::size_t many_workers() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 4);
}

TEST(Determinism, StressBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                          core::SchemeKind::kHashed}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    // trials = 1 exercises pure within-trial (family) sharding; trials =
    // 3 exercises both levels at once.
    for (const std::size_t trials : {std::size_t{1}, std::size_t{3}}) {
      const core::StressOptions options{
          .steps_per_family = 2, .seed = 9, .trials = trials};
      util::set_parallel_workers_override(1);
      const auto serial = pipeline.run_stress(options);
      util::set_parallel_workers_override(many_workers());
      const auto parallel = pipeline.run_stress(options);
      util::set_parallel_workers_override(0);
      EXPECT_GT(serial.steps, 0u);
      expect_identical(serial, parallel, core::to_string(kind));
    }
  }
}

TEST(Determinism, FaultRunBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    const faults::FaultSpec spec{
        .seed = 41, .module_kill_rate = 0.2, .corruption_rate = 0.1};
    const core::StressOptions options{
        .steps_per_family = 2, .seed = 13, .trials = 3};
    util::set_parallel_workers_override(1);
    const auto serial = pipeline.run_with_faults(spec, options);
    util::set_parallel_workers_override(many_workers());
    const auto parallel = pipeline.run_with_faults(spec, options);
    util::set_parallel_workers_override(0);
    EXPECT_GT(serial.reliability.reads_served, 0u);
    expect_identical(serial, parallel, core::to_string(kind));
  }
}

TEST(Determinism, DoubleBufferingDoesNotChangeResults) {
  for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                          core::SchemeKind::kHashed}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    // steps_per_family >= 4 so the generator thread actually engages.
    core::StressOptions options{.steps_per_family = 6, .seed = 21};
    options.double_buffer = true;
    const auto buffered = pipeline.run_stress(options);
    options.double_buffer = false;
    const auto serial = pipeline.run_stress(options);
    expect_identical(buffered, serial, core::to_string(kind));
  }
}

// Scrub interleaved with the double-buffered pipeline: dynamic-onset
// faults land mid-run, the driver scrubs every other step, and the whole
// thing must stay bit-identical at any worker count.
TEST(Determinism, ScrubbedStressBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    const core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
    core::SimulationPipeline pipeline(spec);
    const faults::FaultSpec fault_spec{.seed = 41,
                                       .module_kill_rate = 0.25,
                                       .corruption_rate = 0.1,
                                       .onset_min = 2,
                                       .onset_max = 5};
    core::StressOptions options{.steps_per_family = 6, .seed = 13,
                                .trials = 2};
    options.scrub_interval = 2;
    options.scrub_budget = 64;

    util::set_parallel_workers_override(1);
    const auto serial = pipeline.run_with_faults(fault_spec, options);
    util::set_parallel_workers_override(many_workers());
    const auto parallel = pipeline.run_with_faults(fault_spec, options);
    util::set_parallel_workers_override(0);
    EXPECT_GT(serial.reliability.reads_served, 0u);
    expect_identical(serial, parallel, core::to_string(kind));

    // Double buffering on top must change nothing either.
    options.double_buffer = false;
    const auto unbuffered = pipeline.run_with_faults(fault_spec, options);
    expect_identical(serial, unbuffered, core::to_string(kind));
  }
}

// ----- observability: the metrics + journal determinism contract -------

// The deterministic obs snapshot (include_timings = false: counters,
// gauges, histograms, phase counts, journal contents) must be BYTE
// identical across worker counts {1, 2, 4} and across reruns of the same
// seed — the per-shard sinks fold in shard order, and the journal
// commits each step in canonical order.
TEST(Determinism, ObsSnapshotBitIdenticalAcrossWorkersAndReruns) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    const core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
    core::SimulationPipeline pipeline(spec);
    const faults::FaultSpec fault_spec{.seed = 41,
                                       .module_kill_rate = 0.25,
                                       .corruption_rate = 0.1,
                                       .onset_min = 2,
                                       .onset_max = 5};
    core::StressOptions options{.steps_per_family = 6, .seed = 13,
                                .trials = 2};
    options.scrub_interval = 2;
    options.scrub_budget = 64;
    options.obs = obs::SinkOptions{};

    obs::SnapshotOptions snapshot;
    snapshot.include_timings = false;

    std::string reference;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      util::set_parallel_workers_override(workers);
      auto run = pipeline.run_with_faults(fault_spec, options);
      const std::string json = obs::to_json(run.obs, snapshot);
      if (reference.empty()) {
        reference = json;
        EXPECT_NE(reference.find("\"events\": [{"), std::string::npos)
            << core::to_string(kind) << ": journal should not be empty";
      } else {
        EXPECT_EQ(json, reference)
            << core::to_string(kind) << " at " << workers << " workers";
      }
    }
    util::set_parallel_workers_override(0);

    // Rerun at the automatic worker policy: still byte-identical.
    auto rerun = pipeline.run_with_faults(fault_spec, options);
    EXPECT_EQ(obs::to_json(rerun.obs, snapshot), reference)
        << core::to_string(kind) << " rerun";
  }
}

// ----- durability: crash recovery is deterministic and idempotent ------

void expect_crash_identical(const core::CrashRecoveryResult& a,
                            const core::CrashRecoveryResult& b,
                            const std::string& what) {
  EXPECT_EQ(a.kill_step, b.kill_step) << what;
  EXPECT_EQ(a.durable_step, b.durable_step) << what;
  EXPECT_EQ(a.bit_exact, b.bit_exact) << what;
  EXPECT_EQ(a.vars_checked, b.vars_checked) << what;
  EXPECT_EQ(a.lost_committed_writes, b.lost_committed_writes) << what;
  EXPECT_EQ(a.recovery.checkpoint_loaded, b.recovery.checkpoint_loaded)
      << what;
  EXPECT_EQ(a.recovery.checkpoint_step, b.recovery.checkpoint_step) << what;
  EXPECT_EQ(a.recovery.replayed_records, b.recovery.replayed_records) << what;
  EXPECT_EQ(a.recovery.replayed_writes, b.recovery.replayed_writes) << what;
  EXPECT_EQ(a.recovery.skipped_records, b.recovery.skipped_records) << what;
  EXPECT_EQ(a.recovery.torn_wal_tail, b.recovery.torn_wal_tail) << what;
  EXPECT_EQ(a.recovery.recovered_step, b.recovery.recovered_step) << what;
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes) << what;
  EXPECT_EQ(a.wal_bytes, b.wal_bytes) << what;
}

// The whole crash-and-recover trajectory — kill step, durable horizon,
// checkpoint/WAL byte counts, replay record counts, bit-exactness — must
// not depend on the worker count.
TEST(Determinism, CrashRecoveryBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  const std::vector<core::SchemeSpec> specs = {
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3},
      {.kind = core::SchemeKind::kIda, .n = 16, .seed = 3},
  };

  std::size_t index = 0;
  for (const auto& spec : specs) {
    core::SimulationPipeline pipeline(spec);
    core::CrashRecoveryOptions options;
    options.steps = 20;
    options.seed = 17;
    options.kill_point = core::KillPoint::kMidWalAppend;
    options.durability.directory =
        std::string(::testing::TempDir()) + "/determinism_crash_" +
        std::to_string(index);

    std::vector<core::CrashRecoveryResult> results;
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      util::set_parallel_workers_override(workers);
      results.push_back(pipeline.run_crash_recovery(options));
    }
    util::set_parallel_workers_override(0);

    EXPECT_TRUE(results[0].bit_exact) << "spec " << index;
    const std::string what = "spec " + std::to_string(index);
    expect_crash_identical(results[0], results[1], what + " @2 workers");
    expect_crash_identical(results[0], results[2], what + " @4 workers");
    ++index;
  }
}

// Recovery must be idempotent: recovering the SAME on-disk state twice
// into one machine, or once into another, yields byte-identical
// snapshots. The WAL replays absolute committed values, so a recovery
// that itself crashes and reruns cannot drift.
TEST(Determinism, RecoveryIsIdempotentOverTheSameDiskState) {
  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc,
                              .n = 16,
                              .seed = 3};
  core::SimulationPipeline pipeline(spec);
  core::CrashRecoveryOptions options;
  options.steps = 20;
  options.seed = 23;
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.directory =
      std::string(::testing::TempDir()) + "/determinism_idempotent";
  const auto result = pipeline.run_crash_recovery(options);
  ASSERT_TRUE(result.bit_exact);

  // run_crash_recovery leaves the WAL and checkpoints on disk; recover
  // from them by hand, repeatedly.
  const std::string wal_path = options.durability.directory + "/wal.log";
  const auto snapshot_of = [](pram::MemorySystem& memory) {
    pram::BufferSink sink;
    memory.snapshot(sink);
    return sink.take();
  };

  auto once = core::make_memory(spec);
  (void)durability::recover(*once, wal_path, options.durability.directory);
  const auto bytes_once = snapshot_of(*once);

  // Second recovery of the SAME machine: nothing changes.
  const auto again = durability::recover(*once, wal_path,
                                         options.durability.directory);
  EXPECT_EQ(again.recovered_step, result.recovery.recovered_step);
  EXPECT_EQ(snapshot_of(*once), bytes_once);

  // A fresh machine recovered once lands on the same bytes.
  auto fresh = core::make_memory(spec);
  (void)durability::recover(*fresh, wal_path, options.durability.directory);
  EXPECT_EQ(snapshot_of(*fresh), bytes_once);
}

}  // namespace
}  // namespace pramsim
