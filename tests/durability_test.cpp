// The durability subsystem's acceptance gate: WAL framing and group
// commit, torn-record tolerance at EVERY byte offset, checkpoint
// round-trips with torn-file fallback, restart recovery — and the
// deterministic kill-point crash matrix: schemes x kill points x seeds,
// each run killed at a seed-derived step, restarted from disk, and
// verified bit-for-bit against an uninterrupted reference run with zero
// lost committed-and-durable writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "durability/checkpoint.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "faults/fault_model.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "pram/memory_system.hpp"
#include "pram/snapshot.hpp"

namespace pramsim {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("durability_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ----- WAL unit tests ------------------------------------------------------

TEST(Wal, RoundTripsEveryRecordKind) {
  const std::string dir = scratch_dir("wal_roundtrip");
  const std::string path = dir + "/wal.log";
  {
    durability::Wal wal({path, 1});
    const std::vector<pram::VarWrite> w1 = {{VarId(7), 70}, {VarId(9), -90}};
    wal.append_step(1, w1);
    wal.append_onset(2, 5);
    const std::vector<pram::VarWrite> w2 = {{VarId(3), 33}};
    wal.append_step(2, w2);
    wal.append_relocation(3, 12);
    wal.flush();
    EXPECT_EQ(wal.appended_records(), 4u);
    EXPECT_EQ(wal.durable_step(), 2u);
    EXPECT_GT(wal.file_bytes(), 0u);
  }
  const auto log = durability::read_wal(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.durable_step, 2u);
  ASSERT_EQ(log.records.size(), 4u);

  EXPECT_EQ(log.records[0].kind, durability::WalRecordKind::kStepCommit);
  EXPECT_EQ(log.records[0].step, 1u);
  ASSERT_EQ(log.records[0].writes.size(), 2u);
  EXPECT_EQ(log.records[0].writes[0].var, VarId(7));
  EXPECT_EQ(log.records[0].writes[0].value, 70);
  EXPECT_EQ(log.records[0].writes[1].value, -90);

  EXPECT_EQ(log.records[1].kind, durability::WalRecordKind::kFaultOnset);
  EXPECT_EQ(log.records[1].step, 2u);
  EXPECT_EQ(log.records[1].module, 5u);

  EXPECT_EQ(log.records[2].kind, durability::WalRecordKind::kStepCommit);
  ASSERT_EQ(log.records[2].writes.size(), 1u);
  EXPECT_EQ(log.records[2].writes[0].value, 33);

  EXPECT_EQ(log.records[3].kind,
            durability::WalRecordKind::kScrubRelocation);
  EXPECT_EQ(log.records[3].step, 3u);
  EXPECT_EQ(log.records[3].relocated, 12u);
}

TEST(Wal, MissingFileReadsAsEmptyUntornLog) {
  const auto log = durability::read_wal(scratch_dir("wal_none") + "/no.log");
  EXPECT_TRUE(log.records.empty());
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.durable_step, 0u);
}

// Group commit: the destructor does NOT flush, so a crash loses exactly
// the records appended since the last group-commit boundary — no more.
TEST(Wal, GroupCommitCrashLosesOnlyTheUnflushedTail) {
  const std::string dir = scratch_dir("wal_group");
  const std::string path = dir + "/wal.log";
  {
    durability::Wal wal({path, /*flush_interval=*/4});
    for (std::uint64_t step = 1; step <= 6; ++step) {
      const std::vector<pram::VarWrite> writes = {
          {VarId(static_cast<std::uint32_t>(step)),
           static_cast<pram::Word>(step * 10)}};
      wal.append_step(step, writes);
      wal.maybe_flush(step);
    }
    EXPECT_EQ(wal.durable_step(), 4u);  // flush fired at step 4 only
  }  // crash: steps 5 and 6 were buffered, never durable
  const auto log = durability::read_wal(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.durable_step, 4u);
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records.back().step, 4u);
}

// The torn-final-record sweep: cut the file at EVERY byte offset inside
// the last record's span. Each cut must parse cleanly back to the last
// complete record — never a crash, never garbage replay.
TEST(Wal, TornFinalRecordRecoversToLastCompleteRecordAtEveryOffset) {
  const std::string dir = scratch_dir("wal_torn");
  const std::string path = dir + "/wal.log";
  durability::Wal::RecordSpan span;
  {
    durability::Wal wal({path, 1});
    const std::vector<pram::VarWrite> w1 = {{VarId(1), 11}, {VarId(2), 22}};
    wal.append_step(1, w1);
    const std::vector<pram::VarWrite> w2 = {{VarId(3), 33}};
    wal.append_step(2, w2);
    const std::vector<pram::VarWrite> w3 = {{VarId(4), 44}, {VarId(5), 55}};
    wal.append_step(3, w3);
    wal.flush();
    span = wal.last_record();
  }
  const auto full = durability::read_wal(path);
  ASSERT_EQ(full.records.size(), 3u);
  ASSERT_FALSE(full.torn_tail);
  ASSERT_GT(span.length, 0u);

  const std::string torn = dir + "/torn.log";
  for (std::uint64_t cut = span.offset; cut < span.offset + span.length;
       ++cut) {
    fs::copy_file(path, torn, fs::copy_options::overwrite_existing);
    fs::resize_file(torn, cut);
    const auto log = durability::read_wal(torn);
    ASSERT_EQ(log.records.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(log.durable_step, 2u) << "cut at byte " << cut;
    EXPECT_EQ(log.valid_bytes, span.offset) << "cut at byte " << cut;
    // Cutting exactly at the record boundary is a CLEAN two-record log;
    // any cut inside the final record is a detected torn tail.
    EXPECT_EQ(log.torn_tail, cut != span.offset) << "cut at byte " << cut;
  }
}

// Bit rot (not truncation): flipping any payload byte of the final
// record fails its CRC, and the reader stops at the last valid record.
TEST(Wal, CorruptFinalRecordIsRejectedByCrc) {
  const std::string dir = scratch_dir("wal_corrupt");
  const std::string path = dir + "/wal.log";
  durability::Wal::RecordSpan span;
  {
    durability::Wal wal({path, 1});
    const std::vector<pram::VarWrite> w1 = {{VarId(1), 11}};
    wal.append_step(1, w1);
    const std::vector<pram::VarWrite> w2 = {{VarId(2), 22}};
    wal.append_step(2, w2);
    wal.flush();
    span = wal.last_record();
  }
  // Flip one byte inside the final record's payload.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  const long pos = static_cast<long>(span.offset + span.length - 3);
  ASSERT_EQ(std::fseek(file, pos, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, pos, SEEK_SET), 0);
  std::fputc(byte ^ 0xFF, file);
  std::fclose(file);

  const auto log = durability::read_wal(path);
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.durable_step, 1u);
}

TEST(Wal, TruncateThroughDropsOnlyCoveredRecords) {
  const std::string dir = scratch_dir("wal_trunc");
  const std::string path = dir + "/wal.log";
  durability::Wal wal({path, 1});
  for (std::uint64_t step = 1; step <= 6; ++step) {
    const std::vector<pram::VarWrite> writes = {
        {VarId(static_cast<std::uint32_t>(step)),
         static_cast<pram::Word>(step)}};
    wal.append_step(step, writes);
  }
  wal.truncate_through(4);
  const auto log = durability::read_wal(path);
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].step, 5u);
  EXPECT_EQ(log.records[1].step, 6u);
  EXPECT_EQ(log.durable_step, 6u);
}

// ----- checkpoint unit tests -----------------------------------------------

TEST(Checkpoint, RoundTripRestoresStateAndStepClock) {
  const std::string dir = scratch_dir("ckpt_roundtrip");
  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc,
                              .n = 16,
                              .seed = 3};
  auto memory = core::make_memory(spec);
  const std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  for (std::uint64_t step = 1; step <= 5; ++step) {
    const std::vector<pram::VarWrite> writes = {
        {VarId(static_cast<std::uint32_t>(step * 7)),
         static_cast<pram::Word>(step * 100)}};
    memory->step(no_reads, no_values, writes);
  }

  durability::Checkpointer checkpointer({dir, 2});
  const std::uint64_t bytes = checkpointer.write(*memory, 5);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(checkpointer.last_step(), 5u);

  const auto found = durability::Checkpointer::latest(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->step, 5u);

  auto restored = core::make_memory(spec);
  ASSERT_TRUE(durability::Checkpointer::load(found->path, *restored));
  EXPECT_EQ(restored->steps_served(), 5u);
  for (std::uint64_t v = 0; v < memory->size(); ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    ASSERT_EQ(restored->peek(var), memory->peek(var)) << "var " << v;
  }
}

TEST(Checkpoint, TornNewestFileFallsBackToPreviousValidOne) {
  const std::string dir = scratch_dir("ckpt_torn");
  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc,
                              .n = 16,
                              .seed = 3};
  auto memory = core::make_memory(spec);
  memory->poke(VarId(1), 111);

  durability::Checkpointer checkpointer({dir, 4});
  checkpointer.write(*memory, 4);
  memory->poke(VarId(2), 222);

  // A checkpoint at step 8 torn at several representative prefixes: each
  // must be rejected and latest() must fall back to step 4.
  const auto image = durability::Checkpointer::file_image(*memory, 8);
  const std::string torn_path = durability::Checkpointer::path_for(dir, 8);
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{12}, std::size_t{25},
        image.size() / 2, image.size() - 1}) {
    ASSERT_LT(cut, image.size());
    std::FILE* file = std::fopen(torn_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, cut, file), cut);
    std::fclose(file);

    const auto found = durability::Checkpointer::latest(dir);
    ASSERT_TRUE(found.has_value()) << "cut " << cut;
    EXPECT_EQ(found->step, 4u) << "cut " << cut;
  }

  // The COMPLETE image validates and wins.
  std::FILE* file = std::fopen(torn_path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), file), image.size());
  std::fclose(file);
  const auto found = durability::Checkpointer::latest(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->step, 8u);
}

TEST(Checkpoint, RetentionPrunesToTheNewestKeep) {
  const std::string dir = scratch_dir("ckpt_keep");
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 3});
  durability::Checkpointer checkpointer({dir, 2});
  checkpointer.write(*memory, 2);
  checkpointer.write(*memory, 4);
  checkpointer.write(*memory, 6);
  EXPECT_EQ(checkpointer.checkpoints_written(), 3u);
  EXPECT_FALSE(fs::exists(durability::Checkpointer::path_for(dir, 2)));
  EXPECT_TRUE(fs::exists(durability::Checkpointer::path_for(dir, 4)));
  EXPECT_TRUE(fs::exists(durability::Checkpointer::path_for(dir, 6)));
}

TEST(Recovery, FromAnEmptyDirectoryIsANoOp) {
  const std::string dir = scratch_dir("recover_nothing");
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const auto outcome =
      durability::recover(*memory, dir + "/wal.log", dir);
  EXPECT_FALSE(outcome.checkpoint_loaded);
  EXPECT_EQ(outcome.replayed_records, 0u);
  EXPECT_EQ(outcome.recovered_step, 0u);
  EXPECT_FALSE(outcome.torn_wal_tail);
}

// ----- the kill-point crash matrix -----------------------------------------
//
// Scheme rows x cache tier {off, 32 lines} x faults {none, dynamic-onset
// module kills landing mid-run} x kill points, each cell over three
// seeds: the step loop's crash hook, the cache's checkpoint write-back
// and the fault clock all meet here.

struct MatrixScheme {
  const char* name;
  core::SchemeSpec spec;
};

const std::vector<MatrixScheme>& matrix_schemes() {
  static const std::vector<MatrixScheme> schemes = {
      {"dmmpc", {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3}},
      {"ida", {.kind = core::SchemeKind::kIda, .n = 16, .seed = 3}},
      {"hashed", {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 3}},
  };
  return schemes;
}

/// Dynamic-onset module kills (Chlebus et al. semantics): the kill set
/// dies between steps 2 and 6, inside every seed's run.
constexpr faults::FaultSpec kMatrixFaults{.seed = 41,
                                          .module_kill_rate = 0.2,
                                          .onset_min = 2,
                                          .onset_max = 6};

/// (scheme row, cache lines, faulted, kill point)
using MatrixParam =
    std::tuple<std::size_t, std::uint64_t, bool, core::KillPoint>;

class CrashMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  [[nodiscard]] static core::SchemeSpec spec() {
    core::SchemeSpec spec = matrix_schemes()[std::get<0>(GetParam())].spec;
    spec.cache_lines = std::get<1>(GetParam());
    return spec;
  }
  [[nodiscard]] static const faults::FaultSpec* fault_spec() {
    return std::get<2>(GetParam()) ? &kMatrixFaults : nullptr;
  }
  [[nodiscard]] static core::KillPoint kill_point() {
    return std::get<3>(GetParam());
  }
};

std::string cell_name(const MatrixParam& param) {
  const auto& [row, cache_lines, faulted, point] = param;
  return std::string(matrix_schemes()[row].name) +
         (cache_lines > 0 ? "_cached" : "") + (faulted ? "_faulted" : "") +
         "_" + core::to_string(point);
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  return cell_name(info.param);
}

/// Replay context for a failing cell: the seed, the kill step, and the
/// run's journal tail.
std::string replay_context(std::uint64_t seed,
                           core::CrashRecoveryResult& result) {
  std::string text = "replay: seed " + std::to_string(seed) +
                     ", killed at step " + std::to_string(result.kill_step) +
                     "\n";
  for (const auto& table : obs::to_tables(result.obs, 16)) {
    text += table.to_string();
  }
  return text;
}

/// The per-kill-point protocol invariants, beyond bit-exactness.
void expect_kill_point_invariants(const core::CrashRecoveryResult& result,
                                  core::KillPoint point) {
  switch (point) {
    case core::KillPoint::kCleanShutdown:
      // Final checkpoint covers everything; the truncated WAL replays
      // nothing.
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_TRUE(result.recovery.checkpoint_loaded);
      EXPECT_EQ(result.recovery.checkpoint_step, result.kill_step);
      EXPECT_EQ(result.recovery.replayed_records, 0u);
      EXPECT_FALSE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kMidWalAppend:
      // The torn final record is detected and dropped: the durable
      // horizon is exactly one committed step behind the kill.
      EXPECT_EQ(result.durable_step, result.kill_step - 1);
      EXPECT_TRUE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kAfterWalFlush:
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_FALSE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kMidCheckpoint:
      // The torn checkpoint is rejected; the WAL carries recovery to the
      // full durable horizon anyway.
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_LT(result.recovery.checkpoint_step, result.kill_step);
      EXPECT_FALSE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kAfterCheckpointPreTruncate:
      // The checkpoint is durable but the log was never trimmed: every
      // surviving record is covered and must be skipped, not re-applied.
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_TRUE(result.recovery.checkpoint_loaded);
      EXPECT_EQ(result.recovery.checkpoint_step, result.kill_step);
      EXPECT_EQ(result.recovery.replayed_records, 0u);
      EXPECT_GE(result.recovery.skipped_records, 1u);
      break;
  }
}

TEST_P(CrashMatrixTest, RecoversBitExactWithZeroLostCommittedWrites) {
  core::SimulationPipeline pipeline(spec());
  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    core::CrashRecoveryOptions options;
    options.steps = 24;
    options.seed = seed;
    options.family = pram::TraceFamily::kUniform;
    options.kill_point = kill_point();
    options.durability.directory = scratch_dir(
        "matrix_" + cell_name(GetParam()) + "_" + std::to_string(seed));
    options.durability.wal_flush_interval = 2;
    options.durability.checkpoint_interval = 6;
    options.obs = obs::SinkOptions{};

    auto result = pipeline.run_crash_recovery(options, fault_spec());
    SCOPED_TRACE(replay_context(seed, result));
    ASSERT_GE(result.kill_step, 1u);
    ASSERT_LE(result.kill_step, options.steps);
    EXPECT_TRUE(result.bit_exact);
    EXPECT_EQ(result.lost_committed_writes, 0u);
    EXPECT_EQ(result.vars_checked, pipeline.scheme().m);
    expect_kill_point_invariants(result, kill_point());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesKillPoints, CrashMatrixTest,
    ::testing::Combine(::testing::Range(std::size_t{0},
                                        matrix_schemes().size()),
                       ::testing::Values(std::uint64_t{0}, std::uint64_t{32}),
                       ::testing::Bool(),
                       ::testing::ValuesIn(core::all_kill_points())),
    matrix_name);

// Crash recovery under ACTIVE fault injection: dynamic-onset module
// kills land before the crash, the WAL carries onset acknowledgements,
// and the recovered machine (same fault seed, oracle restored from the
// checkpoint) still matches the uninterrupted reference bit for bit.
TEST(CrashRecovery, SurvivesCrashUnderDynamicFaultOnsets) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.2,
                                     .onset_min = 2,
                                     .onset_max = 6};
  core::CrashRecoveryOptions options;
  options.steps = 20;
  options.seed = 7;
  options.kill_step = 12;  // past the onset window: onsets are acked
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.directory = scratch_dir("crash_faulted");
  // No natural checkpoint before the kill, so truncate_through never
  // trims the early onset acknowledgements out of the surviving log.
  options.durability.checkpoint_interval = 100;

  const auto result = pipeline.run_crash_recovery(options, &fault_spec);
  EXPECT_TRUE(result.bit_exact);
  EXPECT_EQ(result.durable_step, 12u);

  // The surviving log shows the acknowledged onsets alongside commits.
  const auto log = durability::read_wal(options.durability.directory +
                                        std::string("/wal.log"));
  std::size_t onset_records = 0;
  for (const auto& record : log.records) {
    if (record.kind == durability::WalRecordKind::kFaultOnset) {
      ++onset_records;
    }
  }
  EXPECT_GT(onset_records, 0u);
}

// Observability: a crash-recovery run journals the checkpoint lifecycle
// (kCheckpointBegin/kCheckpointEnd) and the replay (kWalReplay), and the
// wal.* / checkpoint.* counters tally the protocol's actual traffic.
TEST(CrashRecovery, JournalsCheckpointAndReplayEvents) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  core::CrashRecoveryOptions options;
  options.steps = 16;
  options.seed = 5;
  options.kill_step = 15;
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.directory = scratch_dir("crash_obs");
  options.durability.checkpoint_interval = 4;
  options.obs = obs::SinkOptions{};

  const auto result = pipeline.run_crash_recovery(options);
  EXPECT_TRUE(result.bit_exact);

  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t replays = 0;
  for (const auto& event : result.obs.journal.events()) {
    switch (event.kind) {
      case obs::EventKind::kCheckpointBegin: ++begins; break;
      case obs::EventKind::kCheckpointEnd: ++ends; break;
      case obs::EventKind::kWalReplay: ++replays; break;
      default: break;
    }
  }
  EXPECT_EQ(begins, 3u);  // natural checkpoints at steps 4, 8, 12
  EXPECT_EQ(ends, begins);
  // The WAL tail past the last checkpoint (steps 13..15) replays.
  EXPECT_EQ(replays, 3u);

  const auto& counters = result.obs.metrics.counters();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("wal.records"), 0u);
  EXPECT_GT(counter("wal.flushes"), 0u);
  EXPECT_GT(counter("wal.flushed_bytes"), 0u);
  EXPECT_EQ(counter("wal.truncations"), 3u);
  EXPECT_EQ(counter("checkpoint.writes"), 3u);
  EXPECT_GT(counter("checkpoint.bytes"), 0u);
  EXPECT_EQ(counter("checkpoint.loads"), 1u);
  EXPECT_EQ(counter("wal.replayed_records"), 3u);
}

// Recovery cost must scale with the WAL tail, not the run length: a long
// run with a recent checkpoint replays only the few records after it.
TEST(CrashRecovery, ReplayScalesWithLogTailNotRunLength) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  core::CrashRecoveryOptions options;
  options.seed = 11;
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.checkpoint_interval = 8;

  options.steps = 64;
  options.kill_step = 62;
  options.durability.directory = scratch_dir("tail_long");
  const auto long_run = pipeline.run_crash_recovery(options);

  options.steps = 16;
  options.kill_step = 14;
  options.durability.directory = scratch_dir("tail_short");
  const auto short_run = pipeline.run_crash_recovery(options);

  EXPECT_TRUE(long_run.bit_exact);
  EXPECT_TRUE(short_run.bit_exact);
  // Both killed 6 steps past their last natural checkpoint (56 and 8):
  // identical replay work despite a 4x difference in run length.
  EXPECT_EQ(long_run.recovery.checkpoint_step, 56u);
  EXPECT_EQ(short_run.recovery.checkpoint_step, 8u);
  EXPECT_EQ(long_run.recovery.replayed_records, 6u);
  EXPECT_EQ(short_run.recovery.replayed_records, 6u);
}

}  // namespace
}  // namespace pramsim
