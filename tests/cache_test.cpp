// cache::CachedMemory contract tests: hit/miss/eviction/write-back
// accounting, bit-exactness against FlatMemory under every skewed trace
// family, serve()-vs-step() equivalence, fault-consistent invalidation
// (dead backing modules and scrub relocations), and worker-count
// invariance of the cached pipeline (results AND obs snapshots).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cached_memory.hpp"
#include "core/driver.hpp"
#include "core/plan_builder.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "pram/memory_system.hpp"
#include "pram/serve_context.hpp"
#include "pram/snapshot.hpp"
#include "pram/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

/// Combine a raw batch and serve it through the legacy step() entry.
/// Returns the distinct reads with their values (combine order).
struct StepIo {
  std::vector<VarId> reads;
  std::vector<pram::Word> values;
  std::vector<pram::VarWrite> writes;
};

StepIo run_step(pram::MemorySystem& memory, core::PlanBuilder& builder,
                const pram::AccessBatch& batch) {
  auto combined = builder.combine(batch);
  StepIo io;
  io.reads = std::move(combined.reads);
  io.writes = std::move(combined.writes);
  io.values.assign(io.reads.size(), 0);
  memory.step(io.reads, io.values, io.writes);
  return io;
}

TEST(CachedMemory, HitMissEvictionWriteBackAccounting) {
  auto flat = std::make_unique<pram::FlatMemory>(8);
  pram::FlatMemory* inner = flat.get();
  cache::CachedMemory cached(std::move(flat),
                             cache::CacheConfig{.capacity = 2});

  std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  const std::vector<pram::VarWrite> writes = {{VarId(0), 10},
                                              {VarId(1), 11}};
  cached.step(no_reads, no_values, writes);
  // Dirty lines: the inner memory has not seen the stores yet, but the
  // cache's peek is authoritative.
  EXPECT_EQ(inner->peek(VarId(0)), 0);
  EXPECT_EQ(cached.peek(VarId(0)), 10);
  EXPECT_EQ(cached.occupancy(), 2u);

  std::vector<VarId> reads = {VarId(0), VarId(1)};
  std::vector<pram::Word> values(2, 0);
  const std::vector<pram::VarWrite> no_writes;
  cached.step(reads, values, no_writes);
  EXPECT_EQ(values[0], 10);
  EXPECT_EQ(values[1], 11);
  EXPECT_EQ(cached.stats().hits, 2u);
  EXPECT_EQ(cached.stats().misses, 0u);

  // Two cold reads at capacity 2: both resident lines are evicted and
  // their dirty values written back to the inner memory.
  reads = {VarId(2), VarId(3)};
  values.assign(2, 0);
  cached.step(reads, values, no_writes);
  EXPECT_EQ(values[0], 0);
  EXPECT_EQ(values[1], 0);
  EXPECT_EQ(cached.stats().misses, 2u);
  EXPECT_EQ(cached.stats().evictions, 2u);
  EXPECT_EQ(cached.stats().writebacks, 2u);
  EXPECT_EQ(inner->peek(VarId(0)), 10);
  EXPECT_EQ(inner->peek(VarId(1)), 11);
  EXPECT_EQ(cached.peek(VarId(0)), 10);
  EXPECT_EQ(cached.occupancy(), 2u);
}

// The cache is a pure performance layer: under every trace family —
// including the new skewed ones — a cached FlatMemory must return the
// exact values a bare FlatMemory returns, and the final memory images
// must match cell for cell.
TEST(CachedMemory, BitExactVsFlatMemoryAcrossFamilies) {
  const std::uint32_t n = 16;
  const std::uint64_t m = 256;
  for (const auto family :
       {pram::TraceFamily::kUniform, pram::TraceFamily::kHotspot,
        pram::TraceFamily::kZipfian, pram::TraceFamily::kWorkingSet}) {
    pram::FlatMemory reference(m);
    cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                               cache::CacheConfig{.capacity = 32});
    util::Rng init(99);
    for (std::uint64_t v = 0; v < m; ++v) {
      const auto word = static_cast<pram::Word>(init.below(1 << 20));
      reference.poke(VarId(static_cast<std::uint32_t>(v)), word);
      cached.poke(VarId(static_cast<std::uint32_t>(v)), word);
    }

    pram::TraceParams params;
    params.write_fraction = 0.4;
    params.working_set_size = 24;
    params.working_set_period = 8;
    util::Rng rng(7);
    const auto trace = pram::make_trace(family, n, m, 60, rng, params);
    core::PlanBuilder builder;
    for (const auto& batch : trace) {
      auto combined = builder.combine(batch);
      std::vector<pram::Word> want(combined.reads.size(), 0);
      std::vector<pram::Word> got(combined.reads.size(), 0);
      reference.step(combined.reads, want, combined.writes);
      cached.step(combined.reads, got, combined.writes);
      ASSERT_EQ(want, got) << pram::to_string(family);
    }
    EXPECT_GT(cached.stats().hits, 0u) << pram::to_string(family);
    EXPECT_GT(cached.stats().misses, 0u) << pram::to_string(family);
    EXPECT_LE(cached.occupancy(), cached.capacity());
    for (std::uint64_t v = 0; v < m; ++v) {
      ASSERT_EQ(reference.peek(VarId(static_cast<std::uint32_t>(v))),
                cached.peek(VarId(static_cast<std::uint32_t>(v))))
          << pram::to_string(family) << " cell " << v;
    }
  }
}

// Tiny capacity + same-step read/write collisions: a variable that
// misses as a read and then has its write bypassed (every slot pinned)
// must still resolve read-before-write. capacity = 1 with 4 processors
// forces the bypass path every step.
TEST(CachedMemory, BypassedWritesStayReadBeforeWrite) {
  const std::uint32_t n = 4;
  const std::uint64_t m = 16;
  pram::FlatMemory reference(m);
  cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                             cache::CacheConfig{.capacity = 1});
  pram::TraceParams params;
  params.write_fraction = 0.6;
  params.hotspot_fraction = 0.8;
  params.hotset_size = 3;
  util::Rng rng(17);
  const auto trace =
      pram::make_trace(pram::TraceFamily::kHotspot, n, m, 80, rng, params);
  core::PlanBuilder builder;
  for (const auto& batch : trace) {
    auto combined = builder.combine(batch);
    std::vector<pram::Word> want(combined.reads.size(), 0);
    std::vector<pram::Word> got(combined.reads.size(), 0);
    reference.step(combined.reads, want, combined.writes);
    cached.step(combined.reads, got, combined.writes);
    ASSERT_EQ(want, got);
  }
  EXPECT_GT(cached.stats().bypasses, 0u)
      << "capacity 1 under 4 processors should have forced write-through";
  for (std::uint64_t v = 0; v < m; ++v) {
    ASSERT_EQ(reference.peek(VarId(static_cast<std::uint32_t>(v))),
              cached.peek(VarId(static_cast<std::uint32_t>(v))));
  }
}

// Hit rate must grow with the Zipf skew exponent at fixed capacity —
// the steeper the head, the more traffic the hot set captures.
TEST(CachedMemory, HitRateGrowsWithZipfSkew) {
  const std::uint32_t n = 64;
  const std::uint64_t m = 4096;
  std::vector<double> hit_rates;
  for (const double s : {0.2, 0.8, 1.4}) {
    cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                               cache::CacheConfig{.capacity = 256});
    pram::TraceParams params;
    params.write_fraction = 0.3;
    params.zipf_exponent = s;
    util::Rng rng(23);
    const auto trace =
        pram::make_trace(pram::TraceFamily::kZipfian, n, m, 100, rng,
                         params);
    core::PlanBuilder builder;
    for (const auto& batch : trace) {
      run_step(cached, builder, batch);
    }
    hit_rates.push_back(cached.stats().hit_rate());
  }
  EXPECT_GT(hit_rates[1] + 0.02, hit_rates[0]);
  EXPECT_GT(hit_rates[2] + 0.02, hit_rates[1]);
  EXPECT_GT(hit_rates[2], hit_rates[0] + 0.05)
      << "skew 1.4 vs 0.2 should move the hit rate decisively";
}

// serve(plan, ctx) and the legacy step() funnel must produce identical
// values and identical cache statistics over a mixed trace, with a real
// redundant scheme behind the cache.
TEST(CachedMemory, ServeMatchesStepOverScheme) {
  const std::uint32_t n = 16;
  const core::SchemeSpec spec{
      .kind = core::SchemeKind::kDmmpc, .n = n, .seed = 3};
  cache::CachedMemory by_step(core::make_memory(spec),
                              cache::CacheConfig{.capacity = 32});
  cache::CachedMemory by_serve(core::make_memory(spec),
                               cache::CacheConfig{.capacity = 32});
  const std::uint64_t m = by_step.size();
  ASSERT_EQ(m, by_serve.size());

  pram::TraceParams params;
  params.write_fraction = 0.4;
  util::Rng rng(31);
  const auto trace = pram::make_trace(pram::TraceFamily::kZipfian, n, m,
                                      40, rng, params);
  core::PlanBuilder step_builder;
  core::PlanBuilder serve_builder;
  pram::ServeContext ctx;
  for (const auto& batch : trace) {
    const auto io = run_step(by_step, step_builder, batch);
    const auto& plan = serve_builder.build(batch, by_serve);
    std::vector<pram::Word> serve_values(plan.reads.size(), 0);
    ctx.bind(serve_values);
    by_serve.serve(plan, ctx);
    ASSERT_EQ(io.values, serve_values);
  }
  EXPECT_EQ(by_step.stats().hits, by_serve.stats().hits);
  EXPECT_EQ(by_step.stats().misses, by_serve.stats().misses);
  EXPECT_EQ(by_step.stats().evictions, by_serve.stats().evictions);
  EXPECT_EQ(by_step.stats().writebacks, by_serve.stats().writebacks);
  EXPECT_EQ(by_step.stats().bypasses, by_serve.stats().bypasses);
}

// Production composition under dynamic faults: FaultableMemory wraps the
// cached scheme, modules die mid-run, and the trace-consistency oracle
// must score ZERO wrong reads — hot lines whose backing died since fill
// are invalidated and re-served, never returned stale.
TEST(CachedMemory, DeadBackingInvalidationKeepsOracleClean) {
  auto cached = std::make_unique<cache::CachedMemory>(
      core::make_memory(
          {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3}),
      cache::CacheConfig{.capacity = 128});
  const cache::CachedMemory* cache_view = cached.get();
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.4,
                                     .onset_min = 5,
                                     .onset_max = 30};
  faults::FaultableMemory faulty(std::move(cached), fault_spec);

  pram::TraceParams params;
  params.write_fraction = 0.2;
  params.zipf_exponent = 1.1;
  util::Rng rng(53);
  const auto trace = pram::make_trace(pram::TraceFamily::kZipfian, 16,
                                      faulty.size(), 80, rng, params);
  const auto result = core::run_trace(faulty, trace);
  EXPECT_GT(result.steps, 0u);
  const auto reliability = faulty.reliability();
  EXPECT_GT(reliability.reads_served, 0u);
  EXPECT_EQ(reliability.wrong_reads, 0u);
  EXPECT_GT(cache_view->stats().hits, 0u);
  EXPECT_GT(cache_view->stats().invalidations, 0u)
      << "deaths landed in the onset window but no hot line was dropped";
}

/// FlatMemory plus a scriptable scrub pass, so relocation invalidation
/// is testable without threading a real fault sweep underneath.
class RelocatingMemory final : public pram::MemorySystem {
 public:
  explicit RelocatingMemory(std::uint64_t m) : flat_(m) {}

  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override {
    advance_step_clock();
    return flat_.serve(plan, ctx);
  }
  [[nodiscard]] std::uint64_t size() const override { return flat_.size(); }
  [[nodiscard]] pram::Word peek(VarId var) const override {
    return flat_.peek(var);
  }
  void poke(VarId var, pram::Word value) override { flat_.poke(var, value); }
  pram::ScrubResult scrub(std::uint64_t budget) override {
    pram::ScrubResult result;
    result.scanned = budget;
    result.relocated = pending_relocations_;
    pending_relocations_ = 0;
    return result;
  }
  void relocate_on_next_scrub(std::uint64_t n) { pending_relocations_ = n; }

 private:
  pram::FlatMemory flat_;
  std::uint64_t pending_relocations_ = 0;
};

TEST(CachedMemory, ScrubRelocationInvalidatesCleanLinesOnly) {
  auto inner = std::make_unique<RelocatingMemory>(8);
  RelocatingMemory* reloc = inner.get();
  cache::CachedMemory cached(std::move(inner),
                             cache::CacheConfig{.capacity = 4});
  obs::Sink sink;
  cached.set_observer(&sink);

  // Fill a clean line (v0, read) and a dirty line (v1, written).
  std::vector<VarId> reads = {VarId(0)};
  std::vector<pram::Word> values(1, 0);
  const std::vector<pram::VarWrite> writes = {{VarId(1), 77}};
  cached.step(reads, values, writes);
  EXPECT_EQ(values[0], 0);

  // A scrub pass that relocated data: every clean line filled before it
  // is suspect. The inner value "moves" (changes) to make staleness
  // observable as a value, not just a counter.
  reloc->relocate_on_next_scrub(1);
  const auto scrub = cached.scrub(64);
  EXPECT_EQ(scrub.relocated, 1u);
  reloc->poke(VarId(0), 42);

  values.assign(1, 0);
  cached.step(reads, values, {});
  EXPECT_EQ(values[0], 42)
      << "clean line must be re-served from the relocated inner memory";
  EXPECT_EQ(cached.stats().invalidations, 1u);

  // The dirty line is the only up-to-date copy — it must NOT have been
  // invalidated by the relocation stamp.
  reads = {VarId(1)};
  values.assign(1, 0);
  cached.step(reads, values, {});
  EXPECT_EQ(values[0], 77);
  EXPECT_EQ(cached.stats().invalidations, 1u);

  if (obs::kEnabled) {
    sink.journal.flush();
    bool saw_scrub_invalidate = false;
    for (const auto& event : sink.journal.events()) {
      if (event.kind == obs::EventKind::kCacheInvalidateScrub) {
        saw_scrub_invalidate = true;
        EXPECT_EQ(event.entity, 0u);
      }
    }
    EXPECT_TRUE(saw_scrub_invalidate);
  }
}

// ----- pipeline: worker-count invariance with the cache enabled -------

void expect_runs_identical(const core::TraceRunResult& a,
                           const core::TraceRunResult& b,
                           const char* what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.time.count(), b.time.count()) << what;
  EXPECT_DOUBLE_EQ(a.time.sum(), b.time.sum()) << what;
  EXPECT_DOUBLE_EQ(a.work.sum(), b.work.sum()) << what;
  EXPECT_DOUBLE_EQ(a.max_queue.max(), b.max_queue.max()) << what;
  EXPECT_EQ(a.reliability.reads_served, b.reliability.reads_served) << what;
  EXPECT_EQ(a.reliability.wrong_reads, b.reliability.wrong_reads) << what;
  EXPECT_EQ(a.reliability.faults_masked, b.reliability.faults_masked)
      << what;
  EXPECT_EQ(a.reliability.uncorrectable, b.reliability.uncorrectable)
      << what;
}

struct WorkerOverrideGuard {
  ~WorkerOverrideGuard() { util::set_parallel_workers_override(0); }
};

// Results AND deterministic obs snapshots of a cached group-parallel
// pipeline run must be bit-identical at 1 worker and at many, including
// the cache's own counters and invalidation events.
TEST(CachedMemory, GroupParallelCachedPipelineBitIdenticalAcrossWorkers) {
  WorkerOverrideGuard guard;
  core::SchemeSpec spec{
      .kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3};
  spec.backend = pram::ServeBackend::kGroupParallel;
  spec.cache_lines = 64;
  core::SimulationPipeline pipeline(spec);
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.25,
                                     .onset_min = 2,
                                     .onset_max = 8};
  core::StressOptions options{.steps_per_family = 6, .seed = 13,
                              .trials = 2};
  options.families = {pram::TraceFamily::kZipfian,
                      pram::TraceFamily::kWorkingSet};
  options.trace.zipf_exponent = 1.1;
  options.scrub_interval = 2;
  options.scrub_budget = 64;
  options.obs = obs::SinkOptions{};

  obs::SnapshotOptions snapshot;
  snapshot.include_timings = false;

  util::set_parallel_workers_override(1);
  auto serial = pipeline.run_with_faults(fault_spec, options);
  util::set_parallel_workers_override(4);
  auto parallel = pipeline.run_with_faults(fault_spec, options);
  util::set_parallel_workers_override(0);

  EXPECT_GT(serial.reliability.reads_served, 0u);
  EXPECT_EQ(serial.reliability.wrong_reads, 0u);
  expect_runs_identical(serial, parallel, "cached kDmmpc");
  if (obs::kEnabled) {
    const std::string a = obs::to_json(serial.obs, snapshot);
    const std::string b = obs::to_json(parallel.obs, snapshot);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"cache.hits\""), std::string::npos);
  }
}

// Durability regression: snapshot() must write DIRTY LINES BACK to the
// inner memory BEFORE serializing it — the original ordering serialized
// the backing state first and produced checkpoints with stale words
// under every dirty line. The restored cache starts cold with a fully
// up-to-date backing image.
TEST(CachedMemory, SnapshotFlushesDirtyLinesBeforeSerializing) {
  auto flat = std::make_unique<pram::FlatMemory>(8);
  pram::FlatMemory* inner = flat.get();
  cache::CachedMemory cached(std::move(flat),
                             cache::CacheConfig{.capacity = 4});

  std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  const std::vector<pram::VarWrite> writes = {{VarId(0), 10},
                                              {VarId(1), 11},
                                              {VarId(5), 55}};
  cached.step(no_reads, no_values, writes);
  // The lines are dirty: the inner memory is stale by design...
  ASSERT_EQ(inner->peek(VarId(0)), 0);
  ASSERT_EQ(cached.stats().writebacks, 0u);

  // ...but serialization must flush first, so the checkpoint image (and
  // the inner memory it nests) carries the committed values.
  pram::BufferSink sink;
  cached.snapshot(sink);
  const auto bytes = sink.take();
  EXPECT_EQ(inner->peek(VarId(0)), 10);
  EXPECT_EQ(inner->peek(VarId(1)), 11);
  EXPECT_EQ(inner->peek(VarId(5)), 55);
  EXPECT_EQ(cached.stats().writebacks, 3u);
  // Flushing is not eviction: the lines stay resident (now clean).
  EXPECT_EQ(cached.occupancy(), 3u);
  EXPECT_EQ(cached.peek(VarId(5)), 55);

  // Restore into a fresh wrapper: values correct, cache cold.
  cache::CachedMemory restored(std::make_unique<pram::FlatMemory>(8),
                               cache::CacheConfig{.capacity = 4});
  pram::BufferSource source(bytes);
  ASSERT_TRUE(restored.restore(source));
  ASSERT_TRUE(source.exhausted());
  EXPECT_EQ(restored.occupancy(), 0u);
  EXPECT_EQ(restored.peek(VarId(0)), 10);
  EXPECT_EQ(restored.peek(VarId(1)), 11);
  EXPECT_EQ(restored.peek(VarId(5)), 55);
  EXPECT_EQ(restored.peek(VarId(2)), 0);
}

// Durability under replica-level faults: a checkpoint must not change
// what the machine observably holds. The first module death writes every
// dirty line back and turns on write-through, so snapshot() never pushes
// a dirty line into storage that died under it (whose peek would then
// read the loss instead of the committed value).
TEST(CachedMemory, SnapshotLeavesPeeksUnchangedUnderDynamicFaults) {
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.2,
                                     .onset_min = 2,
                                     .onset_max = 6};
  pram::TraceParams params;
  params.write_fraction = 0.5;
  for (const core::SchemeKind kind : core::all_scheme_kinds()) {
    faults::FaultableMemory faulty(
        core::make_memory(
            {.kind = kind, .n = 16, .seed = 3, .cache_lines = 32}),
        fault_spec);
    util::Rng rng(7);
    const auto trace = pram::make_trace(pram::TraceFamily::kZipfian, 16,
                                        faulty.size(), 12, rng, params);
    (void)core::run_trace(faulty, trace);

    std::vector<pram::Word> before(faulty.size());
    for (std::uint32_t v = 0; v < before.size(); ++v) {
      before[v] = faulty.peek(VarId(v));
    }
    pram::BufferSink sink;
    faulty.snapshot(sink);
    std::size_t changed = 0;
    for (std::uint32_t v = 0; v < before.size(); ++v) {
      changed += faulty.peek(VarId(v)) != before[v] ? 1 : 0;
    }
    EXPECT_EQ(changed, 0u) << core::to_string(kind) << "+cache: "
                           << changed << " of " << before.size()
                           << " peeks changed by snapshot()";
  }
}

/// Scripted module deaths: module m dies at step onset[m] (0 = never).
class ScriptedDeaths final : public pram::FaultHooks {
 public:
  explicit ScriptedDeaths(std::vector<std::uint64_t> onset)
      : onset_(std::move(onset)) {}
  [[nodiscard]] bool module_dead(ModuleId module,
                                 std::uint64_t step) const override {
    const std::uint64_t onset = onset_[module.index()];
    return onset != 0 && step >= onset;
  }
  [[nodiscard]] bool stuck_at(std::uint64_t, std::uint32_t, std::uint64_t,
                              pram::Word&) const override {
    return false;
  }
  [[nodiscard]] bool corrupt_write(std::uint64_t, std::uint32_t,
                                   std::uint64_t, std::uint64_t,
                                   pram::Word&) const override {
    return false;
  }

 private:
  std::vector<std::uint64_t> onset_;
};

/// Single-copy memory over 4 modules (variable v on module v % 4) that
/// applies module deaths itself: a dead module drops stores and reads 0.
class DyingMemory final : public pram::MemorySystem {
 public:
  explicit DyingMemory(std::uint64_t m) : cells_(m, 0) {}

  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override {
    const std::uint64_t step = advance_step_clock();
    ctx.stamp_step(step);
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      ctx.read_values()[i] = read(plan.reads[i], step);
    }
    for (const auto& write : plan.writes) {
      store(write.var, write.value, step);
    }
    return {.time = 1};
  }
  [[nodiscard]] std::uint64_t size() const override { return cells_.size(); }
  [[nodiscard]] pram::Word peek(VarId var) const override {
    return read(var, steps_served());
  }
  void poke(VarId var, pram::Word value) override {
    store(var, value, steps_served());
  }
  [[nodiscard]] std::uint32_t num_modules() const override { return 4; }
  bool set_fault_hooks(const pram::FaultHooks* hooks) override {
    hooks_ = hooks;
    return true;
  }

 private:
  [[nodiscard]] bool dead(VarId var, std::uint64_t step) const {
    return hooks_ != nullptr &&
           hooks_->module_dead(ModuleId(var.index() % 4), step);
  }
  [[nodiscard]] pram::Word read(VarId var, std::uint64_t step) const {
    return dead(var, step) ? 0 : cells_[var.index()];
  }
  void store(VarId var, pram::Word value, std::uint64_t step) {
    if (!dead(var, step)) {
      cells_[var.index()] = value;
    }
  }

  std::vector<pram::Word> cells_;
  const pram::FaultHooks* hooks_ = nullptr;
};

// The first module death the fault clock sees writes every dirty line
// back — even lines on modules that are still alive — and turns the
// cache write-through. A dirty line kept past that point could outlive
// its own module's later death, and the next snapshot() would then push
// it into dead storage and change what peek() reports.
TEST(CachedMemory, FirstDeathWritesBackDirtyLinesThenWritesThrough) {
  auto dying = std::make_unique<DyingMemory>(16);
  DyingMemory* inner = dying.get();
  cache::CachedMemory cached(std::move(dying),
                             cache::CacheConfig{.capacity = 8});
  const ScriptedDeaths deaths({0, 2, 3, 0});  // module 1 at 2, module 2 at 3
  ASSERT_TRUE(cached.set_fault_hooks(&deaths));

  std::vector<pram::Word> no_values;
  const std::vector<pram::VarWrite> dirty = {{VarId(2), 77}};
  const std::vector<pram::VarWrite> through = {{VarId(3), 5}};
  cached.step({}, no_values, dirty);  // step 1: a dirty line on module 2
  ASSERT_EQ(inner->peek(VarId(2)), 0);
  cached.step({}, no_values, {});  // step 2: module 1 dies
  EXPECT_EQ(inner->peek(VarId(2)), 77) << "dirty line not written back";
  EXPECT_EQ(cached.stats().writebacks, 1u);

  cached.step({}, no_values, through);  // step 3: module 2 dies
  EXPECT_EQ(inner->peek(VarId(3)), 5) << "write did not go through";
  EXPECT_EQ(cached.peek(VarId(2)), 0) << "the loss must show, as uncached";

  pram::BufferSink sink;
  cached.snapshot(sink);
  EXPECT_EQ(cached.peek(VarId(2)), 0);
  EXPECT_EQ(cached.peek(VarId(3)), 5);
}

}  // namespace
}  // namespace pramsim
