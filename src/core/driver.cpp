#include "core/driver.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"
#include "faults/faultable_memory.hpp"
#include "faults/trace_checker.hpp"
#include "memmap/expansion.hpp"
#include "pram/serve_context.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace pramsim::core {

namespace {

void record_step(TraceRunResult& result, const pram::MemStepCost& cost) {
  result.time.add(static_cast<double>(cost.time));
  result.work.add(static_cast<double>(cost.work));
  result.live_after_stage1.add(static_cast<double>(cost.live_after_stage1));
  result.max_queue.add(static_cast<double>(cost.max_queue));
  ++result.steps;
}

/// The driver's one MemorySystem::serve call site (timed as kServe when
/// `phases` is set).
pram::MemStepCost serve_plan(pram::MemorySystem& memory,
                             const pram::AccessPlan& plan,
                             std::vector<pram::Word>& values,
                             pram::ServeContext& ctx,
                             obs::PhaseSet* phases) {
  values.resize(plan.reads.size());
  ctx.bind(values);
  const obs::ScopedPhase timer(phases, obs::Phase::kServe);
  return memory.serve(plan, ctx);
}

/// A fresh machine for one run: the scheme, fault-wrapped when
/// `fault_spec` is set, observed by `sink` when set. The crashed,
/// recovered and reference machines of a crash run all come from here.
std::unique_ptr<pram::MemorySystem> make_run_memory(
    const SchemeSpec& spec, const faults::FaultSpec* fault_spec,
    obs::Sink* sink) {
  std::unique_ptr<pram::MemorySystem> memory = make_memory(spec);
  if (fault_spec != nullptr) {
    memory = std::make_unique<faults::FaultableMemory>(std::move(memory),
                                                       *fault_spec);
  }
  if (sink != nullptr) {
    memory->set_observer(sink);
  }
  return memory;
}

/// One served step, as the post-step hooks see it.
struct Step {
  std::uint64_t number = 0;  ///< 1-based: steps this loop has served
  const pram::AccessPlan& plan;
  pram::MemStepCost cost;
  obs::PhaseSet* phases = nullptr;  ///< non-null iff this step is timed
};

/// Runs on the serving thread after every step, in the order added.
using Hook = std::function<void(const Step&)>;

/// Post-step hook: a budgeted background-scrub pass every `interval`
/// served steps, tallied into `result` (0 interval or budget = off).
struct ScrubCadence {
  pram::MemorySystem& memory;
  std::uint32_t interval = 0;
  std::uint64_t budget = 0;
  obs::Sink* sink = nullptr;  ///< optional: counts passes and repairs
  TraceRunResult& result;

  void operator()(const Step& step) const {
    if (interval == 0 || budget == 0 || step.number % interval != 0) {
      return;
    }
    ++result.scrub_passes;
    pram::ScrubResult pass;
    {
      const obs::ScopedPhase timer(step.phases, obs::Phase::kScrub);
      pass = memory.scrub(budget);
    }
    if (sink != nullptr) {
      sink->metrics.add("scrub.passes");
      sink->metrics.add("scrub.scanned", pass.scanned);
      sink->metrics.add("scrub.repaired", pass.repaired);
      sink->metrics.add("scrub.relocated", pass.relocated);
      sink->metrics.add("scrub.work", pass.work);
    }
    result.scrub.merge(pass);
  }
};

/// Adversarial batch source: map-crafted congestion batches, else the
/// scheme's own adversary (e.g. the hashed baseline's preimage attack).
/// Generated one step at a time — never pre-built or double-buffered —
/// so a state-dependent adversary tracks placement changes serving
/// causes (e.g. a rehashing backend redrawing its hash).
struct Adversary {
  const pram::MemorySystem& memory;
  std::uint32_t n = 0;
  util::Rng& rng;

  /// Fill `batch` with the next step's reads; false once the adversary
  /// has nothing to offer (schemes with neither map nor adversary).
  bool operator()(pram::AccessBatch& batch) const {
    const memmap::MemoryMap* map = memory.memory_map();
    const auto vars = map != nullptr
                          ? memmap::adversarial_batch(*map, n, rng.next())
                          : memory.adversarial_vars(n, rng.next());
    batch.clear();
    for (std::uint32_t i = 0; i < vars.size(); ++i) {
      batch.push_back({ProcId(i % n), pram::AccessOp::kRead, vars[i], 0});
    }
    return !vars.empty();
  }
};

/// Trace batch source: make_trace's batches, generated one step at a time
/// (the same stream), so a stress stage never holds its whole trace.
struct TraceSteps {
  pram::TraceFamily family;
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  util::Rng& rng;
  const pram::TraceParams& params;
  std::size_t step = 0;

  bool operator()(pram::AccessBatch& batch) {
    batch = pram::make_trace_step(family, n, m, step++, rng, params);
    return true;
  }
};

/// The driver's one step loop: a plan source (a trace, or a batch source
/// generating one step at a time) feeds serve_plan, then the post-step
/// hooks run in order on the serving thread. Every run mode is a
/// configuration of it.
class StepLoop {
 public:
  StepLoop(pram::MemorySystem& memory, util::Executor* executor,
           obs::Sink* sink)
      : memory_(memory), sink_(sink), ctx_({}, executor) {}

  StepLoop& then(Hook hook) {
    hooks_.push_back(std::move(hook));
    return *this;
  }

  /// Serve `trace` in order.
  void run(std::span<const pram::AccessBatch> trace) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      serve(build(slots_[0], trace[i], i + 1), i + 1);
    }
  }

  /// Serve up to `steps` batches that `next` generates one per step, each
  /// generation timed as `phase` with the step it feeds; stops early once
  /// `next` has nothing to offer. With `double_buffer` (and enough steps
  /// to amortize the thread) a generator thread generates and builds step
  /// N+1 while this thread serves step N. Results are identical for a
  /// source that never reads memory state (a trace, never an adversary),
  /// since plan building never touches it either (plan_group_of is
  /// immutable).
  template <typename Source>
  void run(Source next, obs::Phase phase, std::size_t steps,
           bool double_buffer = false) {
    if (double_buffer && steps >= 4) {
      run_double_buffered(next, phase, steps);
      return;
    }
    for (std::size_t i = 0;
         i < steps && generate(next, phase, batches_[0], i + 1); ++i) {
      serve(build(slots_[0], batches_[0], i + 1), i + 1);
    }
  }

 private:
  /// The step's sampling decision, shared by every timer around it.
  [[nodiscard]] obs::PhaseSet* timing(std::uint64_t step) const {
    return sink_ != nullptr && sink_->sample(step) ? &sink_->phases
                                                   : nullptr;
  }

  template <typename Source>
  bool generate(Source& next, obs::Phase phase, pram::AccessBatch& batch,
                std::uint64_t step) const {
    const obs::ScopedPhase timer(timing(step), phase);
    return next(batch);
  }

  const pram::AccessPlan& build(PlanBuilder& slot,
                                const pram::AccessBatch& batch,
                                std::uint64_t step) const {
    const obs::ScopedPhase timer(timing(step), obs::Phase::kPlanBuild);
    return slot.build(batch, memory_);
  }

  void serve(const pram::AccessPlan& plan, std::uint64_t step) {
    obs::PhaseSet* const phases = timing(step);
    const Step done{step, plan,
                    serve_plan(memory_, plan, values_, ctx_, phases), phases};
    for (const Hook& hook : hooks_) {
      hook(done);
    }
  }

  template <typename Source>
  void run_double_buffered(Source& next, obs::Phase phase,
                           std::size_t steps) {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t built = 0;   // plans fully built
    std::size_t served = 0;  // plans fully served (their slot is free)
    const auto wait_until = [&](auto ready) {
      std::unique_lock lock(mutex);
      cv.wait(lock, ready);
    };
    const auto publish = [&](std::size_t& counter, std::size_t value) {
      {
        const std::lock_guard lock(mutex);
        counter = value;
      }
      cv.notify_all();
    };
    // The generator thread writes ONLY the generation `phase` and
    // kPlanBuild rows; the serving thread writes kServe/kScrub — distinct
    // PhaseSet slots, single writer each (see obs/phase.hpp).
    std::thread generator([&] {
      for (std::size_t i = 0; i < steps; ++i) {
        wait_until([&] { return i < served + 2; });
        const bool filled = generate(next, phase, batches_[i % 2], i + 1);
        PRAMSIM_ASSERT_MSG(filled, "a double-buffered source fills every step");
        (void)build(slots_[i % 2], batches_[i % 2], i + 1);
        publish(built, i + 1);
      }
    });
    for (std::size_t i = 0; i < steps; ++i) {
      wait_until([&] { return built > i; });
      serve(slots_[i % 2].plan(), i + 1);
      publish(served, i + 1);
    }
    generator.join();
  }

  pram::MemorySystem& memory_;
  obs::Sink* sink_;
  PlanBuilder slots_[2];
  pram::AccessBatch batches_[2];  ///< a batch source's reused batches
  std::vector<pram::Word> values_;
  pram::ServeContext ctx_;
  std::vector<Hook> hooks_;
};

}  // namespace

TraceRunResult run_trace(pram::MemorySystem& memory,
                         std::span<const pram::AccessBatch> trace) {
  TraceRunResult result;
  result.storage_factor = memory.storage_redundancy();
  StepLoop(memory, nullptr, nullptr)
      .then([&result](const Step& step) { record_step(result, step.cost); })
      .run(trace);
  return result;
}

SimulationPipeline::SimulationPipeline(SchemeSpec spec)
    : spec_(spec), instance_(make_scheme(spec)) {}

pram::MemStepCost SimulationPipeline::run_batch(const pram::AccessBatch& batch) {
  const pram::AccessPlan& plan = builder_.build(batch, *instance_.memory);
  pram::ServeContext ctx({}, &executor_);
  return serve_plan(*instance_.memory, plan, values_, ctx, nullptr);
}

TraceRunResult SimulationPipeline::run_stress(
    const StressOptions& options) const {
  return run_stress_impl(options, nullptr);
}

TraceRunResult SimulationPipeline::run_with_faults(
    const faults::FaultSpec& fault_spec, const StressOptions& options) const {
  return run_stress_impl(options, &fault_spec);
}

TraceRunResult SimulationPipeline::run_stress_impl(
    const StressOptions& options, const faults::FaultSpec* fault_spec) const {
  const std::vector<pram::TraceFamily>& families =
      options.families.empty() ? pram::exclusive_trace_families()
                               : options.families;
  const std::size_t trials = std::max<std::size_t>(options.trials, 1);
  // Within-trial sharding: every (trial, family) pair — plus each trial's
  // adversarial phase — is one shard, so trials = 1 workloads spread over
  // the host's threads too.
  const std::size_t stages =
      families.size() + (options.include_map_adversarial ? 1 : 0);
  // Double-buffer plans and hand shards an executor for group fan-out
  // only when the shard level leaves the host's cores idle: a thread or
  // pool per shard on top of a full parallel_for would oversubscribe.
  const bool shard_level_serial =
      util::parallel_workers(trials * stages) == 1;
  const bool double_buffer = options.double_buffer && shard_level_serial;

  std::vector<TraceRunResult> shards(trials * stages);
  util::parallel_for(0, trials * stages, [&](std::size_t s) {
    const std::size_t trial = s / stages;
    const std::size_t stage = s % stages;
    // Shard-local sink, folded into the merged result in shard order.
    obs::Sink sink(options.obs.value_or(obs::SinkOptions{}));
    obs::Sink* obs_sink =
        obs::kEnabled && options.obs.has_value() ? &sink : nullptr;
    // Fresh memory per shard (same scheme seed: the map under test is
    // fixed; the traffic stream derives from (seed, trial, family)).
    // Under fault injection every shard of a trial shares the trial's
    // fault seed: one machine's static fault set, observed per family.
    faults::FaultSpec trial_faults;
    if (fault_spec != nullptr) {
      trial_faults = *fault_spec;
      trial_faults.seed += trial * 0xC2B2AE3D27D4EB4FULL;
    }
    const auto memory = make_run_memory(
        spec_, fault_spec != nullptr ? &trial_faults : nullptr, obs_sink);
    TraceRunResult& shard = shards[s];
    shard.storage_factor = memory->storage_redundancy();

    util::Executor executor;
    StepLoop loop(*memory, shard_level_serial ? &executor : nullptr,
                  obs_sink);
    loop.then([&shard](const Step& step) { record_step(shard, step.cost); })
        .then(ScrubCadence{*memory, options.scrub_interval,
                           options.scrub_budget, obs_sink, shard});
    // Reach this stage's stream: family f uses the (f+1)-th split of the
    // trial generator, and the adversarial stage draws from the trial
    // generator itself once every family has split off.
    util::Rng rng(options.seed + trial * 0x9E3779B97F4A7C15ULL);
    for (std::size_t f = 0; f < stage; ++f) {
      (void)rng.split();
    }
    if (stage < families.size()) {
      auto family_rng = rng.split();
      loop.run(TraceSteps{families[stage], spec_.n, instance_.m, family_rng,
                          options.trace},
               obs::Phase::kTraceGen, options.steps_per_family,
               double_buffer);
    } else {
      loop.run(Adversary{*memory, spec_.n, rng}, obs::Phase::kAdversary,
               options.steps_per_family);
    }
    shard.reliability = memory->reliability();
    if (obs_sink != nullptr) {
      memory->set_observer(nullptr);
      sink.journal.flush();
      shard.obs = std::move(sink);
    }
  });

  // Deterministic merge in (trial, family, step) order — shard order is
  // fixed by construction, so the fold is identical at any thread count.
  TraceRunResult merged;
  merged.storage_factor = instance_.memory->storage_redundancy();
  if (obs::kEnabled && options.obs.has_value()) {
    // Same ring bound for the merged journal as for each shard's.
    merged.obs = obs::Sink(*options.obs);
  }
  for (const auto& shard : shards) {
    merged.merge(shard);
  }
  merged.obs.journal.flush();
  return merged;
}

CrashRecoveryResult SimulationPipeline::run_crash_recovery(
    const CrashRecoveryOptions& options,
    const faults::FaultSpec* fault_spec) const {
  namespace fs = std::filesystem;
  CrashRecoveryResult result;
  const DurabilityOptions& dur = options.durability;
  PRAMSIM_ASSERT_MSG(!dur.directory.empty(),
                     "CrashRecoveryOptions needs a durability directory");
  fs::create_directories(dur.directory);
  const std::string wal_path =
      (fs::path(dur.directory) / "wal.log").string();
  // A crash run owns its directory: stale checkpoints from a previous run
  // must not leak into this run's recovery (the Wal truncates wal.log).
  for (const auto& entry : fs::directory_iterator(dur.directory)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      fs::remove(entry.path());
    }
  }

  const std::size_t steps = std::max<std::size_t>(options.steps, 1);
  // The kill step derives from the seed (decorrelated from the traffic
  // stream), so a matrix sweep over seeds covers kill positions all over
  // the run without hand-picking them.
  util::Rng kill_rng(options.seed ^ 0xD1B54A32D192ED03ULL);
  const std::uint64_t kill =
      options.kill_step != 0
          ? std::min<std::uint64_t>(options.kill_step, steps)
          : 1 + kill_rng.below(steps);
  result.kill_step = kill;

  util::Rng trace_rng(options.seed);
  const auto trace = pram::make_trace(options.family, spec_.n, instance_.m,
                                      steps, trace_rng, options.trace);

  obs::Sink sink(options.obs.value_or(obs::SinkOptions{}));
  obs::Sink* obs_sink =
      obs::kEnabled && options.obs.has_value() ? &sink : nullptr;
  util::Executor executor;

  durability::Wal::RecordSpan torn_span;
  {
    const auto memory = make_run_memory(spec_, fault_spec, obs_sink);
    // Fault-onset acknowledgements: the log shows each realized onset
    // once the step clock crosses it.
    std::span<const std::pair<std::uint64_t, std::uint32_t>> onsets;
    if (fault_spec != nullptr) {
      onsets = static_cast<faults::FaultableMemory&>(*memory).onsets();
    }
    std::size_t onset_cursor = 0;

    durability::Wal wal({wal_path, dur.wal_flush_interval}, obs_sink);
    durability::Checkpointer checkpointer(
        {dur.directory, dur.keep_checkpoints}, obs_sink);

    // Served through the kill step; the crash hook commits every step
    // and runs the group-commit/checkpoint protocol up to (not at) it.
    StepLoop(*memory, &executor, obs_sink)
        .then([&](const Step& step) {
          while (onset_cursor < onsets.size() &&
                 onsets[onset_cursor].first <= step.number) {
            wal.append_onset(step.number, onsets[onset_cursor].second);
            ++onset_cursor;
          }
          wal.append_step(step.number, step.plan.writes);
          if (step.number == kill) {
            return;
          }
          wal.maybe_flush(step.number);
          if (dur.checkpoint_interval != 0 &&
              step.number % dur.checkpoint_interval == 0) {
            wal.flush();
            checkpointer.write(*memory, step.number);
            wal.truncate_through(step.number);
          }
        })
        .run(std::span(trace).first(kill));

    // Every kill point (see KillPoint) has the WAL durable through it.
    wal.flush();
    switch (options.kill_point) {
      case KillPoint::kCleanShutdown:
        checkpointer.write(*memory, kill);
        wal.truncate_through(kill);
        break;
      case KillPoint::kMidWalAppend:  // cut post-scope, inside the record
        torn_span = wal.last_record();
        break;
      case KillPoint::kAfterWalFlush:
        break;
      case KillPoint::kMidCheckpoint: {  // a torn checkpoint prefix
        const std::vector<std::uint8_t> image =
            durability::Checkpointer::file_image(*memory, kill);
        const std::size_t cut = 1 + kill_rng.below(image.size() - 1);
        const std::string path =
            durability::Checkpointer::path_for(dur.directory, kill);
        std::FILE* file = std::fopen(path.c_str(), "wb");
        PRAMSIM_ASSERT(file != nullptr);
        PRAMSIM_ASSERT(std::fwrite(image.data(), 1, cut, file) == cut);
        std::fclose(file);
        break;
      }
      case KillPoint::kAfterCheckpointPreTruncate:
        checkpointer.write(*memory, kill);
        break;
    }
    result.checkpoint_bytes = checkpointer.last_bytes();
  }  // the crash: Wal closes here WITHOUT flushing any buffered tail

  if (options.kill_point == KillPoint::kMidWalAppend &&
      torn_span.length > 1) {
    fs::resize_file(wal_path, torn_span.offset + 1 +
                                  kill_rng.below(torn_span.length - 1));
  }
  result.wal_bytes = fs::exists(wal_path) ? fs::file_size(wal_path) : 0;

  // Restart: a fresh machine recovers from what survived on disk.
  const auto recovered = make_run_memory(spec_, fault_spec, obs_sink);
  util::Stopwatch timer;
  result.recovery = durability::recover(*recovered, wal_path,
                                        dur.directory, dur.scrub_budget,
                                        obs_sink);
  result.recovery_seconds = timer.elapsed_seconds();
  result.durable_step = result.recovery.recovered_step;
  if (obs_sink != nullptr) {
    recovered->set_observer(nullptr);
  }

  // Reference: an uninterrupted, unobserved run of the same trace,
  // stopped at the durable horizon. Its committed-write trace doubles as
  // the oracle for the zero-lost-durable-writes check.
  const auto reference = make_run_memory(spec_, fault_spec, nullptr);
  faults::TraceChecker committed;
  StepLoop(*reference, &executor, nullptr)
      .then([&committed](const Step& step) {
        for (const pram::VarWrite& write : step.plan.writes) {
          committed.record_write(write.var, write.value);
        }
      })
      .run(std::span(trace).first(result.durable_step));

  result.bit_exact = true;
  result.vars_checked = reference->size();
  for (std::uint64_t v = 0; v < result.vars_checked; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    if (reference->peek(var) != recovered->peek(var)) {
      result.bit_exact = false;
    }
  }
  // Under fault injection peek is fault-aware (a dead module's loss is
  // visible in BOTH instances), so the ideal-value comparison is only
  // meaningful fault-free; the bit_exact reference comparison above is
  // the authoritative check either way.
  if (fault_spec == nullptr) {
    for (const auto& [var, value] : committed.ideal()) {
      if (recovered->peek(VarId(static_cast<std::uint32_t>(var))) !=
          value) {
        ++result.lost_committed_writes;
      }
    }
  }
  if (obs_sink != nullptr) {
    sink.journal.flush();
    result.obs = std::move(sink);
  }
  return result;
}

RecoveryResult SimulationPipeline::run_recovery(
    const faults::FaultSpec& fault_spec,
    const RecoveryOptions& options) const {
  RecoveryResult result;
  obs::Sink* obs_sink = nullptr;
  if (obs::kEnabled && options.obs.has_value()) {
    result.obs = obs::Sink(*options.obs);
    obs_sink = &result.obs;
  }
  // One fresh machine, wrapped for injection + oracle checking; the whole
  // probe is served on this thread so the trajectory is bit-identical at
  // any worker-thread count.
  const auto memory = make_run_memory(spec_, &fault_spec, obs_sink);
  result.onset_step = static_cast<std::int64_t>(
      static_cast<faults::FaultableMemory&>(*memory).model().first_onset());

  util::Rng rng(options.seed);
  const auto trace = pram::make_trace(options.family, spec_.n, instance_.m,
                                      options.steps, rng, options.trace);

  // Scrub between steps, then sample, so a step's point reflects the
  // reads it served and the repairs that followed it. The first
  // over-threshold step is the injury; recovery is the first step from
  // which the degraded rate STAYS at or below the threshold.
  TraceRunResult scrubbed;
  pram::ReliabilityStats prev;
  std::int64_t last_bad = -1;
  result.trajectory.reserve(trace.size());
  util::Executor executor;
  StepLoop(*memory, &executor, obs_sink)
      .then(ScrubCadence{*memory, options.scrub_interval,
                         options.scrub_budget, obs_sink, scrubbed})
      .then([&](const Step& step) {
        const pram::ReliabilityStats now = memory->reliability();
        RecoveryPoint& point = result.trajectory.emplace_back(RecoveryPoint{
            .step = step.number,
            .reads = now.reads_served - prev.reads_served,
            .masked = now.faults_masked - prev.faults_masked,
            .uncorrectable = now.uncorrectable - prev.uncorrectable,
            .wrong = now.wrong_reads - prev.wrong_reads,
            .repaired = now.units_repaired - prev.units_repaired,
            .relocated = now.units_relocated - prev.units_relocated});
        prev = now;
        if (point.reads > 0) {
          point.degraded_rate =
              static_cast<double>(point.masked + point.uncorrectable) /
              static_cast<double>(point.reads);
        }
        result.peak_degraded_rate =
            std::max(result.peak_degraded_rate, point.degraded_rate);
        if (point.degraded_rate > options.recovery_threshold) {
          if (result.first_degraded_step < 0) {
            result.first_degraded_step = static_cast<std::int64_t>(step.number);
          }
          last_bad = static_cast<std::int64_t>(step.number);
        }
      })
      .run(trace);
  result.scrub = scrubbed.scrub;
  result.reliability = memory->reliability();
  if (obs_sink != nullptr) {
    memory->set_observer(nullptr);
    result.obs.journal.flush();
  }

  if (!result.trajectory.empty()) {
    result.final_degraded_rate = result.trajectory.back().degraded_rate;
  }
  if (result.first_degraded_step >= 0 &&
      last_bad < static_cast<std::int64_t>(result.trajectory.size())) {
    result.recovered_step = last_bad + 1;
    result.recovery_steps = result.recovered_step - result.first_degraded_step;
  }
  return result;
}

}  // namespace pramsim::core
