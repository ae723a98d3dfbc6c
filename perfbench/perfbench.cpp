// perfbench: the repository's benchmark binary. One process, one
// workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--io-dir <dir>] [--commit <id>]
//
// --trace 0 measures the end-to-end metrics with tracing off: it calls
// the public top-level entries a user calls (pram::Machine::step,
// core::SimulationPipeline::run_with_faults / run_crash_recovery /
// run_batch) in a loop for --seconds and reports medians. --trace 1
// replays the same generated inputs step by step through each module's
// public calls, with SpanMemory decorators between the memory layers,
// and reports per-layer metrics. Every invocation runs both kinds of
// pass: the traced replay must reproduce every deterministic result of
// the untraced run exactly (transparency), and outputs are checked
// against host references. The last stdout line is the JSON result;
// see README.md for the metric definitions.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cached_memory.hpp"
#include "core/driver.hpp"
#include "core/plan_builder.hpp"
#include "core/schemes.hpp"
#include "durability/checkpoint.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "faults/faultable_memory.hpp"
#include "faults/trace_checker.hpp"
#include "memmap/expansion.hpp"
#include "obs/phase.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "pram/trace.hpp"
#include "span_memory.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace pramsim;
namespace fs = std::filesystem;

constexpr std::uint32_t kN = 256;
/// Memory-map seed: part of the machine's configuration, fixed so that
/// --seed varies only the inputs (traffic, program data, fault draws).
constexpr std::uint64_t kSchemeSeed = 1;
/// parallel_for / Executor worker pin: the serving thread only (the
/// stress pipeline may add its one double-buffer generator thread).
constexpr std::size_t kPinnedWorkers = 1;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Nearest-rank percentile (q in (0, 1]) of `xs`.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

using Values = std::map<std::string, double>;
/// Deterministic results a pass produced; the traced replay must match
/// the untraced run on every key both report.
using Fingerprint = std::map<std::string, std::uint64_t>;

/// Checked operations of a pass and the ones that failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void check(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad > 0) {
      problems.push_back(what + ": " + std::to_string(bad) + " of " +
                         std::to_string(ops));
    }
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    problems.insert(problems.end(), other.problems.begin(),
                    other.problems.end());
  }
};

/// Host-speed reference. On a shared host the simulator's speed drifts
/// by tens of percent over seconds with what the neighbours run (a
/// core's sibling thread, the memory system); runs minutes apart differ
/// by up to 1.7x. Three fixed kernels written here, which never change
/// with the simulator, sample that speed between slices of the workload: a
/// branchy in-cache kernel (sort 8 Ki keys, 20 k hash-map probes), a
/// memory-bound one (20 k random read-modify-writes over 16 MiB) and a
/// table-lookup one (128 Ki lookups into a 64 KiB table, the shape of
/// the GF(256) codec and the schedulers' small tables). Each kernel runs
/// once untimed before its timed run, so the timed run starts on its own
/// warm data whatever the simulator left in the caches: a simulator
/// change that grows its cache footprint does not slow the kernels and
/// so is not scaled away. Each host time is then expressed at the
/// kernels' nominal speed, which cancels most of the drift. The raw
/// times are printed alongside.
class Reference {
 public:
  Reference()
      : keys_(8192),
        table_(1u << 21, 0),
        lookup_(256 * 256),
        bytes_(32768),
        mixed_(32768, 0) {
    util::Rng rng(0x5EED);
    for (auto& key : keys_) {
      key = static_cast<std::uint32_t>(rng.next());
    }
    for (std::uint64_t i = 0; i < 4096; ++i) {
      map_[rng.below(kMapRange)] = i;
    }
    for (auto& b : lookup_) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    for (auto& b : bytes_) {
      b = static_cast<std::uint8_t>(rng.next());
    }
  }

  /// Run the kernels (about 3 ms); returns the host's speed relative to
  /// nominal (1 = nominal, < 1 = slower).
  double sample() {
    const double in_cache = warm_seconds([this] { in_cache_kernel(); });
    const double memory = warm_seconds([this] { memory_kernel(); });
    const double lookup = warm_seconds([this] { lookup_kernel(); });
    return std::cbrt((kNominalInCacheS / in_cache) *
                     (kNominalMemoryS / memory) *
                     (kNominalLookupS / lookup));
  }

 private:
  /// Seconds of the second of two back-to-back runs of `kernel`.
  template <typename Kernel>
  static double warm_seconds(Kernel kernel) {
    kernel();
    const auto start = Clock::now();
    kernel();
    return seconds_since(start);
  }

  void in_cache_kernel() {
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
    std::uint64_t acc = sorted_[17];
    for (std::uint64_t i = 0; i < 20000; ++i) {
      const auto it = map_.find((acc + i * 7919) % kMapRange);
      acc += it != map_.end() ? it->second : 1;
    }
    state_ += acc;
  }

  void memory_kernel() {
    std::uint64_t x = state_;
    for (int i = 0; i < 20000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (table_.size() - 1)] += x;
    }
    state_ = x;
  }

  void lookup_kernel() {
    for (std::size_t rep = 0; rep < 4; ++rep) {
      const std::size_t row = 256 * ((rep * 37 + 1) & 0xFF);
      for (std::size_t i = 0; i < bytes_.size(); ++i) {
        mixed_[i] ^= lookup_[row + bytes_[i]];
      }
      bytes_[rep] ^= mixed_[bytes_.size() - 1 - rep];
    }
  }

  static constexpr std::uint64_t kMapRange = 100000;
  /// Kernel times the metrics are expressed at.
  static constexpr double kNominalInCacheS = 0.8e-3;
  static constexpr double kNominalMemoryS = 0.3e-3;
  static constexpr double kNominalLookupS = 0.2e-3;

  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> sorted_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::vector<std::uint8_t> lookup_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint8_t> mixed_;
};

/// A host-time measurement and the drift window it was taken in.
struct Timed {
  double seconds = 0.0;
  std::size_t window = 0;
};

/// Splits the untraced run into windows bounded by Reference samples,
/// taken between timed calls (never inside one); a time taken in window
/// w is scaled by the speed the two samples bracketing w measured.
class Drift {
 public:
  /// Sample the reference, closing the open window.
  void mark() {
    speeds_.push_back(reference_.sample());
    last_ = Clock::now();
  }
  /// mark() once the open window is older than kWindowS. Returns whether
  /// it did: a step loop then drops its next sample, which would start
  /// on caches the kernels cooled.
  bool mark_if_due() {
    if (seconds_since(last_) < kWindowS) {
      return false;
    }
    mark();
    return true;
  }
  /// Time since `start`, tagged with the open window (needs one mark()).
  [[nodiscard]] Timed since(Clock::time_point start) const {
    return {seconds_since(start), speeds_.size() - 1};
  }
  /// `t` expressed at nominal host speed.
  [[nodiscard]] double normalized(const Timed& t) const {
    const double before = speeds_[t.window];
    const double after =
        t.window + 1 < speeds_.size() ? speeds_[t.window + 1] : before;
    return t.seconds * std::sqrt(before * after);
  }
  [[nodiscard]] const std::vector<double>& speeds() const { return speeds_; }

 private:
  static constexpr double kWindowS = 0.02;
  Reference reference_;
  std::vector<double> speeds_;
  Clock::time_point last_{};
};

/// What one pass (untraced repetition or traced replay) produced.
struct Pass {
  Timed setup;
  std::vector<Timed> work;       ///< timed slices of the top-level calls
  std::uint64_t work_steps = 0;  ///< P-RAM steps those slices served
  /// Per-step latency samples: (index of the step among the pass's
  /// memory steps, which are the same every pass; its host time).
  std::vector<std::pair<std::size_t, Timed>> latency;
  double wall_s = 0.0;           ///< traced replay wall time
  Values values;               ///< metric name -> value
  Fingerprint fingerprint;
  Tally tally;
};

/// Set-ups timed per untraced pass; the pass's set-up time is their
/// median (one set-up takes microseconds to milliseconds).
constexpr int kSetupReps = 5;

/// Runs `build` kSetupReps times, sets `setup` to the median time of a
/// run and returns the last run's result (the others are destroyed
/// outside the timed spans).
template <typename Build>
auto time_setup(Drift& drift, Timed& setup, Build build) {
  std::vector<double> seconds;
  for (int rep = 1;; ++rep) {
    const auto start = Clock::now();
    auto built = build();
    setup = drift.since(start);
    seconds.push_back(setup.seconds);
    if (rep == kSetupReps) {
      setup.seconds = median(std::move(seconds));
      return built;
    }
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up plus one top-level call, tracing off; host times are
  /// tagged with `drift`'s windows.
  virtual Pass untraced(Drift& drift) = 0;
  /// The same inputs replayed through the module calls; `tracing` off
  /// keeps the decorators in place but reads no clocks.
  virtual Pass traced(bool tracing) = 0;
};

/// Step latency of the pipeline's one-shot entry (plan + serve on its
/// prototype memory), one sample per batch except the batch right after
/// a reference sample.
void sample_latency(core::SimulationPipeline& pipeline,
                    const std::vector<pram::AccessBatch>& batches,
                    Pass& pass, Drift& drift) {
  drift.mark();
  bool cooled = true;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto start = Clock::now();
    (void)pipeline.run_batch(batches[i]);
    if (!cooled) {
      pass.latency.emplace_back(i, drift.since(start));
    }
    cooled = drift.mark_if_due();
  }
}

/// Mean simulated time of the worst 1% of `steps` steps (at least one);
/// `times` lists the steps that served accesses, the rest took 0.
double worst_percent_mean(std::vector<std::uint64_t> times,
                          std::uint64_t steps) {
  const auto k = std::min<std::size_t>(
      times.size(), std::max<std::uint64_t>(1, (steps + 99) / 100));
  std::partial_sort(times.begin(), times.begin() + k, times.end(),
                    std::greater<>());
  const auto sum = std::accumulate(times.begin(), times.begin() + k,
                                   std::uint64_t{0});
  return ratio(static_cast<double>(sum),
               static_cast<double>(std::max<std::uint64_t>(k, 1)));
}

void add_cost(Fingerprint& fp, const Span& span) {
  fp["sim_time_sum"] = span.sim_time;
  fp["sim_time_max"] = span.sim_time_max;
  fp["work_sum"] = span.work;
  fp["live_sum"] = span.live_after_stage1;
  fp["max_queue_sum"] = span.max_queue;
}

void add_sim_values(Values& v, const Span& span, std::uint64_t steps) {
  v["sim_time_per_step"] = ratio(static_cast<double>(span.sim_time),
                                 static_cast<double>(steps));
  v["sim_time_max"] = static_cast<double>(span.sim_time_max);
  v["sim_time_worst1pct"] = worst_percent_mean(span.step_times, steps);
  v["accesses_per_step"] =
      ratio(static_cast<double>(span.work), static_cast<double>(steps));
}

// ---------------------------------------------------------------------------
// programs-2dmot: bitonic sort (EREW) and list ranking (CREW) on the
// Theorem 3 machine through pram::Machine::step.

class ProgramsWorkload final : public Workload {
 public:
  explicit ProgramsWorkload(std::uint64_t seed) {
    util::Rng rng(seed);
    keys_.resize(kN);
    for (auto& key : keys_) {
      key = static_cast<pram::Word>(rng.below(1'000'000'000));
    }
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
    // A random list order: order[0] -> order[1] -> ... -> order[n-1].
    const auto order = rng.permutation(kN);
    next_.resize(kN);
    rank_.resize(kN);
    for (std::uint32_t j = 0; j < kN; ++j) {
      next_[order[j]] = order[std::min(j + 1, kN - 1)];
      rank_[order[j]] = static_cast<pram::Word>(kN - 1 - j);
    }
  }

  Pass untraced(Drift& drift) override { return run(nullptr, &drift); }

  Pass traced(bool tracing) override {
    Trace trace;
    trace.on = tracing;
    Pass pass = run(&trace, nullptr);
    Values& v = pass.values;
    v["pram.machine.self_us_per_step"] = trace.machine.self_us_per_call();
    v["pram.machine.combine_ratio"] =
        ratio(static_cast<double>(trace.scheme.accesses),
              static_cast<double>(pass.fingerprint["raw_accesses"]));
    v["majority.serve.self_us_per_step"] = trace.scheme.us_per_call();
    v["majority.max_queue"] = static_cast<double>(trace.scheme.max_queue_max);
    v["majority.live_after_stage1"] =
        ratio(static_cast<double>(trace.scheme.live_after_stage1),
              static_cast<double>(trace.scheme.calls));
    v["trace.unattributed_share"] =
        ratio(pass.wall_s - trace.setup.seconds - trace.machine.seconds,
              pass.wall_s);
    return pass;
  }

 private:
  struct Trace {
    bool on = false;
    Span setup;
    Span machine;  ///< Machine::step, memory included
    Span scheme;   ///< the 2DMOT engine below the machine
  };

  std::unique_ptr<pram::Machine> make_machine(pram::programs::ProgramSpec prog,
                                              Trace* trace) {
    const core::SchemeSpec spec{.kind = core::SchemeKind::kHpMot,
                                .n = kN,
                                .seed = kSchemeSeed,
                                .min_vars = prog.m_required};
    std::unique_ptr<pram::MemorySystem> memory = core::make_memory(spec);
    storage_factor_ = memory->storage_redundancy();
    if (trace != nullptr) {
      memory = std::make_unique<SpanMemory>(std::move(memory), trace->scheme,
                                            trace->on, &trace->machine);
    }
    const pram::MachineConfig config{.n_processors = kN,
                                     .m_shared_cells = prog.m_required,
                                     .policy = prog.min_policy};
    return std::make_unique<pram::Machine>(config, std::move(prog.program),
                                           std::move(memory));
  }

  /// One set-up and both programs: traced when `trace` is set, timed
  /// into `drift` when that is.
  Pass run(Trace* trace, Drift* drift) {
    Pass pass;
    const auto wall = Clock::now();
    const auto set_up = [&] {
      auto machines = std::make_pair(
          make_machine(pram::programs::bitonic_sort(kN), trace),
          make_machine(pram::programs::list_rank(kN), trace));
      auto& [sorter, ranker] = machines;
      for (std::uint32_t i = 0; i < kN; ++i) {
        sorter->poke_shared(VarId(i), keys_[i]);
        ranker->poke_shared(VarId(i), static_cast<pram::Word>(next_[i]));
        ranker->poke_shared(VarId(kN + i), rank_[i] == 0 ? 0 : 1);
      }
      return machines;
    };
    std::unique_ptr<pram::Machine> sorter;
    std::unique_ptr<pram::Machine> ranker;
    if (drift != nullptr) {
      std::tie(sorter, ranker) = time_setup(*drift, pass.setup, set_up);
    } else {
      const ScopedSpan span(trace->setup, trace->on);
      std::tie(sorter, ranker) = set_up();
    }

    Span cost;
    std::uint64_t steps = 0;
    // Untraced: the first memory step after a reference sample, which
    // starts on caches the kernels cooled, is no latency sample. It
    // still counts toward steps_per_s (a small, steady share of a pass's
    // time; dropping it would make the counted steps depend on where the
    // samples fell).
    bool cooled = drift != nullptr;
    if (drift != nullptr) {
      drift->mark();
    }
    for (pram::Machine* machine : {sorter.get(), ranker.get()}) {
      for (;;) {
        const auto start = Clock::now();
        pram::StepOutcome outcome;
        {
          const ScopedSpan span(trace != nullptr ? trace->machine : scratch_,
                                trace != nullptr && trace->on);
          outcome = machine->step();
        }
        const Timed sample = drift != nullptr ? drift->since(start)
                                              : Timed{seconds_since(start)};
        if (outcome.status == pram::StepStatus::kAllHalted) {
          break;
        }
        pass.work.push_back(sample);
        ++steps;
        if (outcome.status != pram::StepStatus::kOk) {
          pass.tally.check(1, 1, "machine step failed");
          break;
        }
        const std::size_t raw = machine->last_raw_batch().size();
        if (raw > 0) {
          pass.fingerprint["memory_steps"] += 1;
          pass.fingerprint["raw_accesses"] += raw;
          if (!cooled) {
            pass.latency.emplace_back(pass.fingerprint["memory_steps"] - 1,
                                      sample);
          }
          cooled = false;
          cost.add_cost(outcome.mem_cost);
        }
        if (drift != nullptr && drift->mark_if_due()) {
          cooled = true;
        }
      }
    }

    std::uint64_t wrong_sorted = 0;
    std::uint64_t wrong_ranks = 0;
    std::uint64_t digest = 1469598103934665603ULL;
    for (std::uint32_t i = 0; i < kN; ++i) {
      const pram::Word s = sorter->shared(VarId(i));
      const pram::Word r = ranker->shared(VarId(kN + i));
      wrong_sorted += s != sorted_[i] ? 1 : 0;
      wrong_ranks += r != rank_[i] ? 1 : 0;
      digest = (digest ^ static_cast<std::uint64_t>(s)) * 1099511628211ULL;
      digest = (digest ^ static_cast<std::uint64_t>(r)) * 1099511628211ULL;
    }
    pass.tally.check(kN, wrong_sorted, "bitonic_sort cells != std::sort");
    pass.tally.check(kN, wrong_ranks, "list_rank cells != list distance");

    pass.fingerprint["steps"] = steps;
    pass.fingerprint["output_digest"] = digest;
    add_cost(pass.fingerprint, cost);
    pass.work_steps = steps;
    add_sim_values(pass.values, cost, steps);
    pass.values["storage_factor"] = storage_factor_;
    pass.wall_s = seconds_since(wall);
    return pass;
  }

  std::vector<pram::Word> keys_;
  std::vector<pram::Word> sorted_;
  std::vector<std::uint32_t> next_;
  std::vector<pram::Word> rank_;
  double storage_factor_ = 1.0;
  Span scratch_;  ///< target of disabled spans
};

// ---------------------------------------------------------------------------
// adversarial-dmmpc / adversarial-hashed: the stress pipeline under faults
// (exclusive trace families + the map-adversarial phase, scrubbing on).

class AdversarialWorkload final : public Workload {
 public:
  AdversarialWorkload(core::SchemeKind kind, std::uint64_t seed,
                      bool inject_faults)
      : spec_{.kind = kind, .n = kN, .seed = kSchemeSeed} {
    if (inject_faults) {
      faults_ = faults::FaultSpec{.seed = seed,
                                  .module_kill_rate = 0.02,
                                  .onset_min = 4,
                                  .onset_max = 32};
    } else {
      faults_ = faults::FaultSpec{.seed = seed};
    }
    options_.steps_per_family = kStepsPerFamily;
    options_.seed = seed;
    options_.include_map_adversarial = true;
    options_.trials = 1;
    options_.double_buffer = true;
    options_.scrub_interval = 8;
    options_.scrub_budget = 256;
  }

  Pass untraced(Drift& drift) override {
    Pass pass;
    const auto owned = time_setup(drift, pass.setup, [&] {
      return std::make_unique<core::SimulationPipeline>(spec_);
    });
    core::SimulationPipeline& pipeline = *owned;
    if (probe_.empty()) {
      make_probe(pipeline.scheme());
    }

    const auto call = Clock::now();
    const core::TraceRunResult result =
        pipeline.run_with_faults(faults_, options_);
    pass.work.push_back(drift.since(call));
    pass.work_steps = result.steps;

    Fingerprint& fp = pass.fingerprint;
    fp["steps"] = result.steps;
    fp["sim_time_sum"] = static_cast<std::uint64_t>(result.time.sum());
    fp["sim_time_max"] = static_cast<std::uint64_t>(result.time.max());
    fp["work_sum"] = static_cast<std::uint64_t>(result.work.sum());
    fp["live_sum"] =
        static_cast<std::uint64_t>(result.live_after_stage1.sum());
    fp["max_queue_sum"] = static_cast<std::uint64_t>(result.max_queue.sum());
    add_reliability(fp, result.reliability);
    fp["scrub_passes"] = result.scrub_passes;
    add_scrub(fp, result.scrub);
    check_reads(pass.tally, result.reliability);

    Values& v = pass.values;
    v["sim_time_per_step"] = result.time.mean();
    v["sim_time_max"] = result.time.max();
    v["accesses_per_step"] = result.work.mean();
    v["storage_factor"] = result.storage_factor;

    sample_latency(pipeline, probe_, pass, drift);
    return pass;
  }

  Pass traced(bool tracing) override {
    Pass pass;
    Trace t;
    t.on = tracing;
    const auto wall = Clock::now();
    const auto& families = pram::exclusive_trace_families();
    const std::size_t stages = families.size() + 1;
    const std::uint32_t interval = options_.scrub_interval;
    pram::ReliabilityStats reliability;
    pram::ScrubResult scrub_total;
    std::uint64_t scrub_passes = 0;
    std::uint64_t steps = 0;
    std::uint64_t raw_accesses = 0;
    std::uint64_t planned_requests = 0;
    double storage_factor = 1.0;

    // One fresh stacked memory per stage, exactly as the stress pipeline
    // shards a trial: Span(faults) -> FaultableMemory -> Span(scheme) ->
    // scheme.
    for (std::size_t stage = 0; stage < stages; ++stage) {
      std::unique_ptr<pram::MemorySystem> memory;
      std::uint64_t m = 0;
      {
        const ScopedSpan span(t.setup, t.on);
        auto instance = core::make_scheme(spec_);
        m = instance.m;
        storage_factor = instance.storage_factor;
        auto scheme = std::make_unique<SpanMemory>(
            std::move(instance.memory), t.scheme, t.on, &t.faults);
        auto faulty = std::make_unique<faults::FaultableMemory>(
            std::move(scheme), faults_);
        memory = std::make_unique<SpanMemory>(std::move(faulty), t.faults,
                                              t.on);
      }
      util::Rng rng(options_.seed);
      core::PlanBuilder builder;
      std::vector<pram::Word> values;
      util::Executor executor;
      pram::ServeContext ctx({}, &executor);
      const auto serve = [&](const pram::AccessBatch& batch,
                             std::size_t served) {
        const pram::AccessPlan* plan;
        {
          const ScopedSpan span(t.plan_build, t.on);
          plan = &builder.build(batch, *memory);
        }
        raw_accesses += batch.size();
        planned_requests += plan->requests.size();
        values.resize(plan->reads.size());
        ctx.bind(values);
        (void)memory->serve(*plan, ctx);
        ++steps;
        if (interval > 0 && served % interval == 0) {
          const ScopedSpan span(t.scrub, t.on);
          scrub_total.merge(memory->scrub(options_.scrub_budget));
          ++scrub_passes;
        }
      };

      if (stage < families.size()) {
        for (std::size_t f = 0; f < stage; ++f) {
          (void)rng.split();
        }
        auto family_rng = rng.split();
        std::vector<pram::AccessBatch> trace;
        {
          const ScopedSpan span(t.trace_gen, t.on);
          trace = pram::make_trace(families[stage], kN, m,
                                   options_.steps_per_family, family_rng,
                                   options_.trace);
        }
        t.trace_steps += trace.size();
        for (std::size_t i = 0; i < trace.size(); ++i) {
          serve(trace[i], i + 1);
        }
      } else {
        for (std::size_t f = 0; f < families.size(); ++f) {
          (void)rng.split();
        }
        for (std::size_t step = 0; step < options_.steps_per_family; ++step) {
          const auto vars = adversary(*memory, rng.next(), &t);
          if (vars.empty()) {
            break;
          }
          serve(reads_of(vars), step + 1);
        }
      }
      reliability.merge(memory->reliability());
    }
    pass.wall_s = seconds_since(wall);

    Fingerprint& fp = pass.fingerprint;
    fp["steps"] = steps;
    add_cost(fp, t.faults);
    add_reliability(fp, reliability);
    fp["scrub_passes"] = scrub_passes;
    add_scrub(fp, scrub_total);
    check_reads(pass.tally, reliability);

    Values& v = pass.values;
    add_sim_values(v, t.faults, steps);
    v["storage_factor"] = storage_factor;
    v["pram.trace_gen.us_per_step"] =
        ratio(t.trace_gen.seconds * 1e6, static_cast<double>(t.trace_steps));
    const bool mapped = spec_.kind != core::SchemeKind::kHashed;
    v[mapped ? "memmap.adversary.us_per_step"
             : "hashing.adversary.us_per_step"] = t.adversary.us_per_call();
    v[mapped ? "majority.serve.self_us_per_step"
             : "hashing.serve.self_us_per_step"] = t.scheme.us_per_call();
    if (mapped) {
      v["majority.max_queue"] = static_cast<double>(t.scheme.max_queue_max);
      v["majority.live_after_stage1"] =
          ratio(static_cast<double>(t.scheme.live_after_stage1),
                static_cast<double>(steps));
    }
    v["core.plan_build.us_per_step"] = t.plan_build.us_per_call();
    v["core.plan.dedup_ratio"] =
        ratio(static_cast<double>(planned_requests),
              static_cast<double>(raw_accesses));
    v["faults.wrapper.self_us_per_step"] = t.faults.self_us_per_call();
    v["faults.scrub.us_per_pass"] = t.scrub.us_per_call();
    v["faults.scrub.repaired"] = static_cast<double>(scrub_total.repaired);
    v["faults.masked_share"] =
        ratio(static_cast<double>(reliability.faults_masked),
              static_cast<double>(reliability.reads_served));
    v["faults.uncorrectable_share"] =
        ratio(static_cast<double>(reliability.uncorrectable),
              static_cast<double>(reliability.reads_served));
    const double attributed = t.setup.seconds + t.trace_gen.seconds +
                              t.adversary.seconds + t.plan_build.seconds +
                              t.faults.seconds + t.scrub.seconds;
    v["trace.unattributed_share"] =
        ratio(pass.wall_s - attributed, pass.wall_s);
    return pass;
  }

 private:
  /// Steps per trace family and of the adversarial phase in one call.
  static constexpr std::size_t kStepsPerFamily = 96;
  /// Steps per family (and adversarial steps) of the latency probe.
  static constexpr std::size_t kLatencySteps = 128;

  struct Trace {
    bool on = false;
    Span setup;
    Span trace_gen;
    std::uint64_t trace_steps = 0;
    Span adversary;
    Span plan_build;
    Span faults;  ///< FaultableMemory, scheme included
    Span scheme;
    Span scrub;
  };

  /// The latency probe's traffic: the same families and adversary as the
  /// stress run, against the scheme's placement. Generated once, outside
  /// every timed span (the scheme's placement is fixed by its spec).
  void make_probe(const core::SchemeInstance& scheme) {
    util::Rng rng(options_.seed);
    for (const auto family : pram::exclusive_trace_families()) {
      auto family_rng = rng.split();
      auto trace =
          pram::make_trace(family, kN, scheme.m, kLatencySteps, family_rng);
      probe_.insert(probe_.end(), trace.begin(), trace.end());
    }
    for (std::size_t s = 0; s < kLatencySteps; ++s) {
      probe_.push_back(reads_of(adversary(*scheme.memory, rng.next(), nullptr)));
    }
  }

  /// The stress pipeline's adversary: map-crafted congestion when the
  /// scheme exposes a map, else the scheme's own preimage attack.
  std::vector<VarId> adversary(const pram::MemorySystem& memory,
                               std::uint64_t seed, Trace* t) {
    Span unused;
    const ScopedSpan span(t != nullptr ? t->adversary : unused,
                          t != nullptr && t->on);
    const memmap::MemoryMap* map = memory.memory_map();
    return map != nullptr ? memmap::adversarial_batch(*map, kN, seed)
                          : memory.adversarial_vars(kN, seed);
  }

  static pram::AccessBatch reads_of(const std::vector<VarId>& vars) {
    pram::AccessBatch batch;
    batch.reserve(vars.size());
    for (std::uint32_t i = 0; i < vars.size(); ++i) {
      batch.push_back({ProcId(i % kN), pram::AccessOp::kRead, vars[i], 0});
    }
    return batch;
  }

  static void add_reliability(Fingerprint& fp,
                              const pram::ReliabilityStats& r) {
    fp["reads_served"] = r.reads_served;
    fp["faults_masked"] = r.faults_masked;
    fp["units_faulty"] = r.units_faulty;
    fp["erasures_skipped"] = r.erasures_skipped;
    fp["shares_short"] = r.shares_short;
    fp["uncorrectable"] = r.uncorrectable;
    fp["wrong_reads"] = r.wrong_reads;
    fp["writes_dropped"] = r.writes_dropped;
    fp["corrupt_stores"] = r.corrupt_stores;
    fp["units_repaired"] = r.units_repaired;
    fp["units_relocated"] = r.units_relocated;
  }

  static void add_scrub(Fingerprint& fp, const pram::ScrubResult& s) {
    fp["scrub_scanned"] = s.scanned;
    fp["scrub_repaired"] = s.repaired;
    fp["scrub_relocated"] = s.relocated;
    fp["scrub_work"] = s.work;
  }

  /// Every read served is an operation; a read the oracle flags wrong or
  /// the scheme flags uncorrectable is a failed one.
  static void check_reads(Tally& tally, const pram::ReliabilityStats& r) {
    tally.check(r.reads_served, r.wrong_reads, "reads the oracle flags wrong");
    tally.check(0, r.uncorrectable, "reads flagged uncorrectable");
  }

  core::SchemeSpec spec_;
  faults::FaultSpec faults_;
  core::StressOptions options_;
  std::vector<pram::AccessBatch> probe_;
};

// ---------------------------------------------------------------------------
// zipf-durable-ida: write-heavy Zipf traffic on cached IDA with WAL +
// checkpoints, killed after the final WAL flush and recovered.

class DurableWorkload final : public Workload {
 public:
  DurableWorkload(std::uint64_t seed, const std::string& io_dir)
      : io_dir_(io_dir) {
    base_ = core::SchemeSpec{.kind = core::SchemeKind::kIda,
                             .n = kN,
                             .seed = kSchemeSeed};
    const core::SchemeInstance bare = core::make_scheme(base_);
    m_ = bare.m;
    storage_factor_ = bare.storage_factor;
    cached_ = base_;
    cached_.cache_lines = m_ / 8;

    options_.steps = kSteps;
    options_.seed = seed;
    options_.family = pram::TraceFamily::kZipfian;
    options_.trace.zipf_exponent = 1.1;
    options_.trace.write_fraction = 0.5;
    options_.durability.wal_flush_interval = 2;
    options_.durability.checkpoint_interval = 64;
    options_.kill_point = core::KillPoint::kAfterWalFlush;
    options_.kill_step = kSteps;
  }

  Pass untraced(Drift& drift) override {
    Pass pass;
    const auto owned = time_setup(drift, pass.setup, [&] {
      return std::make_unique<core::SimulationPipeline>(cached_);
    });
    core::SimulationPipeline& pipeline = *owned;
    if (probe_.empty()) {
      // The latency probe's traffic: the run's own Zipf trace.
      util::Rng rng(options_.seed);
      probe_ = pram::make_trace(options_.family, kN, m_, kSteps, rng,
                                options_.trace);
    }

    core::CrashRecoveryOptions options = options_;
    options.durability.directory = (fs::path(io_dir_) / "untraced").string();
    const auto call = Clock::now();
    const core::CrashRecoveryResult result =
        pipeline.run_crash_recovery(options);
    pass.work.push_back(drift.since(call));
    pass.work_steps = options.steps;

    Fingerprint& fp = pass.fingerprint;
    fp["files_digest"] = files_digest(options.durability.directory);
    fp["kill_step"] = result.kill_step;
    fp["durable_step"] = result.durable_step;
    fp["checkpoint_bytes"] = result.checkpoint_bytes;
    fp["wal_bytes"] = result.wal_bytes;
    add_recovery(fp, result.recovery);
    fp["bit_exact"] = result.bit_exact ? 1 : 0;
    fp["lost_committed_writes"] = result.lost_committed_writes;
    fp["vars_checked"] = result.vars_checked;
    pass.tally.check(result.vars_checked,
                     result.lost_committed_writes + (result.bit_exact ? 0 : 1),
                     "recovered state differs from the committed state");

    pass.values["recovery_ms"] = result.recovery_seconds * 1e3;
    pass.values["storage_factor"] = storage_factor_;

    sample_latency(pipeline, probe_, pass, drift);
    return pass;
  }

  Pass traced(bool tracing) override {
    Pass pass;
    Trace t;
    t.on = tracing;
    const auto wall = Clock::now();
    const std::string dir = (fs::path(io_dir_) / "traced").string();
    const std::string wal_path = (fs::path(dir) / "wal.log").string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const core::DurabilityOptions& dur = options_.durability;
    const std::uint64_t kill = options_.kill_step;

    std::vector<pram::AccessBatch> trace;
    {
      const ScopedSpan span(t.trace_gen, t.on);
      util::Rng rng(options_.seed);
      trace = pram::make_trace(options_.family, kN, m_, options_.steps, rng,
                               options_.trace);
    }

    faults::TraceChecker committed;
    std::vector<pram::Word> final_state(m_);
    std::uint64_t raw_accesses = 0;
    std::uint64_t planned_requests = 0;
    std::uint64_t committed_writes = 0;
    std::uint64_t wal_written = 0;
    std::uint64_t checkpoint_written = 0;
    std::uint64_t flushes = 0;
    cache::CacheStats cache_stats;
    {
      cache::CachedMemory* cache = nullptr;
      std::unique_ptr<pram::MemorySystem> memory;
      {
        const ScopedSpan span(t.setup, t.on);
        memory = build_stack(t.cache, t.ida, t.ida_outside, t.on, &cache);
      }
      durability::Wal wal({wal_path, dur.wal_flush_interval});
      durability::Checkpointer checkpointer({dir, dur.keep_checkpoints});
      const auto flush_with = [&](auto&& fn) {
        const std::uint64_t before = wal.file_bytes();
        fn();
        wal_written += wal.file_bytes() - before;
      };

      core::PlanBuilder builder;
      std::vector<pram::Word> values;
      util::Executor executor;
      pram::ServeContext ctx({}, &executor);
      for (std::uint64_t step = 1; step <= kill; ++step) {
        const pram::AccessPlan* plan;
        {
          const ScopedSpan span(t.plan_build, t.on);
          plan = &builder.build(trace[step - 1], *memory);
        }
        raw_accesses += trace[step - 1].size();
        planned_requests += plan->requests.size();
        values.resize(plan->reads.size());
        ctx.bind(values);
        (void)memory->serve(*plan, ctx);
        {
          const ScopedSpan span(t.wal_append, t.on);
          wal.append_step(step, plan->writes);
        }
        for (const pram::VarWrite& write : plan->writes) {
          committed.record_write(write.var, write.value);
        }
        committed_writes += plan->writes.size();
        if (step == kill) {
          break;
        }
        {
          const ScopedSpan span(t.wal_flush, t.on);
          flush_with([&] { wal.maybe_flush(step); });
        }
        flushes += step % dur.wal_flush_interval == 0 ? 1 : 0;
        if (dur.checkpoint_interval != 0 &&
            step % dur.checkpoint_interval == 0) {
          {
            const ScopedSpan span(t.wal_flush, t.on);
            flush_with([&] { wal.flush(); });
          }
          ++flushes;
          {
            const ScopedSpan span(t.checkpoint, t.on);
            checkpoint_written += checkpointer.write(*memory, step);
          }
          const ScopedSpan span(t.truncate, t.on);
          wal.truncate_through(step);
          wal_written += wal.file_bytes();
        }
      }
      {
        const ScopedSpan span(t.wal_flush, t.on);
        flush_with([&] { wal.flush(); });
      }
      ++flushes;
      pass.fingerprint["checkpoint_bytes"] = checkpointer.last_bytes();
      const ScopedSpan span(t.verify, t.on);
      for (std::uint64_t v = 0; v < m_; ++v) {
        final_state[v] = memory->peek(VarId(static_cast<std::uint32_t>(v)));
      }
      cache_stats = cache->stats();
    }  // the crash: the WAL closes without flushing a buffered tail

    const std::uint64_t wal_bytes =
        fs::exists(wal_path) ? fs::file_size(wal_path) : 0;
    // Recover into the undecorated stack: the checkpoints the decorated
    // one wrote must be the stack's own bytes.
    std::unique_ptr<pram::MemorySystem> recovered;
    {
      const ScopedSpan span(t.setup, t.on);
      recovered = core::make_memory(cached_);
    }
    durability::RecoveryOutcome outcome;
    {
      const ScopedSpan span(t.recover, t.on);
      outcome = durability::recover(*recovered, wal_path, dir,
                                    dur.scrub_budget);
    }
    std::uint64_t differing = 0;
    std::uint64_t lost = 0;
    {
      const ScopedSpan span(t.verify, t.on);
      for (std::uint64_t v = 0; v < m_; ++v) {
        const VarId var(static_cast<std::uint32_t>(v));
        differing += recovered->peek(var) != final_state[v] ? 1 : 0;
      }
      for (const auto& [var, value] : committed.ideal()) {
        const VarId id(static_cast<std::uint32_t>(var));
        lost += recovered->peek(id) != value ? 1 : 0;
      }
      pass.fingerprint["files_digest"] = files_digest(dir);
      fs::remove_all(dir);
    }
    pass.wall_s = seconds_since(wall);

    Fingerprint& fp = pass.fingerprint;
    fp["kill_step"] = kill;
    fp["durable_step"] = outcome.recovered_step;
    fp["wal_bytes"] = wal_bytes;
    add_recovery(fp, outcome);
    fp["bit_exact"] = differing == 0 ? 1 : 0;
    fp["lost_committed_writes"] = lost;
    fp["vars_checked"] = m_;
    add_cost(fp, t.cache);
    pass.tally.check(m_, lost + differing,
                     "recovered cells differ from the pre-crash state");

    Values& v = pass.values;
    const double steps = static_cast<double>(kill);
    add_sim_values(v, t.cache, kill);
    v["storage_factor"] = storage_factor_;
    v["pram.trace_gen.us_per_step"] = t.trace_gen.seconds * 1e6 / steps;
    v["core.plan_build.us_per_step"] = t.plan_build.us_per_call();
    v["core.plan.dedup_ratio"] =
        ratio(static_cast<double>(planned_requests),
              static_cast<double>(raw_accesses));
    v["ida.serve.self_us_per_step"] = t.ida.seconds * 1e6 / steps;
    v["ida.shares_per_step"] = static_cast<double>(t.ida.work) / steps;
    v["cache.serve.self_us_per_step"] = t.cache.self_us_per_call();
    v["cache.hit_rate"] = cache_stats.hit_rate();
    v["cache.writebacks_per_step"] =
        static_cast<double>(cache_stats.writebacks) / steps;
    v["cache.evictions_per_step"] =
        static_cast<double>(cache_stats.evictions) / steps;
    v["durability.wal_append.us_per_step"] = t.wal_append.us_per_call();
    v["durability.wal_flush.us_per_flush"] =
        ratio(t.wal_flush.seconds * 1e6, static_cast<double>(flushes));
    v["durability.checkpoint.ms_per_write"] = t.checkpoint.us_per_call() / 1e3;
    v["durability.checkpoint.bytes"] = static_cast<double>(checkpoint_written);
    v["durability.recover.ms"] = t.recover.seconds * 1e3;
    v["durability.recover.replayed_records"] =
        static_cast<double>(outcome.replayed_records);
    // WAL record bytes for one committed write: u64 var + i64 value.
    constexpr double kWriteBytes = 16.0;
    v["write_amp"] = ratio(static_cast<double>(wal_written + checkpoint_written),
                           kWriteBytes * static_cast<double>(committed_writes));
    const double attributed = t.setup.seconds + t.trace_gen.seconds +
                              t.plan_build.seconds + t.cache.seconds +
                              t.wal_append.seconds + t.wal_flush.seconds +
                              t.checkpoint.seconds + t.truncate.seconds +
                              t.recover.seconds + t.verify.seconds;
    v["trace.unattributed_share"] =
        ratio(pass.wall_s - attributed, pass.wall_s);
    return pass;
  }

 private:
  static constexpr std::size_t kSteps = 1024;

  struct Trace {
    bool on = false;
    Span setup;
    Span trace_gen;
    Span plan_build;
    Span cache;  ///< CachedMemory, IDA included
    Span ida;    ///< IDA serves inside cache serves
    Span ida_outside;  ///< write-backs a checkpoint's snapshot flushes
    Span wal_append;
    Span wal_flush;
    Span checkpoint;
    Span truncate;
    Span recover;
    Span verify;  ///< the benchmark's own state comparisons
  };

  /// Span(cache) -> CachedMemory -> Span(ida) -> IdaMemory: the stack
  /// make_scheme assembles for the cached spec, with decorators between.
  std::unique_ptr<pram::MemorySystem> build_stack(Span& cache_span,
                                                  Span& ida_span,
                                                  Span& ida_outside, bool on,
                                                  cache::CachedMemory** cache) {
    auto ida = std::make_unique<SpanMemory>(
        core::make_memory(base_), ida_span, on, &cache_span, &ida_outside);
    auto cached = std::make_unique<cache::CachedMemory>(
        std::move(ida), cache::CacheConfig{.capacity = cached_.cache_lines});
    *cache = cached.get();
    return std::make_unique<SpanMemory>(std::move(cached), cache_span, on);
  }

  /// FNV-1a over the names and bytes of the files in `dir` (the WAL and
  /// the retained checkpoints), in name order.
  static std::uint64_t files_digest(const std::string& dir) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::uint64_t digest = 1469598103934665603ULL;
    const auto mix = [&digest](char c) {
      digest = (digest ^ static_cast<std::uint8_t>(c)) * 1099511628211ULL;
    };
    for (const fs::path& file : files) {
      for (const char c : file.filename().string()) {
        mix(c);
      }
      std::ifstream in(file, std::ios::binary);
      for (char c; in.get(c);) {
        mix(c);
      }
    }
    return digest;
  }

  static void add_recovery(Fingerprint& fp,
                           const durability::RecoveryOutcome& r) {
    fp["checkpoint_loaded"] = r.checkpoint_loaded ? 1 : 0;
    fp["checkpoint_step"] = r.checkpoint_step;
    fp["replayed_records"] = r.replayed_records;
    fp["replayed_writes"] = r.replayed_writes;
    fp["skipped_records"] = r.skipped_records;
    fp["torn_wal_tail"] = r.torn_wal_tail ? 1 : 0;
    fp["wal_bytes_replayed"] = r.wal_bytes_replayed;
    fp["recovered_step"] = r.recovered_step;
    fp["recovery_scrub_scanned"] = r.scrub.scanned;
    fp["recovery_scrub_repaired"] = r.scrub.repaired;
  }

  std::string io_dir_;
  core::SchemeSpec base_;
  core::SchemeSpec cached_;
  std::uint64_t m_ = 0;
  double storage_factor_ = 1.0;
  core::CrashRecoveryOptions options_;
  std::vector<pram::AccessBatch> probe_;
};

// ---------------------------------------------------------------------------
// Metric catalogue, output and the run loop.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// --trace 0 metrics (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"steps_per_s", "1/s"},
    {"step_us_p50", "us"},
    {"step_us_p99", "us"},
    {"peak_rss_mb", "MB"},
    {"sim_time_per_step", "rounds-or-cycles"},
    {"sim_time_worst1pct", "rounds-or-cycles"},
    {"accesses_per_step", "accesses"},
    {"storage_factor", "x"},
};

/// --trace 1 metrics (BENCHMARK.json "per_layer"). A layer a workload's
/// path does not cross reports 0.
constexpr MetricDef kPerLayer[] = {
    {"failed_op_share", "ratio"},
    {"recovery_ms", "ms"},
    {"write_amp", "x"},
    {"sim_time_max", "rounds-or-cycles"},
    {"pram.machine.self_us_per_step", "us"},
    {"pram.machine.combine_ratio", "ratio"},
    {"pram.trace_gen.us_per_step", "us"},
    {"memmap.adversary.us_per_step", "us"},
    {"hashing.adversary.us_per_step", "us"},
    {"hashing.serve.self_us_per_step", "us"},
    {"core.plan_build.us_per_step", "us"},
    {"core.plan.dedup_ratio", "ratio"},
    {"majority.serve.self_us_per_step", "us"},
    {"majority.max_queue", "count"},
    {"majority.live_after_stage1", "count"},
    {"ida.serve.self_us_per_step", "us"},
    {"ida.shares_per_step", "count"},
    {"faults.wrapper.self_us_per_step", "us"},
    {"faults.scrub.us_per_pass", "us"},
    {"faults.scrub.repaired", "count"},
    {"faults.masked_share", "ratio"},
    {"faults.uncorrectable_share", "ratio"},
    {"cache.serve.self_us_per_step", "us"},
    {"cache.hit_rate", "ratio"},
    {"cache.writebacks_per_step", "count"},
    {"cache.evictions_per_step", "count"},
    {"durability.wal_append.us_per_step", "us"},
    {"durability.wal_flush.us_per_flush", "us"},
    {"durability.checkpoint.ms_per_write", "ms"},
    {"durability.checkpoint.bytes", "bytes"},
    {"durability.recover.ms", "ms"},
    {"durability.recover.replayed_records", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string io_dir = ".bench_build/perfbench-io";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--io-dir") {
      args.io_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const Args& args,
                                        const std::string& io_dir) {
  if (args.workload == "programs-2dmot") {
    return std::make_unique<ProgramsWorkload>(args.seed);
  }
  if (args.workload == "adversarial-dmmpc") {
    return std::make_unique<AdversarialWorkload>(core::SchemeKind::kDmmpc,
                                                 args.seed, true);
  }
  if (args.workload == "adversarial-hashed") {
    return std::make_unique<AdversarialWorkload>(core::SchemeKind::kHashed,
                                                 args.seed, false);
  }
  if (args.workload == "zipf-durable-ida") {
    return std::make_unique<DurableWorkload>(args.seed, io_dir);
  }
  return nullptr;
}

/// The process's resident-set high-water mark so far.
double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cgroup_cpu_max() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string line;
  return std::getline(in, line) ? line : "absent";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c >= 0x20 ? c : ' ';
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

/// Per-key median over passes (deterministic keys are equal anyway).
Values median_values(const std::vector<Pass>& passes) {
  std::map<std::string, std::vector<double>> columns;
  for (const Pass& pass : passes) {
    for (const auto& [key, value] : pass.values) {
      columns[key].push_back(value);
    }
  }
  Values out;
  for (auto& [key, column] : columns) {
    out[key] = median(std::move(column));
  }
  return out;
}

/// Keys of `reference` whose value `other` lacks or differs on.
std::vector<std::string> fingerprint_mismatches(const Fingerprint& reference,
                                                const Fingerprint& other) {
  std::vector<std::string> out;
  for (const auto& [key, value] : reference) {
    const auto it = other.find(key);
    if (it == other.end()) {
      out.push_back(key + " (missing)");
    } else if (it->second != value) {
      out.push_back(key + " " + std::to_string(value) + " vs " +
                    std::to_string(it->second));
    }
  }
  return out;
}

int run(const Args& args) {
  util::set_parallel_workers_override(kPinnedWorkers);
  const std::string io_dir =
      (fs::path(args.io_dir) / ("pid-" + std::to_string(::getpid())))
          .string();
  // The host-speed reference first: peak_rss_mb is the growth of the
  // resident set above what the process holds before the workload exists
  // (binary, libraries, the reference's tables).
  Drift drift;
  drift.mark();
  const double baseline_rss_mb = max_rss_mb();
  std::unique_ptr<Workload> workload = make_workload(args, io_dir);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf(
      "# manifest {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"cgroup_cpu_max\": %s, "
      "\"pinned_workers\": %zu, \"build_type\": %s, \"obs_compiled\": %s, "
      "\"commit\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      json_string(cgroup_cpu_max()).c_str(), kPinnedWorkers,
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      obs::kEnabled ? "true" : "false", json_string(args.commit).c_str());

  // Untraced passes: at least three, until --seconds are spent (one when
  // the traced replay is what this invocation measures).
  // A warm-up pass first (page faults, allocator growth, cold caches);
  // its checks count, its times do not. The reference is sampled at
  // every pass boundary.
  Tally tally;
  if (!args.trace) {
    tally.merge(workload->untraced(drift).tally);
    drift.mark();
  }
  std::vector<Pass> plain;
  const auto start = Clock::now();
  do {
    plain.push_back(workload->untraced(drift));
    drift.mark();
  } while (!args.trace &&
           (plain.size() < 3 || seconds_since(start) < args.seconds));
  const double rss_mb = max_rss_mb() - baseline_rss_mb;

  // Traced passes: one for the transparency check, or alternating
  // tracing on/off until --seconds are spent.
  std::vector<Pass> on;
  std::vector<Pass> off;
  const auto traced_start = Clock::now();
  do {
    on.push_back(workload->traced(true));
    if (args.trace) {
      off.push_back(workload->traced(false));
    }
  } while (args.trace &&
           (on.size() < 2 || seconds_since(traced_start) < args.seconds));
  fs::remove_all(io_dir);

  for (const auto* group : {&plain, &on, &off}) {
    for (const Pass& pass : *group) {
      tally.merge(pass.tally);
    }
  }
  bool transparent = true;
  for (const auto* group : {&plain, &on, &off}) {
    for (const Pass& pass : *group) {
      for (const auto& bad : fingerprint_mismatches(plain.front().fingerprint,
                                                    pass.fingerprint)) {
        std::printf("# transparency mismatch: %s\n", bad.c_str());
        transparent = false;
      }
    }
  }

  const Values untraced = median_values(plain);
  const Values traced_values = median_values(on);
  const auto value_of = [&](const std::string& name) {
    if (const auto it = untraced.find(name); it != untraced.end()) {
      return it->second;
    }
    const auto it = traced_values.find(name);
    return it == traced_values.end() ? 0.0 : it->second;
  };

  // Host times at nominal host speed (see Reference); raw ones for the log.
  // Every pass serves the same memory steps, so each step's latency is
  // its median over the passes, and the percentiles are taken over the
  // steps: a transient host stall moves one pass's sample of a step, not
  // the step's median.
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> raw_rates;
  std::map<std::size_t, std::vector<double>> step_latencies;
  std::size_t latency_samples = 0;
  for (const Pass& pass : plain) {
    setups.push_back(drift.normalized(pass.setup));
    double seconds = 0.0;
    double raw_seconds = 0.0;
    for (const Timed& slice : pass.work) {
      seconds += drift.normalized(slice);
      raw_seconds += slice.seconds;
    }
    const auto steps = static_cast<double>(pass.work_steps);
    rates.push_back(ratio(steps, seconds));
    raw_rates.push_back(ratio(steps, raw_seconds));
    for (const auto& [step, sample] : pass.latency) {
      step_latencies[step].push_back(drift.normalized(sample) * 1e6);
    }
    latency_samples += pass.latency.size();
  }
  std::vector<double> latencies;
  for (auto& [step, samples] : step_latencies) {
    latencies.push_back(median(std::move(samples)));
  }
  Values metrics;
  if (!args.trace) {
    metrics["setup_s"] = median(setups);
    metrics["steps_per_s"] = median(rates);
    metrics["step_us_p50"] = percentile(latencies, 0.50);
    metrics["step_us_p99"] = percentile(latencies, 0.99);
    metrics["peak_rss_mb"] = rss_mb;
  } else {
    std::vector<double> on_wall;
    std::vector<double> off_wall;
    for (const Pass& pass : on) {
      on_wall.push_back(pass.wall_s);
    }
    for (const Pass& pass : off) {
      off_wall.push_back(pass.wall_s);
    }
    metrics["trace.overhead_share"] =
        ratio(median(on_wall) - median(off_wall), median(off_wall));
    metrics["failed_op_share"] =
        ratio(static_cast<double>(tally.failed),
              static_cast<double>(tally.attempted));
  }
  const auto& defs = args.trace ? std::span<const MetricDef>(kPerLayer)
                                : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) {
    if (metrics.find(def.name) == metrics.end()) {
      metrics[def.name] = value_of(def.name);
    }
  }

  std::printf(
      "# passes untraced=%zu traced_on=%zu traced_off=%zu "
      "latency_samples=%zu over %zu steps setup_samples=%zu\n",
      plain.size(), on.size(), off.size(), latency_samples,
      latencies.size(), setups.size() * kSetupReps);
  const auto print_row = [](const char* label,
                            const std::vector<double>& xs) {
    std::printf("# %s:", label);
    for (const double x : xs) {
      std::printf(" %.6g", x);
    }
    std::printf("\n");
  };
  print_row("steps_per_s per pass (nominal host speed)", rates);
  print_row("steps_per_s per pass (raw)", raw_rates);
  print_row("setup_s per pass (nominal host speed)", setups);
  std::vector<double> speeds = drift.speeds();
  std::sort(speeds.begin(), speeds.end());
  print_row("host speed samples min/median/max",
            {speeds.front(), median(speeds), speeds.back()});
  for (const auto& problem : tally.problems) {
    std::printf("# check failed: %s\n", problem.c_str());
  }
  const bool correct = transparent && tally.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(def.name) + ": {\"value\": " +
           json_number(metrics[def.name]) +
           ", \"unit\": " + json_string(def.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--io-dir <dir>] "
                 "[--commit <id>]\n");
    return 2;
  }
  return perfbench::run(args);
}
