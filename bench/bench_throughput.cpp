// Serve-path throughput: steps/sec for every SchemeKind through
// MemorySystem::serve over prebuilt arena-backed AccessPlans, as the
// median of five budgeted passes per row with their min..max. Written to
// BENCH_throughput.json via bench::Reporter — this file seeds the repo's
// perf trajectory, so keep the configurations stable across PRs.
//
// A second table measures the pipeline end to end: run_stress wall time
// with the double-buffered, within-trial-sharded driver, and the cost of
// attached observability as the median of alternating plain/observed
// pairs with its per-pair spread.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/plan_builder.hpp"
#include "core/schemes.hpp"
#include "pram/serve_context.hpp"
#include "pram/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace pramsim;

/// Raw batches for the serve loop: alternating permutation / uniform
/// steps (distinct-heavy and collision-heavy traffic).
std::vector<pram::AccessBatch> make_bench_trace(std::uint32_t n,
                                                std::uint64_t m,
                                                std::size_t steps) {
  util::Rng rng(17);
  std::vector<pram::AccessBatch> trace;
  trace.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto family = (i % 2 == 0) ? pram::TraceFamily::kPermutation
                                     : pram::TraceFamily::kUniform;
    trace.push_back(pram::make_batch(family, n, m, rng));
  }
  return trace;
}

/// Timed passes per serve row; the row's budget is split evenly among
/// them, so one pass hit by host noise moves only the spread.
constexpr int kServePasses = 5;

/// Serve-path throughput through MemorySystem::serve over prebuilt plans:
/// steps/s of each of kServePasses passes of budget_sec / kServePasses.
util::SampleSet measure_serve(const core::SchemeSpec& spec,
                              const std::vector<pram::AccessBatch>& trace,
                              double budget_sec) {
  auto memory = core::make_memory(spec);
  std::vector<std::unique_ptr<core::PlanBuilder>> builders;
  std::vector<const pram::AccessPlan*> plans;
  builders.reserve(trace.size());
  plans.reserve(trace.size());
  for (const auto& batch : trace) {
    builders.push_back(std::make_unique<core::PlanBuilder>());
    plans.push_back(&builders.back()->build(batch, *memory));
  }

  pram::ServeContext ctx;
  std::vector<pram::Word> values;
  for (const auto* plan : plans) {  // warm-up pass
    values.resize(plan->reads.size());
    ctx.bind(values);
    memory->serve(*plan, ctx);
  }
  util::SampleSet rates;
  for (int pass = 0; pass < kServePasses; ++pass) {
    std::size_t steps = 0;
    const util::Stopwatch watch;
    double elapsed = 0.0;
    do {
      for (const auto* plan : plans) {
        values.resize(plan->reads.size());
        ctx.bind(values);
        memory->serve(*plan, ctx);
      }
      steps += plans.size();
      elapsed = watch.elapsed_seconds();
    } while (elapsed < budget_sec / kServePasses);
    rates.add(static_cast<double>(steps) / elapsed);
  }
  return rates;
}

}  // namespace

int main() {
  bench::Reporter reporter(
      "throughput", "serve-path throughput over prebuilt plans",
      "records steps/s of every SchemeKind's serial serve loop and the "
      "stress pipeline's cost of attached observability; no speedup "
      "threshold is claimed");

  {
    util::Table table(
        {"scheme", "n", "m", "steps/s", "steps/s min", "steps/s max"});
    table.set_title("per-step serve throughput, prebuilt plans "
                    "(permutation+uniform traffic; steps/s = median of " +
                    std::to_string(kServePasses) +
                    " budgeted passes, min/max = their spread)");
    struct Config {
      core::SchemeKind kind;
      std::uint32_t n;
      double budget;
    };
    std::vector<Config> configs;
    for (const auto kind : core::all_scheme_kinds()) {
      configs.push_back({kind, 256, 0.2});
    }
    // Production-ish scale for a replicated and a hashed scheme.
    configs.push_back({core::SchemeKind::kDmmpc, 4096, 0.5});
    configs.push_back({core::SchemeKind::kHashed, 4096, 0.5});

    for (const auto& config : configs) {
      const core::SchemeSpec spec{.kind = config.kind, .n = config.n,
                                  .seed = 3};
      const auto instance = core::make_scheme(spec);
      const std::size_t steps = config.n >= 4096 ? 8 : 16;
      const auto trace = make_bench_trace(config.n, instance.m, steps);
      const util::SampleSet rates = measure_serve(spec, trace, config.budget);
      table.add_row({core::to_string(config.kind),
                     static_cast<std::int64_t>(config.n),
                     static_cast<std::int64_t>(instance.m), rates.median(),
                     rates.percentile(0.0), rates.max()});
      std::fflush(stdout);
    }
    reporter.table(table, 1);
  }

  {
    // Observability cost as alternating pairs: each pair times one
    // stress pass with observability detached (the default) and one
    // with every step sampled, swapping which goes first from pair to
    // pair so host drift hits both sides. One pass is ~100 steps, so a
    // single pair is mostly host noise: the table reports the median
    // per-pair overhead and the min..max spread across pairs, which is
    // the noise floor any obs-overhead claim has to clear.
    constexpr int kPairs = 7;
    util::Table table({"scheme", "n", "trials", "stress steps", "wall ms",
                       "steps/s", "steps/s obs", "obs ovh %", "ovh % min",
                       "ovh % max"});
    table.set_title("pipeline stress throughput (double-buffered, "
                    "within-trial family shards; 'obs' = metrics+journal+"
                    "phase timers attached, sample interval 1; walls and "
                    "'obs ovh %' are medians over " +
                    std::to_string(kPairs) +
                    " alternating plain/obs pairs, min/max = per-pair "
                    "overhead spread)");
    for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                            core::SchemeKind::kHashed}) {
      core::SimulationPipeline pipeline({.kind = kind, .n = 256, .seed = 3});
      core::StressOptions plain{.steps_per_family = 16, .seed = 7,
                                .trials = 2};
      core::StressOptions observed = plain;
      observed.obs = obs::SinkOptions{};
      // Warm-up pass; every pass serves the same deterministic steps.
      const std::uint64_t steps = pipeline.run_stress(plain).steps;
      auto timed = [&](const core::StressOptions& options) {
        const util::Stopwatch watch;
        (void)pipeline.run_stress(options);
        return watch.elapsed_seconds();
      };
      util::SampleSet plain_walls;
      util::SampleSet obs_walls;
      util::SampleSet overheads;
      for (int pair = 0; pair < kPairs; ++pair) {
        double plain_wall = 0.0;
        double obs_wall = 0.0;
        if (pair % 2 == 0) {
          plain_wall = timed(plain);
          obs_wall = timed(observed);
        } else {
          obs_wall = timed(observed);
          plain_wall = timed(plain);
        }
        plain_walls.add(plain_wall);
        obs_walls.add(obs_wall);
        overheads.add((obs_wall / plain_wall - 1.0) * 100.0);
      }
      const double plain_wall = plain_walls.median();
      const double obs_wall = obs_walls.median();
      table.add_row({core::to_string(kind), std::int64_t{256},
                     static_cast<std::int64_t>(plain.trials),
                     static_cast<std::int64_t>(steps), plain_wall * 1e3,
                     static_cast<double>(steps) / plain_wall,
                     static_cast<double>(steps) / obs_wall,
                     overheads.median(), overheads.percentile(0.0),
                     overheads.max()});
      std::fflush(stdout);
    }
    reporter.table(table, 1);
  }

  bench::RunManifest manifest;
  manifest.scheme = "kind sweep (see table rows)";
  manifest.seed = 3;
  manifest.backend = "serial";
  manifest.obs_enabled = false;  // timed loops run detached by default
  reporter.set_manifest(manifest);

  return 0;
}
