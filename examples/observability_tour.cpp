// Observability tour: watch the engine narrate its own run.
//
// One stress run on the paper's Theorem 2 machine (HP-DMMPC) with a
// dynamic fault onset and background scrubbing, observed end to end by
// the obs subsystem: the metrics registry counts every vote and scrub
// pass, the phase timers break the wall time into plan-build / serve /
// schedule / value / scrub / oracle, and the deterministic event journal
// records each fault onset, degraded vote, relocation, and repair with
// its step stamp.
//
// Expected output: the counters/gauges table, the phase breakdown, the
// journal tail (onsets at the configured step, then degraded votes, then
// relocations as scrubbing re-homes copies), a Prometheus exposition
// excerpt, and an OBS_snapshot.json written next to the binary — the
// file tools/check_obs_schema.py validates in CI.
//
// Build & run:  ./build/example_observability_tour
#include <cstdio>
#include <string>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "obs/export.hpp"
#include "util/parallel.hpp"

using namespace pramsim;

int main() {
  std::printf("=== observability tour: HP-DMMPC under dynamic faults ===\n\n");
  if (!obs::kEnabled) {
    std::printf("(compiled with -DPRAMSIM_OBS=OFF — hooks are no-ops; the\n"
                " snapshot below is structurally valid but empty)\n\n");
  }

  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc, .n = 16,
                              .seed = 3};
  core::SimulationPipeline pipeline(spec);

  // 20% of the modules die mid-run; scrub every other step rebuilds the
  // lost copies onto healthy modules.
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.2,
                                     .onset_min = 4,
                                     .onset_max = 8};
  core::StressOptions options{.steps_per_family = 8, .seed = 9,
                              .trials = 2};
  options.scrub_interval = 2;
  options.scrub_budget = 128;
  options.obs = obs::SinkOptions{};

  auto run = pipeline.run_with_faults(fault_spec, options);

  std::printf("run: %llu steps served, %llu reads, %llu faults masked, "
              "%llu wrong reads\n\n",
              static_cast<unsigned long long>(run.steps),
              static_cast<unsigned long long>(run.reliability.reads_served),
              static_cast<unsigned long long>(run.reliability.faults_masked),
              static_cast<unsigned long long>(run.reliability.wrong_reads));

  // Human-readable dump: counters, phase breakdown, journal tail.
  for (const auto& table : obs::to_tables(run.obs, /*journal_tail=*/12)) {
    table.print(2);
  }

  // Prometheus exposition excerpt (first lines).
  const std::string prom = obs::to_prometheus(run.obs);
  std::printf("== prometheus exposition (excerpt) ==\n");
  std::size_t shown = 0;
  for (std::size_t pos = 0; pos < prom.size() && shown < 8;) {
    const std::size_t eol = prom.find('\n', pos);
    std::printf("%s\n", prom.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++shown;
  }
  std::printf("...\n\n");

  // The schema-versioned JSON snapshot, manifest embedded — the form
  // tools/check_obs_schema.py validates.
  obs::SnapshotOptions snapshot;
  snapshot.manifest_json =
      std::string("{\"scheme\": \"HP-DMMPC\", \"n\": 16, \"seed\": 3, ") +
      "\"workers\": " +
      std::to_string(util::parallel_workers(1u << 20)) +
      ", \"backend\": \"serial\", \"obs_enabled\": true}";
  const std::string json = obs::to_json(run.obs, snapshot);
  const char* path = "OBS_snapshot.json";
  std::FILE* f = std::fopen(path, "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("snapshot written to %s (%zu bytes) — validate with\n"
                "  python3 tools/check_obs_schema.py %s\n",
                path, json.size() + 1, path);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path);
    return 1;
  }
  return 0;
}
