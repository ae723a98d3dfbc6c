// Shared helpers for the experiment binaries: experiment banners keyed to
// DESIGN.md's index, scaling-fit reporting against the paper's predicted
// shapes, and a Reporter that mirrors every printed table/fit into a
// machine-readable BENCH_<id>.json so the perf trajectory can be tracked
// across PRs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.hpp"
#include "util/fit.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace pramsim::bench {

/// Version stamp written into every BENCH_*.json. Bump whenever driver
/// semantics change in a way that makes trajectories non-comparable
/// point-for-point with earlier PRs.
///
/// v2: PR 3 made families within a stress trial independent machines
///     (state/telemetry no longer carry across families), so any
///     BENCH_faults.json recorded before that is not point-comparable.
/// v3: dynamic-onset faults + background scrubbing (BENCH_recovery.json
///     introduced; static sweeps with scrubbing disabled and onset 0
///     remain identical to v2).
/// v4: every file carries a "manifest" object (scheme/seed/workers/
///     region width/backend/obs) identifying the run configuration;
///     numeric series are unchanged from v3.
inline constexpr int kBenchSchemaVersion = 4;

/// Run-identity stamp mirrored into every BENCH_*.json: enough context
/// to tell whether two trajectory points were measured under the same
/// configuration. Fields an experiment doesn't vary keep their defaults
/// (empty string / 0) — "unspecified", not "unknown".
struct RunManifest {
  std::string scheme;        ///< scheme spec summary, e.g. "majority r=3"
  std::uint64_t seed = 0;    ///< base RNG seed of the experiment
  std::size_t workers =
      util::parallel_workers(1u << 20);  ///< realized worker ceiling
  std::uint32_t region_width = 0;        ///< region granularity (0 = n/a)
  std::string backend;       ///< serve backend, e.g. "serial"
  bool obs_enabled = false;  ///< observability attached during timing?

  [[nodiscard]] std::string to_json() const {
    return std::string("{\"scheme\": \"") + util::json_escape(scheme) +
           "\", \"seed\": " + std::to_string(seed) +
           ", \"workers\": " + std::to_string(workers) +
           ", \"region_width\": " + std::to_string(region_width) +
           ", \"backend\": \"" + util::json_escape(backend) +
           "\", \"obs_enabled\": " + (obs_enabled ? "true" : "false") +
           ", \"obs_compiled\": " + (obs::kEnabled ? "true" : "false") +
           "}";
  }
};

inline void banner(const char* exp_id, const char* paper_artifact,
                   const char* claim) {
  std::printf("\n############################################################\n");
  std::printf("# experiment %s — %s\n", exp_id, paper_artifact);
  std::printf("# paper claim: %s\n", claim);
  std::printf("############################################################\n\n");
}

/// Shape-fit summary for one measured series.
struct FitReport {
  util::Table table{{"shape", "R^2", "slope", "intercept"}};
  std::string series_name;
  std::string predicted_shape;
  std::string best_shape;
  double predicted_r2 = 0.0;
  double best_r2 = 0.0;
  bool reproduced = false;
};

[[nodiscard]] inline FitReport make_fit_report(
    const std::string& series_name, std::span<const double> n,
    std::span<const double> y, const std::string& predicted_shape,
    double tie_margin = 0.02) {
  FitReport report;
  report.series_name = series_name;
  report.predicted_shape = predicted_shape;
  const auto fits = util::fit_shapes(n, y);
  report.table.set_title("fit of '" + series_name + "' (paper predicts " +
                         predicted_shape + ")");
  for (const auto& fit : fits) {
    report.table.add_row({fit.shape_name, fit.fit.r_squared, fit.fit.slope,
                          fit.fit.intercept});
    if (fit.shape_name == predicted_shape) {
      report.predicted_r2 = fit.fit.r_squared;
    }
  }
  report.best_shape = fits.front().shape_name;
  report.best_r2 = fits.front().fit.r_squared;
  report.reproduced = report.predicted_r2 >= report.best_r2 - tie_margin;
  return report;
}

inline void print_fit(const FitReport& report) {
  report.table.print(4);
  std::printf("-> predicted shape '%s': R^2 = %.4f, best = '%s' (%.4f): %s\n\n",
              report.predicted_shape.c_str(), report.predicted_r2,
              report.best_shape.c_str(), report.best_r2,
              report.reproduced ? "REPRODUCED (within tie margin)"
                                : "shape differs — see EXPERIMENTS.md "
                                  "discussion");
}

/// Print the R^2 of every candidate shape for a measured series and call
/// out whether the paper-predicted shape wins (or statistically ties the
/// winner, within `tie_margin` of R^2).
inline void report_fit(const std::string& series_name,
                       std::span<const double> n, std::span<const double> y,
                       const std::string& predicted_shape,
                       double tie_margin = 0.02) {
  print_fit(make_fit_report(series_name, n, y, predicted_shape, tie_margin));
}

/// Experiment reporter: prints the banner and every table/fit exactly as
/// before, and mirrors them into BENCH_<id>.json (written at destruction,
/// in the working directory) for cross-PR tracking.
class Reporter {
 public:
  Reporter(std::string exp_id, std::string paper_artifact, std::string claim)
      : exp_id_(std::move(exp_id)),
        artifact_(std::move(paper_artifact)),
        claim_(std::move(claim)) {
    banner(exp_id_.c_str(), artifact_.c_str(), claim_.c_str());
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Stamp the run manifest mirrored into the JSON. Optional: a reporter
  /// that never calls this still writes a default manifest (host worker
  /// ceiling + obs compile flag), so every v4 file has one.
  void set_manifest(RunManifest manifest) {
    manifest_ = std::move(manifest);
  }

  /// Print a result table and record it for the JSON mirror.
  void table(const util::Table& t, int precision) {
    t.print(precision);
    table_json_.push_back(t.to_json());
  }

  /// Fit a series, print the verdict, and record it for the JSON mirror.
  void fit(const std::string& series_name, std::span<const double> n,
           std::span<const double> y, const std::string& predicted_shape,
           double tie_margin = 0.02) {
    const auto report =
        make_fit_report(series_name, n, y, predicted_shape, tie_margin);
    print_fit(report);
    fit_json_.push_back(
        "{\"series\": \"" + util::json_escape(report.series_name) +
        "\", \"predicted\": \"" + util::json_escape(report.predicted_shape) +
        "\", \"predicted_r2\": " + std::to_string(report.predicted_r2) +
        ", \"best\": \"" + util::json_escape(report.best_shape) +
        "\", \"best_r2\": " + std::to_string(report.best_r2) +
        ", \"reproduced\": " + (report.reproduced ? "true" : "false") +
        ", \"table\": " + report.table.to_json() + "}");
  }

  ~Reporter() {
    const std::string path = "BENCH_" + exp_id_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return;
    }
    std::string out = "{\"experiment\": \"" + util::json_escape(exp_id_) +
                      "\", \"schema_version\": " +
                      std::to_string(kBenchSchemaVersion) +
                      ", \"artifact\": \"" + util::json_escape(artifact_) +
                      "\", \"manifest\": " + manifest_.to_json() +
                      ", \"tables\": [";
    for (std::size_t i = 0; i < table_json_.size(); ++i) {
      out += (i ? ", " : "") + table_json_[i];
    }
    out += "], \"fits\": [";
    for (std::size_t i = 0; i < fit_json_.size(); ++i) {
      out += (i ? ", " : "") + fit_json_[i];
    }
    out += "]}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("(machine-readable results mirrored to %s)\n", path.c_str());
  }

 private:
  std::string exp_id_;
  std::string artifact_;
  std::string claim_;
  RunManifest manifest_;
  std::vector<std::string> table_json_;
  std::vector<std::string> fit_json_;
};

}  // namespace pramsim::bench
