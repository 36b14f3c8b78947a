#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/parallel.hpp"
#include "profile/exec_profiler.hpp"

namespace rtdrm::bench {

const task::TaskSpec& aawSpec() {
  static const task::TaskSpec spec = apps::makeAawTaskSpec();
  return spec;
}

std::string runContextJson() {
  const parallel::Config& c = parallel::config();
  return "\"threads\": " + std::to_string(c.threads) +
         ", \"cpu_count\": " + std::to_string(c.cpu_count);
}

const experiments::FittedModelSet& fittedModels() {
  static const experiments::FittedModelSet fitted = [] {
    std::cout << "[fitting regression models on the simulated testbed...]\n";
    return experiments::fitAllModels(aawSpec(),
                                     experiments::defaultModelFitConfig());
  }();
  return fitted;
}

experiments::SweepConfig paperSweepConfig() {
  experiments::SweepConfig cfg;
  cfg.episode.periods = 72;
  cfg.ramp.min_workload = DataSize::tracks(500.0);
  cfg.ramp.ramp_periods = 30;
  return cfg;
}

std::vector<experiments::SweepPoint> runPaperSweep(
    const std::string& pattern) {
  return experiments::runWorkloadSweep(aawSpec(), fittedModels().models,
                                       pattern, paperSweepConfig());
}

void printSweepMetric(const std::string& title,
                      const std::vector<experiments::SweepPoint>& points,
                      double (*metric)(const experiments::EpisodeResult&),
                      const std::string& csv_stem) {
  printBanner(std::cout, title);
  Table t({"max workload (x500 tracks)", "PREDICTIVE", "NON-PREDICTIVE"}, 3);
  for (const auto& p : points) {
    t.addRow({p.max_workload_units, metric(p.predictive),
              metric(p.non_predictive)});
  }
  t.print(std::cout);
  const std::string csv = csv_stem + ".csv";
  if (t.writeCsv(csv)) {
    std::cout << "(series written to " << csv << ")\n";
  }
}

bool runProfileFigure(std::size_t stage, double utilization,
                      const std::string& title, const std::string& csv_stem) {
  const task::TaskSpec& spec = aawSpec();

  // Measure the "y" series at exactly this utilization level...
  profile::ExecProfileConfig cfg;
  cfg.utilization_levels = {utilization};
  cfg.data_sizes = profile::paperDataGrid();
  cfg.samples_per_point = 6;
  const auto samples = profile::profileExecution(spec.subtasks[stage], cfg);
  const regress::LevelFit level = regress::fitLevel(samples);

  // ... and take the full eq.-3 surface from the shared model fit.
  const regress::ExecLatencyModel& surface =
      fittedModels().models.exec[stage];

  printBanner(std::cout, title);
  Table t({"data size (x300 tracks)", "measured y (ms)", "level fit Y (ms)",
           "surface fit Y- (ms)"},
          2);
  std::vector<double> means;
  std::vector<double> surface_preds;
  for (const DataSize d : cfg.data_sizes) {
    double sum = 0.0;
    int n = 0;
    for (const auto& s : samples) {
      if (s.d_hundreds == d.hundreds()) {
        sum += s.latency_ms;
        ++n;
      }
    }
    const double y = sum / n;
    const double level_fit = level.evalMs(d.hundreds());
    const double surface_fit = surface.evalMs(d.hundreds(), utilization);
    means.push_back(y);
    surface_preds.push_back(surface_fit);
    t.addRow({d.count() / 300.0, y, level_fit, surface_fit});
  }
  t.print(std::cout);
  // Judge the surface against the per-point *means* (the scatter of single
  // executions under a stochastic background load is irreducible, exactly
  // like the wiggles in the paper's measured "y" lines).
  const regress::FitDiagnostics surf_diag =
      regress::diagnose(means, surface_preds, 6);
  std::cout << "level-fit R^2 = " << level.diagnostics.r_squared
            << ", surface R^2 vs per-size means = " << surf_diag.r_squared
            << "\n";
  const std::string csv = csv_stem + ".csv";
  if (t.writeCsv(csv)) {
    std::cout << "(series written to " << csv << ")\n";
  }
  return level.diagnostics.r_squared > 0.7 && surf_diag.r_squared > 0.9;
}

double missedPct(const experiments::EpisodeResult& r) { return r.missed_pct; }
double cpuPct(const experiments::EpisodeResult& r) { return r.cpu_pct; }
double netPct(const experiments::EpisodeResult& r) { return r.net_pct; }
double avgReplicas(const experiments::EpisodeResult& r) {
  return r.avg_replicas;
}
double combinedMetric(const experiments::EpisodeResult& r) {
  return r.combined;
}

}  // namespace rtdrm::bench
