// Shared plumbing for the per-figure/table bench binaries.
//
// Every binary regenerates one table or figure of the paper: it fits the
// regression models on the simulated testbed (cached in-process), runs the
// relevant experiment, prints the series as an aligned table, and drops a
// CSV next to the binary for plotting.
#pragma once

#include <string>
#include <vector>

#include "apps/dynbench.hpp"
#include "common/table.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"

namespace rtdrm::bench {

/// The AAW task at Table 1 baseline parameters.
const task::TaskSpec& aawSpec();

/// Execution-context JSON fragment every emitted BENCH_*.json `config`
/// block carries so recorded numbers stay interpretable on any machine:
///   "threads": 4, "cpu_count": 8
/// Reads the live parallel::config(), so call it after any --threads flag
/// has been applied.
std::string runContextJson();

/// Models fitted with the full paper grids (computed once per process).
const experiments::FittedModelSet& fittedModels();

/// The Figs. 9-13 sweep configuration: max workload 2..34 scale units of
/// 500 tracks, 72-period episodes, ramp length 30.
experiments::SweepConfig paperSweepConfig();

/// Runs (and caches nothing — callers keep the result) a full two-algorithm
/// sweep of the given Fig. 8 pattern.
std::vector<experiments::SweepPoint> runPaperSweep(const std::string& pattern);

/// Prints one metric of a sweep as a table (both algorithms side by side)
/// and writes `<csv_stem>.csv`.
void printSweepMetric(const std::string& title,
                      const std::vector<experiments::SweepPoint>& points,
                      double (*metric)(const experiments::EpisodeResult&),
                      const std::string& csv_stem);

/// Figs. 2-3 helper: profiles `stage` of the AAW task at one utilization
/// level over the paper's data grid and prints, per data size, the measured
/// mean latency (the blue "y" series), the per-level quadratic fit (red
/// "Y") and the full eq.-3 surface (green "Y-"). Returns true if the fits
/// track the measurements.
bool runProfileFigure(std::size_t stage, double utilization,
                      const std::string& title, const std::string& csv_stem);

// Metric extractors for printSweepMetric.
double missedPct(const experiments::EpisodeResult& r);
double cpuPct(const experiments::EpisodeResult& r);
double netPct(const experiments::EpisodeResult& r);
double avgReplicas(const experiments::EpisodeResult& r);
double combinedMetric(const experiments::EpisodeResult& r);

}  // namespace rtdrm::bench
