#include "experiments/multitask.hpp"

#include <string>

#include "common/assert.hpp"

namespace rtdrm::experiments {

std::vector<TaskSetMember> phaseShiftedCopies(
    const task::TaskSpec& spec, const workload::Pattern& pattern,
    const core::PredictiveModels& models, std::size_t count,
    std::uint64_t shift) {
  std::vector<TaskSetMember> tasks;
  tasks.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    // Distinct names for the ledger and traces.
    tasks.push_back(TaskSetMember{spec, &pattern, &models, t * shift});
    tasks.back().spec.name = spec.name + "#" + std::to_string(t + 1);
  }
  return tasks;
}

MultiTaskResult runMultiTaskEpisode(const task::TaskSpec& spec,
                                    const workload::Pattern& pattern,
                                    const core::PredictiveModels& models,
                                    AlgorithmKind algorithm,
                                    const MultiTaskConfig& config) {
  RTDRM_ASSERT(config.task_count >= 1);
  return runTaskSetEpisode(
      phaseShiftedCopies(spec, pattern, models, config.task_count,
                         config.phase_shift),
      algorithm, config.episode,
      spec.period * static_cast<double>(config.episode.periods));
}

MultiTaskResult runTaskSetEpisode(const std::vector<TaskSetMember>& members,
                                  AlgorithmKind algorithm,
                                  const EpisodeConfig& config,
                                  SimDuration horizon) {
  RTDRM_ASSERT(!members.empty());
  Episode episode(config, algorithm, members);
  episode.run(horizon);

  MultiTaskResult out;
  out.tasks.reserve(members.size());
  for (std::size_t t = 0; t < members.size(); ++t) {
    EpisodeResult r = episode.result(t);
    out.missed_pct += r.missed_pct;
    out.cpu_pct += r.cpu_pct;
    out.net_pct += r.net_pct;
    out.avg_replicas += r.avg_replicas;
    out.combined += r.combined;
    out.tasks.push_back(std::move(r));
  }
  const auto n = static_cast<double>(members.size());
  out.missed_pct /= n;
  out.cpu_pct /= n;
  out.net_pct /= n;
  out.avg_replicas /= n;
  out.combined /= n;
  return out;
}

}  // namespace rtdrm::experiments
