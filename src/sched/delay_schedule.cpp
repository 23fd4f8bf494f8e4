#include "sched/delay_schedule.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dasched {

std::uint64_t LoadProfile::adaptive_rounds() const {
  std::uint64_t rounds = 0;
  for (const auto load : max_load_per_phase) rounds += std::max<std::uint32_t>(1, load);
  return rounds;
}

LoadProfile::Fixed LoadProfile::fixed(std::uint32_t phase_len) const {
  DASCHED_CHECK(phase_len >= 1);
  Fixed f{static_cast<std::uint64_t>(max_load_per_phase.size()) * phase_len, 0};
  for (const auto load : max_load_per_phase) {
    if (load > phase_len) ++f.overflowing_phases;
  }
  return f;
}

LoadProfile delay_load_profile(const ScheduleProblem& problem,
                               std::span<const std::uint32_t> delays) {
  DASCHED_CHECK(delays.size() == problem.size());
  // Every solo cell shifted by its algorithm's delay, merged into one surface.
  std::vector<LoadCell> shifted;
  for (std::size_t a = 0; a < problem.size(); ++a) {
    for (const auto& c : problem.solo()[a].pattern) {
      shifted.push_back({delays[a] + c.big_round, c.edge, c.load});
    }
  }
  coalesce_load_cells(shifted, problem.graph().num_directed_edges());

  LoadProfile profile;
  profile.max_load_per_phase = round_max_loads(shifted);
  for (const auto& c : shifted) profile.total_messages += c.load;
  for (const auto load : profile.max_load_per_phase) {
    profile.max_load = std::max(profile.max_load, load);
  }
  return profile;
}

}  // namespace dasched
