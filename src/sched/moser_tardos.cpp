#include "sched/moser_tardos.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.hpp"

namespace dasched {

MoserTardosOutcome MoserTardosScheduler::run(ScheduleProblem& problem) const {
  problem.run_solo();
  const std::size_t k = problem.size();

  MoserTardosOutcome out;
  out.frame = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::ceil(cfg_.frame_factor * problem.congestion() / cfg_.capacity)));

  // Flatten the solo cells, tagged with their algorithm.
  struct Msg {
    std::uint32_t alg;
    LoadCell cell;
  };
  std::vector<Msg> messages;
  for (std::size_t a = 0; a < k; ++a) {
    for (const auto& c : problem.solo()[a].pattern) {
      messages.push_back({static_cast<std::uint32_t>(a), c});
    }
  }
  const auto cell_key = [&out](const Msg& m) {
    return (static_cast<std::uint64_t>(out.delays[m.alg] + m.cell.big_round) << 32) | m.cell.edge;
  };

  Rng rng(cfg_.seed);
  out.delays.resize(k);
  for (auto& d : out.delays) d = static_cast<std::uint32_t>(rng.next_below(out.frame));

  std::unordered_map<std::uint64_t, std::uint32_t> load;
  load.reserve(messages.size() * 2);
  for (out.resample_iterations = 0; out.resample_iterations < cfg_.max_iterations;
       ++out.resample_iterations) {
    // Count loads; remember the lexicographically smallest violated cell so
    // the run is deterministic per seed.
    load.clear();
    std::uint64_t violated = ~std::uint64_t{0};
    for (const auto& m : messages) {
      const std::uint64_t cell = cell_key(m);
      if ((load[cell] += m.cell.load) > cfg_.capacity) violated = std::min(violated, cell);
    }
    if (violated == ~std::uint64_t{0}) {
      out.converged = true;
      break;
    }
    // Moser-Tardos: resample every algorithm participating in the event.
    // (Collect first, then resample -- computing cells with mutated delays
    // would misidentify participants.)
    std::vector<std::uint8_t> in_event(k, 0);
    for (const auto& m : messages) {
      if (cell_key(m) == violated) in_event[m.alg] = 1;
    }
    for (std::size_t a = 0; a < k; ++a) {
      if (in_event[a]) {
        out.delays[a] = static_cast<std::uint32_t>(rng.next_below(out.frame));
      }
    }
  }

  if (!out.converged) return out;

  // Realize the schedule: unit-length phases, unit capacity enforced.
  ExecConfig cfg;
  cfg.enforce_unit_capacity = (cfg_.capacity == 1);
  Executor executor(problem.graph(), cfg);
  const auto algos = problem.algorithm_ptrs();
  out.exec = executor.run(
      algos,
      ScheduleTable::from_delays(algos, problem.graph().num_nodes(), out.delays));
  out.schedule_rounds = out.exec.num_big_rounds;
  return out;
}

}  // namespace dasched
