// dasched_lint: static schedule verification from the command line.
//
//   dasched_lint [--graph FAMILY] [--n N] [--k K] [--radius R]
//                [--workload KIND] [--seed S]
//                [--scheduler lockstep|sequential|greedy|shared|private]
//                [--corrupt none|gap|order|congestion|causality|truncate]
//                [--retries R] [--congestion-budget B] [--report OUT.json]
//
// Builds the instance (same flags as dasched_cli), derives a schedule for it,
// and runs verify::check_schedule -- no scheduled execution is needed to
// prove or refute the invariants (docs/VERIFICATION.md). Exit status:
//   0  schedule verifies clean (no error-severity findings)
//   1  error findings raised
//   2  bad flags
//
// --corrupt seeds a known-bad mutation into the schedule before verifying,
// so CI can assert the verifier actually rejects broken schedules:
//   gap         unschedule an early round, keeping a later one
//   order       repeat a big-round so rounds stop strictly increasing
//   congestion  drop all delays (lockstep) and bound the phase budget
//   causality   pull one node's rows ahead of its producers
//   truncate    truncate one sender mid-pattern, leaving consumers scheduled
//
// --retries R verifies the 2^R retry-stretched schedule with the stretch
// lemma's headroom invariant (docs/FAULTS.md). --congestion-budget B turns
// the measured per-edge load into a hard budget (0 = measure only; the
// sequential/greedy unit-capacity proof uses B = 1).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"
#include "congest/schedule_table.hpp"
#include "fault/reliable.hpp"
#include "sched/baseline.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "telemetry/run_report.hpp"
#include "util/math.hpp"
#include "verify/schedule_verifier.hpp"

namespace {

using namespace dasched;

struct Options {
  std::string graph = "gnp";
  NodeId n = 150;
  std::size_t k = 12;
  std::uint32_t radius = 4;
  std::string workload = "mixed";
  std::string scheduler = "shared";
  std::string corrupt = "none";
  std::uint64_t seed = 1;
  std::uint32_t retries = 0;
  std::uint32_t congestion_budget = 0;
  std::string report_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--graph gnp|grid|torus|path|cycle|tree|regular] [--n N]\n"
               "          [--k K] [--radius R] [--workload mixed|broadcast|bfs|routing]\n"
               "          [--scheduler lockstep|sequential|greedy|shared|private]\n"
               "          [--corrupt none|gap|order|congestion|causality|truncate]\n"
               "          [--seed S] [--retries R] [--congestion-budget B]\n"
               "          [--report OUT.json]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (const char* v = need("--graph")) {
      opt.graph = v;
    } else if (const char* v2 = need("--n")) {
      opt.n = cli::parse_u32_or_exit(v2, "--n");
    } else if (const char* v3 = need("--k")) {
      opt.k = cli::parse_u64_or_exit(v3, "--k");
    } else if (const char* v4 = need("--radius")) {
      opt.radius = cli::parse_u32_or_exit(v4, "--radius");
    } else if (const char* v5 = need("--workload")) {
      opt.workload = v5;
    } else if (const char* v6 = need("--scheduler")) {
      opt.scheduler = v6;
    } else if (const char* v7 = need("--corrupt")) {
      opt.corrupt = v7;
    } else if (const char* v8 = need("--seed")) {
      opt.seed = cli::parse_u64_or_exit(v8, "--seed");
    } else if (const char* v9 = need("--retries")) {
      opt.retries = cli::parse_u32_or_exit(v9, "--retries");
    } else if (const char* vb = need("--congestion-budget")) {
      opt.congestion_budget = cli::parse_u32_or_exit(vb, "--congestion-budget");
    } else if (const char* vr = need("--report")) {
      opt.report_path = vr;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

/// Derives the schedule named by --scheduler. Lockstep / sequential / shared
/// are constructed without any execution; greedy and private come from their
/// schedulers (whose construction runs the pipeline, but verification below
/// is still purely static). Fills verifier options that encode what the
/// schedule promises.
ScheduleTable build_schedule(const Options& opt, ScheduleProblem& problem,
                             verify::VerifyOptions* vopts) {
  const auto algos = problem.algorithm_ptrs();
  const NodeId n = problem.graph().num_nodes();
  if (opt.scheduler == "lockstep") {
    // Solo big-rounds: only valid for k == 1 workloads; congestion overruns
    // on anything contended (which is the point of scheduling).
    return ScheduleTable::lockstep(algos, n);
  }
  if (opt.scheduler == "sequential") {
    std::vector<std::uint32_t> offsets(algos.size(), 0);
    for (std::size_t a = 1; a < algos.size(); ++a) {
      offsets[a] = offsets[a - 1] + algos[a - 1]->rounds();
    }
    vopts->congestion_budget =
        opt.congestion_budget > 0 ? opt.congestion_budget : 1;
    vopts->phase_len = 1;
    return ScheduleTable::from_delays(algos, n, offsets);
  }
  if (opt.scheduler == "greedy") {
    auto out = GreedyScheduler{}.run(problem);
    vopts->congestion_budget =
        opt.congestion_budget > 0 ? opt.congestion_budget : 1;
    vopts->phase_len = 1;
    return std::move(out.schedule);
  }
  if (opt.scheduler == "shared") {
    // The same parameters SharedRandomnessScheduler::run picks, built without
    // executing anything.
    const std::uint32_t log_n = std::max(1, ceil_log2(std::max<NodeId>(2, n)));
    const std::uint32_t range = std::max<std::uint32_t>(
        1, (problem.congestion() + log_n - 1) / log_n);
    const auto delays = SharedRandomnessScheduler::draw_delays(
        opt.seed, algos.size(), range, std::max<std::uint32_t>(2, log_n));
    vopts->phase_len = log_n;
    return ScheduleTable::from_delays(algos, n, delays);
  }
  if (opt.scheduler == "private") {
    PrivateSchedulerConfig cfg;
    cfg.seed = opt.seed;
    cfg.central_clustering = true;  // skip the protocol simulations: the
    cfg.central_sharing = true;     // schedule is identical (tests verify)
    auto out = PrivateRandomnessScheduler(cfg).run(problem);
    vopts->phase_len = out.phase_len;
    vopts->delay_support = out.delay_support;
    vopts->check_delay_monotonic = true;
    return std::move(out.schedule);
  }
  std::fprintf(stderr, "unknown scheduler '%s'\n", opt.scheduler.c_str());
  std::exit(2);
}

/// Seeds the --corrupt mutation. Returns false if the instance offers no site
/// for it (treated as a flag error: the caller asked for a corruption that
/// cannot exist here).
bool corrupt_schedule(const Options& opt, const ScheduleProblem& problem,
                      ScheduleTable* table, verify::VerifyOptions* vopts) {
  if (opt.corrupt == "none") return true;
  if (opt.corrupt == "gap") {
    // Unschedule round 1 somewhere round 2 stays scheduled.
    for (std::size_t a = 0; a < table->num_algorithms(); ++a) {
      for (NodeId v = 0; v < table->num_nodes(); ++v) {
        const auto slots = table->row(a, v);
        if (slots.size() >= 2 && slots[0] != kNeverScheduled &&
            slots[1] != kNeverScheduled) {
          table->set(a, v, 1, kNeverScheduled);
          return true;
        }
      }
    }
    return false;
  }
  if (opt.corrupt == "order") {
    // Repeat a big-round: round 2 no longer strictly follows round 1.
    for (std::size_t a = 0; a < table->num_algorithms(); ++a) {
      for (NodeId v = 0; v < table->num_nodes(); ++v) {
        const auto slots = table->row(a, v);
        if (slots.size() >= 2 && slots[0] != kNeverScheduled &&
            slots[1] != kNeverScheduled) {
          table->set(a, v, 2, slots[0]);
          return true;
        }
      }
    }
    return false;
  }
  if (opt.corrupt == "congestion") {
    // Drop every delay: algorithms that share a (round, edge) pair in their
    // solo patterns now collide in the same big-round, overrunning the unit
    // capacity the lockstep schedule implies. Requires such a pair to exist.
    *table = ScheduleTable::lockstep(problem.algorithm_ptrs(),
                                     problem.graph().num_nodes());
    vopts->congestion_budget = 1;
    std::vector<LoadCell> all;
    for (const auto& solo : problem.solo()) {
      all.insert(all.end(), solo.pattern.begin(), solo.pattern.end());
    }
    coalesce_load_cells(all, problem.graph().num_directed_edges());
    // Two algorithms collide on some cell.
    return std::any_of(all.begin(), all.end(), [](const LoadCell& c) { return c.load > 1; });
  }
  if (opt.corrupt == "causality") {
    // Pull the most-delayed algorithm's rows at one node up to lockstep: its
    // consumer rounds now run at or before its neighbors' producer rounds.
    std::size_t worst_a = 0;
    std::uint32_t worst_slot = 0;
    for (std::size_t a = 0; a < table->num_algorithms(); ++a) {
      const auto slots = table->row(a, 0);
      if (!slots.empty() && slots[0] != kNeverScheduled && slots[0] > worst_slot) {
        worst_slot = slots[0];
        worst_a = a;
      }
    }
    if (worst_slot == 0) return false;  // already lockstep everywhere
    const auto slots = table->row_mut(worst_a, 0);
    for (std::uint32_t r = 0; r < slots.size(); ++r) {
      if (slots[r] != kNeverScheduled) slots[r] = r;
    }
    return true;
  }
  if (opt.corrupt == "truncate") {
    // Truncate one sender mid-pattern while its consumers stay scheduled:
    // the discard is not causally closed (Lemma 4.4).
    DASCHED_CHECK_MSG(problem.solo_done(), "corrupt_schedule needs solo patterns");
    const auto sender_of = [&](const LoadCell& c) {
      const auto [lo, hi] = problem.graph().endpoints(c.edge / 2);
      return (c.edge % 2 == 0) ? lo : hi;
    };
    for (std::size_t a = 0; a < table->num_algorithms(); ++a) {
      const auto& pattern = problem.solo()[a].pattern;
      const std::uint32_t rounds = table->rounds(a);
      // The last round before `rounds` that sends (round-`rounds` messages
      // feed on_finish), and its lowest-numbered sender.
      const auto last = std::find_if(pattern.rbegin(), pattern.rend(), [&](const LoadCell& c) {
        return c.big_round + 1 < rounds;
      });
      if (last == pattern.rend()) continue;
      NodeId sender = sender_of(*last);
      for (const auto& c : cells_in_round(pattern, last->big_round)) {
        sender = std::min(sender, sender_of(c));
      }
      const auto slots = table->row_mut(a, sender);
      for (std::uint32_t rr = last->big_round + 1; rr <= rounds; ++rr) {
        slots[rr - 1] = kNeverScheduled;
      }
      return true;
    }
    return false;
  }
  std::fprintf(stderr, "unknown corruption '%s'\n", opt.corrupt.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  const auto g = cli::make_graph(opt.graph, opt.n, opt.seed);
  auto problem = cli::make_problem(g, opt.workload, opt.k, opt.radius, opt.seed);
  problem->run_solo();

  std::printf("graph=%s n=%u m=%u   workload=%s k=%zu radius=%u seed=%llu\n",
              opt.graph.c_str(), g.num_nodes(), g.num_edges(), opt.workload.c_str(),
              opt.k, opt.radius, static_cast<unsigned long long>(opt.seed));
  std::printf("congestion=%u dilation=%u   scheduler=%s corrupt=%s\n\n",
              problem->congestion(), problem->dilation(), opt.scheduler.c_str(),
              opt.corrupt.c_str());

  verify::VerifyOptions vopts;
  vopts.congestion_budget = opt.congestion_budget;
  auto table = build_schedule(opt, *problem, &vopts);
  if (!corrupt_schedule(opt, *problem, &table, &vopts)) {
    std::fprintf(stderr, "--corrupt %s: no site for this corruption in the instance\n",
                 opt.corrupt.c_str());
    return 2;
  }
  if (opt.retries > 0) {
    const RetryPolicy policy{opt.retries};
    table = stretch_for_retries(table, policy);
    vopts.retry_budget = opt.retries;
  }

  const auto report = verify::check_schedule(*problem, table, vopts);
  report.to_table("findings (" + opt.scheduler + ")").print(std::cout);
  std::printf("errors=%llu warnings=%llu infos=%llu\n",
              static_cast<unsigned long long>(report.errors()),
              static_cast<unsigned long long>(report.warnings()),
              static_cast<unsigned long long>(report.infos()));

  int rc = report.ok() ? 0 : 1;
  if (!opt.report_path.empty()) {
    RunReport run_report;
    run_report.set_meta("tool", "dasched_lint");
    run_report.set_meta("graph", opt.graph);
    run_report.set_meta("n", std::uint64_t{g.num_nodes()});
    run_report.set_meta("workload", opt.workload);
    run_report.set_meta("k", std::uint64_t{opt.k});
    run_report.set_meta("seed", std::uint64_t{opt.seed});
    run_report.set_meta("scheduler", opt.scheduler);
    run_report.set_meta("corrupt", opt.corrupt);
    run_report.set_meta("congestion", std::uint64_t{problem->congestion()});
    run_report.set_meta("dilation", std::uint64_t{problem->dilation()});
    report.to_run_report(run_report);
    if (run_report.write_file(opt.report_path)) {
      std::printf("report written to %s\n", opt.report_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write report to %s\n", opt.report_path.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
