// Static schedule verifier tests (src/verify/):
//   * Known-bad schedules: each seeded corruption of a valid schedule is
//     flagged with exactly its expected finding code -- gap, order,
//     causality, missing-producer, congestion-overrun, block-delay,
//     retry-headroom, dimension-mismatch.
//   * Clean sweep: every scheduler's emitted ScheduleTable verifies clean
//     across seeds, and the verifier's *static* max edge load equals the
//     executor's *measured* max edge load (deterministic algorithms on a
//     reliable network transmit exactly the solo-pattern messages).
//   * Retry stretch: the 2^R-stretched schedule of fault/reliable.hpp is
//     statically proven to have retry headroom; the unstretched one is not.
//   * VerifyingAdmission: an admitting gate leaves the execution identical
//     to the ungated run; a rejecting gate aborts before any event runs.
//   * Findings survive the RunReport JSON round-trip with exact totals.
//   * Static load accounting: sort_load_cells matches a comparison sort
//     element for element, static_loads is strictly ordered and sums to the
//     scheduled messages, and a slot near kNeverScheduled costs no
//     slot-sized memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "congest/executor.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"
#include "json_parse.hpp"
#include "sched/baseline.hpp"
#include "sched/doubling.hpp"
#include "sched/global_sharing.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/run_report.hpp"
#include "util/alloc_counter.hpp"
#include "verify/schedule_verifier.hpp"

namespace dasched {
namespace {

using verify::check_schedule;
using verify::Report;
using verify::VerifyOptions;

// --- A small fixed instance with a known-valid sequential schedule that the
// corruption tests mutate one invariant at a time. ---

struct Fixture {
  Graph g;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable valid;  // sequential offsets: always correct, unit loads
};

Fixture make_fixture() {
  Rng rng(5);
  Fixture f{make_gnp_connected(40, 0.1, rng), nullptr, {}, {}};
  f.problem = make_broadcast_workload(f.g, 4, 3, 21);
  f.problem->run_solo();
  f.algos = f.problem->algorithm_ptrs();
  std::vector<std::uint32_t> offsets(f.algos.size(), 0);
  std::uint32_t acc = 0;
  for (std::size_t a = 0; a < f.algos.size(); ++a) {
    offsets[a] = acc;
    acc += f.problem->algorithm(a).rounds();
  }
  f.valid = ScheduleTable::from_delays(f.algos, f.g.num_nodes(), offsets);
  return f;
}

/// Directed edges the solo `pattern` sends on in virtual round r, ascending.
std::vector<std::uint32_t> round_edges(std::span<const LoadCell> pattern, std::uint32_t r) {
  std::vector<std::uint32_t> edges;
  for (const auto& c : cells_in_round(pattern, r - 1)) edges.push_back(c.edge);
  return edges;
}

NodeId sender_of(const Graph& g, std::uint32_t directed) {
  const auto [lo, hi] = g.endpoints(directed / 2);
  return directed % 2 == 0 ? lo : hi;
}

NodeId receiver_of(const Graph& g, std::uint32_t directed) {
  const auto [lo, hi] = g.endpoints(directed / 2);
  return directed % 2 == 0 ? hi : lo;
}

std::vector<std::string> codes(const Report& r) { return r.error_codes(); }

std::string table_str(const Report& r) {
  std::ostringstream os;
  r.to_table("findings").print(os);
  return os.str();
}

TEST(CheckSchedule, ValidSequentialScheduleIsClean) {
  const auto f = make_fixture();
  VerifyOptions opts;
  opts.congestion_budget = 1;  // sequential: one algorithm at a time, CONGEST
  opts.phase_len = 1;          // unit bandwidth => load <= 1 per big-round
  const auto report = check_schedule(*f.problem, f.valid, opts);
  EXPECT_TRUE(report.ok()) << table_str(report);
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_TRUE(report.has(verify::kCodeMeasured));
  EXPECT_GT(report.measured.scheduled_slots, 0u);
  EXPECT_GT(report.measured.checked_messages, 0u);
  EXPECT_LE(report.measured.max_edge_load, 1u);
}

TEST(CheckSchedule, GapIsFlagged) {
  auto f = make_fixture();
  // A gap with no side effects needs a (node, round) where the node sends
  // nothing: clearing that slot cannot orphan a producer. In a broadcast only
  // the frontier sends, so any node that is silent in some mid-row round works.
  const auto& pattern = f.problem->solo()[0].pattern;
  const std::uint32_t rounds = f.problem->algorithm(0).rounds();
  std::int64_t hit_node = -1;
  std::uint32_t hit_round = 0;
  for (std::uint32_t r = 1; r < rounds && hit_node < 0; ++r) {
    std::vector<bool> sends(f.g.num_nodes(), false);
    for (const auto d : round_edges(pattern, r)) sends[sender_of(f.g, d)] = true;
    for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
      if (!sends[v]) {
        hit_node = v;
        hit_round = r;
        break;
      }
    }
  }
  ASSERT_GE(hit_node, 0) << "fixture: some node must be silent in some round";
  f.valid.set(0, static_cast<NodeId>(hit_node), hit_round, kNeverScheduled);
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeGap})
      << table_str(report);
}

TEST(CheckSchedule, OrderInversionIsFlagged) {
  auto f = make_fixture();
  // A node with no inbound round-1 message (only sources send in round 1):
  // collapsing its round-2 slot onto round 1 breaks ordering but no message
  // constraint.
  const auto& pattern = f.problem->solo()[0].pattern;
  std::vector<bool> receives_r1(f.g.num_nodes(), false);
  for (const auto d : round_edges(pattern, 1)) receives_r1[receiver_of(f.g, d)] = true;
  std::int64_t victim = -1;
  for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
    if (!receives_r1[v]) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_GE(f.problem->algorithm(0).rounds(), 2u);
  const auto v = static_cast<NodeId>(victim);
  f.valid.set(0, v, 2, f.valid.at(0, v, 1));
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeOrder})
      << table_str(report);
  // Ordering implies delay monotonicity; an inversion breaks both when the
  // Lemma 4.4 monotonicity check is armed.
  VerifyOptions mono;
  mono.check_delay_monotonic = true;
  const auto report2 = check_schedule(*f.problem, f.valid, mono);
  EXPECT_TRUE(report2.has(verify::kCodeOrder));
  EXPECT_TRUE(report2.has(verify::kCodeBlockMonotonic));
}

TEST(CheckSchedule, CausalityInversionIsFlagged) {
  auto f = make_fixture();
  // Algorithm 1 starts at offset rounds(0) >= 1. Rewriting one receiving
  // node's row to lockstep (big-round r - 1) puts every inbound consumer slot
  // at or before its producer slot while the row itself stays well-formed.
  const auto& pattern = f.problem->solo()[1].pattern;
  const std::uint32_t rounds = f.problem->algorithm(1).rounds();
  std::int64_t victim = -1;
  for (std::uint32_t r = 1; r < rounds && victim < 0; ++r) {
    const auto edges = round_edges(pattern, r);
    if (!edges.empty()) victim = receiver_of(f.g, edges.front());
  }
  ASSERT_GE(victim, 0) << "fixture: algorithm 1 must deliver at least one message";
  const auto row = f.valid.row_mut(1, static_cast<NodeId>(victim));
  for (std::uint32_t r = 1; r <= row.size(); ++r) row[r - 1] = r - 1;
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeCausality})
      << table_str(report);
}

TEST(CheckSchedule, MissingProducerIsFlagged) {
  auto f = make_fixture();
  // Truncate the whole row of a node that sends: its messages survive in the
  // consumers' schedules, so the discard set is not causally closed.
  const auto& pattern = f.problem->solo()[0].pattern;
  std::uint32_t sends_round = 0;
  std::int64_t victim = -1;
  for (std::uint32_t r = 1; r < f.problem->algorithm(0).rounds() && victim < 0; ++r) {
    const auto edges = round_edges(pattern, r);
    if (!edges.empty()) {
      victim = sender_of(f.g, edges.front());
      sends_round = r;
    }
  }
  ASSERT_GE(victim, 0);
  const auto row = f.valid.row_mut(0, static_cast<NodeId>(victim));
  for (auto& slot : row) slot = kNeverScheduled;
  const auto report = check_schedule(*f.problem, f.valid, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeMissingProducer})
      << "sender " << victim << " sends in round " << sends_round << "\n"
      << table_str(report);
  EXPECT_TRUE(report.has(verify::kCodeTruncation));  // info, not an error
  EXPECT_GE(report.measured.truncated_rows, 1u);
}

TEST(CheckSchedule, CongestionOverrunIsFlagged) {
  const auto f = make_fixture();
  // Lockstep co-schedules all four broadcasts; their frontiers collide on
  // some directed edge in some round (asserted, deterministic seeds), which
  // overruns a unit phase budget.
  bool collision = false;
  for (std::uint32_t r = 1; r <= f.problem->dilation() && !collision; ++r) {
    std::vector<std::uint8_t> used(f.g.num_directed_edges(), 0);
    for (std::size_t a = 0; a < f.problem->size(); ++a) {
      for (const auto d : round_edges(f.problem->solo()[a].pattern, r)) {
        if (used[d]) collision = true;
        used[d] = 1;
      }
    }
  }
  ASSERT_TRUE(collision) << "fixture: lockstep broadcasts must collide somewhere";
  const auto lockstep = ScheduleTable::lockstep(f.algos, f.g.num_nodes());
  VerifyOptions opts;
  opts.congestion_budget = 1;
  opts.phase_len = 1;
  const auto report = check_schedule(*f.problem, lockstep, opts);
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeCongestionOverrun})
      << table_str(report);
  EXPECT_GT(report.measured.max_edge_load, 1u);
}

TEST(CheckSchedule, BlockDelayOutsideSupportIsFlagged) {
  const auto f = make_fixture();
  // Sequential offsets imply per-row start delays 0, T_1, T_1+T_2, ...; a
  // support covering only the first two algorithms flags the rest.
  VerifyOptions opts;
  opts.delay_support = f.problem->algorithm(0).rounds() + 1;
  const auto report = check_schedule(*f.problem, f.valid, opts);
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeBlockDelay})
      << table_str(report);
  // A support covering the whole span is clean.
  VerifyOptions wide;
  std::uint32_t total = 0;
  for (std::size_t a = 0; a < f.problem->size(); ++a)
    total += f.problem->algorithm(a).rounds();
  wide.delay_support = total;
  wide.check_delay_monotonic = true;
  EXPECT_TRUE(check_schedule(*f.problem, f.valid, wide).ok());
}

TEST(CheckSchedule, RetryStretchIsProvenAndItsAbsenceFlagged) {
  const auto f = make_fixture();
  RetryPolicy policy;
  policy.max_retries = 2;
  VerifyOptions opts;
  opts.retry_budget = policy.max_retries;
  // The stretched schedule statically satisfies the 2^R headroom lemma...
  const auto stretched = stretch_for_retries(f.valid, policy);
  const auto proven = check_schedule(*f.problem, stretched, opts);
  EXPECT_TRUE(proven.ok()) << table_str(proven);
  // ...and the unstretched schedule provably does not (gap 1 < 2^2).
  const auto unproven = check_schedule(*f.problem, f.valid, opts);
  EXPECT_EQ(codes(unproven), std::vector<std::string>{verify::kCodeRetryHeadroom})
      << table_str(unproven);
}

TEST(CheckSchedule, DimensionMismatchIsTerminal) {
  const auto f = make_fixture();
  const auto wrong_n = ScheduleTable::lockstep(f.algos, f.g.num_nodes() - 1);
  const auto report = check_schedule(*f.problem, wrong_n, {});
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeDimensionMismatch});
  // Terminal: no other checks ran, not even the measured-constants info.
  EXPECT_FALSE(report.has(verify::kCodeMeasured));
  EXPECT_EQ(report.measured.scheduled_slots, 0u);
}

TEST(CheckSchedule, FindingCapKeepsTotalsExact) {
  const auto f = make_fixture();
  // A support of 1 admits only algorithm 0 (delay 0): every slot of the
  // remaining algorithms is out of block -- hundreds of findings, cap of 2.
  VerifyOptions opts;
  opts.delay_support = 1;
  opts.max_findings_per_code = 2;
  const auto report = check_schedule(*f.problem, f.valid, opts);
  EXPECT_GT(report.count(verify::kCodeBlockDelay), 2u);
  EXPECT_EQ(report.errors(), report.count(verify::kCodeBlockDelay));
  std::size_t recorded = 0;
  for (const auto& finding : report.findings())
    if (finding.code == verify::kCodeBlockDelay) ++recorded;
  EXPECT_EQ(recorded, 2u);
  EXPECT_EQ(codes(report), std::vector<std::string>{verify::kCodeBlockDelay});
}

// --- Static load accounting: check_schedule's static_loads is strictly
// increasing in (big_round, edge) and sums to the messages whose producer
// slot is scheduled (Lemma 4.4 discards the rest). ---

std::uint64_t scheduled_messages(const ScheduleProblem& problem,
                                 const ScheduleTable& schedule) {
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < problem.size(); ++a) {
    for (const auto& c : problem.solo()[a].pattern) {
      if (schedule.at(a, sender_of(problem.graph(), c.edge), c.big_round + 1) !=
          kNeverScheduled) {
        total += c.load;
      }
    }
  }
  return total;
}

std::uint64_t load_sum(const std::vector<LoadCell>& cells) {
  std::uint64_t total = 0;
  for (const auto& c : cells) total += c.load;
  return total;
}

void expect_static_loads_well_formed(const std::string& name,
                                     const ScheduleProblem& problem,
                                     const ScheduleTable& schedule,
                                     const std::vector<LoadCell>& static_loads) {
  for (std::size_t i = 1; i < static_loads.size(); ++i) {
    ASSERT_TRUE(static_loads[i - 1] < static_loads[i])
        << name << ": cell " << i << " does not strictly follow cell " << i - 1;
  }
  EXPECT_EQ(load_sum(static_loads), scheduled_messages(problem, schedule)) << name;
}

// --- sort_load_cells, the linear-time (big_round, edge) order behind the
// static loads (the order ExecProfiler::cells() has), differenced against a
// comparison sort. Loads carry the input position, so the comparison also
// pins stability among equal keys. ---

void expect_sorts_like_stable_sort(std::vector<LoadCell> cells, std::uint32_t edges) {
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].load = static_cast<std::uint32_t>(i);
  auto want = cells;
  std::stable_sort(want.begin(), want.end());
  sort_load_cells(cells, edges);
  EXPECT_EQ(cells, want);
}

TEST(SortLoadCells, EdgeCasesMatchComparisonSort) {
  expect_sorts_like_stable_sort({}, 1);
  expect_sorts_like_stable_sort({{7, 3, 0}}, 4);
  expect_sorts_like_stable_sort(std::vector<LoadCell>(50, LoadCell{5, 2, 0}), 4);
  // The highest directed edge id, and big-rounds on both sides of the 2^16
  // digit boundary up to kNeverScheduled - 1.
  expect_sorts_like_stable_sort({{kNeverScheduled - 1, 3, 0},
                                 {65536, 0, 0},
                                 {65535, 3, 0},
                                 {0, 3, 0},
                                 {kNeverScheduled - 1, 0, 0},
                                 {(1u << 16) | 1u, 1, 0},
                                 {65536, 0, 0},
                                 {0, 0, 0}},
                                4);
}

TEST(SortLoadCells, SeededRandomMultisetsMatchComparisonSort) {
  // Big-round ranges: a single round, a short schedule, one past the first
  // digit, and the full range below kNeverScheduled.
  const std::uint64_t round_ranges[] = {1, 20, 70000, kNeverScheduled};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const auto edges = static_cast<std::uint32_t>(1 + rng.next_below(64));
    const std::uint64_t rounds = round_ranges[seed % 4];
    std::vector<LoadCell> cells(rng.next_below(600));
    for (auto& c : cells) {
      c.big_round = static_cast<std::uint32_t>(rng.next_below(rounds));
      // Bias towards the highest edge id so it is always exercised.
      c.edge = rng.next_below(4) == 0 ? edges - 1
                                      : static_cast<std::uint32_t>(rng.next_below(edges));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_sorts_like_stable_sort(std::move(cells), edges);
  }
}

TEST(SortLoadCellsDeathTest, EdgeOutsideTheGraphIsRejected) {
  std::vector<LoadCell> cells = {{0, 1, 1}, {0, 4, 1}};
  EXPECT_DEATH(sort_load_cells(cells, 4), "outside the graph");
}

TEST(SortLoadCells, ProfilerSortedCellsMatchComparisonSort) {
  const auto f = make_fixture();
  ExecProfiler profiler;
  ExecConfig cfg;
  cfg.profiler = &profiler;
  (void)Executor(f.g, cfg).run(f.algos, f.valid);
  // The executor records cells in (big_round, edge) order, so the measured
  // surface needs no sort before it joins the static one.
  ASSERT_FALSE(profiler.cells().empty());
  auto want = profiler.cells();
  std::stable_sort(want.begin(), want.end());
  EXPECT_EQ(profiler.cells(), want);
}

TEST(CheckSchedule, SlotNearNeverScheduledVerifiesWithoutSlotSizedMemory) {
  auto f = make_fixture();
  const ScheduleTable clean = f.valid;
  // Move one sending slot of algorithm 0 to kNeverScheduled - 1. Whatever
  // order findings that raises, the static loads must carry the far cell
  // without a counting array sized by the slot value.
  const auto& pattern = f.problem->solo()[0].pattern;
  ASSERT_FALSE(pattern.empty());
  const std::uint32_t r = pattern.back().big_round + 1;
  const auto d = pattern.back().edge;
  const NodeId sender = sender_of(f.g, d);
  f.valid.set(0, sender, r, kNeverScheduled - 1);

  VerifyOptions opts;
  std::vector<LoadCell> clean_loads;
  const std::uint64_t clean_before = alloc_bytes();
  (void)check_schedule(*f.problem, clean, opts, &clean_loads);
  const std::uint64_t clean_bytes = alloc_bytes() - clean_before;

  std::vector<LoadCell> static_loads;
  const std::uint64_t before = alloc_bytes();
  const auto report = check_schedule(*f.problem, f.valid, opts, &static_loads);
  const std::uint64_t bytes = alloc_bytes() - before;

  EXPECT_EQ(report.measured.big_rounds, kNeverScheduled);
  ASSERT_FALSE(static_loads.empty());
  EXPECT_EQ(static_loads.back().big_round, kNeverScheduled - 1);
  expect_static_loads_well_formed("far slot", *f.problem, f.valid, static_loads);
  EXPECT_EQ(load_sum(static_loads), load_sum(clean_loads));
  // The far slot adds two 2^16-entry digit histograms (1 MiB); a slot-sized
  // counting array would need 2^32 entries.
  ASSERT_TRUE(alloc_counting_linked());
  EXPECT_LT(bytes, clean_bytes + (std::uint64_t{4} << 20));
}

// --- Clean sweep: every scheduler's table verifies clean, and the static
// load accounting agrees exactly with the executor's measurements. ---

std::unique_ptr<ScheduleProblem> sweep_problem(const Graph& g) {
  return make_mixed_workload(g, 6, 4, 17);
}

Graph sweep_graph() {
  Rng rng(3);
  return make_gnp_connected(60, 0.08, rng);
}

void expect_clean_and_static_equals_dynamic(const std::string& name,
                                            const ScheduleProblem& problem,
                                            const ScheduleTable& schedule,
                                            const ExecutionResult& exec,
                                            const VerifyOptions& opts) {
  std::vector<LoadCell> static_loads;
  const auto report = check_schedule(problem, schedule, opts, &static_loads);
  EXPECT_TRUE(report.ok()) << name << ":\n" << table_str(report);
  // Deterministic algorithms on a reliable network: the schedule transmits
  // exactly the solo-pattern messages, so static loads == measured loads.
  EXPECT_EQ(report.measured.max_edge_load, exec.max_edge_load) << name;
  EXPECT_EQ(report.measured.big_rounds, exec.num_big_rounds) << name;
  expect_static_loads_well_formed(name, problem, schedule, static_loads);
  EXPECT_EQ(load_sum(static_loads), exec.total_messages) << name;
}

TEST(CleanSweep, SequentialAndGreedyVerifyWithUnitBudget) {
  const auto g = sweep_graph();
  VerifyOptions opts;
  opts.congestion_budget = 1;
  opts.phase_len = 1;
  {
    auto problem = sweep_problem(g);
    const auto out = SequentialScheduler{}.run(*problem);
    expect_clean_and_static_equals_dynamic("sequential", *problem, out.schedule,
                                           out.exec, opts);
  }
  {
    auto problem = sweep_problem(g);
    const auto out = GreedyScheduler{}.run(*problem);
    expect_clean_and_static_equals_dynamic("greedy", *problem, out.schedule,
                                           out.exec, opts);
  }
}

TEST(CleanSweep, SharedSchedulerVerifiesOverSeeds) {
  const auto g = sweep_graph();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto problem = sweep_problem(g);
    SharedSchedulerConfig cfg;
    cfg.shared_seed = seed;
    const auto out = SharedRandomnessScheduler(cfg).run(*problem);
    VerifyOptions opts;
    opts.phase_len = out.phase_len;
    expect_clean_and_static_equals_dynamic("shared seed " + std::to_string(seed),
                                           *problem, out.schedule, out.exec, opts);
  }
}

TEST(CleanSweep, PrivateSchedulerVerifiesOverSeeds) {
  const auto g = sweep_graph();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto problem = sweep_problem(g);
    PrivateSchedulerConfig cfg;
    cfg.seed = seed;
    cfg.central_clustering = true;
    cfg.central_sharing = true;
    const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
    VerifyOptions opts;
    opts.phase_len = out.phase_len;
    opts.delay_support = out.delay_support;
    opts.check_delay_monotonic = true;
    expect_clean_and_static_equals_dynamic("private seed " + std::to_string(seed),
                                           *problem, out.schedule, out.exec, opts);
  }
}

TEST(CleanSweep, GlobalSharingAndDoublingVerify) {
  const auto g = sweep_graph();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto problem = sweep_problem(g);
    GlobalSharingConfig cfg;
    cfg.seed = seed;
    const auto out = GlobalSharingScheduler(cfg).run(*problem);
    ASSERT_TRUE(out.sharing_complete);
    VerifyOptions opts;
    opts.phase_len = out.schedule.phase_len;
    expect_clean_and_static_equals_dynamic("global seed " + std::to_string(seed),
                                           *problem, out.schedule.schedule,
                                           out.schedule.exec, opts);
  }
  {
    auto problem = sweep_problem(g);
    const auto out = run_with_doubling(*problem);
    VerifyOptions opts;
    opts.phase_len = out.final.phase_len;
    expect_clean_and_static_equals_dynamic("doubling", *problem, out.final.schedule,
                                           out.final.exec, opts);
  }
}

// --- The admission gate: a passing gate is invisible, a failing gate aborts
// before any event executes. ---

TEST(VerifyingAdmission, AdmittingGateLeavesExecutionIdentical) {
  auto f = make_fixture();
  const auto baseline = Executor(f.g, {}).run(f.algos, f.valid);

  verify::VerifyingAdmission gate(*f.problem);
  ExecConfig cfg;
  cfg.admission = &gate;
  const auto gated = Executor(f.g, cfg).run(f.algos, f.valid);

  EXPECT_TRUE(gate.last_report().ok());
  EXPECT_GT(gate.last_report().measured.scheduled_slots, 0u);
  EXPECT_EQ(gated.outputs, baseline.outputs);
  EXPECT_EQ(gated.completed, baseline.completed);
  EXPECT_EQ(gated.total_messages, baseline.total_messages);
  EXPECT_EQ(gated.causality_violations, baseline.causality_violations);
  EXPECT_EQ(gated.num_big_rounds, baseline.num_big_rounds);
  EXPECT_EQ(gated.max_load_per_big_round, baseline.max_load_per_big_round);
  EXPECT_EQ(gated.max_edge_load, baseline.max_edge_load);
  EXPECT_TRUE(f.problem->verify(gated).ok());
}

TEST(VerifyingAdmissionDeathTest, RejectingGateAbortsBeforeExecution) {
  auto f = make_fixture();
  // Invert causality for one receiving node of algorithm 1 (as above).
  const auto& pattern = f.problem->solo()[1].pattern;
  std::int64_t victim = -1;
  for (std::uint32_t r = 1; r < f.problem->algorithm(1).rounds() && victim < 0; ++r) {
    const auto edges = round_edges(pattern, r);
    if (!edges.empty()) victim = receiver_of(f.g, edges.front());
  }
  ASSERT_GE(victim, 0);
  const auto row = f.valid.row_mut(1, static_cast<NodeId>(victim));
  for (std::uint32_t r = 1; r <= row.size(); ++r) row[r - 1] = r - 1;

  verify::VerifyingAdmission gate(*f.problem);
  ExecConfig cfg;
  cfg.admission = &gate;
  EXPECT_DEATH((void)Executor(f.g, cfg).run(f.algos, f.valid),
               "rejected by the admission gate");
}

// --- Findings survive the RunReport JSON round-trip. ---

TEST(FindingsJson, RoundTripPreservesTotalsAndItems) {
  auto f = make_fixture();
  const auto lockstep = ScheduleTable::lockstep(f.algos, f.g.num_nodes());
  VerifyOptions opts;
  opts.congestion_budget = 1;
  const auto report = check_schedule(*f.problem, lockstep, opts);
  ASSERT_FALSE(report.ok());

  RunReport rr;
  rr.set_meta("scheduler", "lockstep");
  report.to_run_report(rr, "sched=lockstep");
  std::ostringstream oss;
  rr.write(oss);

  std::string err;
  const auto doc = json::parse(oss.str(), &err);
  ASSERT_NE(doc, nullptr) << err << "\n" << oss.str();
  const auto* findings = doc->get("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->get("errors")->number, static_cast<double>(report.errors()));
  EXPECT_EQ(findings->get("warnings")->number, static_cast<double>(report.warnings()));
  EXPECT_EQ(findings->get("infos")->number, static_cast<double>(report.infos()));
  const auto& items = findings->get("items")->array;
  ASSERT_EQ(items.size(), report.findings().size());
  bool saw_overrun = false;
  bool saw_measured = false;
  for (const auto& item : items) {
    const auto code = item->get("code")->string;
    if (code == verify::kCodeCongestionOverrun) {
      saw_overrun = true;
      EXPECT_EQ(item->get("severity")->string, "error");
      // The location prefix is prepended to the rendered location.
      EXPECT_EQ(item->get("location")->string.rfind("sched=lockstep", 0), 0u);
      const auto* metrics = item->get("metrics");
      ASSERT_NE(metrics, nullptr);
      EXPECT_GT(metrics->get("load")->number, metrics->get("budget")->number);
    }
    if (code == verify::kCodeMeasured) {
      saw_measured = true;
      EXPECT_EQ(item->get("severity")->string, "info");
      const auto* metrics = item->get("metrics");
      ASSERT_NE(metrics, nullptr);
      EXPECT_EQ(metrics->get("congestion")->number,
                static_cast<double>(f.problem->congestion()));
    }
  }
  EXPECT_TRUE(saw_overrun);
  EXPECT_TRUE(saw_measured);
}

}  // namespace
}  // namespace dasched
