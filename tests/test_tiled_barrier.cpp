// The tiled delivery barrier (congest/executor.cpp, docs/PERFORMANCE.md):
// end-of-big-round delivery runs as a tiled counting sort -- per-worker
// histograms over statically owned consumer tiles, exact CSR offsets from a
// deterministic prefix-sum, parallel scatter with no atomics -- and must stay
// bit-identical to the one-worker run in every geometry. These tests drive
// the barrier's edge cases:
//   * big-rounds with no messages at all (scaled schedules interleave empty
//     rounds between populated ones),
//   * tile_bytes as a pure tuning knob: tiny tiles (every tile over-full,
//     many more tiles than workers) through giant tiles (one tile for the
//     whole bucket, fewer tiles than workers),
//   * a unit-capacity overflow detected inside the parallel barrier (death
//     tests on a round provably dispatched to the pool), which leaves exactly
//     one flight-recorder dump,
//   * retries on faulty runs landing in their owner's tile deterministically
//     across thread counts,
//   * zero steady-state allocations through the tiled path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "congest/executor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/reliable.hpp"
#include "graph/generators.hpp"
#include "json_parse.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dasched {
namespace {

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 7};

struct Instance {
  Graph g;
  std::unique_ptr<ScheduleProblem> problem;
  std::vector<const DistributedAlgorithm*> algos;
  ScheduleTable schedule;
};

/// The shared fixture of test_fault / test_parallel_executor: dense enough
/// that populated big-rounds carry well over kMinMessagesParallelBarrier
/// messages, so multi-thread runs exercise the tiled barrier.
Instance make_instance() {
  Rng rng(11);
  Instance in{make_gnp_connected(150, 6.0 / 150, rng), nullptr, {}, {}};
  in.problem = make_mixed_workload(in.g, 10, 4, 77);
  in.problem->run_solo();
  in.algos = in.problem->algorithm_ptrs();
  const auto delays =
      SharedRandomnessScheduler::draw_delays(77, in.algos.size(), 9, 4);
  in.schedule = ScheduleTable::from_delays(in.algos, in.g.num_nodes(), delays);
  return in;
}

void expect_identical(const ExecutionResult& a, const ExecutionResult& b) {
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.causality_violations, b.causality_violations);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.num_big_rounds, b.num_big_rounds);
  EXPECT_EQ(a.max_load_per_big_round, b.max_load_per_big_round);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
}

// --- Tile geometry derivation. ---

TEST(TileGeometry, EventsPerTileIsAPowerOfTwoMultipleOf64) {
  // Small (but legal) budgets clamp to the 64-event floor (one presence word).
  EXPECT_EQ(tile_events_for_bytes(arena_message_bytes(kDefaultMaxPayloadWords)), 64u);
  EXPECT_EQ(tile_events_for_bytes(64 * arena_message_bytes(3) - 1, 3), 64u);
  // Powers of two: never mid-word tile boundaries. Narrower widths pack more
  // events into the same budget, never fewer.
  for (std::uint32_t width = 1; width <= InlinePayload::kInlineCapacity; ++width) {
    std::uint32_t prev = ~0u;
    for (const std::size_t bytes : {std::size_t{1} << 12, std::size_t{1} << 15,
                                    std::size_t{1} << 20, std::size_t{1} << 30}) {
      const auto ev = tile_events_for_bytes(bytes, width);
      EXPECT_GE(ev, 64u);
      EXPECT_EQ(ev & (ev - 1), 0u)
          << "not a power of two at " << bytes << " width " << width;
      EXPECT_LE(std::size_t{ev} * arena_message_bytes(width),
                std::max(bytes, 64 * arena_message_bytes(width)));
    }
    const auto at_default = tile_events_for_bytes(kDefaultTileBytes, width);
    EXPECT_LE(at_default, prev == ~0u ? at_default : prev)
        << "wider messages cannot mean bigger tiles";
    prev = at_default;
  }
  // The default at the default width: half an L1's worth of arena.
  EXPECT_EQ(tile_events_for_bytes(kDefaultTileBytes), 512u);
}

// --- Degenerate budgets are rejected, not silently floored: a tile_bytes
// below one max-width arena message used to clamp to 64 events and hand back
// 64x the requested bytes. Both the free function and the executor
// constructor must refuse such geometry outright. ---

TEST(TileGeometryDeathTest, RejectsBudgetsBelowOneMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)tile_events_for_bytes(0),
               "tile_bytes smaller than one max-width arena message");
  EXPECT_DEATH((void)tile_events_for_bytes(arena_message_bytes(3) - 1, 3),
               "tile_bytes smaller than one max-width arena message");
  EXPECT_DEATH((void)tile_events_for_bytes(kDefaultTileBytes, 0),
               "tile geometry width outside the inline payload capacity");
  EXPECT_DEATH(
      (void)tile_events_for_bytes(kDefaultTileBytes,
                                  InlinePayload::kInlineCapacity + 1),
      "tile geometry width outside the inline payload capacity");
  Rng rng(3);
  const auto g = make_gnp_connected(20, 0.3, rng);
  ExecConfig cfg;
  cfg.tile_bytes = arena_message_bytes(cfg.max_payload_words) - 1;
  EXPECT_DEATH((void)Executor(g, cfg),
               "tile_bytes smaller than one max-width arena message");
}

// --- tile_bytes is pure tuning: every geometry, every thread count,
// bit-identical results. Covers over-full tiles (64-event tiles receiving
// arbitrarily many messages), tile count >> workers, and workers > tile
// count (a 1 GiB tile swallows every bucket whole). ---

TEST(TiledBarrier, TileBytesIsInvisibleInResults) {
  const auto in = make_instance();
  const auto baseline = Executor(in.g, {}).run(in.algos, in.schedule);
  EXPECT_TRUE(in.problem->verify(baseline).ok());

  // The smallest legal budget (one max-width message) clamps to 64-event
  // tiles: maximum tile count, every tile over-full.
  for (const std::size_t tile_bytes :
       {arena_message_bytes(kDefaultMaxPayloadWords), std::size_t{1} << 12,
        std::size_t{1} << 20, std::size_t{1} << 30}) {
    for (const auto threads : kThreadCounts) {
      SCOPED_TRACE("tile_bytes=" + std::to_string(tile_bytes) +
                   " threads=" + std::to_string(threads));
      ExecConfig cfg;
      cfg.tile_bytes = tile_bytes;
      cfg.num_threads = threads;
      const auto r = Executor(in.g, cfg).run(in.algos, in.schedule);
      expect_identical(baseline, r);
    }
  }
}

// --- Empty big-rounds: a retry-stretched schedule opens 3 message-free
// big-rounds after every populated one; the barrier and the gather must
// flow through them untouched at every thread count. ---

TEST(TiledBarrier, EmptyBigRoundsBetweenPopulatedOnes) {
  const auto in = make_instance();
  const auto sparse = in.schedule.scaled(4);

  const auto baseline = Executor(in.g, {}).run(in.algos, sparse);
  EXPECT_TRUE(in.problem->verify(baseline).ok());
  // Same outputs as the dense schedule: stretching is pure scheduling.
  const auto dense = Executor(in.g, {}).run(in.algos, in.schedule);
  EXPECT_EQ(baseline.outputs, dense.outputs);

  for (const auto threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecConfig cfg;
    cfg.num_threads = threads;
    // Smallest legal budget -> 64-event tiles: maximum tile count.
    cfg.tile_bytes = arena_message_bytes(kDefaultMaxPayloadWords);
    const auto r = Executor(in.g, cfg).run(in.algos, sparse);
    expect_identical(baseline, r);
  }
}

// --- A schedule with no events at all. ---

TEST(TiledBarrier, AllNeverScheduledIsANoop) {
  const auto in = make_instance();
  ScheduleTable empty(std::span<const DistributedAlgorithm* const>(in.algos),
                      in.g.num_nodes());
  for (const auto threads : kThreadCounts) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    const auto r = Executor(in.g, cfg).run(in.algos, empty);
    EXPECT_EQ(r.num_big_rounds, 0u);
    EXPECT_EQ(r.total_messages, 0u);
    EXPECT_EQ(r.max_load_per_big_round.size(), 0u);
  }
}

// --- Unit-capacity overflow inside the parallel barrier. Two chatter
// algorithms (every node floods every neighbor every round) scheduled in
// lockstep put load 2 on every directed edge of every big-round, and
// big-round 0 already carries 2 * num_directed_edges messages -- far past
// the parallel-barrier threshold -- so the overflow is found by the pool
// workers' edge folds and reported once, after the dispatch. ---

class ChatterProgram final : public NodeProgram {
 public:
  void on_round(VirtualContext& ctx) override {
    for (const auto& h : ctx.neighbors()) ctx.send(h.neighbor, {ctx.vround()});
  }
};

class ChatterAlgorithm final : public DistributedAlgorithm {
 public:
  ChatterAlgorithm() : DistributedAlgorithm(1) {}
  std::string name() const override { return "chatter"; }
  std::uint32_t rounds() const override { return 4; }
  std::unique_ptr<NodeProgram> make_program(NodeId) const override {
    return std::make_unique<ChatterProgram>();
  }
};

TEST(TiledBarrierDeathTest, UnitCapacityOverflowDiesOnTheParallelPath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(11);
  const auto g = make_gnp_connected(150, 6.0 / 150, rng);
  // Big-round 0 must engage the tiled barrier: every node sends to every
  // neighbor for both algorithms at once.
  ASSERT_GE(2u * g.num_directed_edges(), 256u);

  const ChatterAlgorithm a0, a1;
  const DistributedAlgorithm* algos[] = {&a0, &a1};
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());

  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  cfg.num_threads = 4;
  EXPECT_DEATH((void)Executor(g, cfg).run(algos, lockstep),
               "CONGEST bandwidth violated");
}

TEST(TiledBarrierDeathTest, UnitCapacityOverflowWritesExactlyOneRecorderDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(11);
  const auto g = make_gnp_connected(150, 6.0 / 150, rng);
  ASSERT_GE(2u * g.num_directed_edges(), 256u);

  const ChatterAlgorithm a0, a1;
  const DistributedAlgorithm* algos[] = {&a0, &a1};
  const auto lockstep = ScheduleTable::lockstep(algos, g.num_nodes());

  const std::string path = testing::TempDir() + "dasched_unit_capacity_dump.json";
  std::remove(path.c_str());
  FlightRecorderConfig fcfg;
  fcfg.dump_path = path;
  fcfg.capacity = 1u << 12;
  FlightRecorder recorder(fcfg);
  ExecConfig cfg;
  cfg.enforce_unit_capacity = true;
  cfg.num_threads = 4;
  cfg.recorder = &recorder;
  EXPECT_DEATH((void)Executor(g, cfg).run(algos, lockstep),
               "CONGEST bandwidth violated");

  // The child wrote one whole post-mortem before aborting: one document, the
  // overflow as its reason, and every round-0 delivery in the barrier ring
  // but no round-0 summary (the dump precedes it).
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  std::size_t documents = 0;
  for (auto at = text.find("\"schema\""); at != std::string::npos;
       at = text.find("\"schema\"", at + 1)) {
    ++documents;
  }
  EXPECT_EQ(documents, 1u);
  const auto doc = json::parse(text);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->get("reason")->string, "unit_capacity_overflow");
  EXPECT_EQ(doc->get("workers")->number, 4.0);
  const auto& barrier = *doc->get("rings")->array.back();
  EXPECT_EQ(barrier.get("ring")->string, "barrier");
  EXPECT_EQ(barrier.get("recorded")->number, 2.0 * g.num_directed_edges());
  for (const auto& entry : barrier.get("entries")->array) {
    EXPECT_EQ(entry->get("kind")->string, "deliver");
  }
  std::remove(path.c_str());
}

// --- Faulty runs: retransmissions re-enter the barrier rounds later and must
// land in the seg of whichever worker owns the consumer's tile -- including
// tiles owned by a different worker than the one that staged the original
// send. Tiny tiles maximize cross-tile traffic; results must match the
// serial run bit for bit, and bounded retries must recover correctness. ---

TEST(TiledBarrier, RetriesCrossTileBoundariesDeterministically) {
  const auto in = make_instance();
  const FaultInjector injector(in.g, [&] {
    FaultPlan plan;
    plan.seed = 4242;
    plan.drop_rate = 0.12;
    return plan;
  }());
  const RetryPolicy retry{3};
  const auto stretched = stretch_for_retries(in.schedule, retry);

  auto run_with = [&](std::uint32_t threads, std::size_t tile_bytes) {
    ExecConfig cfg;
    cfg.num_threads = threads;
    cfg.tile_bytes = tile_bytes;
    cfg.faults = &injector;
    cfg.retry = retry;
    return Executor(in.g, cfg).run(in.algos, stretched);
  };

  const auto baseline = run_with(0, kDefaultTileBytes);
  EXPECT_GT(baseline.faults.retransmissions, 0u);
  EXPECT_EQ(baseline.causality_violations, 0u)
      << "the retry-stretched schedule absorbs every retransmission";
  for (const auto threads : kThreadCounts) {
    for (const std::size_t tile_bytes :
         {arena_message_bytes(kDefaultMaxPayloadWords), std::size_t{1} << 30}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " tile_bytes=" + std::to_string(tile_bytes));
      const auto r = run_with(threads, tile_bytes);
      expect_identical(baseline, r);
      EXPECT_EQ(baseline.faults.retransmissions, r.faults.retransmissions);
      EXPECT_EQ(baseline.faults.delivered, r.faults.delivered);
      EXPECT_EQ(baseline.faults.lost, r.faults.lost);
    }
  }
}

// --- Zero steady-state allocations through the tiled parallel barrier: the
// second run of a warmed executor must not allocate, tiny tiles included. ---

TEST(TiledBarrier, ZeroSteadyStateAllocationsThroughTheTiledPath) {
  const auto in = make_instance();
  for (const std::size_t tile_bytes :
       {arena_message_bytes(kDefaultMaxPayloadWords), kDefaultTileBytes}) {
    SCOPED_TRACE("tile_bytes=" + std::to_string(tile_bytes));
    ExecConfig cfg;
    cfg.num_threads = 4;
    cfg.tile_bytes = tile_bytes;
    Executor executor(in.g, cfg);
    const auto first = executor.run(in.algos, in.schedule);
    const auto second = executor.run(in.algos, in.schedule);
    expect_identical(first, second);
    EXPECT_EQ(second.hot_path_allocs, 0u)
        << "warmed tiled runs must stay off the allocator";
  }
}

}  // namespace
}  // namespace dasched
