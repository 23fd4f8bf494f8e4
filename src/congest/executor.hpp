// The scheduled-execution engine.
//
// Everything in this repo -- solo runs, the Theorem 1.1 shared-randomness
// scheduler, and the Theorem 4.1 private-randomness scheduler -- is a special
// case of one operation: run k black-box algorithms where each (algorithm,
// node, virtual round) triple is assigned a *big-round* (the paper's phase) in
// which that node executes that round and transmits its messages. The engine:
//
//  * drives every NodeProgram forward with the exact inbox semantics of a solo
//    execution (messages sent in virtual round r are consumed by the
//    receiver's round r+1),
//  * records per-(big-round, directed-edge) message loads, from which the two
//    schedule-length measures are derived: the adaptive measure
//    sum_t max(1, max_e load(e,t)) and the fixed-phase measure (phases of P
//    physical rounds, overflowing phases counted),
//  * detects causality violations: a message whose consumer was scheduled to
//    run before the message was transmitted. A correct schedule (what the
//    paper's w.h.p. analysis guarantees) has zero violations; the counter
//    exists so experiments can *measure* failures instead of crashing.
//
// De-duplication from Lemma 4.4 ("if a copy of a message has been sent
// before, this message gets dropped ... a node creating a round-j message
// takes into account all messages received about rounds up to j-1") is
// realized structurally: the engine keeps ONE canonical execution per
// (algorithm, node), and the schedule passed in by the private-randomness
// scheduler is the earliest big-round over all clustering layers -- the fixed
// point of the paper's first-copy-wins rule.
//
// Parallel execution: within one big-round every scheduled event is
// independent (each (alg, node) executes at most one event per big-round and
// messages are staged until the round barrier), so the event bucket is
// statically sharded across `ExecConfig::num_threads` pool workers with
// per-shard staging buffers. There is one delivery barrier: a per-worker body
// in which each worker folds the loads of its directed-edge range and parks
// the messages bound for its consumer tiles, reading the shards in shard
// order; one worker is the same body run once. The result is bit-identical for
// every thread count, tile size and observer; see docs/PERFORMANCE.md for the
// argument and the measured scaling curve.
//
// Memory discipline: the message path is allocation-free in steady state.
// Messages travel as compact SoA lanes sized to the *run width* W (see run()):
// a packed u32 header lane (sender + length, congest/message.hpp) and a
// W-strided u64 payload lane, so a message costs 4 + 8*W bytes in staging and
// in the CSR inbox arena instead of a fixed worst-case record. Inboxes are
// not per-(alg, node, tag) vectors but flat arenas: at the delivery barrier
// each message is bound to the big-round in which its consumer executes, and
// at the start of that big-round all of its messages are counting-sorted once
// into contiguous lane slices per event -- each event's inbox is an InboxView
// over those slices. All buffers (worker staging lanes, pending-round
// buckets, the round arena lanes) live in an ExecScratch owned by the
// Executor and are recycled across big-rounds and across runs, so a warmed-up
// run performs zero heap allocations per message;
// ExecutionResult::hot_path_allocs measures this (see docs/PERFORMANCE.md,
// "Memory layout & allocation budget").
//
// Fault injection: an optional `ExecConfig::faults` hook models an unreliable
// network (message drops/duplicates, link outages, crash-stop nodes). All
// fault decisions happen inside the delivery barrier and are pure functions
// of the plan seed, the message identity and the attempt, and their
// order-dependent consequences are taken in shard-merged order, so faulty
// runs stay bit-identical across thread counts; with the hook null the
// executor is byte-for-byte the reliable engine above. `ExecConfig::retry`
// layers reliable delivery on top: dropped transmissions are re-sent with
// exponential slot backoff (bounded attempts), consuming bandwidth in the
// big-round of each retry; run the schedule through stretch_for_retries so
// the retry slots exist. See docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/admission.hpp"
#include "congest/message.hpp"
#include "congest/program.hpp"
#include "congest/schedule_table.hpp"
#include "fault/fault_injector.hpp"
#include "fault/reliable.hpp"
#include "graph/graph.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace dasched {

/// Default byte budget per delivery tile (see ExecConfig::tile_bytes): half
/// an L1 data cache's worth of arena, which keeps one tile's scatter
/// resident while its owner streams messages into it.
inline constexpr std::size_t kDefaultTileBytes = 32 * 1024;

/// Events per delivery tile for a byte budget at a payload width: the largest
/// power of two with tile_events * arena_message_bytes(width) <= tile_bytes,
/// clamped to >= 64 so one inbox-presence bitset word (64 events) never
/// straddles two tiles -- the word-disjointness is what lets tile owners
/// write the bitset without atomics. Narrower run widths therefore get more
/// events per tile out of the same byte budget. Benches report this value
/// next to their --tile-bytes flag.
///
/// Contract: tile_bytes must hold at least one max-width message at the given
/// width -- a budget below arena_message_bytes(width) used to be silently
/// floored to 64 events (i.e. 64x the requested bytes), which hid
/// misconfigured geometry; it is now a hard CHECK (tests/test_tiled_barrier.cpp
/// pins the death).
constexpr std::uint32_t tile_events_for_bytes(std::size_t tile_bytes,
                                              std::uint32_t width = kDefaultMaxPayloadWords) {
  DASCHED_CHECK_MSG(width >= 1 && width <= InlinePayload::kInlineCapacity,
                    "tile geometry width outside the inline payload capacity");
  DASCHED_CHECK_MSG(tile_bytes >= arena_message_bytes(width),
                    "tile_bytes smaller than one max-width arena message");
  const std::size_t budget = tile_bytes / arena_message_bytes(width);
  std::uint32_t events = 64;
  while (std::size_t{events} * 2 <= budget) events *= 2;
  return events;
}

struct ExecConfig {
  std::uint32_t max_payload_words = kDefaultMaxPayloadWords;
  /// Tile geometry of the delivery barrier. Each big-round bucket's
  /// (alg, node) consumer space is split into tiles of
  /// tile_events_for_bytes(tile_bytes) consecutive events; contiguous tile
  /// ranges are statically owned by pool workers, which histogram and
  /// scatter only tiles they own (no atomics) and execute the same tiles'
  /// events the next round (temporal locality across the barrier). Purely a
  /// cache tuning knob: every value produces bit-identical ExecutionResults
  /// (docs/PERFORMANCE.md, "Memory layout & allocation budget").
  std::size_t tile_bytes = kDefaultTileBytes;
  /// Enforce the raw CONGEST bound of one message per directed edge per
  /// big-round -- used by the solo Simulator where big-round == round.
  bool enforce_unit_capacity = false;
  /// Worker threads for big-round execution. 0 and 1 both mean one worker on
  /// the calling thread; N >= 2 spawns a pool of N workers (N - 1 threads plus
  /// the calling thread) that is reused across big-rounds and runs. Every
  /// value produces bit-identical ExecutionResults (asserted by
  /// tests/test_parallel_executor.cpp); pick hardware concurrency for
  /// throughput (docs/PERFORMANCE.md).
  std::uint32_t num_threads = 0;
  /// Optional telemetry sink (borrowed; must outlive the Executor). Null --
  /// the default -- disables all instrumentation: the message hot path then
  /// performs no telemetry calls and no telemetry allocations. When set, the
  /// executor emits (see docs/OBSERVABILITY.md for the full name list):
  ///   spans      executor/run, executor/big_round (one per big-round, with
  ///              events/messages/max_load args)
  ///   counters   executor.events_executed, executor.messages_sent,
  ///              executor.messages_delivered, executor.causality_violations,
  ///              executor.big_rounds, executor.parallel.rounds_parallel,
  ///              executor.parallel.rounds_serial
  ///   gauges     executor.max_edge_load, executor.parallel.num_threads
  ///   histograms executor.edge_load (per touched directed edge per
  ///              big-round), executor.max_load_per_big_round
  TelemetrySink* telemetry = nullptr;
  /// Optional fault injector (borrowed; must outlive the run). Null -- the
  /// default -- models the paper's perfectly reliable network; results are
  /// then bit-identical to a build without the fault subsystem, and no
  /// fault.* telemetry is emitted. When set, every transmission attempt
  /// consults the injector inside the delivery barrier (drops, duplicates,
  /// link outages) and crash-stopped nodes skip their scheduled events; the run
  /// additionally fills ExecutionResult::faults and emits fault.* counters
  /// (docs/FAULTS.md lists them).
  const FaultInjector* faults = nullptr;
  /// Reliable-delivery retransmission policy; consulted only when `faults`
  /// is set. With max_retries > 0, run the schedule through
  /// stretch_for_retries(schedule, retry) so retry slots exist between
  /// original big-rounds -- then every retransmission lands strictly before
  /// the consumers that depend on it (fault/reliable.hpp).
  RetryPolicy retry;
  /// Optional pre-execution admission gate (borrowed; must outlive the run).
  /// Null -- the default -- skips the gate entirely and the engine is
  /// byte-for-byte the ungated executor. When set, `admit()` is consulted
  /// once before any event executes; a rejection is a hard contract failure
  /// (the executor aborts). Pass a verify::VerifyingAdmission to statically
  /// prove the paper's schedule invariants at admission time
  /// (docs/VERIFICATION.md).
  const ScheduleAdmission* admission = nullptr;
  /// Optional congestion profiler (borrowed; must outlive the run). Null --
  /// the default -- leaves the engine byte-for-byte unprofiled. When set, the
  /// executor sizes the profiler once per run (begin_run, with retry
  /// headroom), bumps per-worker shard counters during event execution, and
  /// after each delivery barrier records every touched (big-round, directed
  /// edge) load cell in ascending edge order, read from the workers' edge
  /// ranges -- so profiled runs keep the parallel barrier, stay bit-identical
  /// across thread counts and are allocation-free in steady state. The
  /// profiler only observes; ExecutionResults are unchanged
  /// (tests/test_profiler.cpp pins both). The solo Simulator reads its
  /// communication patterns off this surface.
  ExecProfiler* profiler = nullptr;
  /// Optional flight recorder (borrowed; must outlive the run). Null -- the
  /// default -- records nothing. When set, each worker logs its executions
  /// and crash skips to its own bounded ring, worker 0 logs the per-message
  /// fates to the barrier ring in shard-merged order, and each round ends
  /// with a summary entry there; the executor dumps a
  /// post-mortem JSON document (FlightRecorderConfig::dump_path) when the
  /// admission gate rejects a schedule, a unit-capacity round overflows, or
  /// crash-stop faults fired during the run. See docs/OBSERVABILITY.md.
  FlightRecorder* recorder = nullptr;
};

struct ExecutionResult {
  /// outputs[alg][node]; meaningful only where completed[alg][node] is true.
  std::vector<std::vector<std::vector<std::uint64_t>>> outputs;  // perf-ok: filled once per run
  /// completed[alg][node]: node executed all rounds() rounds plus on_finish.
  std::vector<std::vector<std::uint8_t>> completed;  // perf-ok: filled once per run

  std::uint64_t causality_violations = 0;
  std::uint64_t total_messages = 0;
  std::uint32_t num_big_rounds = 0;
  /// max over directed edges of the message load, per big-round.
  std::vector<std::uint32_t> max_load_per_big_round;  // perf-ok: one entry per big-round
  std::uint32_t max_edge_load = 0;

  /// Heap allocations observed during the big-round loop (event execution
  /// plus delivery barriers) -- the steady-state message path. Non-zero only
  /// in binaries that link util/alloc_hooks.cpp (bench_e13_message_hotpath,
  /// test_hotpath); 0 everywhere else. With telemetry off and allocation-free
  /// programs this is 0 from the second run of an Executor onwards (the first
  /// run warms the arenas up to their high-water marks).
  std::uint64_t hot_path_allocs = 0;

  /// Fault accounting; all-zero unless ExecConfig::faults was set.
  struct FaultStats {
    std::uint64_t attempts = 0;        // transmissions incl. retransmissions
    std::uint64_t delivered = 0;       // copies appended to an inbox
    std::uint64_t dropped_random = 0;  // lost to Bernoulli(drop_rate)
    std::uint64_t dropped_outage = 0;  // lost to a link outage
    std::uint64_t dropped_crash = 0;   // receiver already crashed (never acks)
    std::uint64_t duplicated = 0;      // extra copies delivered (no reliable layer)
    std::uint64_t duplicates_suppressed = 0;  // deduped by the reliable layer
    std::uint64_t retransmissions = 0;
    std::uint64_t lost = 0;            // budget exhausted or sender crashed
    std::uint64_t skipped_events = 0;  // events not executed: crash-stop
    std::uint64_t dropped() const {
      return dropped_random + dropped_outage + dropped_crash;
    }
    friend bool operator==(const FaultStats&, const FaultStats&) = default;
  };
  FaultStats faults;

  /// Realized schedule length if every big-round lasts exactly as many
  /// physical rounds as its busiest edge needs (>= 1).
  std::uint64_t adaptive_physical_rounds() const;

  struct FixedPhase {
    std::uint64_t physical_rounds;
    std::uint64_t overflowing_phases;  // phases whose max load exceeded the length
  };
  /// Realized length with fixed phases of `phase_len` physical rounds (the
  /// paper's w.h.p. regime); overflows indicate the schedule failed.
  FixedPhase fixed_phase(std::uint32_t phase_len) const;

  bool all_completed() const;
};

/// Canonical fingerprint of an ExecutionResult: FNV-1a (util/fingerprint.hpp)
/// over the per-(alg, node) outputs (size then words), the completion flags,
/// and the per-big-round max loads -- exactly the fields the bit-identity
/// contract pins across thread counts, tile sizes, and observer attachments.
/// The golden constants in tests/test_fault.cpp and tests/test_profiler.cpp
/// are digests of this function; the service layer folds it into its own
/// end-to-end fingerprint (src/service/daemon.hpp).
std::uint64_t result_fingerprint(const ExecutionResult& result);

/// Reusable execution buffers (worker staging, pending-round delivery
/// buckets, the CSR inbox arena); owned by the Executor so repeated runs
/// reuse warmed-up capacity. Defined in executor.cpp.
struct ExecScratch;

class Executor {
 public:
  /// Aborts if cfg.max_payload_words exceeds the compile-time inline payload
  /// capacity (InlinePayload::kInlineCapacity): there is deliberately no heap
  /// spill path on the message hot path -- raise
  /// -DDASCHED_PAYLOAD_INLINE_WORDS instead. Also aborts if cfg.tile_bytes
  /// cannot hold even one max-width arena message (see tile_events_for_bytes).
  explicit Executor(const Graph& g, ExecConfig cfg = {});
  ~Executor();

  /// Runs all algorithms under the given schedule. Algorithms are borrowed
  /// (must outlive the call). The schedule is validated (gap-free prefix,
  /// strictly increasing big-rounds per (alg, node)) before execution.
  ///
  /// The *run width* -- the payload-word stride of every staging and delivery
  /// lane -- is derived here, once per run: the maximum declared
  /// StaticFootprint::max_payload_words when every admitted algorithm
  /// declares one, else cfg.max_payload_words (always clamped to
  /// [1, cfg.max_payload_words]). Execution then dispatches to a
  /// width-specialized instantiation of the engine, so every per-message copy
  /// is a fixed-size move the compiler vectorizes. Results are bit-identical
  /// across widths >= what the algorithms actually send.
  ExecutionResult run(std::span<const DistributedAlgorithm* const> algorithms,
                      const ScheduleTable& schedule);

 private:
  /// The width-specialized engine body; W is the run width in payload words
  /// (1..InlinePayload::kInlineCapacity). Instantiated in executor.cpp for
  /// every supported width by run()'s dispatch.
  template <std::uint32_t W>
  ExecutionResult run_impl(std::span<const DistributedAlgorithm* const> algorithms,
                           const ScheduleTable& schedule);

  const Graph& graph_;
  ExecConfig cfg_;
  /// Lazily created on the first parallel run; reused across runs.
  std::unique_ptr<ThreadPool> pool_;
  /// Arena-backed scratch recycled across big-rounds and runs.
  std::unique_ptr<ExecScratch> scratch_;
};

}  // namespace dasched
