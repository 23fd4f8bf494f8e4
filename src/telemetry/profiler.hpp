// Opt-in congestion profiler for the scheduled-execution engine: where does
// congestion actually land, edge by edge and big-round by big-round?
//
// The paper's entire bound (Theorem 1.1: O(congestion + dilation log n)
// rounds) is a statement about per-(directed-edge, big-round) loads, but the
// executor's ExecutionResult only keeps aggregates (max per big-round, global
// max). ExecProfiler records the full load surface so experiments can see
// *which* edges are hot and *when* -- and so the divergence monitor
// (verify/divergence.hpp) can join the measured surface against the static
// loads the schedule verifier predicted. That comparison is the sensor the
// ROADMAP's adaptive-scheduling loop steers by.
//
// Engineering contract (mirrors the PR 5 hot-path discipline):
//   * Sizing happens once per run in begin_run(): fixed-size SoA accumulators
//     per directed edge and per big-round (with retry headroom, so
//     fault-induced horizon extensions never resize mid-loop), a sparse
//     (big_round, edge, load) cell list reserved to its high-water mark, and
//     fixed 64-bucket log histograms. From the second profiled run of an
//     Executor onwards, the big-round loop performs zero heap allocations
//     with the profiler attached (tests/test_profiler.cpp measures this).
//   * Per-worker shards: event/inbox counters are bumped by the executing
//     shard (no sharing, no atomics) and merged in shard order after each
//     delivery barrier. Merged values are sums over a round, so every
//     snapshot is bit-identical across thread counts -- same guarantee as
//     ExecutionResult itself.
//   * Cells arrive after each barrier from the workers' directed-edge ranges
//     in worker order, i.e. in ascending edge order, so cells() is
//     (big_round, edge)-sorted and identical for every thread count; the
//     barrier itself stays parallel with the profiler attached.
//   * The profiler only observes: attaching it never changes execution
//     results (pinned by the golden-fingerprint tests), and a null
//     ExecConfig::profiler leaves the engine byte-for-byte unprofiled.
//
// Rendering: top-N hot-edge / hot-round Tables (with an ASCII heatmap bar),
// a JSON `profile` section for RunReport (schema dasched.profile.v1, see
// docs/OBSERVABILITY.md), and profile.* telemetry via emit().
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "congest/pattern.hpp"  // LoadCell
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dasched {

class Table;

class ExecProfiler {
 public:
  /// Per-worker hot-path counters; padded out so adjacent shards do not
  /// false-share a cache line while workers bump them concurrently.
  struct alignas(64) WorkerShard {
    std::uint64_t events = 0;  // events executed by this shard this round
    std::uint64_t inbox = 0;   // messages consumed from inboxes this round
  };

  /// Aggregated view of one directed edge over the whole run.
  struct EdgeSummary {
    std::uint32_t edge = 0;
    std::uint64_t total_load = 0;   // messages over all big-rounds
    std::uint32_t max_load = 0;     // busiest single big-round
    std::uint32_t peak_round = 0;   // first big-round achieving max_load
  };

  // --- Executor-facing hooks (congest/executor.cpp). ---

  /// Sizes every accumulator for a run of `num_big_rounds` scheduled rounds
  /// plus `round_headroom` extra rounds retransmissions may extend into, and
  /// resets the previous run's data (capacities are retained, so repeated
  /// runs stay allocation-free once warm). Called by the executor before the
  /// steady-state window opens.
  /// `tile_events` is the executor's delivery-tile width (events per tile,
  /// from ExecConfig::tile_bytes), recorded into the profile JSON so per-round
  /// inbox distributions can be read against the barrier geometry that
  /// produced them; 0 means "not reported".
  void begin_run(std::uint32_t num_directed_edges, std::uint32_t num_big_rounds,
                 std::uint32_t num_workers, std::uint32_t round_headroom,
                 std::uint32_t tile_events = 0);

  /// After each delivery barrier: one touched (edge, big-round) cell, in
  /// ascending (big_round, edge) order.
  void record_cell(std::uint32_t big_round, std::uint32_t edge, std::uint32_t load) {
    cells_.push_back({big_round, edge, load});
    edge_total_[edge] += load;
    if (load > edge_max_[edge]) {
      edge_max_[edge] = load;
      edge_peak_round_[edge] = big_round;
    }
    hist_cell_load_.add(load);
  }

  /// Hot path, worker shards: bumped during event execution with no
  /// synchronization (each worker owns its shard), merged by end_round().
  WorkerShard* shards() { return shards_.data(); }

  /// Barrier epilogue, on the calling thread: folds the worker shards (in shard order -- the
  /// same deterministic order the staging buffers merge in) into this round's
  /// SoA slots and resets them for the next round.
  void end_round(std::uint32_t big_round, std::uint64_t messages,
                 std::uint32_t max_load, std::uint64_t retries);

  /// Closes the run (total attempts recorded for the summary).
  void end_run();

  // --- Post-run queries (allocation is fine here). ---

  std::uint64_t runs() const { return runs_; }
  /// Big-rounds the last run actually used (>= scheduled when retries
  /// extended the horizon).
  std::uint32_t rounds_used() const { return rounds_used_; }
  std::uint32_t num_directed_edges() const { return num_edges_; }
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_events() const { return total_events_; }
  std::uint64_t total_retries() const { return total_retries_; }
  std::uint32_t max_edge_load() const { return run_max_load_; }

  std::uint64_t round_messages(std::uint32_t t) const { return round_messages_[t]; }
  std::uint32_t round_max_load(std::uint32_t t) const { return round_max_load_[t]; }
  std::uint64_t round_events(std::uint32_t t) const { return round_events_[t]; }
  std::uint64_t round_inbox(std::uint32_t t) const { return round_inbox_[t]; }
  std::uint64_t round_retries(std::uint32_t t) const { return round_retries_[t]; }
  /// Per-big-round max loads as one span (rounds_used() entries) -- the
  /// profiled counterpart of ExecutionResult::max_load_per_big_round, e.g.
  /// for fault::analyze_slack.
  std::span<const std::uint32_t> round_max_loads() const {
    return {round_max_load_.data(), rounds_used_};
  }

  /// Every touched cell of the last run: a load surface (congest/pattern.hpp),
  /// strictly increasing in (big_round, edge) with every load >= 1. The
  /// verifier's static loads and the solo patterns (the Simulator copies this
  /// after a lockstep run) have the same type. Identical across thread counts.
  const std::vector<LoadCell>& cells() const { return cells_; }

  /// The n busiest directed edges by total load (ties broken by edge id).
  std::vector<EdgeSummary> top_edges(std::size_t n) const;
  /// The n single hottest cells by load (ties: earlier round, lower edge).
  std::vector<LoadCell> top_cells(std::size_t n) const;

  const LogHistogram& cell_load_histogram() const { return hist_cell_load_; }
  const LogHistogram& round_max_histogram() const { return hist_round_max_; }

  // --- Rendering. ---

  /// Top-N hot edges: edge id, an optional caller-supplied label (the caller
  /// owns graph knowledge; telemetry deliberately does not), totals, and the
  /// peak round.
  Table hot_edges_table(std::size_t top_n,
                        const std::function<std::string(std::uint32_t)>&
                            edge_label = {}) const;
  /// Top-N hottest big-rounds with an ASCII heatmap bar scaled to the run's
  /// max load.
  Table hot_rounds_table(std::size_t top_n) const;

  /// The RunReport `profile` section (schema dasched.profile.v1).
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// profile.* counters/gauges/histogram samples (docs/OBSERVABILITY.md).
  void emit(TelemetrySink* sink) const;

 private:
  // All vectors below are fixed-size SoA accumulators or high-water-mark
  // arenas: sized in begin_run(), never grown inside the big-round loop.
  std::uint32_t num_edges_ = 0;
  std::uint32_t num_workers_ = 0;
  std::uint32_t rounds_capacity_ = 0;
  std::uint32_t tile_events_ = 0;  // delivery-tile width of the profiled run
  std::uint32_t rounds_used_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t total_inbox_ = 0;
  std::uint64_t total_retries_ = 0;
  std::uint32_t run_max_load_ = 0;
  std::size_t cells_high_water_ = 0;

  std::vector<WorkerShard> shards_;

  // Per-directed-edge SoA (size num_edges_).
  std::vector<std::uint64_t> edge_total_;
  std::vector<std::uint32_t> edge_max_;
  std::vector<std::uint32_t> edge_peak_round_;

  // Per-big-round SoA (size rounds_capacity_).
  std::vector<std::uint64_t> round_messages_;
  std::vector<std::uint32_t> round_max_load_;
  std::vector<std::uint64_t> round_events_;
  std::vector<std::uint64_t> round_inbox_;
  std::vector<std::uint64_t> round_retries_;

  // Sparse touched cells, (big_round, edge) order; capacity reused across runs.
  std::vector<LoadCell> cells_;

  LogHistogram hist_cell_load_;
  LogHistogram hist_round_max_;
};

}  // namespace dasched
