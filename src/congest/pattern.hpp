// Communication patterns and load surfaces (Section 2, Figure 1 of the paper).
//
// The communication pattern of a T-round algorithm is the subgraph of the
// time-expanded graph G x [T] consisting of the (round, directed edge) pairs
// on which the algorithm sends a message. Patterns capture the *footprint*
// of an algorithm, not message content; `congestion` and `dilation` -- the
// two parameters every bound in the paper is stated in -- are functions of
// the patterns alone.
//
// dasched keeps every such object in one shape, the *load surface*: a
// std::vector<LoadCell> that is strictly increasing in (big_round, edge),
// with every load >= 1; a cell of load L stands for L messages on that
// directed edge in that big-round. A solo pattern (SoloRunResult::pattern),
// an exact certificate's derived pattern, the verifier's static prediction
// and the profiler's measured cells are all load surfaces. A solo pattern is
// the surface of its lockstep run, so a message sent in virtual round r sits
// in big_round r - 1.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dasched {

/// One measured (or statically predicted) per-(big-round, directed-edge)
/// load. Ordered by (big_round, edge) so measured and predicted surfaces
/// join with one linear merge.
struct LoadCell {
  std::uint32_t big_round = 0;
  std::uint32_t edge = 0;  // directed edge id
  std::uint32_t load = 0;
  friend bool operator<(const LoadCell& x, const LoadCell& y) {
    if (x.big_round != y.big_round) return x.big_round < y.big_round;
    return x.edge < y.edge;
  }
  friend bool operator==(const LoadCell&, const LoadCell&) = default;
};

/// Stably sorts `cells` by (big_round, edge) -- element for element what
/// std::stable_sort gives -- in O(cells + num_directed_edges + 2^16) time:
/// counting passes by directed edge (every edge must be below
/// num_directed_edges), then by the low and the high 16-bit big-round digit,
/// each skipped when one bucket holds every cell. No counting array is sized
/// by a big-round value, so a malformed schedule with slots near
/// kNeverScheduled costs no more memory than a clean one.
void sort_load_cells(std::vector<LoadCell>& cells, std::uint32_t num_directed_edges);

/// Turns any multiset of cells into a load surface: sort_load_cells, then
/// one cell per (big_round, edge) key carrying the summed load. Zero-load
/// cells are dropped.
void coalesce_load_cells(std::vector<LoadCell>& cells, std::uint32_t num_directed_edges);

/// True iff `cells` is a load surface over `num_directed_edges` directed
/// edges: strictly increasing, every load >= 1, every edge in range. Reads
/// nothing but the cells, so it is safe on foreign or corrupted data.
bool is_load_surface(std::span<const LoadCell> cells, std::uint32_t num_directed_edges);

/// The cells of one big-round (binary search; empty if it has none).
std::span<const LoadCell> cells_in_round(std::span<const LoadCell> surface,
                                         std::uint32_t big_round);

/// Adds every cell's load to totals[cell.edge] (totals has one entry per
/// directed edge).
void add_edge_totals(std::span<const LoadCell> surface, std::span<std::uint64_t> totals);

/// The largest per-edge total (0 for no edges), clamped to 32 bits: the
/// congestion of whatever was added into `totals`.
std::uint32_t max_edge_total(std::span<const std::uint64_t> totals);

/// Max over directed edges of the summed load: the surface's congestion.
std::uint32_t max_edge_total(std::span<const LoadCell> surface,
                             std::uint32_t num_directed_edges);

/// max_load[t] for t in [0, last big_round]; rounds without cells hold 0.
std::vector<std::uint32_t> round_max_loads(std::span<const LoadCell> surface);

/// Calls visit(big_round, edge, load_a, load_b) once per key of the union of
/// two surfaces, in (big_round, edge) order; a side without the key reports
/// load 0 (real cells never carry 0).
template <class Visit>
void merge_load_cells(std::span<const LoadCell> a, std::span<const LoadCell> b,
                      Visit&& visit) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      visit(a[i].big_round, a[i].edge, a[i].load, std::uint32_t{0});
      ++i;
    } else if (i == a.size() || b[j] < a[i]) {
      visit(b[j].big_round, b[j].edge, std::uint32_t{0}, b[j].load);
      ++j;
    } else {
      visit(a[i].big_round, a[i].edge, a[i].load, b[j].load);
      ++i;
      ++j;
    }
  }
}

/// Big-round assignment for a node's virtual rounds (Section 2's simulation
/// mapping f, restricted to lockstep-per-node schedules): returns the
/// big-round in which node v executes virtual round r, or kNeverScheduled.
using NodeRoundTime =
    std::function<std::uint32_t(NodeId v, std::uint32_t vround)>;

/// Checks that a schedule is a valid *simulation* of the solo pattern
/// `pattern` in the paper's Section 2 sense: causal precedence is preserved,
/// i.e. every message (u -> v, sent in round r) is transmitted strictly
/// before the receiver executes round r+1 (where it consumes the message).
/// Returns the number of violated messages; 0 means the mapping is a
/// simulation. Never-scheduled consumer rounds impose no constraint (the
/// receiver truncated its execution), matching Lemma 4.4's discard rule.
std::uint64_t simulation_violations(const Graph& g, std::span<const LoadCell> pattern,
                                    const NodeRoundTime& time);

}  // namespace dasched
