#include "congest/pattern.hpp"

#include <algorithm>

#include "congest/schedule_table.hpp"
#include "util/check.hpp"

namespace dasched {

namespace {

constexpr unsigned kRoundDigitBits = 16;
constexpr std::uint32_t kRoundDigitMask = (1u << kRoundDigitBits) - 1;

/// One stable counting pass: scatters `cells` through `scratch` ordered by
/// key(cell), given that key's histogram in `start`, and swaps the result
/// in. Skipped when one bucket holds every cell: the order is already right.
template <class Key>
void counting_pass(std::vector<LoadCell>& cells, std::vector<LoadCell>& scratch,
                   std::vector<std::size_t>& start, Key key) {
  std::size_t offset = 0;
  for (auto& s : start) {
    if (s == cells.size()) return;
    const std::size_t count = s;
    s = offset;
    offset += count;
  }
  scratch.resize(cells.size());
  for (const auto& c : cells) scratch[start[key(c)]++] = c;
  cells.swap(scratch);
}

}  // namespace

void sort_load_cells(std::vector<LoadCell>& cells, std::uint32_t num_directed_edges) {
  if (cells.size() < 2) return;
  // Every pass's histogram up front, in two reads: the first also finds the
  // largest big-round, which sizes the digit histograms.
  std::vector<std::size_t> by_edge(num_directed_edges, 0);
  std::uint32_t max_round = 0;
  for (const auto& c : cells) {
    DASCHED_CHECK_LT(c.edge, num_directed_edges, "load cell edge outside the graph");
    ++by_edge[c.edge];
    max_round = std::max(max_round, c.big_round);
  }
  std::vector<std::size_t> by_low(std::min(max_round, kRoundDigitMask) + std::size_t{1}, 0);
  std::vector<std::size_t> by_high((max_round >> kRoundDigitBits) + std::size_t{1}, 0);
  for (const auto& c : cells) {
    ++by_low[c.big_round & kRoundDigitMask];
    ++by_high[c.big_round >> kRoundDigitBits];
  }
  // Least significant key first: edge, then the low and high big-round digits.
  std::vector<LoadCell> scratch;
  counting_pass(cells, scratch, by_edge, [](const LoadCell& c) { return c.edge; });
  counting_pass(cells, scratch, by_low,
                [](const LoadCell& c) { return c.big_round & kRoundDigitMask; });
  counting_pass(cells, scratch, by_high,
                [](const LoadCell& c) { return c.big_round >> kRoundDigitBits; });
}

void coalesce_load_cells(std::vector<LoadCell>& cells, std::uint32_t num_directed_edges) {
  sort_load_cells(cells, num_directed_edges);
  std::size_t out = 0;
  for (const auto& c : cells) {
    if (c.load == 0) continue;
    if (out > 0 && cells[out - 1].big_round == c.big_round && cells[out - 1].edge == c.edge) {
      cells[out - 1].load += c.load;
    } else {
      cells[out++] = c;
    }
  }
  cells.resize(out);
}

bool is_load_surface(std::span<const LoadCell> cells, std::uint32_t num_directed_edges) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].load == 0 || cells[i].edge >= num_directed_edges) return false;
    if (i > 0 && !(cells[i - 1] < cells[i])) return false;
  }
  return true;
}

std::span<const LoadCell> cells_in_round(std::span<const LoadCell> surface,
                                         std::uint32_t big_round) {
  const auto lo = std::partition_point(surface.begin(), surface.end(),
                                       [&](const LoadCell& c) { return c.big_round < big_round; });
  const auto hi = std::partition_point(lo, surface.end(),
                                       [&](const LoadCell& c) { return c.big_round == big_round; });
  return {lo, hi};
}

void add_edge_totals(std::span<const LoadCell> surface, std::span<std::uint64_t> totals) {
  for (const auto& c : surface) totals[c.edge] += c.load;
}

std::uint32_t max_edge_total(std::span<const std::uint64_t> totals) {
  std::uint64_t max_total = 0;
  for (const auto total : totals) max_total = std::max(max_total, total);
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(max_total, ~std::uint32_t{0}));
}

std::uint32_t max_edge_total(std::span<const LoadCell> surface,
                             std::uint32_t num_directed_edges) {
  std::vector<std::uint64_t> totals(num_directed_edges, 0);
  add_edge_totals(surface, totals);
  return max_edge_total(totals);
}

std::vector<std::uint32_t> round_max_loads(std::span<const LoadCell> surface) {
  if (surface.empty()) return {};
  std::vector<std::uint32_t> max_load(std::size_t{surface.back().big_round} + 1, 0);
  for (const auto& c : surface) max_load[c.big_round] = std::max(max_load[c.big_round], c.load);
  return max_load;
}

std::uint64_t simulation_violations(const Graph& g, std::span<const LoadCell> pattern,
                                    const NodeRoundTime& time) {
  std::uint64_t violations = 0;
  for (const auto& c : pattern) {
    const std::uint32_t r = c.big_round + 1;
    const auto [lo, hi] = g.endpoints(c.edge / 2);
    const NodeId sender = (c.edge % 2 == 0) ? lo : hi;
    const NodeId receiver = (c.edge % 2 == 0) ? hi : lo;
    const std::uint32_t sent = time(sender, r);
    const std::uint32_t consumed = time(receiver, r + 1);
    if (sent == kNeverScheduled) {
      // The sender never transmits a message the pattern requires: if the
      // receiver still executes the consuming round, causality is broken.
      if (consumed != kNeverScheduled) violations += c.load;
      continue;
    }
    if (consumed != kNeverScheduled && consumed <= sent) violations += c.load;
  }
  return violations;
}

}  // namespace dasched
