// Load-surface tests (Section 2): the sorted LoadCell list every pattern is
// stored as, its helpers against std::map brute force, and the
// simulation-mapping validator.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "congest/pattern.hpp"
#include "congest/schedule_table.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/workloads.hpp"
#include "util/rng.hpp"

namespace dasched {
namespace {

using Key = std::pair<std::uint32_t, std::uint32_t>;  // (big_round, edge)

std::map<Key, std::uint64_t> brute(const std::vector<LoadCell>& cells) {
  std::map<Key, std::uint64_t> m;
  for (const auto& c : cells) {
    if (c.load > 0) m[{c.big_round, c.edge}] += c.load;
  }
  return m;
}

/// The surface a std::map says `cells` coalesce to.
std::vector<LoadCell> brute_surface(const std::vector<LoadCell>& cells) {
  std::vector<LoadCell> out;
  for (const auto& [key, load] : brute(cells)) {
    out.push_back({key.first, key.second, static_cast<std::uint32_t>(load)});
  }
  return out;
}

std::vector<LoadCell> surface(std::vector<LoadCell> cells, std::uint32_t edges) {
  coalesce_load_cells(cells, edges);
  return cells;
}

TEST(Pattern, RecordAndQuery) {
  const auto p = surface({{0, 0, 1}, {0, 2, 1}, {2, 0, 1}}, 6);
  EXPECT_TRUE(is_load_surface(p, 6));
  EXPECT_EQ(p.back().big_round + 1, 3u);  // last message round
  std::vector<std::uint64_t> totals(6, 0);
  add_edge_totals(p, totals);
  EXPECT_EQ(totals, (std::vector<std::uint64_t>{2, 0, 1, 0, 0, 0}));
  EXPECT_EQ(max_edge_total(p, 6), 2u);
  ASSERT_EQ(cells_in_round(p, 0).size(), 2u);
  EXPECT_TRUE(cells_in_round(p, 1).empty());
  EXPECT_TRUE(cells_in_round(p, 8).empty());
  EXPECT_EQ(round_max_loads(p), (std::vector<std::uint32_t>{1, 0, 1}));
}

TEST(Pattern, CombinedCongestionSumsPerEdge) {
  const auto a = surface({{0, 1, 1}, {1, 1, 1}}, 4);
  const auto b = surface({{4, 1, 1}, {0, 3, 1}}, 4);
  std::vector<std::uint64_t> totals(4, 0);
  add_edge_totals(a, totals);
  add_edge_totals(b, totals);
  EXPECT_EQ(max_edge_total(totals), 3u);
  EXPECT_EQ(totals, (std::vector<std::uint64_t>{0, 3, 0, 1}));
}

TEST(Pattern, EmptyPatternHasZeroEverything) {
  // A node program that never sends (or a zero-round algorithm) still has a
  // well-formed footprint: all queries return the additive identities.
  const std::vector<LoadCell> p;
  EXPECT_TRUE(is_load_surface(p, 5));
  EXPECT_EQ(max_edge_total(p, 5), 0u);
  EXPECT_TRUE(round_max_loads(p).empty());
  EXPECT_TRUE(cells_in_round(p, 0).empty());
  EXPECT_TRUE(cells_in_round(p, 100).empty());
  std::size_t visits = 0;
  merge_load_cells(p, p, [&](auto...) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(Pattern, QueriesPastTheLastMessageRoundAreEmptyNotFatal) {
  const auto p = surface({{1, 1, 1}}, 3);
  // Round lookups far past the last cell must be cheap no-ops.
  EXPECT_TRUE(cells_in_round(p, 2).empty());
  EXPECT_TRUE(cells_in_round(p, 1u << 20).empty());
  EXPECT_TRUE(cells_in_round(p, kNeverScheduled).empty());
  EXPECT_EQ(round_max_loads(p).size(), 2u);
}

TEST(Pattern, SingleEdgeGraphFootprint) {
  // The smallest nontrivial topology: one undirected edge, two directed ids.
  const Graph g = make_path(2);
  ASSERT_EQ(g.num_directed_edges(), 2u);
  const auto p = surface({{0, 0, 1}, {0, 1, 1}, {1, 0, 1}}, g.num_directed_edges());
  EXPECT_EQ(max_edge_total(p, g.num_directed_edges()), 2u);
  ASSERT_EQ(cells_in_round(p, 0).size(), 2u);
}

TEST(Pattern, CombinedCongestionOfNothingIsZero) {
  EXPECT_EQ(max_edge_total(std::span<const std::uint64_t>{}), 0u);
  EXPECT_EQ(max_edge_total(std::vector<LoadCell>{}, 0), 0u);
}

TEST(Pattern, MalformedSurfacesAreRecognized) {
  EXPECT_FALSE(is_load_surface(std::vector<LoadCell>{{0, 4, 1}}, 4));  // edge out of range
  EXPECT_FALSE(is_load_surface(std::vector<LoadCell>{{0, 1, 0}}, 4));  // empty cell
  EXPECT_FALSE(is_load_surface(std::vector<LoadCell>{{1, 0, 1}, {0, 2, 1}}, 4));  // unsorted
  EXPECT_FALSE(is_load_surface(std::vector<LoadCell>{{1, 2, 1}, {1, 2, 1}}, 4));  // duplicate
  EXPECT_TRUE(is_load_surface(std::vector<LoadCell>{{1, 2, 1}, {1, 3, 2}}, 4));
}

TEST(Pattern, HelpersMatchMapBruteForce) {
  // 200 seeded multisets plus the edge cases: each helper against std::map.
  std::vector<std::pair<std::vector<LoadCell>, std::uint32_t>> cases;
  cases.push_back({{}, 3});
  cases.push_back({{{5, 2, 1}}, 3});
  cases.push_back({{{4, 1, 1}, {4, 1, 1}, {4, 1, 2}, {0, 0, 1}}, 2});
  cases.push_back({{{0, 99, 1}, {0, 0, 1}, {0, 99, 3}}, 100});  // highest edge id
  cases.push_back({{{1u << 16, 1, 1}, {(1u << 16) - 1, 1, 1}, {1u << 16, 0, 2}}, 2});
  cases.push_back({{{kNeverScheduled - 1, 3, 1}, {0, 3, 1}, {kNeverScheduled - 1, 0, 1}}, 4});
  Rng rng(2015);
  for (int i = 0; i < 200; ++i) {
    const auto edges = 1 + static_cast<std::uint32_t>(rng.next_below(40));
    const auto rounds = 1 + static_cast<std::uint32_t>(rng.next_below(i % 3 == 0 ? 1u << 20 : 12));
    std::vector<LoadCell> cells(rng.next_below(300));
    for (auto& c : cells) {
      c = {static_cast<std::uint32_t>(rng.next_below(rounds)),
           static_cast<std::uint32_t>(rng.next_below(edges)),
           static_cast<std::uint32_t>(rng.next_below(4))};  // 0: dropped
    }
    cases.emplace_back(std::move(cells), edges);
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto& [cells, edges] = cases[i];
    const auto want = brute_surface(cells);
    const auto got = surface(cells, edges);
    ASSERT_EQ(got, want);
    EXPECT_TRUE(is_load_surface(got, edges));

    std::map<std::uint32_t, std::vector<LoadCell>> by_round;
    std::vector<std::uint64_t> totals(edges, 0);
    std::map<std::uint32_t, std::uint32_t> round_max;
    for (const auto& c : want) {
      by_round[c.big_round].push_back(c);
      totals[c.edge] += c.load;
      round_max[c.big_round] = std::max(round_max[c.big_round], c.load);
    }
    for (const auto& [t, round_cells] : by_round) {
      const auto span = cells_in_round(got, t);
      EXPECT_EQ(std::vector<LoadCell>(span.begin(), span.end()), round_cells);
    }
    for (const std::uint32_t t : {0u, 1u, kNeverScheduled}) {
      if (by_round.count(t) == 0) {
        EXPECT_TRUE(cells_in_round(got, t).empty());
      }
    }

    std::vector<std::uint64_t> got_totals(edges, 0);
    add_edge_totals(got, got_totals);
    EXPECT_EQ(got_totals, totals);
    std::uint64_t max_total = 0;
    for (const auto t : totals) max_total = std::max(max_total, t);
    EXPECT_EQ(max_edge_total(got, edges), max_total);

    // round_max_loads is dense up to the last round; skip the dense check
    // when the last round is near 2^32.
    if (!want.empty() && want.back().big_round < (1u << 21)) {
      const auto dense = round_max_loads(got);
      ASSERT_EQ(dense.size(), std::size_t{want.back().big_round} + 1);
      for (std::uint32_t t = 0; t < dense.size(); ++t) {
        const auto it = round_max.find(t);
        EXPECT_EQ(dense[t], it == round_max.end() ? 0u : it->second);
      }
    }

    // Merge against the next case's surface over the same edge range.
    const auto& other_cells = cases[(i + 1) % cases.size()].first;
    std::vector<LoadCell> clipped;
    for (const auto& c : other_cells) {
      if (c.edge < edges) clipped.push_back(c);
    }
    const auto other = surface(clipped, edges);
    std::map<Key, std::pair<std::uint32_t, std::uint32_t>> joined;
    for (const auto& c : got) joined[{c.big_round, c.edge}].first = c.load;
    for (const auto& c : other) joined[{c.big_round, c.edge}].second = c.load;
    std::vector<std::pair<Key, std::pair<std::uint32_t, std::uint32_t>>> visited;
    merge_load_cells(got, other,
                     [&](std::uint32_t t, std::uint32_t e, std::uint32_t x, std::uint32_t y) {
                       visited.push_back({{t, e}, {x, y}});
                     });
    EXPECT_EQ(visited, (std::vector<std::pair<Key, std::pair<std::uint32_t, std::uint32_t>>>(
                           joined.begin(), joined.end())));
  }
}

TEST(Pattern, BfsPatternIsUnknowableButRecordable) {
  // The paper's Section 2 point: BFS's pattern depends on distances -- we can
  // only know it after running. Verify the recorded footprint matches the
  // BFS structure: node at distance q sends in round q+1.
  const auto g = make_path(6);
  Simulator sim(g);
  BfsAlgorithm algo(0, 5, 1);
  const auto result = sim.run(algo);
  for (std::uint32_t r = 1; r <= 5; ++r) {
    // In round r, node r-1 floods both directions (except ends).
    for (const auto& c : cells_in_round(result.pattern, r - 1)) {
      const auto [lo, hi] = g.endpoints(c.edge / 2);
      const NodeId sender = (c.edge % 2 == 0) ? lo : hi;
      EXPECT_EQ(sender, r - 1);
    }
  }
}

TEST(SimulationValidator, LockstepAndShiftedAreSimulations) {
  const auto g = make_grid(4, 4);
  Simulator sim(g);
  BroadcastAlgorithm algo(0, 4, 9, 2);
  const auto solo = sim.run(algo);

  EXPECT_EQ(simulation_violations(g, solo.pattern,
                                  [](NodeId, std::uint32_t r) { return r - 1; }),
            0u);
  EXPECT_EQ(simulation_violations(g, solo.pattern,
                                  [](NodeId, std::uint32_t r) { return 10 + 3 * r; }),
            0u);
}

TEST(SimulationValidator, FlagsSkewAndMissingSenders) {
  const auto g = make_path(5);
  Simulator sim(g);
  BroadcastAlgorithm algo(0, 4, 9, 2);
  const auto solo = sim.run(algo);

  // Receiver runs before sender: violations.
  EXPECT_GT(simulation_violations(g, solo.pattern,
                                  [](NodeId v, std::uint32_t r) {
                                    return (v == 0 ? 50u : 0u) + r;
                                  }),
            0u);
  // Sender truncated but receiver still consumes: violation.
  EXPECT_GT(simulation_violations(g, solo.pattern,
                                  [](NodeId v, std::uint32_t r) {
                                    if (v == 0) return kNeverScheduled;
                                    return r - 1;
                                  }),
            0u);
  // Both truncated consistently: no constraint.
  EXPECT_EQ(simulation_violations(g, solo.pattern,
                                  [](NodeId, std::uint32_t r) {
                                    if (r >= 2) return kNeverScheduled;
                                    return r - 1;
                                  }),
            0u);
}

TEST(SimulationValidator, PrivateSchedulerScheduleIsASimulation) {
  // Cross-check: the Theorem 4.1 exec times, reconstructed per algorithm,
  // pass the static Section-2 validator on the solo patterns.
  Rng rng(9);
  const auto g = make_gnp_connected(50, 0.1, rng);
  auto problem = make_broadcast_workload(g, 5, 3, 3);
  problem->run_solo();

  PrivateSchedulerConfig cfg;
  cfg.seed = 4;
  cfg.clustering.num_layers = 12;
  cfg.central_clustering = true;
  cfg.central_sharing = true;
  const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
  ASSERT_EQ(out.exec.causality_violations, 0u);

  // Rebuild the same schedule times from the clustering + delays.
  ClusteringConfig ccfg = cfg.clustering;
  ccfg.seed = cfg.seed;
  ccfg.dilation = problem->dilation();
  const auto clustering = ClusteringBuilder(ccfg).build_central(g);
  const auto seeds = RandomnessSharing({.seed = cfg.seed}).run_central(g, clustering);
  std::uint32_t support = 0;
  const auto delay =
      PrivateRandomnessScheduler(cfg).compute_delays(*problem, clustering, seeds, &support);

  for (std::size_t a = 0; a < problem->size(); ++a) {
    const auto time = [&](NodeId v, std::uint32_t r) -> std::uint32_t {
      if (r > problem->algorithm(a).rounds() + 1) return kNeverScheduled;
      std::uint32_t best = kNeverScheduled;
      for (std::size_t l = 0; l < clustering.num_layers(); ++l) {
        if (clustering.layers[l].h_prime[v] + 1 >= r) {
          best = std::min(best, delay[l][v][a] + (r - 1));
        }
      }
      return best;
    };
    EXPECT_EQ(simulation_violations(g, problem->solo()[a].pattern, time), 0u)
        << "algorithm " << a;
  }
}

}  // namespace
}  // namespace dasched
