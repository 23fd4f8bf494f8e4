#include <gtest/gtest.h>

#include "algos/aggregate.hpp"
#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "algos/path_routing.hpp"
#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace dasched {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

std::vector<GraphCase> test_graphs() {
  Rng rng(1234);
  std::vector<GraphCase> cases;
  cases.push_back({"path16", make_path(16)});
  cases.push_back({"cycle17", make_cycle(17)});
  cases.push_back({"grid5x6", make_grid(5, 6)});
  cases.push_back({"tree31", make_binary_tree(31)});
  cases.push_back({"gnp60", make_gnp_connected(60, 0.08, rng)});
  cases.push_back({"lollipop24", make_lollipop(24, 8)});
  return cases;
}

class AlgosOnGraphs : public ::testing::TestWithParam<std::size_t> {
 protected:
  static std::vector<GraphCase>& cases() {
    static auto c = test_graphs();
    return c;
  }
  const Graph& graph() const { return cases()[GetParam()].graph; }
};

TEST_P(AlgosOnGraphs, BroadcastReachesExactlyTheBall) {
  const auto& g = graph();
  const NodeId source = g.num_nodes() / 2;
  const std::uint32_t h = 3;
  const auto dist = bfs_distances(g, source);

  Simulator sim(g);
  BroadcastAlgorithm algo(source, h, 77, 42);
  const auto result = sim.run(algo);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool in_ball = dist[v] <= h;
    EXPECT_EQ(result.outputs[v][BroadcastAlgorithm::kOutReceived], in_ball ? 1u : 0u)
        << "node " << v;
    if (in_ball) {
      EXPECT_EQ(result.outputs[v][BroadcastAlgorithm::kOutValue], 77u);
      EXPECT_EQ(result.outputs[v][BroadcastAlgorithm::kOutDistance], dist[v]);
    }
  }
}

TEST_P(AlgosOnGraphs, BfsDistancesMatchOracle) {
  const auto& g = graph();
  const NodeId source = 0;
  const std::uint32_t h = eccentricity(g, source);
  const auto dist = bfs_distances(g, source);

  Simulator sim(g);
  BfsAlgorithm algo(source, std::max(1u, h), 43);
  const auto result = sim.run(algo);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(result.outputs[v][BfsAlgorithm::kOutReached], 1u) << v;
    EXPECT_EQ(result.outputs[v][BfsAlgorithm::kOutDistance], dist[v]) << v;
    if (v != source) {
      const auto parent = static_cast<NodeId>(result.outputs[v][BfsAlgorithm::kOutParent]);
      // Parent is one hop closer to the source and adjacent.
      EXPECT_EQ(dist[parent] + 1, dist[v]);
      EXPECT_NE(g.find_edge(parent, v), kInvalidEdge);
    }
  }
}

TEST_P(AlgosOnGraphs, AggregateComputesBallSum) {
  const auto& g = graph();
  const NodeId root = g.num_nodes() / 3;
  const std::uint32_t h = 4;
  AggregateAlgorithm algo(root, h, 99);
  const auto dist = bfs_distances(g, root);

  std::uint64_t expected = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] <= h) expected += algo.local_value(v);
  }

  Simulator sim(g);
  const auto result = sim.run(algo);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool in_ball = dist[v] <= h;
    EXPECT_EQ(result.outputs[v][AggregateAlgorithm::kOutInBall], in_ball ? 1u : 0u);
    if (in_ball) {
      EXPECT_EQ(result.outputs[v][AggregateAlgorithm::kOutDistance], dist[v]);
      EXPECT_EQ(result.outputs[v][AggregateAlgorithm::kOutGlobalSum], expected)
          << "node " << v << " dist " << dist[v];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, AlgosOnGraphs,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return test_graphs()[info.param].name;
                         });

TEST(PathRouting, DeliversAlongPath) {
  const auto g = make_grid(4, 4);
  // Path along the top row then down: 0-1-2-3-7-11-15.
  PathRoutingAlgorithm algo({0, 1, 2, 3, 7, 11, 15}, 1234, 5);
  EXPECT_EQ(algo.rounds(), 6u);
  Simulator sim(g);
  const auto result = sim.run(algo);
  EXPECT_EQ(result.outputs[15].at(PathRoutingAlgorithm::kOutDelivered), 1u);
  EXPECT_EQ(result.outputs[15].at(PathRoutingAlgorithm::kOutValue), 1234u);
  // Intermediate nodes output nothing.
  EXPECT_TRUE(result.outputs[7].empty());
  // Exactly one message per path edge.
  EXPECT_EQ(result.total_messages, 6u);
  EXPECT_EQ(max_edge_total(result.pattern, g.num_directed_edges()), 1u);
  EXPECT_EQ(result.last_message_round, 6u);
}

TEST(PathRouting, RandomInstanceIsConsistent) {
  Rng rng(77);
  const auto g = make_grid(6, 6);
  const auto packets = make_random_routing_instance(g, 12, rng, 1000);
  ASSERT_EQ(packets.size(), 12u);
  Simulator sim(g);
  const auto dist_cache = [&](NodeId a, NodeId b) {
    return bfs_distances(g, a)[b];
  };
  for (const auto& p : packets) {
    const auto& path = p->path();
    // Paths are shortest.
    EXPECT_EQ(path.size() - 1, dist_cache(path.front(), path.back()));
    const auto result = sim.run(*p);
    EXPECT_EQ(result.outputs[path.back()].at(PathRoutingAlgorithm::kOutDelivered), 1u);
  }
}

TEST(Broadcast, SingleHopOnlyNeighborsReached) {
  const auto g = make_star(6);
  Simulator sim(g);
  BroadcastAlgorithm from_leaf(3, 1, 5, 1);
  const auto result = sim.run(from_leaf);
  EXPECT_EQ(result.outputs[0][BroadcastAlgorithm::kOutReceived], 1u);  // hub
  EXPECT_EQ(result.outputs[1][BroadcastAlgorithm::kOutReceived], 0u);  // other leaf
}

TEST(Bfs, CappedRadiusLeavesFarNodesUnreached) {
  const auto g = make_path(10);
  Simulator sim(g);
  BfsAlgorithm algo(0, 4, 2);
  const auto result = sim.run(algo);
  EXPECT_EQ(result.outputs[4][BfsAlgorithm::kOutReached], 1u);
  EXPECT_EQ(result.outputs[5][BfsAlgorithm::kOutReached], 0u);
}

TEST(Aggregate, PatternUsesBothDirectionsOfTreeEdges) {
  const auto g = make_binary_tree(15);
  AggregateAlgorithm algo(0, 3, 7);
  Simulator sim(g);
  const auto result = sim.run(algo);
  // Flood goes down (and across), convergecast goes up: edge (0,1) must carry
  // messages in both directions.
  const EdgeId e = g.find_edge(0, 1);
  ASSERT_NE(e, kInvalidEdge);
  std::vector<std::uint64_t> totals(g.num_directed_edges(), 0);
  add_edge_totals(result.pattern, totals);
  EXPECT_GT(totals[g.directed_id(e, 0)], 0u);
  EXPECT_GT(totals[g.directed_id(e, 1)], 0u);
}

}  // namespace
}  // namespace dasched
