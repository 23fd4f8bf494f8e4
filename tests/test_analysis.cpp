// Static pattern analysis (src/analysis): exact certificates must match
// solo-executed patterns cell-for-cell (and output-for-output) for every
// deterministic algorithm family across the graph suite, and envelope /
// fallback certificates must soundly dominate every randomized or opaque
// run. The cross-check itself (verify/certificate_check.hpp) is both the
// assertion vehicle and a test subject: corrupted certificates must fire the
// certificate.* findings.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algos/aggregate.hpp"
#include "algos/bfs.hpp"
#include "algos/broadcast.hpp"
#include "algos/distinct_elements.hpp"
#include "algos/gossip.hpp"
#include "algos/mis.hpp"
#include "algos/mst.hpp"
#include "algos/path_routing.hpp"
#include "analysis/analyzer.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "sched/problem.hpp"
#include "sched/workloads.hpp"
#include "util/rng.hpp"
#include "verify/certificate_check.hpp"

namespace dasched {
namespace {

std::vector<std::pair<std::string, Graph>> graph_suite() {
  Rng rng(7);
  std::vector<std::pair<std::string, Graph>> suite;
  suite.emplace_back("single-edge", make_path(2));
  suite.emplace_back("path", make_path(9));
  suite.emplace_back("cycle", make_cycle(8));
  suite.emplace_back("star", make_star(7));
  suite.emplace_back("grid", make_grid(4, 5));
  suite.emplace_back("tree", make_binary_tree(15));
  suite.emplace_back("gnp", make_gnp_connected(40, 0.15, rng));
  suite.emplace_back("lollipop", make_lollipop(14, 6));
  return suite;
}

/// Certificates either exactly match or soundly bound the solo run; the
/// cross-check must come back clean either way.
void expect_certified(const Graph& g, const DistributedAlgorithm& alg,
                      analysis::CertificateKind expected_kind) {
  const auto cert = analysis::analyze(g, alg);
  EXPECT_EQ(cert.kind, expected_kind) << alg.name();
  EXPECT_EQ(cert.dilation, alg.rounds());

  const auto solo = Simulator(g).run(alg);
  const auto report = verify::check_certificate(cert, solo);
  EXPECT_TRUE(report.ok()) << alg.name() << ": " << report.errors() << " errors, first code "
                           << (report.error_codes().empty() ? std::string("none")
                                                            : report.error_codes().front());
  EXPECT_TRUE(report.has(verify::kCodeCertificateSummary));

  if (expected_kind == analysis::CertificateKind::kExact) {
    // Belt and braces beyond the cross-check: headline scalars are exact.
    EXPECT_EQ(cert.total_messages, solo.total_messages);
    EXPECT_EQ(cert.last_message_round, solo.last_message_round);
    EXPECT_EQ(cert.congestion, max_edge_total(solo.pattern, g.num_directed_edges()));
    EXPECT_EQ(cert.pattern, solo.pattern);
    ASSERT_TRUE(cert.has_outputs);
    EXPECT_EQ(cert.outputs, solo.outputs);
  } else {
    EXPECT_GE(cert.congestion, max_edge_total(solo.pattern, g.num_directed_edges()));
    EXPECT_GE(cert.total_messages, solo.total_messages);
    EXPECT_FALSE(cert.has_outputs);
  }
}

TEST(Analysis, BroadcastExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t hops : {1u, 2u, 5u}) {
      expect_certified(g, BroadcastAlgorithm(0, hops, 0xabcd, 11),
                       analysis::CertificateKind::kExact);
    }
    expect_certified(g, BroadcastAlgorithm(g.num_nodes() - 1, 3, 1, 5),
                     analysis::CertificateKind::kExact);
  }
}

TEST(Analysis, BfsExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t hops : {1u, 3u, 7u}) {
      expect_certified(g, BfsAlgorithm(g.num_nodes() / 2, hops, 3),
                       analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, AggregateExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t radius : {1u, 2u, 4u}) {
      expect_certified(g, AggregateAlgorithm(0, radius, 77),
                       analysis::CertificateKind::kExact);
      expect_certified(g, AggregateAlgorithm(g.num_nodes() - 1, radius, 1234),
                       analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, GossipExactAcrossSuite) {
  // Randomized pattern, but the coins are fixed at start from (seed, node):
  // the central replay must reproduce the executed pushes exactly.
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint64_t seed : {1ull, 42ull, 999ull}) {
      expect_certified(g, GossipAlgorithm(0, 6, 0xfeed, seed),
                       analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, PathRoutingExactAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    Rng rng(13);
    for (auto& alg : make_random_routing_instance(g, 4, rng, 99)) {
      expect_certified(g, *alg, analysis::CertificateKind::kExact);
    }
  }
}

TEST(Analysis, MisEnvelopeIsSoundAcrossSuite) {
  for (const auto& [name, g] : graph_suite()) {
    SCOPED_TRACE(name);
    for (const std::uint32_t phases : {1u, 3u, 5u}) {
      expect_certified(g, LubyMisAlgorithm(phases, {}, 17 + phases),
                       analysis::CertificateKind::kUpperBound);
    }
  }
}

TEST(Analysis, OpaqueFallbackIsSound) {
  const auto g = make_grid(4, 4);
  const auto weights = make_mst_weights(g, 5);
  expect_certified(g, PipelineMstAlgorithm(g, weights, 2, 21),
                   analysis::CertificateKind::kFallback);

  DistinctElementsParams params;
  params.radius = 2;
  params.iterations = 8;
  std::vector<std::uint64_t> values(g.num_nodes());
  std::vector<std::vector<std::uint64_t>> seeds(g.num_nodes(), {9ull});
  for (NodeId v = 0; v < g.num_nodes(); ++v) values[v] = splitmix64(v);
  expect_certified(g, DistinctElementsAlgorithm(g, params, values, seeds, 9),
                   analysis::CertificateKind::kFallback);
}

TEST(Analysis, ToSoloRoundTripsAsAdoptedProfile) {
  const auto g = make_grid(3, 4);
  const BroadcastAlgorithm alg(2, 4, 5, 31);
  const auto cert = analysis::analyze(g, alg);
  const SoloRunResult synth = cert.to_solo();
  const SoloRunResult executed = Simulator(g).run(alg);
  EXPECT_EQ(synth.outputs, executed.outputs);
  EXPECT_EQ(synth.total_messages, executed.total_messages);
  EXPECT_EQ(synth.last_message_round, executed.last_message_round);
  EXPECT_EQ(synth.pattern, executed.pattern);
  EXPECT_EQ(synth.num_directed_edges, executed.num_directed_edges);
}

TEST(Analysis, CertifiedCongestionBoundDominatesExact) {
  const auto g = make_grid(4, 4);
  const auto problem = make_mixed_workload(g, 6, 3, 41);
  const std::uint32_t certified = problem->certified_congestion_bound();
  problem->run_solo();
  EXPECT_GE(certified, problem->congestion());
  // The mixed workload is all-exact (broadcast/bfs/aggregate): bound is tight.
  EXPECT_EQ(certified, problem->congestion());
  EXPECT_EQ(problem->analyze_static().size(), problem->size());
}

TEST(Analysis, CorruptedExactCertificateFiresCellAndOutputFindings) {
  const auto g = make_cycle(6);
  const BfsAlgorithm alg(0, 3, 7);
  auto cert = analysis::analyze(g, alg);
  const auto solo = Simulator(g).run(alg);

  // Shift one cell: drop nothing, add a phantom message in a quiet round.
  cert.pattern.push_back({cert.rounds - 1, 0, 1});
  coalesce_load_cells(cert.pattern, g.num_directed_edges());
  cert.outputs[1][0] ^= 1;
  const auto report = verify::check_certificate(cert, solo);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeCertificateCellMismatch));
  EXPECT_TRUE(report.has(verify::kCodeCertificateOutputMismatch));
}

TEST(Analysis, ViolatedEnvelopeFiresBoundFindings) {
  const auto g = make_star(5);
  const LubyMisAlgorithm alg(3, {}, 23);
  auto cert = analysis::analyze(g, alg);
  const auto solo = Simulator(g).run(alg);
  // Shrink the envelope below reality: the run must now violate it.
  cert.per_edge_bound = 0;
  cert.per_cell_bound = 0;
  cert.total_messages = 0;
  const auto report = verify::check_certificate(cert, solo);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeCertificateBoundViolation));
}

TEST(Analysis, DimensionMismatchIsTerminal) {
  const auto g = make_path(4);
  const auto other = make_path(6);
  const BroadcastAlgorithm alg(0, 2, 1, 3);
  const auto cert = analysis::analyze(g, alg);
  const auto solo = Simulator(other).run(BroadcastAlgorithm(0, 2, 1, 3));
  const auto report = verify::check_certificate(cert, solo);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::kCodeCertificateDims));
  EXPECT_FALSE(report.has(verify::kCodeCertificateSummary));
}

TEST(Analysis, DisconnectedAndUnreachedNodesMatchExecution) {
  // A 1-hop broadcast on a long path: most nodes are unreached; the derived
  // outputs must match the executed "not received" outputs exactly.
  const auto g = make_path(12);
  expect_certified(g, BroadcastAlgorithm(0, 1, 9, 2), analysis::CertificateKind::kExact);
  expect_certified(g, BfsAlgorithm(11, 1, 2), analysis::CertificateKind::kExact);
  expect_certified(g, AggregateAlgorithm(5, 1, 8), analysis::CertificateKind::kExact);
}

}  // namespace
}  // namespace dasched
