#include "analysis/analyzer.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "util/rng.hpp"

namespace dasched::analysis {

namespace {

constexpr std::uint64_t kNoOutput = ~std::uint64_t{0};

/// Finalizes an exact certificate from the recorded (round - 1, edge) cells.
void seal_exact(const Graph& g, PatternCertificate& cert, std::vector<LoadCell> pattern) {
  coalesce_load_cells(pattern, g.num_directed_edges());
  cert.kind = CertificateKind::kExact;
  cert.num_directed_edges = g.num_directed_edges();
  cert.congestion = max_edge_total(pattern, cert.num_directed_edges);
  cert.per_cell_bound = 1;
  cert.per_edge_bound = cert.congestion;
  cert.total_messages = 0;
  for (const auto& c : pattern) cert.total_messages += c.load;
  cert.last_message_round = pattern.empty() ? 0 : pattern.back().big_round + 1;
  cert.pattern = std::move(pattern);
}

/// kFlood: a node at BFS distance q from the source forwards to every
/// neighbor in round q+1 (iff q+1 <= T); it is reached iff q <= T.
void analyze_flood(const Graph& g, const StaticFootprint& fp, std::uint32_t T,
                   std::uint64_t base_seed, PatternCertificate& cert) {
  (void)base_seed;
  DASCHED_CHECK(fp.source < g.num_nodes());
  const auto dist = bfs_distances(g, fp.source);

  std::vector<LoadCell> pattern;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] == kUnreachable || dist[v] + 1 > T) continue;
    for (const std::uint32_t d : g.directed_ids(v)) pattern.push_back({dist[v], d, 1});
  }
  seal_exact(g, cert, std::move(pattern));

  cert.has_outputs = true;
  cert.outputs.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool reached = dist[v] != kUnreachable && dist[v] <= T;
    if (fp.outputs == StaticFootprint::Outputs::kBroadcast) {
      cert.outputs[v] = reached ? std::vector<std::uint64_t>{1, fp.payload, dist[v]}
                                : std::vector<std::uint64_t>{0, 0, kNoOutput};
      continue;
    }
    // kBfs: parent is the min-id neighbor one layer closer (self at the root).
    if (!reached) {
      cert.outputs[v] = {0, kNoOutput, kNoOutput};
      continue;
    }
    NodeId parent = v;
    if (dist[v] > 0) {
      parent = kInvalidNode;
      for (const auto& h : g.neighbors(v)) {
        if (dist[h.neighbor] + 1 == dist[v]) {
          parent = h.neighbor;
          break;  // neighbors sorted by id
        }
      }
      DASCHED_CHECK(parent != kInvalidNode);
    }
    cert.outputs[v] = {1, dist[v], parent};
  }
}

/// kThreePhaseAggregate over the h-ball of the root (T = 3h+1):
///   depth q <= h-1 floods the token in round q+1,
///   depth 1 <= q <= h reports to its min-id parent in round 2h+1-q,
///   depth q <= h-1 floods the result in round 2h+2+q.
void analyze_aggregate(const Graph& g, const StaticFootprint& fp, std::uint64_t base_seed,
                       PatternCertificate& cert) {
  DASCHED_CHECK(fp.source < g.num_nodes());
  const std::uint32_t h = fp.radius;
  DASCHED_CHECK(h >= 1);
  const auto dist = bfs_distances_capped(g, fp.source, h);

  std::vector<LoadCell> pattern;
  std::vector<NodeId> parent(g.num_nodes(), kInvalidNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::uint32_t q = dist[v];
    if (q == kUnreachable) continue;
    if (q + 1 <= h) {
      for (const std::uint32_t d : g.directed_ids(v)) pattern.push_back({q, d, 1});
      for (const std::uint32_t d : g.directed_ids(v)) pattern.push_back({2 * h + 1 + q, d, 1});
    }
    if (q >= 1) {
      for (const auto& nb : g.neighbors(v)) {
        if (dist[nb.neighbor] + 1 == q) {
          parent[v] = nb.neighbor;
          break;  // neighbors sorted by id
        }
      }
      DASCHED_CHECK(parent[v] != kInvalidNode);
      pattern.push_back({2 * h - q, g.directed_id(g.find_edge(v, parent[v]), v), 1});
    }
  }
  seal_exact(g, cert, std::move(pattern));

  // Subtree sums: fold depths h..1 into their parents, then the root's sum is
  // the global aggregate the result flood distributes.
  const auto local = [base_seed](NodeId v) { return splitmix64(base_seed ^ v) & 0xffff; };
  std::vector<std::uint64_t> subtree(g.num_nodes(), 0);
  std::vector<std::vector<NodeId>> by_depth(h + 1);  // perf-ok: one analysis pass
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] == kUnreachable) continue;
    subtree[v] = local(v);
    by_depth[dist[v]].push_back(v);
  }
  for (std::uint32_t q = h; q >= 1; --q) {
    for (const NodeId v : by_depth[q]) subtree[parent[v]] += subtree[v];
  }
  const std::uint64_t global = subtree[fp.source];

  cert.has_outputs = true;
  cert.outputs.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] == kUnreachable) {
      cert.outputs[v] = {0, kNoOutput, local(v), 0};
    } else {
      cert.outputs[v] = {1, dist[v], subtree[v], global};
    }
  }
}

/// kGossipPush: central replay. Node v's picks come from the very Rng stream
/// the executor derives for it -- Rng(seed_combine(base_seed, v)), one
/// next_below(degree) draw per round from the round after v is informed.
void analyze_gossip(const Graph& g, const StaticFootprint& fp, std::uint32_t T,
                    std::uint64_t base_seed, PatternCertificate& cert) {
  DASCHED_CHECK(fp.source < g.num_nodes());
  const std::uint32_t uninformed = kUnreachable;
  std::vector<std::uint32_t> informed_round(g.num_nodes(), uninformed);
  informed_round[fp.source] = 0;

  std::vector<Rng> rng;
  rng.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) rng.emplace_back(seed_combine(base_seed, v));

  std::vector<LoadCell> pattern;
  std::vector<NodeId> newly_informed;
  for (std::uint32_t r = 1; r <= T; ++r) {
    newly_informed.clear();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (informed_round[v] >= r || g.degree(v) == 0) continue;
      const auto pick = rng[v].next_below(g.degree(v));
      pattern.push_back({r - 1, g.directed_ids(v)[pick], 1});
      const NodeId to = g.neighbors(v)[pick].neighbor;
      if (informed_round[to] == uninformed) newly_informed.push_back(to);
    }
    // Recipients of round-r messages absorb them in round r+1 (or on_finish).
    for (const NodeId v : newly_informed) informed_round[v] = r;
  }
  seal_exact(g, cert, std::move(pattern));

  cert.has_outputs = true;
  cert.outputs.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    cert.outputs[v] = informed_round[v] != uninformed
                          ? std::vector<std::uint64_t>{1, fp.payload, informed_round[v]}
                          : std::vector<std::uint64_t>{0, 0, kNoOutput};
  }
}

/// kFixedPath: round r carries exactly path[r-1] -> path[r].
void analyze_path(const Graph& g, const StaticFootprint& fp, PatternCertificate& cert) {
  DASCHED_CHECK_MSG(fp.path.size() >= 2, "fixed-path footprint needs >= 1 edge");
  std::vector<LoadCell> pattern;
  for (std::size_t i = 0; i + 1 < fp.path.size(); ++i) {
    const EdgeId e = g.find_edge(fp.path[i], fp.path[i + 1]);
    DASCHED_CHECK_MSG(e != kInvalidEdge, "fixed-path footprint hops a non-edge");
    pattern.push_back({static_cast<std::uint32_t>(i), g.directed_id(e, fp.path[i]), 1});
  }
  seal_exact(g, cert, std::move(pattern));

  cert.has_outputs = true;
  cert.outputs.resize(g.num_nodes());
  cert.outputs[fp.path.back()] = {1, fp.payload};
}

}  // namespace

const char* to_string(CertificateKind kind) {
  switch (kind) {
    case CertificateKind::kExact:
      return "exact";
    case CertificateKind::kUpperBound:
      return "upper-bound";
    case CertificateKind::kFallback:
      return "fallback";
  }
  return "unknown";
}

PatternCertificate analyze(const Graph& g, const DistributedAlgorithm& algorithm) {
  const StaticFootprint fp = algorithm.static_footprint();
  const std::uint32_t T = algorithm.rounds();

  PatternCertificate cert;
  cert.algorithm = algorithm.name();
  cert.rounds = T;
  cert.dilation = T;

  switch (fp.shape) {
    case StaticFootprint::Shape::kFlood:
      analyze_flood(g, fp, T, algorithm.base_seed(), cert);
      return cert;
    case StaticFootprint::Shape::kThreePhaseAggregate:
      DASCHED_CHECK_MSG(T == 3 * fp.radius + 1,
                        "aggregate footprint radius disagrees with declared rounds");
      analyze_aggregate(g, fp, algorithm.base_seed(), cert);
      return cert;
    case StaticFootprint::Shape::kGossipPush:
      analyze_gossip(g, fp, T, algorithm.base_seed(), cert);
      return cert;
    case StaticFootprint::Shape::kFixedPath:
      DASCHED_CHECK_MSG(T + 1 == fp.path.size(),
                        "fixed-path footprint length disagrees with declared rounds");
      analyze_path(g, fp, cert);
      return cert;
    case StaticFootprint::Shape::kEnvelope: {
      cert.kind = CertificateKind::kUpperBound;
      DASCHED_CHECK_MSG(fp.per_edge_cap >= 1, "envelope footprint needs a per-edge cap");
      cert.per_cell_bound = 1;
      cert.per_edge_bound = std::min(T, fp.per_edge_cap);
      cert.congestion = cert.per_edge_bound;
      cert.total_messages =
          static_cast<std::uint64_t>(g.num_directed_edges()) * cert.per_edge_bound;
      cert.last_message_round = T;
      return cert;
    }
    case StaticFootprint::Shape::kOpaque:
      break;
  }

  // Fallback: the CONGEST worst case -- every directed edge, every round.
  cert.kind = CertificateKind::kFallback;
  cert.per_cell_bound = 1;
  cert.per_edge_bound = T;
  cert.congestion = T;
  cert.total_messages = static_cast<std::uint64_t>(g.num_directed_edges()) * T;
  cert.last_message_round = T;
  return cert;
}

}  // namespace dasched::analysis
