#include "sched/private_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "rand/distributions.hpp"
#include "rand/kwise.hpp"
#include "util/math.hpp"

namespace dasched {

namespace {

std::unique_ptr<DelayDistribution> make_delay_distribution(
    const PrivateSchedulerConfig& cfg, std::uint32_t congestion, std::uint32_t layers,
    NodeId n) {
  const double lns = std::max(1, log_ceil_ln(n));
  const std::uint32_t beta =
      cfg.num_blocks > 0 ? cfg.num_blocks
                         : std::max<std::uint32_t>(2, static_cast<std::uint32_t>(lns));
  const auto first_block = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::ceil(cfg.first_block_factor * congestion / lns)));
  double alpha = cfg.alpha;
  if (alpha <= 0.0) {
    // The paper's gamma = (1 - 1/beta)^{#layers}: the probability that none
    // of the other copies landed in an earlier block.
    alpha = std::pow(1.0 - 1.0 / beta, static_cast<double>(layers));
    alpha = std::min(0.95, std::max(0.05, alpha));
  }
  switch (cfg.delay_kind) {
    case DelayKind::kBlock:
      return std::make_unique<BlockDelayDistribution>(first_block, beta, alpha);
    case DelayKind::kUniformMatched: {
      const BlockDelayDistribution reference(first_block, beta, alpha);
      return std::make_unique<UniformDelay>(reference.support_size());
    }
    case DelayKind::kUniformFull:
      return std::make_unique<UniformDelay>(std::max<std::uint32_t>(1, congestion));
  }
  DASCHED_CHECK(false);
  return nullptr;
}

}  // namespace

std::vector<std::vector<std::vector<std::uint32_t>>>
PrivateRandomnessScheduler::compute_delays(const ScheduleProblem& problem,
                                           const Clustering& clustering,
                                           const SharedSeeds& seeds,
                                           std::uint32_t* support_out) const {
  const NodeId n = problem.graph().num_nodes();
  const std::size_t k = problem.size();
  const auto layers = static_cast<std::uint32_t>(clustering.num_layers());
  const std::uint32_t congestion =
      cfg_.congestion_estimate > 0 ? cfg_.congestion_estimate : problem.congestion();

  const auto dist = make_delay_distribution(cfg_, congestion, layers, n);
  if (support_out != nullptr) *support_out = dist->support_size();

  // One prime for everyone (all nodes can derive it from n and the congestion
  // estimate): large enough that unit_value granularity is irrelevant.
  const std::uint64_t prime =
      next_prime(std::max<std::uint64_t>(1u << 20, 8ULL * dist->support_size()));

  std::vector<std::vector<std::vector<std::uint32_t>>> delay(layers);
  for (std::uint32_t l = 0; l < layers; ++l) {
    delay[l].assign(n, std::vector<std::uint32_t>(k, 0));
    for (NodeId v = 0; v < n; ++v) {
      // Every node expands the seed *it received*; nodes of one cluster hold
      // identical words, hence identical delays -- the consistency the paper
      // needs inside each dilation-neighborhood.
      const auto& words = seeds.layers[l].words[v];
      const KWiseFamily family(prime, static_cast<std::uint32_t>(words.size()), words);
      for (std::size_t a = 0; a < k; ++a) {
        delay[l][v][a] = dist->delay_from_unit(family.unit_value(a));
      }
    }
  }
  return delay;
}

PrivateScheduleOutcome PrivateRandomnessScheduler::run(ScheduleProblem& problem) const {
  TelemetrySink* const telemetry = cfg_.telemetry;
  TimedSpan run_span(telemetry, "sched.private", "run");
  problem.run_solo();
  const auto& g = problem.graph();
  const NodeId n = g.num_nodes();
  const std::size_t k = problem.size();
  const std::uint32_t dilation = problem.dilation();

  PrivateScheduleOutcome out;

  // --- 1. Clustering (Lemma 4.2). ---
  ClusteringConfig ccfg = cfg_.clustering;
  ccfg.seed = cfg_.seed;
  ccfg.dilation = dilation;
  ccfg.telemetry = telemetry;
  const ClusteringBuilder builder(ccfg);
  TimedSpan cluster_span(telemetry, "sched.private", "clustering");
  const Clustering clustering =
      cfg_.central_clustering ? builder.build_central(g) : builder.build_distributed(g);
  cluster_span.finish();
  out.precomputation_rounds += clustering.precomputation_rounds;
  out.num_layers = static_cast<std::uint32_t>(clustering.num_layers());
  out.hop_cap = clustering.hop_cap;

  // --- 2. Randomness sharing (Lemma 4.3). ---
  RandSharingConfig scfg = cfg_.sharing;
  scfg.seed = cfg_.seed;
  scfg.telemetry = telemetry;
  const RandomnessSharing sharing(scfg);
  TimedSpan sharing_span(telemetry, "sched.private", "rand_sharing");
  const SharedSeeds seeds = cfg_.central_sharing ? sharing.run_central(g, clustering)
                                                 : sharing.run_distributed(g, clustering);
  sharing_span.finish();
  out.precomputation_rounds += seeds.rounds;
  for (const auto& layer : seeds.layers) {
    for (const auto c : layer.complete) {
      if (!c) ++out.incomplete_seed_nodes;
    }
  }

  // --- Coverage diagnostics. ---
  {
    double total = 0;
    std::uint32_t min_cov = ~std::uint32_t{0};
    for (NodeId v = 0; v < n; ++v) {
      const auto cov = clustering.coverage(v, dilation);
      total += cov;
      min_cov = std::min(min_cov, cov);
      if (cov == 0) ++out.uncovered_nodes;
      if (telemetry != nullptr) {
        telemetry->record_value("sched.private.coverage", cov);
      }
    }
    out.mean_coverage = total / n;
    out.min_coverage = min_cov;
  }

  // --- 3. Delays from cluster-local shared randomness. ---
  TimedSpan delays_span(telemetry, "sched.private", "compute_delays");
  const auto delay = compute_delays(problem, clustering, seeds, &out.delay_support);
  delays_span.finish();

  // --- 4. Earliest-eligible-layer schedule (Lemma 4.4 de-dup fixed point).---
  // Precompute exec times: exec(a, v, r) = min over layers with
  // h'_l(v) >= r-1 of delay(l, v, a) + (r - 1).
  TimedSpan schedule_span(telemetry, "sched.private", "build_schedule");
  // Lemma 4.4 accounting: each scheduled (alg, node, round) slot had `prefix`
  // eligible layer copies; first-copy-wins suppresses all but one.
  std::uint64_t scheduled_slots = 0;
  std::uint64_t dedup_suppressed = 0;
  const auto layers = static_cast<std::uint32_t>(clustering.num_layers());
  const auto algos = problem.algorithm_ptrs();
  ScheduleTable exec_time(algos, n);
  for (NodeId v = 0; v < n; ++v) {
    // Layers sorted by h'(v) descending; min-delay prefix per algorithm.
    std::vector<std::uint32_t> order(layers);
    for (std::uint32_t l = 0; l < layers; ++l) order[l] = l;
    std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
      return clustering.layers[x].h_prime[v] > clustering.layers[y].h_prime[v];
    });
    for (std::size_t a = 0; a < k; ++a) {
      const std::uint32_t rounds = problem.algorithm(a).rounds();
      const auto slots = exec_time.row_mut(a, v);
      // Walk rounds from 1 upward; maintain the prefix of layers with
      // h' >= r - 1 and its min delay.
      std::uint32_t prefix = 0;
      std::uint32_t min_delay = kNeverScheduled;
      for (std::uint32_t r = rounds; r >= 1; --r) {
        // Extend the prefix with layers whose h' >= r-1 (descending h').
        while (prefix < layers &&
               clustering.layers[order[prefix]].h_prime[v] >= r - 1) {
          min_delay = std::min(min_delay, delay[order[prefix]][v][a]);
          ++prefix;
        }
        if (min_delay != kNeverScheduled) {
          slots[r - 1] = min_delay + (r - 1);
          ++scheduled_slots;
          dedup_suppressed += prefix - 1;
        }
        // (Recomputed per r: prefix only grows as r decreases.)
      }
    }
  }
  schedule_span.finish();

  ExecConfig ecfg;
  ecfg.telemetry = telemetry;
  ecfg.profiler = cfg_.profiler;
  ecfg.num_threads = cfg_.num_threads;
  Executor executor(g, ecfg);
  out.schedule = std::move(exec_time);
  {
    TimedSpan exec_span(telemetry, "sched.private", "execute");
    out.exec = executor.run(algos, out.schedule);
  }

  out.phase_len = cfg_.phase_len > 0
                      ? cfg_.phase_len
                      : std::max<std::uint32_t>(1, ceil_log2(std::max<NodeId>(2, n)));
  out.schedule_rounds = out.exec.adaptive_physical_rounds();
  out.fixed = out.exec.fixed_phase(out.phase_len);

  if (telemetry != nullptr) {
    telemetry->set_gauge("sched.private.num_layers", out.num_layers);
    telemetry->set_gauge("sched.private.hop_cap", out.hop_cap);
    telemetry->set_gauge("sched.private.delay_support", out.delay_support);
    telemetry->set_gauge("sched.private.phase_len", out.phase_len);
    telemetry->set_gauge("sched.private.mean_coverage", out.mean_coverage);
    telemetry->set_gauge("sched.private.schedule_rounds",
                         static_cast<double>(out.schedule_rounds));
    telemetry->add_counter("sched.private.precomputation_rounds",
                           out.precomputation_rounds);
    telemetry->add_counter("sched.private.uncovered_nodes", out.uncovered_nodes);
    telemetry->add_counter("sched.private.incomplete_seed_nodes",
                           out.incomplete_seed_nodes);
    telemetry->add_counter("sched.private.scheduled_slots", scheduled_slots);
    telemetry->add_counter("sched.private.dedup_suppressed", dedup_suppressed);
    telemetry->add_counter("sched.private.fixed_phase_overflows",
                           out.fixed.overflowing_phases);
    run_span.arg("schedule_rounds", static_cast<double>(out.schedule_rounds));
    run_span.arg("precomputation_rounds",
                 static_cast<double>(out.precomputation_rounds));
    run_span.arg("num_layers", out.num_layers);
  }
  return out;
}

std::vector<std::uint32_t> PrivateRandomnessScheduler::no_dedup_loads(
    const ScheduleProblem& problem, const Clustering& clustering,
    const std::vector<std::vector<std::vector<std::uint32_t>>>& delay) {
  const auto& g = problem.graph();
  const auto layers = static_cast<std::uint32_t>(clustering.num_layers());

  // Every eligible layer's copy of every solo cell, at that layer's delay.
  std::vector<LoadCell> copies;
  for (std::size_t a = 0; a < problem.size(); ++a) {
    for (const auto& c : problem.solo()[a].pattern) {
      const auto [lo, hi] = g.endpoints(c.edge / 2);
      const NodeId sender = (c.edge % 2 == 0) ? lo : hi;
      for (std::uint32_t l = 0; l < layers; ++l) {
        if (clustering.layers[l].h_prime[sender] >= c.big_round) {
          copies.push_back({delay[l][sender][a] + c.big_round, c.edge, c.load});
        }
      }
    }
  }
  coalesce_load_cells(copies, g.num_directed_edges());
  return round_max_loads(copies);
}

}  // namespace dasched
