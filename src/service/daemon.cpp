#include "service/daemon.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/analyzer.hpp"
#include "congest/simulator.hpp"
#include "sched/problem.hpp"
#include "telemetry/json.hpp"
#include "util/check.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"
#include "verify/schedule_verifier.hpp"

namespace dasched::service {
namespace {

constexpr std::uint64_t ceil_div_u64(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

std::uint32_t derive_phase_len(std::uint32_t requested, NodeId n) {
  if (requested != 0) return requested;
  // ceil(log2 n) with the same floor the schedulers use (n < 2 -> 1).
  const NodeId clamped = n < 2 ? 2 : n;
  return static_cast<std::uint32_t>(std::bit_width(clamped - 1));
}

/// Nearest-rank percentile of a sorted sample (q in (0, 100]).
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      ceil_div_u64(static_cast<std::uint64_t>(q * static_cast<double>(sorted.size())),
                   100));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

}  // namespace

const char* to_string(RejectCode code) {
  switch (code) {
    case RejectCode::kNone:
      return "none";
    case RejectCode::kQueueFull:
      return "queue-full";
    case RejectCode::kCongestionBudget:
      return "congestion-budget";
    case RejectCode::kVerifyFailed:
      return "verify-failed";
  }
  return "unknown";
}

SchedulerDaemon::SchedulerDaemon(const Graph& g, ServiceConfig cfg)
    : graph_(g),
      cfg_(cfg),
      phase_len_(derive_phase_len(cfg.phase_len, g.num_nodes())),
      budget_(cfg.congestion_budget != 0 ? cfg.congestion_budget : 2 * phase_len_),
      graph_fp_(graph_fingerprint(g)),
      cache_(cfg.cache_capacity),
      fp_state_(kFnvOffsetBasis) {
  DASCHED_CHECK_MSG(g.num_nodes() > 0, "service: graph must be non-empty");
  DASCHED_CHECK_MSG(cfg_.epoch_ticks >= 1, "service: epoch_ticks must be >= 1");
  DASCHED_CHECK_MSG(cfg_.max_queue >= 1, "service: max_queue must be >= 1");
  DASCHED_CHECK_MSG(budget_ >= 1, "service: congestion budget must be >= 1");
}

void SchedulerDaemon::count(std::string_view name, std::uint64_t delta) {
  if (cfg_.telemetry != nullptr && delta > 0) cfg_.telemetry->add_counter(name, delta);
}

SchedulerDaemon::Admitted SchedulerDaemon::acquire_profile(Pending pending) {
  Admitted adm;
  adm.key = ProfileKey{pending.request.spec.fingerprint(), graph_fp_};
  if (!pending.force_profile) {
    if (const JobProfile* cached = cache_.find(adm.key)) {
      // Shape guard: a profile recorded on a different topology would make
      // the congestion accounting below read out of bounds. Anything subtler
      // (wrong rounds, wrong loads, wrong outputs) is deliberately left for
      // the verifier gate -- the cache is data, the gate is the authority.
      if (cached->solo.num_directed_edges == graph_.num_directed_edges() &&
          is_load_surface(cached->solo.pattern, graph_.num_directed_edges())) {
        adm.profile = *cached;  // copy: inserts below may evict this entry
        adm.cache_hit = true;
        adm.pending = std::move(pending);
        return adm;
      }
      cache_.erase(adm.key);
    }
  }
  const auto profile_start = std::chrono::steady_clock::now();
  auto algorithm = make_algorithm(pending.request.spec);

  // Static admission: derive the solo ground truth from the algorithm's
  // pattern certificate instead of executing it. All JobSpec kinds declare
  // exact footprints today, but the executed path stays as the fallback for
  // future kinds with envelope/opaque footprints.
  SoloRunResult solo;
  bool from_static = false;
  if (cfg_.static_admission) {
    analysis::PatternCertificate cert = analysis::analyze(graph_, *algorithm);
    if (cert.exact() && cert.has_outputs) {
      solo = cert.to_solo();
      from_static = true;
    }
  }
  if (!from_static) {
    solo = Simulator(graph_, cfg_.max_payload_words, cfg_.telemetry).run(*algorithm);
  }
  if (from_static) {
    ++stats_.profiles_static;
    count("service.profiles_static");
  } else {
    ++stats_.profiles_executed;
    count("service.profiles_executed");
  }
  stats_.profile_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - profile_start)
          .count();

  adm.profile.rounds = algorithm->rounds();
  adm.profile.max_edge_load = max_edge_total(solo.pattern, solo.num_directed_edges);
  adm.profile.total_messages = solo.total_messages;
  adm.profile.solo = std::move(solo);
  cache_.insert(adm.key, adm.profile);
  adm.cache_hit = false;
  adm.pending = std::move(pending);
  return adm;
}

void SchedulerDaemon::compose_and_execute(std::uint64_t tick, ServiceResult& result) {
  if (queue_.empty()) return;
  ++stats_.composes;
  const std::uint64_t epoch = epoch_++;

  // Fairness order: tenants with the fewest admitted jobs go first, ties
  // broken by arrival then job id. The snapshot is taken once so the sort
  // key is stable while this pass itself admits jobs.
  const auto snapshot = tenant_admitted_;
  std::stable_sort(queue_.begin(), queue_.end(),
                   [&snapshot](const Pending& a, const Pending& b) {
                     const auto admitted_of = [&snapshot](std::uint32_t tenant) {
                       const auto it = snapshot.find(tenant);
                       return it == snapshot.end() ? std::uint64_t{0} : it->second;
                     };
                     const auto ka = admitted_of(a.request.tenant);
                     const auto kb = admitted_of(b.request.tenant);
                     if (ka != kb) return ka < kb;
                     if (a.request.arrival_tick != b.request.arrival_tick)
                       return a.request.arrival_tick < b.request.arrival_tick;
                     return a.request.job_id < b.request.job_id;
                   });

  // Incremental composition: fold jobs into the live load grid one at a
  // time. edge_acc holds the summed solo loads of everything accepted so
  // far; grid[t][d] the composed per-cell loads. Accepted jobs keep their
  // delays -- only the newcomer draws fresh randomness.
  std::vector<Admitted> cohort;
  std::vector<Pending> deferred;
  std::vector<std::uint64_t> edge_acc(graph_.num_directed_edges(), 0);
  std::vector<std::vector<std::uint32_t>> grid;  // [big_round][directed edge]

  for (auto& pending : queue_) {
    Admitted adm = acquire_profile(std::move(pending));
    const std::vector<LoadCell>& pattern = adm.profile.solo.pattern;

    // Offered congestion including this job: the Theorem 1.1 delay range is
    // ceil(congestion / phase_len) big-rounds.
    std::vector<std::uint64_t> offered_acc = edge_acc;
    add_edge_totals(pattern, offered_acc);
    const std::uint32_t offered = max_edge_total(offered_acc);
    const auto range = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, ceil_div_u64(offered, phase_len_)));
    const std::uint32_t delay = static_cast<std::uint32_t>(
        splitmix64(seed_combine(cfg_.delay_seed, adm.pending.request.job_id, epoch)) %
        range);

    // Trial fold: would any (big-round, edge) cell exceed the phase budget?
    const bool overflow = std::any_of(pattern.begin(), pattern.end(), [&](const LoadCell& c) {
      const std::size_t t = std::size_t{delay} + c.big_round;
      // Untouched rows hold zero load.
      return (t < grid.size() ? grid[t][c.edge] : 0u) + c.load > budget_;
    });

    if (overflow) {
      ++stats_.deferrals;
      count("service.deferrals");
      JobOutcome& out = result.outcomes[adm.pending.request.job_id];
      ++out.deferrals;
      if (adm.pending.deferrals >= cfg_.max_deferrals) {
        out.rejected = RejectCode::kCongestionBudget;
        ++stats_.rejected_congestion;
        count("service.rejected.congestion_budget");
      } else {
        ++adm.pending.deferrals;
        deferred.push_back(std::move(adm.pending));
      }
      continue;
    }

    // Commit the fold.
    if (!pattern.empty() && grid.size() < std::size_t{delay} + pattern.back().big_round + 1) {
      grid.resize(std::size_t{delay} + pattern.back().big_round + 1,
                  std::vector<std::uint32_t>(graph_.num_directed_edges(), 0));
    }
    for (const auto& c : pattern) grid[delay + c.big_round][c.edge] += c.load;
    edge_acc = std::move(offered_acc);
    adm.delay = delay;
    JobOutcome& out = result.outcomes[adm.pending.request.job_id];
    out.cache_hit = adm.cache_hit;
    out.delay = delay;
    out.epoch = epoch;
    cohort.push_back(std::move(adm));
  }
  queue_ = std::move(deferred);

  if (!cohort.empty()) run_cohort(std::move(cohort), tick, result);
}

void SchedulerDaemon::run_cohort(std::vector<Admitted> cohort, std::uint64_t tick,
                                 ServiceResult& result) {
  verify::VerifyOptions opts;
  opts.congestion_budget = budget_;
  opts.phase_len = phase_len_;
  opts.telemetry = cfg_.telemetry;

  // The gate loop: verify the composed schedule; on failure, evict and
  // requeue the offending jobs (re-profiled from scratch next epoch) and
  // re-verify the remainder with their delays untouched.
  while (!cohort.empty()) {
    ScheduleProblem problem(graph_);
    std::vector<SoloRunResult> solos;
    std::vector<std::uint32_t> delays;
    solos.reserve(cohort.size());
    delays.reserve(cohort.size());
    for (auto& adm : cohort) {
      problem.add(make_algorithm(adm.pending.request.spec));
      solos.push_back(adm.profile.solo);
      delays.push_back(adm.delay);
    }
    problem.adopt_solo(std::move(solos));
    const auto algorithms = problem.algorithm_ptrs();
    const ScheduleTable table =
        ScheduleTable::from_delays(algorithms, graph_.num_nodes(), delays);

    ++stats_.gate_runs;
    count("service.gate_runs");
    const verify::Report report = verify::check_schedule(problem, table, opts);
    if (!report.ok()) {
      ++stats_.gate_rejections;
      count("service.gate_rejections");
      // Attribute errors to jobs; unattributed errors condemn the whole
      // cohort (defensive -- every gate error today carries a location).
      std::set<std::size_t> offenders;
      bool unattributed = false;
      for (const auto& finding : report.findings()) {
        if (finding.severity != verify::Severity::kError) continue;
        if (finding.location.alg == verify::Location::kNone) {
          unattributed = true;
        } else {
          offenders.insert(static_cast<std::size_t>(finding.location.alg));
        }
      }
      if (unattributed || offenders.empty()) {
        for (std::size_t a = 0; a < cohort.size(); ++a) offenders.insert(a);
      }
      // Remove offenders back-to-front so indices stay valid.
      for (auto it = offenders.rbegin(); it != offenders.rend(); ++it) {
        Admitted adm = std::move(cohort[*it]);
        cohort.erase(cohort.begin() + static_cast<std::ptrdiff_t>(*it));
        cache_.erase(adm.key);  // whatever the gate saw, stop serving it
        JobOutcome& out = result.outcomes[adm.pending.request.job_id];
        if (adm.pending.force_profile) {
          // Already re-profiled once; the job itself is unschedulable here.
          out.rejected = RejectCode::kVerifyFailed;
          ++stats_.rejected_verify;
          count("service.rejected.verify_failed");
        } else {
          adm.pending.force_profile = true;
          ++adm.pending.deferrals;
          ++out.deferrals;
          ++stats_.requeues_verify;
          count("service.requeues.verify");
          queue_.push_back(std::move(adm.pending));
        }
      }
      continue;  // re-gate the surviving cohort
    }

    // Admitted: run it. The gate above already proved this exact table, so
    // the executor gets no admission gate of its own.
    ExecConfig ec;
    ec.max_payload_words = cfg_.max_payload_words;
    ec.tile_bytes = cfg_.tile_bytes;
    ec.num_threads = cfg_.num_threads;
    ec.telemetry = cfg_.telemetry;
    Executor executor(graph_, ec);
    const ExecutionResult exec = executor.run(algorithms, table);

    ++stats_.executions;
    stats_.total_big_rounds += exec.num_big_rounds;
    stats_.total_messages += exec.total_messages;
    fp_state_ = fnv1a_mix(fp_state_, result_fingerprint(exec));

    for (std::size_t a = 0; a < cohort.size(); ++a) {
      const Admitted& adm = cohort[a];
      JobOutcome& out = result.outcomes[adm.pending.request.job_id];
      out.admitted = true;
      bool complete = true;
      for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
        if (!exec.completed[a][v] ||
            exec.outputs[a][v] != adm.profile.solo.outputs[v]) {
          complete = false;
          break;
        }
      }
      out.completed = complete;
      out.finish_tick = tick + 1;
      out.latency_ticks = out.finish_tick - adm.pending.request.arrival_tick;
      ++tenant_admitted_[adm.pending.request.tenant];
      ++stats_.admitted;
      count("service.jobs_admitted");
      if (complete) {
        ++stats_.completed;
        count("service.jobs_completed");
        if (cfg_.telemetry != nullptr) {
          cfg_.telemetry->record_value("service.schedule_latency_ticks",
                                       static_cast<double>(out.latency_ticks));
        }
      }
      if (adm.cache_hit) count("service.cache_hits");
    }
    return;
  }
}

ServiceResult SchedulerDaemon::serve(const std::vector<JobRequest>& stream) {
  const auto start = std::chrono::steady_clock::now();
  TimedSpan span(cfg_.telemetry, "service", "serve");

  ServiceResult result;
  result.outcomes.resize(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    DASCHED_CHECK_MSG(stream[i].job_id == i, "service: stream job ids must be dense");
    result.outcomes[i].request = stream[i];
  }

  std::size_t next = 0;  // next arrival to admit
  std::uint64_t tick = 0;
  while (next < stream.size() || !queue_.empty()) {
    // Admit this tick's arrivals.
    while (next < stream.size() && stream[next].arrival_tick <= tick) {
      const JobRequest& request = stream[next++];
      ++stats_.arrived;
      count("service.jobs_arrived");
      if (queue_.size() >= cfg_.max_queue) {
        result.outcomes[request.job_id].rejected = RejectCode::kQueueFull;
        ++stats_.rejected_queue_full;
        count("service.rejected.queue_full");
        continue;
      }
      queue_.push_back(Pending{request, 0, false});
      stats_.peak_queue_depth = std::max<std::uint64_t>(stats_.peak_queue_depth,
                                                        queue_.size());
    }

    // Compose at epoch boundaries; once the stream drains, compose every
    // tick so the queue runs dry (bounded by max_deferrals per job).
    const bool drained = next >= stream.size();
    if ((tick + 1) % cfg_.epoch_ticks == 0 || drained) {
      compose_and_execute(tick, result);
    }
    ++tick;
  }
  stats_.ticks = tick;
  stats_.cache = cache_.stats();

  // Fold every outcome into the fingerprint: the digest pins the full
  // trajectory (who was admitted when, with which delay, to what end), not
  // just the execution outputs.
  std::uint64_t fp = fp_state_;
  for (const JobOutcome& out : result.outcomes) {
    fp = fnv1a_mix(fp, out.request.job_id);
    fp = fnv1a_mix(fp, static_cast<std::uint64_t>(out.rejected));
    fp = fnv1a_mix(fp, (std::uint64_t{out.admitted} << 2) |
                           (std::uint64_t{out.completed} << 1) |
                           std::uint64_t{out.cache_hit});
    fp = fnv1a_mix(fp, out.deferrals);
    fp = fnv1a_mix(fp, out.delay);
    fp = fnv1a_mix(fp, out.finish_tick);
  }
  result.fingerprint = fp;

  std::vector<std::uint64_t> latencies;
  for (const JobOutcome& out : result.outcomes) {
    if (out.completed) latencies.push_back(out.latency_ticks);
  }
  std::sort(latencies.begin(), latencies.end());
  result.latency_p50 = nearest_rank(latencies, 50.0);
  result.latency_p90 = nearest_rank(latencies, 90.0);
  result.latency_p99 = nearest_rank(latencies, 99.0);
  if (!latencies.empty()) {
    std::uint64_t sum = 0;
    for (const std::uint64_t l : latencies) sum += l;
    result.latency_mean_ticks =
        static_cast<double>(sum) / static_cast<double>(latencies.size());
  }

  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.stats = stats_;

  if (cfg_.telemetry != nullptr) {
    cfg_.telemetry->set_gauge("service.peak_queue_depth",
                              static_cast<double>(stats_.peak_queue_depth));
    cfg_.telemetry->set_gauge("service.cache_hit_rate", result.cache_hit_rate());
    count("service.cache_misses", stats_.cache.misses);
    count("service.cache_evictions", stats_.cache.evictions);
    count("service.cache_invalidations", stats_.cache.invalidations);
    count("service.epochs", stats_.composes);
  }
  return result;
}

std::string ServiceResult::to_json(bool include_timing) const {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.kv("schema", "dasched.service.v1");

  w.key("jobs");
  w.begin_object();
  w.kv("arrived", static_cast<double>(stats.arrived));
  w.kv("admitted", static_cast<double>(stats.admitted));
  w.kv("completed", static_cast<double>(stats.completed));
  w.kv("rejected", static_cast<double>(stats.rejected()));
  w.kv("rejected_queue_full", static_cast<double>(stats.rejected_queue_full));
  w.kv("rejected_congestion", static_cast<double>(stats.rejected_congestion));
  w.kv("rejected_verify", static_cast<double>(stats.rejected_verify));
  w.kv("deferrals", static_cast<double>(stats.deferrals));
  w.kv("requeues_verify", static_cast<double>(stats.requeues_verify));
  w.end_object();

  w.key("throughput");
  w.begin_object();
  w.kv("ticks", static_cast<double>(stats.ticks));
  w.kv("epochs", static_cast<double>(stats.composes));
  w.kv("executions", static_cast<double>(stats.executions));
  w.kv("total_big_rounds", static_cast<double>(stats.total_big_rounds));
  w.kv("total_messages", static_cast<double>(stats.total_messages));
  if (include_timing) {
    w.kv("wall_seconds", stats.wall_seconds);
    w.kv("jobs_per_sec", jobs_per_sec());
    w.kv("messages_per_sec",
         stats.wall_seconds > 0.0
             ? static_cast<double>(stats.total_messages) / stats.wall_seconds
             : 0.0);
  }
  w.end_object();

  w.key("latency_ticks");
  w.begin_object();
  w.kv("p50", static_cast<double>(latency_p50));
  w.kv("p90", static_cast<double>(latency_p90));
  w.kv("p99", static_cast<double>(latency_p99));
  w.kv("mean", latency_mean_ticks);
  w.end_object();

  w.key("queue");
  w.begin_object();
  w.kv("peak_depth", static_cast<double>(stats.peak_queue_depth));
  w.end_object();

  w.key("profiling");
  w.begin_object();
  w.kv("static", static_cast<double>(stats.profiles_static));
  w.kv("executed", static_cast<double>(stats.profiles_executed));
  if (include_timing) w.kv("profile_seconds", stats.profile_seconds);
  w.end_object();

  w.key("cache");
  w.begin_object();
  w.kv("hits", static_cast<double>(stats.cache.hits));
  w.kv("misses", static_cast<double>(stats.cache.misses));
  w.kv("evictions", static_cast<double>(stats.cache.evictions));
  w.kv("invalidations", static_cast<double>(stats.cache.invalidations));
  w.kv("hit_rate", cache_hit_rate());
  w.end_object();

  w.key("verify");
  w.begin_object();
  w.kv("gate_runs", static_cast<double>(stats.gate_runs));
  w.kv("gate_rejections", static_cast<double>(stats.gate_rejections));
  w.end_object();

  // Hex string: a u64 digest does not survive a double round-trip.
  char hex[19];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  w.kv("fingerprint", std::string_view(hex));
  w.end_object();
  return os.str();
}

}  // namespace dasched::service
