#include "verify/schedule_verifier.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/math.hpp"

namespace dasched::verify {

namespace {

std::string format_msg(const std::ostringstream& os) { return os.str(); }

}  // namespace

Report check_schedule(const ScheduleProblem& problem, const ScheduleTable& schedule,
                      const VerifyOptions& opts,
                      std::vector<LoadCell>* static_loads) {
  if (static_loads != nullptr) static_loads->clear();
  DASCHED_CHECK_MSG(problem.solo_done(),
                    "check_schedule needs solo patterns: call problem.run_solo() first");
  TimedSpan span(opts.telemetry, "verify", "check_schedule");

  Report report;
  report.max_findings_per_code = opts.max_findings_per_code;

  const Graph& g = problem.graph();
  const NodeId n = g.num_nodes();
  const std::size_t k = problem.size();

  // --- Dimensions: everything else indexes through these, so a mismatch is
  // terminal for the remaining checks. ---
  bool dimensions_ok = schedule.num_algorithms() == k && schedule.num_nodes() == n;
  if (!dimensions_ok) {
    std::ostringstream os;
    os << "schedule table is " << schedule.num_algorithms() << " algorithms x "
       << schedule.num_nodes() << " nodes; the problem is " << k << " x " << n;
    report.add({Severity::kError, kCodeDimensionMismatch, {}, format_msg(os), {}});
  } else {
    for (std::size_t a = 0; a < k; ++a) {
      if (schedule.rounds(a) != problem.algorithm(a).rounds()) {
        std::ostringstream os;
        os << "schedule allots " << schedule.rounds(a) << " rounds; algorithm has "
           << problem.algorithm(a).rounds();
        Location loc;
        loc.alg = static_cast<std::int64_t>(a);
        report.add({Severity::kError, kCodeDimensionMismatch, loc, format_msg(os), {}});
        dimensions_ok = false;
      }
    }
  }
  if (!dimensions_ok) return report;

  // --- Solo-profile consistency: every remaining check (and
  // problem.congestion() itself) indexes through the solo patterns, so a
  // profile that disagrees with the declared algorithm geometry is terminal
  // too. Solo results produced by run_solo() always agree; this catches
  // *adopted* profiles (ScheduleProblem::adopt_solo) that went stale -- a
  // poisoned service cache entry whose pattern belongs to a different
  // program or graph -- before they can misdirect the message-level checks.
  for (std::size_t a = 0; a < k; ++a) {
    const auto& solo = problem.solo()[a];
    std::ostringstream os;
    if (solo.num_directed_edges != g.num_directed_edges()) {
      os << "solo pattern covers " << solo.num_directed_edges
         << " directed edges; the graph has " << g.num_directed_edges();
    } else if (!is_load_surface(solo.pattern, g.num_directed_edges())) {
      os << "solo pattern is not a load surface over the graph's " << g.num_directed_edges()
         << " directed edges (unsorted, duplicated, empty or out-of-range cells)";
    } else if (!solo.pattern.empty() &&
               solo.pattern.back().big_round >= problem.algorithm(a).rounds()) {
      os << "solo pattern sends in round " << std::uint64_t{solo.pattern.back().big_round} + 1
         << "; the algorithm declares " << problem.algorithm(a).rounds() << " rounds";
    } else if (solo.outputs.size() != n) {
      os << "solo outputs cover " << solo.outputs.size() << " nodes; the graph has "
         << n;
    } else {
      continue;
    }
    os << " (stale adopted profile?)";
    Location loc;
    loc.alg = static_cast<std::int64_t>(a);
    report.add({Severity::kError, kCodeDimensionMismatch, loc, format_msg(os), {}});
    dimensions_ok = false;
  }
  if (!dimensions_ok) return report;

  report.measured.congestion = problem.congestion();
  report.measured.dilation = problem.dilation();
  report.measured.phase_len =
      opts.phase_len > 0
          ? opts.phase_len
          : static_cast<std::uint32_t>(std::max(1, ceil_log2(std::max<NodeId>(2, n))));

  // --- Per-(alg, node) row invariants: gap-free prefix, strictly increasing
  // big-rounds, and (optionally) Lemma 4.4 implied-delay block membership and
  // monotonicity. ---
  std::uint32_t max_slot = 0;
  bool any_slot = false;
  for (std::size_t a = 0; a < k; ++a) {
    for (NodeId v = 0; v < n; ++v) {
      const auto slots = schedule.row(a, v);
      std::uint32_t prev_slot = 0;
      std::int64_t prev_delay = -1;
      bool row_ended = false;
      bool row_truncated = false;
      for (std::uint32_t r = 1; r <= slots.size(); ++r) {
        const std::uint32_t t = slots[r - 1];
        Location loc;
        loc.alg = static_cast<std::int64_t>(a);
        loc.node = v;
        loc.vround = r;
        if (t == kNeverScheduled) {
          row_ended = true;
          row_truncated = true;
          continue;
        }
        loc.big_round = t;
        ++report.measured.scheduled_slots;
        any_slot = true;
        max_slot = std::max(max_slot, t);
        if (row_ended) {
          std::ostringstream os;
          os << "round " << r << " is scheduled after an unscheduled earlier round";
          report.add({Severity::kError, kCodeGap, loc, format_msg(os), {}});
          // Keep checking the rest of the row, but the prefix is broken.
          row_ended = false;
        }
        if (r >= 2 && prev_slot != kNeverScheduled && t <= prev_slot &&
            slots[r - 2] != kNeverScheduled) {
          std::ostringstream os;
          os << "big-round " << t << " does not strictly follow round " << (r - 1)
             << "'s big-round " << prev_slot;
          report.add({Severity::kError, kCodeOrder, loc, format_msg(os),
                      {{"slot", static_cast<double>(t)},
                       {"prev_slot", static_cast<double>(prev_slot)}}});
        }
        // Implied start delay of this round: slot - (r - 1). Negative only
        // when ordering is already broken, so clamp through int64.
        const std::int64_t implied = static_cast<std::int64_t>(t) - (r - 1);
        if (opts.delay_support > 0 &&
            (implied < 0 || implied >= static_cast<std::int64_t>(opts.delay_support))) {
          std::ostringstream os;
          os << "implied start delay " << implied << " outside the block support [0, "
             << opts.delay_support << ")";
          report.add({Severity::kError, kCodeBlockDelay, loc, format_msg(os),
                      {{"implied_delay", static_cast<double>(implied)},
                       {"delay_support", static_cast<double>(opts.delay_support)}}});
        }
        if (opts.check_delay_monotonic && prev_delay >= 0 && implied < prev_delay) {
          std::ostringstream os;
          os << "implied start delay drops from " << prev_delay << " to " << implied
             << ": the eligible-layer prefix can only shrink as rounds grow";
          report.add({Severity::kError, kCodeBlockMonotonic, loc, format_msg(os),
                      {{"implied_delay", static_cast<double>(implied)},
                       {"prev_implied_delay", static_cast<double>(prev_delay)}}});
        }
        prev_delay = implied;
        prev_slot = t;
      }
      if (row_truncated) ++report.measured.truncated_rows;
    }
  }

  // --- Message-level invariants from the solo patterns: causality (and the
  // retry-stretch headroom), missing producers, and the static load
  // accounting behind the congestion check. A message exists in the scheduled
  // run iff its producer slot is scheduled (Lemma 4.4 discard rule). ---
  const std::uint32_t headroom =
      opts.retry_budget == 0 ? 1u : (1u << opts.retry_budget);
  // The solo cells shifted to their producers' big-rounds.
  std::vector<LoadCell> loads;
  std::size_t num_cells = 0;
  for (const auto& solo : problem.solo()) num_cells += solo.pattern.size();
  loads.reserve(num_cells);
  for (std::size_t a = 0; a < k; ++a) {
    const std::uint32_t rounds = problem.algorithm(a).rounds();
    for (const LoadCell& cell : problem.solo()[a].pattern) {
      const std::uint32_t r = cell.big_round + 1;
      const std::uint32_t d = cell.edge;
      const auto [lo, hi] = g.endpoints(d / 2);
      const NodeId sender = (d % 2 == 0) ? lo : hi;
      const NodeId receiver = (d % 2 == 0) ? hi : lo;
      const std::uint32_t producer_slot = schedule.at(a, sender, r);
      // The consumer executes virtual round r + 1; for r == rounds the
      // consumer is on_finish, which always runs after the whole schedule.
      const std::uint32_t consumer_slot =
          r + 1 <= rounds ? schedule.at(a, receiver, r + 1) : kNeverScheduled;
      if (producer_slot == kNeverScheduled) {
        // Truncated producer: the message is discarded. Legal only if the
        // consumer round is truncated too (causally closed discards).
        if (consumer_slot != kNeverScheduled) {
          Location loc;
          loc.alg = static_cast<std::int64_t>(a);
          loc.node = receiver;
          loc.vround = r + 1;
          loc.big_round = consumer_slot;
          loc.edge = d;
          std::ostringstream os;
          os << "consumer round is scheduled but its producer (node " << sender
             << ", round " << r << ") is truncated: discards are not causally closed";
          report.add({Severity::kError, kCodeMissingProducer, loc, format_msg(os), {}});
        }
        continue;
      }
      loads.push_back({producer_slot, d, cell.load});
      if (consumer_slot == kNeverScheduled) continue;  // discard rule: no constraint
      report.measured.checked_messages += cell.load;
      if (consumer_slot <= producer_slot) {
        Location loc;
        loc.alg = static_cast<std::int64_t>(a);
        loc.node = receiver;
        loc.vround = r + 1;
        loc.big_round = consumer_slot;
        loc.edge = d;
        std::ostringstream os;
        os << "consumer big-round " << consumer_slot
           << " is not strictly after producer big-round " << producer_slot;
        report.add({Severity::kError, kCodeCausality, loc, format_msg(os),
                    {{"producer_slot", static_cast<double>(producer_slot)},
                     {"consumer_slot", static_cast<double>(consumer_slot)}}});
      } else if (consumer_slot - producer_slot < headroom) {
        // Static re-proof of the 2^R stretch lemma (fault/reliable.hpp):
        // the last retransmission lands at producer + 2^R - 1, so the
        // consumer needs a gap of at least 2^R big-rounds.
        Location loc;
        loc.alg = static_cast<std::int64_t>(a);
        loc.node = receiver;
        loc.vround = r + 1;
        loc.big_round = consumer_slot;
        loc.edge = d;
        std::ostringstream os;
        os << "gap of " << (consumer_slot - producer_slot) << " big-rounds < 2^"
           << opts.retry_budget << ": a final retransmission at "
           << (producer_slot + headroom - 1) << " could land after the consumer";
        report.add({Severity::kError, kCodeRetryHeadroom, loc, format_msg(os),
                    {{"gap", static_cast<double>(consumer_slot - producer_slot)},
                     {"required", static_cast<double>(headroom)}}});
      }
    }
  }

  // --- Static per-edge per-big-round loads: coalesce the shifted cells into
  // one surface. Equal to the executor's measured loads on a reliable
  // network. ---
  coalesce_load_cells(loads, g.num_directed_edges());
  for (const LoadCell& cell : loads) {
    report.measured.max_edge_load = std::max(report.measured.max_edge_load, cell.load);
    if (opts.congestion_budget > 0 && cell.load > opts.congestion_budget) {
      Location loc;
      loc.big_round = cell.big_round;
      loc.edge = cell.edge;
      std::ostringstream os;
      os << cell.load
         << " messages on one directed edge in one big-round exceed the phase budget "
         << opts.congestion_budget;
      report.add({Severity::kError, kCodeCongestionOverrun, loc, format_msg(os),
                  {{"load", static_cast<double>(cell.load)},
                   {"budget", static_cast<double>(opts.congestion_budget)}}});
    }
  }
  if (static_loads != nullptr) *static_loads = std::move(loads);

  // --- Total length vs the O(congestion + dilation log n) budget. ---
  report.measured.big_rounds = any_slot ? max_slot + 1 : 0;
  const double physical =
      static_cast<double>(report.measured.big_rounds) * report.measured.phase_len;
  const double budget_denominator =
      static_cast<double>(report.measured.congestion) +
      static_cast<double>(report.measured.dilation) *
          std::max(1, ceil_log2(std::max<NodeId>(2, n)));
  report.measured.length_ratio =
      budget_denominator > 0 ? physical / budget_denominator : 0.0;
  if (opts.length_budget_factor > 0.0 &&
      report.measured.length_ratio > opts.length_budget_factor) {
    std::ostringstream os;
    os << "schedule length " << physical << " physical rounds exceeds "
       << opts.length_budget_factor << " x (congestion + dilation log n) = "
       << opts.length_budget_factor * budget_denominator;
    report.add({Severity::kError, kCodeLengthBudget, {}, format_msg(os),
                {{"length_ratio", report.measured.length_ratio},
                 {"budget_factor", opts.length_budget_factor}}});
  }

  // --- Info findings: truncation count and the measured constants. ---
  if (report.measured.truncated_rows > 0) {
    std::ostringstream os;
    os << report.measured.truncated_rows
       << " (alg, node) rows have truncated round prefixes (Lemma 4.4 discards)";
    report.add({Severity::kInfo, kCodeTruncation, {}, format_msg(os),
                {{"truncated_rows", static_cast<double>(report.measured.truncated_rows)}}});
  }
  {
    std::ostringstream os;
    os << "length = " << report.measured.big_rounds << " big-rounds x "
       << report.measured.phase_len << " rounds = " << report.measured.length_ratio
       << " x (congestion + dilation log n); static max edge load "
       << report.measured.max_edge_load;
    report.add({Severity::kInfo, kCodeMeasured, {}, format_msg(os),
                {{"congestion", static_cast<double>(report.measured.congestion)},
                 {"dilation", static_cast<double>(report.measured.dilation)},
                 {"phase_len", static_cast<double>(report.measured.phase_len)},
                 {"big_rounds", static_cast<double>(report.measured.big_rounds)},
                 {"max_edge_load", static_cast<double>(report.measured.max_edge_load)},
                 {"length_ratio", report.measured.length_ratio}}});
  }

  if (opts.telemetry != nullptr) {
    opts.telemetry->add_counter("verify.checked_slots", report.measured.scheduled_slots);
    opts.telemetry->add_counter("verify.checked_messages",
                                report.measured.checked_messages);
    opts.telemetry->add_counter("verify.findings.errors", report.errors());
    opts.telemetry->add_counter("verify.findings.warnings", report.warnings());
    opts.telemetry->add_counter("verify.findings.infos", report.infos());
    opts.telemetry->set_gauge("verify.static_max_edge_load",
                              report.measured.max_edge_load);
    opts.telemetry->set_gauge("verify.big_rounds", report.measured.big_rounds);
    opts.telemetry->set_gauge("verify.length_ratio", report.measured.length_ratio);
    span.arg("slots", static_cast<double>(report.measured.scheduled_slots));
    span.arg("messages", static_cast<double>(report.measured.checked_messages));
    span.arg("errors", static_cast<double>(report.errors()));
  }
  return report;
}

bool VerifyingAdmission::admit(std::span<const DistributedAlgorithm* const> algorithms,
                               const ScheduleTable& schedule) const {
  // The gate verifies the problem it was built for; a different algorithm set
  // is itself an admission failure (caught as a dimension mismatch unless the
  // counts coincide, so check identity first).
  DASCHED_CHECK_EQ(algorithms.size(), problem_->size(),
                   "admission gate: algorithm set does not match the problem");
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    DASCHED_CHECK_MSG(algorithms[a] == &problem_->algorithm(a),
                      "admission gate: algorithm set does not match the problem");
  }
  last_ = check_schedule(*problem_, schedule, opts_);
  return last_.ok();
}

}  // namespace dasched::verify
