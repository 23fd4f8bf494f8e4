#include "verify/certificate_check.hpp"

#include <algorithm>
#include <sstream>

namespace dasched::verify {

namespace {

Location at(std::int64_t alg_index) {
  Location loc;
  loc.alg = alg_index;
  return loc;
}

}  // namespace

bool check_certificate(const analysis::PatternCertificate& cert, const SoloRunResult& solo,
                       Report& report, std::int64_t alg_index) {
  const std::uint64_t errors_before = report.errors();
  const std::uint32_t num_directed = solo.num_directed_edges;

  // --- Dimensions: everything below indexes through these. ---
  bool dims_ok = true;
  if (cert.exact() && cert.num_directed_edges != num_directed) {
    std::ostringstream os;
    os << "certificate surface covers " << cert.num_directed_edges
       << " directed edges; the executed pattern has " << num_directed;
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (dims_ok && (!is_load_surface(solo.pattern, num_directed) ||
                  (cert.exact() && !is_load_surface(cert.pattern, num_directed)))) {
    std::ostringstream os;
    os << "a load surface is unsorted, has an empty cell or leaves the " << num_directed
       << " directed edges";
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (cert.has_outputs && cert.outputs.size() != solo.outputs.size()) {
    std::ostringstream os;
    os << "certificate outputs cover " << cert.outputs.size() << " nodes; the executed run has "
       << solo.outputs.size();
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (cert.last_message_round > cert.rounds) {
    std::ostringstream os;
    os << "certificate sends in round " << cert.last_message_round
       << "; the algorithm declares " << cert.rounds << " rounds";
    report.add({Severity::kError, kCodeCertificateDims, at(alg_index), os.str(), {}});
    dims_ok = false;
  }
  if (!dims_ok) return false;

  std::uint64_t cells_compared = 0;
  if (cert.exact()) {
    // Cell-for-cell equality over the union of both surfaces.
    merge_load_cells(cert.pattern, solo.pattern,
                     [&](std::uint32_t big_round, std::uint32_t edge, std::uint32_t certified,
                         std::uint32_t executed) {
                       ++cells_compared;
                       if (certified == executed) return;
                       std::ostringstream os;
                       os << "certified load " << certified << " != executed load " << executed;
                       Location loc = at(alg_index);
                       loc.vround = big_round + 1;
                       loc.edge = edge;
                       report.add({Severity::kError, kCodeCertificateCellMismatch, loc, os.str(),
                                   {{"certified", static_cast<double>(certified)},
                                    {"executed", static_cast<double>(executed)}}});
                     });
    if (cert.has_outputs) {
      for (NodeId v = 0; v < solo.outputs.size(); ++v) {
        if (cert.outputs[v] == solo.outputs[v]) continue;
        std::ostringstream os;
        os << "derived output (" << cert.outputs[v].size() << " words) != executed output ("
           << solo.outputs[v].size() << " words)";
        Location loc = at(alg_index);
        loc.node = static_cast<std::int64_t>(v);
        report.add({Severity::kError, kCodeCertificateOutputMismatch, loc, os.str(), {}});
      }
    }
  } else {
    // Sound bounds: the executed run must stay inside the envelope.
    const auto bound_violation = [&](const char* what, std::uint64_t executed,
                                     std::uint64_t certified, Location loc) {
      std::ostringstream os;
      os << what << " " << executed << " exceeds certified bound " << certified;
      report.add({Severity::kError, kCodeCertificateBoundViolation, loc, os.str(),
                  {{"executed", static_cast<double>(executed)},
                   {"certified", static_cast<double>(certified)}}});
    };
    if (solo.last_message_round > cert.last_message_round) {
      bound_violation("last message round", solo.last_message_round, cert.last_message_round,
                      at(alg_index));
    }
    if (solo.total_messages > cert.total_messages) {
      bound_violation("total messages", solo.total_messages, cert.total_messages,
                      at(alg_index));
    }
    std::vector<std::uint64_t> edge_totals(num_directed, 0);
    add_edge_totals(solo.pattern, edge_totals);
    for (std::uint32_t d = 0; d < num_directed; ++d) {
      ++cells_compared;
      if (edge_totals[d] > cert.per_edge_bound) {
        Location loc = at(alg_index);
        loc.edge = d;
        bound_violation("per-edge load", edge_totals[d], cert.per_edge_bound, loc);
      }
    }
    for (const auto& c : solo.pattern) {
      ++cells_compared;
      if (c.load > cert.per_cell_bound) {
        Location loc = at(alg_index);
        loc.vround = c.big_round + 1;
        loc.edge = c.edge;
        bound_violation("cell load", c.load, cert.per_cell_bound, loc);
      }
    }
  }

  {
    std::ostringstream os;
    os << to_string(cert.kind) << " certificate for " << cert.algorithm << ": "
       << cells_compared << " cells checked, " << solo.total_messages
       << " executed messages vs " << cert.total_messages << " certified";
    report.add({Severity::kInfo, kCodeCertificateSummary, at(alg_index), os.str(),
                {{"cells_compared", static_cast<double>(cells_compared)},
                 {"certified_congestion", static_cast<double>(cert.congestion)},
                 {"executed_congestion",
                  static_cast<double>(max_edge_total(solo.pattern, num_directed))}}});
  }
  return report.errors() == errors_before;
}

Report check_certificate(const analysis::PatternCertificate& cert, const SoloRunResult& solo,
                         const VerifyOptions& opts) {
  Report report;
  report.max_findings_per_code = opts.max_findings_per_code;
  check_certificate(cert, solo, report, -1);
  return report;
}

}  // namespace dasched::verify
