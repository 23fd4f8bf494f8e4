#include "verify/divergence.hpp"

#include <algorithm>
#include <sstream>

namespace dasched::verify {

Report check_divergence(std::span<const LoadCell> predicted,
                        const ExecProfiler& measured,
                        const DivergenceOptions& opts) {
  Report report;
  report.max_findings_per_code = opts.max_findings_per_code;

  std::uint64_t compared = 0;
  std::uint64_t diverged = 0;
  std::uint64_t messages_predicted = 0;
  std::uint64_t messages_measured = 0;
  std::uint64_t max_abs_delta = 0;

  // One linear merge over the two surfaces; every cell present in either is
  // visited exactly once, and an absent side reads load 0.
  merge_load_cells(predicted, measured.cells(), [&](std::uint32_t big_round, std::uint32_t edge,
                                                    std::uint32_t want, std::uint32_t got) {
    messages_predicted += want;
    messages_measured += got;
    if (want > 0 && got > 0) ++compared;
    const std::uint64_t delta = want > got ? want - got : got - want;
    if (want > 0 && got > 0 && delta <= opts.tolerance) return;
    ++diverged;
    max_abs_delta = std::max(max_abs_delta, delta);
    Location loc;
    loc.big_round = big_round;
    loc.edge = edge;
    std::ostringstream os;
    if (got == 0) {
      // Predicted but never realized: the sender transmitted nothing here.
      os << "predicted load " << want << " never materialized (crash-stopped or truncated sender?)";
      report.add({Severity::kWarning, kCodeDivergenceUnrealized, loc, os.str(),
                  {{"predicted", static_cast<double>(want)}, {"measured", 0.0}}});
    } else if (want == 0) {
      // Measured but never predicted: bandwidth the static model missed.
      os << "measured load " << got
         << " on a cell the static model did not predict (retransmissions?)";
      report.add({Severity::kWarning, kCodeDivergenceUnpredicted, loc, os.str(),
                  {{"predicted", 0.0}, {"measured", static_cast<double>(got)}}});
    } else {
      os << "measured load " << got << " != predicted " << want << " (|delta| " << delta
         << " > tolerance " << opts.tolerance << ")";
      report.add({Severity::kWarning, kCodeDivergenceLoad, loc, os.str(),
                  {{"predicted", static_cast<double>(want)},
                   {"measured", static_cast<double>(got)},
                   {"delta", static_cast<double>(delta)}}});
    }
  });

  if (opts.scheduled_big_rounds > 0 &&
      measured.rounds_used() != opts.scheduled_big_rounds) {
    std::ostringstream os;
    os << "run used " << measured.rounds_used() << " big-rounds; the schedule has "
       << opts.scheduled_big_rounds << " (retry horizon extension?)";
    report.add({Severity::kWarning, kCodeDivergenceRounds, {}, os.str(),
                {{"scheduled", static_cast<double>(opts.scheduled_big_rounds)},
                 {"used", static_cast<double>(measured.rounds_used())}}});
  }

  {
    std::ostringstream os;
    os << compared << " cells joined on both surfaces, " << diverged
       << " diverged in total; " << messages_predicted << " messages predicted vs "
       << messages_measured << " measured";
    report.add({Severity::kInfo, kCodeDivergenceSummary, {}, os.str(),
                {{"cells_compared", static_cast<double>(compared)},
                 {"cells_diverged", static_cast<double>(diverged)},
                 {"messages_predicted", static_cast<double>(messages_predicted)},
                 {"messages_measured", static_cast<double>(messages_measured)},
                 {"max_abs_delta", static_cast<double>(max_abs_delta)}}});
  }

  if (opts.telemetry != nullptr) {
    opts.telemetry->add_counter("divergence.cells_compared", compared);
    opts.telemetry->add_counter("divergence.cells_diverged", diverged);
    opts.telemetry->add_counter("divergence.load",
                                report.count(kCodeDivergenceLoad));
    opts.telemetry->add_counter("divergence.unpredicted",
                                report.count(kCodeDivergenceUnpredicted));
    opts.telemetry->add_counter("divergence.unrealized",
                                report.count(kCodeDivergenceUnrealized));
    opts.telemetry->set_gauge("divergence.max_abs_delta",
                              static_cast<double>(max_abs_delta));
  }
  return report;
}

}  // namespace dasched::verify
