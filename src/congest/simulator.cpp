#include "congest/simulator.hpp"

#include "util/check.hpp"

namespace dasched {

namespace {

ExecConfig solo_config(std::uint32_t max_payload_words, TelemetrySink* telemetry,
                       ExecProfiler* profiler) {
  ExecConfig cfg;
  cfg.max_payload_words = max_payload_words;
  cfg.enforce_unit_capacity = true;
  cfg.telemetry = telemetry;
  cfg.profiler = profiler;
  return cfg;
}

}  // namespace

Simulator::Simulator(const Graph& g, std::uint32_t max_payload_words, TelemetrySink* telemetry)
    : graph_(g),
      telemetry_(telemetry),
      executor_(g, solo_config(max_payload_words, telemetry, &profiler_)) {}

SoloRunResult Simulator::run(const DistributedAlgorithm& algorithm) {
  TimedSpan span(telemetry_, "simulator", "run");
  if (telemetry_ != nullptr) {
    telemetry_->add_counter("simulator.runs", 1);
    span.arg("rounds", algorithm.rounds());
  }

  const DistributedAlgorithm* algos[] = {&algorithm};
  // Lockstep: virtual round r runs in big-round r-1.
  auto exec = executor_.run(algos, ScheduleTable::lockstep(algos, graph_.num_nodes()));

  DASCHED_CHECK(exec.causality_violations == 0);
  DASCHED_CHECK(exec.all_completed());

  SoloRunResult result;
  result.outputs = std::move(exec.outputs[0]);
  result.pattern = profiler_.cells();
  result.num_directed_edges = graph_.num_directed_edges();
  result.total_messages = exec.total_messages;
  result.last_message_round = result.pattern.empty() ? 0 : result.pattern.back().big_round + 1;
  return result;
}

}  // namespace dasched
