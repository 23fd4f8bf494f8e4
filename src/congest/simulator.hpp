// Solo (stand-alone) execution of a single distributed algorithm.
//
// This is the plain CONGEST model: big-round t is exactly virtual round t+1
// for every node, and the one-message-per-directed-edge-per-round bandwidth
// bound is *enforced* (an algorithm that violates it is not a valid CONGEST
// algorithm). The solo run yields the algorithm's communication pattern
// (Section 2) -- the profiler's measured load surface of the lockstep run --
// and per-node outputs, which schedulers use as ground truth.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/executor.hpp"
#include "congest/pattern.hpp"
#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "telemetry/profiler.hpp"

namespace dasched {

struct SoloRunResult {
  std::vector<std::vector<std::uint64_t>> outputs;  // perf-ok: per node, filled once per run
  /// Load surface of the lockstep run (congest/pattern.hpp): a message sent
  /// in virtual round r sits in big_round r - 1, every load is 1.
  std::vector<LoadCell> pattern;  // perf-ok: copied once per solo run
  /// Directed edges of the graph the pattern was recorded on.
  std::uint32_t num_directed_edges = 0;
  std::uint64_t total_messages = 0;
  /// Last virtual round in which any message was sent (<= algorithm rounds()).
  std::uint32_t last_message_round = 0;
};

class Simulator {
 public:
  /// `telemetry` (optional, borrowed) instruments each solo run: a
  /// simulator/run span plus the executor's own metrics (see executor.hpp).
  explicit Simulator(const Graph& g, std::uint32_t max_payload_words = kDefaultMaxPayloadWords,
                     TelemetrySink* telemetry = nullptr);
  // The executor borrows profiler_, so a Simulator stays where it was built.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs `algorithm` alone; the executor and profiler are reused across calls.
  SoloRunResult run(const DistributedAlgorithm& algorithm);

 private:
  const Graph& graph_;
  TelemetrySink* telemetry_;
  ExecProfiler profiler_;
  Executor executor_;
};

}  // namespace dasched
