#include "telemetry/profiler.hpp"

#include <algorithm>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/check.hpp"

namespace dasched {

void ExecProfiler::begin_run(std::uint32_t num_directed_edges,
                             std::uint32_t num_big_rounds,
                             std::uint32_t num_workers,
                             std::uint32_t round_headroom,
                             std::uint32_t tile_events) {
  num_edges_ = num_directed_edges;
  num_workers_ = num_workers;
  tile_events_ = tile_events;
  rounds_capacity_ = num_big_rounds + round_headroom;
  rounds_used_ = 0;
  total_messages_ = 0;
  total_events_ = 0;
  total_inbox_ = 0;
  total_retries_ = 0;
  run_max_load_ = 0;

  shards_.assign(num_workers, WorkerShard{});
  edge_total_.assign(num_edges_, 0);
  edge_max_.assign(num_edges_, 0);
  edge_peak_round_.assign(num_edges_, 0);
  round_messages_.assign(rounds_capacity_, 0);
  round_max_load_.assign(rounds_capacity_, 0);
  round_events_.assign(rounds_capacity_, 0);
  round_inbox_.assign(rounds_capacity_, 0);
  round_retries_.assign(rounds_capacity_, 0);

  cells_.clear();
  cells_.reserve(cells_high_water_);
  hist_cell_load_.clear();
  hist_round_max_.clear();
}

void ExecProfiler::end_round(std::uint32_t big_round, std::uint64_t messages,
                             std::uint32_t max_load, std::uint64_t retries) {
  DASCHED_CHECK_MSG(big_round < rounds_capacity_,
                    "profiler: big-round beyond the sized horizon headroom");
  std::uint64_t events = 0;
  std::uint64_t inbox = 0;
  // Shard order == the order the staging buffers merge in; per-round values
  // are sums over every shard, so the merged numbers are independent of how
  // events were partitioned across workers.
  for (auto& sh : shards_) {
    events += sh.events;
    inbox += sh.inbox;
    sh.events = 0;
    sh.inbox = 0;
  }
  round_messages_[big_round] = messages;
  round_max_load_[big_round] = max_load;
  round_events_[big_round] = events;
  round_inbox_[big_round] = inbox;
  round_retries_[big_round] = retries;
  rounds_used_ = std::max(rounds_used_, big_round + 1);
  total_messages_ += messages;
  total_events_ += events;
  total_inbox_ += inbox;
  total_retries_ += retries;
  run_max_load_ = std::max(run_max_load_, max_load);
  hist_round_max_.add(max_load);
}

void ExecProfiler::end_run() {
  ++runs_;
  cells_high_water_ = std::max(cells_high_water_, cells_.size());
}

std::vector<ExecProfiler::EdgeSummary> ExecProfiler::top_edges(std::size_t n) const {
  std::vector<EdgeSummary> all;
  all.reserve(num_edges_);
  for (std::uint32_t e = 0; e < num_edges_; ++e) {
    if (edge_total_[e] == 0) continue;
    all.push_back({e, edge_total_[e], edge_max_[e], edge_peak_round_[e]});
  }
  const std::size_t keep = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end(), [](const EdgeSummary& x, const EdgeSummary& y) {
                      if (x.total_load != y.total_load) return x.total_load > y.total_load;
                      return x.edge < y.edge;
                    });
  all.resize(keep);
  return all;
}

std::vector<LoadCell> ExecProfiler::top_cells(std::size_t n) const {
  std::vector<LoadCell> all = cells_;
  const std::size_t keep = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end(), [](const LoadCell& x, const LoadCell& y) {
                      if (x.load != y.load) return x.load > y.load;
                      if (x.big_round != y.big_round) return x.big_round < y.big_round;
                      return x.edge < y.edge;
                    });
  all.resize(keep);
  return all;
}

namespace {

std::string heat_bar(std::uint32_t value, std::uint32_t max_value) {
  constexpr std::uint32_t kWidth = 24;
  if (max_value == 0) return std::string();
  const std::uint32_t filled =
      value == 0 ? 0
                 : std::max<std::uint32_t>(
                       1, static_cast<std::uint32_t>(
                              (static_cast<std::uint64_t>(value) * kWidth) /
                              max_value));
  return std::string(filled, '#');
}

}  // namespace

Table ExecProfiler::hot_edges_table(
    std::size_t top_n,
    const std::function<std::string(std::uint32_t)>& edge_label) const {
  Table table("profile: top-" + std::to_string(top_n) + " hot directed edges");
  table.set_header({"edge", "endpoints", "total load", "max load", "peak round", "heat"});
  const auto edges = top_edges(top_n);
  const std::uint64_t hottest = edges.empty() ? 0 : edges.front().total_load;
  for (const auto& e : edges) {
    table.add_row(
        {Table::fmt(std::uint64_t{e.edge}),
         edge_label ? edge_label(e.edge) : "-", Table::fmt(e.total_load),
         Table::fmt(std::uint64_t{e.max_load}), Table::fmt(std::uint64_t{e.peak_round}),
         heat_bar(static_cast<std::uint32_t>(e.total_load),
                  static_cast<std::uint32_t>(hottest))});
  }
  return table;
}

Table ExecProfiler::hot_rounds_table(std::size_t top_n) const {
  Table table("profile: top-" + std::to_string(top_n) + " hot big-rounds");
  table.set_header({"big-round", "messages", "max load", "events", "retries", "heat"});
  std::vector<std::uint32_t> rounds(rounds_used_);
  for (std::uint32_t t = 0; t < rounds_used_; ++t) rounds[t] = t;
  const std::size_t keep = std::min(top_n, rounds.size());
  std::partial_sort(rounds.begin(), rounds.begin() + static_cast<std::ptrdiff_t>(keep),
                    rounds.end(), [&](std::uint32_t x, std::uint32_t y) {
                      if (round_max_load_[x] != round_max_load_[y]) {
                        return round_max_load_[x] > round_max_load_[y];
                      }
                      return x < y;
                    });
  rounds.resize(keep);
  for (const auto t : rounds) {
    table.add_row({Table::fmt(std::uint64_t{t}), Table::fmt(round_messages_[t]),
                   Table::fmt(std::uint64_t{round_max_load_[t]}),
                   Table::fmt(round_events_[t]), Table::fmt(round_retries_[t]),
                   heat_bar(round_max_load_[t], run_max_load_)});
  }
  return table;
}

void ExecProfiler::write_json(std::ostream& os) const {
  json::Writer w(os);
  w.begin_object();
  w.kv("schema", "dasched.profile.v1");

  w.key("totals");
  w.begin_object();
  w.kv("runs", runs_);
  w.kv("big_rounds", std::uint64_t{rounds_used_});
  w.kv("directed_edges", std::uint64_t{num_edges_});
  w.kv("messages", total_messages_);
  w.kv("events", total_events_);
  w.kv("inbox_messages", total_inbox_);
  w.kv("retries", total_retries_);
  w.kv("max_edge_load", std::uint64_t{run_max_load_});
  w.kv("touched_cells", std::uint64_t{cells_.size()});
  // Deliberately no worker count here: the profile of a run is bit-identical
  // across thread counts (tests/test_profiler.cpp), and tile geometry -- a
  // pure config value -- is the only engine parameter that may appear.
  w.kv("tile_events", std::uint64_t{tile_events_});
  w.end_object();

  w.key("rounds");
  w.begin_array();
  for (std::uint32_t t = 0; t < rounds_used_; ++t) {
    w.begin_object();
    w.kv("t", std::uint64_t{t});
    w.kv("messages", round_messages_[t]);
    w.kv("max_load", std::uint64_t{round_max_load_[t]});
    w.kv("events", round_events_[t]);
    w.kv("inbox", round_inbox_[t]);
    w.kv("retries", round_retries_[t]);
    w.end_object();
  }
  w.end_array();

  w.key("top_edges");
  w.begin_array();
  for (const auto& e : top_edges(16)) {
    w.begin_object();
    w.kv("edge", std::uint64_t{e.edge});
    w.kv("total_load", e.total_load);
    w.kv("max_load", std::uint64_t{e.max_load});
    w.kv("peak_round", std::uint64_t{e.peak_round});
    w.end_object();
  }
  w.end_array();

  w.key("cell_load_histogram");
  w.begin_array();
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    if (hist_cell_load_.bucket(i) == 0) continue;
    w.begin_object();
    w.kv("ge", LogHistogram::bucket_floor(i));
    w.kv("count", hist_cell_load_.bucket(i));
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

std::string ExecProfiler::to_json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

void ExecProfiler::emit(TelemetrySink* sink) const {
  if (sink == nullptr) return;
  sink->add_counter("profile.messages", total_messages_);
  sink->add_counter("profile.events", total_events_);
  sink->add_counter("profile.retries", total_retries_);
  sink->add_counter("profile.touched_cells", cells_.size());
  sink->set_gauge("profile.big_rounds", rounds_used_);
  sink->set_gauge("profile.max_edge_load", run_max_load_);
  for (std::uint32_t t = 0; t < rounds_used_; ++t) {
    sink->record_value("profile.round_max_load", round_max_load_[t]);
  }
}

}  // namespace dasched
