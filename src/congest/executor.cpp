#include "congest/executor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/alloc_counter.hpp"
#include "util/check.hpp"
#include "util/fingerprint.hpp"

namespace dasched {

std::uint64_t ExecutionResult::adaptive_physical_rounds() const {
  std::uint64_t rounds = 0;
  for (const auto load : max_load_per_big_round) {
    rounds += std::max<std::uint32_t>(1, load);
  }
  return rounds;
}

ExecutionResult::FixedPhase ExecutionResult::fixed_phase(std::uint32_t phase_len) const {
  DASCHED_CHECK_GE(phase_len, 1u);
  FixedPhase result{0, 0};
  result.physical_rounds =
      static_cast<std::uint64_t>(num_big_rounds) * phase_len;
  for (const auto load : max_load_per_big_round) {
    if (load > phase_len) ++result.overflowing_phases;
  }
  return result;
}

bool ExecutionResult::all_completed() const {
  for (const auto& per_alg : completed) {
    for (const auto c : per_alg) {
      if (!c) return false;
    }
  }
  return true;
}

// The message-path structs live at namespace scope (not in an anonymous
// namespace) because ExecScratch -- declared in the header -- holds arenas of
// them; this TU is the only one that defines or uses them.
//
// Message layout (the width-dispatch layer, congest/message.hpp): a staged or
// delivered message is one packed u32 header (sender + payload length) in a
// header lane plus W u64 words in a W-strided payload lane, where W is the run
// width run() derived. Everything below that stores "a message" stores those
// two lanes; lane strides come from the run width alone.

/// One scheduled execution event.
struct ExecEvent {
  std::uint32_t alg;
  NodeId node;
  std::uint32_t vround;
};

/// Logical identity of a staged message, parallel to the staged header lane.
/// Filled only when the flight recorder or the fault layer consumes
/// identities; the clean unobserved path
/// never writes or reads it -- routing needs only the precomputed
/// staged_round/staged_slot lanes.
struct StagedMeta {
  std::uint32_t alg;
  std::uint32_t tag;  // sender's virtual round
  NodeId to;
};

/// A retransmission-path message: identity plus the compact lane record,
/// inlined at the engine's instantiation width so RetryQueue entries stay
/// trivially copyable PODs.
template <std::uint32_t W>
struct RetryMessage {
  StagedMeta meta;
  std::uint32_t directed_edge;
  std::uint32_t hdr;   // packed sender + length (congest/message.hpp)
  std::uint64_t dest;  // the staged_dest word: (consumer round << 32) | slot
  std::uint64_t pay[W];
};

static_assert(std::is_trivially_copyable_v<ExecEvent>);
static_assert(std::is_trivially_copyable_v<StagedMeta>);
static_assert(std::is_trivially_copyable_v<RetryMessage<1>>);
static_assert(std::is_trivially_copyable_v<RetryMessage<InlinePayload::kInlineCapacity>>);

/// A minimal growable POD lane. The staging and parked-delivery lanes below
/// append tens of millions of fixed-size records per run; std::vector's
/// iterator-range insert machinery (range length, exception paths, memmove
/// dispatch) dominates the profile at that rate. A Lane is the subset the
/// engine needs: trivially-copyable elements, amortized-doubling growth that
/// only ever happens during warm-up (steady state is allocation-free, like
/// every other arena here), and an uninitialized bulk append that compiles
/// to one fixed-size copy.
template <typename T>
struct Lane {
  static_assert(std::is_trivially_copyable_v<T>);
  std::unique_ptr<T[]> store;
  std::size_t len = 0;
  std::size_t cap = 0;

  void clear() { len = 0; }
  bool empty() const { return len == 0; }
  std::size_t size() const { return len; }
  T* data() { return store.get(); }
  const T* data() const { return store.get(); }
  T& operator[](std::size_t i) { return store[i]; }
  const T& operator[](std::size_t i) const { return store[i]; }
  T* begin() { return store.get(); }
  T* end() { return store.get() + len; }
  const T* begin() const { return store.get(); }
  const T* end() const { return store.get() + len; }
  void reserve(std::size_t n) {
    if (n > cap) regrow(n);
  }
  void push(T v) {
    if (len == cap) [[unlikely]] regrow(cap != 0 ? cap * 2 : 64);
    store[len++] = v;
  }
  /// Uninitialized append of n elements; the caller fills them.
  T* append_n(std::size_t n) {
    if (len + n > cap) [[unlikely]] {
      regrow(std::max(cap != 0 ? cap * 2 : std::size_t{64}, len + n));
    }
    T* p = store.get() + len;
    len += n;
    return p;
  }
  void regrow(std::size_t n) {
    std::unique_ptr<T[]> grown(new T[n]);
    if (len != 0) std::memcpy(grown.get(), store.get(), len * sizeof(T));
    store = std::move(grown);
    cap = n;
  }
};

/// One owner-worker's parked deliveries bound to a future big-round: the
/// consumer-slot lane, the header lane, and the W-strided payload lane kept
/// parallel (SoA), so the gather histogram at that round streams a dense u32
/// lane and only the final scatter moves payload words.
struct PendingSeg {
  Lane<std::uint32_t> slot;  // perf-ok: recycled via the owner's free list
  Lane<std::uint32_t> hdr;   // perf-ok: recycled via the owner's free list
  Lane<std::uint64_t> pay;   // perf-ok: recycled via the owner's free list
};

/// Per-worker staging plus reusable scratch. Within one big-round every event
/// touches only its own (alg, node) state, so shards race only if they shared
/// scratch -- they don't; and because each shard appends to its own staging
/// lanes and shards are contiguous slices of the bucket, concatenating the
/// lanes in shard order reproduces the serial staging order bit for bit.
struct WorkerState {
  // Compact SoA staging lanes, all parallel (entry i of each lane describes
  // staged message i). The payload lane is W-strided: message i's words live
  // at [i*W, i*W + W). staged_dest packs (consumer big-round << 32) | bucket
  // slot -- or a sentinel round (kFinishDest with the packed finish key,
  // kNeverDest) -- into one word so the send path and barrier move one lane
  // instead of two.
  Lane<std::uint32_t> staged_hdr;   // perf-ok: cleared per round, capacity retained
  Lane<std::uint64_t> staged_pay;   // perf-ok: W-strided payload lane
  Lane<StagedMeta> staged_meta;     // perf-ok: only filled for observed/faulty runs
  Lane<std::uint32_t> staged_edge;  // perf-ok: directed edge per message
  Lane<std::uint64_t> staged_dest;  // perf-ok: (round << 32) | slot per message
  // Duplicate-send detection without any clearing: slot s was used by the
  // current event iff slot_stamp[s] == event_serial. The serial is bumped
  // before every event and never reset (a u64 cannot realistically wrap), so
  // stale stamps from any earlier event, round, or run can never collide.
  std::vector<std::uint64_t> slot_stamp;  // perf-ok: size max_degree, never cleared
  std::uint64_t event_serial = 0;
  // --- Tile ownership (the tiled delivery barrier, docs/PERFORMANCE.md).
  // Each worker statically owns a contiguous range of consumer tiles per
  // round and a contiguous range of directed edges; everything below is
  // written only by its owner. Owners fill them from a source order and an
  // ownership map that do not depend on the thread count, so their contents
  // are bit-identical across thread counts. ---
  std::vector<std::uint32_t> pend_round;  // perf-ok: big-round -> own seg index or kNoBucket
  std::vector<PendingSeg> pend_pool;      // perf-ok: recycled via pend_free
  std::vector<std::uint32_t> pend_free;   // perf-ok: drained-seg free list
  // Touched edges of this worker's edge range; sorted and kept (loads not yet
  // zeroed) until the per-edge observers read them after the barrier.
  std::vector<std::uint32_t> touched;     // perf-ok: reserved to the edge range
  // One bit per edge of the range (offset from its first edge), all-zero
  // between rounds: sorts `touched` in O(touched + range/64).
  std::vector<std::uint64_t> touched_bits;  // perf-ok: sized per run
  // Inbox-presence words this owner set during the current round's gather;
  // the post-execution clear walks exactly these instead of memsetting the
  // whole bitset (the bitset is all-zero outside the round window).
  std::vector<std::uint32_t> touched_words;  // perf-ok: scoped presence clears
  std::uint32_t max_load_partial = 0;  // max edge load over this worker's edge range
  std::uint64_t violations = 0;  // causality violations counted at the barrier (worker 0)
  std::uint64_t delivered = 0;  // cumulative messages consumed by this worker
  // This worker's share of the run's fault accounting: the events it skipped
  // and the fates of the messages it settled at the barrier. Summed in worker
  // order at the end of the run.
  ExecutionResult::FaultStats faults;
};

namespace {

/// Minimum events per shard before a big-round is farmed out to the pool:
/// below this, waking the workers costs more than the bucket. The cutoff is
/// invisible in results -- serial and parallel execution are bit-identical.
constexpr std::size_t kMinEventsPerShard = 16;

constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};

/// staged_dest round-half sentinels. kFinishDest marks tag == T messages
/// (consumed by on_finish after the loop); kNeverDest marks messages whose
/// consumer is never scheduled (counted nowhere, dropped). Real destinations
/// are big-rounds < num_big_rounds, far below both. `dest >= kNeverDest`
/// tests for either sentinel in one compare.
constexpr std::uint32_t kNeverDest = ~std::uint32_t{0} - 1;
constexpr std::uint32_t kFinishDest = ~std::uint32_t{0};

/// Minimum messages in a big-round before a barrier phase (inbox gather or
/// delivery) is dispatched to the pool; below this its per-worker bodies run
/// inline on the calling thread (one pool dispatch costs two
/// condition-variable sweeps). Invisible in results: inline and pooled runs
/// of a body are the same computation.
constexpr std::uint64_t kMinMessagesParallelBarrier = 256;

/// Per-event send path, width-specialized: stages straight into the
/// executing worker's compact lanes with no intermediate send buffer. One
/// binary search over the (sorted) adjacency validates the neighbor and
/// yields its adjacency slot; the per-slot epoch stamp flags duplicate sends
/// in O(1) with no clearing; the directed edge id is one indexed load off
/// the slot; and the consumer's (big-round, bucket slot) coordinate is
/// resolved right here from the flat schedule -- the delivery barrier never
/// touches the schedule at all.
template <std::uint32_t W>
struct SendSink {
  // Per-run bindings.
  WorkerState* ws;
  const std::uint32_t* sched_flat;
  const std::uint32_t* slot_of;
  std::uint32_t max_payload_words;
  NodeId num_nodes;
  bool need_meta;
  // Per-event bindings. The consumer's flat-schedule slot for a send to node
  // v is si_base + v * si_stride (ScheduleTable row layout), hoisted here so
  // the per-send cost is one multiply-add.
  std::span<const HalfEdge> neighbors;
  const std::uint32_t* directed;  // directed edge id per adjacency slot
  std::size_t si_base;            // slot_index(alg, 0, vround + 1)
  std::size_t si_stride;          // rounds(alg)
  std::uint32_t alg;
  std::uint32_t vround;
  std::uint32_t from;       // sender id == low header bits
  bool finishing;           // vround == rounds(alg): messages go to on_finish
  std::uint32_t slot_hint;  // next adjacency slot if sends come in order

  static void send(void* raw, NodeId neighbor, const Payload& payload) {
    auto* sink = static_cast<SendSink*>(raw);
    WorkerState& ws = *sink->ws;
    const auto nbrs = sink->neighbors;
    // Nearly every program iterates ctx.neighbors() (sorted) when sending,
    // so the next send's slot is almost always the hint; the binary search
    // only runs for out-of-order senders.
    std::uint32_t slot = sink->slot_hint;
    if (slot >= nbrs.size() || nbrs[slot].neighbor != neighbor) [[unlikely]] {
      const auto it = std::lower_bound(
          nbrs.begin(), nbrs.end(), neighbor,
          [](const HalfEdge& h, NodeId x) { return h.neighbor < x; });
      DASCHED_CHECK_MSG(it != nbrs.end() && it->neighbor == neighbor,
                        "send to non-neighbor");
      slot = static_cast<std::uint32_t>(it - nbrs.begin());
    }
    sink->slot_hint = slot + 1;
    DASCHED_CHECK_MSG(payload.size() <= sink->max_payload_words,
                      "message exceeds CONGEST word budget");
    // A declared-width run sizes its lanes below the config cap; an algorithm
    // whose footprint under-declared its payload width is a contract bug, not
    // a silent truncation.
    DASCHED_CHECK_MSG(payload.size() <= W,
                      "message wider than the declared footprint payload width");
    DASCHED_CHECK_MSG(ws.slot_stamp[slot] != ws.event_serial,
                      "two messages to one neighbor in one round");
    ws.slot_stamp[slot] = ws.event_serial;
    // Compact lane staging: one packed header word plus a fixed W-word
    // payload copy (InlinePayload zero-fills its tail, so copying W words
    // never reads indeterminate bytes and the compiler emits one straight
    // vector move).
    ws.staged_hdr.push(sink->from | (payload.size() << kMsgHeaderFromBits));
    std::memcpy(ws.staged_pay.append_n(W), payload.data(),
                W * sizeof(std::uint64_t));
    if (sink->need_meta) ws.staged_meta.push({sink->alg, sink->vround, neighbor});
    ws.staged_edge.push(sink->directed[slot]);
    if (sink->finishing) {
      // tag == T: the slot half carries the packed finish key alg*n + to.
      ws.staged_dest.push(
          (std::uint64_t{kFinishDest} << 32) |
          static_cast<std::uint32_t>(std::size_t{sink->alg} * sink->num_nodes +
                                     neighbor));
    } else {
      const std::size_t si =
          sink->si_base + std::size_t{neighbor} * sink->si_stride;
      const std::uint32_t dest = sink->sched_flat[si];
      ws.staged_dest.push(dest == kNeverScheduled
                              ? std::uint64_t{kNeverDest} << 32
                              : (std::uint64_t{dest} << 32) | sink->slot_of[si]);
    }
  }
};

/// Software prefetch distance (messages ahead) on the scatter's CSR targets:
/// far enough to cover a cache miss on the arena line, near enough that the
/// line is still resident when the copy reaches it.
constexpr std::size_t kScatterPrefetchDist = 8;

inline void prefetch_for_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

/// Visited-marker bit for the in-place stable finish permutation below; the
/// finish arena is checked to stay under 2^31 messages so the bit is free.
constexpr std::uint32_t kPlaced = 0x80000000u;

void add_fault_stats(ExecutionResult::FaultStats& into,
                     const ExecutionResult::FaultStats& part) {
  into.attempts += part.attempts;
  into.delivered += part.delivered;
  into.dropped_random += part.dropped_random;
  into.dropped_outage += part.dropped_outage;
  into.dropped_crash += part.dropped_crash;
  into.duplicated += part.duplicated;
  into.duplicates_suppressed += part.duplicates_suppressed;
  into.retransmissions += part.retransmissions;
  into.lost += part.lost;
  into.skipped_events += part.skipped_events;
}

}  // namespace

/// Everything the engine reuses across big-rounds and runs. First run of a
/// workload grows each buffer to its high-water mark; from then on the
/// message path performs no heap allocation (ExecutionResult::hot_path_allocs
/// measures exactly this window). All lanes are width-agnostic storage: the
/// payload lanes are raw u64 vectors whose stride is whatever run width the
/// current run_impl<W> instantiation uses, so one scratch serves runs of any
/// width.
struct ExecScratch {
  // perf-ok: all members below are arenas/scratch -- sized once per run (or
  // grown to a high-water mark during warm-up) and recycled, never allocated
  // per message.

  // --- Schedule flattening (rebuilt per run, capacity retained). ---
  std::vector<ExecEvent> events;          // perf-ok: per-run arena
  std::vector<std::size_t> bucket_start;  // perf-ok: CSR offsets per big-round
  std::vector<std::size_t> bucket_cursor;  // perf-ok: counting-sort scratch

  // --- Worker staging (persistent; slot_used zeroed once at creation and
  // kept all-zero between events by the senders themselves). ---
  std::vector<WorkerState> workers;  // perf-ok: persistent across runs
  std::size_t staged_high_water = 0;  // max staged per worker per big-round

  // --- Tiled delivery barrier (docs/PERFORMANCE.md). Pending deliveries
  // live in per-worker PendingSegs keyed by the consumer's big-round (see
  // WorkerState); the lanes below are the shared, statically-partitioned
  // coordinate system the owners operate in.
  //
  // slot_of is the lane parallel to ScheduleTable::flat(): for every
  // scheduled (alg, node, vround) slot, that event's index within its
  // big-round bucket, filled during the counting sort. It is never reset:
  // any entry the barrier reads belongs to a scheduled slot, which was
  // freshly written this run.
  //
  // slot_bound is the static tile-ownership table, num_big_rounds rows of
  // (num_workers + 1) consumer-slot boundaries: worker w owns slots
  // [row[w], row[w + 1]) of round t's bucket -- whole tiles, 64-event
  // aligned so one inbox_present word never spans two owners.
  //
  // inbox_present is maintained all-zero outside a round's gather/execute
  // window: the gather's first-touch histogram sets bits and records the
  // touched words, and the post-execution sweep clears exactly those words.
  // That invariant is what lets the per-slot count lane skip zeroing
  // entirely -- a count cell is only ever read behind a presence bit set
  // this round, and the first touch *assigns* 1 instead of incrementing. ---
  std::vector<std::uint32_t> slot_of;      // perf-ok: lane of schedule.flat(), rebuilt per run
  std::vector<std::uint32_t> slot_bound;   // perf-ok: tile ownership, rebuilt per run
  std::vector<std::uint64_t> inbox_present;  // perf-ok: 1 bit per event of the bucket

  // --- Per-big-round CSR inbox arena lanes: this round's consumable
  // messages, counting-sorted into contiguous per-event slices. ---
  std::vector<std::uint32_t> arena_hdr;     // perf-ok: reused every big-round
  std::vector<std::uint64_t> arena_pay;     // perf-ok: W-strided, reused every big-round
  std::vector<std::uint32_t> inbox_offset;  // perf-ok: per populated event slot
  std::vector<std::uint32_t> inbox_cursor;  // perf-ok: counting-sort scratch
  std::vector<std::uint32_t> inbox_count;   // perf-ok: never zeroed (presence-guarded)

  // --- tag == T messages, consumed by on_finish after the loop. Kept as
  // compact lanes keyed by the packed finish key alg*n + to (fits u32,
  // checked per run) and stably sorted IN PLACE by one cycle-following
  // permutation after the loop -- there is no second arena copy. ---
  std::vector<std::uint32_t> finish_key;   // perf-ok: appended across the run
  std::vector<std::uint32_t> finish_hdr;   // perf-ok: appended across the run
  std::vector<std::uint64_t> finish_pay;   // perf-ok: W-strided, appended across the run
  std::vector<std::uint32_t> finish_target;  // perf-ok: permutation scratch, one u32 per message
  std::vector<std::size_t> finish_offset;  // perf-ok: per (alg, node), size k*n + 1

  // --- Edge-load accounting (self-zeroing between rounds). ---
  std::vector<std::uint32_t> edge_count;  // perf-ok: zeroed via WorkerState::touched
};

Executor::Executor(const Graph& g, ExecConfig cfg)
    : graph_(g), cfg_(cfg), scratch_(std::make_unique<ExecScratch>()) {
  DASCHED_CHECK_LE(cfg_.max_payload_words, InlinePayload::kInlineCapacity,
                   "max_payload_words exceeds the inline payload capacity; "
                   "recompile with -DDASCHED_PAYLOAD_INLINE_WORDS=<n> to spill "
                   "to a larger inline message");
  DASCHED_CHECK_GE(cfg_.max_payload_words, 1u,
                   "max_payload_words must be at least one word");
  // Reject geometry that cannot hold even one max-width message per tile --
  // tile_events_for_bytes used to silently floor such budgets to 64 events,
  // i.e. hand back 64x the requested bytes (see its contract).
  DASCHED_CHECK_MSG(cfg_.tile_bytes >= arena_message_bytes(cfg_.max_payload_words),
                    "tile_bytes smaller than one max-width arena message");
}

Executor::~Executor() = default;

ExecutionResult Executor::run(std::span<const DistributedAlgorithm* const> algorithms,
                              const ScheduleTable& schedule) {
  // --- Derive the run width: the payload-word stride of every staging and
  // delivery lane for this run. When every admitted algorithm bounds its
  // payload via StaticFootprint::max_payload_words, the lanes shrink to the
  // largest declared width; any undeclared algorithm forces the config cap.
  // The clamp keeps the width a valid lane stride (>= 1) and never above the
  // cap the SendSink enforces. ---
  std::uint32_t width = 0;
  bool all_declared = !algorithms.empty();
  for (const auto* alg : algorithms) {
    const std::uint32_t w = alg->static_footprint().max_payload_words;
    if (w == StaticFootprint::kUndeclaredWidth) {
      all_declared = false;
      break;
    }
    width = std::max(width, w);
  }
  if (!all_declared) width = cfg_.max_payload_words;
  width = std::clamp<std::uint32_t>(width, 1, cfg_.max_payload_words);

  // Dispatch to the width-specialized engine: one instantiation per
  // supported width, selected once per run, so every per-message copy inside
  // is a fixed-size move.
  ExecutionResult out;
  bool dispatched = false;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (void)(((I + 1 == width)
                ? (out = run_impl<static_cast<std::uint32_t>(I + 1)>(algorithms, schedule),
                   dispatched = true)
                : false) ||
           ...);
  }(std::make_index_sequence<InlinePayload::kInlineCapacity>{});
  DASCHED_CHECK_MSG(dispatched, "run width outside the inline payload capacity");
  return out;
}

template <std::uint32_t W>
ExecutionResult Executor::run_impl(std::span<const DistributedAlgorithm* const> algorithms,
                                   const ScheduleTable& schedule) {
  const std::size_t k = algorithms.size();
  const NodeId n = graph_.num_nodes();
  DASCHED_CHECK_EQ(schedule.num_algorithms(), k,
                   "schedule table does not match the problem dimensions");
  DASCHED_CHECK_EQ(schedule.num_nodes(), n,
                   "schedule table does not match the problem dimensions");
  // Packed-header capacity: the sender id must fit the header's from-field
  // (32 bits minus the length bits; congest/message.hpp).
  DASCHED_CHECK_MSG(std::uint64_t{n} <= kMaxPackedHeaderNodes,
                    "graph too large for packed 32-bit message headers");
  // Packed finish keys alg*n + to must fit u32 (see finish lanes below).
  DASCHED_CHECK_MSG(static_cast<std::uint64_t>(k) * n <= (std::uint64_t{1} << 32),
                    "k*n exceeds the packed finish-key range");

  // --- Admission gate: consulted once, before any event executes. A null
  // gate costs nothing; a rejection is a hard contract failure. ---
  if (cfg_.admission != nullptr && !cfg_.admission->admit(algorithms, schedule)) {
    // Post-mortem before aborting: with a recorder attached the rejection
    // leaves a dump (rings from any previous run of this recorder, or empty).
    if (cfg_.recorder != nullptr) cfg_.recorder->dump_on("admission_rejected");
    DASCHED_CHECK_MSG(false, "schedule rejected by the admission gate");
  }

  ExecScratch& scratch = *scratch_;

  // --- One pass over the schedule: validate (gap-free prefix, strictly
  // increasing big-rounds), count events per big-round, and record
  // max_big_round together. bucket_start[t + 1] accumulates the bucket sizes
  // and is prefix-summed into CSR offsets below. ---
  std::uint32_t max_big_round = 0;
  std::uint64_t total_events = 0;
  auto& bucket_start = scratch.bucket_start;
  bucket_start.clear();
  for (std::size_t a = 0; a < k; ++a) {
    DASCHED_CHECK_EQ(schedule.rounds(a), algorithms[a]->rounds(),
                     "schedule table does not match the algorithm round counts");
    for (NodeId v = 0; v < n; ++v) {
      const auto slots = schedule.row(a, v);
      std::uint32_t prev = 0;
      bool ended = false;
      for (std::uint32_t r = 1; r <= slots.size(); ++r) {
        const std::uint32_t t = slots[r - 1];
        if (t == kNeverScheduled) {
          ended = true;
          continue;
        }
        DASCHED_CHECK_MSG(!ended, "schedule has a gap: round scheduled after a skipped one");
        DASCHED_CHECK_MSG(r == 1 || t > prev,
                          "schedule must be strictly increasing per (alg, node)");
        prev = t;
        max_big_round = std::max(max_big_round, t);
        if (std::size_t{t} + 2 > bucket_start.size()) bucket_start.resize(std::size_t{t} + 2, 0);
        ++bucket_start[std::size_t{t} + 1];
        ++total_events;
      }
    }
  }

  const std::uint32_t num_big_rounds = total_events == 0 ? 0 : max_big_round + 1;
  bucket_start.resize(std::size_t{num_big_rounds} + 1, 0);
  std::size_t max_bucket_size = 0;
  for (std::uint32_t t = 1; t <= num_big_rounds; ++t) {
    max_bucket_size = std::max(max_bucket_size, bucket_start[t]);
    bucket_start[t] += bucket_start[t - 1];
  }

  // --- Bucket events by big-round: one flat array plus the CSR offsets. The
  // counting sort preserves (alg, node, round) order within each bucket,
  // which is the canonical serial execution order. The same pass fills the
  // slot_of lane: each scheduled slot's event index within its bucket, i.e.
  // the consumer-side coordinate every staged message will carry. ---
  auto& events = scratch.events;
  events.resize(total_events);
  if (scratch.slot_of.size() < schedule.flat_size()) {
    scratch.slot_of.resize(schedule.flat_size());
  }
  {
    auto& cursor = scratch.bucket_cursor;
    cursor.assign(bucket_start.begin(), bucket_start.end() - 1);
    for (std::size_t a = 0; a < k; ++a) {
      for (NodeId v = 0; v < n; ++v) {
        const auto slots = schedule.row(a, v);
        for (std::uint32_t r = 1; r <= slots.size(); ++r) {
          const std::uint32_t t = slots[r - 1];
          if (t != kNeverScheduled) {
            scratch.slot_of[schedule.slot_index(a, v, r)] =
                static_cast<std::uint32_t>(cursor[t] - bucket_start[t]);
            events[cursor[t]++] = {static_cast<std::uint32_t>(a), v, r};
          }
        }
      }
    }
  }

  // --- Per (alg, node) state. ---
  std::vector<std::vector<std::unique_ptr<NodeProgram>>> programs(k);
  std::vector<std::vector<Rng>> rngs(k);
  std::vector<std::vector<std::uint32_t>> progress(k);  // last executed vround
  for (std::size_t a = 0; a < k; ++a) {
    programs[a].reserve(n);
    rngs[a].reserve(n);
    progress[a].assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      programs[a].push_back(algorithms[a]->make_program(v));
      rngs[a].emplace_back(seed_combine(algorithms[a]->base_seed(), v));
    }
  }

  ExecutionResult result;
  result.outputs.assign(k, {});
  result.completed.assign(k, {});
  result.num_big_rounds = num_big_rounds;
  result.max_load_per_big_round.assign(num_big_rounds, 0);

  // --- Size the delivery arenas (no allocation inside the loop: segs and
  // arenas below only grow to warm-up high-water marks). ---
  scratch.inbox_offset.reserve(max_bucket_size);
  scratch.inbox_cursor.reserve(max_bucket_size);
  scratch.inbox_count.reserve(max_bucket_size);
  scratch.inbox_present.reserve(max_bucket_size / 64 + 1);
  scratch.finish_key.clear();
  scratch.finish_hdr.clear();
  scratch.finish_pay.clear();
  scratch.edge_count.assign(graph_.num_directed_edges(), 0);
  auto& edge_count = scratch.edge_count;

  // --- Fault injection and reliable delivery (docs/FAULTS.md). All fault
  // decisions run inside the delivery barrier below and are pure functions of
  // the plan seed, the message identity and the attempt; every
  // order-dependent consequence (recorder fates, retry queue, horizon) is
  // taken by worker 0 in stream order -- so faulty runs are bit-identical
  // across thread counts. With `faults` null none of this is touched. ---
  const FaultInjector* const faults = cfg_.faults;
  const std::uint32_t max_retries = faults != nullptr ? cfg_.retry.max_retries : 0;
  RetryQueue<RetryMessage<W>> retry_queue;
  std::vector<typename RetryQueue<RetryMessage<W>>::Entry> retry_due;
  // Retransmissions may land past the last scheduled big-round (they still
  // matter: tag-T messages are consumed by on_finish after the loop); the
  // horizon grows to cover them.
  std::uint32_t horizon = num_big_rounds;

  // --- Worker pool and per-worker staging. Workers persist across runs:
  // slot_used is zeroed once at creation (the send loop restores it to zero
  // after every event) and the staging lanes keep their warmed-up capacity. ---
  const std::uint32_t num_workers = std::max<std::uint32_t>(1, cfg_.num_threads);
  if (num_workers > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_workers);
  }
  if (scratch.workers.size() != num_workers) {
    scratch.workers.resize(num_workers);
    for (auto& ws : scratch.workers) ws.slot_stamp.assign(graph_.max_degree(), 0);
  }
  // Identity lanes are needed only when someone consumes message identities
  // at the barrier; the clean unobserved path skips the lane entirely.
  const bool need_meta = faults != nullptr || cfg_.recorder != nullptr;
  std::vector<WorkerState>& workers = scratch.workers;
  for (auto& ws : workers) {
    ws.delivered = 0;
    ws.faults = {};
    ws.max_load_partial = 0;
    ws.violations = 0;
    ws.staged_hdr.clear();
    ws.staged_hdr.reserve(scratch.staged_high_water);
    ws.staged_pay.clear();
    ws.staged_pay.reserve(scratch.staged_high_water * W);
    ws.staged_meta.clear();
    if (need_meta) ws.staged_meta.reserve(scratch.staged_high_water);
    ws.staged_edge.clear();
    ws.staged_edge.reserve(scratch.staged_high_water);
    ws.staged_dest.clear();
    ws.staged_dest.reserve(scratch.staged_high_water);
    ws.pend_round.assign(std::size_t{num_big_rounds} + 1, kNoBucket);
    ws.pend_free.clear();
    for (std::uint32_t b = 0; b < ws.pend_pool.size(); ++b) {
      ws.pend_pool[b].slot.clear();
      ws.pend_pool[b].hdr.clear();
      ws.pend_pool[b].pay.clear();
      ws.pend_free.push_back(b);
    }
    ws.touched.clear();
    ws.touched.reserve(graph_.num_directed_edges() / num_workers + 1);
    ws.touched_bits.assign((graph_.num_directed_edges() / num_workers + 1) / 64 + 1, 0);
    ws.touched_words.clear();
  }
  std::uint64_t rounds_parallel = 0;
  std::uint64_t rounds_serial = 0;
  // Runs a barrier phase's per-worker body for w = 0..W-1: on the pool when
  // the round moves at least kMinMessagesParallelBarrier messages, inline
  // otherwise. Each body writes only what its worker owns, so the two are
  // the same computation.
  auto for_each_worker = [&](std::uint64_t messages, auto& body) {
    if (num_workers > 1 && messages >= kMinMessagesParallelBarrier) {
      pool_->run_static_ctx(num_workers, body);
    } else {
      for (std::uint32_t w = 0; w < num_workers; ++w) body(w);
    }
  };

  // --- Tile geometry and static ownership (docs/PERFORMANCE.md). Round t's
  // bucket of B events splits into T = ceil(B / tile_events) tiles of
  // tile_events consecutive consumer slots; worker w owns the tile range
  // [ceil(w*T/W), ceil((w+1)*T/W)), recorded as consumer-slot boundaries.
  // Tile boundaries are multiples of tile_events (itself a multiple of 64),
  // so owners never share an inbox_present word; the last non-empty range is
  // clamped to B and absorbs the ragged tail. The byte budget is spent at
  // the *run width*: narrower runs pack more events into the same tile
  // bytes. ---
  const std::uint32_t tile_events = tile_events_for_bytes(cfg_.tile_bytes, W);
  auto& slot_bound = scratch.slot_bound;
  slot_bound.assign(std::size_t{num_big_rounds} * (num_workers + 1), 0);
  for (std::uint32_t t = 0; t < num_big_rounds; ++t) {
    const std::size_t bsize = bucket_start[t + 1] - bucket_start[t];
    const std::size_t tiles = (bsize + tile_events - 1) / tile_events;
    auto* row = slot_bound.data() + std::size_t{t} * (num_workers + 1);
    for (std::uint32_t w = 0; w <= num_workers; ++w) {
      const std::size_t lo_tile =
          (std::size_t{w} * tiles + num_workers - 1) / num_workers;
      row[w] = static_cast<std::uint32_t>(std::min(bsize, lo_tile * tile_events));
    }
  }
  // Whether worker w owns consumer slot `slot` of round `dest`'s bucket.
  auto owns = [&](std::uint32_t w, std::uint32_t dest, std::uint32_t slot) {
    const auto* bound = slot_bound.data() + std::size_t{dest} * (num_workers + 1);
    return slot >= bound[w] && slot < bound[w + 1];
  };
  const auto sched_flat = schedule.flat();

  TelemetrySink* const telemetry = cfg_.telemetry;
  TimedSpan run_span(telemetry, "executor", "run");
  if (telemetry != nullptr) {
    telemetry->add_counter("executor.events_executed", total_events);
    telemetry->add_counter("executor.big_rounds", num_big_rounds);
    run_span.arg("algorithms", static_cast<double>(k));
    run_span.arg("big_rounds", static_cast<double>(num_big_rounds));
    run_span.arg("events", static_cast<double>(total_events));
  }

  // --- Congestion profiler + flight recorder (docs/OBSERVABILITY.md). Both
  // are sized HERE, before the steady-state window opens: chained
  // retransmissions extend the horizon by at most sum_{i<R} 2^i = 2^R - 1
  // big-rounds, so the profiler's per-round accumulators never resize inside
  // the loop even on faulty runs. Null pointers keep the engine byte-for-byte
  // the uninstrumented executor. ---
  ExecProfiler* const profiler = cfg_.profiler;
  FlightRecorder* const recorder = cfg_.recorder;
  const std::uint32_t round_headroom =
      max_retries > 0 ? (1u << max_retries) - 1 : 0;
  if (profiler != nullptr) {
    profiler->begin_run(graph_.num_directed_edges(), num_big_rounds, num_workers,
                        round_headroom, tile_events);
  }
  if (recorder != nullptr) recorder->begin_run(num_workers);

  // Whether the current big-round has a populated CSR inbox arena; false for
  // rounds with no consumable messages, where every event's inbox is empty.
  bool round_has_inbox = false;
  std::size_t round_begin = 0;

  // The per-event body shared by the serial and parallel paths. Everything it
  // mutates is either owned by the event's (alg, node) -- programs, rngs,
  // progress -- or by the executing shard's WorkerState; the round arena and
  // its offsets are read-only during execution, so shards are data-race free.
  auto execute_event = [&](const ExecEvent& ev, std::size_t event_index,
                           WorkerState& ws, std::uint32_t t) {
    if (faults != nullptr && faults->node_crashed(ev.node, t)) {
      // Crash-stop: the node executes nothing from its crash round on. Its
      // progress freezes, so it is never marked completed.
      ++ws.faults.skipped_events;
      if (recorder != nullptr) {
        recorder->record(static_cast<std::uint32_t>(&ws - workers.data()),
                         FlightRecorder::Kind::kCrashSkip, t,
                         (std::uint64_t{ev.alg} << 32) | ev.vround, ev.node);
      }
      return;
    }
    auto& prog_progress = progress[ev.alg][ev.node];
    DASCHED_CHECK_EQ(prog_progress + 1, ev.vround,
                     "executor: out-of-order virtual round");
    prog_progress = ev.vround;

    // This event's inbox: its contiguous slice of the round arena lanes.
    // Messages bound to this round were counting-sorted into per-event
    // slices at the top of the round; events without messages (vround 1,
    // quiet rounds) get an empty view -- detected by one presence-bitset bit
    // instead of two offset loads.
    InboxView in;
    std::uint32_t in_count = 0;
    if (round_has_inbox) {
      const std::size_t li = event_index - round_begin;
      if ((scratch.inbox_present[li >> 6] >> (li & 63)) & 1) {
        const std::uint32_t off = scratch.inbox_offset[li];
        in_count = scratch.inbox_count[li];
        in = InboxView(scratch.arena_hdr.data() + off,
                       scratch.arena_pay.data() + std::size_t{off} * W, W,
                       in_count);
      }
    }
    ws.delivered += in_count;
    if (profiler != nullptr) {
      // Shard-local bumps (no sharing, no atomics): this worker owns its
      // shard; end_round() folds the shards in shard order at the barrier.
      auto& shard = profiler->shards()[&ws - workers.data()];
      ++shard.events;
      shard.inbox += in_count;
    }
    if (recorder != nullptr) {
      recorder->record(static_cast<std::uint32_t>(&ws - workers.data()),
                       FlightRecorder::Kind::kEvent, t,
                       (std::uint64_t{ev.alg} << 32) | ev.vround, ev.node);
    }

    const auto nbrs = graph_.neighbors(ev.node);
    const auto directed = graph_.directed_ids(ev.node);
    // Every send of this event stages directly into ws's compact lanes,
    // routed against the flat schedule as it lands (see SendSink).
    ++ws.event_serial;
    const bool finishing = ev.vround == schedule.rounds(ev.alg);
    SendSink<W> sink{&ws,
                     sched_flat.data(),
                     scratch.slot_of.data(),
                     cfg_.max_payload_words,
                     n,
                     need_meta,
                     nbrs,
                     directed.data(),
                     finishing ? 0 : schedule.slot_index(ev.alg, 0, ev.vround + 1),
                     schedule.rounds(ev.alg),
                     ev.alg,
                     ev.vround,
                     ev.node,
                     finishing,
                     /*slot_hint=*/0};
    VirtualContext ctx;
    ctx.self_ = ev.node;
    ctx.num_nodes_ = n;
    ctx.vround_ = ev.vround;
    ctx.inbox_ = in;
    ctx.neighbors_ = nbrs;
    ctx.send_fn_ = &SendSink<W>::send;
    ctx.sink_ = &sink;
    ctx.rng_ = &rngs[ev.alg][ev.node];

    programs[ev.alg][ev.node]->on_round(ctx);
  };

  // --- Steady-state window: everything from here to the end of the loop is
  // allocation-free once arenas are warm; hot_path_allocs measures it. ---
  const std::uint64_t allocs_before = alloc_count();

  // --- Main loop over big-rounds. Rounds >= num_big_rounds exist only when
  // retransmissions extended the horizon; they have no scheduled events. ---
  std::uint64_t delivered_before = 0;
  for (std::uint32_t t = 0; t < horizon; ++t) {
    const std::size_t begin = t < num_big_rounds ? bucket_start[t] : events.size();
    const std::size_t end = t < num_big_rounds ? bucket_start[t + 1] : events.size();
    const std::size_t bucket_size = end - begin;
    round_begin = begin;
    // Telemetry is batched per big-round: the per-event/per-message path
    // below only bumps locals, so a null sink costs nothing and a live sink
    // costs O(1) virtual calls per big-round (plus one histogram sample per
    // touched edge).
    const std::uint64_t violations_before = result.causality_violations;
    TimedSpan round_span(telemetry, "executor", "big_round");

    // --- Gather this round's inboxes from the owners' pending segs:
    // counting-sort them (stably -- seg order is delivery order) into
    // contiguous arena-lane slices per event. Every pending message's
    // consumer provably executes in this round, and its slot lies in its
    // owner's tile range, so owners histogram and scatter only slots (and
    // 64-event presence words) they own: the whole gather runs on the pool
    // with no atomics, and the same bodies run inline build the identical
    // arena. Exact per-slot offsets come from one serial prefix-walk over
    // the populated presence bits between the two phases -- O(messages +
    // bucket/64), with no per-slot zeroing anywhere: the presence bitset is
    // all-zero on entry (the previous round cleared exactly the words it
    // touched) and the first touch of a slot *assigns* its count. ---
    round_has_inbox = false;
    std::size_t pend_total = 0;
    for (auto& ws : workers) {
      if (t < ws.pend_round.size() && ws.pend_round[t] != kNoBucket) {
        pend_total += ws.pend_pool[ws.pend_round[t]].slot.size();
      }
    }
    const std::uint32_t* sb =
        t < num_big_rounds
            ? slot_bound.data() + std::size_t{t} * (num_workers + 1)
            : nullptr;
    if (pend_total > 0) {
      round_has_inbox = true;
      const std::size_t present_words = (bucket_size + 63) / 64;
      // Grow-only sizing: shrinking would churn the zero-page invariant of
      // inbox_present and the warm capacity of the lanes.
      if (scratch.inbox_offset.size() < bucket_size) {
        scratch.inbox_offset.resize(bucket_size);
        scratch.inbox_cursor.resize(bucket_size);
        scratch.inbox_count.resize(bucket_size);
      }
      if (scratch.inbox_present.size() < present_words) {
        scratch.inbox_present.resize(present_words, 0);
      }
      if (scratch.arena_hdr.size() < pend_total) scratch.arena_hdr.resize(pend_total);
      if (scratch.arena_pay.size() < pend_total * W) {
        scratch.arena_pay.resize(pend_total * W);
      }
      auto histogram_body = [&](std::uint32_t w) {
        auto& ws = workers[w];
        const std::uint32_t seg_idx =
            t < ws.pend_round.size() ? ws.pend_round[t] : kNoBucket;
        if (seg_idx == kNoBucket) return;
        std::uint64_t* const present = scratch.inbox_present.data();
        std::uint32_t* const count = scratch.inbox_count.data();
        // First-touch histogram over this owner's dense slot lane: presence
        // bits double as the "count is live" guard, so count cells need no
        // pre-zeroing and the touched-word list scopes the post-round clear.
        for (const auto s : ws.pend_pool[seg_idx].slot) {
          const std::size_t word = s >> 6;
          const std::uint64_t bit = std::uint64_t{1} << (s & 63);
          const std::uint64_t wv = present[word];
          if ((wv & bit) != 0) {
            ++count[s];
          } else {
            if (wv == 0) ws.touched_words.push_back(static_cast<std::uint32_t>(word));
            present[word] = wv | bit;
            count[s] = 1;
          }
        }
      };
      auto scatter_body = [&](std::uint32_t w) {
        auto& ws = workers[w];
        const std::uint32_t seg_idx =
            t < ws.pend_round.size() ? ws.pend_round[t] : kNoBucket;
        if (seg_idx == kNoBucket) return;
        auto& seg = ws.pend_pool[seg_idx];
        const std::size_t m = seg.slot.size();
        const std::uint32_t* const sl = seg.slot.data();
        const std::uint32_t* const sh = seg.hdr.data();
        const std::uint64_t* const sp = seg.pay.data();
        const std::uint32_t* const offset = scratch.inbox_offset.data();
        std::uint32_t* const cursor = scratch.inbox_cursor.data();
        std::uint32_t* const ah = scratch.arena_hdr.data();
        std::uint64_t* const ap = scratch.arena_pay.data();
        // Width-specialized scatter: the W-word copy is a compile-time-sized
        // move; the prefetch hides the CSR target's first-touch miss (the
        // slot's base offset approximates the cursor well enough for a cache
        // line).
        for (std::size_t i = 0; i < m; ++i) {
          if (i + kScatterPrefetchDist < m) {
            prefetch_for_write(ap + std::size_t{offset[sl[i + kScatterPrefetchDist]]} * W);
          }
          const std::uint32_t at = cursor[sl[i]]++;
          ah[at] = sh[i];
          std::memcpy(ap + std::size_t{at} * W, sp + i * W,
                      W * sizeof(std::uint64_t));
        }
        seg.slot.clear();
        seg.hdr.clear();
        seg.pay.clear();
        ws.pend_free.push_back(seg_idx);
        ws.pend_round[t] = kNoBucket;
      };
      for_each_worker(pend_total, histogram_body);
      // Serial prefix over the populated slots only, in slot order (the
      // presence bits are walked word by word via countr_zero); doubles as
      // the cursor init, so the scatter needs no bit-walk of its own.
      {
        std::uint32_t running = 0;
        for (std::size_t wi = 0; wi < present_words; ++wi) {
          std::uint64_t bits = scratch.inbox_present[wi];
          while (bits != 0) {
            const std::size_t s = (wi << 6) + std::countr_zero(bits);
            bits &= bits - 1;
            scratch.inbox_offset[s] = running;
            scratch.inbox_cursor[s] = running;
            running += scratch.inbox_count[s];
          }
        }
      }
      for_each_worker(pend_total, scatter_body);
    }

    // --- Execute the bucket: statically sharded when large enough. When the
    // bucket has at least one tile per worker, shards are the workers' own
    // tile ranges -- the worker that scattered a tile's inboxes moments ago
    // executes that tile's events while they are still cache-resident.
    // Smaller buckets fall back to evenly-balanced shards (tile granularity
    // would idle workers); either way results are bit-identical. ---
    std::uint32_t shards = 1;
    if (num_workers > 1 && bucket_size >= 2 * kMinEventsPerShard) {
      shards = static_cast<std::uint32_t>(std::min<std::size_t>(
          num_workers, bucket_size / kMinEventsPerShard));
    }
    if (shards <= 1) {
      for (std::size_t i = begin; i < end; ++i) {
        execute_event(events[i], i, workers[0], t);
      }
      ++rounds_serial;
    } else if ((bucket_size + tile_events - 1) / tile_events >= num_workers) {
      auto shard_body = [&](std::uint32_t w) {
        const std::size_t lo = begin + sb[w];
        const std::size_t hi = begin + sb[w + 1];
        auto& ws = workers[w];
        for (std::size_t i = lo; i < hi; ++i) execute_event(events[i], i, ws, t);
      };
      pool_->run_static_ctx(num_workers, shard_body);
      ++rounds_parallel;
    } else {
      auto shard_body = [&](std::uint32_t s) {
        const std::size_t lo = begin + bucket_size * s / shards;
        const std::size_t hi = begin + bucket_size * (s + 1) / shards;
        auto& ws = workers[s];
        for (std::size_t i = lo; i < hi; ++i) execute_event(events[i], i, ws, t);
      };
      // run_ctx dispatches through one reference capture, so the pool's
      // std::function stays in its small-object buffer: no allocation.
      pool_->run_ctx(shards, shard_body);
      ++rounds_parallel;
    }

    // --- Restore the presence-bitset invariant (all-zero between rounds):
    // clear exactly the words this round's gather touched. O(touched words),
    // not O(bucket). ---
    if (round_has_inbox) {
      for (auto& ws : workers) {
        for (const auto word : ws.touched_words) scratch.inbox_present[word] = 0;
        ws.touched_words.clear();
      }
    }

    // --- Delivery barrier (docs/PERFORMANCE.md, "The delivery body").
    // One per-worker body, whatever the worker count, run by
    // for_each_worker. Every worker scans the round's message stream --
    // retransmissions due this round first (they are older than this round's
    // sends, and queued in stream order at earlier barriers), then every
    // shard's staging lanes in shard order -- and acts only on what it owns:
    //   * the loads of its directed-edge range (a self-zeroing fold);
    //   * messages whose consumer lies in its tiles, appended to its own
    //     pending seg in stream order. Stream order and the slot -> owner map
    //     do not depend on the thread count, so neither does any seg, nor
    //     any gather built from the segs;
    //   * worker 0 also takes every order-dependent stream: tag == T messages
    //     (routed by their packed finish key), causality violations, the
    //     recorder's per-message fates and, on faulty runs, the retry queue
    //     and the horizon.
    // No atomics anywhere: every written cell has exactly one owner. ---
    std::uint64_t retries_this_round = 0;
    if (max_retries > 0) {
      retry_queue.drain_into(t, retry_due);
      retries_this_round = retry_due.size();
    }
    std::uint64_t fresh_this_round = 0;
    for (auto& ws : workers) {
      scratch.staged_high_water =
          std::max(scratch.staged_high_water, ws.staged_hdr.size());
      fresh_this_round += ws.staged_hdr.size();
    }
    const std::uint64_t messages_this_round = retries_this_round + fresh_this_round;

    // Binds a message to the big-round in which its consumer executes: one
    // append to owner `ow`'s pending seg for round `dest`.
    auto park = [&](WorkerState& ow, std::uint32_t dest, std::uint32_t slot,
                    std::uint32_t hdr, const std::uint64_t* pay) {
      std::uint32_t idx = ow.pend_round[dest];
      if (idx == kNoBucket) {
        if (!ow.pend_free.empty()) {
          idx = ow.pend_free.back();
          ow.pend_free.pop_back();
        } else {
          idx = static_cast<std::uint32_t>(ow.pend_pool.size());
          ow.pend_pool.emplace_back();
        }
        ow.pend_round[dest] = idx;
      }
      auto& seg = ow.pend_pool[idx];
      seg.slot.push(slot);
      seg.hdr.push(hdr);
      std::memcpy(seg.pay.append_n(W), pay, W * sizeof(std::uint64_t));
    };
    // Worker 0's share of routing: a message no tile parks. tag == T messages
    // go to the finish lanes, consumed by on_finish after the loop. A message
    // whose consumer already ran (a causality violation) or never runs would
    // sit unread in any inbox; it is counted or dropped, which is
    // observationally identical.
    auto settle = [&](WorkerState& w0, std::uint64_t ds, std::uint32_t hdr,
                      const std::uint64_t* pay) {
      const auto dest = static_cast<std::uint32_t>(ds >> 32);
      if (dest == kFinishDest) {
        scratch.finish_key.push_back(static_cast<std::uint32_t>(ds));
        scratch.finish_hdr.push_back(hdr);
        scratch.finish_pay.insert(scratch.finish_pay.end(), pay, pay + W);
      } else if (dest != kNeverDest) {
        ++w0.violations;
      }
    };
    // One transmission attempt on a faulty run, as seen by worker w. Its fate
    // is a pure function of the message identity, the attempt and t
    // (docs/FAULTS.md), so every worker that needs it computes it and all
    // agree. The worker that settles the message -- its consumer tile's
    // owner, or worker 0 when no tile parks it -- tallies the fate and
    // delivers the copies; worker 0 also logs the recorder fates and queues
    // the retransmission, in stream order.
    auto transmit = [&](std::uint32_t w, const StagedMeta& meta, std::uint32_t edge,
                        std::uint32_t hdr, std::uint64_t ds, const std::uint64_t* pay,
                        std::uint32_t attempt) {
      const auto dest = static_cast<std::uint32_t>(ds >> 32);
      const auto slot = static_cast<std::uint32_t>(ds);
      const bool parked = dest < kNeverDest && dest > t;
      const bool settles = parked ? owns(w, dest, slot) : w == 0;
      const bool logs = w == 0 && (recorder != nullptr || max_retries > 0);
      if (!settles && !logs) return;
      using Kind = FlightRecorder::Kind;
      Kind fate = Kind::kDeliver;
      if (faults->link_down(edge / 2, t)) {
        fate = Kind::kDropOutage;
      } else if (faults->node_crashed(meta.to, t)) {
        fate = Kind::kDropCrash;  // a crashed receiver neither stores nor acks
      } else if (faults->drop(meta.alg, edge, meta.tag, attempt)) {
        fate = Kind::kDropRandom;
      }
      const bool delivered = fate == Kind::kDeliver;
      const bool duplicate =
          delivered && faults->duplicate(meta.alg, edge, meta.tag, attempt);
      // Without the reliable layer a duplicate is a second delivered copy;
      // with it, the per-edge bookkeeping recognizes and suppresses the copy.
      const std::uint32_t copies = !delivered ? 0 : (duplicate && max_retries == 0) ? 2 : 1;
      // A dropped attempt is retransmitted with exponential backoff (gap
      // 2^attempt) while the sender is alive and the budget lasts.
      const bool retry = !delivered && attempt < max_retries &&
                         !faults->node_crashed(msg_header_from(hdr), t + (1u << attempt));
      if (settles) {
        auto& fs = workers[w].faults;
        ++fs.attempts;
        fs.delivered += copies;
        fs.dropped_outage += fate == Kind::kDropOutage;
        fs.dropped_crash += fate == Kind::kDropCrash;
        fs.dropped_random += fate == Kind::kDropRandom;
        fs.duplicated += copies == 2;
        fs.duplicates_suppressed += duplicate && max_retries > 0;
        fs.retransmissions += retry;
        fs.lost += !delivered && !retry;
        for (std::uint32_t c = 0; c < copies; ++c) {
          if (parked) {
            park(workers[w], dest, slot, hdr, pay);
          } else {
            settle(workers[w], ds, hdr, pay);
          }
        }
      }
      if (w != 0) return;
      const std::uint64_t fr_key = (std::uint64_t{meta.alg} << 32) | meta.tag;
      if (recorder != nullptr) {
        recorder->record(num_workers, fate, t, fr_key, edge);
        if (copies == 2) recorder->record(num_workers, Kind::kDuplicate, t, fr_key, edge);
        if (retry) {
          recorder->record(num_workers, Kind::kRetry, t,
                           (std::uint64_t{attempt + 1} << 32) | meta.tag, edge);
        } else if (!delivered) {
          recorder->record(num_workers, Kind::kLost, t, fr_key, edge);
        }
      }
      if (retry) {
        const std::uint32_t retry_round = t + (1u << attempt);
        if (retry_round >= horizon) {
          horizon = retry_round + 1;
          result.max_load_per_big_round.resize(horizon, 0);
        }
        RetryMessage<W> rm{meta, edge, hdr, ds, {}};
        std::memcpy(rm.pay, pay, W * sizeof(std::uint64_t));
        retry_queue.schedule(retry_round, rm, attempt + 1);
      }
    };

    const std::uint64_t num_dir_edges = graph_.num_directed_edges();
    const bool observe_edges = profiler != nullptr || telemetry != nullptr;
    const bool log_deliveries = recorder != nullptr && faults == nullptr;
    auto barrier_body = [&](std::uint32_t w) {
      auto& ow = workers[w];
      // Phase E: every attempt -- retransmission or fresh, delivered or
      // dropped -- takes one unit of its edge's bandwidth this round.
      const auto elo = static_cast<std::uint32_t>(num_dir_edges * w / num_workers);
      const auto ehi = static_cast<std::uint32_t>(num_dir_edges * (w + 1) / num_workers);
      auto fold = [&](std::uint32_t d) {
        if (d >= elo && d < ehi && edge_count[d]++ == 0) ow.touched.push_back(d);
      };
      for (const auto& entry : retry_due) fold(entry.msg.directed_edge);
      for (const auto& src : workers) {
        for (const auto d : src.staged_edge) fold(d);
      }
      std::uint32_t local_max = 0;
      for (const auto d : ow.touched) {
        local_max = std::max(local_max, edge_count[d]);
        if (!observe_edges) edge_count[d] = 0;
      }
      ow.max_load_partial = local_max;
      // Per-edge observers read (and zero) the loads after the dispatch, in
      // ascending edge order.
      if (observe_edges) {
        std::uint64_t* const bits = ow.touched_bits.data();
        for (const auto d : ow.touched) {
          bits[(d - elo) >> 6] |= std::uint64_t{1} << ((d - elo) & 63);
        }
        ow.touched.clear();
        for (std::size_t wi = 0; wi < ow.touched_bits.size(); ++wi) {
          for (std::uint64_t b = bits[wi]; b != 0; b &= b - 1) {
            ow.touched.push_back(
                elo + static_cast<std::uint32_t>((wi << 6) + std::countr_zero(b)));
          }
          bits[wi] = 0;
        }
      } else {
        ow.touched.clear();
      }

      // Worker 0 logs the recorder's plain deliveries in stream order; faulty
      // runs log fates below instead.
      if (w == 0 && log_deliveries) {
        for (const auto& src : workers) {
          for (std::size_t i = 0; i < src.staged_hdr.size(); ++i) {
            const auto& meta = src.staged_meta[i];
            recorder->record(num_workers, FlightRecorder::Kind::kDeliver, t,
                             (std::uint64_t{meta.alg} << 32) | meta.tag, src.staged_edge[i]);
          }
        }
      }

      // Phase R: route.
      if (faults != nullptr) {
        for (const auto& entry : retry_due) {
          const auto& m = entry.msg;
          transmit(w, m.meta, m.directed_edge, m.hdr, m.dest, m.pay, entry.attempt);
        }
        for (const auto& src : workers) {
          for (std::size_t i = 0; i < src.staged_hdr.size(); ++i) {
            transmit(w, src.staged_meta[i], src.staged_edge[i], src.staged_hdr[i],
                     src.staged_dest[i], src.staged_pay.data() + i * W, 0);
          }
        }
        return;
      }
      for (const auto& src : workers) {
        const std::size_t m = src.staged_hdr.size();
        for (std::size_t i = 0; i < m; ++i) {
          const std::uint64_t ds = src.staged_dest[i];
          const auto dest = static_cast<std::uint32_t>(ds >> 32);
          const auto slot = static_cast<std::uint32_t>(ds);
          const std::uint64_t* pay = src.staged_pay.data() + i * W;
          if (dest >= kNeverDest || dest <= t) {
            if (w == 0) settle(ow, ds, src.staged_hdr[i], pay);
          } else if (owns(w, dest, slot)) {
            park(ow, dest, slot, src.staged_hdr[i], pay);
          }
        }
      }
    };
    for_each_worker(messages_this_round, barrier_body);

    std::uint32_t max_load = 0;
    for (auto& ws : workers) {
      max_load = std::max(max_load, ws.max_load_partial);
      // Worker order concatenates the ascending edge ranges: the cells come
      // out (big_round, edge)-sorted for every thread count.
      for (const auto d : ws.touched) {
        if (profiler != nullptr) profiler->record_cell(t, d, edge_count[d]);
        if (telemetry != nullptr) {
          telemetry->record_value("executor.edge_load", edge_count[d]);
        }
        edge_count[d] = 0;
      }
      ws.touched.clear();
      ws.staged_hdr.clear();
      ws.staged_pay.clear();
      ws.staged_meta.clear();
      ws.staged_edge.clear();
      ws.staged_dest.clear();
    }
    result.causality_violations += workers[0].violations;
    workers[0].violations = 0;
    result.total_messages += messages_this_round;
    if (cfg_.enforce_unit_capacity && max_load > 1) {
      // Post-mortem before the hard failure: the rings hold the deliveries
      // leading up to the overflow.
      if (recorder != nullptr) recorder->dump_on("unit_capacity_overflow");
      DASCHED_CHECK_LE(max_load, 1u,
                       "CONGEST bandwidth violated: >1 message per edge per round");
    }
    result.max_load_per_big_round[t] = max_load;
    result.max_edge_load = std::max(result.max_edge_load, max_load);

    if (profiler != nullptr) {
      profiler->end_round(t, messages_this_round, max_load, retries_this_round);
    }
    if (recorder != nullptr) {
      recorder->record_barrier(t, messages_this_round, max_load);
    }

    if (telemetry != nullptr) {
      std::uint64_t delivered_now = 0;
      for (const auto& ws : workers) delivered_now += ws.delivered;
      telemetry->add_counter("executor.messages_sent", messages_this_round);
      telemetry->add_counter("executor.messages_delivered",
                             delivered_now - delivered_before);
      telemetry->add_counter("executor.causality_violations",
                             result.causality_violations - violations_before);
      telemetry->record_value("executor.max_load_per_big_round", max_load);
      delivered_before = delivered_now;
      round_span.arg("t", t);
      round_span.arg("events", static_cast<double>(bucket_size));
      round_span.arg("messages", static_cast<double>(messages_this_round));
      round_span.arg("max_load", max_load);
    }
  }

  result.hot_path_allocs = alloc_count() - allocs_before;

  // Retransmissions may have extended the run past the scheduled horizon.
  result.num_big_rounds = horizon;
  for (const auto& ws : workers) add_fault_stats(result.faults, ws.faults);

  if (profiler != nullptr) profiler->end_run();
  if (recorder != nullptr && faults != nullptr && faults->num_crashes() > 0) {
    // Crash-stop faults fired: leave a post-mortem of the run's last events.
    recorder->dump_on("crash_stop_faults");
  }

  // --- Finish and collect outputs. The tag == T lanes accumulated across
  // the run are counting-sorted by their packed keys (stably: delivery order
  // is preserved within each node's slice) IN PLACE: compute each message's
  // final position, then realize the permutation by following its cycles,
  // swapping one header word and W payload words at a time. No second arena
  // exists -- at the million-node scale the old out-of-place copy doubled
  // the largest allocation of the whole run. A crash-stopped node never runs
  // on_finish and is never marked completed, even if it crashed after its
  // last scheduled event. ---
  auto& finish_offset = scratch.finish_offset;
  const std::size_t fcount = scratch.finish_key.size();
  DASCHED_CHECK_MSG(fcount < std::size_t{kPlaced},
                    "finish arena exceeds the in-place permutation index range");
  finish_offset.assign(k * n + 1, 0);
  for (const auto key : scratch.finish_key) {
    ++finish_offset[std::size_t{key} + 1];
  }
  for (std::size_t i = 1; i <= k * n; ++i) finish_offset[i] += finish_offset[i - 1];
  scratch.finish_target.resize(fcount);
  {
    auto& cursor = scratch.bucket_cursor;  // reuse: events array is flattened
    cursor.assign(finish_offset.begin(), finish_offset.end() - 1);
    for (std::size_t i = 0; i < fcount; ++i) {
      scratch.finish_target[i] =
          static_cast<std::uint32_t>(cursor[scratch.finish_key[i]]++);
    }
  }
  {
    std::uint32_t* const target = scratch.finish_target.data();
    std::uint32_t* const fh = scratch.finish_hdr.data();
    std::uint64_t* const fpay = scratch.finish_pay.data();
    for (std::size_t i = 0; i < fcount; ++i) {
      if ((target[i] & kPlaced) != 0) continue;
      if (target[i] == static_cast<std::uint32_t>(i)) {
        target[i] |= kPlaced;
        continue;
      }
      std::uint32_t tmp_hdr = fh[i];
      std::uint64_t tmp_pay[W];
      std::memcpy(tmp_pay, fpay + i * W, W * sizeof(std::uint64_t));
      std::uint32_t j = target[i];
      while (j != static_cast<std::uint32_t>(i)) {
        std::swap(tmp_hdr, fh[j]);
        for (std::uint32_t q = 0; q < W; ++q) {
          std::swap(tmp_pay[q], fpay[std::size_t{j} * W + q]);
        }
        const std::uint32_t nxt = target[j] & ~kPlaced;
        target[j] |= kPlaced;
        j = nxt;
      }
      fh[i] = tmp_hdr;
      std::memcpy(fpay + i * W, tmp_pay, W * sizeof(std::uint64_t));
      target[i] |= kPlaced;
    }
  }

  std::uint64_t delivered_at_finish = 0;
  for (std::size_t a = 0; a < k; ++a) {
    const std::uint32_t rounds = algorithms[a]->rounds();
    result.outputs[a].resize(n);
    result.completed[a].assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (progress[a][v] != rounds) continue;
      if (faults != nullptr && faults->crash_round(v) < horizon) continue;
      const std::size_t key = a * n + v;
      const std::size_t off = finish_offset[key];
      const auto cnt = static_cast<std::uint32_t>(finish_offset[key + 1] - off);
      const InboxView in(scratch.finish_hdr.data() + off,
                         scratch.finish_pay.data() + off * W, W, cnt);
      delivered_at_finish += cnt;
      VirtualContext ctx;
      ctx.self_ = v;
      ctx.num_nodes_ = n;
      ctx.vround_ = rounds + 1;
      ctx.inbox_ = in;
      ctx.neighbors_ = graph_.neighbors(v);
      ctx.send_fn_ = nullptr;
      ctx.sink_ = nullptr;
      ctx.rng_ = &rngs[a][v];
      programs[a][v]->on_finish(ctx);
      result.completed[a][v] = 1;
      result.outputs[a][v] = programs[a][v]->output();
    }
  }

  if (telemetry != nullptr) {
    telemetry->add_counter("executor.messages_delivered", delivered_at_finish);
    telemetry->set_gauge("executor.max_edge_load", result.max_edge_load);
    telemetry->set_gauge("executor.parallel.num_threads", num_workers);
    telemetry->add_counter("executor.parallel.rounds_parallel", rounds_parallel);
    telemetry->add_counter("executor.parallel.rounds_serial", rounds_serial);
    run_span.arg("total_messages", static_cast<double>(result.total_messages));
    if (faults != nullptr) {
      // fault.* names are emitted only on faulty runs, so a null injector
      // leaves the telemetry stream byte-identical to the reliable engine.
      const auto& fs = result.faults;
      // Keep big_rounds == rounds_serial + rounds_parallel when retries
      // extended the horizon past the scheduled rounds counted up front.
      telemetry->add_counter("executor.big_rounds", horizon - num_big_rounds);
      telemetry->add_counter("fault.attempts", fs.attempts);
      telemetry->add_counter("fault.delivered", fs.delivered);
      telemetry->add_counter("fault.dropped.random", fs.dropped_random);
      telemetry->add_counter("fault.dropped.outage", fs.dropped_outage);
      telemetry->add_counter("fault.dropped.crash", fs.dropped_crash);
      telemetry->add_counter("fault.duplicates.delivered", fs.duplicated);
      telemetry->add_counter("fault.duplicates.suppressed", fs.duplicates_suppressed);
      telemetry->add_counter("fault.retransmissions", fs.retransmissions);
      telemetry->add_counter("fault.lost", fs.lost);
      telemetry->add_counter("fault.skipped_events", fs.skipped_events);
      telemetry->set_gauge("fault.crashed_nodes", faults->num_crashes());
      telemetry->set_gauge("fault.retry_budget", max_retries);
    }
  }

  return result;
}

std::uint64_t result_fingerprint(const ExecutionResult& result) {
  Fingerprint fp;
  for (const auto& per_alg : result.outputs) {
    for (const auto& out : per_alg) {
      fp.mix(out.size());
      for (const auto w : out) fp.mix(w);
    }
  }
  for (const auto& per_alg : result.completed) {
    for (const auto c : per_alg) fp.mix(c);
  }
  for (const auto l : result.max_load_per_big_round) fp.mix(l);
  return fp.digest();
}

}  // namespace dasched
