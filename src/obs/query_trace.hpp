// QueryLens per-query causal tracing: a 64-bit query id allocated at
// MicroBatchQueue enqueue and carried through batch flush -> ShardRouter ->
// per-shard ecalls -> attested-channel halo-pull request trailers (so a
// peer's halo_serve work is attributed to the originating query) ->
// cold recursion.
//
// Propagation is a thread-local "current query" slot managed by the RAII
// QueryScope: the worker flushing a batch enters the scope of the batch's
// representative entry, and every TraceSpan destroyed under the scope
// auto-attaches a "query_id" arg — one filter in Perfetto reconstructs a
// single query's cross-shard cascade.  Crossing an attested channel, the id
// rides as a sealed 8-byte trailer on the halo-pull request payload
// (observability context, not frontier data: it is excluded from the
// logical request-byte audit but padded/sealed with everything else), and
// the serving shard re-enters the received scope before emitting its
// halo_serve span — attribution genuinely flows through the channel, not
// through shared process state.
//
// The critical-path breakdown lands in per-stage wall-second histograms
// (`query.stage_seconds{stage=...}` in the global MetricsRegistry):
//
//   queue  enqueue -> batch flush start, per entry
//   flush  one batch end-to-end (routing, ecalls, fan-out included)
//   ecall  in-enclave label lookups (per shard sub-batch)
//   halo   a peer shard serving one cold halo pull
//   cold   one demand-driven cold cross-shard walk
//   fence  migration/update fences + promotion fence waits
//
// Stages overlap by construction (flush contains ecall/cold/fence): each
// histogram answers "where does a query's time go" per mechanism, which is
// the direct measurement AsyncFabric's overlap fraction will be judged
// against.  Recording is a steady_clock read plus a few relaxed atomics and
// is always on — unlike spans it needs no GNNVAULT_TRACE opt-in.
#pragma once

#include <cstdint>

namespace gv {

/// Allocate a fresh, never-zero query id (process-wide monotonic; ids stay
/// below 2^53, so the double-typed span arg round-trips exactly).
std::uint64_t next_query_id();

/// The calling thread's current query id; 0 when no query is in scope.
std::uint64_t current_query_id();

/// RAII: set the calling thread's current query id, restoring the previous
/// one on destruction (scopes nest; entering id 0 deliberately clears the
/// context, e.g. a peer shard that received no halo request).
class QueryScope {
 public:
  explicit QueryScope(std::uint64_t id);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// Critical-path stages of one query (see the breakdown table above).
enum class QueryStage : int {
  kQueue = 0,
  kFlush,
  kEcall,
  kHalo,
  kCold,
  kFence,
};

/// Stable lowercase stage name ("queue", "flush", ...).
const char* query_stage_name(QueryStage stage);

/// Record `wall_seconds` into the stage's histogram
/// `query.stage_seconds{stage=<name>}` in MetricsRegistry::global().
/// Instrument references are resolved once and cached.
void record_query_stage(QueryStage stage, double wall_seconds);

}  // namespace gv
