// LRU cache of served labels.
//
// A GNN label depends on the node's (private) multi-hop neighbourhood, not
// just its own feature row, so the node id must be part of the key.  Each
// entry additionally stores a SHA-256 digest of the node's feature row: a
// lookup whose digest no longer matches is treated as a miss and evicted.
// The digest cannot see a NEIGHBOUR's row change, and the untrusted front
// end cannot know the private neighbourhood, so a feature update clear()s
// the whole cache; the generation counter keeps a batch that was computed
// before the clear from filing its labels after it.  Thread-safe — the
// server's worker threads fill it while request threads probe it.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/thread_safety.hpp"
#include "common/arena.hpp"
#include "sgxsim/sha256.hpp"
#include "tensor/csr.hpp"

namespace gv {

/// Digest of row `row` of a sparse feature matrix (column indices + values).
Sha256Digest feature_row_digest(const CsrMatrix& features, std::uint32_t row);

class LabelCache {
 public:
  /// `capacity` = maximum resident entries; 0 disables the cache entirely.
  explicit LabelCache(std::size_t capacity) : capacity_(capacity) {
    // Bucket growth is a warm-up event, not a steady-state one: the map
    // never holds more than `capacity` keys.
    if (capacity_ > 0) index_.reserve(capacity_);
  }

  /// Look up a node's label; moves the entry to the front on a hit.
  /// A digest mismatch (stale features) evicts the entry and misses.
  std::optional<std::uint32_t> get(std::uint32_t node, const Sha256Digest& digest);

  /// Insert/refresh an entry, evicting the least recently used if full.
  /// `generation` is generation() as read before the label was computed;
  /// the entry is dropped when a clear() has landed since.
  void put(std::uint32_t node, const Sha256Digest& digest, std::uint32_t label,
           std::uint64_t generation);

  /// Graph-update sweep: evict the entries of exactly these nodes.  A graph
  /// mutation changes labels through the (private) neighbourhood while the
  /// feature rows — and therefore the digests — stay put, so the digest
  /// scheme cannot catch it; the caller passes the delta-derived affected
  /// set instead.  Returns the number of evicted entries.
  std::size_t invalidate_nodes(std::span<const std::uint32_t> nodes);

  /// Evict everything and advance the generation.
  void clear();
  /// Number of clear() calls so far.
  std::uint64_t generation() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Entry {
    std::uint32_t node;
    Sha256Digest digest;
    std::uint32_t label;
  };

  // Node-recycling allocators (common/arena.hpp): the evict-one/insert-one
  // churn of a full cache — and the erase/insert traffic of the eviction
  // sweeps — round-trips through a free list instead of the heap, keeping
  // the serving path allocation-free after warm-up.
  using Lru = std::list<Entry, RecyclingAllocator<Entry>>;
  using Index = std::unordered_map<
      std::uint32_t, Lru::iterator, std::hash<std::uint32_t>,
      std::equal_to<std::uint32_t>,
      RecyclingAllocator<std::pair<const std::uint32_t, Lru::iterator>>>;

  std::size_t capacity_;
  mutable Mutex mu_{gv::lockrank::kQueue};
  Lru lru_;  // front = most recently used
  Index index_;
  std::uint64_t generation_ = 0;  // guarded by mu_
};

}  // namespace gv
