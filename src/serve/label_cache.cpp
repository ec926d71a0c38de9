#include "serve/label_cache.hpp"

#include "common/error.hpp"

namespace gv {

Sha256Digest feature_row_digest(const CsrMatrix& features, std::uint32_t row) {
  GV_CHECK(row < features.rows(), "feature row out of range");
  const auto begin = features.row_ptr()[row];
  const auto end = features.row_ptr()[row + 1];
  Sha256 h;
  const std::uint32_t* cols = features.col_idx().data() + begin;
  const float* vals = features.values().data() + begin;
  const auto count = static_cast<std::size_t>(end - begin);
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(cols), count * sizeof(std::uint32_t)));
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(vals), count * sizeof(float)));
  return h.finish();
}

std::optional<std::uint32_t> LabelCache::get(std::uint32_t node,
                                             const Sha256Digest& digest) {
  if (capacity_ == 0) return std::nullopt;
  MutexLock lock(mu_);
  const auto it = index_.find(node);
  if (it == index_.end()) return std::nullopt;
  if (it->second->digest != digest) {
    // Stale: the node's features changed since the label was cached.
    lru_.erase(it->second);
    index_.erase(it);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return lru_.front().label;
}

void LabelCache::put(std::uint32_t node, const Sha256Digest& digest,
                     std::uint32_t label, std::uint64_t generation) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  if (generation != generation_) return;  // computed before the last clear()
  const auto it = index_.find(node);
  if (it != index_.end()) {
    it->second->digest = digest;
    it->second->label = label;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().node);
    lru_.pop_back();
  }
  lru_.push_front({node, digest, label});
  index_[node] = lru_.begin();
}

std::size_t LabelCache::invalidate_nodes(std::span<const std::uint32_t> nodes) {
  if (capacity_ == 0) return 0;
  MutexLock lock(mu_);
  std::size_t evicted = 0;
  for (const auto node : nodes) {
    const auto it = index_.find(node);
    if (it == index_.end()) continue;
    lru_.erase(it->second);
    index_.erase(it);
    ++evicted;
  }
  return evicted;
}

void LabelCache::clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
  ++generation_;
}

std::uint64_t LabelCache::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

std::size_t LabelCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace gv
