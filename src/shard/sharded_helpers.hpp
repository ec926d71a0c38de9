// Helpers shared by the two translation units of ShardedVaultDeployment
// (sharded_deployment.cpp: provisioning, serving and the frontier engine;
// sharded_mutation.cpp: update_graph and move_node).  Internal linkage on
// purpose: include it from those two files only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace gv {
namespace {

/// Position of `v` in sorted `ids`; throws when absent.
std::uint32_t position_of(const std::vector<std::uint32_t>& ids, std::uint32_t v,
                          const char* what) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  GV_CHECK(it != ids.end() && *it == v, what);
  return static_cast<std::uint32_t>(it - ids.begin());
}

/// The exact D̃^{-1/2} float the global normalization computes for an
/// integer degree — renormalized entries must match gcn_normalized() bit
/// for bit, so the formula is recomputed from the degree, never nudged.
float deg_inv_sqrt(std::uint32_t deg) {
  return 1.0f / std::sqrt(static_cast<float>(deg + 1));
}

/// FNV digest of one adjacency row's (global col, value) pairs: the
/// "did this row actually change?" oracle behind stale-label invalidation
/// (a delta that cancels out leaves digests — and labels — untouched).
std::uint64_t row_fnv(const std::vector<std::pair<std::uint32_t, float>>& row) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [c, v] : row) {
    h = (h ^ c) * 0x100000001b3ull;
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace
}  // namespace gv
