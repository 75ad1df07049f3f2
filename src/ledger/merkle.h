// Merkle-tree helpers over SHA-256 digests (RFC 6962 tree shape).
//
// The ledger uses the same tree construction at two levels: entry leaf
// hashes within a segment, and segment roots within the whole ledger.
// Trees follow the Certificate-Transparency recursion — split at the
// largest power of two strictly below n — so a tree's shape depends only
// on its leaf count and audit paths stay O(log n).
//
// Domain separation: leaf hashes arrive already domain-tagged (the entry
// layer prefixes 0x00 for leaves and 0x01 for chain links); interior
// nodes here hash with a 0x02 prefix, and the ledger's final root binds
// everything under 0x03. No input collides across layers.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.h"

namespace alidrone::ledger {

using Digest = crypto::Sha256::Digest;

/// The root of an empty tree: all zero bytes (also the chain seed).
inline constexpr Digest kZeroDigest{};

/// Interior node: SHA-256(0x02 || left || right).
Digest merkle_node(const Digest& left, const Digest& right);

/// RFC 6962 merkle tree hash of `leaves` (kZeroDigest when empty, the
/// leaf itself when single — leaves are pre-hashed upstream).
Digest merkle_root(std::span<const Digest> leaves);

/// Audit path for `leaves[index]` (sibling hashes, leaf-to-root order).
std::vector<Digest> merkle_path(std::span<const Digest> leaves,
                                std::size_t index);

/// Recompute the root implied by `leaf` sitting at `index` within a tree
/// of `count` leaves, folding the audit path upward.
Digest merkle_fold(const Digest& leaf, std::size_t index, std::size_t count,
                   std::span<const Digest> path);

inline bool merkle_verify(const Digest& root, const Digest& leaf,
                          std::size_t index, std::size_t count,
                          std::span<const Digest> path) {
  return count != 0 && index < count &&
         merkle_fold(leaf, index, count, path) == root;
}

/// Tree hash of the contiguous leaf range [lo, hi) as a standalone tree.
/// Range hashes are what replicas exchange during divergence descent: the
/// shape depends only on hi - lo, so two replicas' hashes over the same
/// range are comparable even when their total leaf counts differ.
Digest merkle_range(std::span<const Digest> leaves, std::size_t lo,
                    std::size_t hi);

/// Append-only cache of an RFC 6962 tree's complete subtrees: level h
/// holds the hash of every full, aligned leaf block [i·2^h, (i+1)·2^h).
/// Every root, path and range the recursion above builds decomposes into
/// such blocks plus at most one partial suffix per level, so with the
/// cache warm root() and path() hash O(log n) nodes and range() does too
/// whenever `lo` is aligned to the blocks it spans (every range the
/// divergence descent asks for is). The partial suffixes that end at the
/// last leaf (the tree's right spine) are memoized until the next
/// push_back or a different tail, so after one root() a path() hashes
/// nothing. Results equal merkle_root / merkle_path / merkle_range byte
/// for byte.
///
/// push_back() does no hashing; the readers first extend the cache over
/// leaves pushed since the last read (amortized one node per leaf), which
/// is why they are non-const. Not thread-safe: the owner serializes.
///
/// `tail` is an optional extra leaf after the cached ones that is still
/// changing (the ledger's open segment root): it takes part in the tree
/// without being cached.
class MerkleCache {
 public:
  void push_back(const Digest& leaf);
  std::size_t size() const { return levels_.empty() ? 0 : levels_[0].size(); }
  const Digest& leaf(std::size_t index) const { return levels_[0][index]; }
  std::span<const Digest> leaves() const {
    return levels_.empty() ? std::span<const Digest>() : levels_[0];
  }

  /// merkle_root over leaves() ++ tail.
  Digest root(const std::optional<Digest>& tail = std::nullopt);
  /// merkle_path over leaves() ++ tail.
  std::vector<Digest> path(std::size_t index,
                           const std::optional<Digest>& tail = std::nullopt);
  /// merkle_range over leaves() ++ tail.
  Digest range(std::size_t lo, std::size_t hi,
               const std::optional<Digest>& tail = std::nullopt);

 private:
  void extend();
  Digest subtree(std::size_t lo, std::size_t hi,
                 const std::optional<Digest>& tail);
  void path_into(std::size_t lo, std::size_t hi, std::size_t index,
                 const std::optional<Digest>& tail, std::vector<Digest>& out);

  std::vector<std::vector<Digest>> levels_;  ///< [0] = leaves
  /// Right-spine memo: (lo, hash of [lo, spine_count_)) for the partial
  /// suffixes computed at spine_count_ leaves (tail included) and
  /// spine_tail_.
  std::vector<std::pair<std::size_t, Digest>> spine_;
  std::size_t spine_count_ = 0;
  std::optional<Digest> spine_tail_;
};

/// Answers merkle_range queries for one party during divergence descent.
/// Returns nullopt when the range cannot be served (peer unreachable) —
/// the descent aborts without a verdict.
using RangeProbe =
    std::function<std::optional<Digest>(std::size_t lo, std::size_t hi)>;

/// Binary Merkle descent: find the first leaf index where two parties'
/// trees differ, comparing O(log n) range hashes instead of n leaves.
/// `count_a`/`count_b` are the parties' leaf counts. Returns:
///   - nullopt         — identical over [0, min(count_a, count_b)) and
///                       equal counts (no divergence), or a probe failed;
///   - min(count_a, count_b) — one side is a strict prefix of the other;
///   - i < min(...)    — first differing leaf.
std::optional<std::size_t> first_divergent_leaf(std::size_t count_a,
                                                const RangeProbe& probe_a,
                                                std::size_t count_b,
                                                const RangeProbe& probe_b);

}  // namespace alidrone::ledger
