#include "ledger/merkle.h"

#include <bit>

namespace alidrone::ledger {

namespace {

/// Largest power of two strictly below n (n >= 2) — the RFC 6962 split.
std::size_t split_point(std::size_t n) { return std::bit_floor(n - 1); }

}  // namespace

Digest merkle_node(const Digest& left, const Digest& right) {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x02;
  h.update({&tag, 1});
  h.update(left);
  h.update(right);
  return h.finalize();
}

Digest merkle_range(std::span<const Digest> leaves, std::size_t lo,
                    std::size_t hi) {
  if (lo >= hi || hi > leaves.size()) return kZeroDigest;
  const std::size_t n = hi - lo;
  if (n == 1) return leaves[lo];
  const std::size_t k = split_point(n);
  return merkle_node(merkle_range(leaves, lo, lo + k),
                     merkle_range(leaves, lo + k, hi));
}

Digest merkle_root(std::span<const Digest> leaves) {
  return merkle_range(leaves, 0, leaves.size());
}

namespace {

void path_in_range(std::span<const Digest> leaves, std::size_t lo,
                   std::size_t hi, std::size_t index,
                   std::vector<Digest>& out) {
  const std::size_t n = hi - lo;
  if (n <= 1) return;
  const std::size_t k = split_point(n);
  if (index < lo + k) {
    path_in_range(leaves, lo, lo + k, index, out);
    out.push_back(merkle_range(leaves, lo + k, hi));
  } else {
    path_in_range(leaves, lo + k, hi, index, out);
    out.push_back(merkle_range(leaves, lo, lo + k));
  }
}

}  // namespace

std::vector<Digest> merkle_path(std::span<const Digest> leaves,
                                std::size_t index) {
  std::vector<Digest> out;
  if (index < leaves.size()) {
    path_in_range(leaves, 0, leaves.size(), index, out);
  }
  return out;
}

Digest merkle_fold(const Digest& leaf, std::size_t index, std::size_t count,
                   std::span<const Digest> path) {
  // Replay the recursion bottom-up: at each level the subtree containing
  // `index` has `count` leaves split at k; the sibling hash from the path
  // joins on the side the index is not on.
  if (count == 0) return kZeroDigest;
  std::vector<std::pair<bool, std::size_t>> steps;  // (index_on_left, k)
  std::size_t lo = 0;
  std::size_t n = count;
  while (n > 1) {
    const std::size_t k = split_point(n);
    if (index < lo + k) {
      steps.emplace_back(true, k);
      n = k;
    } else {
      steps.emplace_back(false, n - k);
      lo += k;
      n -= k;
    }
  }
  if (path.size() != steps.size()) return kZeroDigest;
  Digest acc = leaf;
  for (std::size_t i = steps.size(); i-- > 0;) {
    const Digest& sibling = path[steps.size() - 1 - i];
    acc = steps[i].first ? merkle_node(acc, sibling)
                         : merkle_node(sibling, acc);
  }
  return acc;
}

void MerkleCache::push_back(const Digest& leaf) {
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(leaf);
}

void MerkleCache::extend() {
  if (levels_.empty()) return;
  for (std::size_t h = 0; levels_[h].size() >= 2; ++h) {
    if (levels_.size() == h + 1) levels_.emplace_back();
    const std::vector<Digest>& below = levels_[h];
    std::vector<Digest>& above = levels_[h + 1];
    while (above.size() < below.size() / 2) {
      const std::size_t i = above.size();
      above.push_back(merkle_node(below[2 * i], below[2 * i + 1]));
    }
  }
}

Digest MerkleCache::subtree(std::size_t lo, std::size_t hi,
                            const std::optional<Digest>& tail) {
  const std::size_t n = hi - lo;
  if (n == 1) return lo < size() ? levels_[0][lo] : *tail;
  if (std::has_single_bit(n) && lo % n == 0 && hi <= size()) {
    return levels_[static_cast<std::size_t>(std::countr_zero(n))][lo / n];
  }
  const bool on_spine = hi == size() + (tail ? 1 : 0);
  if (on_spine) {
    if (spine_count_ != hi || spine_tail_ != tail) {
      spine_.clear();
      spine_count_ = hi;
      spine_tail_ = tail;
    }
    for (const auto& [start, hash] : spine_) {
      if (start == lo) return hash;
    }
  }
  const std::size_t k = split_point(n);
  const Digest node =
      merkle_node(subtree(lo, lo + k, tail), subtree(lo + k, hi, tail));
  if (on_spine) spine_.emplace_back(lo, node);
  return node;
}

void MerkleCache::path_into(std::size_t lo, std::size_t hi, std::size_t index,
                            const std::optional<Digest>& tail,
                            std::vector<Digest>& out) {
  const std::size_t n = hi - lo;
  if (n <= 1) return;
  const std::size_t k = split_point(n);
  if (index < lo + k) {
    path_into(lo, lo + k, index, tail, out);
    out.push_back(subtree(lo + k, hi, tail));
  } else {
    path_into(lo + k, hi, index, tail, out);
    out.push_back(subtree(lo, lo + k, tail));
  }
}

Digest MerkleCache::range(std::size_t lo, std::size_t hi,
                          const std::optional<Digest>& tail) {
  if (lo >= hi || hi > size() + (tail ? 1 : 0)) return kZeroDigest;
  extend();
  return subtree(lo, hi, tail);
}

Digest MerkleCache::root(const std::optional<Digest>& tail) {
  return range(0, size() + (tail ? 1 : 0), tail);
}

std::vector<Digest> MerkleCache::path(std::size_t index,
                                      const std::optional<Digest>& tail) {
  std::vector<Digest> out;
  const std::size_t n = size() + (tail ? 1 : 0);
  if (index < n) {
    extend();
    path_into(0, n, index, tail, out);
  }
  return out;
}

std::optional<std::size_t> first_divergent_leaf(std::size_t count_a,
                                                const RangeProbe& probe_a,
                                                std::size_t count_b,
                                                const RangeProbe& probe_b) {
  const std::size_t n = std::min(count_a, count_b);
  if (n == 0) {
    return count_a == count_b ? std::nullopt : std::optional<std::size_t>(0);
  }
  const auto differs = [&](std::size_t lo,
                           std::size_t hi) -> std::optional<bool> {
    const auto a = probe_a(lo, hi);
    const auto b = probe_b(lo, hi);
    if (!a || !b) return std::nullopt;
    return *a != *b;
  };
  const auto whole = differs(0, n);
  if (!whole) return std::nullopt;  // probe failed: no verdict
  if (!*whole) {
    // Shared prefix is identical; a longer side diverges right after it.
    return count_a == count_b ? std::nullopt : std::optional<std::size_t>(n);
  }
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > 1) {
    const std::size_t k = split_point(hi - lo);
    const auto left = differs(lo, lo + k);
    if (!left) return std::nullopt;
    if (*left) {
      hi = lo + k;
    } else {
      lo += k;
    }
  }
  return lo;
}

}  // namespace alidrone::ledger
