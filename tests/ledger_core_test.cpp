// Ledger core invariants (labelled `ledger` in ctest): canonical entry
// encoding, Merkle tree/path/range algebra, chain and root determinism,
// inclusion proofs across segment boundaries, crash recovery (torn-tail
// truncation of the open segment), tamper detection with exact segment
// localization, compaction keeping the root fixed, and the subtree
// caches behind roots and proofs against the recursive reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ledger/crc32.h"
#include "ledger/entry.h"
#include "ledger/ledger.h"
#include "ledger/merkle.h"
#include "ledger/segment.h"
#include "obs/metrics.h"

namespace alidrone::ledger {
namespace {

constexpr double kT0 = 1528400000.0;

crypto::Bytes payload_bytes(const std::string& s) {
  return crypto::Bytes(s.begin(), s.end());
}

LedgerEntry make_entry(std::uint64_t seq, const std::string& payload) {
  LedgerEntry entry;
  entry.seq = seq;
  entry.kind = EntryKind::kAuditEvent;
  entry.time = kT0 + static_cast<double>(seq);
  entry.payload = payload_bytes(payload);
  return entry;
}

/// Append `count` deterministic entries; returns the payload strings.
std::vector<std::string> fill(Ledger& ledger, std::size_t count,
                              std::size_t offset = 0) {
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string payload =
        "event-" + std::to_string(offset + i) + "|detail";
    const crypto::Bytes bytes = payload_bytes(payload);
    ledger.append(EntryKind::kAuditEvent, kT0 + static_cast<double>(offset + i),
                  bytes);
    payloads.push_back(payload);
  }
  return payloads;
}

class LedgerDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("alidrone-ledger-" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Ledger::Config durable_config(std::size_t capacity = 4) {
    Ledger::Config config;
    config.directory = dir_;
    config.segment_capacity = capacity;
    config.metrics = &metrics_;
    return config;
  }

  std::filesystem::path segment_file(std::uint64_t first_seq) const {
    char name[32];
    std::snprintf(name, sizeof(name), "segment-%012llu.seg",
                  static_cast<unsigned long long>(first_seq));
    return dir_ / name;
  }

  std::filesystem::path dir_;
  obs::MetricsRegistry metrics_;
};

// ---- Entry encoding ----

TEST(LedgerEntryTest, CanonicalRoundTrip) {
  const LedgerEntry entry = make_entry(42, "hello|world");
  const crypto::Bytes encoded = entry.canonical();
  EXPECT_EQ(encoded.size(), entry.canonical_size());

  const auto decoded = LedgerEntry::parse(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, entry.seq);
  EXPECT_EQ(decoded->kind, entry.kind);
  EXPECT_EQ(decoded->time, entry.time);
  EXPECT_EQ(decoded->payload, entry.payload);
  EXPECT_EQ(decoded->leaf_hash(), entry.leaf_hash());
  EXPECT_EQ(entry_leaf_hash(encoded), entry.leaf_hash());
}

TEST(LedgerEntryTest, ParseIsStrict) {
  const crypto::Bytes encoded = make_entry(7, "x").canonical();

  crypto::Bytes trailing = encoded;
  trailing.push_back(0x00);
  EXPECT_FALSE(LedgerEntry::parse(trailing).has_value());

  crypto::Bytes truncated(encoded.begin(), encoded.end() - 1);
  EXPECT_FALSE(LedgerEntry::parse(truncated).has_value());

  crypto::Bytes bad_kind = encoded;
  bad_kind[8] = 0xEE;  // unknown EntryKind
  EXPECT_FALSE(LedgerEntry::parse(bad_kind).has_value());
}

TEST(LedgerEntryTest, LeafAndChainAreDomainSeparated) {
  const LedgerEntry entry = make_entry(0, "payload");
  const Digest leaf = entry.leaf_hash();
  const Digest chain = chain_link(kZeroDigest, leaf);
  EXPECT_NE(leaf, chain);
  EXPECT_NE(leaf, crypto::Sha256::hash(entry.canonical()));
}

// ---- Merkle algebra ----

TEST(MerkleTest, KnownShapes) {
  EXPECT_EQ(merkle_root({}), kZeroDigest);

  std::vector<Digest> leaves;
  for (int i = 0; i < 7; ++i) {
    leaves.push_back(crypto::Sha256::hash("leaf-" + std::to_string(i)));
  }
  // Single leaf: the tree IS the leaf.
  EXPECT_EQ(merkle_root({leaves.data(), 1}), leaves[0]);
  // Two leaves: one interior node.
  EXPECT_EQ(merkle_root({leaves.data(), 2}), merkle_node(leaves[0], leaves[1]));
  // RFC 6962 split: 7 leaves split 4 + 3.
  const Digest left = merkle_root({leaves.data(), 4});
  const Digest right = merkle_root({leaves.data() + 4, 3});
  EXPECT_EQ(merkle_root(leaves), merkle_node(left, right));
}

TEST(MerkleTest, PathsVerifyAtEveryIndexAndCount) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 13; ++i) {
    leaves.push_back(crypto::Sha256::hash("leaf-" + std::to_string(i)));
    const Digest root = merkle_root(leaves);
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      const std::vector<Digest> path = merkle_path(leaves, j);
      EXPECT_TRUE(merkle_verify(root, leaves[j], j, leaves.size(), path));
      // The same path must not verify a different leaf.
      const Digest wrong = crypto::Sha256::hash("not-a-leaf");
      EXPECT_FALSE(merkle_verify(root, wrong, j, leaves.size(), path));
    }
  }
}

TEST(MerkleTest, RangeHashesComposeLikeSubtrees) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 11; ++i) {
    leaves.push_back(crypto::Sha256::hash("r-" + std::to_string(i)));
  }
  EXPECT_EQ(merkle_range(leaves, 0, leaves.size()), merkle_root(leaves));
  // A range hash depends only on the leaves inside it, so two parties
  // with different totals can still compare [lo, hi).
  std::vector<Digest> shorter(leaves.begin(), leaves.begin() + 8);
  EXPECT_EQ(merkle_range(leaves, 2, 8), merkle_range(shorter, 2, 8));
}

TEST(MerkleTest, FirstDivergentLeafFindsTheExactIndex) {
  constexpr std::size_t kLeaves = 21;
  std::vector<Digest> a;
  for (std::size_t i = 0; i < kLeaves; ++i) {
    a.push_back(crypto::Sha256::hash("leaf-" + std::to_string(i)));
  }
  const auto probe = [](const std::vector<Digest>& leaves) {
    return [&leaves](std::size_t lo,
                     std::size_t hi) -> std::optional<Digest> {
      return merkle_range(leaves, lo, hi);
    };
  };

  // Identical trees: no divergence.
  EXPECT_EQ(first_divergent_leaf(a.size(), probe(a), a.size(), probe(a)),
            std::nullopt);

  // Flip each leaf in turn: the descent names exactly that index.
  for (std::size_t flip = 0; flip < kLeaves; ++flip) {
    std::vector<Digest> b = a;
    b[flip][0] ^= 0x01;
    const auto found =
        first_divergent_leaf(a.size(), probe(a), b.size(), probe(b));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, flip);
  }

  // Strict prefix: divergence at the shorter count.
  std::vector<Digest> prefix(a.begin(), a.begin() + 9);
  const auto found =
      first_divergent_leaf(a.size(), probe(a), prefix.size(), probe(prefix));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, prefix.size());
}

// ---- Subtree cache vs the recursive reference ----

std::vector<Digest> numbered_leaves(std::size_t count) {
  std::vector<Digest> leaves;
  for (std::size_t i = 0; i < count; ++i) {
    leaves.push_back(crypto::Sha256::hash("c-" + std::to_string(i)));
  }
  return leaves;
}

/// Counts whose every path is compared byte for byte with merkle_path.
/// That reference costs O(n) hashes per path, so it runs on all small
/// counts and on 128 and 256 ±1 (256 is the ledger's default segment
/// capacity). Every other count folds each index's path up to the
/// reference root instead.
bool byte_compare_count(std::size_t n) {
  return n <= 64 || (n >= 127 && n <= 129) || (n >= 255 && n <= 257);
}

TEST(MerkleCacheTest, MatchesReferenceAtEveryCount) {
  const std::vector<Digest> all = numbered_leaves(600);
  const Digest tail = crypto::Sha256::hash("open-segment-root");
  MerkleCache grown;  // extended a little after every push
  for (std::size_t n = 0; n <= 600; ++n) {
    if (n > 0) grown.push_back(all[n - 1]);
    const std::span<const Digest> leaves(all.data(), n);
    std::vector<Digest> with_tail(leaves.begin(), leaves.end());
    with_tail.push_back(tail);
    const Digest root = merkle_root(leaves);
    const Digest tail_root = merkle_root(with_tail);
    ASSERT_EQ(grown.size(), n);
    ASSERT_EQ(grown.root(), root) << "n=" << n;
    ASSERT_EQ(grown.root(tail), tail_root) << "n=" << n;

    // Every index's path; with the uncached tail leaf, every index up to
    // 64 leaves and a spread of indices beyond.
    const bool compare = byte_compare_count(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<Digest> path = grown.path(j);
      if (compare) {
        ASSERT_EQ(path, merkle_path(leaves, j)) << n << "/" << j;
      } else {
        ASSERT_EQ(merkle_fold(all[j], j, n, path), root) << n << "/" << j;
      }
    }
    if (n <= 64) {
      for (std::size_t j = 0; j <= n; ++j) {
        ASSERT_EQ(grown.path(j, tail), merkle_path(with_tail, j))
            << n << "/" << j << " + tail";
      }
    } else {
      const std::size_t k = std::bit_floor(n);  // RFC 6962 split of n + 1
      for (const std::size_t j : {std::size_t{0}, std::size_t{1}, k - 1, k,
                                  k + 1, n / 2, n - 2, n - 1, n}) {
        if (j > n) continue;  // k + 1 when n + 1 is a power of two plus one
        ASSERT_EQ(merkle_fold(with_tail[j], j, n + 1, grown.path(j, tail)),
                  tail_root)
            << n << "/" << j << " + tail";
      }
    }
    EXPECT_TRUE(grown.path(n).empty());
    EXPECT_TRUE(grown.path(n + 1, tail).empty());

    // Every [lo, hi) range for small counts, unaligned ones and
    // out-of-range ones included.
    if (n <= 40) {
      for (std::size_t lo = 0; lo <= n + 1; ++lo) {
        for (std::size_t hi = 0; hi <= n + 2; ++hi) {
          ASSERT_EQ(grown.range(lo, hi), merkle_range(leaves, lo, hi))
              << n << " [" << lo << "," << hi << ")";
          ASSERT_EQ(grown.range(lo, hi, tail), merkle_range(with_tail, lo, hi))
              << n << " [" << lo << "," << hi << ") + tail";
        }
      }
    }
  }

  // A cache filled in one go, extended only at its first read.
  MerkleCache bulk;
  for (const Digest& leaf : all) bulk.push_back(leaf);
  EXPECT_EQ(bulk.path(300), merkle_path(all, 300));
  EXPECT_EQ(bulk.root(), merkle_root(all));

  MerkleCache empty;
  EXPECT_EQ(empty.root(), kZeroDigest);
  EXPECT_EQ(empty.root(tail), tail);
  EXPECT_TRUE(empty.path(0).empty());
}

// ---- In-memory ledger ----

TEST(LedgerTest, RootIsDeterministicAndOrderSensitive) {
  Ledger::Config config;
  config.segment_capacity = 4;
  Ledger a(config), b(config), c(config);
  fill(a, 10);
  fill(b, 10);
  EXPECT_EQ(a.root_hash(), b.root_hash());
  EXPECT_EQ(a.chain_tip(), b.chain_tip());

  // Same entries, one pair swapped: everything downstream changes.
  const crypto::Bytes first = payload_bytes("event-1|detail");
  const crypto::Bytes second = payload_bytes("event-0|detail");
  c.append(EntryKind::kAuditEvent, kT0 + 1.0, first);
  c.append(EntryKind::kAuditEvent, kT0, second);
  fill(c, 8, 2);
  EXPECT_NE(a.root_hash(), c.root_hash());
}

TEST(LedgerTest, RootCoversKindTimeAndCount) {
  Ledger a, b;
  const crypto::Bytes payload = payload_bytes("same-bytes");
  a.append(EntryKind::kAuditEvent, kT0, payload);
  b.append(EntryKind::kPoaAnchor, kT0, payload);
  EXPECT_NE(a.root_hash(), b.root_hash());

  Ledger c;
  c.append(EntryKind::kAuditEvent, kT0 + 1.0, payload);
  EXPECT_NE(a.root_hash(), c.root_hash());

  // An empty ledger and a one-entry ledger never share a root.
  Ledger empty;
  EXPECT_NE(empty.root_hash(), a.root_hash());
}

TEST(LedgerTest, InclusionProofsVerifyAcrossSegmentBoundaries) {
  Ledger::Config config;
  config.segment_capacity = 4;
  Ledger ledger(config);
  fill(ledger, 11);  // 2 sealed segments + 3 entries open

  const Digest root = ledger.root_hash();
  EXPECT_EQ(ledger.segment_count(), 3u);
  for (std::uint64_t seq = 0; seq < 11; ++seq) {
    const auto proof = ledger.prove(seq);
    ASSERT_TRUE(proof.has_value()) << "seq " << seq;
    const auto entry = ledger.entry(seq);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(Ledger::verify_inclusion(root, entry->leaf_hash(), *proof))
        << "seq " << seq;

    // A proof is only as good as the leaf it binds.
    const Digest wrong = crypto::Sha256::hash("forged");
    EXPECT_FALSE(Ledger::verify_inclusion(wrong, entry->leaf_hash(), *proof));
    EXPECT_FALSE(Ledger::verify_inclusion(root, wrong, *proof));
  }

  // Appending invalidates old proofs against the new root.
  const auto proof = ledger.prove(0);
  ledger.append(EntryKind::kAuditEvent, kT0 + 100.0, payload_bytes("more"));
  const auto entry = ledger.entry(0);
  EXPECT_FALSE(
      Ledger::verify_inclusion(ledger.root_hash(), entry->leaf_hash(), *proof));
}

TEST(LedgerTest, CompactionPreservesRootAndRemainingProofs) {
  Ledger::Config config;
  config.segment_capacity = 4;
  Ledger ledger(config);
  fill(ledger, 14);  // segments [0,4) [4,8) [8,12) sealed, [12,14) open

  const Digest root = ledger.root_hash();
  EXPECT_EQ(ledger.compact_before(8), 2u);
  EXPECT_EQ(ledger.root_hash(), root);
  EXPECT_EQ(ledger.entry_count(), 14u);

  // Compacted range: no entries, no proofs; retained range still proves.
  EXPECT_FALSE(ledger.entry(3).has_value());
  EXPECT_FALSE(ledger.prove(3).has_value());
  const auto proof = ledger.prove(9);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(
      Ledger::verify_inclusion(root, ledger.entry(9)->leaf_hash(), *proof));

  // The open segment is never compacted.
  EXPECT_EQ(ledger.compact_before(100), 1u);  // only [8,12) goes
  EXPECT_TRUE(ledger.entry(12).has_value());
  EXPECT_EQ(ledger.root_hash(), root);

  // audit_segments still passes: compacted segments are skipped, retained
  // ones re-verify.
  const auto report = ledger.audit_segments();
  EXPECT_FALSE(report.first_divergent.has_value()) << report.detail;
}

// ---- Durable ledger ----

TEST_F(LedgerDirTest, ReopenRestoresRootChainAndProofs) {
  Digest root, chain;
  {
    Ledger ledger(durable_config());
    fill(ledger, 10);
    root = ledger.root_hash();
    chain = ledger.chain_tip();
  }
  Ledger reopened(durable_config());
  EXPECT_EQ(reopened.entry_count(), 10u);
  EXPECT_EQ(reopened.root_hash(), root);
  EXPECT_EQ(reopened.chain_tip(), chain);
  EXPECT_EQ(reopened.recovered_tail_records(), 0u);

  // The reopened ledger keeps proving and appending.
  const auto proof = reopened.prove(7);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(
      Ledger::verify_inclusion(root, reopened.entry(7)->leaf_hash(), *proof));
  fill(reopened, 3, 10);
  EXPECT_EQ(reopened.entry_count(), 13u);

  // An in-memory ledger fed the same stream lands on the same root.
  Ledger::Config mem;
  mem.segment_capacity = 4;
  Ledger shadow(mem);
  fill(shadow, 13);
  EXPECT_EQ(reopened.root_hash(), shadow.root_hash());
}

TEST_F(LedgerDirTest, TornTailIsTruncatedOnRecovery) {
  {
    Ledger ledger(durable_config());
    fill(ledger, 10);  // segments [0,4) [4,8) sealed; [8,10) open
  }
  // Crash mid-append: chop bytes off the open segment's last record.
  const auto open_file = segment_file(8);
  ASSERT_TRUE(std::filesystem::exists(open_file));
  const auto size = std::filesystem::file_size(open_file);
  std::filesystem::resize_file(open_file, size - 5);

  Ledger recovered(durable_config());
  EXPECT_EQ(recovered.entry_count(), 9u);  // entry 9 was torn away
  EXPECT_EQ(recovered.recovered_tail_records(), 1u);
  EXPECT_FALSE(recovered.audit_segments().first_divergent.has_value());

  // Appending resumes at the truncated point and converges with a clean
  // ledger fed the same surviving stream.
  fill(recovered, 1, 9);
  Ledger shadow(Ledger::Config{{}, 4, nullptr, nullptr});
  fill(shadow, 10);
  EXPECT_EQ(recovered.root_hash(), shadow.root_hash());
}

TEST_F(LedgerDirTest, BitFlipInSealedSegmentIsLocalizedExactly) {
  {
    Ledger ledger(durable_config());
    fill(ledger, 14);  // sealed [0,4) [4,8) [8,12), open [12,14)
  }
  // Tamper with one payload byte inside the SECOND sealed segment. The
  // record's CRC and the sealed root both disagree now.
  const auto victim = segment_file(4);
  {
    std::fstream file(victim,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(60);  // inside the first record's payload
    char byte = 0;
    file.seekg(60);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(60);
    file.write(&byte, 1);
  }

  Ledger reopened(durable_config());
  const auto report = reopened.audit_segments();
  ASSERT_TRUE(report.first_divergent.has_value());
  EXPECT_EQ(*report.first_divergent, 1u) << report.detail;
  EXPECT_FALSE(report.detail.empty());
}

TEST_F(LedgerDirTest, SegmentWireFramesRoundTrip) {
  Ledger ledger(durable_config());
  fill(ledger, 9);

  for (std::size_t i = 0; i < ledger.segment_count(); ++i) {
    const crypto::Bytes frame = ledger.encode_segment(i);
    ASSERT_FALSE(frame.empty());
    const auto decoded = decode_segment(frame);
    ASSERT_TRUE(decoded.has_value());
    const auto info = ledger.segment_info(i);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(decoded->header.first_seq, info->first_seq);
    EXPECT_EQ(decoded->entries.size(), info->entries);
  }

  // A torn frame decodes to nothing (wire corruption is loud).
  crypto::Bytes torn = ledger.encode_segment(0);
  torn.resize(torn.size() - 3);
  EXPECT_FALSE(decode_segment(torn).has_value());
  EXPECT_TRUE(ledger.encode_segment(99).empty());
}

/// The RFC 6962 top root binding, rebuilt outside the ledger.
Digest reference_ledger_root(std::span<const Digest> segment_roots,
                             const Digest& chain, std::uint64_t count) {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x03;
  h.update({&tag, 1});
  h.update(merkle_root(segment_roots));
  h.update(chain);
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(count >> (8 * i));
  h.update(le);
  return h.finalize();
}

TEST_F(LedgerDirTest, CachedRootsAndProofsMatchReferenceEverywhere) {
  // Capacity 5 keeps segments off powers of two. The stream crosses
  // seals, two compactions and two durable reopens; after every append
  // every cached answer equals a reference rebuilt anew with the
  // recursive merkle_* functions over independently hashed leaves.
  constexpr std::size_t kCapacity = 5;
  constexpr std::size_t kEntries = 63;
  auto ledger = std::make_unique<Ledger>(durable_config(kCapacity));
  std::vector<Digest> leaves;  // every leaf ever appended
  Digest chain = kZeroDigest;
  std::uint64_t retained_from = 0;

  const auto check = [&](const Ledger& led) {
    const std::size_t count = leaves.size();
    const std::size_t segments = (count + kCapacity - 1) / kCapacity;
    ASSERT_EQ(led.entry_count(), count);
    ASSERT_EQ(led.segment_count(), segments);
    std::vector<Digest> seg_roots;
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t lo = s * kCapacity;
      const std::size_t hi = std::min(count, lo + kCapacity);
      const auto info = led.segment_info(s);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->first_seq, lo);
      EXPECT_EQ(info->entries, hi - lo);
      EXPECT_EQ(info->sealed, hi - lo == kCapacity);
      EXPECT_EQ(info->compacted, hi <= retained_from);
      ASSERT_EQ(info->root, merkle_root({leaves.data() + lo, hi - lo}))
          << "segment " << s << " at count " << count;
      seg_roots.push_back(info->root);
    }
    EXPECT_FALSE(led.segment_info(segments).has_value());
    const Digest root = reference_ledger_root(seg_roots, chain, count);
    ASSERT_EQ(led.root_hash(), root) << "count " << count;

    for (std::size_t lo = 0; lo <= segments; ++lo) {
      for (std::size_t hi = lo; hi <= segments + 1; ++hi) {
        ASSERT_EQ(led.segment_range_hash(lo, hi),
                  merkle_range(seg_roots, lo, hi))
            << "[" << lo << "," << hi << ") at count " << count;
      }
    }

    for (std::uint64_t seq = 0; seq < count; ++seq) {
      const auto proof = led.prove(seq);
      if (seq < retained_from) {
        EXPECT_FALSE(proof.has_value()) << "compacted seq " << seq;
        EXPECT_FALSE(led.entry(seq).has_value());
        continue;
      }
      ASSERT_TRUE(proof.has_value()) << "seq " << seq;
      const std::size_t s = seq / kCapacity;
      const std::size_t lo = s * kCapacity;
      const std::span<const Digest> seg_leaves(
          leaves.data() + lo, std::min(count, lo + kCapacity) - lo);
      EXPECT_EQ(proof->seq, seq);
      EXPECT_EQ(proof->entry_index, seq - lo);
      EXPECT_EQ(proof->segment_entries, seg_leaves.size());
      ASSERT_EQ(proof->entry_path, merkle_path(seg_leaves, seq - lo));
      EXPECT_EQ(proof->segment_index, s);
      EXPECT_EQ(proof->segment_count, segments);
      ASSERT_EQ(proof->segment_path, merkle_path(seg_roots, s));
      EXPECT_EQ(proof->chain_tip, chain);
      EXPECT_EQ(proof->total_entries, count);
      EXPECT_EQ(led.entry(seq)->leaf_hash(), leaves[seq]);
      EXPECT_TRUE(Ledger::verify_inclusion(root, leaves[seq], *proof));
    }
    EXPECT_FALSE(led.prove(count).has_value());
  };

  check(*ledger);  // empty
  for (std::size_t i = 0; i < kEntries; ++i) {
    fill(*ledger, 1, i);
    const std::string payload = "event-" + std::to_string(i) + "|detail";
    LedgerEntry entry;
    entry.seq = i;
    entry.kind = EntryKind::kAuditEvent;
    entry.time = kT0 + static_cast<double>(i);
    entry.payload = payload_bytes(payload);
    leaves.push_back(entry.leaf_hash());
    chain = chain_link(chain, leaves.back());
    ASSERT_NO_FATAL_FAILURE(check(*ledger)) << "after append " << i;

    if (i == 17) {  // segments [0,5) [5,10) go; [10,15) straddles 13
      EXPECT_EQ(ledger->compact_before(13), 2u);
      retained_from = 10;
      EXPECT_EQ(ledger->compact_before(13), 0u);  // nothing left below 13
      ASSERT_NO_FATAL_FAILURE(check(*ledger));
    }
    if (i == 29 || i == 47) {  // reopen: one right after a seal, one mid-segment
      ledger.reset();
      if (i == 29) {
        // Crash between the last append and its manifest record: drop
        // that record (8-byte frame + 80-byte payload) so recovery seals
        // the full segment file itself.
        const auto manifest = dir_ / "manifest.bin";
        std::filesystem::resize_file(
            manifest, std::filesystem::file_size(manifest) - 88);
      }
      ledger = std::make_unique<Ledger>(durable_config(kCapacity));
      ASSERT_NO_FATAL_FAILURE(check(*ledger)) << "after reopen at " << i;
    }
    if (i == 40) {  // after reopen the cursor restarts past the compacted prefix
      EXPECT_EQ(ledger->compact_before(33), 4u);
      retained_from = 30;
      ASSERT_NO_FATAL_FAILURE(check(*ledger));
    }
  }
  EXPECT_FALSE(ledger->audit_segments().first_divergent.has_value());
}

TEST(LedgerTest, ConcurrentReadersShareTheCaches) {
  // Readers extend the subtree caches from const methods under the
  // ledger mutex while a writer appends, seals and compacts; the sanitizer
  // builds (ledger label) check those mutations are serialized.
  Ledger::Config config;
  config.segment_capacity = 8;
  Ledger ledger(config);
  Ledger shadow(config);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> proofs{0};
  const auto reader = [&] {
    while (!done.load()) {
      (void)ledger.root_hash();
      const std::uint64_t count = ledger.entry_count();
      if (count == 0) continue;
      if (const auto proof = ledger.prove(count - 1)) {
        EXPECT_EQ(proof->seq, count - 1);
        proofs.fetch_add(1);
      }
      const std::size_t segments = ledger.segment_count();
      (void)ledger.segment_range_hash(0, segments);
      (void)ledger.segment_info(segments - 1);
      std::this_thread::yield();
    }
  };
  std::thread r1(reader), r2(reader);
  for (std::size_t i = 0; i < 600; ++i) {
    fill(ledger, 1, i);
    if (i % 64 == 63) ledger.compact_before(i - 32);
    std::this_thread::yield();
  }
  while (proofs.load() == 0) std::this_thread::yield();
  done.store(true);
  r1.join();
  r2.join();
  fill(shadow, 600);
  EXPECT_EQ(ledger.root_hash(), shadow.root_hash());
  EXPECT_EQ(ledger.segment_range_hash(0, ledger.segment_count()),
            shadow.segment_range_hash(0, shadow.segment_count()));
  EXPECT_GT(proofs.load(), 0u);
}

TEST_F(LedgerDirTest, CompactedSegmentSurvivesReopen) {
  Digest root;
  {
    Ledger ledger(durable_config());
    fill(ledger, 14);
    root = ledger.root_hash();
    EXPECT_EQ(ledger.compact_before(8), 2u);
    EXPECT_FALSE(std::filesystem::exists(segment_file(0)));
  }
  Ledger reopened(durable_config());
  EXPECT_EQ(reopened.root_hash(), root);
  EXPECT_EQ(reopened.entry_count(), 14u);
  EXPECT_FALSE(reopened.entry(2).has_value());
  EXPECT_TRUE(reopened.entry(9).has_value());
  EXPECT_TRUE(reopened.encode_segment(0).empty());
  EXPECT_FALSE(reopened.audit_segments().first_divergent.has_value());
}

}  // namespace
}  // namespace alidrone::ledger
