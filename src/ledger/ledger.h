// ledger::Ledger — Merkle-chained, append-only, tamper-evident event log.
//
// The Auditor is itself an accountable party: verdicts, registrations and
// retained-proof anchors must survive a crashed — or dishonest — server.
// The ledger gives every appended entry three commitments:
//
//   chain    chain_i = H(0x01 || chain_{i-1} || leaf_i) — total order;
//   segment  entries fill fixed-capacity segments; a full segment is
//            sealed with the Merkle root over its leaf hashes and the
//            root is persisted to an append-only manifest;
//   root     H(0x03 || MTH(segment roots ++ open-segment root) ||
//            chain_tip || entry_count) — one 32-byte value that pins the
//            entire history. Reading it is O(1) (cached; invalidated by
//            append). Each segment and the top tree over sealed roots
//            keep a MerkleCache of their complete subtrees, so
//            recomputing the root after an append, an inclusion proof
//            and a segment range hash each cost O(log N) node hashes.
//
// Durability (optional, directory-backed): every append is a CRC-framed
// record flushed to the current segment file; recovery truncates a torn
// tail of the *open* segment (counted in the `ledger#N.recovered_tail`
// gauge) while sealed segments re-verify against the manifest —
// audit_segments() recomputes every retained segment from disk and
// reports the exact first divergent segment after a bit flip. Sealed
// segments whose entries have aged out can be compacted away; their
// manifest roots keep the ledger root (and replica comparison) intact
// for millions of retained PoAs at a bounded memory/disk footprint.
//
// Thread safety: all methods are mutually synchronized — append order is
// decided by the caller (the Auditor's serial commit discipline), so the
// ledger stream is byte-identical for any thread/shard count upstream.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ledger/entry.h"
#include "ledger/merkle.h"
#include "ledger/segment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace alidrone::ledger {

class Ledger {
 public:
  struct Config {
    /// Empty = in-memory only (replicas in tests); otherwise segment and
    /// manifest files live here (created if needed).
    std::filesystem::path directory;
    /// Entries per sealed segment. Smaller segments localize divergence
    /// finer; larger ones amortize sealing.
    std::size_t segment_capacity = 256;
    /// Counters register under an instance scope of "ledger" here (the
    /// process-wide registry when null).
    obs::MetricsRegistry* metrics = nullptr;
    /// Seals and tail recoveries leave trace events when set.
    obs::FlightRecorder* recorder = nullptr;
  };

  Ledger() : Ledger(Config{}) {}
  explicit Ledger(Config config);

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Append one entry; returns its sequence number. The payload is
  /// copied; the write (durable mode) is flushed before returning.
  std::uint64_t append(EntryKind kind, double time,
                       std::span<const std::uint8_t> payload);

  std::uint64_t entry_count() const;
  /// Running chain commitment over every entry (zeros when empty).
  Digest chain_tip() const;
  /// The 32-byte commitment to the whole ledger (cached; O(1) to read).
  Digest root_hash() const;

  // ---- Segments ----

  struct SegmentInfo {
    std::uint64_t first_seq = 0;
    std::uint64_t entries = 0;
    Digest root = kZeroDigest;       ///< sealed root, or current open root
    Digest end_chain = kZeroDigest;  ///< chain after the last entry
    bool sealed = false;
    bool compacted = false;  ///< payload dropped; root retained
  };

  /// Sealed segments plus the open one when it has entries.
  std::size_t segment_count() const;
  std::optional<SegmentInfo> segment_info(std::size_t index) const;
  /// Merkle range hash over segment roots [lo, hi) — the probe replicas
  /// answer during divergence descent (see merkle.h first_divergent_leaf).
  Digest segment_range_hash(std::size_t lo, std::size_t hi) const;
  /// Wire frame of one retained segment for replica catch-up; empty when
  /// the segment is compacted or the index is out of range.
  crypto::Bytes encode_segment(std::size_t index) const;

  /// Retained entry by sequence number (nullopt once compacted).
  std::optional<LedgerEntry> entry(std::uint64_t seq) const;

  // ---- Inclusion proofs ----

  /// O(log N)-sized membership proof for a retained entry: the audit
  /// path inside its segment, the segment root's path in the top tree,
  /// and the chain/count binding of the root. Computing it is O(log N)
  /// too: a binary search for the segment, then cached subtree hashes.
  struct InclusionProof {
    std::uint64_t seq = 0;
    std::size_t entry_index = 0;       ///< within the segment
    std::size_t segment_entries = 0;
    std::vector<Digest> entry_path;
    std::size_t segment_index = 0;     ///< within the top tree
    std::size_t segment_count = 0;
    std::vector<Digest> segment_path;
    Digest chain_tip = kZeroDigest;
    std::uint64_t total_entries = 0;
  };
  std::optional<InclusionProof> prove(std::uint64_t seq) const;
  /// Verify with nothing but the claimed root and the entry's leaf hash.
  static bool verify_inclusion(const Digest& root, const Digest& leaf,
                               const InclusionProof& proof);

  // ---- Integrity / recovery / compaction ----

  struct AuditReport {
    std::size_t segments_checked = 0;
    /// Index of the first segment whose recomputed root, chain splice or
    /// record CRCs disagree with the sealed commitment; nullopt = clean.
    std::optional<std::size_t> first_divergent;
    std::string detail;  ///< human-readable reason for the divergence
  };
  /// Recompute every retained segment (from disk in durable mode, from
  /// memory otherwise) against its sealed root and chain splice.
  AuditReport audit_segments() const;

  /// Drop the payload (file + in-memory entries) of every sealed segment
  /// whose entries all precede `seq`. Roots are retained, so root_hash()
  /// and replica comparison are unaffected; prove()/entry() for the
  /// compacted range stop being available. Returns #segments compacted.
  std::size_t compact_before(std::uint64_t seq);

  /// Torn-tail records dropped during recovery (also in the
  /// `ledger#N.recovered_tail` gauge).
  std::uint64_t recovered_tail_records() const;

  const std::filesystem::path& directory() const { return config_.directory; }
  const Config& config() const { return config_; }

 private:
  /// One per segment, compacted ones included, so kept small: a ledger
  /// that compacts as it grows holds millions of entries in these.
  struct Segment {
    std::uint64_t first_seq = 0;
    std::uint64_t entry_count = 0;     ///< survives compaction
    Digest end_chain = kZeroDigest;    ///< valid once sealed
    bool sealed = false;
    struct Payload {
      std::vector<LedgerEntry> entries;
      /// Leaf hashes and their complete subtrees; readers extend it
      /// too, under mu_.
      MerkleCache tree;
    };
    std::unique_ptr<Payload> payload;  ///< null once compacted
  };

  std::filesystem::path segment_path(std::uint64_t first_seq) const;
  std::filesystem::path manifest_path() const;
  void recover();
  // Callers hold mu_ from here to compute_root().
  void seal_open_segment();
  void append_manifest(const Segment& segment, const Digest& root);
  const Segment* find_segment(std::uint64_t seq) const;
  std::optional<Digest> open_root() const;
  Digest compute_root() const;
  static Digest bind_root(const Digest& core, const Digest& chain,
                          std::uint64_t count);

  Config config_;
  mutable std::mutex mu_;
  std::vector<Segment> segments_;  ///< sealed prefix, then the open one
  /// One root per sealed segment, in order, with the top tree's complete
  /// subtrees over them; the open segment's root joins as its tail.
  mutable MerkleCache sealed_roots_;
  std::uint64_t count_ = 0;
  Digest chain_ = kZeroDigest;
  std::unique_ptr<SegmentWriter> writer_;  ///< open segment file (durable)
  mutable bool root_dirty_ = true;
  mutable Digest root_cache_ = kZeroDigest;
  std::uint64_t recovered_tail_ = 0;
  /// Every segment before this index is compacted.
  std::size_t compact_cursor_ = 0;

  obs::Counter* appends_;
  obs::Counter* bytes_appended_;
  obs::Counter* seals_;
  obs::Counter* compactions_;
  obs::Gauge* recovered_tail_gauge_;
};

}  // namespace alidrone::ledger
