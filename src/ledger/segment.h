// Segment files — the ledger's crash-consistent on-disk unit.
//
// A segment file holds a contiguous run of canonical entry encodings:
//
//   header   u32 magic "ALGS"+version, u64 first_seq, 32-byte prev_chain
//   record*  u32 payload_len, u32 crc32(payload), payload bytes
//
// Appends are flushed per record. Recovery reads records until the first
// torn or CRC-failing one; for the ledger's *last* (open) segment that
// tail is a crashed append and gets truncated away — everything sealed
// earlier must re-verify against its manifest root instead (a short or
// corrupt sealed segment is tamper evidence, not a recoverable tail).
//
// The same header+records layout, length-prefixed as one frame, is the
// wire format replicas exchange during catch-up (encode_segment /
// decode_segment).
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bytes.h"
#include "ledger/entry.h"

namespace alidrone::ledger {

inline constexpr std::uint32_t kSegmentMagic = 0x414C4753;  // "ALGS" v1

struct SegmentHeader {
  std::uint64_t first_seq = 0;
  Digest prev_chain = kZeroDigest;  ///< chain commitment before first_seq
};

/// Append-only writer over one segment file. Creating it writes the
/// header; append() writes one CRC-framed record and flushes.
class SegmentWriter {
 public:
  /// Opens `path` fresh (truncating) and writes the header. Throws
  /// std::runtime_error when the file cannot be written.
  SegmentWriter(const std::filesystem::path& path, const SegmentHeader& header);
  /// Re-opens an existing segment for appending after `valid_bytes`
  /// (recovery truncates to that size first).
  SegmentWriter(const std::filesystem::path& path, std::uint64_t valid_bytes);

  void append(std::span<const std::uint8_t> canonical_entry);

 private:
  std::ofstream out_;
  std::filesystem::path path_;
};

struct SegmentReadResult {
  bool header_ok = false;
  SegmentHeader header;
  std::vector<LedgerEntry> entries;  ///< decoded, in file order
  /// entry_leaf_hash() of each entry, hashed from its record bytes.
  std::vector<Digest> leaves;
  /// Bytes of the file that parsed cleanly (header + whole records).
  /// Anything past this offset was torn or CRC-corrupt.
  std::uint64_t valid_bytes = 0;
  std::uint64_t dropped_bytes = 0;   ///< file size minus valid_bytes
  std::size_t dropped_records = 0;   ///< >=1 whenever dropped_bytes > 0
};

/// Read and decode a segment file. Never throws for content problems:
/// a missing/short header yields header_ok = false; a bad record stops
/// the scan and reports the torn tail.
SegmentReadResult read_segment(const std::filesystem::path& path);

/// One segment as a single wire frame (header + records), for replica
/// catch-up over the bus.
crypto::Bytes encode_segment(const SegmentHeader& header,
                             std::span<const LedgerEntry> entries);
struct DecodedSegment {
  SegmentHeader header;
  std::vector<LedgerEntry> entries;
};
std::optional<DecodedSegment> decode_segment(
    std::span<const std::uint8_t> frame);

}  // namespace alidrone::ledger
