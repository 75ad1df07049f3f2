// LedgerEntry — one tamper-evident record of the audit ledger.
//
// Every entry commits, via SHA-256, to its predecessor and to a canonical
// byte encoding of its payload: leaf_i = H(0x00 || encode(entry_i)),
// chain_i = H(0x01 || chain_{i-1} || leaf_i), chain_{-1} = zeros. The
// chain fixes total order (a reordered or dropped entry changes every
// later commitment); the Merkle trees built over leaf hashes (see
// merkle.h / ledger.h) make membership and divergence checks logarithmic.
//
// Payload kinds:
//   kAuditEvent        — core::AuditEvent::to_line() bytes (the Auditor's
//                        legal record, anchored by core::AuditLog);
//   kPoaAnchor         — drone id, submission time and SHA-256 of the
//                        serialized proof (anchored by core::PoaStore);
//   kRecorderEvent     — an obs::FlightRecorder trace line, when a
//                        scenario chooses to anchor its black box;
//   kReplicatedRequest — method byte + request frame, the write-ahead
//                        record core::ReplicatedAuditor re-executes on
//                        catch-up.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/bytes.h"
#include "ledger/merkle.h"

namespace alidrone::ledger {

enum class EntryKind : std::uint8_t {
  kAuditEvent = 1,
  kPoaAnchor = 2,
  kRecorderEvent = 3,
  kReplicatedRequest = 4,
};

const char* to_string(EntryKind kind);

struct LedgerEntry {
  std::uint64_t seq = 0;
  EntryKind kind = EntryKind::kAuditEvent;
  double time = 0.0;  ///< protocol time (never wall clock — replicas must agree)
  crypto::Bytes payload;

  /// Canonical encoding: u64 seq, u8 kind, f64 time, length-prefixed
  /// payload. This is the byte string both hashes and segment files
  /// commit to; any representational change is a format break.
  crypto::Bytes canonical() const;
  std::size_t canonical_size() const { return 8 + 1 + 8 + 4 + payload.size(); }

  /// Strict decode of canonical(); rejects trailing bytes and unknown
  /// kinds.
  static std::optional<LedgerEntry> parse(std::span<const std::uint8_t> data);

  /// SHA-256(0x00 || canonical()).
  Digest leaf_hash() const;
};

/// SHA-256(0x00 || canonical): the leaf hash of an entry whose canonical()
/// bytes are already at hand (an append, a segment record being read).
Digest entry_leaf_hash(std::span<const std::uint8_t> canonical);

/// SHA-256(0x01 || prev || leaf): the running chain commitment.
Digest chain_link(const Digest& prev, const Digest& leaf);

}  // namespace alidrone::ledger
