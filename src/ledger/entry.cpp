#include "ledger/entry.h"

#include "net/codec.h"

namespace alidrone::ledger {

const char* to_string(EntryKind kind) {
  switch (kind) {
    case EntryKind::kAuditEvent:
      return "audit-event";
    case EntryKind::kPoaAnchor:
      return "poa-anchor";
    case EntryKind::kRecorderEvent:
      return "recorder-event";
    case EntryKind::kReplicatedRequest:
      return "replicated-request";
  }
  return "unknown";
}

crypto::Bytes LedgerEntry::canonical() const {
  net::Writer w;
  w.reserve(canonical_size());
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(kind));
  w.f64(time);
  w.bytes(payload);
  return std::move(w).take();
}

std::optional<LedgerEntry> LedgerEntry::parse(
    std::span<const std::uint8_t> data) {
  net::Reader r(data);
  const auto seq = r.u64();
  const auto kind = r.u8();
  const auto time = r.f64();
  const auto payload = r.bytes();
  if (!seq || !kind || !time || !payload || !r.at_end()) return std::nullopt;
  if (*kind < static_cast<std::uint8_t>(EntryKind::kAuditEvent) ||
      *kind > static_cast<std::uint8_t>(EntryKind::kReplicatedRequest)) {
    return std::nullopt;
  }
  LedgerEntry entry;
  entry.seq = *seq;
  entry.kind = static_cast<EntryKind>(*kind);
  entry.time = *time;
  entry.payload = std::move(*payload);
  return entry;
}

Digest LedgerEntry::leaf_hash() const { return entry_leaf_hash(canonical()); }

Digest entry_leaf_hash(std::span<const std::uint8_t> canonical) {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x00;
  h.update({&tag, 1});
  h.update(canonical);
  return h.finalize();
}

Digest chain_link(const Digest& prev, const Digest& leaf) {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x01;
  h.update({&tag, 1});
  h.update(prev);
  h.update(leaf);
  return h.finalize();
}

}  // namespace alidrone::ledger
