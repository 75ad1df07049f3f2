#include "ledger/ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "crypto/sha256.h"
#include "ledger/crc32.h"

namespace alidrone::ledger {

namespace {

// The manifest is an append-only file of CRC-framed, fixed-size records —
// one per sealed segment: u64 first_seq, u64 entries, root, end_chain.
constexpr std::size_t kManifestPayload = 8 + 8 + 2 * crypto::Sha256::kDigestSize;

void put_u32(crypto::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(crypto::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

struct ManifestRecord {
  std::uint64_t first_seq = 0;
  std::uint64_t entries = 0;
  Digest root = kZeroDigest;
  Digest end_chain = kZeroDigest;
};

crypto::Bytes read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return crypto::Bytes((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Scan CRC-framed manifest records; returns the clean prefix length so a
/// torn manifest tail (crash mid-seal) can be truncated away.
std::uint64_t scan_manifest(std::span<const std::uint8_t> data,
                            std::vector<ManifestRecord>& records) {
  std::size_t pos = 0;
  while (pos + 8 <= data.size()) {
    const std::uint32_t len = get_u32(data.data() + pos);
    const std::uint32_t crc = get_u32(data.data() + pos + 4);
    if (len != kManifestPayload || pos + 8 + len > data.size()) break;
    const std::span<const std::uint8_t> payload = data.subspan(pos + 8, len);
    if (crc32(payload) != crc) break;
    ManifestRecord rec;
    rec.first_seq = get_u64(payload.data());
    rec.entries = get_u64(payload.data() + 8);
    std::memcpy(rec.root.data(), payload.data() + 16, rec.root.size());
    std::memcpy(rec.end_chain.data(), payload.data() + 48, rec.end_chain.size());
    records.push_back(rec);
    pos += 8 + len;
  }
  return pos;
}

}  // namespace

Ledger::Ledger(Config config) : config_(std::move(config)) {
  obs::MetricsRegistry& reg =
      config_.metrics != nullptr ? *config_.metrics : obs::MetricsRegistry::global();
  const std::string scope = reg.instance_scope("ledger");
  appends_ = &reg.counter(scope + ".appends");
  bytes_appended_ = &reg.counter(scope + ".bytes_appended");
  seals_ = &reg.counter(scope + ".seals");
  compactions_ = &reg.counter(scope + ".compactions");
  recovered_tail_gauge_ = &reg.gauge(scope + ".recovered_tail");
  if (config_.segment_capacity == 0) config_.segment_capacity = 1;
  if (!config_.directory.empty()) {
    std::filesystem::create_directories(config_.directory);
    recover();
  }
}

std::filesystem::path Ledger::segment_path(std::uint64_t first_seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%012llu.seg",
                static_cast<unsigned long long>(first_seq));
  return config_.directory / name;
}

std::filesystem::path Ledger::manifest_path() const {
  return config_.directory / "manifest.bin";
}

void Ledger::recover() {
  // 1. Sealed history from the manifest. Records are trusted here (they
  //    are the commitments everything else is checked against); a torn
  //    trailing record is a crashed seal and is truncated away.
  std::vector<ManifestRecord> manifest;
  const crypto::Bytes manifest_data = read_file_bytes(manifest_path());
  const std::uint64_t manifest_valid = scan_manifest(manifest_data, manifest);
  if (manifest_valid < manifest_data.size()) {
    std::filesystem::resize_file(manifest_path(), manifest_valid);
  }
  for (const ManifestRecord& rec : manifest) {
    if (rec.first_seq != count_ || rec.entries == 0) break;  // non-contiguous: stop
    Segment seg;
    seg.first_seq = rec.first_seq;
    seg.end_chain = rec.end_chain;
    seg.entry_count = rec.entries;
    seg.sealed = true;
    const std::filesystem::path path = segment_path(rec.first_seq);
    if (std::filesystem::exists(path)) {
      // Retained segment: reload entries for prove()/encode_segment().
      // Content is *not* re-verified here — audit_segments() does that and
      // names the segment if the file was tampered with.
      SegmentReadResult read = read_segment(path);
      seg.payload = std::make_unique<Segment::Payload>();
      seg.payload->entries = std::move(read.entries);
      for (const Digest& leaf : read.leaves) seg.payload->tree.push_back(leaf);
    }
    sealed_roots_.push_back(rec.root);
    chain_ = rec.end_chain;
    count_ = rec.first_seq + rec.entries;
    segments_.push_back(std::move(seg));
  }

  // 2. Unsealed segment files past the manifest. Normally at most one (the
  //    open segment); a full-but-unsealed file means the crash hit between
  //    the last append and the manifest write — re-seal it and move on.
  while (std::filesystem::exists(segment_path(count_))) {
    const std::filesystem::path path = segment_path(count_);
    SegmentReadResult read = read_segment(path);
    if (!read.header_ok || read.header.first_seq != count_) {
      // A crashed header write left nothing recoverable in this file.
      recovered_tail_ += 1;
      std::filesystem::remove(path);
      break;
    }
    Segment seg;
    seg.first_seq = count_;
    seg.payload = std::make_unique<Segment::Payload>();
    std::uint64_t valid_bytes = read.valid_bytes;
    std::size_t accepted = 0;
    for (LedgerEntry& entry : read.entries) {
      if (entry.seq != count_ || accepted >= config_.segment_capacity) break;
      const Digest& leaf = read.leaves[accepted];
      seg.payload->tree.push_back(leaf);
      chain_ = chain_link(chain_, leaf);
      seg.payload->entries.push_back(std::move(entry));
      ++count_;
      ++accepted;
    }
    if (accepted < read.entries.size()) {
      // Out-of-order tail (or overfull file): recompute the clean prefix
      // length so the truncation below drops the bad records too.
      valid_bytes = 4 + 8 + crypto::Sha256::kDigestSize;
      for (const LedgerEntry& entry : seg.payload->entries) {
        valid_bytes += 8 + entry.canonical_size();
      }
      recovered_tail_ += read.entries.size() - accepted;
    }
    recovered_tail_ += read.dropped_records;
    seg.entry_count = accepted;
    const bool full = accepted == config_.segment_capacity;
    const bool torn = read.dropped_bytes > 0 || accepted < read.entries.size();
    if (accepted == 0) {
      // Header-only or fully torn file: nothing to keep. The next append
      // recreates the file from scratch (its writer truncates).
      std::filesystem::remove(path);
      break;
    }
    if (full) {
      // Crash hit between the last append and the manifest write: the
      // segment is complete, so finish the seal it was owed.
      const Digest root = seg.payload->tree.root();
      seg.end_chain = chain_;
      seg.sealed = true;
      if (torn) std::filesystem::resize_file(path, valid_bytes);
      sealed_roots_.push_back(root);
      segments_.push_back(std::move(seg));
      append_manifest(segments_.back(), root);
      continue;  // the next file, if any, starts at the new count_
    }
    // Partially filled: this is the open segment; truncate any torn tail
    // and keep appending after it.
    writer_ = std::make_unique<SegmentWriter>(path, valid_bytes);
    segments_.push_back(std::move(seg));
    break;  // open segment found — nothing later can be contiguous
  }

  recovered_tail_gauge_->set(static_cast<double>(recovered_tail_));
  if (recovered_tail_ > 0 && config_.recorder != nullptr) {
    config_.recorder->record(obs::TraceKind::kLedgerRecoveredTail, 0.0,
                             recovered_tail_, count_, "ledger");
  }
}

std::uint64_t Ledger::append(EntryKind kind, double time,
                             std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.empty() || segments_.back().sealed) {
    Segment seg;
    seg.first_seq = count_;
    seg.payload = std::make_unique<Segment::Payload>();
    segments_.push_back(std::move(seg));
    if (!config_.directory.empty()) {
      SegmentHeader header{count_, chain_};
      writer_ = std::make_unique<SegmentWriter>(segment_path(count_), header);
    }
  }
  Segment& seg = segments_.back();
  LedgerEntry entry;
  entry.seq = count_;
  entry.kind = kind;
  entry.time = time;
  entry.payload.assign(payload.begin(), payload.end());
  const crypto::Bytes canonical = entry.canonical();
  if (writer_ != nullptr) writer_->append(canonical);
  const Digest leaf = entry_leaf_hash(canonical);
  seg.payload->tree.push_back(leaf);
  seg.payload->entries.push_back(std::move(entry));
  seg.entry_count = seg.payload->entries.size();
  chain_ = chain_link(chain_, leaf);
  const std::uint64_t seq = count_++;
  root_dirty_ = true;
  appends_->increment();
  bytes_appended_->add(canonical.size());
  if (seg.entry_count >= config_.segment_capacity) seal_open_segment();
  return seq;
}

void Ledger::seal_open_segment() {
  Segment& seg = segments_.back();
  const Digest root = seg.payload->tree.root();
  seg.end_chain = chain_;
  seg.sealed = true;
  sealed_roots_.push_back(root);
  writer_.reset();
  if (!config_.directory.empty()) append_manifest(seg, root);
  seals_->increment();
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::TraceKind::kLedgerSeal, 0.0,
                             segments_.size() - 1, seg.entry_count, "seal");
  }
}

void Ledger::append_manifest(const Segment& segment, const Digest& root) {
  crypto::Bytes payload;
  payload.reserve(kManifestPayload);
  put_u64(payload, segment.first_seq);
  put_u64(payload, segment.entry_count);
  payload.insert(payload.end(), root.begin(), root.end());
  payload.insert(payload.end(), segment.end_chain.begin(),
                 segment.end_chain.end());
  crypto::Bytes frame;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  std::ofstream out(manifest_path(), std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("ledger: manifest append failed: " +
                             manifest_path().string());
  }
}

std::uint64_t Ledger::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

Digest Ledger::chain_tip() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chain_;
}

const Ledger::Segment* Ledger::find_segment(std::uint64_t seq) const {
  // Segments are contiguous and ordered by first_seq.
  const auto after = std::upper_bound(
      segments_.begin(), segments_.end(), seq,
      [](std::uint64_t s, const Segment& seg) { return s < seg.first_seq; });
  if (after == segments_.begin()) return nullptr;
  const Segment& seg = *std::prev(after);
  return seq < seg.first_seq + seg.entry_count ? &seg : nullptr;
}

std::optional<Digest> Ledger::open_root() const {
  if (segments_.empty() || segments_.back().sealed) return std::nullopt;
  return segments_.back().payload->tree.root();
}

Digest Ledger::bind_root(const Digest& core, const Digest& chain,
                         std::uint64_t count) {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x03;
  h.update({&tag, 1});
  h.update(core);
  h.update(chain);
  crypto::Bytes le;
  put_u64(le, count);
  h.update(le);
  return h.finalize();
}

Digest Ledger::compute_root() const {
  return bind_root(sealed_roots_.root(open_root()), chain_, count_);
}

Digest Ledger::root_hash() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (root_dirty_) {
    root_cache_ = compute_root();
    root_dirty_ = false;
  }
  return root_cache_;
}

std::size_t Ledger::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

std::optional<Ledger::SegmentInfo> Ledger::segment_info(
    std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= segments_.size()) return std::nullopt;
  const Segment& seg = segments_[index];
  SegmentInfo info;
  info.first_seq = seg.first_seq;
  info.entries = seg.entry_count;
  info.root =
      seg.sealed ? sealed_roots_.leaf(index) : seg.payload->tree.root();
  info.end_chain = seg.sealed ? seg.end_chain : chain_;
  info.sealed = seg.sealed;
  info.compacted = seg.payload == nullptr;
  return info;
}

Digest Ledger::segment_range_hash(std::size_t lo, std::size_t hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_roots_.range(lo, hi, open_root());
}

crypto::Bytes Ledger::encode_segment(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= segments_.size()) return {};
  const Segment& seg = segments_[index];
  if (seg.payload == nullptr) return {};
  // Segments are contiguous from seq 0: each starts where the last ended.
  const Digest prev_chain =
      index == 0 ? kZeroDigest : segments_[index - 1].end_chain;
  SegmentHeader header{seg.first_seq, prev_chain};
  return ledger::encode_segment(header, seg.payload->entries);
}

std::optional<LedgerEntry> Ledger::entry(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Segment* seg = find_segment(seq);
  if (seg == nullptr || seg->payload == nullptr) return std::nullopt;
  return seg->payload->entries[static_cast<std::size_t>(seq - seg->first_seq)];
}

std::optional<Ledger::InclusionProof> Ledger::prove(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Segment* seg = find_segment(seq);
  if (seg == nullptr || seg->payload == nullptr) return std::nullopt;
  MerkleCache& tree = seg->payload->tree;
  InclusionProof proof;
  proof.seq = seq;
  proof.entry_index = static_cast<std::size_t>(seq - seg->first_seq);
  proof.segment_entries = tree.size();
  proof.entry_path = tree.path(proof.entry_index);
  const std::optional<Digest> open = open_root();
  proof.segment_index = static_cast<std::size_t>(seg - segments_.data());
  proof.segment_count = sealed_roots_.size() + (open ? 1 : 0);
  proof.segment_path = sealed_roots_.path(proof.segment_index, open);
  proof.chain_tip = chain_;
  proof.total_entries = count_;
  return proof;
}

bool Ledger::verify_inclusion(const Digest& root, const Digest& leaf,
                              const InclusionProof& proof) {
  if (proof.segment_entries == 0 || proof.entry_index >= proof.segment_entries ||
      proof.segment_count == 0 || proof.segment_index >= proof.segment_count) {
    return false;
  }
  const Digest seg_root = merkle_fold(leaf, proof.entry_index,
                                      proof.segment_entries, proof.entry_path);
  const Digest core = merkle_fold(seg_root, proof.segment_index,
                                  proof.segment_count, proof.segment_path);
  return bind_root(core, proof.chain_tip, proof.total_entries) == root;
}

Ledger::AuditReport Ledger::audit_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  AuditReport report;
  const bool durable = !config_.directory.empty();
  Digest chain = kZeroDigest;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.payload == nullptr) {
      // Payload gone by design; the manifest root still splices the chain.
      chain = seg.end_chain;
      continue;
    }
    ++report.segments_checked;
    std::vector<LedgerEntry> entries;
    if (durable) {
      SegmentReadResult read = read_segment(segment_path(seg.first_seq));
      if (!read.header_ok || read.header.first_seq != seg.first_seq ||
          read.header.prev_chain != chain) {
        report.first_divergent = i;
        report.detail = "segment header mismatch";
        return report;
      }
      if (seg.sealed && read.dropped_bytes > 0) {
        report.first_divergent = i;
        report.detail = "sealed segment has torn or corrupt records";
        return report;
      }
      entries = std::move(read.entries);
    } else {
      entries = seg.payload->entries;
    }
    if (entries.size() != seg.entry_count) {
      report.first_divergent = i;
      report.detail = "segment entry count mismatch";
      return report;
    }
    std::vector<Digest> leaves;
    leaves.reserve(entries.size());
    for (const LedgerEntry& entry : entries) {
      if (entry.seq != seg.first_seq + leaves.size()) {
        report.first_divergent = i;
        report.detail = "segment sequence discontinuity";
        return report;
      }
      const Digest leaf = entry.leaf_hash();
      leaves.push_back(leaf);
      chain = chain_link(chain, leaf);
    }
    const Digest recomputed = merkle_root(leaves);
    const Digest expected =
        seg.sealed ? sealed_roots_.leaf(i)
                   : merkle_root(seg.payload->tree.leaves());
    if (recomputed != expected ||
        (seg.sealed && chain != seg.end_chain)) {
      report.first_divergent = i;
      report.detail = "segment root or chain splice mismatch";
      return report;
    }
  }
  return report;
}

std::size_t Ledger::compact_before(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t compacted = 0;
  std::size_t i = compact_cursor_;
  for (; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    if (!seg.sealed || seg.first_seq + seg.entry_count > seq) break;
    if (seg.payload == nullptr) continue;
    if (!config_.directory.empty()) {
      std::error_code ec;
      std::filesystem::remove(segment_path(seg.first_seq), ec);
    }
    seg.payload.reset();
    ++compacted;
    compactions_->increment();
  }
  compact_cursor_ = i;
  return compacted;
}

std::uint64_t Ledger::recovered_tail_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_tail_;
}

}  // namespace alidrone::ledger
