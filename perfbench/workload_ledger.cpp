// ledger-audit — one directory-backed ledger::Ledger under interleaved
// appends and inclusion-proof reads.
//
// Closed loop on one thread, in turns: a write turn appends 8
// audit-line-sized entries (sealing a segment every 256 and compacting
// segments that leave the retention window); a read turn serves one
// third-party audit: root_hash() and prove() for a random retained entry,
// checked with verify_inclusion() against that root. Setup prefills the
// ledger in a fresh directory and reopens it, so recovery is timed.
// Why: appends cost microseconds against the milliseconds of verification
// inside an Auditor commit, so no other workload can show a ledger
// change; and reads interleave with writes, so a write-side gain that
// costs proof latency shows.
//
// Reads take turns with writes instead of running beside them: Ledger
// has no call that returns a proof together with the root it was cut
// from, so under a concurrent writer a proof could not be checked
// against its own root.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/audit_log.h"
#include "ledger/ledger.h"
#include "obs/metrics.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace alid = alidrone;

constexpr std::size_t kPrefillEntries = 40'000;
constexpr std::size_t kSegmentCapacity = 256;  // Ledger::Config default
/// Sealed segments kept with their payload; older ones are compacted.
constexpr std::uint64_t kRetainedEntries = 64 * kSegmentCapacity;
/// Readers prove entries among the newest ones, well inside retention.
constexpr std::uint64_t kReadWindow = 32 * kSegmentCapacity;
constexpr std::size_t kDistinctLines = 4096;
/// Appends per writer turn; a reader turn is one proof.
constexpr std::size_t kAppendsPerTurn = 8;

class LedgerWorkload final : public Workload {
 public:
  explicit LedgerWorkload(const Options& options) : options_(options) {}
  ~LedgerWorkload() override {
    ledger_.reset();
    std::error_code ignored;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ignored);
  }

  void setup(SetupSplit& split) override;
  PhaseStats run(double seconds) override;
  void finish(std::vector<std::string>& lines) override;

 private:
  std::pair<std::uint64_t, std::uint64_t> ledger_counters() const;

  Options options_;
  std::filesystem::path dir_;
  std::unique_ptr<alid::ledger::Ledger> ledger_;
  std::vector<alid::crypto::Bytes> lines_;
  std::uint64_t appended_ = 0;
  double recover_s_ = 0.0;
  std::uint64_t proofs_ = 0;
};

void LedgerWorkload::setup(SetupSplit& split) {
  static std::atomic<int> instance{0};
  dir_ = std::filesystem::path(options_.workdir) /
         ("ledger-" + std::to_string(::getpid()) + "-" +
          std::to_string(instance++));
  std::filesystem::remove_all(dir_);

  SetupTimer t(split.corpus_s);
  // Audit lines as the Auditor writes them: verdicts, registrations and
  // TESLA rejections for a seeded fleet.
  alid::crypto::DeterministicRandom rng(seed_tag(options_.seed, "ledger"));
  static const alid::core::AuditEventType kTypes[] = {
      alid::core::AuditEventType::kPoaVerdict,
      alid::core::AuditEventType::kPoaVerdict,
      alid::core::AuditEventType::kPoaVerdict,
      alid::core::AuditEventType::kDroneRegistered,
      alid::core::AuditEventType::kZoneQuery,
      alid::core::AuditEventType::kTeslaSampleRejected,
  };
  for (std::size_t i = 0; i < kDistinctLines; ++i) {
    alid::core::AuditEvent event;
    event.time = kEpoch + static_cast<double>(i) * 0.37;
    event.type = kTypes[rng.uniform(std::size(kTypes))];
    event.subject = "drone-" + std::to_string(1 + rng.uniform(500));
    event.outcome_ok = rng.uniform(8) != 0;
    event.detail = event.outcome_ok ? "accepted compliant samples=" +
                                          std::to_string(20 + rng.uniform(400))
                                    : "signature invalid at sample " +
                                          std::to_string(rng.uniform(300));
    const std::string line = event.to_line();
    lines_.emplace_back(line.begin(), line.end());
  }

  alid::ledger::Ledger::Config config;
  config.directory = dir_;
  alid::ledger::Digest root_before{};
  {
    alid::ledger::Ledger prefill(config);
    for (std::size_t i = 0; i < kPrefillEntries; ++i) {
      prefill.append(alid::ledger::EntryKind::kAuditEvent,
                     kEpoch + static_cast<double>(i) * 0.01,
                     lines_[i % lines_.size()]);
    }
    root_before = prefill.root_hash();
  }
  const Stopwatch reopen;
  ledger_ = std::make_unique<alid::ledger::Ledger>(config);
  recover_s_ = reopen.seconds();
  appended_ = ledger_->entry_count();
  gate(appended_ == kPrefillEntries, "reopened ledger lost entries");
  gate(ledger_->root_hash() == root_before,
       "reopened ledger root differs from the pre-close root");
}

std::pair<std::uint64_t, std::uint64_t> LedgerWorkload::ledger_counters()
    const {
  // Summed over every ledger instance; only the live one moves.
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;
  for (const auto& rec : alid::obs::MetricsRegistry::global().snapshot()) {
    if (rec.name.rfind("ledger#", 0) != 0) continue;
    if (rec.name.ends_with(".appends")) appends += static_cast<std::uint64_t>(rec.value);
    if (rec.name.ends_with(".bytes_appended")) bytes += static_cast<std::uint64_t>(rec.value);
  }
  return {appends, bytes};
}

PhaseStats LedgerWorkload::run(double seconds) {
  PhaseStats stats;
  const auto [appends0, bytes0] = ledger_counters();
  std::vector<double> seal_us;
  std::vector<double> proof_us;
  std::uint64_t proofs = 0;
  std::uint64_t bad_proofs = 0;

  alid::crypto::DeterministicRandom rng(
      seed_tag(options_.seed, "reader", proofs_));
  while (stats.clock.seconds() < seconds) {
    // A write turn: one batch of audit lines, as the Auditor appends them
    // per commit. Timed as a whole: the tail of a single ~5 us append
    // moves more from run to run than the ledger's own cost does.
    const Stopwatch turn;
    for (std::size_t i = 0; i < kAppendsPerTurn; ++i) {
      ScopedSpan op("gen.write", Layer::kGen);
      const alid::crypto::Bytes& line = lines_[appended_ % lines_.size()];
      const bool seals = (appended_ + 1) % kSegmentCapacity == 0;
      const Stopwatch timer;
      {
        ScopedSpan span("Ledger::append", Layer::kLedger);
        ledger_->append(alid::ledger::EntryKind::kAuditEvent,
                        kEpoch + static_cast<double>(appended_) * 0.01, line);
      }
      const double us = timer.micros();
      if (seals) {
        seal_us.push_back(us);
        if (appended_ + 1 > kRetainedEntries) {
          ScopedSpan span("Ledger::compact_before", Layer::kLedger);
          ledger_->compact_before(appended_ + 1 - kRetainedEntries);
        }
      }
      ++appended_;
      ++stats.ops;
    }
    stats.lat2_us.push_back(turn.micros());
    // A read turn: one third-party audit of a random retained entry.
    {
      ScopedSpan op("gen.read", Layer::kGen);
      const Stopwatch timer;
      const std::uint64_t count = ledger_->entry_count();
      const std::uint64_t window = std::min<std::uint64_t>(count, kReadWindow);
      const std::uint64_t seq = count - 1 - rng.uniform(window);
      alid::ledger::Digest root{};
      std::optional<alid::ledger::Ledger::InclusionProof> proof;
      std::optional<alid::ledger::LedgerEntry> entry;
      {
        ScopedSpan span("Ledger::root_hash", Layer::kLedger);
        root = ledger_->root_hash();
      }
      {
        ScopedSpan span("Ledger::prove", Layer::kLedger);
        proof = ledger_->prove(seq);
      }
      {
        ScopedSpan span("Ledger::entry", Layer::kLedger);
        entry = ledger_->entry(seq);
      }
      bool ok = false;
      if (proof && entry) {
        ScopedSpan span("Ledger::verify_inclusion", Layer::kLedger);
        ok = alid::ledger::Ledger::verify_inclusion(root, entry->leaf_hash(),
                                                    *proof);
      }
      proof_us.push_back(timer.micros());
      ++proofs;
      if (!ok) ++bad_proofs;
    }
  }
  stats.wall_s = stats.clock.seconds();
  proofs_ += proofs;

  gate(bad_proofs == 0, std::to_string(bad_proofs) + " of " +
                            std::to_string(proofs) +
                            " inclusion proofs failed to verify");
  stats.attempted = stats.ops + proofs;
  stats.lat_us = std::move(proof_us);
  const auto [appends1, bytes1] = ledger_counters();
  stats.layer["ledger.seal_us_p50"] = summarize(seal_us).p50;
  stats.layer["ledger.bytes_per_entry"] =
      appends1 > appends0 ? static_cast<double>(bytes1 - bytes0) /
                                static_cast<double>(appends1 - appends0)
                          : 0.0;
  stats.layer["ledger.recover_s"] = recover_s_;
  return stats;
}

void LedgerWorkload::finish(std::vector<std::string>& lines) {
  const alid::ledger::Ledger::AuditReport report = ledger_->audit_segments();
  gate(!report.first_divergent.has_value(),
       "audit_segments() found a divergent segment: " + report.detail);
  lines.push_back("ledger-audit entries=" + std::to_string(appended_) +
                  " proofs=" + std::to_string(proofs_) + " segments_checked=" +
                  std::to_string(report.segments_checked) +
                  " recover_s=" + std::to_string(recover_s_));
}

}  // namespace

std::unique_ptr<Workload> make_ledger_audit(const Options& options) {
  return std::make_unique<LedgerWorkload>(options);
}

}  // namespace perfbench
