// Tamper-evident ledger + replication bench (robustness PR).
//
// Three measurements, each with a built-in shape check so CI can run this
// as a smoke test without parsing numbers:
//
//   append       entries/sec into an in-memory ledger and into a durable
//                (CRC-framed, flushed) directory-backed ledger. Check:
//                both streams end on the byte-identical root.
//   proofs       inclusion-proof generation and verification per second
//                over the in-memory ledger. Check: every proof verifies
//                against the root, and none verifies under a flipped
//                leaf.
//   proof_scale  prove() per second on a ledger of 100 segments and on
//                one of 6400 (segment_capacity=16, both with an open
//                segment), each compacted down to its newest 64 segments
//                and proving entries among them, as a retention policy
//                would. Check: the large ledger's rate is at least half
//                the small one's — computing a proof is O(log N), not
//                O(segments).
//   catch_up     wall time for a replica that missed W replicated writes
//                (its .apply endpoint dark the whole run) to pull the
//                backlog segment-by-segment from a peer. Check: the
//                reapplied count equals W and both replicas end on the
//                same root.
//
// Usage: bench_ledger_replication [--appends N] [--durable-appends N]
//                                 [--writes W] [--json <path>]
//                                 [--metrics <path>]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/replicated_auditor.h"
#include "core/zone_owner.h"
#include "crypto/random.h"
#include "geo/geopoint.h"
#include "ledger/ledger.h"
#include "net/message_bus.h"
#include "resilience/sim_clock.h"

namespace alidrone {
namespace {

constexpr double kT0 = 1528400000.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::size_t appends = 20000;
  std::size_t durable_appends = 4000;
  std::size_t writes = 100;  ///< replicated writes the laggard misses
};

std::optional<std::size_t> take_size_flag(int& argc, char** argv,
                                          const std::string& name) {
  const auto text = bench::take_path_flag(argc, argv, name);
  if (!text) return std::nullopt;
  return static_cast<std::size_t>(std::strtoull(text->c_str(), nullptr, 10));
}

crypto::Bytes entry_payload(std::size_t i) {
  const std::string line = std::to_string(kT0 + static_cast<double>(i)) +
                           "|poa_verdict|drone-" + std::to_string(i % 64) +
                           "|ok|speed plausible; zones clear";
  return crypto::Bytes(line.begin(), line.end());
}

std::size_t fill(ledger::Ledger& led, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    led.append(ledger::EntryKind::kAuditEvent, kT0 + static_cast<double>(i),
               entry_payload(i));
  }
  return count;
}

int run(int argc, char** argv) {
  const auto json_path = bench::take_json_flag(argc, argv);
  const bench::MetricsDump metrics_dump(bench::take_metrics_flag(argc, argv),
                                        "bench_ledger_replication");
  Options opt;
  if (const auto v = take_size_flag(argc, argv, "appends")) opt.appends = *v;
  if (const auto v = take_size_flag(argc, argv, "durable-appends")) {
    opt.durable_appends = *v;
  }
  if (const auto v = take_size_flag(argc, argv, "writes")) opt.writes = *v;
  bool ok = true;

  // ---- append throughput -------------------------------------------------
  bench::print_header("ledger append (segment_capacity=256)");
  ledger::Ledger memory_ledger;
  double start = now_s();
  fill(memory_ledger, opt.appends);
  const double memory_elapsed = now_s() - start;
  const double memory_aps = static_cast<double>(opt.appends) / memory_elapsed;
  std::printf("  in-memory: %zu entries in %.3fs -> %.0f appends/sec\n",
              opt.appends, memory_elapsed, memory_aps);

  const auto dir = std::filesystem::temp_directory_path() /
                   "alidrone-bench-ledger-replication";
  std::filesystem::remove_all(dir);
  double durable_aps = 0.0;
  {
    ledger::Ledger::Config config;
    config.directory = dir;
    ledger::Ledger durable_ledger(config);
    start = now_s();
    fill(durable_ledger, opt.durable_appends);
    const double durable_elapsed = now_s() - start;
    durable_aps = static_cast<double>(opt.durable_appends) / durable_elapsed;
    std::printf("  durable:   %zu entries in %.3fs -> %.0f appends/sec\n",
                opt.durable_appends, durable_elapsed, durable_aps);

    // Shape check: the durable stream is the same stream — its root after
    // N entries equals the in-memory ledger's root after the same N.
    ledger::Ledger prefix_ledger;
    fill(prefix_ledger, opt.durable_appends);
    if (durable_ledger.root_hash() != prefix_ledger.root_hash()) {
      std::printf("  FAIL: durable root differs from in-memory root\n");
      ok = false;
    }
  }
  std::filesystem::remove_all(dir);

  // ---- inclusion proofs --------------------------------------------------
  bench::print_header("inclusion proofs");
  const ledger::Digest root = memory_ledger.root_hash();
  std::vector<ledger::Ledger::InclusionProof> proofs;
  std::vector<ledger::Digest> leaves;
  proofs.reserve(opt.appends);
  leaves.reserve(opt.appends);
  start = now_s();
  for (std::uint64_t seq = 0; seq < opt.appends; ++seq) {
    auto proof = memory_ledger.prove(seq);
    if (!proof) {
      std::printf("  FAIL: no proof for seq %llu\n",
                  static_cast<unsigned long long>(seq));
      ok = false;
      break;
    }
    leaves.push_back(memory_ledger.entry(seq)->leaf_hash());
    proofs.push_back(std::move(*proof));
  }
  const double prove_elapsed = now_s() - start;
  const double prove_ps = static_cast<double>(proofs.size()) / prove_elapsed;

  std::size_t verified = 0;
  start = now_s();
  for (std::size_t i = 0; i < proofs.size(); ++i) {
    if (ledger::Ledger::verify_inclusion(root, leaves[i], proofs[i])) {
      ++verified;
    }
  }
  const double verify_elapsed = now_s() - start;
  const double verify_ps = static_cast<double>(proofs.size()) / verify_elapsed;
  std::printf("  %zu proofs: %.0f prove/sec, %.0f verify/sec\n", proofs.size(),
              prove_ps, verify_ps);
  if (verified != proofs.size()) {
    std::printf("  FAIL: %zu/%zu proofs verified\n", verified, proofs.size());
    ok = false;
  }
  if (!proofs.empty()) {
    ledger::Digest flipped = leaves[0];
    flipped[0] ^= 0x01;
    if (ledger::Ledger::verify_inclusion(root, flipped, proofs[0])) {
      std::printf("  FAIL: flipped leaf still verified\n");
      ok = false;
    }
  }

  // ---- proof cost vs ledger size -----------------------------------------
  bench::print_header("proof rate vs segment count (segment_capacity=16)");
  constexpr std::size_t kScaleCapacity = 16;
  constexpr std::size_t kSmallSegments = 100;
  constexpr std::size_t kSegmentRatio = 64;
  constexpr std::uint64_t kRetained = 64 * kScaleCapacity;
  const auto prove_rate = [&](std::size_t segments) {
    ledger::Ledger::Config config;
    config.segment_capacity = kScaleCapacity;
    ledger::Ledger led(config);
    // Sealed segments plus a half-full open one.
    const std::size_t count =
        (segments - 1) * kScaleCapacity + kScaleCapacity / 2;
    fill(led, count);
    led.compact_before(count - kRetained);
    (void)led.root_hash();
    // Best of five rounds of ~0.1 s each: a slow stretch of a shared host
    // can only lower a round, not the best one.
    double best = 0.0;
    std::uint64_t pick = 0;
    std::size_t missing = 0;
    for (int round = 0; round < 5; ++round) {
      std::size_t proved = 0;
      const double round_start = now_s();
      double elapsed = 0.0;
      while (elapsed < 0.1) {
        for (int i = 0; i < 64; ++i) {
          pick = (pick + 7919) % kRetained;  // strides over the retained
          if (led.prove(count - kRetained + pick)) {
            ++proved;
          } else {
            ++missing;
          }
        }
        elapsed = now_s() - round_start;
      }
      best = std::max(best, static_cast<double>(proved) / elapsed);
    }
    if (missing > 0) {
      std::printf("  FAIL: %zu retained entries had no proof\n", missing);
      ok = false;
    }
    std::printf("  %zu segments (%zu entries): %.0f prove/sec\n", segments,
                count, best);
    return best;
  };
  const std::size_t large_segments = kSmallSegments * kSegmentRatio;
  const double small_prove_ps = prove_rate(kSmallSegments);
  const double large_prove_ps = prove_rate(large_segments);
  const double prove_scale = large_prove_ps / small_prove_ps;
  std::printf("  %zux segments -> %.2fx the prove rate\n", kSegmentRatio,
              prove_scale);
  if (prove_scale < 0.5) {
    std::printf("  FAIL: prove rate fell below half with %zux segments\n",
                kSegmentRatio);
    ok = false;
  }

  // ---- replication catch-up ----------------------------------------------
  bench::print_header("replication catch-up");
  net::MessageBus bus;
  resilience::SimClock clock(0.0);
  core::ReplicatedAuditor::Config fed_config;
  fed_config.replicas = 2;
  fed_config.key_bits = 512;
  fed_config.key_seed = "bench-ledger-replication";
  fed_config.segment_capacity = 64;
  core::ReplicatedAuditor fed(bus, clock, fed_config);

  // Replica 1 misses everything: its replication inlet is dark for the
  // whole write phase.
  net::MessageBus::FaultConfig faults;
  faults.seed = 1;
  net::FaultWindow window;
  window.endpoint = "auditor1.apply";
  window.start = 0.0;
  window.end = 1e12;
  window.kind = net::FaultKind::kOutage;
  window.probability = 1.0;
  faults.schedule.push_back(window);
  bus.set_faults(faults);

  crypto::DeterministicRandom owner_rng("bench-ledger-owner");
  core::ZoneOwner owner(512, owner_rng);
  const geo::LocalFrame frame(geo::GeoPoint{40.0, -88.0});
  for (std::size_t i = 0; i < opt.writes; ++i) {
    const geo::GeoZone zone{
        frame.to_geo(geo::Vec2{static_cast<double>(i) * 50.0, 400.0}), 30.0};
    owner.register_zone(bus, zone, "bench zone " + std::to_string(i),
                        "auditor0");
  }

  bus.set_faults(net::MessageBus::FaultConfig{});  // the outage ends
  start = now_s();
  const auto reapplied = fed.catch_up(1, 0);
  const double catchup_elapsed = now_s() - start;
  const double catchup_wps =
      static_cast<double>(opt.writes) / catchup_elapsed;
  std::printf("  %zu missed writes reapplied in %.3fs -> %.0f writes/sec\n",
              opt.writes, catchup_elapsed, catchup_wps);
  if (!reapplied || *reapplied != opt.writes || !fed.converged()) {
    std::printf("  FAIL: reapplied=%lld converged=%d (want %zu, true)\n",
                reapplied ? static_cast<long long>(*reapplied) : -1,
                fed.converged() ? 1 : 0, opt.writes);
    ok = false;
  }

  bench::print_rule();
  std::printf("shape checks: %s\n", ok ? "ok" : "FAILED");

  if (json_path) {
    bench::JsonRecordWriter writer(*json_path);
    const std::string cfg = std::to_string(opt.appends) + "entries";
    writer.write("ledger_replication", cfg + "/memory", "appends_per_sec",
                 memory_aps);
    writer.write("ledger_replication",
                 std::to_string(opt.durable_appends) + "entries/durable",
                 "appends_per_sec", durable_aps);
    writer.write("ledger_replication", cfg, "proofs_per_sec", prove_ps);
    writer.write("ledger_replication", cfg, "proof_verify_per_sec", verify_ps);
    writer.write("ledger_replication",
                 std::to_string(kSmallSegments) + "segments",
                 "proofs_per_sec", small_prove_ps);
    writer.write("ledger_replication",
                 std::to_string(large_segments) + "segments",
                 "proofs_per_sec", large_prove_ps);
    writer.write("ledger_replication", "proof_scale", "large_over_small_rate",
                 prove_scale);
    writer.write("ledger_replication",
                 std::to_string(opt.writes) + "writes", "catchup_seconds",
                 catchup_elapsed);
    writer.write("ledger_replication",
                 std::to_string(opt.writes) + "writes",
                 "catchup_writes_per_sec", catchup_wps);
    writer.write("ledger_replication", cfg, "shape_check_failures",
                 ok ? 0.0 : 1.0);
    if (!writer.ok()) return 1;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace alidrone

int main(int argc, char** argv) { return alidrone::run(argc, argv); }
