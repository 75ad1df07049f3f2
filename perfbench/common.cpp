#include <algorithm>
#include <cmath>
#include <limits>

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "tee/sample_codec.h"
#include "workloads.h"

namespace perfbench {

namespace alid = alidrone;

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "fleet") return make_fleet(options);
  if (options.workload == "audit-stream") return make_audit_stream(options);
  if (options.workload == "tesla-broadcast") return make_tesla_broadcast(options);
  if (options.workload == "ledger-audit") return make_ledger_audit(options);
  return nullptr;
}

const char* attack_name(Attack attack) {
  switch (attack) {
    case Attack::kHonest:
      return "honest";
    case Attack::kChainForge:
      return "chain-forge";
    case Attack::kReplay:
      return "replay";
    case Attack::kTamper:
      return "tamper";
    case Attack::kDropWindow:
      return "drop-window";
    case Attack::kNavDeviation:
      return "nav-deviation";
    case Attack::kThinningAbuse:
      return "thinning-abuse";
  }
  return "unknown";
}

Attack attack_for_flight(std::uint64_t index) {
  // 3 of every 8 flights attack: flight i is adversarial when the
  // Bresenham count floor((i + 1) * 3 / 8) steps past floor(i * 3 / 8).
  const std::uint64_t before = index * 3 / 8;
  if ((index + 1) * 3 / 8 == before) return Attack::kHonest;
  return static_cast<Attack>(1 + before % 6);
}

bool verdict_matches(Attack attack, const alid::core::PoaVerdict& v) {
  switch (attack) {
    case Attack::kHonest:
      return v.accepted && v.compliant;
    case Attack::kChainForge:
    case Attack::kReplay:
    case Attack::kTamper:
      return !v.accepted;
    case Attack::kDropWindow:
    case Attack::kThinningAbuse:
      return v.accepted && !v.compliant;
    case Attack::kNavDeviation:
      return v.accepted && !v.compliant && v.violation_count > 0;
  }
  return false;
}

const char* family_name(std::size_t family) {
  static const char* const kNames[3] = {"swarm", "delivery", "corridor"};
  return kNames[family % 3];
}

alid::geo::Vec2 family_zone_center(std::size_t family) {
  constexpr double kFamilySpacingM = 4000.0;
  return {static_cast<double>(family) * kFamilySpacingM, 1000.0};
}

alid::sim::Route make_family_route(const alid::geo::LocalFrame& frame,
                                   std::size_t family, double take_off,
                                   double jitter_y) {
  // Every family skirts its zone at 120-205 m: close enough that cutting
  // the approach window (or over-thinning) breaks eq. (1), far enough
  // that the honest trace stays compliant.
  const double fx = family_zone_center(family).x;
  std::vector<alid::sim::Waypoint> wps;
  switch (family) {
    case 0:  // swarm staging loop
      wps = {{{fx - 800.0, 1450.0 + jitter_y}, 40.0},
             {{fx, 1420.0 + jitter_y}, 40.0},
             {{fx + 800.0, 1450.0 + jitter_y}, 40.0}};
      break;
    case 1:  // delivery out-and-back
      wps = {{{fx - 700.0, 1500.0 + jitter_y}, 35.0},
             {{fx, 1430.0 + jitter_y}, 35.0},
             {{fx + 700.0, 1500.0 + jitter_y}, 35.0}};
      break;
    default:  // transit corridor
      wps = {{{fx - 900.0, 1480.0 + jitter_y}, 42.0},
             {{fx + 900.0, 1480.0 + jitter_y}, 42.0}};
  }
  return alid::sim::Route(frame, std::move(wps), take_off);
}

std::vector<alid::gps::GpsFix> fake_route_fixes(
    const alid::geo::LocalFrame& frame, double start, double end,
    double rate_hz) {
  std::vector<alid::gps::GpsFix> fixes;
  const double period = 1.0 / rate_hz;
  for (double t = start; t <= end + 1e-9; t += period) {
    alid::gps::GpsFix fix;
    fix.position = frame.to_geo({(t - start) * 10.0, 6000.0});
    fix.unix_time = t;
    fix.speed_mps = 10.0;
    fixes.push_back(fix);
  }
  return fixes;
}

alid::core::ProofOfAlibi drop_approach_window(
    const alid::core::ProofOfAlibi& poa, double t_mid, double half_window_s) {
  // Drops every sample within +-half_window_s of t_mid and always the
  // three interior samples nearest it (adaptive sampling can leave the
  // window straddling one long interval); first and last survive.
  const std::size_t n = poa.samples.size();
  if (n < 3) return poa;
  std::size_t from = n;
  std::size_t to = 0;
  std::size_t nearest = 1;
  double nearest_gap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const auto fix = poa.samples[i].fix();
    if (!fix) continue;
    const double gap = std::abs(fix->unix_time - t_mid);
    if (gap < nearest_gap) {
      nearest_gap = gap;
      nearest = i;
    }
    if (gap <= half_window_s) {
      from = std::min(from, i);
      to = std::max(to, i + 1);
    }
  }
  from = std::min(from, nearest >= 2 ? nearest - 1 : 1);
  to = std::max(to, std::min(nearest + 2, n - 1));
  return alid::core::attacks::drop_samples(poa, from, to);
}

alid::core::ProofOfAlibi forge_with_key(
    const alid::core::DroneId& drone_id,
    const std::vector<alid::gps::GpsFix>& fake_route,
    const alid::crypto::RsaPrivateKey& attacker_key) {
  alid::core::ProofOfAlibi poa;
  poa.drone_id = drone_id;
  poa.mode = alid::core::AuthMode::kRsaPerSample;
  poa.hash = alid::crypto::HashAlgorithm::kSha1;
  poa.samples.reserve(fake_route.size());
  for (const alid::gps::GpsFix& fix : fake_route) {
    alid::crypto::Bytes sample = alid::tee::encode_sample(fix);
    alid::crypto::Bytes signature =
        alid::crypto::rsa_sign(attacker_key, sample, poa.hash);
    poa.samples.push_back({std::move(sample), std::move(signature)});
  }
  return poa;
}

Drone make_drone(std::uint64_t seed, const std::string& what,
                 std::size_t index) {
  Drone d;
  alid::tee::DroneTee::Config tee_config;
  tee_config.key_bits = kKeyBits;
  tee_config.manufacturing_seed = seed_tag(seed, what + "-tee", index);
  d.tee = std::make_unique<alid::tee::DroneTee>(tee_config);
  d.operator_rng = std::make_unique<alid::crypto::DeterministicRandom>(
      seed_tag(seed, what + "-operator", index));
  d.client = std::make_unique<alid::core::DroneClient>(*d.tee, kKeyBits,
                                                       *d.operator_rng);
  return d;
}

DeploymentCounters read_counters(Deployment& deployment, Client& client) {
  DeploymentCounters c;
  c.ingest = deployment.ingest().counters();
  auto& registry = alid::obs::MetricsRegistry::global();
  c.mont_hits = registry.counter("crypto.mont.cache_hits").value();
  c.mont_misses = registry.counter("crypto.mont.cache_misses").value();
  c.wire = client.transport.counters();
  return c;
}

void add_deployment_layers(const DeploymentCounters& b,
                           const DeploymentCounters& a, PhaseStats& out) {
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.requests = a.wire.requests - b.wire.requests;
  out.wire_bytes = a.wire.bytes - b.wire.bytes;
  // Every timeout, reset or deadline expiry surfaces as one failed
  // request at the decorator.
  out.wire_errors = a.wire.errors - b.wire.errors;
  const double submitted = d(a.ingest.submitted, b.ingest.submitted);
  out.layer["ingest.batch_mean"] =
      ratio(d(a.ingest.committed, b.ingest.committed),
            d(a.ingest.batches, b.ingest.batches));
  out.layer["ingest.retry_later_ratio"] =
      ratio(d(a.ingest.retry_later, b.ingest.retry_later), submitted);
  out.layer["ingest.dup_ratio"] =
      ratio(d(a.ingest.duplicates, b.ingest.duplicates), submitted);
  const double hits = d(a.mont_hits, b.mont_hits);
  const double misses = d(a.mont_misses, b.mont_misses);
  out.layer["crypto.mont.miss_ratio"] = ratio(misses, hits + misses);
}

std::string digest_hex(const std::string& text) {
  const auto digest = alid::crypto::Sha256::hash(text);
  return alid::crypto::to_hex(digest);
}

}  // namespace perfbench
