// The four workloads and the pieces they share.
//
//   fleet            closed loop: one generator steps campaign-style
//                    drones (three route families, 37.5 % adversaries)
//                    and each drone waits for its verdict.
//   audit-stream     open loop: seeded Poisson arrivals of distinct PoAs
//                    (RSA, HMAC, batch-signature, encrypted, attacks,
//                    byte-identical resubmissions) over <= nproc
//                    connections.
//   tesla-broadcast  closed loop: serial TESLA broadcast flights, some
//                    carrying forged tags, late samples and forged
//                    disclosures.
//   ledger-audit     closed loop on one thread: turns of appending audit
//                    lines to a directory-backed Ledger and of proving
//                    and verifying a retained entry against the root.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/attacks.h"
#include "core/drone_client.h"
#include "core/ingest.h"
#include "core/poa.h"
#include "crypto/rsa.h"
#include "geo/geopoint.h"
#include "gps/fix.h"
#include "harness.h"
#include "sim/route.h"
#include "tee/secure_monitor.h"

namespace perfbench {

std::unique_ptr<Workload> make_workload(const Options& options);
std::unique_ptr<Workload> make_fleet(const Options& options);
std::unique_ptr<Workload> make_audit_stream(const Options& options);
std::unique_ptr<Workload> make_tesla_broadcast(const Options& options);
std::unique_ptr<Workload> make_ledger_audit(const Options& options);

// ---- The campaign's attack classes and their expected verdicts ----------

enum class Attack : std::uint8_t {
  kHonest,
  kChainForge,
  kReplay,
  kTamper,
  kDropWindow,
  kNavDeviation,
  kThinningAbuse,
};
const char* attack_name(Attack attack);

/// Class of flight `index` in a fleet with 3/8 adversaries spread evenly
/// (Bresenham) and cycling the six attack classes, as sim::run_campaign.
Attack attack_for_flight(std::uint64_t index);

/// Does `verdict` match what the Auditor must say about `attack`?
///   honest -> accepted and compliant; chain-forge/replay/tamper ->
///   rejected; drop-window/thinning-abuse -> accepted, not compliant;
///   nav-deviation -> accepted, not compliant, violations > 0.
bool verdict_matches(Attack attack, const alidrone::core::PoaVerdict& verdict);

// ---- Campaign geometry (mirrors sim::run_campaign's route families) -----

inline constexpr double kZoneRadiusM = 300.0;
const char* family_name(std::size_t family);
alidrone::geo::Vec2 family_zone_center(std::size_t family);
alidrone::sim::Route make_family_route(const alidrone::geo::LocalFrame& frame,
                                       std::size_t family, double take_off,
                                       double jitter_y);
/// Innocuous straight trace 5 km north of every zone.
std::vector<alidrone::gps::GpsFix> fake_route_fixes(
    const alidrone::geo::LocalFrame& frame, double start, double end,
    double rate_hz);
/// Cut the zone-approach window around `t_mid` out of the PoA.
alidrone::core::ProofOfAlibi drop_approach_window(
    const alidrone::core::ProofOfAlibi& poa, double t_mid, double half_window_s);
/// core::attacks::forge_trace with the attacker's key made once in setup
/// (forge_trace generates a fresh key per call, which would put a key
/// generation inside every timed chain-forge flight).
alidrone::core::ProofOfAlibi forge_with_key(
    const alidrone::core::DroneId& drone_id,
    const std::vector<alidrone::gps::GpsFix>& fake_route,
    const alidrone::crypto::RsaPrivateKey& attacker_key);

// ---- Drones ----------------------------------------------------------------

/// A manufactured drone: its TEE (T-, made from the seed) and the
/// operator's client (D-).
struct Drone {
  std::unique_ptr<alidrone::tee::DroneTee> tee;
  std::unique_ptr<alidrone::crypto::DeterministicRandom> operator_rng;
  std::unique_ptr<alidrone::core::DroneClient> client;
};
/// Two key generations: "<what>-tee" and "<what>-operator" streams.
Drone make_drone(std::uint64_t seed, const std::string& what,
                 std::size_t index);

// ---- Deployment counters around a phase ---------------------------------

struct DeploymentCounters {
  alidrone::core::AuditorIngest::Counters ingest;
  std::uint64_t mont_hits = 0;
  std::uint64_t mont_misses = 0;
  TracedTransport::Counters wire;
};
DeploymentCounters read_counters(Deployment& deployment, Client& client);
/// Fill requests/bytes/errors and the ingest.* / crypto.* layer values.
void add_deployment_layers(const DeploymentCounters& before,
                           const DeploymentCounters& after, PhaseStats& out);

/// SHA-256 hex of `text` (fingerprint digests).
std::string digest_hex(const std::string& text);

}  // namespace perfbench
