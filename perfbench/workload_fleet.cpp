// fleet — the campaign's drones flying over the real transport.
//
// Closed loop, one generator thread, one connection: the generator flies
// one flight at a time, stepping its FlightActor tick by tick and
// flushing its outbox through the socket client, and the drone waits for
// its verdict before the next flight starts. Flights cycle over a fixed
// pool of drones, each flying many missions on the TEE it was
// manufactured with in setup (key generation lands in setup_s, not in
// the timed loop). Why: the drone layer (GPS ticks, world switches, TEE
// RSA signing per sample) does most of the work here, so a drone-side
// change moves ops_per_s and the sample latencies, and an Auditor-side
// change barely does.
#include <unistd.h>

#include <memory>
#include <sstream>

#include "core/drone_client.h"
#include "core/flight_actor.h"
#include "core/messages.h"
#include "core/sampler.h"
#include "core/zone_owner.h"
#include "crypto/bytes.h"
#include "geo/units.h"
#include "gps/receiver_sim.h"
#include "tee/secure_monitor.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace alid = alidrone;

constexpr std::size_t kDrones = 8;
constexpr double kUpdateRateHz = 2.0;
/// Virtual time between one drone's consecutive take-offs (longer than
/// any family route).
constexpr double kMissionSpacingS = 120.0;
/// Flights whose verdicts enter the fingerprint (every run reaches them).
constexpr std::uint64_t kFingerprintFlights = 48;

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Options& options)
      : options_(options), frame_(alid::geo::GeoPoint{47.60, -122.33}) {}

  void setup(SetupSplit& split) override;
  PhaseStats run(double seconds) override;
  void finish(std::vector<std::string>& lines) override;

 private:
  void fly_one(PhaseStats& stats, double& step_s, std::uint64_t& updates,
               std::uint64_t& auths, std::uint64_t& retries);

  Options options_;
  alid::geo::LocalFrame frame_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<alid::crypto::DeterministicRandom> owner_rng_;
  std::unique_ptr<alid::core::ZoneOwner> owner_;
  std::vector<alid::geo::GeoZone> zones_;
  std::vector<alid::geo::Circle> local_zones_;
  alid::crypto::RsaKeyPair attacker_key_;
  std::vector<Drone> drones_;
  Drone donor_;
  std::shared_ptr<alid::core::ProofOfAlibi> donor_poa_;

  std::uint64_t next_flight_ = 0;
  std::ostringstream fingerprint_;
  std::string fingerprint_root_;
};

void FleetWorkload::setup(SetupSplit& split) {
  const std::string socket =
      options_.workdir + "/fleet-" + std::to_string(::getpid()) + ".sock";
  {
    SetupTimer t(split.keygen_s);
    deployment_ = std::make_unique<Deployment>(socket, options_.seed);
    owner_rng_ = std::make_unique<alid::crypto::DeterministicRandom>(
        seed_tag(options_.seed, "owner"));
    owner_ = std::make_unique<alid::core::ZoneOwner>(kKeyBits, *owner_rng_);
    alid::crypto::DeterministicRandom attacker_rng(
        seed_tag(options_.seed, "attacker"));
    attacker_key_ = alid::crypto::generate_rsa_keypair(kKeyBits, attacker_rng);
    donor_ = make_drone(options_.seed, "donor", 0);
    for (std::size_t i = 0; i < kDrones; ++i) {
      drones_.push_back(make_drone(options_.seed, "drone", i));
    }
  }
  {
    SetupTimer t(split.server_s);
    deployment_->start();
    client_ = std::make_unique<Client>(*deployment_, 1);
  }
  {
    SetupTimer t(split.register_s);
    for (std::size_t family = 0; family < 3; ++family) {
      const alid::geo::GeoZone zone{frame_.to_geo(family_zone_center(family)),
                                    kZoneRadiusM};
      gate(!owner_->register_zone(client_->transport, zone,
                                  std::string(family_name(family)) + " zone")
                .empty(),
           "zone registration refused");
      zones_.push_back(zone);
      local_zones_.push_back(alid::geo::to_local(frame_, zone));
    }
    gate(donor_.client->register_with_auditor(client_->transport),
         "donor registration refused");
    for (Drone& d : drones_) {
      gate(d.client->register_with_auditor(client_->transport),
           "drone registration refused");
    }
  }
  {
    // The replay donor: one honest flight whose PoA replay operators
    // relabel as their own.
    SetupTimer t(split.corpus_s);
    const alid::sim::Route route =
        make_family_route(frame_, 0, kEpoch - 300.0, 5.0);
    alid::gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = kUpdateRateHz;
    rc.start_time = route.start_time();
    rc.seed = options_.seed;
    alid::gps::GpsReceiverSim receiver(rc, route.as_position_source());
    alid::core::AdaptiveSampler policy(frame_, local_zones_,
                                       alid::geo::kFaaMaxSpeedMps,
                                       kUpdateRateHz);
    alid::core::FlightConfig fc;
    fc.end_time = route.end_time();
    fc.frame = frame_;
    fc.local_zones = local_zones_;
    donor_poa_ = std::make_shared<alid::core::ProofOfAlibi>(
        donor_.client->fly(receiver, policy, fc));
    gate(!donor_poa_->samples.empty(), "donor flight recorded no samples");
  }
  fingerprint_ << "fleet seed=" << options_.seed << "\n";
}

void FleetWorkload::fly_one(PhaseStats& stats, double& step_s,
                            std::uint64_t& updates, std::uint64_t& auths,
                            std::uint64_t& retries) {
  ScopedSpan flight_span("gen.flight", Layer::kGen);
  const std::uint64_t index = next_flight_++;
  Drone& drone = drones_[index % kDrones];
  const std::uint64_t mission = index / kDrones;
  const std::size_t family = index % 3;
  const Attack attack = attack_for_flight(index);

  alid::crypto::DeterministicRandom route_rng(
      seed_tag(options_.seed, "route", index));
  const double jitter_y = route_rng.uniform_double() * 25.0;
  const double take_off = kEpoch +
                          static_cast<double>(mission) * kMissionSpacingS +
                          static_cast<double>(index % kDrones) * 3.125;
  const alid::sim::Route route =
      make_family_route(frame_, family, take_off, jitter_y);
  alid::gps::PositionSource source = route.as_position_source();
  if (attack == Attack::kNavDeviation) {
    // Gradual spoofing drifts the drone into its family zone; the TEE
    // honestly signs the deviated path.
    source = alid::core::attacks::spoofed_drift_source(
        std::move(source), frame_, family_zone_center(family), take_off + 2.0,
        15.0);
  }
  alid::gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = kUpdateRateHz;
  rc.start_time = route.start_time();
  rc.seed = options_.seed ^ (index * 0x9E3779B97F4A7C15ULL);
  alid::gps::GpsReceiverSim receiver(rc, std::move(source));
  alid::core::AdaptiveSampler policy(frame_, local_zones_,
                                     alid::geo::kFaaMaxSpeedMps, kUpdateRateHz);
  alid::core::FlightConfig fc;
  fc.end_time = route.end_time();
  fc.frame = frame_;
  fc.local_zones = local_zones_;
  alid::core::FlightActor actor(*drone.tee, receiver, policy, fc);

  alid::core::FlightActor::Submission submission;
  submission.drone_id = drone.client->id();
  submission.backoff_seed = seed_tag(options_.seed, "backoff", index);
  const double t_mid = route.start_time() + route.duration() / 2.0;
  switch (attack) {
    case Attack::kHonest:
    case Attack::kNavDeviation:
      break;
    case Attack::kChainForge:
      submission.mutate = [this, id = drone.client->id(),
                           fixes = fake_route_fixes(frame_, route.start_time(),
                                                    route.end_time(),
                                                    kUpdateRateHz)](
                              alid::core::ProofOfAlibi) {
        return forge_with_key(id, fixes, attacker_key_.priv);
      };
      break;
    case Attack::kReplay:
      submission.mutate = [donor = donor_poa_, id = drone.client->id()](
                              alid::core::ProofOfAlibi) {
        return alid::core::attacks::relay(*donor, id);
      };
      break;
    case Attack::kTamper:
      submission.mutate = [center = zones_[family].center](
                              alid::core::ProofOfAlibi poa) {
        return alid::core::attacks::tamper_position(
            poa, poa.samples.size() / 2, center);
      };
      break;
    case Attack::kDropWindow:
      submission.mutate = [t_mid](alid::core::ProofOfAlibi poa) {
        return drop_approach_window(poa, t_mid, 10.0);
      };
      break;
    case Attack::kThinningAbuse:
      submission.mutate = [](alid::core::ProofOfAlibi poa) {
        return alid::core::attacks::thinning_abuse(poa, 2);
      };
      break;
  }
  actor.set_submission(std::move(submission));

  const Stopwatch flight_watch;
  while (!actor.done()) {
    const std::size_t samples_before = actor.flight().poa_samples.size();
    const Stopwatch step_watch;
    {
      ScopedSpan span("FlightActor::step", Layer::kDrone);
      actor.step();
    }
    const double step_us = step_watch.micros();
    step_s += step_us / 1e6;
    if (actor.flight().poa_samples.size() > samples_before) {
      stats.lat_us.push_back(step_us);  // GPS tick -> signed sample
    }
    // The submission: the drone waits for its verdict.
    if (!actor.outbox().empty()) {
      set_request_tag("rsa");  // every fleet PoA is RSA-per-sample
      actor.flush(client_->transport);
      set_request_tag(nullptr);
    }
  }
  stats.lat2_us.push_back(flight_watch.micros());  // first tick -> verdict

  const alid::core::FlightResult& flight = actor.flight();
  updates += flight.gps_updates;
  auths += flight.authentications;
  retries += flight.tee_retries;
  ++stats.attempted;
  const auto& verdict = actor.submission_verdict();
  if (!verdict) {
    ++stats.failed;
  } else {
    ++stats.ops;
    gate(verdict_matches(attack, *verdict),
         std::string("fleet flight ") + std::to_string(index) + " (" +
             attack_name(attack) + ") got accepted=" +
             std::to_string(verdict->accepted) +
             " compliant=" + std::to_string(verdict->compliant) +
             " violations=" + std::to_string(verdict->violation_count) +
             " detail=" + verdict->detail);
  }
  if (index < kFingerprintFlights) {
    fingerprint_ << drone.client->id() << " " << attack_name(attack) << " "
                 << family_name(family);
    if (verdict) {
      fingerprint_ << " accepted=" << verdict->accepted
                   << " compliant=" << verdict->compliant
                   << " violations=" << verdict->violation_count;
    } else {
      fingerprint_ << " verdict=none";
    }
    fingerprint_ << "\n";
    if (index + 1 == kFingerprintFlights) {
      fingerprint_root_ =
          alid::crypto::to_hex(deployment_->ledger().root_hash());
    }
  }
}

PhaseStats FleetWorkload::run(double seconds) {
  PhaseStats stats;
  const DeploymentCounters before = read_counters(*deployment_, *client_);
  std::uint64_t switches0 = 0;
  for (Drone& d : drones_) switches0 += d.tee->monitor().world_switches();
  double step_s = 0.0;
  std::uint64_t updates = 0, auths = 0, retries = 0;

  while (stats.clock.seconds() < seconds) {
    fly_one(stats, step_s, updates, auths, retries);
  }
  stats.wall_s = stats.clock.seconds();

  add_deployment_layers(before, read_counters(*deployment_, *client_), stats);
  std::uint64_t switches = 0;
  for (Drone& d : drones_) switches += d.tee->monitor().world_switches();
  const double samples = static_cast<double>(stats.lat_us.size());
  stats.layer["drone.busy_frac"] = step_s / stats.wall_s;
  stats.layer["drone.samples_per_update"] =
      updates > 0 ? static_cast<double>(auths) / static_cast<double>(updates)
                  : 0.0;
  stats.layer["drone.world_switches_per_sample"] =
      samples > 0 ? static_cast<double>(switches - switches0) / samples : 0.0;
  stats.layer["drone.tee_retries"] = static_cast<double>(retries);
  return stats;
}

void FleetWorkload::finish(std::vector<std::string>& lines) {
  gate(next_flight_ >= kFingerprintFlights,
       "run too short for the fingerprint (" + std::to_string(next_flight_) +
           " flights)");
  const std::string verdicts = digest_hex(fingerprint_.str());
  lines.push_back("fingerprint fleet seed=" + std::to_string(options_.seed) +
                  " flights=" + std::to_string(kFingerprintFlights) +
                  " verdicts=" + verdicts + " ledger_root=" + fingerprint_root_);
  lines.push_back("fleet flights=" + std::to_string(next_flight_));
}

}  // namespace

std::unique_ptr<Workload> make_fleet(const Options& options) {
  return std::make_unique<FleetWorkload>(options);
}

}  // namespace perfbench
