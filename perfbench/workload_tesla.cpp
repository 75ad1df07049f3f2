// tesla-broadcast — TESLA broadcast flights over the real transport.
//
// Closed loop, serial generator, one connection. Each flight announces
// one signed chain commitment (the flight's only RSA operation), then
// broadcasts every GPS update as a ~100-byte HMAC-tagged sample and
// discloses chain keys two intervals later; every frame waits for its
// ack. One flight in four is honest; the others also carry forged tags
// (core::attacks::tesla_forge_tag), late samples built from overheard
// keys (tesla_late_sample) or forged disclosures (tesla_forge_disclosure).
// Why: it drives the same wire and ingest layers as fleet and
// audit-stream with many tiny frames through the ingest's serial TESLA
// commit lane, so a per-message cost cut shows here while an RSA or
// parallel-evaluate gain must not.
#include <unistd.h>

#include <memory>
#include <optional>
#include <sstream>

#include "core/drone_client.h"
#include "core/flight_actor.h"
#include "core/messages.h"
#include "core/sampler.h"
#include "core/tesla.h"
#include "core/zone_owner.h"
#include "crypto/bytes.h"
#include "gps/receiver_sim.h"
#include "tee/sample_codec.h"
#include "tee/secure_monitor.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace alid = alidrone;

constexpr std::size_t kDrones = 4;
constexpr double kUpdateRateHz = 5.0;
constexpr double kCorridorM = 400.0;
constexpr double kSpeedMps = 10.0;
constexpr double kMissionSpacingS = 120.0;
constexpr std::uint64_t kFingerprintFlights = 12;
/// Disclosure counts after which an attack flight injects its forgery.
constexpr std::uint64_t kInjectAt[] = {3, 12, 24};

enum class TeslaAttack { kHonest, kForgeTag, kLateSample, kForgeDisclosure };

const char* tesla_attack_name(TeslaAttack a) {
  switch (a) {
    case TeslaAttack::kHonest:
      return "honest";
    case TeslaAttack::kForgeTag:
      return "forge-tag";
    case TeslaAttack::kLateSample:
      return "late-sample";
    case TeslaAttack::kForgeDisclosure:
      return "forge-disclosure";
  }
  return "unknown";
}

class TeslaWorkload final : public Workload {
 public:
  explicit TeslaWorkload(const Options& options)
      : options_(options), frame_(alid::geo::GeoPoint{40.0, -88.0}) {}

  void setup(SetupSplit& split) override;
  PhaseStats run(double seconds) override;
  void finish(std::vector<std::string>& lines) override;

 private:
  struct FlightTotals {
    double step_s = 0.0;
    std::uint64_t updates = 0;
    std::uint64_t samples = 0;
  };
  void fly_one(PhaseStats& stats, FlightTotals& totals);

  Options options_;
  alid::geo::LocalFrame frame_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<alid::crypto::DeterministicRandom> owner_rng_;
  std::unique_ptr<alid::core::ZoneOwner> owner_;
  std::vector<alid::geo::Circle> local_zones_;
  std::vector<Drone> drones_;

  std::uint64_t next_flight_ = 0;
  std::uint64_t forged_tags_ = 0;
  std::uint64_t late_samples_ = 0;
  std::uint64_t forged_disclosures_ = 0;
  std::ostringstream fingerprint_;
  std::string fingerprint_root_;
};

void TeslaWorkload::setup(SetupSplit& split) {
  const std::string socket =
      options_.workdir + "/tesla-" + std::to_string(::getpid()) + ".sock";
  {
    SetupTimer t(split.keygen_s);
    deployment_ = std::make_unique<Deployment>(socket, options_.seed);
    owner_rng_ = std::make_unique<alid::crypto::DeterministicRandom>(
        seed_tag(options_.seed, "owner"));
    owner_ = std::make_unique<alid::core::ZoneOwner>(kKeyBits, *owner_rng_);
    for (std::size_t i = 0; i < kDrones; ++i) {
      drones_.push_back(make_drone(options_.seed, "tesla", i));
    }
  }
  {
    SetupTimer t(split.server_s);
    deployment_->start();
    client_ = std::make_unique<Client>(*deployment_, 1);
  }
  {
    SetupTimer t(split.register_s);
    // Zones 400 m off the corridor: every honest flight is compliant.
    for (const double x : {100.0, 200.0, 300.0}) {
      const alid::geo::Vec2 center{x, 400.0};
      gate(!owner_->register_zone(client_->transport,
                                  {frame_.to_geo(center), 30.0}, "tesla zone")
                .empty(),
           "zone registration refused");
      local_zones_.push_back({center, 30.0});
    }
    for (Drone& d : drones_) {
      gate(d.client->register_with_auditor(client_->transport),
           "drone registration refused");
    }
  }
  fingerprint_ << "tesla-broadcast seed=" << options_.seed << "\n";
}

void TeslaWorkload::fly_one(PhaseStats& stats, FlightTotals& totals) {
  ScopedSpan flight_span("gen.flight", Layer::kGen);
  const std::uint64_t index = next_flight_++;
  Drone& drone = drones_[index % kDrones];
  const std::uint64_t mission = index / kDrones;
  const auto attack = static_cast<TeslaAttack>(index % 4);
  const std::string& drone_id = drone.client->id();

  alid::crypto::DeterministicRandom rng(seed_tag(options_.seed, "tesla", index));
  const double lateral = rng.uniform_double() * 40.0;
  const double take_off = kEpoch +
                          static_cast<double>(mission) * kMissionSpacingS +
                          static_cast<double>(index % kDrones) * 1.7;
  const alid::sim::Route route(
      frame_,
      {{alid::geo::Vec2{0.0, lateral}, kSpeedMps},
       {alid::geo::Vec2{kCorridorM, lateral}, kSpeedMps}},
      take_off);
  alid::gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = kUpdateRateHz;
  rc.start_time = take_off;
  rc.seed = options_.seed ^ (index * 0x9E3779B97F4A7C15ULL);
  alid::gps::GpsReceiverSim receiver(rc, route.as_position_source());
  alid::core::FixedRateSampler policy(kUpdateRateHz, take_off);
  alid::core::TeslaFlightConfig config;
  config.end_time = route.end_time();
  config.session_nonce = mission + 1;
  config.disclosure_delay = 2;
  config.interval_s = 1.0;
  config.local_zones = local_zones_;
  config.frame = frame_;
  alid::core::FlightActor actor(*drone.tee, receiver, policy, drone_id, config);

  std::optional<alid::tee::TeslaCommit> commit;
  std::uint64_t disclosed_index = 0;
  alid::crypto::ChainKey disclosed_key{};
  std::size_t injected = 0;
  bool first_step = true;

  const auto send = [&](const std::string& endpoint,
                        const alid::crypto::Bytes& frame)
      -> std::optional<alid::crypto::Bytes> {
    ++stats.attempted;
    try {
      const Stopwatch watch;
      alid::crypto::Bytes reply = client_->transport.request(endpoint, frame);
      stats.lat_us.push_back(watch.micros());  // broadcast -> ack
      return reply;
    } catch (const alid::net::TimeoutError&) {
      ++stats.failed;
      return std::nullopt;
    }
  };

  while (!actor.done()) {
    const std::uint64_t sent_before = actor.tesla().samples_sent;
    const Stopwatch step_watch;
    {
      // The first step signs the chain commitment: the flight's RSA.
      ScopedSpan span("FlightActor::step", Layer::kDrone, 0, 0,
                      first_step ? "rsa" : nullptr);
      actor.step();
    }
    first_step = false;
    const double step_us = step_watch.micros();
    totals.step_s += step_us / 1e6;
    if (actor.tesla().samples_sent > sent_before) {
      stats.lat2_us.push_back(step_us);  // GPS tick -> tagged sample
    }

    auto& outbox = actor.outbox();
    while (!outbox.empty()) {
      alid::core::ActorSend item = std::move(outbox.front());
      outbox.pop_front();
      const bool broadcast = item.endpoint.ends_with(".tesla_sample") ||
                             item.endpoint.ends_with(".tesla_disclose");
      if (!commit && item.endpoint.ends_with(".tesla_announce")) {
        if (const auto announce =
                alid::core::TeslaAnnounceRequest::decode(item.frame)) {
          commit = alid::tee::parse_tesla_commit(announce->commit_payload);
        }
      }
      std::optional<alid::crypto::Bytes> reply;
      if (broadcast) {
        reply = send(item.endpoint, item.frame);
      } else {
        try {
          reply = client_->transport.request(item.endpoint, item.frame);
        } catch (const alid::net::TimeoutError&) {
        }
      }
      if (item.endpoint.ends_with(".tesla_disclose") && reply) {
        const auto ack = alid::core::TeslaAck::decode(*reply);
        const auto request = alid::core::TeslaDiscloseRequest::decode(item.frame);
        if (ack && ack->accepted && request) {
          disclosed_index = request->index;  // overheard on the channel
          std::copy(request->key.begin(), request->key.end(),
                    disclosed_key.begin());
        }
      }
      if (item.on_reply) item.on_reply(reply ? &*reply : nullptr);
    }

    // Attack flights inject one forgery at each of a few disclosure marks.
    if (attack == TeslaAttack::kHonest || !commit ||
        injected >= std::size(kInjectAt) ||
        disclosed_index < kInjectAt[injected] ||
        disclosed_index + 4 > commit->chain_length) {
      continue;
    }
    ++injected;
    alid::gps::GpsFix fake;
    fake.position = frame_.to_geo({kCorridorM / 2, 2000.0});
    fake.speed_mps = kSpeedMps;
    if (attack == TeslaAttack::kForgeTag) {
      // A not-yet-disclosed interval: buffered now, "tag invalid" once
      // the honest key for it is disclosed.
      const auto forged = alid::core::attacks::tesla_forge_tag(
          drone_id, config.session_nonce, disclosed_index + 3, *commit, fake,
          rng);
      const auto reply = send("auditor.tesla_sample",
                              forged.encode());
      const auto ack = reply ? alid::core::TeslaAck::decode(*reply)
                             : std::nullopt;
      gate(ack && ack->accepted, "forged tag was not buffered for settlement");
      ++forged_tags_;
    } else if (attack == TeslaAttack::kLateSample) {
      const auto late = alid::core::attacks::tesla_late_sample(
          drone_id, config.session_nonce, disclosed_key, disclosed_index,
          disclosed_index, *commit, fake);
      const auto reply = send("auditor.tesla_sample", late.encode());
      const auto ack = reply ? alid::core::TeslaAck::decode(*reply)
                             : std::nullopt;
      gate(ack && !ack->accepted && ack->detail.starts_with("late"),
           "late TESLA sample was not rejected as late");
      ++late_samples_;
    } else {
      const auto forged = alid::core::attacks::tesla_forge_disclosure(
          drone_id, config.session_nonce, disclosed_index + 1, rng);
      const auto reply = send("auditor.tesla_disclose", forged.encode());
      const auto ack = reply ? alid::core::TeslaAck::decode(*reply)
                             : std::nullopt;
      gate(ack && !ack->accepted,
           "forged TESLA disclosure was not rejected");
      ++forged_disclosures_;
    }
  }

  const alid::core::TeslaFlightResult& result = actor.tesla();
  totals.updates += result.gps_updates;
  totals.samples += result.samples_sent;
  ++stats.attempted;
  const bool verdict_ok = result.finalized && result.verdict.accepted &&
                          result.verdict.compliant;
  if (!result.finalized) {
    ++stats.failed;
  } else {
    ++stats.ops;
  }
  gate(!result.finalized || verdict_ok,
       "tesla flight " + std::to_string(index) + " (" +
           tesla_attack_name(attack) + ") verdict: " + result.verdict.detail);
  gate(result.samples_rejected == 0 && result.tee_failures == 0,
       "tesla flight " + std::to_string(index) +
           " had honest samples rejected or TEE failures");
  if (attack != TeslaAttack::kHonest) {
    gate(injected == std::size(kInjectAt),
         "tesla flight " + std::to_string(index) + " injected " +
             std::to_string(injected) + " forgeries");
  }
  if (index < kFingerprintFlights) {
    fingerprint_ << drone_id << " " << tesla_attack_name(attack)
                 << " finalized=" << result.finalized
                 << " accepted=" << result.verdict.accepted
                 << " compliant=" << result.verdict.compliant
                 << " samples=" << result.samples_sent
                 << " disclosures=" << result.disclosures_sent << "\n";
    if (index + 1 == kFingerprintFlights) {
      fingerprint_root_ =
          alid::crypto::to_hex(deployment_->ledger().root_hash());
    }
  }
}

PhaseStats TeslaWorkload::run(double seconds) {
  PhaseStats stats;
  const DeploymentCounters before = read_counters(*deployment_, *client_);
  std::uint64_t switches0 = 0;
  for (Drone& d : drones_) switches0 += d.tee->monitor().world_switches();
  FlightTotals totals;
  while (stats.clock.seconds() < seconds) fly_one(stats, totals);
  stats.wall_s = stats.clock.seconds();

  add_deployment_layers(before, read_counters(*deployment_, *client_), stats);
  std::uint64_t switches = 0;
  for (Drone& d : drones_) switches += d.tee->monitor().world_switches();
  stats.layer["drone.busy_frac"] = totals.step_s / stats.wall_s;
  stats.layer["drone.samples_per_update"] =
      totals.updates > 0 ? static_cast<double>(totals.samples) /
                               static_cast<double>(totals.updates)
                         : 0.0;
  stats.layer["drone.world_switches_per_sample"] =
      totals.samples > 0 ? static_cast<double>(switches - switches0) /
                               static_cast<double>(totals.samples)
                         : 0.0;
  return stats;
}

void TeslaWorkload::finish(std::vector<std::string>& lines) {
  // Every forged tag and late sample lands on the audit trail as a
  // rejected TESLA sample with its reason; honest samples never do.
  std::uint64_t tag_invalid = 0;
  std::uint64_t late = 0;
  std::uint64_t other = 0;
  for (const auto& event : deployment_->audit_log().by_type(
           alid::core::AuditEventType::kTeslaSampleRejected)) {
    if (event.detail.find("tag invalid") != std::string::npos) {
      ++tag_invalid;
    } else if (event.detail.find("late") != std::string::npos) {
      ++late;
    } else {
      ++other;
    }
  }
  gate(tag_invalid == forged_tags_,
       "forged tags " + std::to_string(forged_tags_) + " but " +
           std::to_string(tag_invalid) + " 'tag invalid' rejections");
  gate(late == late_samples_, "late samples " + std::to_string(late_samples_) +
                                  " but " + std::to_string(late) +
                                  " late rejections");
  gate(other == 0, std::to_string(other) + " other TESLA sample rejections");
  gate(next_flight_ >= kFingerprintFlights,
       "run too short for the fingerprint (" + std::to_string(next_flight_) +
           " flights)");
  lines.push_back("fingerprint tesla-broadcast seed=" +
                  std::to_string(options_.seed) +
                  " flights=" + std::to_string(kFingerprintFlights) +
                  " verdicts=" + digest_hex(fingerprint_.str()) +
                  " ledger_root=" + fingerprint_root_);
  lines.push_back("tesla flights=" + std::to_string(next_flight_) +
                  " forged_tags=" + std::to_string(forged_tags_) +
                  " late_samples=" + std::to_string(late_samples_) +
                  " forged_disclosures=" + std::to_string(forged_disclosures_));
}

}  // namespace

std::unique_ptr<Workload> make_tesla_broadcast(const Options& options) {
  return std::make_unique<TeslaWorkload>(options);
}

}  // namespace perfbench
