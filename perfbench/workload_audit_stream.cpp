// audit-stream — an open-loop stream of distinct PoAs at one offered rate.
//
// Seeded Poisson arrivals over at most nproc connections and generator
// threads; every latency is timed from when its request was due. The
// corpus is flown in setup over the residential scenario's dense field of
// 94 house zones, so the timed phase holds no drone work at all:
//   - windows of long RSA-per-sample flights, in short and long lengths,
//     and short windows of RSA-encrypted (Section V-C) and HMAC-session
//     flights (HMAC session keys are always wrapped for the Auditor, so
//     HMAC samples are encrypted too);
//   - short batch-signature flights (one signature covers the trace);
//   - the campaign's attack classes;
//   - a share of byte-identical resubmissions of earlier requests (retry
//     storms), which must get the first reply back byte for byte.
// Why: the Auditor (decode, decrypt, verify, eq. (1) sufficiency, serial
// commit) does almost all the work. Cheap-to-sign modes and decryption
// give it that work while keeping setup bounded; a corpus of RSA-per-
// sample proofs alone would cost ~10x its verification time to sign.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "core/drone_client.h"
#include "core/messages.h"
#include "core/sampler.h"
#include "core/zone_owner.h"
#include "geo/units.h"
#include "gps/receiver_sim.h"
#include "net/transport.h"
#include "open_loop.h"
#include "sim/scenarios.h"
#include "stats.h"
#include "tee/secure_monitor.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace alid = alidrone;

constexpr std::size_t kDrones = 4;
constexpr double kUpdateRateHz = 5.0;
/// Offered load, well below the single-verifier saturation point of the
/// default ingest config on the reference host.
constexpr double kRatePerS = 200.0;
/// Share of requests that resubmit an earlier request byte for byte.
constexpr double kResubmitShare = 0.10;
/// Virtual time between one drone's corpus flights.
constexpr double kFlightSpacingS = 400.0;

/// Shares of the distinct corpus, by kind (sum to 1).
enum class Kind {
  kRsa,
  kEncrypted,
  kHmac,
  kBatch,
  kChainForge,
  kReplay,
  kTamper,
  kDropWindow,
  kNavDeviation,
  kThinningAbuse,
};
constexpr std::pair<Kind, double> kMix[] = {
    {Kind::kRsa, 0.40},          {Kind::kEncrypted, 0.10},
    {Kind::kHmac, 0.12},         {Kind::kBatch, 0.10},
    {Kind::kChainForge, 0.05},   {Kind::kReplay, 0.05},
    {Kind::kTamper, 0.05},       {Kind::kDropWindow, 0.05},
    {Kind::kNavDeviation, 0.04}, {Kind::kThinningAbuse, 0.04},
};

struct CorpusItem {
  alid::core::SubmitPoaRequest request;
  Attack attack = Attack::kHonest;
  const char* tag = "rsa";
  std::optional<alid::crypto::Bytes> first_reply;  ///< guarded by replies_mu_
};

/// A contiguous run of a flight's samples: itself a valid PoA (per-sample
/// signatures and tags are independent; the HMAC session key rides along).
alid::core::ProofOfAlibi window(const alid::core::ProofOfAlibi& poa,
                                std::size_t from, std::size_t len) {
  alid::core::ProofOfAlibi out = poa;
  out.samples.assign(poa.samples.begin() + static_cast<std::ptrdiff_t>(from),
                     poa.samples.begin() + static_cast<std::ptrdiff_t>(from + len));
  return out;
}

class AuditStreamWorkload final : public Workload {
 public:
  explicit AuditStreamWorkload(const Options& options)
      : options_(options),
        scenario_(alid::sim::make_residential_scenario(kEpoch)),
        local_zones_(scenario_.local_zones()) {}

  void setup(SetupSplit& split) override;
  PhaseStats run(double seconds) override;
  bool latency_headline() const override { return true; }
  void finish(std::vector<std::string>& lines) override;

 private:
  alid::core::ProofOfAlibi fly(Drone& drone, double start, double duration,
                               alid::core::AuthMode mode, bool encrypted,
                               bool spoof, std::uint64_t flight_seed);
  void build_corpus();
  bool send(std::size_t slot_item, bool resubmit, double& encode_us);

  Options options_;
  alid::sim::Scenario scenario_;
  std::vector<alid::geo::Circle> local_zones_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<Client> client_;
  std::size_t connections_ = 1;
  std::unique_ptr<alid::crypto::DeterministicRandom> owner_rng_;
  std::unique_ptr<alid::core::ZoneOwner> owner_;
  alid::crypto::RsaKeyPair attacker_key_;
  std::vector<Drone> drones_;

  std::vector<CorpusItem> corpus_;
  std::size_t next_fresh_ = 0;
  std::vector<std::size_t> sent_items_;  ///< items already sent (resubmit pool)
  std::mutex replies_mu_;
  std::uint64_t phase_ = 0;
  std::uint64_t resubmissions_ = 0;
};

alid::core::ProofOfAlibi AuditStreamWorkload::fly(
    Drone& drone, double start, double duration, alid::core::AuthMode mode,
    bool encrypted, bool spoof, std::uint64_t flight_seed) {
  const alid::sim::Route route(scenario_.frame, scenario_.route.waypoints(),
                               start);
  alid::gps::PositionSource source = route.as_position_source();
  if (spoof) {
    // Drift from 10 s after take-off onto a house on the dense street;
    // the TEE honestly signs the spoofed path, parked inside the zone.
    source = alid::core::attacks::spoofed_drift_source(
        std::move(source), scenario_.frame, local_zones_[60].center,
        start + 10.0, 15.0);
  }
  alid::gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = kUpdateRateHz;
  rc.start_time = start;
  rc.seed = flight_seed;
  alid::gps::GpsReceiverSim receiver(rc, std::move(source));
  alid::core::AdaptiveSampler policy(scenario_.frame, local_zones_,
                                     alid::geo::kFaaMaxSpeedMps, kUpdateRateHz);
  alid::crypto::DeterministicRandom padding_rng(flight_seed);
  alid::core::FlightConfig fc;
  fc.end_time = std::min(route.end_time(), start + duration);
  fc.auth_mode = mode;
  if (encrypted) {
    fc.auditor_encryption_key = deployment_->auditor().encryption_key();
    fc.encryption_rng = &padding_rng;
  }
  fc.frame = scenario_.frame;
  fc.local_zones = local_zones_;
  return drone.client->fly(receiver, policy, fc);
}

void AuditStreamWorkload::setup(SetupSplit& split) {
  const std::string socket =
      options_.workdir + "/audit-" + std::to_string(::getpid()) + ".sock";
  {
    SetupTimer t(split.keygen_s);
    deployment_ = std::make_unique<Deployment>(socket, options_.seed);
    owner_rng_ = std::make_unique<alid::crypto::DeterministicRandom>(
        seed_tag(options_.seed, "owner"));
    owner_ = std::make_unique<alid::core::ZoneOwner>(kKeyBits, *owner_rng_);
    alid::crypto::DeterministicRandom attacker_rng(
        seed_tag(options_.seed, "attacker"));
    attacker_key_ = alid::crypto::generate_rsa_keypair(kKeyBits, attacker_rng);
    for (std::size_t i = 0; i < kDrones; ++i) {
      drones_.push_back(make_drone(options_.seed, "stream", i));
    }
  }
  {
    SetupTimer t(split.server_s);
    deployment_->start();
    connections_ = max_load_threads(4);
    client_ = std::make_unique<Client>(*deployment_, connections_);
  }
  {
    SetupTimer t(split.register_s);
    for (const alid::geo::GeoZone& zone : scenario_.zones) {
      gate(!owner_->register_zone(client_->transport, zone, "house").empty(),
           "zone registration refused");
    }
    for (Drone& d : drones_) {
      gate(d.client->register_with_auditor(client_->transport),
           "drone registration refused");
    }
  }
  {
    SetupTimer t(split.corpus_s);
    build_corpus();
  }
}

void AuditStreamWorkload::build_corpus() {
  using alid::core::AuthMode;
  // Enough distinct proofs for every request of the run (warm-up
  // included) to be fresh unless it is a deliberate resubmission.
  const std::size_t wanted = static_cast<std::size_t>(
      std::ceil(kRatePerS * (options_.seconds + 1.0) * 1.1));
  std::vector<std::size_t> need;
  for (const auto& [kind, share] : kMix) {
    need.push_back(static_cast<std::size_t>(
        std::ceil(share * static_cast<double>(wanted))));
  }
  const auto needed = [&](Kind k) { return need[static_cast<std::size_t>(k)]; };

  alid::crypto::DeterministicRandom rng(seed_tag(options_.seed, "corpus"));
  const auto pick = [&](std::size_t lo, std::size_t hi) {  // [lo, hi]
    return lo + static_cast<std::size_t>(rng.uniform(hi - lo + 1));
  };
  const double full = scenario_.route.duration();
  const std::size_t batch_per_drone = (needed(Kind::kBatch) + kDrones - 1) / kDrones;

  std::vector<alid::core::ProofOfAlibi> rsa, enc, hmac, nav;
  for (std::size_t d = 0; d < kDrones; ++d) {
    const double base = kEpoch + static_cast<double>(d) * 1e5;
    const std::uint64_t fs = options_.seed * 1000 + d * 100;
    rsa.push_back(fly(drones_[d], base, full, AuthMode::kRsaPerSample, false,
                      false, fs + 1));
    enc.push_back(fly(drones_[d], base + kFlightSpacingS, full,
                      AuthMode::kRsaPerSample, true, false, fs + 2));
    hmac.push_back(fly(drones_[d], base + 2 * kFlightSpacingS, full,
                       AuthMode::kHmacSession, true, false, fs + 3));
    nav.push_back(fly(drones_[d], base + 3 * kFlightSpacingS, full,
                      AuthMode::kRsaPerSample, false, true, fs + 4));
    for (std::size_t b = 0; b < batch_per_drone; ++b) {
      const double duration = 10.0 + rng.uniform_double() * 30.0;
      alid::core::ProofOfAlibi poa = fly(
          drones_[d], base + static_cast<double>(4 + b) * kFlightSpacingS,
          duration, AuthMode::kBatchSignature, false, false, fs + 10 + b);
      if (corpus_.size() < needed(Kind::kBatch) && !poa.samples.empty()) {
        corpus_.push_back({alid::core::SubmitPoaRequest{poa.serialize()},
                           Attack::kHonest, "batchsig", std::nullopt});
      }
    }
  }

  // Distinct windows: (flight, start, length) triples never repeat.
  std::set<std::tuple<const void*, std::size_t, std::size_t>> used;
  const auto take_window = [&](const alid::core::ProofOfAlibi& poa,
                               std::size_t min_len, std::size_t max_len) {
    const std::size_t n = poa.samples.size();
    max_len = std::min(max_len, n);
    min_len = std::min(min_len, max_len);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t len = pick(min_len, max_len);
      const std::size_t from = pick(0, n - len);
      if (used.emplace(&poa, from, len).second) return window(poa, from, len);
    }
    return poa;
  };
  // Short (10-25 samples) and long (30-60 samples) traces, alternating.
  std::uint64_t alternate = 0;
  const auto any_window = [&](const alid::core::ProofOfAlibi& poa) {
    return ++alternate % 2 == 0 ? take_window(poa, 10, 25)
                                : take_window(poa, 30, 60);
  };
  const auto add = [&](const alid::core::ProofOfAlibi& poa, Attack attack,
                       const char* tag) {
    corpus_.push_back({alid::core::SubmitPoaRequest{poa.serialize()}, attack,
                       tag, std::nullopt});
  };
  const auto flight_of = [&](std::vector<alid::core::ProofOfAlibi>& v,
                             std::size_t i) -> alid::core::ProofOfAlibi& {
    return v[i % v.size()];
  };

  for (std::size_t i = 0; i < needed(Kind::kRsa); ++i) {
    add(any_window(flight_of(rsa, i)), Attack::kHonest, "rsa");
  }
  // Decryption costs the Auditor ~50x a signature check per sample, so
  // encrypted traces stay short: their cost then matches a long RSA
  // window instead of forming a far tail of their own.
  for (std::size_t i = 0; i < needed(Kind::kEncrypted); ++i) {
    add(take_window(flight_of(enc, i), 3, 8), Attack::kHonest, "encrypted");
  }
  for (std::size_t i = 0; i < needed(Kind::kHmac); ++i) {
    add(take_window(flight_of(hmac, i), 3, 8), Attack::kHonest, "hmac");
  }
  for (std::size_t i = 0; i < needed(Kind::kChainForge); ++i) {
    // A fabricated short trace 5 km from every house, signed under the
    // attacker's own key, spanning a real window's time range.
    const alid::core::ProofOfAlibi real = take_window(flight_of(rsa, i), 15, 30);
    const double t0 = real.start_time().value_or(kEpoch);
    const double t1 = real.end_time().value_or(kEpoch + 10.0);
    add(forge_with_key(real.drone_id,
                       fake_route_fixes(scenario_.frame, t0, t1, 2.0),
                       attacker_key_.priv),
        Attack::kChainForge, "rsa");
  }
  for (std::size_t i = 0; i < needed(Kind::kReplay); ++i) {
    const alid::core::ProofOfAlibi donor = any_window(flight_of(rsa, i));
    const alid::core::DroneId& thief = drones_[(i + 1) % kDrones].client->id();
    add(alid::core::attacks::relay(donor, thief), Attack::kReplay, "rsa");
  }
  for (std::size_t i = 0; i < needed(Kind::kTamper); ++i) {
    const alid::core::ProofOfAlibi poa = any_window(flight_of(rsa, i));
    add(alid::core::attacks::tamper_position(
            poa, poa.samples.size() / 2,
            scenario_.zones[i % scenario_.zones.size()].center),
        Attack::kTamper, "rsa");
  }
  for (std::size_t i = 0; i < needed(Kind::kDropWindow); ++i) {
    const alid::core::ProofOfAlibi poa = take_window(flight_of(rsa, i), 30, 60);
    const std::size_t n = poa.samples.size();
    add(alid::core::attacks::drop_samples(poa, n / 3, 2 * n / 3),
        Attack::kDropWindow, "rsa");
  }
  for (std::size_t i = 0; i < needed(Kind::kThinningAbuse); ++i) {
    add(alid::core::attacks::thinning_abuse(
            take_window(flight_of(rsa, i), 30, 60), 2),
        Attack::kThinningAbuse, "rsa");
  }
  for (std::size_t i = 0; i < needed(Kind::kNavDeviation); ++i) {
    // Windows of the spoofed flight's second half, where the drone reads
    // as parked inside the house zone.
    const alid::core::ProofOfAlibi& poa = flight_of(nav, i);
    const std::size_t half = poa.samples.size() / 2;
    alid::core::ProofOfAlibi tail = window(poa, half, poa.samples.size() - half);
    const std::size_t len = std::min<std::size_t>(pick(20, 60), tail.samples.size());
    const std::size_t from = pick(0, tail.samples.size() - len);
    add(window(tail, from, len), Attack::kNavDeviation, "rsa");
  }

  // Deterministic shuffle (Fisher-Yates on the seeded stream).
  for (std::size_t i = corpus_.size(); i > 1; --i) {
    std::swap(corpus_[i - 1], corpus_[rng.uniform(i)]);
  }
}

bool AuditStreamWorkload::send(std::size_t item_index, bool resubmit,
                               double& encode_us) {
  ScopedSpan root("gen.send", Layer::kGen);
  CorpusItem& item = corpus_[item_index];
  set_request_tag(item.tag);
  alid::crypto::Bytes frame;
  {
    ScopedSpan span("SubmitPoaRequest::encode", Layer::kWire);
    const Stopwatch watch;
    frame = item.request.encode();
    encode_us = watch.micros();
  }
  alid::crypto::Bytes reply;
  try {
    reply = client_->transport.request("auditor.submit_poa", frame);
  } catch (const std::exception&) {
    return false;  // timeout / reset: failed, never timed
  }
  if (alid::net::is_retry_later(reply)) return false;  // refused
  const auto verdict = alid::core::PoaVerdict::decode(reply);
  if (!verdict) return false;
  gate(verdict_matches(item.attack, *verdict),
       std::string("audit-stream ") + attack_name(item.attack) + "/" +
           item.tag + " got accepted=" + std::to_string(verdict->accepted) +
           " compliant=" + std::to_string(verdict->compliant) +
           " violations=" + std::to_string(verdict->violation_count) +
           " detail=" + verdict->detail);
  std::lock_guard<std::mutex> lock(replies_mu_);
  if (!item.first_reply) {
    item.first_reply = reply;
  } else {
    gate(*item.first_reply == reply,
         std::string("resubmission reply differs (") + attack_name(item.attack) +
             (resubmit ? ", resubmit)" : ")"));
  }
  return true;
}

PhaseStats AuditStreamWorkload::run(double seconds) {
  // This phase's schedule: Poisson due times, each a fresh corpus item
  // or (kResubmitShare) a byte-identical resend of an earlier one.
  const std::vector<double> due = poisson_schedule(
      kRatePerS, seconds,
      std::hash<std::string>{}(seed_tag(options_.seed, "arrivals", phase_)));
  alid::crypto::DeterministicRandom rng(
      seed_tag(options_.seed, "resubmit", phase_));
  ++phase_;
  std::vector<std::pair<std::size_t, bool>> plan;
  plan.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const bool resubmit = !sent_items_.empty() &&
                          rng.uniform_double() < kResubmitShare;
    std::size_t item = 0;
    if (resubmit) {
      item = sent_items_[rng.uniform(sent_items_.size())];
      ++resubmissions_;
    } else {
      item = next_fresh_++ % corpus_.size();
      sent_items_.push_back(item);
    }
    plan.emplace_back(item, resubmit);
  }
  gate(next_fresh_ <= corpus_.size(), "audit-stream corpus exhausted");

  PhaseStats stats;
  const DeploymentCounters before = read_counters(*deployment_, *client_);
  std::vector<double> encode_us(plan.size(), 0.0);
  const OpenLoopResult r = run_open_loop(due, connections_, [&](std::size_t i) {
    return send(plan[i].first, plan[i].second, encode_us[i]);
  });
  stats.wall_s = r.wall_s;
  stats.ops = r.completed;
  stats.attempted = due.size();
  stats.failed = r.failed;
  stats.lat_us = r.latency_us;
  stats.lat2_us = r.service_us;
  add_deployment_layers(before, read_counters(*deployment_, *client_), stats);
  stats.layer["gen.lag_p99_ms"] = summarize(r.lag_us).tail / 1e3;
  return stats;
}

void AuditStreamWorkload::finish(std::vector<std::string>& lines) {
  lines.push_back("audit-stream corpus=" + std::to_string(corpus_.size()) +
                  " sent_fresh=" + std::to_string(next_fresh_) +
                  " resubmissions=" + std::to_string(resubmissions_) +
                  " rate_per_s=" + std::to_string(kRatePerS) +
                  " connections=" + std::to_string(connections_));
}

}  // namespace

std::unique_ptr<Workload> make_audit_stream(const Options& options) {
  return std::make_unique<AuditStreamWorkload>(options);
}

}  // namespace perfbench
