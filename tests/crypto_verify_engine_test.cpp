// Differential suite for the fixed-capacity 64-bit bignum core: the
// limb64 Montgomery kernels are checked limb-for-limb against the general
// BigInt path at 1024/2048/4096 bits, and the allocation-free
// RsaVerifyEngine against rsa_verify, alone and shared across threads.
// End to end, the Auditor's per-sample RSA check reports the lowest
// failing sample index for forged and for truncated signatures.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/auditor.h"
#include "core/drone_client.h"
#include "geo/units.h"
#include "crypto/montgomery.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "net/message_bus.h"
#include "sim/scenarios.h"

namespace alidrone::crypto {
namespace {

using Limb = limb64::Limb;

BigInt odd_modulus(DeterministicRandom& rng, std::size_t bits) {
  BigInt m = (BigInt(1) << (bits - 1)) + rng.random_bits(bits - 1);
  if (!m.is_odd()) m = m + BigInt(1);  // even => +1 cannot carry past a bit
  return m;
}

// ---- limb64 Montgomery kernels vs BigInt ----

TEST(VerifyEngine, DifferentialMontgomeryKernels) {
  DeterministicRandom rng("smallint-mont");
  for (const std::size_t bits : {1024u, 2048u, 4096u}) {
    const BigInt m = odd_modulus(rng, bits);
    const MontgomeryContext ctx(m);
    const limb64::Mont& mont = ctx.mont();
    const std::size_t k = ctx.limb_count();
    std::vector<Limb> a_hat(k), b_hat(k), out(k), t(k + 2);

    for (int iter = 0; iter < 10; ++iter) {
      const BigInt a = rng.random_range(BigInt(0), m - BigInt(1));
      const BigInt b = rng.random_range(BigInt(0), m - BigInt(1));

      // mont_mul over raw limbs: from_mont(a-hat * b-hat) == a*b mod m.
      ctx.to_mont(a).to_limbs64(a_hat.data(), k);
      ctx.to_mont(b).to_limbs64(b_hat.data(), k);
      limb64::mont_mul(mont, a_hat.data(), b_hat.data(), out.data(), t.data());
      limb64::redc(mont, out.data(), out.data(), t.data());
      EXPECT_EQ(BigInt::from_limbs64(out.data(), k), (a * b).mod(m)) << bits;

      // redc inverts to_mont exactly.
      limb64::redc(mont, a_hat.data(), out.data(), t.data());
      EXPECT_EQ(BigInt::from_limbs64(out.data(), k), a) << bits;
    }

    // modexp: windowed (wide exponent) and square-multiply (<= 64 bits)
    // paths against BigInt::mod_pow.
    const BigInt base = rng.random_range(BigInt(0), m - BigInt(1));
    for (const std::size_t ebits : {40u, 256u}) {
      const BigInt e = rng.random_bits(ebits);
      EXPECT_EQ(ctx.pow(base, e), base.mod_pow(e, m)) << bits << ":" << ebits;
    }
  }
}

// ---- RsaVerifyEngine vs rsa_verify ----

TEST(VerifyEngine, VerifyEngineMatchesRsaVerify) {
  DeterministicRandom rng("engine-vs-serial");
  const RsaKeyPair key = generate_rsa_keypair(1024, rng);
  ASSERT_TRUE(RsaVerifyEngine::supports(key.pub));
  RsaVerifyEngine engine(key.pub);

  const Bytes msg = {'p', 'o', 'a', '-', 's', 'a', 'm', 'p', 'l', 'e'};
  Bytes sig = rsa_sign(key.priv, msg, HashAlgorithm::kSha256);

  const auto both = [&](std::span<const std::uint8_t> m,
                        std::span<const std::uint8_t> s) {
    const bool serial = rsa_verify(key.pub, m, s, HashAlgorithm::kSha256);
    EXPECT_EQ(engine.verify(m, s, HashAlgorithm::kSha256), serial);
    return serial;
  };

  EXPECT_TRUE(both(msg, sig));
  Bytes bad = sig;
  bad[7] ^= 0x40;
  EXPECT_FALSE(both(msg, bad));           // corrupted signature
  Bytes other = msg;
  other[0] ^= 0x01;
  EXPECT_FALSE(both(other, sig));         // corrupted message
  EXPECT_FALSE(both(msg, Bytes(sig.begin(), sig.end() - 1)));  // wrong length
  EXPECT_FALSE(both(msg, key.pub.n.to_bytes(sig.size())));     // s == n >= n
}

// ---- Engines shared across threads ----

struct SignedMsg {
  Bytes msg;
  Bytes sig;
};

std::vector<SignedMsg> make_signed(const RsaKeyPair& key, std::size_t count) {
  std::vector<SignedMsg> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].msg = {static_cast<std::uint8_t>(i), 0x55, 0xaa,
                  static_cast<std::uint8_t>(i * 7)};
    out[i].sig = rsa_sign(key.priv, out[i].msg, HashAlgorithm::kSha256);
  }
  return out;
}

// Shared immutable Montgomery state: many engines on one cached context,
// verifying concurrently. Run under the tsan label.
TEST(VerifyEngine, ConcurrentEnginesShareContextSafely) {
  DeterministicRandom rng("batch-threads");
  const RsaKeyPair key = generate_rsa_keypair(512, rng);
  const auto items = make_signed(key, 4);

  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      RsaVerifyEngine engine(key.pub);
      for (int round = 0; round < 8; ++round) {
        for (const auto& it : items) {
          ASSERT_TRUE(engine.verify(it.msg, it.sig, HashAlgorithm::kSha256));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace alidrone::crypto

// ---- End to end: the Auditor reports the lowest bad sample ----

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
constexpr std::size_t kTestKeyBits = 512;

// One RSA verify per sample, in sample order, on default ProtocolParams:
// the verdict names the lowest failing index whether that signature is
// forged (well-formed, wrong value) or truncated (rejected before any
// exponentiation), and a second bad signature further on never masks it.
TEST(AuditorSampleVerify, RejectsAtLowestInvalidSignature) {
  crypto::DeterministicRandom auditor_rng("verify-engine-auditor");
  crypto::DeterministicRandom operator_rng("verify-engine-operator");
  Auditor auditor(kTestKeyBits, auditor_rng);
  net::MessageBus bus;
  auditor.bind(bus);
  tee::DroneTee::Config tee_config;
  tee_config.key_bits = kTestKeyBits;
  tee_config.manufacturing_seed = "verify-engine-device";
  tee::DroneTee tee(tee_config);
  DroneClient client(tee, kTestKeyBits, operator_rng);
  ASSERT_TRUE(client.register_with_auditor(bus));

  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = scenario.route.start_time();
  gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());
  AdaptiveSampler policy(scenario.frame, scenario.local_zones(),
                         geo::kFaaMaxSpeedMps, 5.0);
  FlightConfig config;
  config.end_time =
      scenario.route.start_time() + std::min(60.0, scenario.route.duration());
  config.frame = scenario.frame;
  config.local_zones = scenario.local_zones();
  config.auth_mode = AuthMode::kRsaPerSample;
  const ProofOfAlibi honest = client.fly(receiver, policy, config);
  ASSERT_GT(honest.samples.size(), 4u);
  const PoaVerdict ok = auditor.verify_poa(honest, kT0 + 500);
  ASSERT_TRUE(ok.accepted) << ok.detail;

  const std::size_t a = 1;
  const std::size_t b = 3;
  ProofOfAlibi forged = honest;
  forged.samples[a].signature = honest.samples[0].signature;
  forged.samples[b].signature = honest.samples[2].signature;
  const PoaVerdict fv = auditor.verify_poa(forged, kT0 + 501);
  EXPECT_FALSE(fv.accepted);
  EXPECT_EQ(fv.detail, "sample 1 signature invalid");

  ProofOfAlibi truncated = forged;
  truncated.samples[a].signature.pop_back();
  const PoaVerdict tv = auditor.verify_poa(truncated, kT0 + 502);
  EXPECT_FALSE(tv.accepted);
  EXPECT_EQ(tv.detail, "sample 1 signature invalid");
}

}  // namespace
}  // namespace alidrone::core
