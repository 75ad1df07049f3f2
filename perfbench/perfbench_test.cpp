// Tests of the benchmark's own machinery: the percentile helper, the
// open-loop generator's due-time accounting, and the transport
// decorators' byte-for-byte pass-through.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "net/transport/client.h"
#include "net/transport/server.h"
#include "open_loop.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace alid = alidrone;

// ---- Percentile helper --------------------------------------------------

TEST(Percentiles, TailKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(500), 98.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100000), 99.0);  // capped at p99
  for (const std::size_t n : {20u, 37u, 100u, 333u, 999u, 1000u, 4321u}) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    const Summary s = summarize(v);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; }));
    EXPECT_GE(beyond, kTailSamples) << "n=" << n;
    EXPECT_EQ(s.count, n);
  }
}

TEST(Percentiles, SummaryOfKnownSamples) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // summarize sorts its copy
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
}

TEST(Percentiles, UnionLengthMergesOverlaps) {
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {5, 15}, {20, 30}}), 25.0);
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_EQ(max_overlap({{0, 10}, {5, 15}, {9, 30}, {15, 16}}), 3u);
}

// ---- A server behind the tap, a client behind the tracer ---------------

class Wire : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string path =
        "perfbench-test-" + std::to_string(::getpid()) + ".sock";
    address_ = "uds:" + path;
    alid::net::transport::TransportServer::Config config;
    config.listen = {address_};
    server_ = std::make_unique<alid::net::transport::TransportServer>(config);
    tap_ = std::make_unique<ServerTap>(*server_, correlator_);
  }
  void TearDown() override {
    client_.reset();
    tracer_client_.reset();
    server_->stop();
    ::unlink(address_.substr(4).c_str());
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
  void start() {
    server_->start();
    alid::net::transport::TransportClient::Config config;
    config.address = address_;
    client_ = std::make_unique<alid::net::transport::TransportClient>(config);
    tracer_client_ = std::make_unique<TracedTransport>(*client_, correlator_);
  }

  std::string address_;
  Correlator correlator_;
  std::unique_ptr<alid::net::transport::TransportServer> server_;
  std::unique_ptr<ServerTap> tap_;
  std::unique_ptr<alid::net::transport::TransportClient> client_;
  std::unique_ptr<TracedTransport> tracer_client_;
};

alid::crypto::Bytes transform(const alid::crypto::Bytes& in) {
  alid::crypto::Bytes out(in.rbegin(), in.rend());
  out.push_back(0x00);
  out.push_back(0xB5);
  return out;
}

TEST_F(Wire, DecoratorsPassBytesThroughUnchanged) {
  std::vector<alid::crypto::Bytes> seen;
  std::mutex seen_mu;
  tap_->register_endpoint("t.echo", [&](const alid::crypto::Bytes& payload) {
    std::lock_guard<std::mutex> lock(seen_mu);
    seen.push_back(payload);
    return transform(payload);
  });
  start();

  std::vector<alid::crypto::Bytes> payloads = {
      {}, {0x00}, {0xB5, 0x00, 0xFF}, alid::crypto::Bytes(70000, 0x5A)};
  for (std::size_t i = 0; i < 256; ++i) payloads[2].push_back(static_cast<std::uint8_t>(i));

  for (const bool tracing : {false, true}) {
    Tracer::global().set_enabled(tracing);
    for (const auto& payload : payloads) {
      EXPECT_EQ(tracer_client_->request("t.echo", payload), transform(payload));
      EXPECT_EQ(tracer_client_->request("t.echo", payload, 5.0), transform(payload));
    }
  }
  Tracer::global().set_enabled(false);
  ASSERT_EQ(seen.size(), payloads.size() * 4);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], payloads[(i / 2) % payloads.size()]);
  }
  EXPECT_EQ(tracer_client_->counters().requests, payloads.size() * 4);
  EXPECT_EQ(tracer_client_->counters().errors, 0u);

  // Traced requests: each server span is parented to, and shares its
  // request id with, the client span of the same request.
  const std::vector<Span> spans = Tracer::global().collect();
  std::size_t client_spans = 0;
  std::size_t paired = 0;
  for (const Span& s : spans) {
    if (s.layer == Layer::kWire) ++client_spans;
    if (s.layer != Layer::kAuditor) continue;
    const auto parent = std::find_if(spans.begin(), spans.end(),
                                     [&](const Span& c) { return c.id == s.parent; });
    ASSERT_NE(parent, spans.end());
    EXPECT_EQ(parent->request, s.request);
    EXPECT_LE(parent->start_ns, s.start_ns);
    EXPECT_GE(parent->end_ns, s.end_ns);
    ++paired;
  }
  EXPECT_EQ(client_spans, payloads.size() * 2);
  EXPECT_EQ(paired, payloads.size() * 2);
  EXPECT_EQ(analyse(spans).wire_net_us.size(), paired);
}

// ---- Open-loop due-time accounting --------------------------------------

struct LoopRun {
  OpenLoopResult result;
  std::vector<double> latency_by_index;
};

LoopRun run_schedule(TracedTransport& client, std::size_t n, double spacing_s) {
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) due[i] = static_cast<double>(i) * spacing_s;
  LoopRun run;
  run.latency_by_index.assign(n, 0.0);
  const auto start = std::chrono::steady_clock::now();
  run.result = run_open_loop(due, 1, [&](std::size_t i) {
    client.request("t.work", alid::crypto::Bytes{static_cast<std::uint8_t>(i)});
    const double now_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    run.latency_by_index[i] = (now_s - due[i]) * 1e6;
    return true;
  });
  return run;
}

TEST_F(Wire, StallRaisesLaterLatencyAndGeneratorLag) {
  constexpr std::size_t kRequests = 60;
  constexpr double kSpacingS = 0.005;
  constexpr std::size_t kStalled = 10;
  constexpr auto kStall = std::chrono::milliseconds(250);
  // The stall goes in through the server-side decorator's hook, ahead of
  // the handler: the (kStalled + 1)-th call of the stalled run sleeps.
  std::atomic<bool> stall_on{false};
  std::atomic<int> calls{0};
  tap_->set_stall([&](const std::string&) {
    if (stall_on && ++calls == kStalled + 1) std::this_thread::sleep_for(kStall);
  });
  tap_->register_endpoint("t.work",
                          [](const alid::crypto::Bytes& payload) { return payload; });
  start();

  const LoopRun calm = run_schedule(*tracer_client_, kRequests, kSpacingS);
  stall_on = true;
  const LoopRun stalled = run_schedule(*tracer_client_, kRequests, kSpacingS);

  EXPECT_EQ(calm.result.completed, kRequests);
  EXPECT_EQ(stalled.result.completed, kRequests);
  // Requests due during the stall could not be sent on time: their
  // latency, timed from the due time, carries the wait.
  const double stall_us = std::chrono::duration<double, std::micro>(kStall).count();
  for (std::size_t i = kStalled + 1; i < kStalled + 5; ++i) {
    EXPECT_GT(stalled.latency_by_index[i], 0.5 * stall_us) << i;
    EXPECT_GT(stalled.latency_by_index[i], calm.latency_by_index[i] + 0.3 * stall_us) << i;
  }
  const double calm_lag = summarize(calm.result.lag_us).tail;
  const double stalled_lag = summarize(stalled.result.lag_us).tail;
  EXPECT_GT(stalled_lag, 0.3 * stall_us);
  EXPECT_GT(stalled_lag, calm_lag + 0.2 * stall_us);
  EXPECT_GT(summarize(stalled.result.latency_us).tail,
            summarize(calm.result.latency_us).tail + 0.3 * stall_us);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndSorted) {
  const std::vector<double> a = poisson_schedule(200.0, 10.0, 7);
  const std::vector<double> b = poisson_schedule(200.0, 10.0, 7);
  const std::vector<double> c = poisson_schedule(200.0, 10.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.size(), 1800u);
  EXPECT_LT(a.size(), 2200u);
  EXPECT_LT(a.back(), 10.0);
}

}  // namespace
}  // namespace perfbench
