#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace alid = alidrone;

std::string seed_tag(std::uint64_t seed, const std::string& what,
                     std::uint64_t index) {
  return "perfbench-" + std::to_string(seed) + "-" + what + "-" +
         std::to_string(index);
}

void Workload::gate(bool ok, const std::string& what) {
  if (ok) return;
  ++failure_count_;
  if (failures_.size() < 20) failures_.push_back(what);
}

// ---- Deployment ---------------------------------------------------------

Deployment::Deployment(const std::string& socket_path, std::uint64_t seed)
    : address_("uds:" + socket_path),
      auditor_rng_(seed_tag(seed, "auditor")),
      auditor_(kKeyBits, auditor_rng_, alid::core::ProtocolParams{}),
      ledger_(std::make_shared<alid::ledger::Ledger>()),
      audit_log_(std::make_shared<alid::core::AuditLog>()),
      ingest_(auditor_, alid::core::AuditorIngest::Config{}),
      server_([this] {
        alid::net::transport::TransportServer::Config config;
        config.listen = {address_};
        return config;
      }()),
      tap_(server_, correlator_) {
  audit_log_->attach_ledger(ledger_);
  auditor_.attach_audit_log(audit_log_);
}

Deployment::~Deployment() {
  // Drain the server before the tap and the pipeline it calls go away.
  server_.stop();
  ingest_.stop();
  std::error_code ignored;
  std::filesystem::remove(address_.substr(4), ignored);  // "uds:" + path
}

void Deployment::start() {
  // Registration/zone endpoints straight off the Auditor; submission and
  // TESLA endpoints rebound to the batched ingest — as the daemon does.
  auditor_.bind(tap_);
  ingest_.bind(tap_);
  server_.start();
}

Client::Client(Deployment& deployment, std::size_t connections)
    : socket([&] {
        alid::net::transport::TransportClient::Config config;
        config.address = deployment.address();
        config.connections = connections;
        return config;
      }()),
      transport(socket, deployment.correlator()) {}

std::size_t max_load_threads(std::size_t wanted) {
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(wanted, 1, n);
}

namespace {

// ---- Metric catalogue (BENCHMARK.json lists the same names) -------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"ok_rate", "frac"},       {"ops_per_s", "1/s"},
    {"lat_p50_us", "us"},      {"lat_p90_us", "us"},
    {"lat2_p50_us", "us"},     {"lat2_p90_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"drone.step_us_p50", "us"},
    {"drone.step_us_p99", "us"},
    {"drone.busy_frac", "frac"},
    {"drone.samples_per_update", "ratio"},
    {"drone.world_switches_per_sample", "ratio"},
    {"drone.tee_retries", "count"},
    {"wire.encode_us_p50", "us"},
    {"wire.rtt_us_p50", "us"},
    {"wire.rtt_us_p99", "us"},
    {"wire.bytes_per_request", "B"},
    {"wire.allocs_per_request", "count"},
    {"wire.errors", "count"},
    {"auditor.submit_us_p50", "us"},
    {"auditor.submit_us_p99", "us"},
    {"auditor.submit_us_p50.rsa", "us"},
    {"auditor.submit_us_p50.batchsig", "us"},
    {"auditor.submit_us_p50.hmac", "us"},
    {"auditor.submit_us_p50.encrypted", "us"},
    {"auditor.tesla_sample_us_p50", "us"},
    {"auditor.tesla_disclose_us_p50", "us"},
    {"auditor.tesla_finalize_us_p50", "us"},
    {"auditor.busy_frac", "frac"},
    {"auditor.inflight_max", "count"},
    {"ingest.batch_mean", "count"},
    {"ingest.retry_later_ratio", "ratio"},
    {"ingest.dup_ratio", "ratio"},
    {"crypto.mont.miss_ratio", "ratio"},
    {"ledger.append_us_p50", "us"},
    {"ledger.append_us_p99", "us"},
    {"ledger.seal_us_p50", "us"},
    {"ledger.root_us_p50", "us"},
    {"ledger.verify_us_p50", "us"},
    {"ledger.bytes_per_entry", "B"},
    {"ledger.recover_s", "s"},
    {"setup.keygen_s", "s"},
    {"setup.register_s", "s"},
    {"setup.corpus_s", "s"},
    {"setup.server_s", "s"},
    {"gen.lag_p99_ms", "ms"},
    {"proc.cpu_ms_per_op", "ms"},
    {"trace.overhead_frac", "frac"},
    {"layer.drone.self_frac", "frac"},
    {"layer.wire.self_frac", "frac"},
    {"layer.auditor.self_frac", "frac"},
    {"layer.ledger.self_frac", "frac"},
    {"layer.gen.self_frac", "frac"},
};

struct Value {
  double value = 0.0;
  std::size_t samples = 0;
  std::string note;  ///< e.g. the percentile a tail value stands for
};

// ---- Host record --------------------------------------------------------

double spin_seconds(std::size_t threads, std::uint64_t iterations) {
  const Stopwatch watch;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([iterations] {
      volatile std::uint64_t x = 0;
      for (std::uint64_t i = 0; i < iterations; ++i) x = x + i * 2654435761u;
    });
  }
  for (std::thread& t : pool) t.join();
  return watch.seconds();
}

std::string fs_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x2FC12FC1UL:
      return "zfs";
    case 0x6969UL:
      return "nfs";
    case 0x65735546UL:
      return "fuse";
    case 0x01021997UL:
      return "9p";
    case 0x786F4256UL:
      return "virtiofs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string host_record(const std::string& workdir) {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  // Effective cores: the same spin work on one thread and on nproc
  // threads; a host with free cores finishes both in the same time.
  constexpr std::uint64_t kSpin = 20'000'000;
  const double one = spin_seconds(1, kSpin);
  const double all = spin_seconds(nproc, kSpin);
  const double effective =
      all > 0.0 ? static_cast<double>(nproc) * one / all : 0.0;
  std::ostringstream out;
  out.precision(3);
  out << "host nproc=" << nproc << " effective_cores=" << effective
      << " spin1_ms=" << one * 1e3  // one core's speed now (lower = faster)
      << " build=" << PERFBENCH_BUILD_TYPE
      << " transport=uds-loopback(no real link)"
      << " ledger_fs=" << fs_type(workdir);
  return out.str();
}

// ---- Process probes -----------------------------------------------------

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void put_summary(std::map<std::string, Value>& out, const std::string& p50,
                 const std::string& tail, const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  char note[48];
  std::snprintf(note, sizeof note, "p%.1f", s.tail_pct);
  out[p50] = {s.p50, s.count, "p50"};
  if (!tail.empty()) out[tail] = {s.tail, s.count, note};
}

/// Length of one measurement window of the untraced phase.
constexpr double kWindowS = 2.0;
/// The end-to-end tail percentile. On a shared VM the share of round
/// trips the host slows down changes from run to run; p95 and p99 of a
/// sub-100-us round trip fall inside that share and follow the host,
/// while p90 still reads the tail and repeats across runs.
constexpr double kEndToEndTailPct = 90.0;
/// Samples a tail is taken over: a p90 with kTailSamples beyond it.
constexpr std::size_t kTailGroupSamples = static_cast<std::size_t>(
    100.0 / (100.0 - kEndToEndTailPct) * kTailSamples);

/// One latency series of the windowed phase: a p50 per window, and a
/// tail per group of consecutive windows that together hold at least
/// kTailGroupSamples samples (a short trailing group joins the one
/// before), so a slow stream still reports a true p90.
class WindowedLatency {
 public:
  void add_window(const std::vector<double>& samples) {
    if (!samples.empty()) p50s_.push_back(summarize(samples).p50);
    count_ += samples.size();
    open_.insert(open_.end(), samples.begin(), samples.end());
    if (open_.size() < kTailGroupSamples) return;
    close_group();
    last_ = std::move(open_);
    open_.clear();
  }
  std::vector<double> p50s() const { return p50s_; }
  std::vector<double> tails() {
    last_.insert(last_.end(), open_.begin(), open_.end());
    open_.clear();
    close_group();
    return tails_;
  }
  std::size_t count() const { return count_; }

 private:
  void close_group() {
    if (!last_.empty()) {
      tails_.push_back(summarize(std::move(last_), kEndToEndTailPct).tail);
    }
    last_.clear();
  }
  std::vector<double> p50s_;
  std::vector<double> tails_;
  std::vector<double> last_;  ///< the latest full group, not yet summarized
  std::vector<double> open_;  ///< windows since that group
  std::size_t count_ = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int run_benchmark(const Options& options) {
  std::filesystem::create_directories(options.workdir);
  std::vector<std::string> lines;
  lines.push_back(host_record(options.workdir));

  // Setup runs kSetupReps times from scratch; setup_s is the median and
  // the last deployment, made from --seed itself, is the one measured.
  // The earlier ones use seeds derived from it, so the median spans
  // several prime searches instead of repeating the one --seed gives.
  constexpr int kSetupReps = 5;
  std::unique_ptr<Workload> workload;
  std::vector<double> totals;
  std::vector<SetupSplit> splits;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Options rep_options = options;
    if (rep + 1 < kSetupReps) {
      rep_options.seed ^= 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(rep + 1);
    }
    workload.reset();
    workload = make_workload(rep_options);
    SetupSplit split;
    const Stopwatch watch;
    workload->setup(split);
    totals.push_back(watch.seconds());
    splits.push_back(split);
  }

  // Warm-up: caches fill and lazy set-up finishes before timing.
  workload->run(std::min(1.0, 0.1 * options.seconds));

  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const auto headline = [&](const PhaseStats& p) {
    return workload->latency_headline() ? summarize(p.lat_us).p50
                                        : ratio(static_cast<double>(p.ops),
                                                p.wall_s);
  };

  if (!options.trace) {
    // The timed phase runs as a series of windows; each rate and
    // percentile is taken per window and reported as the median over the
    // windows, so a host slow-down that covers a minority of the run does
    // not move it.
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(options.seconds / kWindowS)));
    std::vector<double> ops_per_s;
    std::uint64_t ops = 0;
    std::uint64_t ok = 0;
    WindowedLatency lat;
    WindowedLatency lat2;
    for (std::size_t w = 0; w < n; ++w) {
      const PhaseStats p = workload->run(options.seconds / static_cast<double>(n));
      attempted += p.attempted;
      failed += p.failed;
      ok += p.attempted - p.failed;
      ops += p.ops;
      ops_per_s.push_back(ratio(static_cast<double>(p.ops), p.wall_s));
      lat.add_window(p.lat_us);
      lat2.add_window(p.lat2_us);
    }
    const std::map<std::string, std::pair<std::vector<double>, std::size_t>>
        per_window = {
            {"ops_per_s", {ops_per_s, ops}},
            {"lat_p50_us", {lat.p50s(), lat.count()}},
            {"lat_p90_us", {lat.tails(), lat.count()}},
            {"lat2_p50_us", {lat2.p50s(), lat2.count()}},
            {"lat2_p90_us", {lat2.tails(), lat2.count()}},
        };
    e2e["setup_s"] = {median_of(totals), totals.size(), "median of reps"};
    e2e["ok_rate"] = {
        ratio(static_cast<double>(ok), static_cast<double>(attempted)),
        attempted, ""};
    for (const auto& [name, series] : per_window) {
      const auto& [v, count] = series;
      if (v.empty()) continue;
      const bool tail = name.ends_with("_p90_us");
      e2e[name] = {median_of(v), count,
                   "median of " + std::to_string(v.size()) +
                       (tail ? " window groups" : " windows")};
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      char line[200];
      std::snprintf(line, sizeof line,
                    "windows %-12s min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g",
                    name.c_str(), sorted.front(),
                    percentile_sorted(sorted, 25), percentile_sorted(sorted, 50),
                    percentile_sorted(sorted, 75), sorted.back());
      lines.push_back(line);
    }
  } else {
    // Untraced half: the overhead baseline, CPU per op and allocations.
    set_alloc_counting(true);
    const std::uint64_t allocs0 = alloc_count();
    const double cpu0 = cpu_seconds();
    const PhaseStats base = workload->run(options.seconds / 2);
    const double cpu_s = cpu_seconds() - cpu0;
    const std::uint64_t allocs = alloc_count() - allocs0;
    set_alloc_counting(false);

    Tracer& tracer = Tracer::global();
    tracer.clear();
    tracer.set_enabled(true);
    const PhaseStats p = workload->run(options.seconds / 2);
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.collect();
    const TraceAnalysis a = analyse(spans);
    attempted = base.attempted + p.attempted;
    failed = base.failed + p.failed;

    for (const auto& [name, value] : p.layer) layer[name] = {value, 0, ""};
    const auto dur = [&](const std::string& name) -> std::vector<double> {
      const auto it = a.durations_us.find(name);
      return it == a.durations_us.end() ? std::vector<double>{} : it->second;
    };
    if (!dur("FlightActor::step").empty()) {
      put_summary(layer, "drone.step_us_p50", "drone.step_us_p99",
                  dur("FlightActor::step"));
    }
    put_summary(layer, "wire.encode_us_p50", "", dur("SubmitPoaRequest::encode"));
    put_summary(layer, "wire.rtt_us_p50", "wire.rtt_us_p99", a.wire_net_us);
    put_summary(layer, "auditor.submit_us_p50", "auditor.submit_us_p99",
                dur("auditor.submit_poa"));
    for (const char* tag : {"rsa", "batchsig", "hmac", "encrypted"}) {
      put_summary(layer, std::string("auditor.submit_us_p50.") + tag, "",
                  dur(std::string("auditor.submit_poa.") + tag));
    }
    put_summary(layer, "auditor.tesla_sample_us_p50", "",
                dur("auditor.tesla_sample"));
    put_summary(layer, "auditor.tesla_disclose_us_p50", "",
                dur("auditor.tesla_disclose"));
    put_summary(layer, "auditor.tesla_finalize_us_p50", "",
                dur("auditor.tesla_finalize"));
    put_summary(layer, "ledger.append_us_p50", "ledger.append_us_p99",
                dur("Ledger::append"));
    put_summary(layer, "ledger.root_us_p50", "", dur("Ledger::root_hash"));
    put_summary(layer, "ledger.verify_us_p50", "",
                dur("Ledger::verify_inclusion"));

    std::vector<std::pair<double, double>> handlers;
    for (const Span& s : spans) {
      if (s.layer == Layer::kAuditor) {
        handlers.emplace_back(static_cast<double>(s.start_ns),
                              static_cast<double>(s.end_ns));
      }
    }
    layer["auditor.busy_frac"] = {
        ratio(union_length(handlers) / 1e9, p.wall_s), handlers.size(), ""};
    layer["auditor.inflight_max"] = {
        static_cast<double>(max_overlap(handlers)), handlers.size(), ""};

    layer["wire.bytes_per_request"] = {
        ratio(static_cast<double>(p.wire_bytes),
              static_cast<double>(p.requests)),
        p.requests, ""};
    layer["wire.allocs_per_request"] = {
        ratio(static_cast<double>(allocs), static_cast<double>(base.requests)),
        base.requests, "untraced half, whole process"};
    layer["wire.errors"] = {static_cast<double>(p.wire_errors), p.requests, ""};
    layer["proc.cpu_ms_per_op"] = {
        ratio(cpu_s * 1e3, static_cast<double>(base.ops)), base.ops,
        "untraced half"};

    const double untraced = headline(base);
    const double traced = headline(p);
    const double overhead =
        workload->latency_headline() ? ratio(traced, untraced) - 1.0
                                     : ratio(untraced, traced) - 1.0;
    layer["trace.overhead_frac"] = {
        overhead, 0,
        workload->latency_headline() ? "lat_p50" : "ops_per_s"};

    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const Layer which = static_cast<Layer>(l);
      layer[std::string("layer.") + layer_name(which) + ".self_frac"] = {
          a.self_share(which), a.spans, ""};
    }

    const auto split_median = [&](double SetupSplit::*slot) {
      std::vector<double> v;
      for (const SetupSplit& s : splits) v.push_back(s.*slot);
      return median_of(v);
    };
    layer["setup.keygen_s"] = {split_median(&SetupSplit::keygen_s), splits.size(), ""};
    layer["setup.register_s"] = {split_median(&SetupSplit::register_s), splits.size(), ""};
    layer["setup.corpus_s"] = {split_median(&SetupSplit::corpus_s), splits.size(), ""};
    layer["setup.server_s"] = {split_median(&SetupSplit::server_s), splits.size(), ""};

    // Where self time went, by span, largest first.
    std::vector<std::pair<double, std::string>> by_name;
    for (const auto& [name, ns] : a.self_by_name) by_name.emplace_back(ns, name);
    std::sort(by_name.rbegin(), by_name.rend());
    for (std::size_t i = 0; i < by_name.size() && i < 10; ++i) {
      char line[160];
      std::snprintf(line, sizeof line, "self %-40s %6.3f", by_name[i].second.c_str(),
                    by_name[i].first / a.total_self_ns);
      lines.push_back(line);
    }

    const std::string trace_path = options.workdir + "/trace-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + ".csv";
    if (write_spans(trace_path, spans)) {
      lines.push_back("trace " + std::to_string(spans.size()) +
                      " spans written to " + trace_path);
    }
  }

  workload->finish(lines);
  if (!options.trace) {
    e2e["peak_rss_mb"] = {peak_rss_mb(), 1, "ru_maxrss"};
  }

  const bool correct = workload->gate_failure_count() == 0;
  for (const std::string& f : workload->gate_failures()) {
    lines.push_back("GATE FAILED: " + f);
  }
  if (!correct) {
    lines.push_back("gate failures: " +
                    std::to_string(workload->gate_failure_count()));
  }

  // Human-readable report, then the JSON result as the last line.
  for (const std::string& line : lines) std::cout << line << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef* defs, std::size_t n,
                        std::map<std::string, Value>& values) {
    for (std::size_t i = 0; i < n; ++i) {
      const Value& v = values[defs[i].name];
      std::printf("metric %-34s %14.4f %-6s samples=%zu %s\n", defs[i].name,
                  v.value, defs[i].unit, v.samples, v.note.c_str());
      json << (first ? "" : ", ") << "\"" << defs[i].name
           << "\": {\"value\": " << json_number(v.value) << ", \"unit\": \""
           << defs[i].unit << "\"}";
      first = false;
    }
  };
  std::fflush(stdout);
  if (options.trace) {
    emit(kPerLayer, std::size(kPerLayer), layer);
  } else {
    emit(kEndToEnd, std::size(kEndToEnd), e2e);
  }
  json << "}}";
  std::fflush(stdout);
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
