// The benchmark harness: command line, the deployment under test, the
// setup/measure/trace sequence every workload runs through, and the
// report (human-readable lines, then one JSON object as the last line).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/audit_log.h"
#include "core/auditor.h"
#include "core/ingest.h"
#include "crypto/random.h"
#include "ledger/ledger.h"
#include "net/transport/client.h"
#include "net/transport/server.h"
#include "trace.h"

namespace perfbench {

/// RSA modulus for every key the benchmark makes (as sim::run_campaign).
inline constexpr std::size_t kKeyBits = 512;
/// Unix time of the first flight in every workload.
inline constexpr double kEpoch = 1528400000.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets and ledger files (relative paths keep
  /// socket addresses short).
  std::string workdir = ".bench_build/run";
};

/// Seed-tagged stream name, so every input derives from --seed.
std::string seed_tag(std::uint64_t seed, const std::string& what,
                     std::uint64_t index = 0);

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double micros() const { return seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Where setup time went (seconds).
struct SetupSplit {
  double keygen_s = 0.0;
  double register_s = 0.0;
  double corpus_s = 0.0;
  double server_s = 0.0;
};

/// Adds its lifetime to one SetupSplit slot.
class SetupTimer {
 public:
  explicit SetupTimer(double& slot) : slot_(slot) {}
  ~SetupTimer() { slot_ += watch_.seconds(); }
  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

 private:
  double& slot_;
  Stopwatch watch_;
};

/// What one timed phase of a workload produced.
struct PhaseStats {
  Stopwatch clock;              ///< starts with the phase
  double wall_s = 0.0;
  std::uint64_t ops = 0;        ///< completed units of work
  std::uint64_t attempted = 0;  ///< operations tried
  std::uint64_t failed = 0;     ///< timed out, refused or verdict-less
  std::vector<double> lat_us;   ///< headline latency samples
  std::vector<double> lat2_us;  ///< secondary latency samples
  std::uint64_t requests = 0;   ///< transport requests made
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_errors = 0;
  /// Per-layer values the workload measures itself (counter deltas).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the deployment and the inputs; charge time to `split`.
  virtual void setup(SetupSplit& split) = 0;
  /// Drive load for `seconds` (closed loops finish the operation in
  /// progress); tracing, when on, is already enabled.
  virtual PhaseStats run(double seconds) = 0;
  /// End-of-run gates and report lines (fingerprints, ledger audit).
  virtual void finish(std::vector<std::string>& lines) { (void)lines; }
  /// trace.overhead_frac compares lat_p50 (open loop) or ops_per_s.
  virtual bool latency_headline() const { return false; }

  const std::vector<std::string>& gate_failures() const { return failures_; }
  std::uint64_t gate_failure_count() const { return failure_count_; }

 protected:
  /// A correctness gate: a false `ok` fails the run.
  void gate(bool ok, const std::string& what);

 private:
  std::vector<std::string> failures_;
  std::uint64_t failure_count_ = 0;
};

/// The deployment alidrone_auditord assembles, from default configs:
/// TransportServer (UDS) -> AuditorIngest -> Auditor -> AuditLog -> an
/// in-memory ledger::Ledger. Endpoints bind through a ServerTap so traced
/// runs see every handler.
class Deployment {
 public:
  /// Generates the Auditor's key (the caller times this as keygen).
  Deployment(const std::string& socket_path, std::uint64_t seed);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Bind endpoints and start serving.
  void start();
  std::string address() const { return address_; }

  alidrone::core::Auditor& auditor() { return auditor_; }
  alidrone::core::AuditorIngest& ingest() { return ingest_; }
  alidrone::core::AuditLog& audit_log() { return *audit_log_; }
  alidrone::ledger::Ledger& ledger() { return *ledger_; }
  Correlator& correlator() { return correlator_; }
  ServerTap& tap() { return tap_; }

 private:
  std::string address_;
  Correlator correlator_;
  alidrone::crypto::DeterministicRandom auditor_rng_;
  alidrone::core::Auditor auditor_;
  std::shared_ptr<alidrone::ledger::Ledger> ledger_;
  std::shared_ptr<alidrone::core::AuditLog> audit_log_;
  alidrone::core::AuditorIngest ingest_;
  alidrone::net::transport::TransportServer server_;
  ServerTap tap_;
};

/// A client of the deployment: a TransportClient with `connections`
/// channels behind the tracing decorator.
struct Client {
  Client(Deployment& deployment, std::size_t connections);
  alidrone::net::transport::TransportClient socket;
  TracedTransport transport;
};

/// Generator threads / connections allowed: at most the host's nproc.
std::size_t max_load_threads(std::size_t wanted);

/// Run the whole sequence for one workload; returns the exit code.
int run_benchmark(const Options& options);

}  // namespace perfbench
