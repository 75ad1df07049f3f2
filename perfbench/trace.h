// In-memory span tracing for the benchmark's traced runs.
//
// Spans are recorded only around calls *into* the system's public
// functions from the benchmark's own files — nothing inside src/ is
// instrumented. Each span carries a name, its layer, start/end on the
// steady clock, the span that caused it and a request id; the client and
// server spans of one request share that id. Spans stay in per-thread
// buffers until the run ends; analyse() then turns them into self time
// per layer (a span's duration minus the part of it its children cover).
//
// The two transport decorators are how spans reach the wire and the
// Auditor without touching the transport: TracedTransport wraps the
// client's net::Transport, ServerTap wraps the server's register_endpoint
// so every handler runs inside a span. Correlation across the socket uses
// the request bytes themselves: the client files (endpoint, payload) under
// its span id and the server claims it on arrival, so the frame format
// is untouched and handlers see exactly the bytes the client sent.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.h"
#include "net/transport.h"

namespace perfbench {

enum class Layer : std::uint8_t { kDrone, kWire, kAuditor, kLedger, kGen };
inline constexpr std::size_t kLayerCount = 5;
const char* layer_name(Layer layer);

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  const char* name = "";
  Layer layer = Layer::kGen;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by a request's client and server spans
  const char* tag = nullptr;  ///< workload label (e.g. the PoA's auth mode)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, from every thread.
  std::vector<Span> collect() const;
  void clear();

  struct ThreadBuffer {
    std::mutex mu;  ///< the owner appends; collect() reads
    std::vector<Span> spans;
    std::vector<std::uint64_t> stack;  ///< open spans (owner thread only)
    std::uint32_t thread = 0;
  };
  ThreadBuffer& local();
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; free when tracing is off. `parent` 0 means "the innermost
/// open span on this thread".
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, std::uint64_t parent = 0,
             std::uint64_t request = 0, const char* tag = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  Span span_;
};

/// Label attached to the client spans this thread opens next.
void set_request_tag(const char* tag);
const char* request_tag();

/// Pairs client and server spans of one request across the socket.
class Correlator {
 public:
  struct Match {
    std::uint64_t client_span = 0;
    const char* tag = nullptr;
  };
  static std::uint64_t key(const std::string& endpoint,
                           const alidrone::crypto::Bytes& payload);
  void file(std::uint64_t key, Match match);
  /// The oldest unclaimed client span with these bytes (empty if none).
  Match claim(std::uint64_t key);
  /// Drop the client's entry if no server claimed it (failed request).
  void forget(std::uint64_t key, std::uint64_t client_span);

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::deque<Match>> pending_;
};

/// Client-side decorator: one wire span per request, plus always-on
/// request/byte/error counts.
class TracedTransport final : public alidrone::net::Transport {
 public:
  TracedTransport(alidrone::net::Transport& inner, Correlator& correlator)
      : inner_(inner), correlator_(correlator) {}

  void register_endpoint(const std::string& name, Handler handler) override {
    inner_.register_endpoint(name, std::move(handler));
  }
  alidrone::crypto::Bytes request(const std::string& endpoint,
                                  const alidrone::crypto::Bytes& payload) override;
  alidrone::crypto::Bytes request(const std::string& endpoint,
                                  const alidrone::crypto::Bytes& payload,
                                  double deadline_s) override;

  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;   ///< request + reply payload bytes
    std::uint64_t errors = 0;  ///< timeouts, resets, deadline expiries
  };
  Counters counters() const;

 private:
  template <class Call>
  alidrone::crypto::Bytes traced(const std::string& endpoint,
                                 const alidrone::crypto::Bytes& payload,
                                 Call&& call);

  alidrone::net::Transport& inner_;
  Correlator& correlator_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> errors_{0};
};

/// Server-side decorator: wraps every handler registered through it in an
/// auditor-layer span named after the endpoint, parented to the client's
/// wire span. `stall` (tests) runs before each handler.
class ServerTap final : public alidrone::net::Transport {
 public:
  ServerTap(alidrone::net::Transport& inner, Correlator& correlator)
      : inner_(inner), correlator_(correlator) {}

  void register_endpoint(const std::string& name, Handler handler) override;
  alidrone::crypto::Bytes request(const std::string& endpoint,
                                  const alidrone::crypto::Bytes& payload) override {
    return inner_.request(endpoint, payload);
  }
  using alidrone::net::Transport::request;

  /// Install before the server starts serving.
  void set_stall(std::function<void(const std::string& endpoint)> stall) {
    stall_ = std::move(stall);
  }

 private:
  alidrone::net::Transport& inner_;
  Correlator& correlator_;
  std::function<void(const std::string&)> stall_;
  /// Endpoint names outlive the spans that point at them.
  std::deque<std::string> names_;
};

/// Self time and counts per layer and per span name over a set of spans.
struct TraceAnalysis {
  std::array<double, kLayerCount> self_ns{};
  double total_self_ns = 0.0;
  /// name -> durations (us), name "." tag -> durations for tagged spans.
  std::map<std::string, std::vector<double>> durations_us;
  /// name (with its tag, if any) -> summed self time (ns).
  std::map<std::string, double> self_by_name;
  /// Client wire span minus its server handler span, per request (us).
  std::vector<double> wire_net_us;
  std::size_t spans = 0;

  double self_share(Layer layer) const {
    return total_self_ns > 0.0
               ? self_ns[static_cast<std::size_t>(layer)] / total_self_ns
               : 0.0;
  }
};
TraceAnalysis analyse(const std::vector<Span>& spans);

/// Largest number of simultaneously open intervals.
std::size_t max_overlap(const std::vector<std::pair<double, double>>& intervals);

/// Write spans as CSV (name,layer,id,parent,request,tag,start_ns,end_ns,thread).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Process-wide operator-new count, advanced only while counting is on.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

}  // namespace perfbench
