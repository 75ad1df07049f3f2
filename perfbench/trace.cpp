#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

namespace {

thread_local const char* t_request_tag = nullptr;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kDrone:
      return "drone";
    case Layer::kWire:
      return "wire";
    case Layer::kAuditor:
      return "auditor";
    case Layer::kLedger:
      return "ledger";
    case Layer::kGen:
      return "gen";
  }
  return "unknown";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Tracer -------------------------------------------------------------

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local() {
  // The tracer co-owns each buffer, so spans survive their thread.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
}

ScopedSpan::ScopedSpan(const char* name, Layer layer, std::uint64_t parent,
                       std::uint64_t request, const char* tag) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  buffer_ = &tracer.local();
  span_.name = name;
  span_.layer = layer;
  span_.id = tracer.next_id();
  span_.parent = parent != 0 ? parent
                 : buffer_->stack.empty() ? 0
                                          : buffer_->stack.back();
  span_.request = request != 0 ? request : span_.id;
  span_.tag = tag;
  span_.thread = buffer_->thread;
  buffer_->stack.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = now_ns();
  buffer_->stack.pop_back();
  std::lock_guard<std::mutex> lock(buffer_->mu);
  buffer_->spans.push_back(span_);
}

void set_request_tag(const char* tag) { t_request_tag = tag; }
const char* request_tag() { return t_request_tag; }

// ---- Correlator ---------------------------------------------------------

std::uint64_t Correlator::key(const std::string& endpoint,
                              const alidrone::crypto::Bytes& payload) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const char c : endpoint) mix(static_cast<std::uint8_t>(c));
  mix(0);
  for (const std::uint8_t b : payload) mix(b);
  return h;
}

void Correlator::file(std::uint64_t key, Match match) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[key].push_back(match);
}

Correlator::Match Correlator::claim(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.empty()) return {};
  const Match match = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) pending_.erase(it);
  return match;
}

void Correlator::forget(std::uint64_t key, std::uint64_t client_span) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  auto& queue = it->second;
  queue.erase(std::remove_if(queue.begin(), queue.end(),
                             [&](const Match& m) {
                               return m.client_span == client_span;
                             }),
              queue.end());
  if (queue.empty()) pending_.erase(it);
}

// ---- Transport decorators -----------------------------------------------

template <class Call>
alidrone::crypto::Bytes TracedTransport::traced(
    const std::string& endpoint, const alidrone::crypto::Bytes& payload,
    Call&& call) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const bool tracing = Tracer::global().enabled();
  const char* tag = request_tag();
  ScopedSpan span("Transport::request", Layer::kWire, 0, 0, tag);
  std::uint64_t key = 0;
  if (tracing) {
    key = Correlator::key(endpoint, payload);
    correlator_.file(key, {span.id(), tag});
  }
  try {
    alidrone::crypto::Bytes reply = call();
    if (tracing) correlator_.forget(key, span.id());
    bytes_.fetch_add(payload.size() + reply.size(), std::memory_order_relaxed);
    return reply;
  } catch (...) {
    if (tracing) correlator_.forget(key, span.id());
    errors_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

alidrone::crypto::Bytes TracedTransport::request(
    const std::string& endpoint, const alidrone::crypto::Bytes& payload) {
  return traced(endpoint, payload,
                [&] { return inner_.request(endpoint, payload); });
}

alidrone::crypto::Bytes TracedTransport::request(
    const std::string& endpoint, const alidrone::crypto::Bytes& payload,
    double deadline_s) {
  return traced(endpoint, payload, [&] {
    return inner_.request(endpoint, payload, deadline_s);
  });
}

TracedTransport::Counters TracedTransport::counters() const {
  return {requests_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed),
          errors_.load(std::memory_order_relaxed)};
}

void ServerTap::register_endpoint(const std::string& name, Handler handler) {
  names_.push_back(name);
  const char* span_name = names_.back().c_str();
  inner_.register_endpoint(
      name, [this, span_name, name, handler = std::move(handler)](
                const alidrone::crypto::Bytes& payload) {
        if (stall_) stall_(name);
        if (!Tracer::global().enabled()) return handler(payload);
        const Correlator::Match match =
            correlator_.claim(Correlator::key(name, payload));
        ScopedSpan span(span_name, Layer::kAuditor, match.client_span,
                        match.client_span, match.tag);
        return handler(payload);
      });
}

// ---- Analysis -----------------------------------------------------------

TraceAnalysis analyse(const std::vector<Span>& spans) {
  TraceAnalysis out;
  out.spans = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  // Children intervals clipped to their parent, per parent.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = spans[it->second];
    const double lo = static_cast<double>(std::max(s.start_ns, p.start_ns));
    const double hi = static_cast<double>(std::min(s.end_ns, p.end_ns));
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }

  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      covered = union_length(it->second);
    }
    const double self = std::max(0.0, dur - covered);
    out.self_ns[static_cast<std::size_t>(s.layer)] += self;
    out.total_self_ns += self;

    out.durations_us[s.name].push_back(dur / 1e3);
    if (s.tag != nullptr) {
      out.durations_us[std::string(s.name) + "." + s.tag].push_back(dur / 1e3);
    }
    out.self_by_name[s.tag != nullptr ? std::string(s.name) + "." + s.tag
                                      : std::string(s.name)] += self;
    if (s.layer == Layer::kWire && children.count(s.id) != 0) {
      out.wire_net_us.push_back((dur - covered) / 1e3);
    }
  }
  return out;
}

std::size_t max_overlap(
    const std::vector<std::pair<double, double>>& intervals) {
  std::vector<std::pair<double, int>> events;
  events.reserve(intervals.size() * 2);
  for (const auto& [start, end] : intervals) {
    events.emplace_back(start, +1);
    events.emplace_back(end, -1);
  }
  // Ends sort before starts at the same instant.
  std::sort(events.begin(), events.end());
  int open = 0;
  int best = 0;
  for (const auto& [at, delta] : events) {
    open += delta;
    best = std::max(best, open);
  }
  return static_cast<std::size_t>(best);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "name,layer,id,parent,request,tag,start_ns,end_ns,thread\n";
  for (const Span& s : spans) {
    out << s.name << ',' << layer_name(s.layer) << ',' << s.id << ','
        << s.parent << ',' << s.request << ',' << (s.tag ? s.tag : "") << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.thread << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
