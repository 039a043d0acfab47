#include "obs/tracer.h"

#include <algorithm>
#include <unordered_map>

#include "util/clock.h"
#include "util/json.h"

namespace panoptes::obs {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

// Registry of live tracers, so a thread's TLS destructor can tell
// whether the tracer a cached buffer belongs to still exists. Ids are
// never reused, so a stale cache entry for a destroyed tracer can never
// alias a live one. Function-local static with intentional leak: TLS
// destructors of detached threads can run during process shutdown,
// after namespace-scope statics are destroyed.
struct LiveTracers {
  std::mutex mutex;
  std::unordered_map<uint64_t, Tracer*> map;
};

LiveTracers& Live() {
  static LiveTracers* live = new LiveTracers();
  return *live;
}

}  // namespace

// Per-thread buffer cache, keyed by tracer id. The destructor runs at
// thread exit and retires every cached buffer into its tracer (if the
// tracer is still alive), so spans recorded by worker threads that die
// before export are flushed instead of sitting in a dead thread's
// buffer — and the buffer memory is reclaimed. Lock order here is
// Live().mutex -> Tracer::mutex_; nothing takes them in the other
// order (~Tracer only takes Live().mutex, never while holding mutex_).
struct TracerTlsCache {
  std::unordered_map<uint64_t, void*> buffers;

  ~TracerTlsCache() {
    LiveTracers& live = Live();
    std::lock_guard<std::mutex> lock(live.mutex);
    for (const auto& [tracer_id, buffer] : buffers) {
      auto found = live.map.find(tracer_id);
      if (found == live.map.end()) continue;  // tracer died first
      found->second->RetireBuffer(
          static_cast<Tracer::ThreadBuffer*>(buffer));
    }
  }
};

namespace {
thread_local TracerTlsCache t_buffer_cache;
}  // namespace

Tracer::Tracer()
    : tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {
  LiveTracers& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.map[tracer_id_] = this;
}

Tracer::~Tracer() {
  LiveTracers& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.map.erase(tracer_id_);
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  auto cached = t_buffer_cache.buffers.find(tracer_id_);
  if (cached != t_buffer_cache.buffers.end()) {
    return static_cast<ThreadBuffer*>(cached->second);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = next_tid_++;
  ThreadBuffer* out = buffer.get();
  buffers_.push_back(std::move(buffer));
  t_buffer_cache.buffers[tracer_id_] = out;
  return out;
}

void Tracer::RetireBuffer(ThreadBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    retired_events_.insert(retired_events_.end(),
                           std::make_move_iterator(buffer->events.begin()),
                           std::make_move_iterator(buffer->events.end()));
    buffer->events.clear();
  }
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->get() == buffer) {
      buffers_.erase(it);
      break;
    }
  }
}

void Tracer::Record(SpanEvent event) {
  ThreadBuffer* buffer = BufferForThisThread();
  event.tid = buffer->tid;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(std::move(event));
}

std::vector<SpanEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanEvent> out = retired_events_;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  // Retirement order follows thread exit, not tid order; re-establish
  // (tid, record order) so export is independent of join timing.
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.tid < b.tid;
                   });
  return out;
}

size_t Tracer::EventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = retired_events_.size();
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_events_.clear();
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<SpanEvent> events = Snapshot();
  // Chronological order makes the file diffable and the viewer happy.
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  util::JsonArray trace_events;
  trace_events.reserve(events.size());
  for (const SpanEvent& event : events) {
    util::JsonObject entry;
    entry["name"] = event.name;
    entry["cat"] = event.category;
    entry["ph"] = "X";
    entry["ts"] = static_cast<double>(event.start_ns) / 1000.0;
    entry["dur"] = static_cast<double>(event.duration_ns) / 1000.0;
    entry["pid"] = 1;
    entry["tid"] = static_cast<uint64_t>(event.tid);
    if (!event.args.empty()) {
      util::JsonObject args;
      for (const auto& [key, value] : event.args) args[key] = value;
      entry["args"] = std::move(args);
    }
    trace_events.emplace_back(std::move(entry));
  }
  util::JsonObject root;
  root["traceEvents"] = std::move(trace_events);
  root["displayTimeUnit"] = "ms";
  return util::Json(std::move(root)).Dump();
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category,
                       Tracer& tracer)
    : tracer_(tracer), active_(tracer.enabled()) {
  if (!active_) return;
  event_.name = std::string(name);
  event_.category = std::string(category);
  event_.start_ns = util::SteadyNowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  event_.duration_ns = util::SteadyNowNanos() - event_.start_ns;
  tracer_.Record(std::move(event_));
}

void ScopedSpan::Arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  event_.args.emplace_back(std::string(key), std::string(value));
}

void ScopedSpan::Arg(std::string_view key, int64_t value) {
  if (!active_) return;
  event_.args.emplace_back(std::string(key), std::to_string(value));
}

}  // namespace panoptes::obs
