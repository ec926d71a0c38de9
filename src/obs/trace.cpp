#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace gv {

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {
  enabled_.store(env_int("GNNVAULT_TRACE", 0) != 0, std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::instance() {
  // Leaked on purpose: worker threads may emit spans during static
  // destruction of other objects; the recorder must outlive them all.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    MutexLock lock(registry_mu_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void TraceRecorder::append(const TraceEvent& ev) {
  ThreadBuffer& buf = local_buffer();
  // The buffer's mutex is only ever contended by a snapshotting exporter;
  // for the owning thread this is an uncontended lock (tens of ns).
  MutexLock lock(buf.mu);
  if (buf.ring.size() < kRingCapacity) {
    buf.ring.push_back(ev);
  } else {
    buf.ring[buf.appended % kRingCapacity] = ev;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++buf.appended;
}

void TraceRecorder::emit(const char* category, const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end,
                         double modeled_s,
                         std::initializer_list<TraceEvent::Arg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.start_ns = to_ns(start);
  const std::uint64_t end_ns = to_ns(end);
  ev.dur_ns = end_ns > ev.start_ns ? end_ns - ev.start_ns : 0;
  ev.modeled_s = modeled_s;
  for (const auto& a : args) ev.add_arg(a.key, a.value);
  append(ev);
}

void TraceRecorder::emit_async(const char* category, const char* name,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end,
                               double modeled_s,
                               std::initializer_list<TraceEvent::Arg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.async = true;
  ev.start_ns = to_ns(start);
  const std::uint64_t end_ns = to_ns(end);
  ev.dur_ns = end_ns > ev.start_ns ? end_ns - ev.start_ns : 0;
  ev.modeled_s = modeled_s;
  for (const auto& a : args) ev.add_arg(a.key, a.value);
  append(ev);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(registry_mu_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    // Oldest-first: after a wrap the head of the ring is the write cursor.
    const std::size_t n = buf->ring.size();
    const std::size_t head = buf->appended >= kRingCapacity
                                 ? buf->appended % kRingCapacity
                                 : 0;
    for (std::size_t i = 0; i < n; ++i) {
      TraceEvent ev = buf->ring[(head + i) % n];
      // Thread id rides in a spare arg slot so snapshot() consumers (and
      // the JSON exporter) know which ring each event came from.
      ev.add_arg("tid", static_cast<double>(buf->tid));
      out.push_back(ev);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                     : a.dur_ns > b.dur_ns;
                   });
  return out;
}

void TraceRecorder::clear() {
  MutexLock lock(registry_mu_);
  for (const auto& buf : buffers_) {
    MutexLock b(buf->mu);
    buf->ring.clear();
    buf->appended = 0;
  }
  dropped_.store(0);
}

std::size_t TraceRecorder::num_threads() const {
  MutexLock lock(registry_mu_);
  return buffers_.size();
}

const char* TraceRecorder::intern(const std::string& s) {
  MutexLock lock(registry_mu_);
  return interned_.insert(s).first->c_str();
}

std::string TraceRecorder::to_chrome_json() const {
  const auto events = snapshot();
  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  out +=
      "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"gnnvault\"}}";
  std::uint64_t async_id = 0;
  for (const auto& ev : events) {
    // The exporter filed the source thread id in the last arg slot.
    double tid = 0.0;
    int nargs = ev.num_args;
    if (nargs > 0 && ev.args[nargs - 1].key != nullptr &&
        std::string_view(ev.args[nargs - 1].key) == "tid") {
      tid = ev.args[nargs - 1].value;
      --nargs;
    }
    char head[192];
    if (ev.async) {
      // Async begin: intervals like queue waits overlap the thread's slice
      // stack, so they get a "b"/"e" pair (own Perfetto track, exempt from
      // the slice-nesting invariant) instead of a complete "X" slice.
      std::snprintf(head, sizeof(head),
                    ", {\"ph\": \"b\", \"pid\": 1, \"tid\": %.0f, "
                    "\"id\": %llu, \"ts\": %.3f, ",
                    tid, static_cast<unsigned long long>(async_id),
                    ev.start_ns / 1e3);
    } else {
      std::snprintf(head, sizeof(head),
                    ", {\"ph\": \"X\", \"pid\": 1, \"tid\": %.0f, \"ts\": %.3f, "
                    "\"dur\": %.3f, ",
                    tid, ev.start_ns / 1e3, ev.dur_ns / 1e3);
    }
    out += head;
    out += "\"cat\": ";
    append_json_string(out, ev.category);
    out += ", \"name\": ";
    append_json_string(out, ev.name);
    out += ", \"args\": {\"wall_ns\": ";
    append_json_number(out, static_cast<double>(ev.dur_ns));
    out += ", \"modeled_sgx_s\": ";
    append_json_number(out, ev.modeled_s);
    for (int i = 0; i < nargs; ++i) {
      out += ", ";
      append_json_string(out, ev.args[i].key);
      out += ": ";
      append_json_number(out, ev.args[i].value);
    }
    out += "}}";
    if (ev.async) {
      std::snprintf(head, sizeof(head),
                    ", {\"ph\": \"e\", \"pid\": 1, \"tid\": %.0f, "
                    "\"id\": %llu, \"ts\": %.3f, ",
                    tid, static_cast<unsigned long long>(async_id),
                    (ev.start_ns + ev.dur_ns) / 1e3);
      out += head;
      out += "\"cat\": ";
      append_json_string(out, ev.category);
      out += ", \"name\": ";
      append_json_string(out, ev.name);
      out += ", \"args\": {}}";
      ++async_id;
    }
  }
  out += "]}\n";
  return out;
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  GV_CHECK(f.good(), "cannot open trace output file: " + path);
  f << to_chrome_json();
  GV_CHECK(f.good(), "failed writing trace output file: " + path);
}

// --- Trace JSON validation (schema + nesting check). ------------------------

bool validate_trace_json(const std::string& json, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const auto doc = parse_json(json, error);
  if (!doc) return false;
  const JsonValue* events = doc->find("traceEvents", JsonValue::Type::kArray);
  if (events == nullptr) return fail("no traceEvents array");

  // Collect the complete ("X") slices; other phases (metadata, async b/e)
  // are exempt from nesting.
  struct Slice {
    double tid, ts, dur;
    std::string name;
  };
  std::vector<Slice> slices;
  for (const JsonValue& ev : events->array) {
    if (ev.type != JsonValue::Type::kObject) {
      return fail("traceEvents entry is not an object");
    }
    const JsonValue* ph = ev.find("ph", JsonValue::Type::kString);
    if (ph == nullptr) return fail("trace event missing ph");
    if (ph->str != "X") continue;
    const JsonValue* name = ev.find("name", JsonValue::Type::kString);
    const JsonValue* tid = ev.find("tid", JsonValue::Type::kNumber);
    const JsonValue* ts = ev.find("ts", JsonValue::Type::kNumber);
    const JsonValue* dur = ev.find("dur", JsonValue::Type::kNumber);
    if (name == nullptr || tid == nullptr || ts == nullptr || dur == nullptr) {
      return fail("slice missing name, tid, ts or dur");
    }
    slices.push_back({tid->number, ts->number, dur->number, name->str});
  }

  // Per-thread nesting: sorted by (ts asc, dur desc), every slice must lie
  // entirely inside the enclosing open slice or after it — a partial
  // overlap means a span outlived its parent, which RAII emission forbids.
  std::map<double, std::vector<const Slice*>> by_tid;
  for (const auto& ev : slices) by_tid[ev.tid].push_back(&ev);
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const Slice* a, const Slice* b) {
                return a->ts != b->ts ? a->ts < b->ts : a->dur > b->dur;
              });
    std::vector<const Slice*> stack;
    for (const Slice* ev : evs) {
      while (!stack.empty() &&
             stack.back()->ts + stack.back()->dur <= ev->ts) {
        stack.pop_back();
      }
      if (!stack.empty() &&
          ev->ts + ev->dur > stack.back()->ts + stack.back()->dur + 1e-6) {
        return fail("slice '" + ev->name + "' (tid " + std::to_string(tid) +
                    ") partially overlaps enclosing slice '" +
                    stack.back()->name + "'");
      }
      stack.push_back(ev);
    }
  }
  return true;
}

}  // namespace gv
