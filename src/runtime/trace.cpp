#include "runtime/trace.h"

#if SPINAL_RUNTIME_TRACE

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace spinal::runtime {

namespace {

constexpr std::uint64_t kEmptySeq = ~std::uint64_t{0};  // also the busy marker

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// {tracer id -> buffer} cache for Tracer::thread_buffer. Keyed by the
/// process-unique tracer id (not the pointer): a dead tracer's id is
/// never reissued, so a stale cache entry can never alias a new tracer
/// allocated at the same address.
struct ThreadCache {
  std::uint64_t tracer_id = 0;
  TraceBuffer* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kSubmit: return "submit";
    case TraceKind::kQueueWait: return "queue_wait";
    case TraceKind::kClaim: return "claim";
    case TraceKind::kFeed: return "feed";
    case TraceKind::kDecode: return "decode";
    case TraceKind::kRepost: return "repost";
    case TraceKind::kComplete: return "complete";
    case TraceKind::kSteal: return "steal";
    case TraceKind::kTaskPost: return "task_post";
    case TraceKind::kTask: return "task";
  }
  return "unknown";
}

// ------------------------------------------------------------ TraceBuffer

TraceBuffer::TraceBuffer(std::string name, std::size_t capacity_pow2)
    : name_(std::move(name)),
      cap_(capacity_pow2),
      mask_(capacity_pow2 - 1),
      slots_(std::make_unique<Slot[]>(capacity_pow2)) {}

void TraceBuffer::record(TraceKind kind, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t a0,
                         std::uint64_t a1) noexcept {
  const std::uint64_t index = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[index & mask_];
  // Per-slot seqlock, fence-free (GCC's TSan does not instrument
  // atomic_thread_fence and rejects it under -Werror=tsan): mark the
  // slot busy, then publish every field with release. A reader that
  // acquire-loads a field and sees a new value therefore also sees the
  // busy marker on its trailing seq re-read; a reader that saw the
  // final packed seq first (acquire) sees every field store that
  // preceded it. Either way matching non-busy seqs around the field
  // loads imply a consistent event, and every access is atomic, so a
  // torn (and rejected) read is still race-free.
  s.seq.store(kEmptySeq, std::memory_order_relaxed);
  s.start_ns.store(start_ns, std::memory_order_release);
  s.end_ns.store(end_ns, std::memory_order_release);
  s.a0.store(a0, std::memory_order_release);
  s.a1.store(a1, std::memory_order_release);
  s.seq.store((index << 8) | static_cast<std::uint64_t>(kind),
              std::memory_order_release);
  head_.store(index + 1, std::memory_order_release);
}

std::uint64_t TraceBuffer::dropped() const noexcept {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  return h > cap_ ? h - cap_ : 0;
}

// ---------------------------------------------------------------- Tracer

Tracer::Tracer(const TraceOptions& opt)
    : cap_(round_up_pow2(std::max<std::size_t>(opt.buffer_events, 64))),
      base_(std::chrono::steady_clock::now()),
      id_(next_tracer_id()) {}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base_)
          .count());
}

TraceBuffer* Tracer::register_buffer(const std::string& name) {
  std::lock_guard lock(m_);
  buffers_.push_back(std::make_unique<TraceBuffer>(name, cap_));
  return buffers_.back().get();
}

TraceBuffer* Tracer::thread_buffer() {
  if (t_cache.tracer_id == id_) return t_cache.buffer;
  char name[32];
  std::snprintf(name, sizeof name, "thread %zu", [this] {
    std::lock_guard lock(m_);
    return buffers_.size();
  }());
  TraceBuffer* b = register_buffer(name);
  t_cache = {id_, b};
  return b;
}

void Tracer::export_json(std::ostream& os) const {
  std::vector<TraceBuffer*> buffers;
  {
    std::lock_guard lock(m_);
    buffers.reserve(buffers_.size());
    for (const auto& b : buffers_) buffers.push_back(b.get());
  }
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  char buf[256];
  for (std::size_t tid = 0; tid < buffers.size(); ++tid) {
    const TraceBuffer& b = *buffers[tid];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ", ", tid + 1, b.name().c_str());
    os << buf;
    first = false;
    const std::uint64_t head = b.head_.load(std::memory_order_acquire);
    const std::uint64_t have = std::min<std::uint64_t>(head, b.cap_);
    for (std::uint64_t i = head - have; i < head; ++i) {
      const TraceBuffer::Slot& s = b.slots_[i & b.mask_];
      // Acquire loads pair with the writer's release stores (see
      // record() for the fence-free seqlock argument).
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      const std::uint64_t start = s.start_ns.load(std::memory_order_acquire);
      const std::uint64_t end = s.end_ns.load(std::memory_order_acquire);
      const std::uint64_t a0 = s.a0.load(std::memory_order_acquire);
      const std::uint64_t a1 = s.a1.load(std::memory_order_acquire);
      const std::uint64_t s2 = s.seq.load(std::memory_order_relaxed);
      if (s1 == kEmptySeq || s1 != s2 || (s1 >> 8) != i)
        continue;  // empty, mid-write, or overwritten since the head read
      const TraceKind kind = static_cast<TraceKind>(s1 & 0xFF);
      const double ts_us = static_cast<double>(start) / 1000.0;
      if (end > start) {
        std::snprintf(buf, sizeof buf,
                      ", {\"name\": \"%s\", \"cat\": \"runtime\", \"ph\": "
                      "\"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, "
                      "\"dur\": %.3f, \"args\": {\"a0\": %" PRIu64
                      ", \"a1\": %" PRIu64 "}}",
                      trace_kind_name(kind), tid + 1, ts_us,
                      static_cast<double>(end - start) / 1000.0, a0, a1);
      } else {
        std::snprintf(buf, sizeof buf,
                      ", {\"name\": \"%s\", \"cat\": \"runtime\", \"ph\": "
                      "\"i\", \"s\": \"t\", \"pid\": 1, \"tid\": %zu, "
                      "\"ts\": %.3f, \"args\": {\"a0\": %" PRIu64
                      ", \"a1\": %" PRIu64 "}}",
                      trace_kind_name(kind), tid + 1, ts_us, a0, a1);
      }
      os << buf;
    }
  }
  std::snprintf(buf, sizeof buf,
                "], \"otherData\": {\"dropped_events\": %" PRIu64 "}}",
                dropped());
  os << buf;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(m_);
  std::uint64_t total = 0;
  for (const auto& b : buffers_) total += b->dropped();
  return total;
}

}  // namespace spinal::runtime

#else  // !SPINAL_RUNTIME_TRACE

namespace spinal::runtime {

const char* trace_kind_name(TraceKind) noexcept { return "disabled"; }

}  // namespace spinal::runtime

#endif  // SPINAL_RUNTIME_TRACE
