#pragma once
// Always-available runtime event tracer: per-thread lock-free ring
// buffers of fixed-size span/instant events, exported as Perfetto /
// chrome://tracing JSON.
//
// Design constraints, in order:
//   1. Recording must be cheap enough to leave on under load: one slot
//      write is a handful of relaxed atomic stores plus a release store
//      of the buffer head — no locks, no allocation (the ring is sized
//      at construction), no formatting.
//   2. A full ring drops the *oldest* events (overwrite), never blocks
//      the recording thread; dropped() reports how many were lost.
//   3. Export is race-free against live recording (TSan-clean): slot
//      fields are atomics and every slot carries its sequence number,
//      so a reader detects and skips slots overwritten mid-read. A
//      quiesced export (after drain()) is exact.
//   4. Compiled out to nothing when SPINAL_RUNTIME_TRACE=0 (CMake
//      -DSPINAL_RUNTIME_TRACE=OFF): the API shrinks to inline no-ops so
//      call sites need no #ifdefs and the optimizer erases them.
//
// Event vocabulary (runtime stages): submit, queue-wait, claim, feed,
// decode, repost, complete, steal, task-post, task. Each event
// is {kind, start_ns, end_ns, a0, a1} on a named per-thread timeline;
// start == end renders as an instant.

#include <cstdint>
#include <ostream>
#include <string>

#ifndef SPINAL_RUNTIME_TRACE
#define SPINAL_RUNTIME_TRACE 1
#endif

namespace spinal::runtime {
/// True when the tracer is compiled in (callers gate Tracer creation on
/// this so a compiled-out build never pays even the stub object).
inline constexpr bool kRuntimeTraceCompiled = SPINAL_RUNTIME_TRACE != 0;
}  // namespace spinal::runtime

#if SPINAL_RUNTIME_TRACE
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>
#endif

namespace spinal::runtime {

enum class TraceKind : std::uint8_t {
  kSubmit = 0,     ///< instant: session admitted (a0 = session id, a1 = shard)
  kQueueWait = 1,  ///< span: head-of-claim enqueue -> claim (a0 = jobs, a1 = tag)
  kClaim = 2,      ///< span: pop_batch call (a0 = jobs claimed, a1 = shard)
  /// span: symbol streaming / batch assembly (a0 = jobs decoded, a1 =
  /// channel symbols this claim fed them — the feed-counter increment;
  /// a give-up tail is counted at completion instead)
  kFeed = 3,
  kDecode = 4,     ///< span: fused decode attempt (a0 = jobs, a1 = effort)
  kRepost = 5,     ///< span: continuation re-enqueue (a0 = jobs)
  kComplete = 6,   ///< instant: session finished (a0 = session id, a1 = success)
  kSteal = 7,      ///< instant: batch stolen (a0 = jobs, a1 = victim shard)
  kTaskPost = 8,   ///< instant: external task posted (post())
  kTask = 9,       ///< span: external posted task
};

/// Name used in the exported JSON (stable: tools/trace_report.py keys
/// on these).
const char* trace_kind_name(TraceKind k) noexcept;

struct TraceOptions {
  bool enabled = false;
  /// Ring capacity per thread, in events (rounded up to a power of
  /// two). 1<<15 events * 40 B = 1.25 MiB per recording thread.
  std::size_t buffer_events = 1 << 15;
};

#if SPINAL_RUNTIME_TRACE

class Tracer;

/// Single-writer event ring. Writers call record(); any thread may read
/// concurrently through Tracer::export_json (seq-checked slots).
class TraceBuffer {
 public:
  TraceBuffer(std::string name, std::size_t capacity_pow2);

  void record(TraceKind kind, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t a0 = 0, std::uint64_t a1 = 0) noexcept;
  void instant(TraceKind kind, std::uint64_t ns, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0) noexcept {
    record(kind, ns, ns, a0, a1);
  }

  const std::string& name() const noexcept { return name_; }
  /// Events overwritten before export could see them.
  std::uint64_t dropped() const noexcept;

 private:
  friend class Tracer;
  struct Slot {
    std::atomic<std::uint64_t> seq{~std::uint64_t{0}};  ///< event index | kind in low byte
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<std::uint64_t> a0{0};
    std::atomic<std::uint64_t> a1{0};
  };

  std::string name_;
  std::size_t cap_;   ///< power of two
  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< events ever recorded
};

/// Owns the per-thread buffers and the trace clock. Buffers register on
/// first use and live until the tracer dies, so recording threads never
/// synchronize with each other — only registration and export take the
/// tracer mutex.
class Tracer {
 public:
  explicit Tracer(const TraceOptions& opt);

  /// Nanoseconds since tracer construction (the exported timebase).
  std::uint64_t now_ns() const noexcept;

  /// Registers a new named timeline (one per worker thread).
  TraceBuffer* register_buffer(const std::string& name);

  /// The calling thread's buffer, created ("thread N") on first use and
  /// cached thread-locally — submit-side instants from arbitrary
  /// threads record without registration ceremony.
  TraceBuffer* thread_buffer();

  /// chrome://tracing / Perfetto JSON ("traceEvents" array of X/i
  /// events plus thread_name metadata). Safe concurrently with live
  /// recording; slots overwritten mid-read are skipped.
  void export_json(std::ostream& os) const;

  std::uint64_t dropped() const;

 private:
  std::size_t cap_;
  std::chrono::steady_clock::time_point base_;
  std::uint64_t id_;  ///< process-unique, for thread-local cache validity
  mutable std::mutex m_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

#else  // SPINAL_RUNTIME_TRACE == 0: the whole subsystem is inline no-ops.

class TraceBuffer {
 public:
  void record(TraceKind, std::uint64_t, std::uint64_t, std::uint64_t = 0,
              std::uint64_t = 0) noexcept {}
  void instant(TraceKind, std::uint64_t, std::uint64_t = 0,
               std::uint64_t = 0) noexcept {}
  const std::string& name() const noexcept { return empty_; }
  std::uint64_t dropped() const noexcept { return 0; }

 private:
  std::string empty_;
};

class Tracer {
 public:
  explicit Tracer(const TraceOptions&) {}
  std::uint64_t now_ns() const noexcept { return 0; }
  TraceBuffer* register_buffer(const std::string&) { return &stub_; }
  TraceBuffer* thread_buffer() { return &stub_; }
  void export_json(std::ostream& os) const { os << "{\"traceEvents\": []}"; }
  std::uint64_t dropped() const { return 0; }

 private:
  TraceBuffer stub_;
};

#endif  // SPINAL_RUNTIME_TRACE

}  // namespace spinal::runtime
