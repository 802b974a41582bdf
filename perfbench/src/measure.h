#pragma once
// Clocks, resource counters, order statistics and the in-memory span
// recorder shared by the perfbench workloads. Everything here observes
// the library from outside: the workloads time calls into its public
// functions and read its public telemetry.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();
/// User+system CPU time of the whole process.
std::int64_t process_cpu_ns();
/// CPU time of the calling thread.
std::int64_t thread_cpu_ns();
/// ru_maxrss of the process, KiB.
long peak_rss_kb();
/// Current resident set, KiB (/proc/self/statm).
long current_rss_kb();

/// Quantile with linear interpolation between order statistics
/// (numpy's default); sorts @p v in place. 0 for an empty vector.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Log-bucketed histogram (0.1% wide buckets) that pools samples
/// across passes in constant memory, so a run's footprint does not grow
/// with the number of passes it fits in. +inf counts above every bucket.
class LogHistogram {
 public:
  LogHistogram();
  void add(double x);
  std::uint64_t count() const { return n_; }
  /// Geometric centre of the bucket holding rank q * (count - 1).
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// Mixes a workload seed with stream indices into an independent
/// 64-bit seed (splitmix64 finalizer).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// One message-scoped span for the chrome-trace export.
struct Span {
  const char* name;    ///< static string: layer boundary
  std::int64_t t0_ns;
  std::int64_t t1_ns;  ///< == t0_ns for an instant
  std::int64_t msg;    ///< message id (-1: round- or batch-scoped)
  std::int32_t n;      ///< items covered (symbols, batch jobs)
};

/// Per-thread span buffers, appended without locks after a thread's
/// first record; exported once the run ends. Bounded: past kMaxPerThread
/// spans per thread further spans are counted, not stored.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void record(const char* name, std::int64_t t0, std::int64_t t1,
              std::int64_t msg, std::int32_t n = 0);
  /// Names the calling thread's timeline in the export.
  void name_thread(const std::string& name);

  /// Writes chrome-trace JSON ("traceEvents" + "otherData" from
  /// @p stamp_json, an already-serialized JSON object). Returns false
  /// if the file could not be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& stamp_json) const;
  std::uint64_t dropped() const;
  std::uint64_t stored() const;

 private:
  struct Buffer {
    std::string name;
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };
  Buffer& local();

  static constexpr std::size_t kMaxPerThread = 200000;
  const std::uint64_t id_;  ///< distinguishes recorders in the thread cache
  std::int64_t t_origin_;
  mutable std::mutex m_;  ///< guards buffers_ (registration + export)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Named per-layer metric values of one pass (or one run).
using LayerMetrics = std::map<std::string, double>;

}  // namespace perfbench
