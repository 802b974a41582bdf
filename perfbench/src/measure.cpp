#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::atomic<std::uint64_t> g_recorder_ids{1};

}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

long current_rss_kb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(v[hi])) return frac > 0.0 ? v[hi] : v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {
constexpr double kHistMin = 1e-6;  // smallest resolved value
constexpr double kHistGrowth = 1.001;
const double kLogGrowth = std::log(kHistGrowth);
constexpr std::size_t kHistBuckets = 40000;  // 1e-6 .. ~2e11
}  // namespace

LogHistogram::LogHistogram() : counts_(kHistBuckets + 1, 0) {}

void LogHistogram::add(double x) {
  std::size_t b = kHistBuckets;  // +inf and overflow
  if (x <= kHistMin)
    b = 0;
  else if (std::isfinite(x))
    b = std::min(kHistBuckets - 1,
                 static_cast<std::size_t>(std::log(x / kHistMin) / kLogGrowth));
  ++counts_[b];
  ++n_;
}

double LogHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    seen += counts_[b];
    if (seen > rank)
      return kHistMin * std::exp((static_cast<double>(b) + 0.5) * kLogGrowth);
  }
  return std::numeric_limits<double>::infinity();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SpanRecorder::SpanRecorder()
    : id_(g_recorder_ids.fetch_add(1)),
      t_origin_(now_ns()) {}

SpanRecorder::Buffer& SpanRecorder::local() {
  thread_local std::uint64_t cached_id = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_id != id_) {
    auto buf = std::make_unique<Buffer>();
    buf->spans.reserve(4096);
    std::lock_guard lock(m_);
    buf->name = "thread " + std::to_string(buffers_.size());
    cached = buf.get();
    buffers_.push_back(std::move(buf));
    cached_id = id_;
  }
  return *cached;
}

void SpanRecorder::record(const char* name, std::int64_t t0, std::int64_t t1,
                          std::int64_t msg, std::int32_t n) {
  Buffer& b = local();
  if (b.spans.size() >= kMaxPerThread) {
    ++b.dropped;
    return;
  }
  b.spans.push_back({name, t0, t1, msg, n});
}

void SpanRecorder::name_thread(const std::string& name) {
  Buffer& b = local();
  std::lock_guard lock(m_);
  b.name = name;
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard lock(m_);
  std::uint64_t d = 0;
  for (const auto& b : buffers_) d += b->dropped;
  return d;
}

std::uint64_t SpanRecorder::stored() const {
  std::lock_guard lock(m_);
  std::uint64_t s = 0;
  for (const auto& b : buffers_) s += b->spans.size();
  return s;
}

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& stamp_json) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(m_);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char line[256];
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    const Buffer& b = *buffers_[tid];
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << b.name << "\"}}";
    for (const Span& s : b.spans) {
      const double ts = static_cast<double>(s.t0_ns - t_origin_) / 1000.0;
      const bool instant = s.t1_ns == s.t0_ns;
      if (instant)
        std::snprintf(line, sizeof line,
                      ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"pid\":1,"
                      "\"tid\":%zu,\"ts\":%.3f,\"args\":{\"msg\":%lld,\"n\":%d}}",
                      s.name, tid, ts, static_cast<long long>(s.msg), s.n);
      else
        std::snprintf(line, sizeof line,
                      ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"msg\":%lld,\"n\":%d}}",
                      s.name, tid, ts,
                      static_cast<double>(s.t1_ns - s.t0_ns) / 1000.0,
                      static_cast<long long>(s.msg), s.n);
      out << line;
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << stamp_json << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
