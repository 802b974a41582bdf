// perfbench: the repository benchmark (see README.md in this directory).
//
//   perfbench --workload link_mux|fleet_mixed|fleet_small_b --seed N
//             --seconds S --trace 0|1 [--git-sha SHA]
//
// Runs whole passes of the workload until S seconds are used, then
// prints human-readable '#' lines and, as the last line, one JSON
// object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "backend/backend.h"
#include "runtime/trace.h"
#include "spinal/cost_model.h"
#include "workloads.h"

namespace perfbench {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kBare: return "bare";
    case Mode::kStamp: return "untraced";
    case Mode::kTraced: return "traced";
  }
  return "?";
}

namespace {

/// The per-layer metrics every traced run prints, in BENCHMARK.json
/// order, with their units.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs{
      {"decoder.attempt_us_p50", "us"},
      {"decoder.attempt_us_p99", "us"},
      {"decoder.attempts_per_message", "count"},
      {"decoder.reduced_effort_share", "share"},
      {"encoder.ns_per_symbol", "ns"},
      {"channel.ns_per_symbol", "ns"},
      {"receiver.ingest_ns_per_symbol", "ns"},
      {"decode_service.submit_wait_us_p50", "us"},
      {"decode_service.submit_wait_us_p99", "us"},
      {"decode_service.queue_wait_us_p50", "us"},
      {"decode_service.queue_wait_us_p99", "us"},
      {"decode_service.batch_jobs_mean", "count"},
      {"decode_service.worker_busy_share", "share"},
      {"job_queue.steals_per_kjob", "count"},
      {"decode_service.rss_kb_per_message", "kB"},
      {"generator.busy_share", "share"},
      {"session_mux.stale_symbols_per_datagram", "count"},
      {"session_mux.round_wait_share", "share"},
      {"link.rounds_per_datagram_p50", "count"},
      {"link.rounds_per_datagram_p99", "count"},
      {"link.crc_false_accepts", "count"},
      {"overhead.traced_goodput_ratio", "ratio"},
      {"overhead.decorator_goodput_ratio", "ratio"},
  };
  return specs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "link_mux|fleet_mixed|fleet_small_b --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10), have_seed = true;
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--git-sha") a.git_sha = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1))
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  return a;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Aggregate steal ticks (8th field of the "cpu" line of /proc/stat).
long long steal_ticks() {
  std::istringstream in(read_first_line("/proc/stat"));
  std::string cpu;
  long long v[8] = {};
  in >> cpu;
  for (long long& x : v) in >> x;
  return v[7];
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Shortest round-trip decimal form of @p v (all its digits).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* precision_name(spinal::CostPrecision p) {
  switch (p) {
    case spinal::CostPrecision::kFloat32: return "f32";
    case spinal::CostPrecision::kU16: return "u16";
    case spinal::CostPrecision::kU8: return "u8";
  }
  return "?";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);

  // Pinned configuration: these variables would change what is
  // measured (kernel backend, cost precision, worker count).
  for (const char* var :
       {"SPINAL_BACKEND", "SPINAL_COST_PRECISION", "SPINAL_BENCH_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  std::unique_ptr<Workload> w;
  if (args.workload == "link_mux") w = make_link_mux(args.seed);
  else if (args.workload == "fleet_mixed") w = make_fleet_mixed(args.seed);
  else if (args.workload == "fleet_small_b") w = make_fleet_small_b(args.seed);
  else usage(("unknown workload " + args.workload).c_str());

  const std::string load_start = read_first_line("/proc/loadavg");
  const long long steal_start = steal_ticks();
  const bool traced_run = args.trace == 1;

  std::vector<Mode> cycle{Mode::kStamp};
  if (traced_run) {
    cycle = {Mode::kStamp, Mode::kTraced};
    if (w->decorated()) cycle.push_back(Mode::kBare);
  }
  SpanRecorder spans;
  std::vector<std::string> notes;
  std::string check_error;
  if (traced_run) check_error = w->check_decorator(notes);

  std::vector<PassResult> passes;
  LogHistogram latency;         // untraced passes, pooled
  std::vector<double> pass_p50;  // untraced passes
  const std::int64_t t_start = now_ns();
  std::int64_t last_pass_ns = 0;
  for (std::size_t i = 0;; ++i) {
    const double used_s = static_cast<double>(now_ns() - t_start) / 1e9;
    const bool cycle_done = i >= cycle.size();
    if (i > 0 && cycle_done &&
        used_s + static_cast<double>(last_pass_ns) / 1e9 > args.seconds)
      break;
    // Hand the previous pass's freed heap back to the OS, so every pass
    // starts from the same resident set and peak RSS does not depend
    // on how many passes the run fitted in.
    malloc_trim(0);
    const std::int64_t p0 = now_ns();
    PassResult p = w->run_pass(cycle[i % cycle.size()], &spans);
    last_pass_ns = now_ns() - p0;
    const double p50 = quantile(p.latency_ms, 0.50);
    const double p99 = quantile(p.latency_ms, 0.99);
    std::printf("# pass %zu %-8s setup %.4f s  window %.3f s  goodput %.0f bit/s"
                "  admitted %.0f bit/s  cpu %.1f ns/bit  latency p50 %.4g p99 "
                "%.4g ms  delivered %ld/%ld  crc-false-accepts %ld  resends %ld%s%s\n",
                i, mode_name(p.mode), p.setup_s, p.window_s,
                p.bits / p.window_s, p.admit_bps, p.cpu_ns / p.bits, p50, p99,
                p.delivered, p.started, p.crc_false_accepts, p.resends,
                p.accounting_error.empty() ? "" : "  ACCOUNTING: ",
                p.accounting_error.c_str());
    if (p.mode == Mode::kStamp) {
      pass_p50.push_back(p50);
      for (double ms : p.latency_ms) latency.add(ms);
    }
    p.latency_ms = {};  // pooled above; a run's memory must not grow per pass
    passes.push_back(std::move(p));
  }

  // ---- aggregate -----------------------------------------------------
  long attempted = 0, failed = 0, delivered = 0, crc_false = 0;
  bool correct = check_error.empty();
  double bits = 0, symbols = 0;
  std::vector<double> goodput, cpu_per_bit, setup;
  std::vector<double> traced_goodput, bare_admit, stamp_admit;
  std::map<std::string, std::vector<double>> layer;
  for (const PassResult& p : passes) {
    attempted += p.started;
    failed += p.failed;
    delivered += p.delivered;
    crc_false += p.crc_false_accepts;
    if (!p.accounting_error.empty()) correct = false;
    if (p.mode == Mode::kBare) {
      bare_admit.push_back(p.admit_bps);
      continue;
    }
    if (p.mode == Mode::kTraced) {
      traced_goodput.push_back(p.bits / p.window_s);
      for (const auto& [k, v] : p.layer) layer[k].push_back(v);
      for (const std::string& n : p.notes) notes.push_back(n);
      continue;
    }
    stamp_admit.push_back(p.admit_bps);
    goodput.push_back(p.bits / p.window_s);
    cpu_per_bit.push_back(p.cpu_ns / p.bits);
    setup.push_back(p.setup_s);
    bits += p.bits;
    symbols += p.symbols;
  }

  const std::string backend = spinal::backend::active().name;
  const char* precision = precision_name(
      spinal::resolve_cost_precision(spinal::CostPrecision::kFloat32));
  char nproc[16];
  std::snprintf(nproc, sizeof nproc, "%ld", sysconf(_SC_NPROCESSORS_ONLN));
  std::ostringstream stamp;
  stamp << "{\"workload\":\"" << w->name() << "\",\"seed\":" << args.seed
        << ",\"trace\":" << args.trace << ",\"workers\":2"
        << ",\"backend\":\"" << backend << "\",\"cost_precision\":\""
        << precision << "\",\"runtime_trace_compiled\":"
        << (spinal::runtime::kRuntimeTraceCompiled ? "true" : "false")
        << ",\"cpu_model\":\"" << json_escape(cpu_model())
        << "\",\"nproc\":" << nproc << ",\"git_sha\":\""
        << json_escape(args.git_sha) << "\",\"loadavg_start\":\""
        << json_escape(load_start) << "\",\"loadavg_end\":\""
        << json_escape(read_first_line("/proc/loadavg"))
        << "\",\"steal_ticks_start\":" << steal_start
        << ",\"steal_ticks_end\":" << steal_ticks()
        << ",\"passes\":" << passes.size() << "}";
  std::printf("# stamp %s\n", stamp.str().c_str());
  for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
  if (!check_error.empty())
    std::printf("# DECORATOR CHECK FAILED: %s\n", check_error.c_str());

  std::ostringstream m;
  auto metric = [&m, first = true](const std::string& name, double v,
                                   const char* unit) mutable {
    m << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num(v)
      << ", \"unit\": \"" << unit << "\"}";
    first = false;
    std::printf("# %-40s %16.6g %s\n", name.c_str(), v, unit);
  };
  if (!traced_run) {
    std::printf("# %llu latency samples (messages completed in the steady "
                "windows of %zu passes); ms at p10 %.4g p25 %.4g p50 %.4g "
                "p75 %.4g p90 %.4g p99 %.4g p99.9 %.4g\n",
                static_cast<unsigned long long>(latency.count()), goodput.size(),
                latency.quantile(0.10), latency.quantile(0.25),
                latency.quantile(0.50), latency.quantile(0.75),
                latency.quantile(0.90), latency.quantile(0.99),
                latency.quantile(0.999));
    metric("goodput_bps", median(goodput), "bit/s");
    metric("latency_p50_ms", median(pass_p50), "ms");
    metric("latency_p99_ms", latency.quantile(0.99), "ms");
    metric("cpu_ns_per_bit", median(cpu_per_bit), "ns");
    metric("rate_bits_per_symbol", bits / symbols, "bit/symbol");
    metric("delivered_share",
           static_cast<double>(delivered) / static_cast<double>(attempted),
           "share");
    metric("setup_s", median(setup), "s");
    metric("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MiB");
  } else {
    const double g_untraced = median(goodput);
    const double g_traced = median(traced_goodput);
    const double decorator_ratio =
        w->decorated() ? median(stamp_admit) / median(bare_admit) : 1.0;
    std::printf("# goodput untraced %.0f bit/s, traced %.0f bit/s: tracing "
                "costs %.1f%%\n",
                g_untraced, g_traced, 100.0 * (1.0 - g_traced / g_untraced));
    if (w->decorated())
      std::printf("# admitted bit/s bare %.0f, with the untraced decorator "
                  "%.0f: the decorator costs %.1f%%\n",
                  median(bare_admit), median(stamp_admit),
                  100.0 * (1.0 - decorator_ratio));
    else
      std::printf("# overhead.decorator_goodput_ratio: %s has no decorator\n",
                  w->name().c_str());
    for (const auto& [name, why] : w->not_applicable())
      std::printf("# n/a on %s (printed as 0): %s: %s\n", w->name().c_str(),
                  name.c_str(), why.c_str());
    layer["link.crc_false_accepts"] = {static_cast<double>(crc_false)};
    layer["overhead.traced_goodput_ratio"] = {g_traced / g_untraced};
    layer["overhead.decorator_goodput_ratio"] = {decorator_ratio};
    for (const LayerMetricSpec& s : layer_metric_specs()) {
      const auto it = layer.find(s.name);
      metric(s.name, it == layer.end() ? 0.0 : median(it->second), s.unit);
    }
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace_" + w->name() + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (spans.write_chrome_trace(path, stamp.str()))
      std::printf("# chrome trace: %s (%llu spans, %llu dropped)\n",
                  path.c_str(), static_cast<unsigned long long>(spans.stored()),
                  static_cast<unsigned long long>(spans.dropped()));
    else
      std::printf("# chrome trace: could not write %s\n", path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, m.str().c_str());
  return correct ? 0 : 1;
}
