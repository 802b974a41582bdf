// Where does fused cross-session batching stop paying? The sweep behind
// sim::kSpinalBatchCut (src/sim/spinal_workspace.h).
//
// For a ladder of spinal geometries whose per-attempt search size
// B·2^k·⌈n/k⌉ spans 64 to 65536 node expansions, one closed-loop fleet
// (default admission cap, submit() backpressure from the main thread,
// 4 interleaved workspace keys, adaptation off so every attempt runs
// at configured beam width) is served two ways:
//
//   solo     every claim takes one job (max_batch = 1)
//   batched  claims take up to the default max_batch same-key jobs and
//            decode them in one fused try_decode_batch
//
// Both modes mark every session's batch key batchable regardless of the
// predicate, so the two differ only in how claims are formed. Modes
// alternate over paired repetitions; each row reports the median
// batched/solo ratio of decoded bits/s and its range. Per-session results must be
// identical across modes (scheduling changes, not decode changes).
//
// Run: ./build/bench/bench_runtime_batch_cut
// Repetitions scale with SPINAL_BENCH_TRIALS (default 5 pairs). Output:
// '#' comment lines + CSV rows (search_size,B,n,channel,workers,
// sessions,solo_bps,batched_bps,ratio_median,ratio_min,ratio_max).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "runtime/decode_service.h"
#include "sim/bsc_session.h"
#include "sim/spinal_session.h"
#include "util/prng.h"

using namespace spinal;
using namespace spinal::runtime;

namespace {

/// A spinal session whose batch key is batchable regardless of the
/// predicate, so the runtime's claim policy alone decides whether jobs
/// batch. (Batched decodes downcast peers to Base, which this is.)
template <class Base>
class ForceBatchable final : public Base {
 public:
  using Base::Base;
  sim::WorkspaceKey batch_key() const override {
    sim::WorkspaceKey key = Base::batch_key();
    key.batchable = true;
    return key;
  }
};

struct Geometry {
  int B, n;
  bool bsc;
};

SessionSpec make_spec(const Geometry& g, int i) {
  util::Xoshiro256 prng(0xC07C0000u + static_cast<std::uint64_t>(i));
  CodeParams p;
  p.n = g.n;
  p.B = g.B;
  p.max_passes = 32 + i % 4;  // 4 interleaved keys of identical cost
  SessionSpec spec;
  spec.channel.seed = 0xC07CC000u + static_cast<std::uint64_t>(i);
  if (g.bsc) {
    p.c = 1;
    spec.make_session = [p] {
      return std::make_unique<ForceBatchable<sim::BscSession>>(p);
    };
    spec.channel.kind = sim::ChannelKind::kBsc;
    spec.channel.crossover = 0.02;
  } else {
    spec.make_session = [p] {
      return std::make_unique<ForceBatchable<sim::SpinalSession>>(p);
    };
    spec.channel.snr_db = 12.0;
  }
  spec.message = prng.random_bits(p.n);
  return spec;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace

int main() {
  benchutil::banner("runtime fused-batching cut",
                    "batched vs solo claims by per-attempt search size");
  const int reps = std::max(3, benchutil::trials(5));
  const std::vector<Geometry> ladder = {
      {2, 8, true},    {4, 16, true},   {8, 16, true},   {8, 32, true},
      {16, 32, true},  {16, 64, true},  {32, 64, true},  {64, 64, true},
      {64, 128, true}, {64, 256, true}, {8, 32, false},  {16, 64, false},
      {64, 256, false}};
  std::printf("# %d paired repetitions per row, modes alternating\n", reps);
  std::printf("search_size,B,n,channel,workers,sessions,solo_bps,batched_bps,"
              "ratio_median,ratio_min,ratio_max\n");
  bool identical = true;
  for (const Geometry& g : ladder) {
    CodeParams p;
    p.n = g.n;
    p.B = g.B;
    const std::int64_t size = sim::spinal_search_size(p);
    // Roughly constant work per run across the ladder.
    const int sessions = static_cast<int>(
        std::clamp<std::int64_t>(4'000'000 / size, 96, 6000));
    for (int workers : {1, 2}) {
      std::vector<double> bps[2], ratio;
      std::vector<SessionReport> ref;
      for (int rep = 0; rep < reps; ++rep) {
        double rate[2] = {0.0, 0.0};
        for (int mode = 0; mode < 2; ++mode) {
          RuntimeOptions opt;
          opt.workers = workers;
          opt.adapt.enabled = false;
          if (mode == 0) opt.batch.max_batch = 1;
          const auto t0 = std::chrono::steady_clock::now();
          std::vector<SessionReport> reports;
          {
            DecodeService service(opt);
            for (int i = 0; i < sessions; ++i) service.submit(make_spec(g, i));
            reports = service.drain();
          }
          const double wall = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          long bits = 0;
          for (const SessionReport& r : reports)
            if (r.run.success) bits += r.message_bits;
          rate[mode] = static_cast<double>(bits) / wall;
          bps[mode].push_back(rate[mode]);
          if (ref.empty()) {
            ref = reports;
          } else {
            for (std::size_t i = 0; i < reports.size(); ++i)
              if (reports[i].run.success != ref[i].run.success ||
                  reports[i].run.symbols != ref[i].run.symbols ||
                  reports[i].run.attempts != ref[i].run.attempts)
                identical = false;
          }
        }
        ratio.push_back(rate[1] / rate[0]);
      }
      std::printf("%lld,%d,%d,%s,%d,%d,%.0f,%.0f,%.3f,%.3f,%.3f\n",
                  static_cast<long long>(size), g.B, g.n, g.bsc ? "bsc" : "awgn",
                  workers, sessions, median(bps[0]), median(bps[1]),
                  median(ratio), *std::min_element(ratio.begin(), ratio.end()),
                  *std::max_element(ratio.begin(), ratio.end()));
      std::fflush(stdout);
    }
  }
  if (!identical) {
    std::fprintf(stderr, "DETERMINISM VIOLATION: per-session results differ "
                         "between solo and batched claims\n");
    return 1;
  }
  return 0;
}
