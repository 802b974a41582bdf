// Decode-throughput microbenchmarks for the bubble-decoder hot path.
//
// Each benchmark feeds a fixed number of passes into a decoder once and
// then times repeated full decode attempts — the §4.5 receiver cost the
// batched SoA kernel targets. The AWGN (n=256, k=4, B=256, d=1) point is
// the tracked reference number for perf regressions; run with
// SPINAL_BENCH_THREADS=1 semantics (decode is single-threaded anyway).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "channel/awgn.h"
#include "channel/bsc.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "util/prng.h"

using namespace spinal;

namespace {

CodeParams make_params(int n, int k, int B, int d) {
  CodeParams p;
  p.n = n;
  p.k = k;
  p.B = B;
  p.d = d;
  return p;
}

/// Feeds the first @p subpasses punctured subpasses of noisy symbols
/// into @p dec.
void feed_awgn_subpasses(const CodeParams& p, SpinalDecoder& dec, int subpasses,
                         bool with_csi = false) {
  util::Xoshiro256 prng(7);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  channel::AwgnChannel ch(10.0, 11);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < subpasses; ++sp)
    for (const SymbolId& id : sched.subpass(sp)) {
      if (with_csi)
        dec.add_symbol(id, ch.transmit(enc.symbol(id)), {0.9f, 0.3f});
      else
        dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    }
}

/// Feeds @p passes unpunctured passes of noisy symbols into @p dec.
void feed_awgn(const CodeParams& p, SpinalDecoder& dec, int passes,
               bool with_csi = false) {
  feed_awgn_subpasses(p, dec, passes * PuncturingSchedule(p).subpasses_per_pass(),
                      with_csi);
}

void feed_bsc(const CodeParams& p, BscSpinalDecoder& dec, int passes) {
  util::Xoshiro256 prng(8);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  channel::BscChannel ch(0.03, 12);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < passes * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_bit(id, ch.transmit(enc.bit(id)));
}

/// args: n, k, B, d, then passes (or subpasses when @p subpasses).
/// Reports decoded message bits per second.
void decode_awgn(benchmark::State& state, bool subpasses) {
  const CodeParams p =
      make_params(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)), static_cast<int>(state.range(3)));
  SpinalDecoder dec(p);
  const int symbols = static_cast<int>(state.range(4));
  if (subpasses)
    feed_awgn_subpasses(p, dec, symbols);
  else
    feed_awgn(p, dec, symbols);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
void BM_DecodeAwgn(benchmark::State& state) { decode_awgn(state, false); }
// The tracked reference point (paper's recommended operating point).
BENCHMARK(BM_DecodeAwgn)
    ->Args({256, 4, 256, 1, 2})   // reference: n=256, k=4, B=256, d=1
    ->Args({256, 4, 64, 1, 2})    // narrower beam
    ->Args({1024, 4, 256, 1, 2})  // long block
    ->Args({96, 3, 64, 2, 2})     // deep bubble d=2
    ->Args({256, 4, 256, 2, 2})   // d=2 at the reference geometry
    ->Args({256, 4, 256, 1, 8})   // symbol-heavy (8 passes)
    ->Args({256, 4, 32, 1, 2})    // link geometry at the load valve's
    ->Args({256, 4, 16, 1, 2})    // reduced beams
    ->ArgNames({"n", "k", "B", "d", "passes"});
// Early attempts at the link geometry: after two subpasses a rateless
// receiver's first decode attempts run with most spine values still
// carrying no symbol, so their levels tie every child to its parent.
void BM_DecodeAwgnEarly(benchmark::State& state) { decode_awgn(state, true); }
BENCHMARK(BM_DecodeAwgnEarly)
    ->Name("BM_DecodeAwgn")
    ->Args({256, 4, 32, 1, 2})
    ->Args({256, 4, 16, 1, 2})
    ->ArgNames({"n", "k", "B", "d", "subpasses"});

/// Exact B-of-N selection (Backend::select_keys / select_keys_u32) on
/// keys shaped like one d=1 level's: children of ascending parent costs
/// (16 per parent) plus per-child metric noise, candidate index = slot;
/// the u32 form is the same costs on the renormalized u16 grid. Each
/// iteration copies the next of many seeded key sets into place first
/// (a count-sized memcpy, included in the time). The pool holds 2^18
/// keys (at least 64 sets): a short cycle of repeated inputs would let
/// the branch predictor learn them, which real decode keys never allow.
/// args: keep, count.
template <class K>
void BM_SelectKeys(benchmark::State& state) {
  const auto keep = static_cast<std::size_t>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const std::size_t kSets = std::max<std::size_t>(64, (std::size_t{1} << 18) / count);
  std::vector<K> pool(kSets * count), work(count);
  util::Xoshiro256 prng(21);
  std::vector<float> cost(count);
  for (std::size_t set = 0; set < kSets; ++set) {
    for (std::size_t i = 0; i < count; ++i) {
      const float parent = 40.0f + 6.0f * static_cast<float>(i / 16) /
                                       static_cast<float>(std::max<std::size_t>(1, count / 16));
      const auto u = static_cast<float>(prng.next_double());
      const auto v = static_cast<float>(prng.next_double());
      cost[i] = parent + 6.0f * (u * u + v * v);
    }
    const float lo = *std::min_element(cost.begin(), cost.end());
    for (std::size_t i = 0; i < count; ++i) {
      if constexpr (sizeof(K) == 8)
        pool[set * count + i] =
            static_cast<std::uint64_t>(backend::monotone_key(cost[i])) << 32 | i;
      else
        pool[set * count + i] = backend::quant_key(
            std::min(65535u, static_cast<std::uint32_t>((cost[i] - lo) * 16.0f + 0.5f)),
            static_cast<std::uint32_t>(i));
    }
  }
  const backend::Backend& be = backend::active();
  std::size_t set = 0;
  for (auto _ : state) {
    std::copy_n(pool.data() + set * count, count, work.data());
    if constexpr (sizeof(K) == 8)
      be.select_keys(work.data(), count, keep);
    else
      be.select_keys_u32(work.data(), count, keep);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
    set = (set + 1) % kSets;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(count));
}
void select_shapes(benchmark::internal::Benchmark* b) {
  static constexpr std::pair<int, int> kShapes[] = {
      {2, 32}, {16, 256}, {32, 512}, {64, 128}, {64, 512}, {256, 512}, {256, 1024}, {256, 4096}};
  for (const auto& [keep, count] : kShapes) b->Args({keep, count});
  b->ArgNames({"keep", "count"});
}
BENCHMARK(BM_SelectKeys<std::uint64_t>)->Name("BM_SelectKeys/u64")->Apply(select_shapes);
BENCHMARK(BM_SelectKeys<std::uint32_t>)->Name("BM_SelectKeys/u32")->Apply(select_shapes);

/// The quantized narrow-metric path (spinal/cost_model.h) at the
/// tracked reference geometry. args: precision (1 = u16, 2 = u8),
/// d. The u16 d=1 point is the tracked quantized reference; its ratio
/// against BM_DecodeAwgn's f32 reference from the *same run* is the
/// perf-gate number (same-day, same-binary comparison).
void BM_DecodeAwgnQuant(benchmark::State& state) {
  CodeParams p = make_params(256, 4, 256, static_cast<int>(state.range(1)));
  p.cost_precision = static_cast<CostPrecision>(state.range(0));
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnQuant)
    ->Args({1, 1})  // u16, d=1: tracked quantized reference
    ->Args({2, 1})  // u8, d=1
    ->Args({1, 2})  // u16, d=2
    ->ArgNames({"prec", "d"});

void BM_DecodeAwgnCsi(benchmark::State& state) {
  const CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2, /*with_csi=*/true);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnCsi)->Arg(256)->ArgName("B");

void BM_DecodeAwgnFixedPoint(benchmark::State& state) {
  CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  p.fixed_point_frac_bits = 6;
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnFixedPoint)->Arg(256)->ArgName("B");

/// args: B, passes.
void BM_DecodeBsc(benchmark::State& state) {
  CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  p.c = 1;
  BscSpinalDecoder dec(p);
  feed_bsc(p, dec, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeBsc)
    ->Args({256, 6})
    ->Args({64, 6})
    ->Args({256, 12})
    ->ArgNames({"B", "passes"});

// ---- Per-backend cases (registered at runtime: which backends exist
// is a CPU fact, not a compile-time one). Each pins one kernel backend
// for the tracked reference point, so the scalar vs SSE4.2 vs AVX2 vs
// NEON trajectory can be read off one run.

void BM_DecodeAwgnBackend(benchmark::State& state, const backend::Backend* b) {
  const std::string prev = backend::active().name;
  backend::force(b->name);
  const CodeParams p = make_params(256, 4, 256, 1);  // the reference point
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  backend::force(prev);
}

void BM_DecodeAwgnQuantBackend(benchmark::State& state, const backend::Backend* b) {
  const std::string prev = backend::active().name;
  backend::force(b->name);
  CodeParams p = make_params(256, 4, 256, 1);  // quantized reference point
  p.cost_precision = CostPrecision::kU16;
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  backend::force(prev);
}

void BM_DecodeBscBackend(benchmark::State& state, const backend::Backend* b) {
  const std::string prev = backend::active().name;
  backend::force(b->name);
  CodeParams p = make_params(256, 4, 256, 1);
  p.c = 1;
  BscSpinalDecoder dec(p);
  feed_bsc(p, dec, 6);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  backend::force(prev);
}

}  // namespace

int main(int argc, char** argv) {
  for (const backend::Backend* b : backend::available()) {
    const std::string awgn = "BM_DecodeAwgn/backend:" + std::string(b->name);
    const std::string quant = "BM_DecodeAwgnQuant/backend:" + std::string(b->name);
    const std::string bsc = "BM_DecodeBsc/backend:" + std::string(b->name);
    benchmark::RegisterBenchmark(awgn.c_str(), BM_DecodeAwgnBackend, b);
    benchmark::RegisterBenchmark(quant.c_str(), BM_DecodeAwgnQuantBackend, b);
    benchmark::RegisterBenchmark(bsc.c_str(), BM_DecodeBscBackend, b);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Stamped into the JSON context so perf snapshots record which kernel
  // backend the default (non-forced) cases actually ran.
  benchmark::AddCustomContext("spinal_backend", backend::active().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
