#pragma once
// The concrete CodecWorkspace of every spinal-decoder-backed session
// (AWGN/fading SpinalSession, BscSession, and the link-layer mux's raw
// block decodes): the beam-search DecodeWorkspace plus a DecodeResult
// scratch, pinned together per worker so steady-state attempts stay
// allocation-free. All spinal sessions key their workspaces under
// codec "spinal" with every CodeParams field serialized into the params
// string — equal keys guarantee interchangeable workspace layouts.

#include <cstdint>
#include <string>

#include "sim/session.h"
#include "spinal/cost_model.h"
#include "spinal/decoder.h"
#include "spinal/params.h"

namespace spinal::sim {

struct SpinalWorkspace final : CodecWorkspace {
  detail::DecodeWorkspace ws;
  DecodeResult out;
  /// Per-block result slots of batched decodes (try_decode_batch);
  /// sized to the batch, reused across batches.
  std::vector<DecodeResult> batch_out;
};

/// The WorkspaceKey all spinal sessions (and the mux) pin under.
inline WorkspaceKey spinal_workspace_key(const CodeParams& p) {
  std::string s;
  s.reserve(128);
  const auto add_i = [&s](long long v) {
    s += std::to_string(v);
    s += ';';
  };
  const auto add_d = [&s](double v) {
    s += std::to_string(v);
    s += ';';
  };
  add_i(p.n);
  add_i(p.k);
  add_i(p.c);
  add_i(p.B);
  add_i(p.d);
  add_i(p.tail_symbols);
  add_i(p.puncture_ways);
  add_i(static_cast<int>(p.map));
  add_i(static_cast<int>(p.hash_kind));
  add_d(p.beta);
  add_d(p.power);
  add_i(p.salt);
  add_i(p.s0);
  add_i(p.max_passes);
  add_i(p.fixed_point_frac_bits);
  // Narrow-metric decodes size quantized search buffers the f32 path
  // never touches — distinct precisions must not share a workspace.
  add_i(static_cast<int>(resolve_cost_precision(p.cost_precision)));
  return WorkspaceKey{"spinal", std::move(s)};
}

/// Child-node expansions of one bubble-decoder attempt: B·2^(k·d)
/// candidates per level over ⌈n/k⌉ levels — the per-attempt search size
/// that the fused-batching predicate below is stated on.
inline std::int64_t spinal_search_size(const CodeParams& p) {
  return static_cast<std::int64_t>(p.B) * (std::int64_t{1} << (p.k * p.d)) *
         ((p.n + p.k - 1) / p.k);
}

/// Largest per-attempt search size at which fused cross-session batching
/// still pays. Below it the per-claim runtime overhead (queue hop, clock
/// reads, workspace lookup, slot accounting) is a visible share of a
/// decode and one claim serving many jobs wins. Above it there is no
/// dependable win, while a multi-job claim still serializes its jobs
/// onto one worker as siblings idle and hides them from the effort
/// valve's queue-depth signal — costs that lock-step link rounds pay in
/// full. Chosen from the bench_runtime_batch_cut sweep
/// (bench/batch_cut_sweep.csv, closed-loop fleets at 1 and 2 workers):
/// batched claims beat solo ones in every paired repetition up to 512
/// expansions (medians 1.14-1.57x); from 1k to 65k the medians scatter
/// around break-even (0.92-1.11x) and all but one row's range straddles
/// 1. Reference sizes: the small-B BSC fleet (n 4-8, B=2) 32-64; the
/// example decode-server mix (n 96-192, B 64-256) >= 24.6k; link-layer
/// blocks (n=256, B=64) 65.5k.
inline constexpr std::int64_t kSpinalBatchCut = 512;

/// Whether fused batching pays for a spinal code (see kSpinalBatchCut).
inline bool spinal_batch_pays(const CodeParams& p) {
  return spinal_search_size(p) <= kSpinalBatchCut;
}

/// Batch key of a spinal session: the workspace key refined by channel
/// flavor ("spinal.awgn" / "spinal.bsc") and flagged batchable by
/// spinal_batch_pays. AWGN and BSC sessions deliberately share
/// spinal_workspace_key so a worker pins one scratch for both, but their
/// BlockJob types differ — batches must not mix them.
inline WorkspaceKey spinal_batch_key(const CodeParams& p, const char* flavor) {
  WorkspaceKey key = spinal_workspace_key(p);
  key.codec = flavor;
  key.batchable = spinal_batch_pays(p);
  return key;
}

}  // namespace spinal::sim
