#pragma once
// The bubble decoder's tree search core (§4.3, Fig 4-1).
//
// Beam entries are subtrees: a root at depth t plus all descendants out
// to depth t+d-1 (the "partial trees of depth d-1" of Fig 4-1a). One
// step expands every leaf by one level (B·2^(kd) new nodes, §4.5),
// regroups the expanded nodes into the 2^k child subtrees of each root
// (Fig 4-1b/c), and keeps the B best-scoring subtrees (Fig 4-1d).
// With d=1 this is exactly the classical M-algorithm; with d = n/k and
// B >= 2^k it degenerates to exact ML over the full tree.
//
// The Env policy supplies the code structure and branch metric:
//   std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const;
//   float node_cost(int spine_idx, std::uint32_t state) const;
// node_cost must return 0 for spine values with no received symbols, so
// puncturing needs no special handling here (§5).
//
// An Env may additionally provide the fused batched expansion kernel
//   void expand_all(int spine_idx, const std::uint32_t* states,
//                   std::size_t count, int fanout,
//                   std::uint32_t* out_states, float* out_costs) const;
// computing, child-major, out_states[i*fanout + v] = child(states[i], v)
// and out_costs[i*fanout + v] = node_cost(spine_idx, out_states[...])
// for every chunk value v < fanout over a contiguous leaf block. When
// present, the search runs as a *streaming expand–prune pipeline*
// instead of the historical materialize-then-select contract:
//
//   - leaves are expanded in blocks (a few hundred children at a
//     time), never into a monolithic [leaf][fanout] candidate buffer;
//   - an online pruning threshold — the running B-th-best candidate
//     bound, tightened by block-local set-only selections over a small
//     survivor set — discards losing children as each block's costs
//     come out of the kernel, without writing them anywhere;
//   - because kept beams are cost-sorted, whole trailing leaf blocks
//     (d=1) or entries (d>1) are skipped outright once the parent cost
//     alone exceeds the bound; and
//   - at d>1 the regroup runs as a backend kernel over whole child
//     rows (every child of a leaf shares its root group), replacing
//     the old scalar scatter.
//
// Pruning is admissible, not approximate: a candidate is discarded
// only when its cost provably exceeds the current keep-th-best bound,
// so the kept set — and, through the packed (cost, index) keys, every
// deterministic tie-break — is bit-identical to full expand+select and
// to the retained scalar reference path (see test_decoder_golden.cpp
// and the streaming property tests). This leans on the batched Env
// contract that node costs are non-negative (all channel metrics are)
// and never -0.0f. The search allocates nothing once its
// SearchWorkspace buffers reach steady-state capacity, so repeated
// decode attempts are allocation-free.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <vector>

#include "backend/backend.h"
#include "spinal/params.h"

namespace spinal::detail {

/// Order-preserving float-to-integer selection key; canonical
/// definition lives with the kernel backends (backend/backend.h).
using backend::monotone_key;

struct SearchResult {
  std::vector<std::uint32_t> chunks;  ///< decoded chunk values, index 0 .. n/k-1
  double best_cost = 0.0;             ///< path cost of the returned leaf
};

/// Backtracking arena entry: one node per selected subtree per step.
struct ArenaNode {
  std::int32_t parent;
  std::uint32_t chunk;
};

/// Scratch buffers for BeamSearch::run. Reusing one workspace across
/// attempts keeps the steady state allocation-free: every buffer is
/// sized by assign/resize, which only touch the heap while the high-water
/// capacity is still growing (sizes depend only on the CodeParams, so
/// after the first full run they never grow again). The streamed path
/// materializes candidate *costs* one expansion block at a time and
/// candidate *keys* only for bound survivors, where the retired
/// materialize-then-select contract wrote the full B·2^k cost and key
/// arrays every level.
struct SearchWorkspace {
  std::vector<std::uint32_t> leaf_state, leaf_path, next_state, next_path;
  std::vector<float> leaf_cost, next_cost;
  std::vector<std::int32_t> entry_arena, next_entry_arena;
  std::vector<ArenaNode> arena;

  // ---- Streamed pipeline ----
  // Candidate *costs* only ever exist one expansion block at a time
  // (child_cost); candidate *keys* only as the pruned survivor set.
  // Child states (d=1) and surviving group rows (d>1) land in
  // candidate-indexed buffers so the writeback needs no bookkeeping
  // beyond the candidate index in each survivor key's low word.
  std::vector<std::uint32_t> child_state;  ///< d=1: whole level; d>1: one block
  std::vector<float> child_cost;           ///< one expansion block, child-major
  std::vector<std::uint64_t> keys;   ///< survivor keys (monotone cost, cand index)
  std::vector<std::uint32_t> surv_state;  ///< d>1 leaf rows, candidate-indexed
  std::vector<float> surv_cost;           ///< d>1 leaf rows, candidate-indexed
  std::vector<std::uint32_t> surv_path;   ///< d>1 leaf rows, candidate-indexed
  std::vector<float> row_min;             ///< d>1: per-leaf row minima (block)
  std::vector<float> group_min;           ///< d>1: per-entry group minima
  std::vector<std::int32_t> group_rowbase;  ///< d>1: group -> arena rows, -1 pruned

  // ---- Quantized (u16 path metric) streamed pipeline ----
  // The narrow-precision twin of the buffers above: u16 costs, u32
  // packed (cost << 16 | candidate) survivor keys. Only touched when
  // the Env routes a decode through the quantized kernels, so the f32
  // path's steady-state footprint is unchanged.
  std::vector<std::uint16_t> leaf_cost_q, next_cost_q, child_cost_q, surv_cost_q,
      row_min_q;
  std::vector<std::uint32_t> keys_q;       ///< survivor keys (cost << 16 | cand)
  std::vector<std::uint32_t> group_min_q;  ///< d>1: per-entry group minima

  // ---- Reference (per-node Env) path: materialized candidate set ----
  std::vector<std::uint32_t> cand_state, cand_path;
  std::vector<float> cand_cost, cand_min;
  std::vector<int> fill;
};

template <class Env>
concept BatchedSearchEnv = requires(const Env& e, const std::uint32_t* st,
                                    std::uint32_t* os, float* oc) {
  e.expand_all(0, st, std::size_t{0}, 0, os, oc);
};

/// An Env may pin the kernel backend its batched kernels run on; the
/// search then routes its own lane-parallel pieces (the streaming
/// prune, regroup and selection kernels) through the same backend
/// table.
template <class Env>
concept BackendSearchEnv = requires(const Env& e) {
  { e.search_backend() } -> std::convertible_to<const backend::Backend&>;
};

/// An Env may further fuse expansion and prune into one kernel call
/// (Backend::awgn_expand_prune): the d=1 search then hands it the
/// parent costs, the bound and the key buffer instead of splitting the
/// block into expand_all + d1_prune, and the kernel narrows its metric
/// sweeps to partial-cost survivors after the first symbol. Must be
/// bit-identical to the split pair.
template <class Env>
concept FusedPruneSearchEnv = requires(const Env& e, const std::uint32_t* st,
                                       const float* pc, std::uint32_t* os,
                                       std::uint64_t* ok) {
  {
    e.expand_prune(0, st, pc, std::size_t{0}, 0, std::uint32_t{0}, std::uint64_t{0},
                   os, ok)
  } -> std::convertible_to<std::size_t>;
};

/// An Env may additionally expose the quantized (u16 path metric)
/// kernel family. quantized() is a *runtime* switch: the Env checks
/// per-decode eligibility (precision knob, channel kind, geometry
/// bounds) and the search falls back to the f32 pipeline when it
/// returns false. Quantized path costs ride a 2^-quant_scale() metric
/// grid with saturation at 65535 and per-level renormalization (see
/// spinal/cost_model.h); the kernels are pure integer, so results are
/// bit-identical across backends but only statistically equivalent to
/// the f32 reference.
template <class Env>
concept QuantizedSearchEnv = requires(const Env& e, const std::uint32_t* st,
                                      const std::uint16_t* pc, std::uint32_t* os,
                                      std::uint16_t* oc, std::uint32_t* ok) {
  { e.quantized() } -> std::convertible_to<bool>;
  { e.quant_scale() } -> std::convertible_to<float>;
  { e.node_cost_q(0, std::uint32_t{0}) } -> std::convertible_to<std::uint32_t>;
  { e.level_floor_q(0) } -> std::convertible_to<std::uint32_t>;
  e.expand_all_q(0, st, std::size_t{0}, 0, os, oc);
  {
    e.expand_prune_q(0, st, pc, std::size_t{0}, 0, std::uint32_t{0}, std::uint32_t{0},
                     os, ok)
  } -> std::convertible_to<std::size_t>;
};

/// Cross-level state of one in-flight streamed search, externalized so
/// a caller can drive several searches level-by-level in lockstep
/// (SpinalDecoder::decode_batch_with interleaves the blocks of a
/// cross-session batch this way). BeamSearch::begin initializes it,
/// each BeamSearch::step advances one level over the same workspace,
/// BeamSearch::end runs the epilogue. The sequential run() is itself
/// begin + step loop + end, so any interleaving of independent cursors
/// executes exactly the sequential per-level code per search —
/// bit-identity across batch compositions holds by construction, not
/// just by test.
struct SearchCursor {
  const backend::Backend* be = nullptr;
  int d = 1;                  ///< effective bubble depth, min(p.d, S)
  int leaves_per_entry = 1;
  std::uint32_t group_mask = 0;
  bool use_paths = false;
  bool leaves_sorted = false;
  bool quantized = false;     ///< this search runs the u16 pipeline
  std::uint64_t offset = 0;   ///< quantized renormalization offset
};

template <class Env>
class BeamSearch {
 public:
  /// Convenience overload with throwaway scratch (tests, one-shot use).
  SearchResult run(const Env& env, const CodeParams& p) const {
    SearchWorkspace ws;
    SearchResult out;
    run(env, p, ws, out);
    return out;
  }

  /// Runs one full decode attempt over the received data captured in
  /// @p env, reusing @p ws scratch and writing into @p out. The tree is
  /// rebuilt from scratch every attempt (§7.1 explains why caching
  /// between attempts does not pay off). Envs with the batched
  /// expand_all kernel take the streaming expand–prune pipeline; plain
  /// per-node Envs take the retained materialize-then-select reference
  /// path — both produce bit-identical results.
  void run(const Env& env, const CodeParams& p, SearchWorkspace& ws,
           SearchResult& out) const {
    if constexpr (BatchedSearchEnv<Env>)
      run_streamed(env, p, ws, out);
    else
      run_reference(env, p, ws, out);
  }

  /// Number of step() calls a full streamed search takes.
  static int steps(const CodeParams& p) noexcept {
    const int S = p.spine_length();
    return S - std::min(p.d, S) + 1;
  }

  /// Starts a streamed search: prologue plus cursor init. Selects the
  /// quantized pipeline per search (Env::quantized() eligibility),
  /// exactly as run() would.
  void begin(const Env& env, const CodeParams& p, SearchWorkspace& ws,
             SearchCursor& cur) const
    requires BatchedSearchEnv<Env>
  {
    const int S = p.spine_length();
    cur.d = std::min(p.d, S);
    cur.be = &backend::active();
    if constexpr (BackendSearchEnv<Env>) cur.be = &env.search_backend();
    cur.group_mask = (p.k < 32) ? ((1u << p.k) - 1u) : ~0u;
    cur.use_paths = cur.d > 1;
    cur.leaves_sorted = false;
    cur.quantized = false;
    cur.offset = 0;
    if constexpr (QuantizedSearchEnv<Env>) {
      if (env.quantized()) {
        cur.quantized = true;
        build_prologue_q(env, p, cur.d, ws);
        cur.leaves_per_entry = static_cast<int>(ws.leaf_state.size());
        return;
      }
    }
    build_prologue(env, p, cur.d, ws);
    cur.leaves_per_entry = static_cast<int>(ws.leaf_state.size());
  }

  /// Advances one level (step @p t of steps(p), in order). Steps of
  /// distinct searches may interleave arbitrarily — each search only
  /// touches its own workspace and cursor.
  void step(const Env& env, const CodeParams& p, SearchWorkspace& ws,
            SearchCursor& cur, int t) const
    requires BatchedSearchEnv<Env>
  {
    if constexpr (QuantizedSearchEnv<Env>) {
      if (cur.quantized) {
        step_streamed_q(env, p, ws, cur, t);
        return;
      }
    }
    step_streamed(env, p, ws, cur, t);
  }

  /// Epilogue: picks the winning leaf and backtracks into @p out.
  void end(const Env& env, const CodeParams& p, SearchWorkspace& ws,
           SearchCursor& cur, SearchResult& out) const
    requires BatchedSearchEnv<Env>
  {
    if constexpr (QuantizedSearchEnv<Env>) {
      if (cur.quantized) {
        backtrack_q(p, cur.d, cur.leaves_per_entry, cur.group_mask, cur.offset,
                    env.quant_scale(), ws, out);
        return;
      }
    }
    backtrack(p, cur.d, cur.leaves_per_entry, cur.group_mask, ws, out);
  }

 private:
  /// Children per expansion block: small enough that a block's states,
  /// costs and kernel scratch stay cache-resident across the per-symbol
  /// metric sweeps, large enough to amortize the kernel dispatch. Also
  /// the survivor-compaction granularity at the default B=256: the
  /// first block seeds the pruning bound.
  static constexpr int kBlockChildren = 512;

  /// ---- Shared prologue: single root s0, leaves out to depth d-1 ----
  /// (path chunks 0 .. d-2; all full k bits since d-2 <= S-2). This
  /// touches at most 2^(k(d-1)) nodes, so it stays scalar.
  static void build_prologue(const Env& env, const CodeParams& p, int d,
                             SearchWorkspace& ws) {
    const int k = p.k;
    ws.leaf_state.assign(1, p.s0);
    ws.leaf_cost.assign(1, 0.0f);
    ws.leaf_path.assign(1, 0);
    for (int lvl = 0; lvl <= d - 2; ++lvl) {
      const int fanout = 1 << p.chunk_bits(lvl);
      const std::size_t n = ws.leaf_state.size();
      ws.next_state.resize(n * fanout);
      ws.next_cost.resize(n * fanout);
      ws.next_path.resize(n * fanout);
      std::size_t w = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (int v = 0; v < fanout; ++v, ++w) {
          const std::uint32_t st = env.child(ws.leaf_state[i], static_cast<std::uint32_t>(v));
          ws.next_state[w] = st;
          ws.next_cost[w] = ws.leaf_cost[i] + env.node_cost(lvl, st);
          ws.next_path[w] = ws.leaf_path[i] | (static_cast<std::uint32_t>(v) << (k * lvl));
        }
      }
      ws.leaf_state.swap(ws.next_state);
      ws.leaf_cost.swap(ws.next_cost);
      ws.leaf_path.swap(ws.next_path);
    }
    ws.arena.clear();
    ws.arena.push_back({-1, 0});  // virtual node for the depth-0 root
    ws.entry_arena.assign(1, 0);  // arena node of each beam entry
  }

  /// Chunk reconstruction for the winning leaf @p best: leaf path plus
  /// arena walk. Shared by the f32 and quantized epilogues (which pick
  /// the winner from their own cost representations).
  static void backtrack_chunks(const CodeParams& p, int d, int leaves_per_entry,
                               std::uint32_t group_mask, const SearchWorkspace& ws,
                               std::size_t best, SearchResult& out) {
    const int S = p.spine_length();
    const int k = p.k;
    out.chunks.assign(S, 0);

    // Leaf path covers chunks S-d+1 .. S-1 (slots 0 .. d-2).
    const int entry_of_best = static_cast<int>(best) / std::max(leaves_per_entry, 1);
    for (int j = 0; j <= d - 2; ++j)
      out.chunks[S - d + 1 + j] = (ws.leaf_path[best] >> (k * j)) & group_mask;

    // Arena covers chunks S-d .. 0, innermost last.
    std::int32_t node = ws.entry_arena[entry_of_best];
    int chunk_idx = S - d;
    while (node >= 0 && ws.arena[node].parent >= 0) {
      out.chunks[chunk_idx--] = ws.arena[node].chunk;
      node = ws.arena[node].parent;
    }
  }

  /// ---- Shared epilogue: global best leaf, then backtrack (§4.4: tail
  /// symbols make the lowest-cost candidate the right one to validate).
  static void backtrack(const CodeParams& p, int d, int leaves_per_entry,
                        std::uint32_t group_mask, SearchWorkspace& ws,
                        SearchResult& out) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ws.leaf_cost.size(); ++i)
      if (ws.leaf_cost[i] < ws.leaf_cost[best]) best = i;
    out.best_cost = ws.leaf_cost[best];
    backtrack_chunks(p, d, leaves_per_entry, group_mask, ws, best, out);
  }

  /// Quantized epilogue: winner by u16 leaf cost; the reported cost
  /// folds the accumulated renormalization offset back in and rescales
  /// to the f32 metric's units so callers compare like with like.
  static void backtrack_q(const CodeParams& p, int d, int leaves_per_entry,
                          std::uint32_t group_mask, std::uint64_t offset, float scale,
                          SearchWorkspace& ws, SearchResult& out) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ws.leaf_cost_q.size(); ++i)
      if (ws.leaf_cost_q[i] < ws.leaf_cost_q[best]) best = i;
    out.best_cost =
        static_cast<double>(offset + ws.leaf_cost_q[best]) / static_cast<double>(scale);
    backtrack_chunks(p, d, leaves_per_entry, group_mask, ws, best, out);
  }

  /// Sorts the final survivor keys of one level into the kept order the
  /// historical full select produced: ascending (cost, candidate index)
  /// whenever pruning was possible (keep < cand_total), untouched
  /// append order — the historical candidate-index layout — when
  /// nothing could be pruned. Survivor keys are bit-for-bit the keys
  /// the old full build would have produced (just a filtered subset
  /// that provably contains the kept set), so this is the same
  /// selection, run over far fewer keys. When the survivors are no
  /// more than the beam (common once a refinement truncated the buffer
  /// to keep and the leaf cutoff ended the level), a max-key sentinel
  /// in the slack slot makes the full sort a select of sc of sc + 1.
  static void finalize_keys(const backend::Backend* be, SearchWorkspace& ws,
                            std::size_t sc, int keep, int cand_total) {
    if (keep >= cand_total) return;  // no pruning: candidate order is the contract
    if (static_cast<std::size_t>(keep) >= sc) {
      ws.keys[sc] = ~0ull;  // above every real key (slack: keys holds cand_total + 8)
      be->select_keys(ws.keys.data(), sc + 1, sc);
    } else {
      be->select_keys(ws.keys.data(), sc, static_cast<std::size_t>(keep));
    }
  }

  /// Tightens the online pruning bound to the keep-th best survivor key
  /// seen so far — the block-local refinement that replaced the global
  /// select. Survivors past the keep-th best can never be kept, so the
  /// buffer also truncates to keep entries; keys are pure (cost,
  /// candidate index) values, so no record gathering is involved.
  static void tighten(const backend::Backend* be, SearchWorkspace& ws, int keep,
                      std::size_t& sc, std::uint64_t& bound_key) {
    if (sc <= static_cast<std::size_t>(keep)) return;
    // Set-only partition: the kept order is irrelevant here (the final
    // select re-sorts), so the bound is the max over the kept prefix —
    // the full packed key, tie-break included.
    be->partition_keys(ws.keys.data(), sc, static_cast<std::size_t>(keep));
    sc = static_cast<std::size_t>(keep);
    std::uint64_t mx = 0;
    for (std::size_t j = 0; j < sc; ++j) mx = std::max(mx, ws.keys[j]);
    bound_key = mx;
  }

  /// u32-key twin of finalize_keys for the quantized pipeline. The
  /// full u32 key orders as (cost, candidate) directly, so a plain sort
  /// and the u32 select agree bit-for-bit, and select_keys_u32 with
  /// keep >= count is itself the full sort (no sentinel needed).
  static void finalize_keys_q(const backend::Backend* be, SearchWorkspace& ws,
                              std::size_t sc, int keep, int cand_total) {
    if (keep >= cand_total) return;  // no pruning: candidate order is the contract
    be->select_keys_u32(ws.keys_q.data(), sc,
                        std::min(static_cast<std::size_t>(keep), sc));
  }

  /// u32-key twin of tighten.
  static void tighten_q(const backend::Backend* be, SearchWorkspace& ws, int keep,
                        std::size_t& sc, std::uint32_t& bound_key) {
    if (sc <= static_cast<std::size_t>(keep)) return;
    be->partition_keys_u32(ws.keys_q.data(), sc, static_cast<std::size_t>(keep));
    sc = static_cast<std::size_t>(keep);
    std::uint32_t mx = 0;
    for (std::size_t j = 0; j < sc; ++j) mx = std::max(mx, ws.keys_q[j]);
    bound_key = mx;
  }

  /// Quantized prologue: u16 saturating path metrics, otherwise the
  /// same single-root walk as build_prologue.
  static void build_prologue_q(const Env& env, const CodeParams& p, int d,
                               SearchWorkspace& ws)
    requires QuantizedSearchEnv<Env>
  {
    const int k = p.k;
    ws.leaf_state.assign(1, p.s0);
    ws.leaf_cost_q.assign(1, 0);
    ws.leaf_path.assign(1, 0);
    for (int lvl = 0; lvl <= d - 2; ++lvl) {
      const int fanout = 1 << p.chunk_bits(lvl);
      const std::size_t n = ws.leaf_state.size();
      ws.next_state.resize(n * fanout);
      ws.next_cost_q.resize(n * fanout);
      ws.next_path.resize(n * fanout);
      std::size_t w = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (int v = 0; v < fanout; ++v, ++w) {
          const std::uint32_t st =
              env.child(ws.leaf_state[i], static_cast<std::uint32_t>(v));
          ws.next_state[w] = st;
          ws.next_cost_q[w] = static_cast<std::uint16_t>(
              backend::quant_sat_add(ws.leaf_cost_q[i], env.node_cost_q(lvl, st)));
          ws.next_path[w] = ws.leaf_path[i] | (static_cast<std::uint32_t>(v) << (k * lvl));
        }
      }
      ws.leaf_state.swap(ws.next_state);
      ws.leaf_cost_q.swap(ws.next_cost_q);
      ws.leaf_path.swap(ws.next_path);
    }
    ws.arena.clear();
    ws.arena.push_back({-1, 0});
    ws.entry_arena.assign(1, 0);
  }

  /// ---- Quantized streaming expand–prune level step ----
  /// Same step structure as step_streamed with the narrow-metric types
  /// swapped in: u16 path costs, u32 (cost << 16 | candidate) packed
  /// keys (a single unsigned compare where the f32 path compares
  /// 64-bit keys), and per-level renormalization — after each level's
  /// writeback the minimum kept cost is subtracted from every survivor
  /// and accumulated into a u64 offset on the cursor, so the u16 lanes
  /// only ever carry each level's spread, not the whole path sum.
  /// Eligibility (cand_total <= 65536 so candidate indices fit the
  /// key's low half) is the Env's contract via quantized().
  void step_streamed_q(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                       SearchCursor& cur, int t) const
    requires QuantizedSearchEnv<Env>
  {
    const int d = cur.d;
    const int k = p.k;
    const int B = p.B;
    const backend::Backend* be = cur.be;
    const std::uint32_t group_mask = cur.group_mask;
    const bool use_paths = cur.use_paths;
    const bool leaves_sorted = cur.leaves_sorted;
    const int leaves_per_entry = cur.leaves_per_entry;

    {
      const int e = t + d - 1;
      const int fanout = 1 << p.chunk_bits(e);
      const int group_count = 1 << p.chunk_bits(t);
      const int entries = static_cast<int>(ws.entry_arena.size());
      const int rows = leaves_per_entry * fanout / group_count;
      const int cand_total = entries * group_count;
      const std::size_t total_leaves = ws.leaf_state.size();

      const int keep = std::min(B, cand_total);
      // Laxer refinement cadence than the f32 pipeline's 2*keep: every
      // tighten re-scans the kept prefix, and with the cheap integer
      // expand the re-scan costs a bigger fraction of the level than
      // the slightly looser bound gives back in extra survivors
      // (bound-timing only moves work, never the kept set, so this is
      // a pure tuning knob).
      const std::size_t trigger = 3 * static_cast<std::size_t>(keep);
      std::uint32_t bound_key = ~0u;  // keep-all until seeded
      std::size_t sc = 0;
      ws.keys_q.resize(static_cast<std::size_t>(cand_total) + 8);

      // The level's admissible per-child floor (the min_rest[0] suffix
      // minimum): every child of a leaf costs at least leaf +
      // lvl_floor, so the sorted-prefix cutoffs below skip whole
      // leaves *before hashing them* — an integer-only sharpening the
      // f32 pipeline (leaf cost alone) does not have. The spine-hash
      // chains are the latency wall, so rows gated here are the
      // cheapest rows of all.
      const std::uint32_t lvl_floor = env.level_floor_q(e);

      if (d == 1) {
        const std::size_t block_leaves =
            std::max<std::size_t>(1, kBlockChildren / static_cast<std::size_t>(fanout));
        ws.child_state.resize(static_cast<std::size_t>(cand_total));

        std::size_t L = 0;
        while (L < total_leaves) {
          std::size_t end = std::min(total_leaves, L + block_leaves);
          if (leaves_sorted) {
            // Tie-aware: a leaf's children also carry candidate indices
            // >= l * fanout, so equal-cost leaves past the bound cut too.
            const auto leaf_floor = [&](std::size_t l) {
              return backend::quant_sat_add(ws.leaf_cost_q[l], lvl_floor) << 16 |
                     static_cast<std::uint32_t>(l * fanout);
            };
            if (leaf_floor(L) > bound_key) break;
            while (end > L + 1 && leaf_floor(end - 1) > bound_key) --end;
          }
          const std::size_t nblk = end - L;
          sc += env.expand_prune_q(
              e, ws.leaf_state.data() + L, ws.leaf_cost_q.data() + L, nblk, fanout,
              static_cast<std::uint32_t>(L) * fanout, bound_key,
              ws.child_state.data() + L * static_cast<std::size_t>(fanout),
              ws.keys_q.data() + sc);
          L = end;
          if (sc >= trigger && L < total_leaves) tighten_q(be, ws, keep, sc, bound_key);
        }

        finalize_keys_q(be, ws, sc, keep, cand_total);

        ws.next_entry_arena.resize(keep);
        ws.next_state.resize(keep);
        ws.next_cost_q.resize(keep);
        for (int j = 0; j < keep; ++j) {
          const std::uint32_t key = ws.keys_q[j];
          const int cand = static_cast<int>(key & 0xFFFFu);
          const int en = cand / group_count;
          const std::uint32_t g = static_cast<std::uint32_t>(cand % group_count);
          ws.arena.push_back({ws.entry_arena[en], g});
          ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
          ws.next_state[j] = ws.child_state[cand];
          ws.next_cost_q[j] = static_cast<std::uint16_t>(key >> 16);
        }
      } else {
        const int lpe = leaves_per_entry;
        const std::size_t entry_children = static_cast<std::size_t>(lpe) * fanout;
        const int block_entries =
            std::max<int>(1, static_cast<int>(kBlockChildren / entry_children));
        const std::size_t arena_rows =
            static_cast<std::size_t>(cand_total) * static_cast<std::size_t>(rows);
        ws.surv_state.resize(arena_rows);
        ws.surv_cost_q.resize(arena_rows);
        ws.surv_path.resize(arena_rows);
        ws.child_state.resize(static_cast<std::size_t>(block_entries) * entry_children);
        ws.child_cost_q.resize(static_cast<std::size_t>(block_entries) * entry_children);
        ws.row_min_q.resize(static_cast<std::size_t>(block_entries) * lpe);
        ws.group_min_q.resize(group_count);
        ws.group_rowbase.resize(group_count);

        int en0 = 0;
        bool cutoff = false;
        while (en0 < entries && !cutoff) {
          int eb = std::min(block_entries, entries - en0);
          if (leaves_sorted && bound_key != ~0u) {
            int ok = 0;
            for (; ok < eb; ++ok) {
              const std::uint16_t* lc =
                  ws.leaf_cost_q.data() + static_cast<std::size_t>(en0 + ok) * lpe;
              std::uint16_t emin = lc[0];
              for (int l = 1; l < lpe; ++l)
                if (lc[l] < emin) emin = lc[l];
              if ((backend::quant_sat_add(emin, lvl_floor) << 16) > bound_key) {
                cutoff = true;
                break;
              }
            }
            if (ok == 0) break;
            eb = ok;
          }
          env.expand_all_q(e, ws.leaf_state.data() + static_cast<std::size_t>(en0) * lpe,
                           static_cast<std::size_t>(eb) * lpe, fanout,
                           ws.child_state.data(), ws.child_cost_q.data());
          be->row_mins_u16(ws.leaf_cost_q.data() + static_cast<std::size_t>(en0) * lpe,
                           ws.child_cost_q.data(), static_cast<std::size_t>(eb) * lpe,
                           static_cast<std::uint32_t>(fanout), ws.row_min_q.data());
          for (int i = 0; i < eb; ++i) {
            const int en = en0 + i;
            const std::uint32_t* lp =
                ws.leaf_path.data() + static_cast<std::size_t>(en) * lpe;
            const std::uint16_t* rm =
                ws.row_min_q.data() + static_cast<std::size_t>(i) * lpe;
            for (int g = 0; g < group_count; ++g) ws.group_min_q[g] = ~0u;
            for (int lf = 0; lf < lpe; ++lf) {
              const std::uint32_t g = lp[lf] & group_mask;
              if (rm[lf] < ws.group_min_q[g]) ws.group_min_q[g] = rm[lf];
            }
            for (int g = 0; g < group_count; ++g) {
              const std::uint32_t cand = static_cast<std::uint32_t>(en) * group_count +
                                         static_cast<std::uint32_t>(g);
              const std::uint32_t key = backend::quant_key(ws.group_min_q[g], cand);
              if (key > bound_key) {
                ws.group_rowbase[g] = -1;
                continue;
              }
              ws.keys_q[sc++] = key;
              ws.group_rowbase[g] =
                  static_cast<std::int32_t>(cand * static_cast<std::uint32_t>(rows));
            }
            be->regroup_emit_u16(
                ws.child_state.data() + static_cast<std::size_t>(i) * entry_children,
                ws.child_cost_q.data() + static_cast<std::size_t>(i) * entry_children,
                ws.leaf_cost_q.data() + static_cast<std::size_t>(en) * lpe, lp,
                static_cast<std::size_t>(lpe), static_cast<std::uint32_t>(fanout), k, d,
                group_mask, ws.group_rowbase.data(), ws.surv_state.data(),
                ws.surv_cost_q.data(), ws.surv_path.data());
          }
          en0 += eb;
          if (sc >= trigger && en0 < entries && !cutoff)
            tighten_q(be, ws, keep, sc, bound_key);
        }

        finalize_keys_q(be, ws, sc, keep, cand_total);

        ws.next_entry_arena.resize(keep);
        ws.next_state.resize(static_cast<std::size_t>(keep) * rows);
        ws.next_cost_q.resize(static_cast<std::size_t>(keep) * rows);
        ws.next_path.resize(static_cast<std::size_t>(keep) * rows);
        for (int j = 0; j < keep; ++j) {
          const std::uint32_t key = ws.keys_q[j];
          const int cand = static_cast<int>(key & 0xFFFFu);
          const int en = cand / group_count;
          const std::uint32_t g = static_cast<std::uint32_t>(cand % group_count);
          ws.arena.push_back({ws.entry_arena[en], g});
          ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
          const std::size_t src = static_cast<std::size_t>(cand) * rows;
          const std::size_t dst = static_cast<std::size_t>(j) * rows;
          for (int l = 0; l < rows; ++l) {
            ws.next_state[dst + l] = ws.surv_state[src + l];
            ws.next_cost_q[dst + l] = ws.surv_cost_q[src + l];
            ws.next_path[dst + l] = ws.surv_path[src + l];
          }
        }
      }

      // Per-level renormalization: shift every kept cost down by the
      // level minimum so the u16 lanes track each level's spread, not
      // the monotonically growing path sum. Pure subtraction of the
      // common minimum preserves every comparison (and the arena /
      // tie-break structure) exactly; the offset restores absolute
      // cost at the epilogue.
      {
        std::uint16_t mn = 0xFFFF;
        for (const std::uint16_t c : ws.next_cost_q)
          if (c < mn) mn = c;
        if (mn != 0) {
          for (std::uint16_t& c : ws.next_cost_q)
            c = static_cast<std::uint16_t>(c - mn);
          cur.offset += mn;
        }
      }

      ws.entry_arena.swap(ws.next_entry_arena);
      ws.leaf_state.swap(ws.next_state);
      ws.leaf_cost_q.swap(ws.next_cost_q);
      if (use_paths) ws.leaf_path.swap(ws.next_path);
      cur.leaves_per_entry = rows;
      cur.leaves_sorted = keep < cand_total;
    }
  }

  /// ---- Streaming expand–prune pipeline (batched Envs) ----
  /// The cursor API (begin / steps × step / end) driven sequentially;
  /// the quantized pipeline dispatch happens inside begin and step.
  void run_streamed(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                    SearchResult& out) const
    requires BatchedSearchEnv<Env>
  {
    SearchCursor cur;
    begin(env, p, ws, cur);
    const int n = steps(p);
    for (int t = 0; t < n; ++t) step(env, p, ws, cur, t);
    end(env, p, ws, cur, out);
  }

  /// One level of the f32 streamed pipeline: the body of the historical
  /// run_streamed main loop, with the cross-level state read from and
  /// written back to the cursor. Kept beams come out cost-sorted
  /// whenever the level could prune (keep < cand_total) — only then may
  /// trailing leaves/entries be cut off wholesale on the parent cost
  /// alone.
  void step_streamed(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                     SearchCursor& cur, int t) const
    requires BatchedSearchEnv<Env>
  {
    const int d = cur.d;
    const int k = p.k;
    const int B = p.B;
    const backend::Backend* be = cur.be;
    const std::uint32_t group_mask = cur.group_mask;
    const bool use_paths = cur.use_paths;
    const bool leaves_sorted = cur.leaves_sorted;
    const int leaves_per_entry = cur.leaves_per_entry;

    // ---- One step t of 0 .. S-d, expansion chunk e = t+d-1 ----
    {
      const int e = t + d - 1;                    // chunk evaluated this step
      const int fanout = 1 << p.chunk_bits(e);    // children per expanded leaf
      const int group_count = 1 << p.chunk_bits(t);  // candidate subtrees per entry
      const int entries = static_cast<int>(ws.entry_arena.size());
      const int rows = leaves_per_entry * fanout / group_count;  // leaves per candidate
      const int cand_total = entries * group_count;
      const std::size_t total_leaves = ws.leaf_state.size();

      const int keep = std::min(B, cand_total);
      // Survivor-set refinement point: big enough that refinements stay
      // rare, small enough that the bound keeps tracking the keep-th
      // best as survivors accumulate.
      const std::size_t trigger = 2 * static_cast<std::size_t>(keep);
      // The online pruning threshold: the running keep-th-best *packed
      // key* (cost word plus candidate-index tie-break, so exact cost
      // ties past the bound prune too — decisive for integer metrics).
      std::uint64_t bound_key = ~0ull;  // no bound until seeded
      std::size_t sc = 0;                   // survivors appended so far
      // Survivor keys carry the global candidate index; worst case
      // every candidate survives (+ slack for SIMD compress stores).
      ws.keys.resize(static_cast<std::size_t>(cand_total) + 8);

      if (d == 1) {
        // One leaf per candidate: the child-major kernel output of each
        // block IS a candidate slice (cand = leaf*fanout + v), streamed
        // through the fused finalize+prune kernel. States land in a
        // level-wide candidate-indexed buffer (the writeback reads them
        // by key); costs only ever exist one block at a time.
        // The first full block doubles as the bound seed: it covers the
        // children of the best parents (sorted beams lead with them),
        // and the refinement right after it — at the default geometry,
        // a 2B-survivor select — puts the bound close to its final
        // value before the bulk of the level streams through.
        const std::size_t block_leaves =
            std::max<std::size_t>(1, kBlockChildren / static_cast<std::size_t>(fanout));
        ws.child_state.resize(static_cast<std::size_t>(cand_total));
        ws.child_cost.resize(block_leaves * static_cast<std::size_t>(fanout));

        std::size_t L = 0;
        while (L < total_leaves) {
          std::size_t end = std::min(total_leaves, L + block_leaves);
          if (leaves_sorted) {
            // Ascending parent costs: every candidate of leaf l keys at
            // least (leaf cost, l * fanout), so the first leaf past the
            // bound ends the level (and back-trimming skips a partial
            // tail block) — equal-cost leaves included, by index.
            const auto leaf_floor = [&](std::size_t l) {
              return static_cast<std::uint64_t>(monotone_key(ws.leaf_cost[l])) << 32 |
                     l * fanout;
            };
            if (leaf_floor(L) > bound_key) break;
            while (end > L + 1 && leaf_floor(end - 1) > bound_key) --end;
          }
          const std::size_t nblk = end - L;
          if constexpr (FusedPruneSearchEnv<Env>) {
            sc += env.expand_prune(
                e, ws.leaf_state.data() + L, ws.leaf_cost.data() + L, nblk, fanout,
                static_cast<std::uint32_t>(L) * fanout, bound_key,
                ws.child_state.data() + L * static_cast<std::size_t>(fanout),
                ws.keys.data() + sc);
          } else {
            env.expand_all(e, ws.leaf_state.data() + L, nblk, fanout,
                           ws.child_state.data() + L * static_cast<std::size_t>(fanout),
                           ws.child_cost.data());
            sc += be->d1_prune(ws.leaf_cost.data() + L, ws.child_cost.data(), nblk,
                               static_cast<std::uint32_t>(fanout),
                               static_cast<std::uint32_t>(L) * fanout, bound_key,
                               ws.keys.data() + sc);
          }
          L = end;
          if (sc >= trigger && L < total_leaves) tighten(be, ws, keep, sc, bound_key);
        }

        finalize_keys(be, ws, sc, keep, cand_total);

        ws.next_entry_arena.resize(keep);
        ws.next_state.resize(keep);
        ws.next_cost.resize(keep);
        for (int j = 0; j < keep; ++j) {
          const std::uint64_t key = ws.keys[j];
          const int cand = static_cast<int>(key & 0xFFFFFFFFu);
          const int en = cand / group_count;
          const std::uint32_t g = static_cast<std::uint32_t>(cand % group_count);
          ws.arena.push_back({ws.entry_arena[en], g});
          ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
          ws.next_state[j] = ws.child_state[cand];
          // The monotone key is a bijection: the kept cost comes back
          // out of the key bit-for-bit, no candidate-cost array needed.
          ws.next_cost[j] = backend::inverse_monotone_key(
              static_cast<std::uint32_t>(key >> 32));
        }
      } else {
        // Multi-leaf candidates: entries stream through expand ->
        // row_mins -> group filter -> regroup_emit. Only groups whose
        // minimum clears the bound get their leaf rows copied (the
        // vectorized replacement for the old scalar regroup scatter),
        // into a candidate-indexed arena the writeback reads directly.
        const int lpe = leaves_per_entry;
        const std::size_t entry_children = static_cast<std::size_t>(lpe) * fanout;
        const int block_entries = std::max<int>(
            1, static_cast<int>(kBlockChildren / entry_children));
        const std::size_t arena_rows =
            static_cast<std::size_t>(cand_total) * static_cast<std::size_t>(rows);
        ws.surv_state.resize(arena_rows);
        ws.surv_cost.resize(arena_rows);
        ws.surv_path.resize(arena_rows);
        ws.child_state.resize(static_cast<std::size_t>(block_entries) * entry_children);
        ws.child_cost.resize(static_cast<std::size_t>(block_entries) * entry_children);
        ws.row_min.resize(static_cast<std::size_t>(block_entries) * lpe);
        ws.group_min.resize(group_count);
        ws.group_rowbase.resize(group_count);

        int en0 = 0;
        bool cutoff = false;
        while (en0 < entries && !cutoff) {
          int eb = std::min(block_entries, entries - en0);
          if (leaves_sorted && bound_key != ~0ull) {
            // Entry minima ascend (they are the previous level's kept
            // candidate scores): the first entry past the bound ends
            // the level — its groups, and every later entry's, cost at
            // least the entry minimum.
            int ok = 0;
            for (; ok < eb; ++ok) {
              const float* lc = ws.leaf_cost.data() +
                                static_cast<std::size_t>(en0 + ok) * lpe;
              float emin = lc[0];
              for (int l = 1; l < lpe; ++l)
                if (lc[l] < emin) emin = lc[l];
              if ((static_cast<std::uint64_t>(monotone_key(emin)) << 32) > bound_key) {
                cutoff = true;
                break;
              }
            }
            if (ok == 0) break;
            eb = ok;
          }
          env.expand_all(e, ws.leaf_state.data() + static_cast<std::size_t>(en0) * lpe,
                         static_cast<std::size_t>(eb) * lpe, fanout,
                         ws.child_state.data(), ws.child_cost.data());
          be->row_mins(ws.leaf_cost.data() + static_cast<std::size_t>(en0) * lpe,
                       ws.child_cost.data(), static_cast<std::size_t>(eb) * lpe,
                       static_cast<std::uint32_t>(fanout), ws.row_min.data());
          for (int i = 0; i < eb; ++i) {
            const int en = en0 + i;
            const std::uint32_t* lp =
                ws.leaf_path.data() + static_cast<std::size_t>(en) * lpe;
            const float* rm = ws.row_min.data() + static_cast<std::size_t>(i) * lpe;
            for (int g = 0; g < group_count; ++g)
              ws.group_min[g] = std::numeric_limits<float>::infinity();
            for (int lf = 0; lf < lpe; ++lf) {
              const std::uint32_t g = lp[lf] & group_mask;
              if (rm[lf] < ws.group_min[g]) ws.group_min[g] = rm[lf];
            }
            for (int g = 0; g < group_count; ++g) {
              const std::uint32_t cand =
                  static_cast<std::uint32_t>(en) * group_count + static_cast<std::uint32_t>(g);
              const std::uint64_t key =
                  (static_cast<std::uint64_t>(monotone_key(ws.group_min[g])) << 32) |
                  cand;
              if (key > bound_key) {
                ws.group_rowbase[g] = -1;
                continue;
              }
              ws.keys[sc++] = key;
              ws.group_rowbase[g] =
                  static_cast<std::int32_t>(cand * static_cast<std::uint32_t>(rows));
            }
            be->regroup_emit(ws.child_state.data() + static_cast<std::size_t>(i) * entry_children,
                             ws.child_cost.data() + static_cast<std::size_t>(i) * entry_children,
                             ws.leaf_cost.data() + static_cast<std::size_t>(en) * lpe, lp,
                             static_cast<std::size_t>(lpe),
                             static_cast<std::uint32_t>(fanout), k, d, group_mask,
                             ws.group_rowbase.data(), ws.surv_state.data(),
                             ws.surv_cost.data(), ws.surv_path.data());
          }
          en0 += eb;
          if (sc >= trigger && en0 < entries && !cutoff)
            tighten(be, ws, keep, sc, bound_key);
        }

        finalize_keys(be, ws, sc, keep, cand_total);

        ws.next_entry_arena.resize(keep);
        ws.next_state.resize(static_cast<std::size_t>(keep) * rows);
        ws.next_cost.resize(static_cast<std::size_t>(keep) * rows);
        ws.next_path.resize(static_cast<std::size_t>(keep) * rows);
        for (int j = 0; j < keep; ++j) {
          const std::uint64_t key = ws.keys[j];
          const int cand = static_cast<int>(key & 0xFFFFFFFFu);
          const int en = cand / group_count;
          const std::uint32_t g = static_cast<std::uint32_t>(cand % group_count);
          ws.arena.push_back({ws.entry_arena[en], g});
          ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
          const std::size_t src = static_cast<std::size_t>(cand) * rows;
          const std::size_t dst = static_cast<std::size_t>(j) * rows;
          for (int l = 0; l < rows; ++l) {
            ws.next_state[dst + l] = ws.surv_state[src + l];
            ws.next_cost[dst + l] = ws.surv_cost[src + l];
            ws.next_path[dst + l] = ws.surv_path[src + l];
          }
        }
      }

      ws.entry_arena.swap(ws.next_entry_arena);
      ws.leaf_state.swap(ws.next_state);
      ws.leaf_cost.swap(ws.next_cost);
      if (use_paths) ws.leaf_path.swap(ws.next_path);
      cur.leaves_per_entry = rows;
      cur.leaves_sorted = keep < cand_total;
    }
  }

  /// ---- Retained reference path (per-node Envs): materialize every
  /// candidate, then select. This is the pre-streaming semantics the
  /// golden suite pins the pipeline against; it is not a hot path.
  void run_reference(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                     SearchResult& out) const {
    const int S = p.spine_length();
    const int d = std::min(p.d, S);
    const int k = p.k;
    const int B = p.B;

    // The key build and B-of-N selection route through a kernel
    // backend table; envs that pin one override the process-wide
    // default. All backends are bit-identical here, so the choice
    // never changes results.
    const backend::Backend* be = &backend::active();
    if constexpr (BackendSearchEnv<Env>) be = &env.search_backend();

    build_prologue(env, p, d, ws);
    int leaves_per_entry = static_cast<int>(ws.leaf_state.size());

    const std::uint32_t group_mask = (k < 32) ? ((1u << k) - 1u) : ~0u;
    // With d == 1 every partial path is empty (ext = v, ext >> k = 0),
    // so the path arrays would hold nothing but zeroes — skip them.
    const bool use_paths = d > 1;

    // ---- Main loop: steps t = 0 .. S-d, expansion chunk e = t+d-1 ----
    for (int t = 0; t <= S - d; ++t) {
      const int e = t + d - 1;                    // chunk evaluated this step
      const int fanout = 1 << p.chunk_bits(e);    // children per expanded leaf
      const int group_count = 1 << p.chunk_bits(t);  // candidate subtrees per entry
      const int entries = static_cast<int>(ws.entry_arena.size());
      const int new_leaves_per_cand = leaves_per_entry * fanout / group_count;
      const int cand_total = entries * group_count;

      ws.cand_state.resize(static_cast<std::size_t>(cand_total) * new_leaves_per_cand);
      ws.cand_cost.resize(static_cast<std::size_t>(cand_total) * new_leaves_per_cand);
      if (use_paths)
        ws.cand_path.resize(static_cast<std::size_t>(cand_total) * new_leaves_per_cand);
      ws.keys.resize(cand_total);

      ws.cand_min.assign(cand_total, std::numeric_limits<float>::infinity());
      ws.fill.assign(cand_total, 0);
      for (int en = 0; en < entries; ++en) {
        const std::size_t base = static_cast<std::size_t>(en) * leaves_per_entry;
        for (int lf = 0; lf < leaves_per_entry; ++lf) {
          const std::uint32_t st = ws.leaf_state[base + lf];
          const float pc = ws.leaf_cost[base + lf];
          const std::uint32_t path = use_paths ? ws.leaf_path[base + lf] : 0;
          for (int v = 0; v < fanout; ++v) {
            const std::uint32_t child_state = env.child(st, static_cast<std::uint32_t>(v));
            const float cost = pc + env.node_cost(e, child_state);
            // Extended path = path chunks (t..t+d-2) then v at slot d-1;
            // the slot-0 chunk picks the candidate subtree.
            const std::uint32_t ext =
                path | (static_cast<std::uint32_t>(v) << (k * (d - 1)));
            const std::uint32_t g = ext & group_mask;
            const int cand = en * group_count + static_cast<int>(g);
            const std::size_t slot =
                static_cast<std::size_t>(cand) * new_leaves_per_cand + ws.fill[cand]++;
            ws.cand_state[slot] = child_state;
            ws.cand_cost[slot] = cost;
            if (use_paths)
              ws.cand_path[slot] = ext >> k;  // drop slot 0: chunks t+1..t+d-1
            if (cost < ws.cand_min[cand]) ws.cand_min[cand] = cost;
          }
        }
      }
      be->build_keys(ws.cand_min.data(), static_cast<std::size_t>(cand_total),
                     ws.keys.data());

      // ---- Select the B best subtrees (ties broken by index) ----
      // Keys order exactly like the float comparator (cost, then
      // candidate index); see Backend::select_keys for the determinism
      // contract. With no pruning the keys are already in
      // candidate-index order, the historical (and deterministic)
      // layout.
      const int keep = std::min(B, cand_total);
      be->select_keys(ws.keys.data(), static_cast<std::size_t>(cand_total),
                      static_cast<std::size_t>(keep));

      ws.next_entry_arena.resize(keep);
      ws.next_state.resize(static_cast<std::size_t>(keep) * new_leaves_per_cand);
      ws.next_cost.resize(static_cast<std::size_t>(keep) * new_leaves_per_cand);
      if (use_paths)
        ws.next_path.resize(static_cast<std::size_t>(keep) * new_leaves_per_cand);
      for (int j = 0; j < keep; ++j) {
        const int cand = static_cast<int>(ws.keys[j] & 0xFFFFFFFFu);
        const int en = cand / group_count;
        const std::uint32_t g = static_cast<std::uint32_t>(cand % group_count);
        ws.arena.push_back({ws.entry_arena[en], g});
        ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
        const std::size_t src = static_cast<std::size_t>(cand) * new_leaves_per_cand;
        const std::size_t dst = static_cast<std::size_t>(j) * new_leaves_per_cand;
        for (int l = 0; l < new_leaves_per_cand; ++l) {
          ws.next_state[dst + l] = ws.cand_state[src + l];
          ws.next_cost[dst + l] = ws.cand_cost[src + l];
        }
        if (use_paths)
          for (int l = 0; l < new_leaves_per_cand; ++l)
            ws.next_path[dst + l] = ws.cand_path[src + l];
      }
      ws.entry_arena.swap(ws.next_entry_arena);
      ws.leaf_state.swap(ws.next_state);
      ws.leaf_cost.swap(ws.next_cost);
      if (use_paths) ws.leaf_path.swap(ws.next_path);
      leaves_per_entry = new_leaves_per_cand;
    }

    backtrack(p, d, leaves_per_entry, group_mask, ws, out);
  }
};

}  // namespace spinal::detail
