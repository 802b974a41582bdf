#pragma once
// Runtime-dispatched SIMD kernel backends for the bubble-decoder hot
// path (§7's hardware discussion: wide-beam decoding must be as fast as
// the machine allows). One kernel contract, several implementations:
//
//   scalar  — portable C++, the retained reference implementation;
//   sse42   — x86 SSE4.2 intrinsics, 4 lanes (compile- and CPUID-gated);
//   avx2    — x86 AVX2 intrinsics, 8 lanes (compile- and CPUID-gated);
//   neon    — ARM NEON intrinsics, 4 lanes (compile-time gated; ASIMD is
//             architectural on aarch64, auxval-probed on 32-bit ARM).
//
// Every backend is *bit-identical* to the scalar kernels: the hash
// lanes are pure integer ops, and the float cost metrics keep the same
// expression shapes and the same per-lane reduction order (symbols
// accumulate sequentially per lane; lanes never sum across each other),
// compiled under the same -ffp-contract=off discipline. The PR 2 golden
// suite (test_decoder_golden) therefore acts as the conformance oracle
// for all of them, and test_backend checks the kernels pairwise.
//
// Selection: the best available backend is chosen at first use via
// CPUID (x86) / hwcaps (ARM). The SPINAL_BACKEND environment variable
// overrides it by name; an unknown name warns on stderr and falls back
// to the detected best. force() switches at runtime (tests, benches).
// Switching backends while another thread is decoding is a data race —
// pick the backend before spinning up decode threads.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hash/spine_hash.h"

namespace spinal::backend {

/// Order-preserving float-to-integer map: monotone_key(a) < monotone_key(b)
/// iff a < b for all non-NaN floats (with -0 ordered just below +0, which
/// cannot matter here: candidate costs that tie at zero are both +0).
/// Lets the B-of-N selection run on flat uint64 (key << 32 | index) values
/// instead of an indirect float comparator — same (cost, index) order,
/// including the index tie-break, at a fraction of the compare cost.
inline std::uint32_t monotone_key(float f) noexcept {
  const std::uint32_t b = std::bit_cast<std::uint32_t>(f);
  return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
}

/// Exact inverse of monotone_key: the map is a bijection on bit
/// patterns, so a float cost round-trips through its packed selection
/// key bit-for-bit. The streaming pipeline uses this to recover kept
/// candidate costs from survivor keys instead of materializing a
/// full candidate-cost array.
inline float inverse_monotone_key(std::uint32_t m) noexcept {
  const std::uint32_t b = (m & 0x80000000u) ? (m & 0x7FFFFFFFu) : ~m;
  return std::bit_cast<float>(b);
}

/// Per-decode scratch the fused expansion kernels use, grown to steady
/// state by the *caller* before the kernel call (resize-only, so
/// repeated decodes stay allocation-free; owned by the decoder's
/// DecodeWorkspace). The kernels receive raw pointers — no std::vector
/// method is ever instantiated inside a SIMD-flagged translation unit,
/// which would risk a vague-linkage copy with wide instructions being
/// picked for baseline CPUs.
struct ExpandScratch {
  std::vector<std::uint32_t> rng_words;  ///< per-child RNG draw scratch
  std::vector<std::uint32_t> premix;     ///< per-child hash pre-mix / compacted RNG lanes
  std::vector<std::uint64_t> acc_bits;   ///< per-child coded-bit accumulator (BSC)
  std::vector<float> acc;                ///< per-child metric accumulator (streaming AWGN)
  std::vector<std::uint32_t> idx;        ///< partial-prune survivor child indices
  std::vector<std::uint32_t> acc_q;      ///< quantized per-child metric accumulator
};

/// Everything the fused AWGN expansion kernel needs for one spine level:
/// hash family, this level's received symbols (SoA slices), channel
/// mode, constellation tables, and caller-sized scratch (count * fanout
/// lanes each; premix_scratch may be null when the hash kind does not
/// factor or fewer than two symbols landed on the level).
struct AwgnLevel {
  hash::Kind kind;
  std::uint32_t salt;
  const std::uint32_t* ord;  ///< symbol ordinals, nsym entries
  std::uint32_t nsym;
  const float* y_re;
  const float* y_im;
  const float* h_re;  ///< CSI, valid when use_csi
  const float* h_im;
  bool use_csi;
  float fx_scale;  ///< > 0: Appendix-B fixed-point grid 2^frac_bits
  const float* table;      ///< constellation (pre-quantised in fx mode)
  const float* raw_table;  ///< unquantised (CSI path quantises after h·x)
  std::uint32_t mask;
  int cbits;
  std::uint32_t* rng_scratch;     ///< per-child RNG draws
  std::uint32_t* premix_scratch;  ///< shared pre-mix, or nullptr
  // The streaming awgn_expand_prune kernel additionally needs (both
  // may be null for plain awgn_expand_all calls):
  float* acc_scratch;          ///< per-child metric accumulator
  std::uint32_t* idx_scratch;  ///< partial-cost survivor child indices
};

/// Everything the *quantized* (u16/u8 grid, see spinal/cost_model.h)
/// AWGN expansion kernels need for one spine level. The channel metric
/// is fully pre-tabulated: qtab row s holds the combined re+im integer
/// metric of symbol s for every 2^(2c) constellation index pair, so a
/// kernel's per-child work per symbol is one RNG draw, one gather
/// (qtab[w & qmask]) and one add. Entries are clamped to the
/// precision's cap (<= 65535) and a path cost is min(sum, 65535)
/// everywhere — exactly a u16 saturating-add chain, carried in u32
/// lanes so survivor compaction reuses the u32 compress stores.
struct AwgnLevelQ {
  hash::Kind kind;
  std::uint32_t salt;
  const std::uint32_t* ord;  ///< symbol ordinals, nsym entries
  std::uint32_t nsym;
  const std::uint16_t* qtab;      ///< nsym rows of qstride combined metrics
                                  ///< (u16 entries — 8 KiB per row at c=6, so
                                  ///< a level's rows sit in L1; the table must
                                  ///< carry one u16 of tail slack for the
                                  ///< 32-bit SIMD gather of the last entry)
  std::uint32_t qstride;          ///< 1 << (2*cbits)
  std::uint32_t qmask;            ///< qstride - 1 (index = rng_word & qmask)
  const std::uint16_t* min_rest;  ///< nsym+1 suffix sums of per-row minima
                                  ///< (min_rest[s] = sat sum of rows >= s,
                                  ///< min_rest[nsym] = 0): admissible
                                  ///< remaining-symbol floors for pruning
  std::uint32_t* rng_scratch;     ///< per-child RNG draws
  std::uint32_t* premix_scratch;  ///< shared pre-mix, or nullptr
  std::uint32_t* acc_scratch;     ///< per-child quantized metric accumulator
  std::uint32_t* idx_scratch;     ///< partial-cost survivor child indices
};

/// Packs a quantized cost (<= 65535) and candidate index (< 65536 —
/// the quantized path requires B*2^k <= 65536) into the u32 selection
/// key the *_u16 kernels and partition/select_keys_u32 operate on.
/// Integer costs are their own monotone key, so unlike the f32 path
/// there is no bit trick to undo: cost = key >> 16, cand = key & 0xFFFF.
inline std::uint32_t quant_key(std::uint32_t cost, std::uint32_t cand) noexcept {
  return (cost << 16) | cand;
}

/// Saturating u16 add on u32 carriers: min(a + b, 65535). With
/// non-negative operands a chain of these equals min(plain sum, 65535),
/// so kernels may accumulate in plain u32 and clamp once at the end —
/// bit-identical to a per-step saturating u16 chain.
inline std::uint32_t quant_sat_add(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint32_t s = a + b;
  return s > 65535u ? 65535u : s;
}

/// One spine level of the BSC kernel: ordinals plus the received bits
/// packed 64 per word (bit j of word j/64), and caller-sized scratch.
struct BscLevel {
  hash::Kind kind;
  std::uint32_t salt;
  const std::uint32_t* ord;
  std::uint32_t nsym;
  const std::uint64_t* rx_words;
  std::uint32_t* rng_scratch;
  std::uint32_t* premix_scratch;  ///< shared pre-mix, or nullptr
  std::uint64_t* acc_scratch;     ///< packed coded-bit accumulator
};

/// The kernel table: one entry per hot-path primitive. All function
/// pointers are always non-null. Results are bit-identical across
/// backends (the contract test_backend/test_decoder_golden enforce).
struct Backend {
  const char* name;  ///< registry key: "scalar", "sse42", "avx2", "neon"
  int lanes;         ///< uint32 lanes per vector (1 for scalar)

  /// out[i] = h(states[i], data), the batched spine hash.
  void (*hash_n)(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                 std::size_t count, std::uint32_t data, std::uint32_t* out);

  /// out[i*fanout + v] = h(states[i], v) for v < fanout, child-major:
  /// a leaf's children are contiguous, so at bubble depth d=1 the
  /// kernel output *is* the candidate order (cand = leaf*fanout + v)
  /// and the search needs no scatter at all. The one-at-a-time state
  /// pre-mix is still shared across the fanout.
  void (*hash_children)(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                        std::size_t count, std::uint32_t fanout, std::uint32_t* out);

  /// One-at-a-time state pre-mix (kind-specific: only valid for the
  /// factoring kind, see SpineHash::has_premix).
  void (*premix_n)(std::uint32_t salt, const std::uint32_t* states, std::size_t count,
                   std::uint32_t* out);

  /// Finishes h for lanes pre-mixed by premix_n.
  void (*hash_premixed_n)(const std::uint32_t* premixed, std::size_t count,
                          std::uint32_t data, std::uint32_t* out);

  /// Fused per-level expansion: children of the whole leaf array plus
  /// the accumulated channel metric per child (AWGN: l2 against the
  /// constellation, with optional CSI and fixed-point quantisation).
  void (*awgn_expand_all)(const AwgnLevel& level, const std::uint32_t* states,
                          std::size_t count, std::uint32_t fanout,
                          std::uint32_t* out_states, float* out_costs);

  /// Fused per-level expansion, BSC Hamming metric (XOR + popcount over
  /// 64-symbol packed blocks).
  void (*bsc_expand_all)(const BscLevel& level, const std::uint32_t* states,
                         std::size_t count, std::uint32_t fanout,
                         std::uint32_t* out_states, float* out_costs);

  /// The streaming d=1 pipeline head: child hashing, RNG draws, the
  /// per-symbol AWGN metric sweeps AND the online prune fused into one
  /// kernel over a leaf block. After the first symbol's accumulation,
  /// children whose *partial* cost (parent + first-symbol metric;
  /// metrics only grow, so this is admissible) already exceeds bound_key
  /// leave the pipeline: the survivor lanes compress and the remaining
  /// nsym-1 hash+metric sweeps run over the compressed set only —
  /// losing children never get their costs finished, let alone written
  /// back. Appends survivor keys exactly as d1_prune does (same packed
  /// contract, same slack requirement) and returns the count; all
  /// child states still land in out_states (the writeback reads kept
  /// states by candidate index). level.acc_scratch, level.idx_scratch,
  /// level.rng_scratch and level.premix_scratch must all be non-null
  /// and sized count*fanout. Bit-identity: each surviving child's
  /// metric accumulates in the same per-lane order as awgn_expand_all,
  /// so results equal awgn_expand_all + d1_prune exactly
  /// (test_backend pins this).
  std::size_t (*awgn_expand_prune)(const AwgnLevel& level, const std::uint32_t* states,
                                   const float* parent_cost, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t cand_base,
                                   std::uint64_t bound_key, std::uint32_t* out_states,
                                   std::uint64_t* out_keys);

  /// keys[i] = monotone_key(costs[i]) << 32 | i — the packed B-of-N
  /// selection keys.
  void (*build_keys)(const float* costs, std::size_t count, std::uint64_t* keys);

  /// Streaming fused d=1 finalize+prune over one child-major expansion
  /// block (the streaming pipeline that retired the old
  /// materialize-then-select d1_keys contract). For every candidate
  /// c = i*fanout + v of the block,
  ///   cost = parent_cost[i] + child_cost[c]   (the exact scalar shape)
  /// and the candidate is *discarded* — never written anywhere — when
  /// its full packed key exceeds bound_key, the running B-th-best
  /// *key* (cost word and candidate-index tie-break together) the
  /// search maintains — so even exact cost ties past the bound prune,
  /// which is where integer (Hamming) metrics put most of their
  /// candidates. Survivors append in candidate order, exactly the
  /// packed keys the old full build produced:
  ///   out_keys[j] = monotone_key(cost) << 32 | (cand_base + c)
  /// so the survivor set is a filtered subset of the historical key
  /// array and every downstream selection/tie-break is unchanged.
  /// Returns the number appended. Whole rows short-circuit on the
  /// parent cost (children cost at least the parent). Preconditions:
  /// child_cost >= 0 (channel metrics are non-negative; pruning leans
  /// on cost monotonicity along paths) and no cost is -0.0f. Pass
  /// bound_key = ~0ull to keep everything. out_keys needs 7 slots of
  /// slack past the worst-case append count: SIMD backends
  /// compress-store whole vectors.
  std::size_t (*d1_prune)(const float* parent_cost, const float* child_cost,
                          std::size_t count, std::uint32_t fanout,
                          std::uint32_t cand_base, std::uint64_t bound_key,
                          std::uint64_t* out_keys);

  /// d>1 regroup, phase 1: per-leaf row minima folded with the parent
  /// cost, out[i] = leaf_cost[i] + min_v child_cost[i*fanout + v].
  /// Exact: float min is order-free and x + min(row) equals
  /// min_v (x + row[v]) bit-for-bit (addition is monotone), so the
  /// value matches the scalar running-min over finalized child costs.
  /// Preconditions as for d1_prune (no -0.0f, finite costs).
  void (*row_mins)(const float* leaf_cost, const float* child_cost, std::size_t leaves,
                   std::uint32_t fanout, float* out);

  /// d>1 regroup, phase 2: copies the *surviving* groups' child rows of
  /// one entry into the survivor arena — the vectorized replacement for
  /// the old scalar regroup scatter. Every child of leaf i belongs to
  /// group g = leaf_path[i] & group_mask (the chunk value at path slot
  /// 0), so rows move whole: for each leaf in order, when
  /// group_rowbase[g] >= 0 the row lands at the group's next free arena
  /// rows as
  ///   out_state[dst + v] = child_state[i*fanout + v]
  ///   out_cost[dst + v]  = leaf_cost[i] + child_cost[i*fanout + v]
  ///   out_path[dst + v]  = (leaf_path[i] >> k) | v << (k*(d-2))
  /// reproducing the scalar fill order (leaf-major, children
  /// contiguous) and float expressions exactly. group_rowbase[g] is the
  /// arena element offset of group g's candidate record, or -1 when the
  /// group was pruned (nothing of it is written at all).
  void (*regroup_emit)(const std::uint32_t* child_state, const float* child_cost,
                       const float* leaf_cost, const std::uint32_t* leaf_path,
                       std::size_t leaves, std::uint32_t fanout, int k, int d,
                       std::uint32_t group_mask, const std::int32_t* group_rowbase,
                       std::uint32_t* out_state, float* out_cost,
                       std::uint32_t* out_path);

  /// Moves the keep smallest keys into [0, keep) in *unspecified*
  /// order (the kept set is deterministic; no order inside or outside
  /// it is). The streaming pipeline's mid-level bound refinements run
  /// this over the survivor buffer — the keep-th-best bound needs the
  /// set, never the order, and the final select re-sorts anyway. Every
  /// backend's table points at the one shared routine (backend.cpp:
  /// sampled-pivot filter passes, no sort), for both key widths.
  void (*partition_keys)(std::uint64_t* keys, std::size_t count, std::size_t keep);

  /// Reorders keys so the keep smallest occupy [0, keep) in ascending
  /// order (the kept *set* and its *order* are deterministic; the tail
  /// order is unspecified). Precondition: keep <= count. In the
  /// streaming pipeline this runs block-locally: over the survivor
  /// buffer once per level at the end, never over the full B·2^k
  /// candidate set. Shared like partition_keys: filter passes cut the
  /// block to ~3x keep, then one bucket pass over the keys' own range
  /// selects and orders the winners.
  void (*select_keys)(std::uint64_t* keys, std::size_t count, std::size_t keep);

  /// GF(2) dense row combine: dst[w] ^= src[w] for w < words. The
  /// kernel table's first non-spinal client — Raptor's LT + LDGM
  /// precode row operations accumulate packed parity rows through it.
  /// dst and src must not overlap. Pure integer XOR, so every backend
  /// is trivially bit-identical.
  void (*xor_rows)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words);

  // --- Quantized (u16/u8-grid) kernel family ---------------------------
  // Integer mirrors of the AWGN expand/prune/regroup contract above.
  // Costs are u16-saturating (min(sum, 65535) everywhere), selection
  // keys are u32 quant_key(cost, cand) values, and every kernel is pure
  // integer — bit-identical across backends by construction, which is
  // the conformance contract test_backend and the forced-u16 golden
  // runs enforce (quantized vs f32 is gated statistically instead, see
  // spinal/cost_model.h).

  /// Quantized awgn_expand_all: out_costs[c] = min(sum of per-symbol
  /// table metrics, 65535) per child, u16. Needs level.rng_scratch and
  /// level.acc_scratch sized count*fanout (premix_scratch when the hash
  /// kind factors and nsym > 1).
  void (*awgn_expand_all_u16)(const AwgnLevelQ& level, const std::uint32_t* states,
                              std::size_t count, std::uint32_t fanout,
                              std::uint32_t* out_states, std::uint16_t* out_costs);

  /// Quantized streaming fused expand+prune, the integer twin of
  /// awgn_expand_prune: same pipeline (hash children, sweep symbol 0,
  /// compress partial-cost survivors, finish the remaining sweeps on
  /// survivors only), same survivor-key append contract with u32 keys
  /// (7 slots of slack). Two integer-only extras sharpen the admissible
  /// bounds: whole rows skip *before any hashing* when
  /// quant_key(parent + min_rest[0], 0) > bound_key, and the partial
  /// compress adds min_rest[1] (the guaranteed remaining-symbol floor)
  /// to each lane's partial cost. Pass bound_key = UINT32_MAX to keep
  /// everything.
  std::size_t (*awgn_expand_prune_u16)(const AwgnLevelQ& level,
                                       const std::uint32_t* states,
                                       const std::uint16_t* parent_cost,
                                       std::size_t count, std::uint32_t fanout,
                                       std::uint32_t cand_base, std::uint32_t bound_key,
                                       std::uint32_t* out_states,
                                       std::uint32_t* out_keys);

  /// Quantized d1_prune: cost = min(parent + child, 65535), key =
  /// quant_key(cost, cand_base + c), append iff key <= bound_key.
  /// Same row short-circuit and slack contract as d1_prune.
  std::size_t (*d1_prune_u16)(const std::uint16_t* parent_cost,
                              const std::uint16_t* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              std::uint32_t bound_key, std::uint32_t* out_keys);

  /// Quantized row_mins: out[i] = min(leaf_cost[i] + min_v child, 65535).
  void (*row_mins_u16)(const std::uint16_t* leaf_cost, const std::uint16_t* child_cost,
                       std::size_t leaves, std::uint32_t fanout, std::uint16_t* out);

  /// Quantized regroup_emit: identical move/order contract to
  /// regroup_emit with out_cost[dst+v] = min(leaf + child, 65535).
  void (*regroup_emit_u16)(const std::uint32_t* child_state,
                           const std::uint16_t* child_cost, const std::uint16_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           std::uint16_t* out_cost, std::uint32_t* out_path);

  /// partition_keys over u32 quantized keys (same set-only contract).
  void (*partition_keys_u32)(std::uint32_t* keys, std::size_t count, std::size_t keep);

  /// select_keys over u32 quantized keys: keep smallest ascending in
  /// [0, keep). u32 keys order exactly by (cost, cand), so ascending
  /// key order *is* the deterministic tie-broken candidate order.
  void (*select_keys_u32)(std::uint32_t* keys, std::size_t count, std::size_t keep);

  /// Batched RNG of §7.1 (domain-separated hash, see SpineHash::rng).
  void rng_n(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
             std::size_t count, std::uint32_t index, std::uint32_t* out) const {
    hash_n(kind, salt, states, count, index ^ 0x80000000u, out);
  }
};

/// Backends compiled in *and* supported by this CPU, detection order
/// (scalar first, widest last). Never empty: scalar is always present.
const std::vector<const Backend*>& available() noexcept;

/// The backend every decode routes through. First call resolves the
/// SPINAL_BACKEND override (unknown names warn on stderr) and otherwise
/// picks the last — widest — entry of available().
const Backend& active() noexcept;

/// Looks a backend up by registry name; nullptr when absent.
const Backend* find(std::string_view name) noexcept;

/// Switches active() to the named backend. Returns false (and leaves
/// the active backend unchanged) when the name is not in available().
bool force(std::string_view name) noexcept;

/// The pure resolution rule behind active()'s first call, exposed for
/// tests: empty/unset requests the detected best; an unknown name sets
/// *warned, prints the available-backend list to stderr (so a typo'd
/// SPINAL_BACKEND tells the user what the valid names are) and falls
/// back to the best. Does not touch active().
const Backend* resolve(std::string_view env_value, bool* warned) noexcept;

/// Space-separated names of every available backend, in detection
/// order — the list resolve() prints on an unknown name.
std::string available_names();

}  // namespace spinal::backend
