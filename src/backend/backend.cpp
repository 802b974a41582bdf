// Backend registry: runtime CPU-feature detection, the SPINAL_BACKEND
// environment override, and the shared packed-key selection kernels.
// This TU is always compiled with baseline flags — the shared kernels
// defined here are the copies every backend's table points at, so they
// must run on any CPU the binary reaches.

#include "backend/backends_impl.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "backend/scalar_kernels.h"

#if defined(SPINAL_BACKEND_HAVE_NEON) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace spinal::backend {

void shared_build_keys(const float* costs, std::size_t count, std::uint64_t* keys) {
  scalar::build_keys(costs, count, keys);
}

namespace {

// Exact B-of-N selection over packed keys, one code path for both key
// widths. Keys are unique in every decode (the candidate index rides
// in the low bits), so "the keep smallest" is one well-defined set and
// one ascending order — the same on every backend and stdlib. Real
// cost keys arrive clustered and nearly sorted (children of the best
// parents first), which drives introselect to several times its
// random-input cost. Here the passes over the whole block are
// sequential and branchless (pivot filters, bucket counts and
// scatters), immune to input order; the branchy insertion steps only
// touch a sample, a few dozen ambiguous keys, or keys already placed
// in their bucket.

/// Sorts the m smallest of a[0, n) ascending into a[0, m) by insertion;
/// a[m, n) keeps the rest (a permutation). Linear on sorted input.
template <class K>
void insertion_top(K* a, std::size_t n, std::size_t m) {
  for (std::size_t i = 1; i < n; ++i) {
    const K x = a[i];
    std::size_t j = i;
    if (i >= m) {
      if (!(x < a[m - 1])) continue;
      a[i] = a[m - 1];
      j = m - 1;
    }
    for (; j > 0 && a[j - 1] > x; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

/// Branchless Lomuto partition of a[0, n): every key is swapped toward
/// the front and the boundary advances by the predicate (x < t when
/// kStrict, else x <= t), so the cost does not depend on branch
/// prediction. Returns the boundary.
template <bool kStrict, class K>
std::size_t partition_below(K* a, std::size_t n, K t) {
  std::size_t m = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const K x = a[j];
    a[j] = a[m];
    a[m] = x;
    m += kStrict ? x < t : x <= t;
  }
  return m;
}

/// The keep smallest of a[0, n) (0 < keep <= n), ascending, into
/// a[0, keep). One counting pass into < 2n buckets over the keys' own
/// range (clustered costs spread over every bucket) finds the bucket T
/// that holds the keep-th key; a stable scatter lays out buckets 0..T
/// in order (the rest land in one dump bucket), and an insertion pass
/// that only moves keys inside their bucket finishes. Buckets over 16
/// keys are std::sort-ed first, which bounds skewed inputs at
/// O(n log n). a[keep, n) gets the other keys, in no particular order.
/// Blocks past the stack scratch (beams wider than 1365 only) take
/// std::nth_element + std::sort.
template <class K>
void bucket_select(K* a, std::size_t n, std::size_t keep) {
  constexpr std::size_t kInsertion = 16, kBucketSort = 16, kScratch = 4096;
  if (n <= kInsertion) return insertion_top(a, n, keep);
  if (n > kScratch) {
    std::nth_element(a, a + keep - 1, a + n);
    return std::sort(a, a + keep);
  }
  if (keep == n && std::is_sorted(a, a + n)) return;
  // Bucket on the key with the unused top bits of its candidate-index
  // half squeezed out — cost << cb | index, cb = the indices' width —
  // so equal-cost keys (integer metrics tie a lot) still spread.
  constexpr int kHalf = 4 * sizeof(K);
  constexpr K kIndex = (K{1} << kHalf) - 1;
  K lo = a[0], hi = a[0], index_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, a[i]);
    hi = std::max(hi, a[i]);
    index_bits |= a[i];
  }
  const int cb = std::bit_width(static_cast<K>(index_bits & kIndex));
  const auto squeeze = [cb](K x) { return (x >> kHalf) << cb | (x & kIndex); };
  const K base = squeeze(lo);
  const int range_bits = std::bit_width(static_cast<K>(squeeze(hi) - base));
  const int shift = std::max(0, range_bits - static_cast<int>(std::bit_width(n)));
  const auto bucket = [&](K x) { return static_cast<std::size_t>((squeeze(x) - base) >> shift); };
  std::uint16_t start[2 * kScratch + 1];
  std::memset(start, 0, (bucket(hi) + 1) * sizeof(start[0]));
  for (std::size_t i = 0; i < n; ++i) ++start[bucket(a[i])];
  std::size_t t = 0;  // bucket ends, up to the bucket T holding the keep-th key
  std::uint16_t sum = 0, largest = 0;
  for (;; ++t) {
    largest = std::max(largest, start[t]);
    start[t] = sum += start[t];
    if (sum >= keep) break;
  }
  start[t + 1] = static_cast<std::uint16_t>(n);  // the dump bucket's end
  K tmp[kScratch];
  for (std::size_t i = n; i-- > 0;) tmp[--start[std::min(bucket(a[i]), t + 1)]] = a[i];
  // start[b] is now bucket b's first slot.
  const auto size = [&](std::size_t b) { return std::size_t{start[b + 1]} - start[b]; };
  if (largest > kBucketSort)
    for (std::size_t b = 0; b <= t; ++b)
      if (size(b) > kBucketSort) std::sort(tmp + start[b], tmp + start[b + 1]);
  if (size(t) <= kBucketSort) insertion_top(tmp + start[t], size(t), keep - start[t]);
  a[0] = tmp[0];
  for (std::size_t i = 1; i < keep; ++i) {
    const K x = tmp[i];
    std::size_t j = i;
    for (; j > 0 && a[j - 1] > x; --j) a[j] = a[j - 1];
    a[j] = x;
  }
  std::memcpy(a + keep, tmp + keep, (n - keep) * sizeof(K));  // the rest, so a stays a permutation
}

/// One Floyd–Rivest style round over the block keys[0, count) that
/// needs its keep smallest: two pivots from a strided 16-key sample
/// bracket rank keep; one branchless pass keeps <= hi (the keep-th key
/// lies below it unless the sample was unlucky) and, when @p lower, a
/// second pass over that prefix splits off the certainly-kept < lo
/// keys. The block narrows to the ambiguous part — settled keys stay
/// in front of it — and an unlucky pivot only costs one more round
/// (the side it misjudged is settled, so the block still shrinks).
/// Returns false when the block did not shrink (duplicate keys only).
template <class K>
bool filter_round(K*& keys, std::size_t& count, std::size_t& keep, bool lower) {
  constexpr std::size_t kSample = 16;
  K s[kSample];
  const std::size_t stride = count / kSample;
  for (std::size_t i = 0; i < kSample; ++i) s[i] = keys[i * stride + stride / 2];
  const std::size_t t = keep * kSample / count;  // rank keep, in sample units
  const std::size_t hi = t + 2;
  insertion_top(s, kSample, std::min(hi + 1, kSample));
  const std::size_t before = count;
  if (hi + 1 < kSample) {
    const std::size_t m = partition_below<false>(keys, count, s[hi]);
    if (m <= keep) {  // everything <= hi is kept: go on above it
      keys += m;
      count -= m;
      keep -= m;
      return true;
    }
    count = m;
  }
  if (lower && t >= 2) {
    const std::size_t m = partition_below<true>(keys, count, s[t - 2]);
    if (m >= keep) {
      count = m;
    } else {
      keys += m;
      count -= m;
      keep -= m;
    }
  }
  return count < before;
}

/// Moves the keep smallest of keys[0, count) into [0, keep), any order:
/// filter rounds down to a few dozen keys, then a partial insertion
/// sort. In place, no scratch, any count.
template <class K>
void partition_keys(K* keys, std::size_t count, std::size_t keep) {
  constexpr std::size_t kSmall = 48;
  while (keep > 0 && keep < count) {
    if (count <= kSmall) return insertion_top(keys, count, keep);
    if (!filter_round(keys, count, keep, /*lower=*/true))
      return std::nth_element(keys, keys + keep, keys + count);
  }
}

/// The keep smallest of keys[0, count), ascending, in [0, keep): upper
/// filter rounds (~2 cycles a key) cut the block to at most 3x keep,
/// then bucket_select (~10-15 cycles a key) finishes. If an unlucky
/// pivot settled a prefix in front of the block, that prefix and the
/// block's winners are sorted together at the end.
template <class K>
void select_keys(K* keys, std::size_t count, std::size_t keep) {
  constexpr std::size_t kSmall = 48;
  K* const out = keys;
  const std::size_t want = keep;
  while (keep > 0 && count > std::max(kSmall, 3 * keep))
    if (!filter_round(keys, count, keep, /*lower=*/false)) break;
  if (keep > 0) bucket_select(keys, count, keep);
  if (keys != out) bucket_select(out, want, want);
}

}  // namespace

void shared_partition_keys(std::uint64_t* keys, std::size_t count, std::size_t keep) {
  partition_keys(keys, count, keep);
}

void shared_select_keys(std::uint64_t* keys, std::size_t count, std::size_t keep) {
  if (keep < count) select_keys(keys, count, keep);  // keep >= count: order kept
}

void shared_partition_keys_u32(std::uint32_t* keys, std::size_t count, std::size_t keep) {
  partition_keys(keys, count, keep);
}

void shared_select_keys_u32(std::uint32_t* keys, std::size_t count, std::size_t keep) {
  // keep >= count degenerates to a full ascending sort — the quantized
  // finalize leans on this for survivor sets no larger than the beam.
  select_keys(keys, count, std::min(keep, count));
}

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
// __builtin_cpu_supports runs CPUID (and XGETBV for the AVX family, so
// OS save support is included) and caches the result.
[[maybe_unused]] bool cpu_has_sse42() { return __builtin_cpu_supports("sse4.2") != 0; }
[[maybe_unused]] bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
#else
[[maybe_unused]] bool cpu_has_sse42() { return false; }
[[maybe_unused]] bool cpu_has_avx2() { return false; }
#endif

#if defined(SPINAL_BACKEND_HAVE_NEON)
bool cpu_has_neon() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  return true;  // ASIMD is architectural on aarch64
#endif
}
#endif

/// Detection order: scalar first, widest last — the default pick is
/// the back of the list.
const std::vector<const Backend*>& registry() {
  static const std::vector<const Backend*> r = [] {
    std::vector<const Backend*> v;
    v.push_back(scalar_backend());
#if defined(SPINAL_BACKEND_HAVE_SSE42)
    if (cpu_has_sse42()) v.push_back(sse42_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_AVX2)
    if (cpu_has_avx2()) v.push_back(avx2_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_NEON)
    if (cpu_has_neon()) v.push_back(neon_backend());
#endif
    return v;
  }();
  return r;
}

/// Mutable slot behind active(); resolved lazily so the SPINAL_BACKEND
/// override is read exactly once, at first use. resolve() itself
/// prints the diagnostic (with the available-backend list) on an
/// unknown name, so every resolution path tells the user what the
/// valid names are.
const Backend*& active_slot() {
  static const Backend* slot = [] {
    const char* env = std::getenv("SPINAL_BACKEND");
    bool warned = false;
    return resolve(env ? std::string_view(env) : std::string_view(), &warned);
  }();
  return slot;
}

}  // namespace

const std::vector<const Backend*>& available() noexcept { return registry(); }

const Backend* find(std::string_view name) noexcept {
  for (const Backend* b : registry())
    if (name == b->name) return b;
  return nullptr;
}

std::string available_names() {
  std::string names;
  for (const Backend* b : registry()) {
    if (!names.empty()) names += ' ';
    names += b->name;
  }
  return names;
}

const Backend* resolve(std::string_view env_value, bool* warned) noexcept {
  if (!env_value.empty()) {
    if (const Backend* b = find(env_value)) return b;
    if (warned) *warned = true;
    const Backend* best = registry().back();
    std::fprintf(stderr,
                 "spinal: SPINAL_BACKEND=%.*s is not available; using '%s' "
                 "(available: %s)\n",
                 static_cast<int>(env_value.size()), env_value.data(), best->name,
                 available_names().c_str());
    return best;
  }
  return registry().back();
}

const Backend& active() noexcept { return *active_slot(); }

bool force(std::string_view name) noexcept {
  const Backend* b = find(name);
  if (b == nullptr) return false;
  active_slot() = b;
  return true;
}

}  // namespace spinal::backend
