// The kernel-backend registry and the kernel-level bit-identity
// contract (backend/backend.h): detection invariants, the
// SPINAL_BACKEND override resolution rule, force()/find() behaviour,
// and — for every available backend — direct equivalence of each
// kernel-table entry against the scalar backend on randomized inputs.
// test_decoder_golden covers the same contract end-to-end through full
// decodes; this suite pins it at the single-kernel level so a lane bug
// is reported next to the kernel that has it.

#include "backend/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "util/prng.h"

namespace spinal {
namespace {

using backend::Backend;

const Backend* scalar() {
  const Backend* b = backend::find("scalar");
  EXPECT_NE(b, nullptr);
  return b;
}

/// Non-scalar backends to compare against the scalar reference.
std::vector<const Backend*> simd_backends() {
  std::vector<const Backend*> out;
  for (const Backend* b : backend::available())
    if (std::string_view(b->name) != "scalar") out.push_back(b);
  return out;
}

constexpr hash::Kind kKinds[] = {hash::Kind::kOneAtATime, hash::Kind::kLookup3,
                                 hash::Kind::kSalsa20};

// ------------------------------------------------------------ registry

TEST(BackendRegistry, ScalarIsAlwaysAvailableAndFirst) {
  const auto& av = backend::available();
  ASSERT_FALSE(av.empty());
  EXPECT_STREQ(av.front()->name, "scalar");
  EXPECT_EQ(av.front()->lanes, 1);
}

TEST(BackendRegistry, ActiveIsAvailable) {
  const Backend* act = &backend::active();
  bool found = false;
  for (const Backend* b : backend::available()) found |= (b == act);
  EXPECT_TRUE(found);
}

TEST(BackendRegistry, NamesAreUniqueAndLanesSane) {
  std::vector<std::string> names;
  for (const Backend* b : backend::available()) {
    names.emplace_back(b->name);
    EXPECT_GE(b->lanes, 1) << b->name;
    // Every table entry must be populated.
    EXPECT_NE(b->hash_n, nullptr) << b->name;
    EXPECT_NE(b->hash_children, nullptr) << b->name;
    EXPECT_NE(b->premix_n, nullptr) << b->name;
    EXPECT_NE(b->hash_premixed_n, nullptr) << b->name;
    EXPECT_NE(b->awgn_expand_all, nullptr) << b->name;
    EXPECT_NE(b->bsc_expand_all, nullptr) << b->name;
    EXPECT_NE(b->awgn_expand_prune, nullptr) << b->name;
    EXPECT_NE(b->build_keys, nullptr) << b->name;
    EXPECT_NE(b->d1_prune, nullptr) << b->name;
    EXPECT_NE(b->row_mins, nullptr) << b->name;
    EXPECT_NE(b->regroup_emit, nullptr) << b->name;
    EXPECT_NE(b->partition_keys, nullptr) << b->name;
    EXPECT_NE(b->select_keys, nullptr) << b->name;
    EXPECT_NE(b->xor_rows, nullptr) << b->name;
  }
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
}

TEST(BackendRegistry, FindMatchesAvailable) {
  for (const Backend* b : backend::available()) EXPECT_EQ(backend::find(b->name), b);
  EXPECT_EQ(backend::find("definitely-not-a-backend"), nullptr);
  EXPECT_EQ(backend::find(""), nullptr);
}

TEST(BackendRegistry, ResolveEmptyPicksDetectedBest) {
  bool warned = false;
  EXPECT_EQ(backend::resolve("", &warned), backend::available().back());
  EXPECT_FALSE(warned);
}

TEST(BackendRegistry, ResolveKnownNamePicksIt) {
  for (const Backend* b : backend::available()) {
    bool warned = false;
    EXPECT_EQ(backend::resolve(b->name, &warned), b);
    EXPECT_FALSE(warned) << b->name;
  }
}

TEST(BackendRegistry, ResolveUnknownNameWarnsAndFallsBack) {
  // The SPINAL_BACKEND=<unknown> rule: warn (resolve prints the
  // available-backend list to stderr so the user learns the valid
  // names), then use the detected best.
  bool warned = false;
  EXPECT_EQ(backend::resolve("mmx", &warned), backend::available().back());
  EXPECT_TRUE(warned);
}

TEST(BackendRegistry, AvailableNamesListsEveryBackendInOrder) {
  // The list resolve() prints on an unknown SPINAL_BACKEND: every
  // available backend, detection order, space-separated.
  const std::string names = backend::available_names();
  std::string want;
  for (const Backend* b : backend::available()) {
    if (!want.empty()) want += ' ';
    want += b->name;
  }
  EXPECT_EQ(names, want);
  EXPECT_NE(names.find("scalar"), std::string::npos);
}

TEST(BackendRegistry, ForceSwitchesAndRejectsUnknown) {
  const Backend* before = &backend::active();
  for (const Backend* b : backend::available()) {
    EXPECT_TRUE(backend::force(b->name));
    EXPECT_EQ(&backend::active(), b);
    // An unknown name must fail AND leave the active backend untouched.
    EXPECT_FALSE(backend::force("avx1024"));
    EXPECT_EQ(&backend::active(), b);
  }
  backend::force(before->name);
}

// ------------------------------------------------- kernel equivalence

/// Randomized lane arrays at sizes straddling every vector width,
/// including 0 and sizes exercising SIMD tails.
constexpr std::size_t kSizes[] = {0, 1, 3, 7, 8, 9, 31, 64, 257, 1000};

std::vector<std::uint32_t> random_words(util::Xoshiro256& prng, std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(prng.next_u64());
  return v;
}

TEST(BackendKernels, HashLanesMatchScalarExactly) {
  util::Xoshiro256 prng(101);
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      for (std::size_t n : kSizes) {
        const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
        const std::uint32_t data = static_cast<std::uint32_t>(prng.next_u64());
        const auto states = random_words(prng, n);
        std::vector<std::uint32_t> want(n), got(n);
        scalar()->hash_n(kind, salt, states.data(), n, data, want.data());
        b->hash_n(kind, salt, states.data(), n, data, got.data());
        EXPECT_EQ(want, got) << b->name << " hash_n kind="
                             << hash::kind_name(kind) << " n=" << n;
        scalar()->rng_n(kind, salt, states.data(), n, data, want.data());
        b->rng_n(kind, salt, states.data(), n, data, got.data());
        EXPECT_EQ(want, got) << b->name << " rng_n kind=" << hash::kind_name(kind)
                             << " n=" << n;
      }
    }
  }
}

TEST(BackendKernels, HashChildrenMatchScalarExactly) {
  util::Xoshiro256 prng(102);
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{256},
                            std::size_t{300}}) {
        // 512 exceeds the SIMD kernels' chunk-vector table (kMaxFanout
        // = 256): must take the scalar fallback, not overrun it.
        for (std::uint32_t fanout : {1u, 2u, 16u, 512u}) {
          const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
          const auto states = random_words(prng, n);
          std::vector<std::uint32_t> want(n * fanout), got(n * fanout);
          scalar()->hash_children(kind, salt, states.data(), n, fanout, want.data());
          b->hash_children(kind, salt, states.data(), n, fanout, got.data());
          EXPECT_EQ(want, got) << b->name << " kind=" << hash::kind_name(kind)
                               << " n=" << n << " fanout=" << fanout;
        }
      }
    }
  }
}

TEST(BackendKernels, PremixCompositionMatchesScalarExactly) {
  util::Xoshiro256 prng(103);
  for (const Backend* b : simd_backends()) {
    for (std::size_t n : kSizes) {
      const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
      const std::uint32_t data = static_cast<std::uint32_t>(prng.next_u64());
      const auto states = random_words(prng, n);
      std::vector<std::uint32_t> pm_want(n), pm_got(n), want(n), got(n);
      scalar()->premix_n(salt, states.data(), n, pm_want.data());
      b->premix_n(salt, states.data(), n, pm_got.data());
      EXPECT_EQ(pm_want, pm_got) << b->name << " premix_n n=" << n;
      scalar()->hash_premixed_n(pm_want.data(), n, data, want.data());
      b->hash_premixed_n(pm_want.data(), n, data, got.data());
      EXPECT_EQ(want, got) << b->name << " hash_premixed_n n=" << n;
      // Composition == direct one-at-a-time hash.
      b->hash_n(hash::Kind::kOneAtATime, salt, states.data(), n, data, want.data());
      EXPECT_EQ(want, got) << b->name << " premix composition n=" << n;
    }
  }
}

/// Builds a small random constellation table (power-of-two size, as the
/// real one) for the cost-metric kernels.
std::vector<float> random_table(util::Xoshiro256& prng, int cbits) {
  std::vector<float> t(std::size_t{1} << cbits);
  for (auto& x : t) x = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
  return t;
}

TEST(BackendKernels, AwgnExpandAllMatchesScalarExactly) {
  util::Xoshiro256 prng(104);
  backend::ExpandScratch sc_want, sc_got;
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      for (int mode = 0; mode < 3; ++mode) {  // plain, CSI, CSI+fixed-point
        const int cbits = 6;
        const auto table = random_table(prng, cbits);
        const std::size_t count = 37;  // deliberately not a lane multiple
        const std::uint32_t fanout = 8;
        const std::size_t total = count * fanout;
        const auto states = random_words(prng, count);
        const std::uint32_t nsym = 5;
        const auto ord = random_words(prng, nsym);
        std::vector<float> y_re(nsym), y_im(nsym), h_re(nsym), h_im(nsym);
        for (std::uint32_t s = 0; s < nsym; ++s) {
          y_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          y_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          h_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          h_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
        }
        const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

        auto run = [&](const Backend* be, backend::ExpandScratch& sc,
                       std::vector<std::uint32_t>& out_states,
                       std::vector<float>& out_costs) {
          sc.rng_words.resize(total);
          sc.premix.resize(total);
          backend::AwgnLevel level{kind,
                                   salt,
                                   ord.data(),
                                   nsym,
                                   y_re.data(),
                                   y_im.data(),
                                   h_re.data(),
                                   h_im.data(),
                                   /*use_csi=*/mode > 0,
                                   /*fx_scale=*/mode == 2 ? 64.0f : 0.0f,
                                   table.data(),
                                   table.data(),
                                   static_cast<std::uint32_t>(table.size() - 1),
                                   cbits,
                                   sc.rng_words.data(),
                                   sc.premix.data(),
                                   nullptr,
                                   nullptr};
          out_states.resize(total);
          out_costs.resize(total);
          be->awgn_expand_all(level, states.data(), count, fanout, out_states.data(),
                              out_costs.data());
        };

        std::vector<std::uint32_t> st_want, st_got;
        std::vector<float> c_want, c_got;
        run(scalar(), sc_want, st_want, c_want);
        run(b, sc_got, st_got, c_got);
        EXPECT_EQ(st_want, st_got)
            << b->name << " states, kind=" << hash::kind_name(kind) << " mode=" << mode;
        // Float costs must match to the exact bit, not approximately.
        ASSERT_EQ(c_want.size(), c_got.size());
        for (std::size_t i = 0; i < c_want.size(); ++i)
          EXPECT_EQ(std::memcmp(&c_want[i], &c_got[i], sizeof(float)), 0)
              << b->name << " cost lane " << i << " kind=" << hash::kind_name(kind)
              << " mode=" << mode << " want=" << c_want[i] << " got=" << c_got[i];
      }
    }
  }
}

TEST(BackendKernels, BscExpandAllMatchesScalarExactly) {
  util::Xoshiro256 prng(105);
  backend::ExpandScratch sc_want, sc_got;
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      const std::size_t count = 29;
      const std::uint32_t fanout = 4;
      const std::size_t total = count * fanout;
      const auto states = random_words(prng, count);
      const std::uint32_t nsym = 130;  // > 2 packed blocks, partial tail
      const auto ord = random_words(prng, nsym);
      std::vector<std::uint64_t> rx_words((nsym + 63) / 64);
      for (auto& wd : rx_words) wd = prng.next_u64();
      const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

      auto run = [&](const Backend* be, backend::ExpandScratch& sc,
                     std::vector<std::uint32_t>& out_states,
                     std::vector<float>& out_costs) {
        sc.rng_words.resize(total);
        sc.premix.resize(total);
        sc.acc_bits.resize(total);
        backend::BscLevel level{kind,
                                salt,
                                ord.data(),
                                nsym,
                                rx_words.data(),
                                sc.rng_words.data(),
                                sc.premix.data(),
                                sc.acc_bits.data()};
        out_states.resize(total);
        out_costs.resize(total);
        be->bsc_expand_all(level, states.data(), count, fanout, out_states.data(),
                           out_costs.data());
      };

      std::vector<std::uint32_t> st_want, st_got;
      std::vector<float> c_want, c_got;
      run(scalar(), sc_want, st_want, c_want);
      run(b, sc_got, st_got, c_got);
      EXPECT_EQ(st_want, st_got) << b->name << " kind=" << hash::kind_name(kind);
      EXPECT_EQ(c_want, c_got) << b->name << " kind=" << hash::kind_name(kind);
    }
  }
}

TEST(BackendKernels, AwgnExpandPruneMatchesSplitPipeline) {
  // The fused streaming kernel — expansion, metric sweeps, partial-cost
  // narrowing and the bound filter in one call — must append exactly
  // the keys that awgn_expand_all followed by d1_prune produces, with
  // identical child states, for every backend x hash kind x channel
  // mode x bound tightness (including the degenerate keep-everything
  // bound, where no narrowing happens).
  util::Xoshiro256 prng(111);
  backend::ExpandScratch sc_split, sc_fused;
  for (const Backend* b : backend::available()) {
    for (hash::Kind kind : kKinds) {
      for (int mode = 0; mode < 3; ++mode) {  // plain, CSI, CSI+fixed-point
        const int cbits = 6;
        const auto table = random_table(prng, cbits);
        const std::size_t count = 37;
        const std::uint32_t fanout = 8;
        const std::size_t total = count * fanout;
        const auto states = random_words(prng, count);
        const std::uint32_t nsym = 3;
        const auto ord = random_words(prng, nsym);
        std::vector<float> y_re(nsym), y_im(nsym), h_re(nsym), h_im(nsym);
        for (std::uint32_t s = 0; s < nsym; ++s) {
          y_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          y_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          h_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          h_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
        }
        std::vector<float> parent(count);
        float walk = 0.5f;
        for (auto& p : parent) {
          walk += static_cast<float>(prng.next_double()) * 0.3f;
          p = walk;
        }
        const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

        auto make_level = [&](backend::ExpandScratch& sc) {
          sc.rng_words.resize(total);
          sc.premix.resize(total);
          sc.acc.resize(total);
          sc.idx.resize(total);
          return backend::AwgnLevel{kind,
                                    salt,
                                    ord.data(),
                                    nsym,
                                    y_re.data(),
                                    y_im.data(),
                                    h_re.data(),
                                    h_im.data(),
                                    /*use_csi=*/mode > 0,
                                    /*fx_scale=*/mode == 2 ? 64.0f : 0.0f,
                                    table.data(),
                                    table.data(),
                                    static_cast<std::uint32_t>(table.size() - 1),
                                    cbits,
                                    sc.rng_words.data(),
                                    sc.premix.data(),
                                    sc.acc.data(),
                                    sc.idx.data()};
        };

        // Split reference: full expansion, then the generic prune.
        const backend::AwgnLevel ls = make_level(sc_split);
        std::vector<std::uint32_t> st_split(total);
        std::vector<float> costs(total);
        b->awgn_expand_all(ls, states.data(), count, fanout, st_split.data(),
                           costs.data());

        for (int bsel = 0; bsel < 3; ++bsel) {
          // Bounds: keep everything / the 25% point / the 75% point.
          std::uint64_t bound = ~0ull;
          if (bsel > 0) {
            std::vector<float> fin(total);
            for (std::size_t i = 0; i < count; ++i)
              for (std::uint32_t v = 0; v < fanout; ++v)
                fin[i * fanout + v] = parent[i] + costs[i * fanout + v];
            std::sort(fin.begin(), fin.end());
            const float cut = fin[bsel == 1 ? total / 4 : 3 * total / 4];
            bound = (static_cast<std::uint64_t>(backend::monotone_key(cut)) << 32) |
                    0x000004FFull;  // a mid-range index tie-break
          }
          std::vector<std::uint64_t> k_split(total + 7, ~0ull), k_fused(total + 7, ~1ull);
          const std::size_t n_split =
              b->d1_prune(parent.data(), costs.data(), count, fanout, 100, bound,
                          k_split.data());
          const backend::AwgnLevel lf = make_level(sc_fused);
          std::vector<std::uint32_t> st_fused(total, ~0u);
          const std::size_t n_fused =
              b->awgn_expand_prune(lf, states.data(), parent.data(), count, fanout, 100,
                                   bound, st_fused.data(), k_fused.data());
          EXPECT_EQ(n_split, n_fused)
              << b->name << " kind=" << hash::kind_name(kind) << " mode=" << mode
              << " bsel=" << bsel;
          EXPECT_EQ(st_split, st_fused) << b->name << " mode=" << mode;
          for (std::size_t j = 0; j < std::min(n_split, n_fused); ++j)
            EXPECT_EQ(k_split[j], k_fused[j])
                << b->name << " kind=" << hash::kind_name(kind) << " mode=" << mode
                << " bsel=" << bsel << " survivor " << j;
        }
      }
    }
  }
}

TEST(BackendKernels, PartitionKeysKeepsTheSelectSet) {
  // The set-only refinement half of the selection contract: the keep
  // smallest keys land in [0, keep) in some order — exactly the
  // select_keys set, order-free.
  util::Xoshiro256 prng(112);
  for (const Backend* b : backend::available()) {
    for (std::size_t n : {std::size_t{2}, std::size_t{300}, std::size_t{4096}}) {
      std::vector<float> costs(n);
      float walk = 5.0f;
      for (auto& c : costs) {
        walk += static_cast<float>(prng.next_double()) * 0.25f;
        c = walk + static_cast<float>(prng.next_double()) * 2.0f;
      }
      std::vector<std::uint64_t> keys(n);
      b->build_keys(costs.data(), n, keys.data());
      std::vector<std::uint64_t> sorted = keys;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t keep : {std::size_t{1}, n / 2, n - 1}) {
        if (keep == 0) continue;
        std::vector<std::uint64_t> work = keys;
        b->partition_keys(work.data(), n, keep);
        std::sort(work.begin(), work.begin() + keep);
        for (std::size_t i = 0; i < keep; ++i)
          EXPECT_EQ(work[i], sorted[i]) << b->name << " n=" << n << " keep=" << keep;
      }
    }
  }
}

TEST(BackendKernels, SelectionKeysMatchScalarExactly) {
  util::Xoshiro256 prng(106);
  for (const Backend* b : simd_backends()) {
    for (std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{1024}}) {
      std::vector<float> costs(n);
      for (auto& c : costs)
        c = static_cast<float>(prng.next_double()) * 8.0f - 1.0f;  // mixed signs
      costs[0] = 0.0f;  // exercise ties at zero
      if (n > 4) costs[4] = 0.0f;
      std::vector<std::uint64_t> want(n), got(n);
      scalar()->build_keys(costs.data(), n, want.data());
      b->build_keys(costs.data(), n, got.data());
      EXPECT_EQ(want, got) << b->name << " build_keys n=" << n;

      // Selection: same kept set, same kept order.
      const std::size_t keep = n / 2 + 1;
      std::vector<std::uint64_t> sel_want = want, sel_got = got;
      scalar()->select_keys(sel_want.data(), n, keep);
      b->select_keys(sel_got.data(), n, keep);
      sel_want.resize(keep);
      sel_got.resize(keep);
      EXPECT_EQ(sel_want, sel_got) << b->name << " select_keys n=" << n;
    }
  }
}

TEST(BackendKernels, D1PruneMatchesScalarExactly) {
  // The streaming finalize+prune kernel: for every backend, every
  // fanout shape and several bound tightnesses (keep-all, mid, tight),
  // the appended survivors — keys, gathered states, candidate indices
  // and the returned count — must match the scalar kernel exactly, and
  // must equal the brute-force filter of the materialized candidate
  // set (the retired d1_keys contract this kernel replaces).
  util::Xoshiro256 prng(107);
  for (const Backend* b : backend::available()) {
    // Fanouts straddling the lane widths, incl. short-final-chunk sizes.
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 64u}) {
      const std::size_t count = 53;
      const std::size_t total = count * fanout;
      std::vector<float> parent(count), child(total);
      for (auto& c : parent) c = static_cast<float>(prng.next_double()) * 30.0f;
      for (auto& c : child) c = static_cast<float>(prng.next_double()) * 10.0f;

      // Brute force: every candidate's finalized cost and key.
      std::vector<float> cost(total);
      for (std::size_t i = 0; i < count; ++i)
        for (std::uint32_t v = 0; v < fanout; ++v)
          cost[i * fanout + v] = parent[i] + child[i * fanout + v];

      // Bounds: keep-everything, cost-only cuts, and a mid-candidate
      // full-key cut whose index tie-break is on the line.
      for (const std::uint64_t bound :
           {~0ull, (static_cast<std::uint64_t>(backend::monotone_key(18.0f)) << 32) |
                       0xFFFFFFFFull,
            (static_cast<std::uint64_t>(backend::monotone_key(6.0f)) << 32) | 1200ull}) {
        const std::uint32_t cand_base = 1000;
        // + 7 slack: SIMD backends compress-store whole vectors.
        std::vector<std::uint64_t> keys(total + 7, ~0ull);
        const std::size_t got = b->d1_prune(parent.data(), child.data(), count, fanout,
                                            cand_base, bound, keys.data());
        std::size_t want = 0;
        for (std::size_t c = 0; c < total; ++c) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(backend::monotone_key(cost[c])) << 32) |
              (cand_base + c);
          if (key > bound) continue;
          ASSERT_LT(want, got) << b->name << " fanout=" << fanout;
          EXPECT_EQ(keys[want], key)
              << b->name << " fanout=" << fanout << " survivor " << want;
          ++want;
        }
        EXPECT_EQ(got, want) << b->name << " fanout=" << fanout << " bound=" << bound;
      }
    }
  }
}

TEST(BackendKernels, RowMinsMatchScalarExactly) {
  util::Xoshiro256 prng(109);
  for (const Backend* b : backend::available()) {
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const std::size_t leaves = 41;
      std::vector<float> leaf_cost(leaves), child(leaves * fanout);
      for (auto& c : leaf_cost) c = static_cast<float>(prng.next_double()) * 30.0f;
      for (auto& c : child) c = static_cast<float>(prng.next_double()) * 10.0f;
      // Exercise exact ties inside a row: the min must stay bit-stable.
      if (fanout > 2) child[3 * fanout + 2] = child[3 * fanout + 1];
      std::vector<float> got(leaves, -1.0f);
      b->row_mins(leaf_cost.data(), child.data(), leaves, fanout, got.data());
      for (std::size_t i = 0; i < leaves; ++i) {
        float m = child[i * fanout];
        for (std::uint32_t v = 1; v < fanout; ++v)
          if (child[i * fanout + v] < m) m = child[i * fanout + v];
        const float want = leaf_cost[i] + m;
        EXPECT_EQ(std::memcmp(&want, &got[i], sizeof(float)), 0)
            << b->name << " fanout=" << fanout << " leaf " << i;
      }
    }
  }
}

TEST(BackendKernels, RegroupEmitMatchesScalarExactly) {
  // The vectorized d>1 regroup: surviving groups' child rows must land
  // in the survivor arena exactly as the scalar reference places them
  // (leaf-major fill order, finalized costs, extended paths), and
  // pruned groups' arena rows must never be touched.
  util::Xoshiro256 prng(110);
  for (const Backend* b : backend::available()) {
    for (const int d : {2, 3}) {
      const int k = 3;
      const std::uint32_t fanout = 8, group_count = 8;
      const std::uint32_t group_mask = group_count - 1;
      const std::size_t lpe = 16;  // leaves per entry: 2 per group
      std::vector<std::uint32_t> child_state(lpe * fanout), leaf_path(lpe);
      std::vector<float> child_cost(lpe * fanout), leaf_cost(lpe);
      for (auto& s : child_state) s = static_cast<std::uint32_t>(prng.next_u64());
      for (auto& c : child_cost) c = static_cast<float>(prng.next_double()) * 10.0f;
      for (auto& c : leaf_cost) c = static_cast<float>(prng.next_double()) * 30.0f;
      // Paths: two leaves per group, upper path bits random.
      for (std::size_t i = 0; i < lpe; ++i)
        leaf_path[i] = static_cast<std::uint32_t>(i % group_count) |
                       (static_cast<std::uint32_t>(prng.next_u64() & 0x7u) << k);
      // Groups 0, 3, 5 pruned; the rest get distinct row bases.
      const std::uint32_t rows = static_cast<std::uint32_t>(lpe / group_count) * fanout;
      std::vector<std::int32_t> rowbase(group_count, -1);
      std::int32_t base = 0;
      for (std::uint32_t g = 0; g < group_count; ++g) {
        if (g == 0 || g == 3 || g == 5) continue;
        rowbase[g] = base;
        base += static_cast<std::int32_t>(rows);
      }
      const std::size_t arena = static_cast<std::size_t>(base) + rows;  // + guard rows
      std::vector<std::uint32_t> st_want(arena, 0xABABABABu), st_got = st_want;
      std::vector<float> c_want(arena, -7.0f), c_got = c_want;
      std::vector<std::uint32_t> p_want(arena, 0xCDCDCDCDu), p_got = p_want;
      scalar()->regroup_emit(child_state.data(), child_cost.data(), leaf_cost.data(),
                             leaf_path.data(), lpe, fanout, k, d, group_mask,
                             rowbase.data(), st_want.data(), c_want.data(),
                             p_want.data());
      b->regroup_emit(child_state.data(), child_cost.data(), leaf_cost.data(),
                      leaf_path.data(), lpe, fanout, k, d, group_mask, rowbase.data(),
                      st_got.data(), c_got.data(), p_got.data());
      EXPECT_EQ(st_want, st_got) << b->name << " d=" << d;
      EXPECT_EQ(p_want, p_got) << b->name << " d=" << d;
      ASSERT_EQ(c_want.size(), c_got.size());
      for (std::size_t i = 0; i < c_want.size(); ++i)
        EXPECT_EQ(std::memcmp(&c_want[i], &c_got[i], sizeof(float)), 0)
            << b->name << " d=" << d << " row " << i;
      // Semantics spot-check against first principles, group 1.
      std::uint32_t fill = 0;
      for (std::size_t lf = 0; lf < lpe; ++lf) {
        if ((leaf_path[lf] & group_mask) != 1u) continue;
        for (std::uint32_t v = 0; v < fanout; ++v) {
          const std::size_t dst = static_cast<std::size_t>(rowbase[1]) + fill * fanout + v;
          EXPECT_EQ(st_got[dst], child_state[lf * fanout + v]);
          const float want = leaf_cost[lf] + child_cost[lf * fanout + v];
          EXPECT_EQ(std::memcmp(&want, &c_got[dst], sizeof(float)), 0);
          EXPECT_EQ(p_got[dst], (leaf_path[lf] >> k) | (v << (k * (d - 2))));
        }
        ++fill;
      }
    }
  }
}

TEST(BackendKernels, StreamingPruneEqualsFullExpandSelect) {
  // The admissibility property behind the whole streaming pipeline: on
  // randomized blocks and beams, running expand blocks through d1_prune
  // with the running keep-th-best bound (tightened by block-local
  // compactions, exactly as beam_search does) must keep the same keys,
  // in the same packed-key order, as materializing every candidate and
  // running the full B-of-N select. Seeds are logged for replay.
  constexpr std::uint64_t kMasterSeed = 0xBEADC0DE2026ull;
  util::Xoshiro256 master(kMasterSeed);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = master.next_u64();
    util::Xoshiro256 prng(seed);
    const std::uint32_t fanout = 1u << (2 + prng.next_below(3));  // 4/8/16
    const std::size_t count = 32 + prng.next_below(200);          // leaves
    const std::size_t total = count * fanout;
    const int keep = static_cast<int>(std::min<std::size_t>(
        total, 16u << prng.next_below(4)));  // 16..128
    std::vector<float> parent(count), child(total);
    // Clustered, near-sorted parents — the shape real beams have.
    float walk = 1.0f;
    for (auto& c : parent) {
      walk += static_cast<float>(prng.next_double()) * 0.2f;
      c = walk;
    }
    for (auto& c : child) c = static_cast<float>(prng.next_double()) * 4.0f;

    // Reference: materialize + full select (the retired contract).
    std::vector<float> cost(total);
    for (std::size_t i = 0; i < count; ++i)
      for (std::uint32_t v = 0; v < fanout; ++v)
        cost[i * fanout + v] = parent[i] + child[i * fanout + v];
    std::vector<std::uint64_t> full(total);
    backend::find("scalar")->build_keys(cost.data(), total, full.data());
    std::sort(full.begin(), full.end());

    for (const Backend* b : backend::available()) {
      const std::size_t block_leaves = 1 + prng.next_below(31);
      const std::size_t trigger = 2 * static_cast<std::size_t>(keep);
      std::vector<std::uint64_t> keys(total + 7);  // compress-store slack
      std::uint64_t bound = ~0ull;
      std::size_t sc = 0;
      for (std::size_t L = 0; L < count; L += block_leaves) {
        const std::size_t n = std::min(block_leaves, count - L);
        sc += b->d1_prune(parent.data() + L, child.data() + L * fanout, n, fanout,
                          static_cast<std::uint32_t>(L * fanout), bound,
                          keys.data() + sc);
        // The online bound: keep-th best survivor so far, via the
        // block-local refinement (truncation is admissible).
        if (sc >= trigger && L + n < count) {
          b->select_keys(keys.data(), sc, static_cast<std::size_t>(keep));
          sc = static_cast<std::size_t>(keep);
          bound = keys[keep - 1];  // the full keep-th-best packed key
        }
      }
      ASSERT_GE(sc, static_cast<std::size_t>(keep)) << b->name << " seed=" << seed;
      b->select_keys(keys.data(), sc, static_cast<std::size_t>(keep));
      // The kept keys — cost bits AND candidate indices, in packed-key
      // order — must be exactly the full sort's prefix.
      for (int j = 0; j < keep; ++j)
        EXPECT_EQ(keys[j], full[j]) << b->name << " seed=" << seed << " kept " << j;
    }
  }
}

TEST(BackendKernels, SelectKeysMatchesFullSortReference) {
  // The selection must keep exactly the keep smallest keys, in
  // ascending order — i.e. the prefix of a full sort. Exercised on
  // clustered near-sorted keys (the shape real decode costs have) and
  // several keep points, for every backend's table entry.
  util::Xoshiro256 prng(108);
  for (const Backend* b : backend::available()) {
    for (std::size_t n : {std::size_t{2}, std::size_t{100}, std::size_t{4096},
                          std::size_t{5000}}) {
      std::vector<float> costs(n);
      float walk = 20.0f;
      for (auto& c : costs) {
        walk += static_cast<float>(prng.next_double()) * 0.25f;
        c = walk + static_cast<float>(prng.next_double()) * 2.0f;
      }
      std::vector<std::uint64_t> keys(n);
      b->build_keys(costs.data(), n, keys.data());
      std::vector<std::uint64_t> sorted = keys;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t keep : {std::size_t{1}, n / 3, n - 1, n}) {
        if (keep == 0) continue;
        std::vector<std::uint64_t> work = keys;
        b->select_keys(work.data(), n, keep);
        bool ok = true;
        if (keep < n) {
          for (std::size_t i = 0; i < keep; ++i) ok &= work[i] == sorted[i];
        } else {
          // keep == n is a no-op by contract (no pruning, order kept).
          ok = work == keys;
        }
        EXPECT_TRUE(ok) << b->name << " n=" << n << " keep=" << keep;
      }
    }
  }
}

TEST(BackendKernels, XorRowsMatchesScalarExactly) {
  // The dense GF(2) row combine (Raptor's precode client): dst ^= src
  // must match the scalar word loop on every backend, at word counts
  // straddling the vector strides (AVX2 covers 4 u64 words per step,
  // SSE/NEON 2) including 0 and odd tails, and must accumulate — a
  // second combine with the same row must cancel it.
  util::Xoshiro256 prng(113);
  for (const Backend* b : simd_backends()) {
    for (std::size_t words : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{4}, std::size_t{5},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{31}, std::size_t{64}, std::size_t{257}}) {
      std::vector<std::uint64_t> src(words), want(words), got(words);
      for (auto& wd : src) wd = prng.next_u64();
      for (std::size_t i = 0; i < words; ++i) want[i] = got[i] = prng.next_u64();
      scalar()->xor_rows(want.data(), src.data(), words);
      b->xor_rows(got.data(), src.data(), words);
      EXPECT_EQ(want, got) << b->name << " words=" << words;
      // Involution: XORing the same row again restores the original.
      std::vector<std::uint64_t> round = got;
      b->xor_rows(round.data(), src.data(), words);
      scalar()->xor_rows(want.data(), src.data(), words);
      EXPECT_EQ(round, want) << b->name << " words=" << words << " (involution)";
    }
  }
}

// ------------------------------------------- quantized (u16) kernels

/// Builds a randomized quantized level table: nsym rows of 2^(2*cbits)
/// u16 metrics (+1 u16 of gather tail slack, the AwgnLevelQ::qtab
/// contract) with a few near-cap entries so saturating adds clamp.
std::vector<std::uint16_t> random_qtab(util::Xoshiro256& prng, std::uint32_t nsym,
                                       std::uint32_t qstride) {
  std::vector<std::uint16_t> t(static_cast<std::size_t>(nsym) * qstride + 1, 0);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const std::uint32_t r = static_cast<std::uint32_t>(prng.next_u64());
    t[i] = static_cast<std::uint16_t>((r & 0xFFu) == 0 ? 60000u + (r % 5000u)
                                                       : r % 2048u);
  }
  return t;
}

/// True admissible suffix floors: min_rest[s] = saturating sum of the
/// minima of rows s.., min_rest[nsym] = 0.
std::vector<std::uint16_t> suffix_floors(const std::vector<std::uint16_t>& qtab,
                                         std::uint32_t nsym, std::uint32_t qstride) {
  std::vector<std::uint16_t> floors(nsym + 1, 0);
  for (std::uint32_t s = nsym; s-- > 0;) {
    std::uint32_t m = 65535;
    for (std::uint32_t w = 0; w < qstride; ++w)
      m = std::min(m, static_cast<std::uint32_t>(qtab[s * qstride + w]));
    floors[s] = static_cast<std::uint16_t>(
        std::min(65535u, m + static_cast<std::uint32_t>(floors[s + 1])));
  }
  return floors;
}

TEST(BackendKernels, QuantizedExpandAllMatchesBruteForce) {
  // awgn_expand_all_u16 on every backend must equal the from-scratch
  // definition: child state = h(state, v); cost = clamp(sum over
  // symbols of qtab[s][rng(child, ord[s]) & qmask]). This pins the
  // SIMD gather/saturation path bit-exactly, not just scalar-vs-SIMD.
  util::Xoshiro256 prng(120);
  for (const Backend* b : backend::available()) {
    for (hash::Kind kind : kKinds) {
      const int cbits = 3;  // small grid keeps brute force cheap
      const std::uint32_t qstride = 1u << (2 * cbits);
      const std::uint32_t nsym = 3, fanout = 8;
      const std::size_t count = 37;  // not a lane multiple
      const std::size_t total = count * fanout;
      const auto states = random_words(prng, count);
      const auto ord = random_words(prng, nsym);
      const auto qtab = random_qtab(prng, nsym, qstride);
      const auto floors = suffix_floors(qtab, nsym, qstride);
      const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

      std::vector<std::uint32_t> rng_sc(total), premix_sc(total), acc_sc(total);
      const backend::AwgnLevelQ level{kind,          salt,
                                      ord.data(),    nsym,
                                      qtab.data(),   qstride,
                                      qstride - 1,   floors.data(),
                                      rng_sc.data(), premix_sc.data(),
                                      acc_sc.data(), nullptr};
      std::vector<std::uint32_t> out_states(total);
      std::vector<std::uint16_t> out_costs(total);
      b->awgn_expand_all_u16(level, states.data(), count, fanout, out_states.data(),
                             out_costs.data());

      const hash::SpineHash h(kind, salt);
      for (std::size_t i = 0; i < count; ++i)
        for (std::uint32_t v = 0; v < fanout; ++v) {
          const std::uint32_t child = h(states[i], v);
          std::uint32_t acc = 0;
          for (std::uint32_t s = 0; s < nsym; ++s)
            acc += qtab[s * qstride + (h.rng(child, ord[s]) & (qstride - 1))];
          const std::size_t c = i * fanout + v;
          ASSERT_EQ(out_states[c], child)
              << b->name << " kind=" << hash::kind_name(kind) << " c=" << c;
          ASSERT_EQ(out_costs[c], static_cast<std::uint16_t>(std::min(acc, 65535u)))
              << b->name << " kind=" << hash::kind_name(kind) << " c=" << c;
        }
    }
  }
}

TEST(BackendKernels, QuantizedD1PruneMatchesBruteForce) {
  util::Xoshiro256 prng(121);
  for (const Backend* b : backend::available()) {
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 64u}) {
      const std::size_t count = 53;
      const std::size_t total = count * fanout;
      std::vector<std::uint16_t> parent(count), child(total);
      for (auto& c : parent)
        c = static_cast<std::uint16_t>(prng.next_u64() % 3000u);
      for (auto& c : child)
        c = static_cast<std::uint16_t>((prng.next_u64() & 0x3Fu) == 0
                                           ? 65000u
                                           : prng.next_u64() % 1000u);
      for (const std::uint32_t bound :
           {~0u, backend::quant_key(2500, 0xFFFF), backend::quant_key(900, 1200)}) {
        const std::uint32_t cand_base = 1000;
        std::vector<std::uint32_t> keys(total + 7, ~0u);
        const std::size_t got = b->d1_prune_u16(parent.data(), child.data(), count,
                                                fanout, cand_base, bound, keys.data());
        std::size_t want = 0;
        for (std::size_t c = 0; c < total; ++c) {
          const std::uint32_t cost = std::min(
              65535u, static_cast<std::uint32_t>(parent[c / fanout]) + child[c]);
          const std::uint32_t key =
              backend::quant_key(cost, cand_base + static_cast<std::uint32_t>(c));
          if (key > bound) continue;
          ASSERT_LT(want, got) << b->name << " fanout=" << fanout;
          EXPECT_EQ(keys[want], key)
              << b->name << " fanout=" << fanout << " survivor " << want;
          ++want;
        }
        EXPECT_EQ(got, want) << b->name << " fanout=" << fanout << " bound=" << bound;
      }
    }
  }
}

TEST(BackendKernels, QuantizedExpandPruneMatchesSplitPipeline) {
  // The fused integer streaming kernel must append exactly the keys of
  // awgn_expand_all_u16 + d1_prune_u16, for every backend x hash kind
  // x bound tightness — including bounds tight enough to trip the
  // min_rest row-skip and partial-floor sharpenings, which may only
  // ever skip work, never change the survivor set.
  util::Xoshiro256 prng(122);
  for (const Backend* b : backend::available()) {
    for (hash::Kind kind : kKinds) {
      const int cbits = 3;
      const std::uint32_t qstride = 1u << (2 * cbits);
      const std::uint32_t nsym = 3, fanout = 8;
      const std::size_t count = 37;
      const std::size_t total = count * fanout;
      const auto states = random_words(prng, count);
      const auto ord = random_words(prng, nsym);
      const auto qtab = random_qtab(prng, nsym, qstride);
      const auto floors = suffix_floors(qtab, nsym, qstride);
      const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
      std::vector<std::uint16_t> parent(count);
      for (auto& c : parent)
        c = static_cast<std::uint16_t>(prng.next_u64() % 2000u);

      std::vector<std::uint32_t> rng_sc(total), premix_sc(total), acc_sc(total),
          idx_sc(total);
      auto make_level = [&] {
        return backend::AwgnLevelQ{kind,          salt,
                                   ord.data(),    nsym,
                                   qtab.data(),   qstride,
                                   qstride - 1,   floors.data(),
                                   rng_sc.data(), premix_sc.data(),
                                   acc_sc.data(), idx_sc.data()};
      };

      const backend::AwgnLevelQ ls = make_level();
      std::vector<std::uint32_t> st_split(total);
      std::vector<std::uint16_t> costs(total);
      b->awgn_expand_all_u16(ls, states.data(), count, fanout, st_split.data(),
                             costs.data());

      for (int bsel = 0; bsel < 3; ++bsel) {
        std::uint32_t bound = ~0u;
        if (bsel > 0) {
          std::vector<std::uint32_t> fin(total);
          for (std::size_t i = 0; i < count; ++i)
            for (std::uint32_t v = 0; v < fanout; ++v)
              fin[i * fanout + v] = std::min(
                  65535u, static_cast<std::uint32_t>(parent[i]) + costs[i * fanout + v]);
          std::sort(fin.begin(), fin.end());
          bound = backend::quant_key(fin[bsel == 1 ? total / 4 : 3 * total / 4], 0x4FF);
        }
        std::vector<std::uint32_t> k_split(total + 7, ~0u), k_fused(total + 7, ~1u);
        const std::size_t n_split = b->d1_prune_u16(parent.data(), costs.data(), count,
                                                    fanout, 100, bound, k_split.data());
        const backend::AwgnLevelQ lf = make_level();
        std::vector<std::uint32_t> st_fused(total, ~0u);
        const std::size_t n_fused =
            b->awgn_expand_prune_u16(lf, states.data(), parent.data(), count, fanout,
                                     100, bound, st_fused.data(), k_fused.data());
        EXPECT_EQ(n_split, n_fused)
            << b->name << " kind=" << hash::kind_name(kind) << " bsel=" << bsel;
        EXPECT_EQ(st_split, st_fused) << b->name << " bsel=" << bsel;
        for (std::size_t j = 0; j < std::min(n_split, n_fused); ++j)
          EXPECT_EQ(k_split[j], k_fused[j])
              << b->name << " kind=" << hash::kind_name(kind) << " bsel=" << bsel
              << " survivor " << j;
      }
    }
  }
}

TEST(BackendKernels, QuantizedRowMinsMatchBruteForce) {
  util::Xoshiro256 prng(123);
  for (const Backend* b : backend::available()) {
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const std::size_t leaves = 41;
      std::vector<std::uint16_t> leaf_cost(leaves), child(leaves * fanout);
      for (auto& c : leaf_cost)
        c = static_cast<std::uint16_t>(prng.next_u64() % 60000u);
      for (auto& c : child) c = static_cast<std::uint16_t>(prng.next_u64() % 9000u);
      if (fanout > 2) child[3 * fanout + 2] = child[3 * fanout + 1];  // exact tie
      std::vector<std::uint16_t> got(leaves, 0xAAAA);
      b->row_mins_u16(leaf_cost.data(), child.data(), leaves, fanout, got.data());
      for (std::size_t i = 0; i < leaves; ++i) {
        std::uint32_t m = child[i * fanout];
        for (std::uint32_t v = 1; v < fanout; ++v)
          m = std::min(m, static_cast<std::uint32_t>(child[i * fanout + v]));
        EXPECT_EQ(got[i], static_cast<std::uint16_t>(
                              std::min(65535u, static_cast<std::uint32_t>(leaf_cost[i]) + m)))
            << b->name << " fanout=" << fanout << " leaf " << i;
      }
    }
  }
}

TEST(BackendKernels, QuantizedRegroupEmitMatchesScalarExactly) {
  // The u16 twin of RegroupEmitMatchesScalarExactly: same move/order
  // contract, saturating finalized costs, untouched pruned rows.
  util::Xoshiro256 prng(124);
  for (const Backend* b : backend::available()) {
    for (const int d : {2, 3}) {
      const int k = 3;
      const std::uint32_t fanout = 8, group_count = 8;
      const std::uint32_t group_mask = group_count - 1;
      const std::size_t lpe = 16;
      std::vector<std::uint32_t> child_state(lpe * fanout), leaf_path(lpe);
      std::vector<std::uint16_t> child_cost(lpe * fanout), leaf_cost(lpe);
      for (auto& s : child_state) s = static_cast<std::uint32_t>(prng.next_u64());
      for (auto& c : child_cost) c = static_cast<std::uint16_t>(prng.next_u64() % 9000u);
      for (auto& c : leaf_cost)
        c = static_cast<std::uint16_t>((prng.next_u64() & 7u) == 0
                                           ? 64000u  // force saturation rows
                                           : prng.next_u64() % 30000u);
      for (std::size_t i = 0; i < lpe; ++i)
        leaf_path[i] = static_cast<std::uint32_t>(i % group_count) |
                       (static_cast<std::uint32_t>(prng.next_u64() & 0x7u) << k);
      const std::uint32_t rows = static_cast<std::uint32_t>(lpe / group_count) * fanout;
      std::vector<std::int32_t> rowbase(group_count, -1);
      std::int32_t base = 0;
      for (std::uint32_t g = 0; g < group_count; ++g) {
        if (g == 0 || g == 3 || g == 5) continue;
        rowbase[g] = base;
        base += static_cast<std::int32_t>(rows);
      }
      const std::size_t arena = static_cast<std::size_t>(base) + rows;
      std::vector<std::uint32_t> st_want(arena, 0xABABABABu), st_got = st_want;
      std::vector<std::uint16_t> c_want(arena, 0x7777), c_got = c_want;
      std::vector<std::uint32_t> p_want(arena, 0xCDCDCDCDu), p_got = p_want;
      scalar()->regroup_emit_u16(child_state.data(), child_cost.data(),
                                 leaf_cost.data(), leaf_path.data(), lpe, fanout, k, d,
                                 group_mask, rowbase.data(), st_want.data(),
                                 c_want.data(), p_want.data());
      b->regroup_emit_u16(child_state.data(), child_cost.data(), leaf_cost.data(),
                          leaf_path.data(), lpe, fanout, k, d, group_mask,
                          rowbase.data(), st_got.data(), c_got.data(), p_got.data());
      EXPECT_EQ(st_want, st_got) << b->name << " d=" << d;
      EXPECT_EQ(p_want, p_got) << b->name << " d=" << d;
      EXPECT_EQ(c_want, c_got) << b->name << " d=" << d;
      // Semantics spot-check against first principles, group 1.
      std::uint32_t fill = 0;
      for (std::size_t lf = 0; lf < lpe; ++lf) {
        if ((leaf_path[lf] & group_mask) != 1u) continue;
        for (std::uint32_t v = 0; v < fanout; ++v) {
          const std::size_t dst = static_cast<std::size_t>(rowbase[1]) + fill * fanout + v;
          EXPECT_EQ(st_got[dst], child_state[lf * fanout + v]);
          EXPECT_EQ(c_got[dst],
                    static_cast<std::uint16_t>(std::min(
                        65535u, static_cast<std::uint32_t>(leaf_cost[lf]) +
                                    child_cost[lf * fanout + v])));
          EXPECT_EQ(p_got[dst], (leaf_path[lf] >> k) | (v << (k * (d - 2))));
        }
        ++fill;
      }
    }
  }
}

TEST(BackendKernels, PartitionKeysU32KeepsTheSelectSet) {
  // Set-only contract of the u32 refinement used by the quantized
  // selection: the keep smallest keys land in [0, keep) in some order.
  util::Xoshiro256 prng(125);
  for (const Backend* b : backend::available()) {
    for (std::size_t n : {std::size_t{2}, std::size_t{300}, std::size_t{4096},
                          std::size_t{9000}}) {
      std::vector<std::uint32_t> keys(n);
      // Clustered costs in the high half, dense candidate ids below —
      // the shape the quantized beam produces after renormalization.
      std::uint32_t walk = 40;
      for (std::size_t i = 0; i < n; ++i) {
        walk += static_cast<std::uint32_t>(prng.next_u64() % 3u);
        keys[i] = backend::quant_key(walk % 700u, static_cast<std::uint32_t>(i) & 0xFFFF);
      }
      std::vector<std::uint32_t> sorted = keys;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t keep : {std::size_t{1}, n / 2, n - 1}) {
        if (keep == 0) continue;
        std::vector<std::uint32_t> work = keys;
        b->partition_keys_u32(work.data(), n, keep);
        std::sort(work.begin(), work.begin() + keep);
        for (std::size_t i = 0; i < keep; ++i)
          EXPECT_EQ(work[i], sorted[i]) << b->name << " n=" << n << " keep=" << keep;
      }
    }
  }
}

TEST(BackendKernels, SelectKeysU32MatchesFullSortReference) {
  // Full contract: smallest keep keys ascending in [0, keep) — which
  // for packed (cost << 16 | cand) keys *is* the deterministic
  // tie-broken candidate order. Also covers keep >= count (the
  // quantized finalize uses that as its full sort).
  util::Xoshiro256 prng(126);
  for (const Backend* b : backend::available()) {
    for (std::size_t n :
         {std::size_t{1}, std::size_t{37}, std::size_t{512}, std::size_t{5000}}) {
      std::vector<std::uint32_t> keys(n);
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = backend::quant_key(
            static_cast<std::uint32_t>(prng.next_u64() % 900u),
            static_cast<std::uint32_t>(i) & 0xFFFF);
      std::vector<std::uint32_t> sorted = keys;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t keep : {std::size_t{1}, n / 2, n - 1, n, n + 20}) {
        if (keep == 0) continue;
        std::vector<std::uint32_t> work = keys;
        b->select_keys_u32(work.data(), n, keep);
        for (std::size_t i = 0; i < std::min(keep, n); ++i)
          EXPECT_EQ(work[i], sorted[i]) << b->name << " n=" << n << " keep=" << keep;
      }
    }
  }
}

/// Packed selection keys of one input shape: the cost word from @p cost
/// (float for u64 keys, a u16-grid integer for u32 keys), candidate
/// index @p cand[i] below it.
template <class K>
std::vector<K> shaped_keys(int shape, std::size_t n, util::Xoshiro256& prng) {
  std::vector<std::uint32_t> cand(n);
  for (std::size_t i = 0; i < n; ++i) cand[i] = static_cast<std::uint32_t>(i);
  std::vector<double> cost(n);
  double walk = 20.0;
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0: cost[i] = static_cast<double>(i) * 0.25; break;        // ascending
      case 1: cost[i] = static_cast<double>(n - i) * 0.25; break;    // descending
      case 2: cost[i] = 3.0; break;                                  // all equal
      default:                                                      // clustered
        walk += prng.next_double() * 0.05;
        cost[i] = walk + prng.next_double() * 2.0;
    }
  }
  if (shape == 2)  // equal costs: only the (shuffled) candidate index orders
    for (std::size_t i = n; i > 1; --i) std::swap(cand[i - 1], cand[prng.next_below(i)]);
  std::vector<K> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (sizeof(K) == 8)
      keys[i] = static_cast<std::uint64_t>(backend::monotone_key(static_cast<float>(cost[i])))
                    << 32 |
                cand[i];
    else
      keys[i] = backend::quant_key(
          static_cast<std::uint32_t>(std::min(65535.0, cost[i] * 16.0)), cand[i]);
  }
  return keys;
}

template <class K>
void check_selection_shapes(const Backend* b,
                            void (*partition)(K*, std::size_t, std::size_t),
                            void (*select)(K*, std::size_t, std::size_t), const char* width) {
  util::Xoshiro256 prng(131);
  for (std::size_t n : {std::size_t{2}, std::size_t{17}, std::size_t{256}, std::size_t{4096},
                        std::size_t{4097}, std::size_t{16384}}) {
    for (int shape = 0; shape < 4; ++shape) {
      const std::vector<K> keys = shaped_keys<K>(shape, n, prng);
      std::vector<K> sorted = keys;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t keep : {std::size_t{1}, std::size_t{2}, n / 2, n - 1}) {
        if (keep == 0 || keep >= n) continue;
        const auto kept = static_cast<std::ptrdiff_t>(keep);
        std::vector<K> work = keys;
        partition(work.data(), n, keep);
        std::sort(work.begin(), work.begin() + kept);
        EXPECT_TRUE(std::equal(work.begin(), work.begin() + kept, sorted.begin()))
            << b->name << " " << width << " partition n=" << n << " shape=" << shape
            << " keep=" << keep;
        std::sort(work.begin(), work.end());  // a reorder: every key still there
        EXPECT_EQ(work, sorted) << b->name << " " << width << " partition n=" << n;
        work = keys;
        select(work.data(), n, keep);
        EXPECT_TRUE(std::equal(work.begin(), work.begin() + kept, sorted.begin()))
            << b->name << " " << width << " select n=" << n << " shape=" << shape
            << " keep=" << keep;
        std::sort(work.begin(), work.end());
        EXPECT_EQ(work, sorted) << b->name << " " << width << " select n=" << n;
      }
    }
  }
}

TEST(BackendKernels, SelectionMatchesSortReferenceOnEveryShape) {
  // Both key widths against a std::sort reference: partition_keys keeps
  // the keep smallest (any order), select_keys keeps them ascending,
  // and both only reorder — on ascending, descending, all-equal-cost
  // (candidate index decides) and clustered inputs, at keep points from
  // 1 to count-1 and counts on both sides of every scratch-buffer size
  // the kernels use.
  for (const Backend* b : backend::available()) {
    check_selection_shapes<std::uint64_t>(b, b->partition_keys, b->select_keys, "u64");
    check_selection_shapes<std::uint32_t>(b, b->partition_keys_u32, b->select_keys_u32,
                                          "u32");
  }
}

TEST(BackendKernels, MonotoneKeyOrdersLikeFloat) {
  const float vals[] = {-3.5f, -0.0f, 0.0f, 1e-30f, 0.25f, 1.0f, 1e30f};
  for (float a : vals)
    for (float c : vals) {
      if (a < c) {
        EXPECT_LT(backend::monotone_key(a), backend::monotone_key(c)) << a << " " << c;
      }
      if (a == c && std::signbit(a) == std::signbit(c)) {
        EXPECT_EQ(backend::monotone_key(a), backend::monotone_key(c)) << a;
      }
    }
}

}  // namespace
}  // namespace spinal
