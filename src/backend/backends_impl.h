#pragma once
// Internal wiring between the registry (backend.cpp) and the per-ISA
// backend translation units. Not part of the public backend API.

#include <cstddef>
#include <cstdint>

#include "backend/backend.h"

namespace spinal::backend {

// Factories: each returns the TU-local singleton table. A factory is
// only *defined* when its TU is compiled in (SPINAL_BACKEND_HAVE_*);
// the registry references it under the matching #ifdef.
const Backend* scalar_backend() noexcept;
const Backend* sse42_backend() noexcept;
const Backend* avx2_backend() noexcept;
const Backend* neon_backend() noexcept;

// Packed-key B-of-N selection, shared by every backend's table (defined
// in backend.cpp, a baseline TU — never compiled with wide-ISA flags).
// The uint64 keys order exactly like the float comparator (cost, then
// candidate index); the pivot-filter partition fixes the kept *set*,
// sorting the kept prefix fixes its *order* — hence arena layout and every
// equal-cost tie-break downstream — identically on every stdlib and
// backend. partition_keys is the set-only half: the streaming
// pipeline's bound refinements run it mid-level, where the kept order
// is irrelevant (the final select re-sorts), so the prefix sort would
// be pure waste.
void shared_build_keys(const float* costs, std::size_t count, std::uint64_t* keys);
void shared_partition_keys(std::uint64_t* keys, std::size_t count, std::size_t keep);
void shared_select_keys(std::uint64_t* keys, std::size_t count, std::size_t keep);

// uint32 variants for the quantized path's narrow packed keys
// (cost << 16 | candidate): the same routine, instantiated for the
// narrower key. select_keys_u32 with keep >= count sorts all keys.
void shared_partition_keys_u32(std::uint32_t* keys, std::size_t count, std::size_t keep);
void shared_select_keys_u32(std::uint32_t* keys, std::size_t count, std::size_t keep);

}  // namespace spinal::backend
