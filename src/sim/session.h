#pragma once
// The common rateless-session interface every code implements so that a
// single execution engine can stream symbols from encoder through the
// channel to the decoder and collect identical statistics for all codes
// (§8.1: "All codes run through the same engine", with "no sharing of
// information between the transmitter and receiver components").
//
// The decode runtime drives sessions through the same interface, so the
// codec-facing seam is deliberately type-erased: a session may expose a
// reusable decode workspace (CodecWorkspace + WorkspaceKey, pinned per
// worker by the runtime) and a generic integer "effort" knob — beam
// width for spinal, BP iteration cap for LDPC/Raptor, turbo iteration
// budget for Turbo/Strider — that the load-adaptive policy trades for
// compute under overload (the Fig 8-6 knob, generalized).

#include <complex>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bitvec.h"

namespace spinal::sim {

/// Type-erased per-worker decode scratch. Concrete sessions downcast to
/// their own derived type; the contract is that two sessions reporting
/// equal WorkspaceKeys produce (and accept) the same concrete type, so a
/// runtime worker can pin one workspace per key and share it across all
/// sessions of that codec/parameter combination.
class CodecWorkspace {
 public:
  virtual ~CodecWorkspace() = default;
};

/// Codec-tagged key under which the runtime pins workspaces. `codec`
/// names the family ("spinal", "ldpc", ...); `params` serializes every
/// parameter the workspace layout depends on, so distinct parameter
/// sets (heterogeneous links) never share scratch. A default-constructed
/// (invalid) key means the session has no pinnable workspace — its
/// decode attempts run unpinned, which the runtime's telemetry counts.
struct WorkspaceKey {
  std::string codec;
  std::string params;
  /// Batch keys only: whether a claim of this key's decode jobs may take
  /// more than its head job and decode them as one fused batch. Set from
  /// the session's own predicate on its per-attempt search size (fused
  /// batching pays only while per-claim overhead is a visible share of
  /// the decode; above that, a multi-job claim just serializes siblings
  /// onto one worker and hides them from the effort valve's queue-depth
  /// signal). A function of codec + params, so equal keys always agree.
  /// Spinal sessions set it via spinal_batch_pays (sim/spinal_workspace.h):
  /// at most kSpinalBatchCut node expansions per attempt, a cut measured
  /// by bench_runtime_batch_cut. Other codecs leave it false.
  bool batchable = false;

  bool valid() const noexcept { return !codec.empty(); }
  auto operator<=>(const WorkspaceKey&) const = default;
};

/// The session's compute/accuracy knob: `full` is the configured effort
/// (spinal beam width B, LDPC/Raptor BP iterations, turbo iterations),
/// `floor` the lowest value at which an attempt is still worth running.
/// full == 0 means the session has no knob and every attempt runs at
/// the configured setting.
struct EffortProfile {
  int full = 0;
  int floor = 1;
};

class RatelessSession;

/// One session's slot in a cross-session batched decode attempt
/// (try_decode_batch): the session to decode, the effort to run it at
/// (same semantics as try_decode_with) and where to write its candidate.
struct BatchDecodeJob {
  RatelessSession* session = nullptr;
  int effort = 0;
  std::optional<util::BitVec>* candidate = nullptr;
};

class RatelessSession {
 public:
  virtual ~RatelessSession() = default;

  /// Message length in bits this session encodes per run.
  virtual int message_bits() const = 0;

  /// Begins transmission of @p message (message_bits() bits).
  virtual void start(const util::BitVec& message) = 0;

  /// Produces the next chunk of modulated symbols in transmission order.
  /// Chunk boundaries are the decode-attempt opportunities. An empty
  /// chunk means "this scheduling slot carries nothing" (possible with
  /// short spines and deep puncturing) — the engine skips it.
  virtual std::vector<std::complex<float>> next_chunk() = 0;

  /// Delivers the channel output for the chunk produced by the last
  /// next_chunk() call. @p csi is either empty (decoder must treat the
  /// channel as AWGN) or per-symbol fading coefficients.
  virtual void receive_chunk(std::span<const std::complex<float>> y,
                             std::span<const std::complex<float>> csi) = 0;

  /// Runs one decode attempt; returns a candidate message if the decoder
  /// produced one (the engine validates it against the transmitted
  /// message, playing the role of the link-layer CRC).
  virtual std::optional<util::BitVec> try_decode() = 0;

  /// Runtime-worker form of try_decode(): runs the attempt with
  /// caller-owned pinned scratch @p ws — a workspace built by
  /// make_workspace() of any session with an equal workspace_key(), or
  /// nullptr when none is pinned — at @p effort (<= 0: the configured
  /// full effort). With effort <= 0 the candidate is bit-identical to
  /// try_decode() regardless of @p ws, which is what deterministic-mode
  /// runtime/sequential equivalence rests on. The default ignores both
  /// and delegates, for sessions with neither a pinnable workspace nor
  /// an effort knob.
  virtual std::optional<util::BitVec> try_decode_with(CodecWorkspace* /*ws*/,
                                                      int /*effort*/) {
    return try_decode();
  }

  /// Runs one decode attempt for every job in @p jobs in a single
  /// batched pass over @p ws. The runtime only forms batches whose
  /// sessions all report this session's (equal, valid) batch_key(), and
  /// always dispatches on jobs.front().session; each job's candidate
  /// must be bit-identical to the same-effort try_decode_with call run
  /// alone. The default runs the jobs sequentially, so codecs without a
  /// multi-block decode entry point get batching as a no-op.
  virtual void try_decode_batch(CodecWorkspace* ws,
                                std::span<BatchDecodeJob> jobs) {
    for (BatchDecodeJob& j : jobs)
      *j.candidate = j.session->try_decode_with(ws, j.effort);
  }

  /// The key under which the runtime tags this session's decode jobs:
  /// queue routing, per-tag telemetry and — when the key is `batchable`
  /// — aggregation into fused attempts (try_decode_batch). Must be at
  /// least as fine as workspace_key() — sessions with equal batch keys
  /// must be safely batchable together, which can require
  /// distinguishing codecs that deliberately share workspace layouts.
  /// Invalid (default) key: this session's jobs are untagged and never
  /// batched.
  virtual WorkspaceKey batch_key() const { return {}; }

  /// The key under which the runtime pins this session's workspace; an
  /// invalid (default) key means attempts run unpinned.
  virtual WorkspaceKey workspace_key() const { return {}; }

  /// Builds a fresh workspace matching workspace_key(); nullptr when
  /// the session has none.
  virtual std::unique_ptr<CodecWorkspace> make_workspace() const {
    return nullptr;
  }

  /// The effort knob this session's decoder exposes (full == 0: none).
  virtual EffortProfile effort_profile() const { return {}; }

  /// Upper bound on chunks before the sender gives up on the message.
  virtual int max_chunks() const = 0;

  /// Receiver-side channel knowledge: the engine announces the noise
  /// variance once per run (real receivers estimate this from preambles;
  /// soft demappers need it, the spinal decoder does not).
  virtual void set_noise_hint(double /*noise_variance*/) {}
};

}  // namespace spinal::sim
