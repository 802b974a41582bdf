#pragma once
// The three closed-loop workloads (README.md explains the choice). A
// workload builds its inputs from the seed once, in its constructor;
// run_pass() then serves the whole fixed message count once through a
// fresh DecodeService, so every pass starts from the same state and
// retains the same memory.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// How a pass is instrumented.
///   kBare   no decorator around the sessions (fleets only): end-to-end
///           latency is not observable, only admission-rate goodput.
///   kStamp  the untraced configuration: the fleets' forwarding
///           decorator reads one clock per decode call to stamp
///           completions; link_mux reads clocks per round only.
///   kTraced per-layer timing around every public call, plus spans.
enum class Mode { kBare, kStamp, kTraced };

const char* mode_name(Mode m);

struct PassResult {
  Mode mode = Mode::kStamp;
  double setup_s = 0.0;   ///< service construction -> end of warm-up
  double window_s = 0.0;  ///< steady window: warm-up end -> last admission
  double bits = 0.0;      ///< verified message bits completed in the window
  double symbols = 0.0;   ///< channel symbols those messages spent
  double cpu_ns = 0.0;    ///< process user+sys CPU over the window
  double admit_bps = 0.0; ///< message bits admitted per window second
  /// Admission -> verified completion of every message completed in the
  /// window; +inf for a message admitted in the window that failed.
  std::vector<double> latency_ms;
  long started = 0;       ///< messages of the pass (all of them)
  long delivered = 0;     ///< verified deliveries
  long failed = 0;        ///< give-ups + wrong deliveries
  long crc_false_accepts = 0;  ///< link_mux: CRC-16-valid, wrong bytes
  long resends = 0;       ///< link_mux: frames the CRC-32 sent back
  std::string accounting_error;  ///< empty when the accounting checks out
  LayerMetrics layer;     ///< per-layer metrics (traced passes only)
  std::vector<std::string> notes;  ///< human-readable extras (traced)
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Whether the workload decorates sessions (so kBare differs from
  /// kStamp).
  virtual bool decorated() const = 0;
  /// One pass. @p spans receives message spans in traced passes (may
  /// be null).
  virtual PassResult run_pass(Mode mode, SpanRecorder* spans) = 0;
  /// Deterministic-mode proof that the decorator changes nothing;
  /// returns an empty string on success, else what differed. Appends
  /// the compared figures to @p notes.
  virtual std::string check_decorator(std::vector<std::string>& notes) {
    (void)notes;
    return {};
  }
  /// Per-layer metrics this workload bypasses, with the reason.
  virtual std::vector<std::pair<std::string, std::string>> not_applicable()
      const = 0;
};

std::unique_ptr<Workload> make_link_mux(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_small_b(std::uint64_t seed);

}  // namespace perfbench
