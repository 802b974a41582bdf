// fleet_mixed and fleet_small_b: closed-loop session fleets submitted
// through DecodeService::submit, paced only by admission backpressure.
//
// Sessions are wrapped in ProbeSession, a forwarding RatelessSession
// decorator. In the untraced configuration it reads one clock per
// decode call, to stamp the moment a session's decoder first returns
// the transmitted message (the runtime exposes no completion
// callback). In traced passes it also times next_chunk (encoder),
// the gap before receive_chunk (the engine's channel), receive_chunk
// (receiver feed) and every decode attempt, and records message spans.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <optional>

#include "runtime/decode_service.h"
#include "sim/bsc_session.h"
#include "sim/spinal_session.h"
#include "util/prng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spinal::CodeParams;
using spinal::runtime::DecodeService;
using spinal::runtime::RuntimeOptions;
using spinal::runtime::SessionReport;
using spinal::runtime::SessionSpec;
using spinal::sim::ChannelKind;
using spinal::util::BitVec;
namespace sim = spinal::sim;

constexpr int kWorkers = 2;

/// Per-thread layer accumulators of a traced pass.
struct ThreadAcc {
  std::int64_t enc_ns = 0, enc_syms = 0;
  std::int64_t chan_ns = 0;
  std::int64_t recv_ns = 0, recv_syms = 0;
  std::int64_t decode_calls = 0, attempts = 0;
  std::vector<double> attempt_us;
};

/// Everything the decorators of one pass share.
class PassProbe {
 public:
  PassProbe(std::size_t messages, bool traced, SpanRecorder* spans,
            int span_every)
      : done_ns(new std::atomic<std::int64_t>[messages]()),
        traced(traced),
        spans(spans),
        span_every(span_every),
        id_(next_id_.fetch_add(1)) {}

  ThreadAcc& acc() {
    thread_local std::uint64_t cached_id = 0;
    thread_local ThreadAcc* cached = nullptr;
    if (cached_id != id_) {
      auto a = std::make_unique<ThreadAcc>();
      a->attempt_us.reserve(1 << 14);
      std::lock_guard lock(m_);
      cached = a.get();
      accs_.push_back(std::move(a));
      cached_id = id_;
    }
    return *cached;
  }
  bool sampled(std::int64_t msg) const {
    return spans != nullptr && msg % span_every == 0;
  }
  /// Merged accumulators; call once the service has drained.
  ThreadAcc merged() const {
    ThreadAcc out;
    std::lock_guard lock(m_);
    for (const auto& a : accs_) {
      out.enc_ns += a->enc_ns;
      out.enc_syms += a->enc_syms;
      out.chan_ns += a->chan_ns;
      out.recv_ns += a->recv_ns;
      out.recv_syms += a->recv_syms;
      out.decode_calls += a->decode_calls;
      out.attempts += a->attempts;
      out.attempt_us.insert(out.attempt_us.end(), a->attempt_us.begin(),
                            a->attempt_us.end());
    }
    return out;
  }

  /// Per message: when its decoder first returned the message (0: never).
  std::unique_ptr<std::atomic<std::int64_t>[]> done_ns;
  const bool traced;
  SpanRecorder* const spans;
  const int span_every;

 private:
  static inline std::atomic<std::uint64_t> next_id_{1};
  const std::uint64_t id_;
  mutable std::mutex m_;  ///< guards accs_
  std::vector<std::unique_ptr<ThreadAcc>> accs_;
};

/// Forwarding decorator. Forwards every virtual of the session
/// contract (keys, workspace factory, effort profile, give-up bound,
/// noise hint) so the runtime pins, batches and adapts exactly as for
/// the bare session.
class ProbeSession final : public sim::RatelessSession {
 public:
  ProbeSession(std::unique_ptr<sim::RatelessSession> inner, PassProbe* probe,
               std::int64_t msg)
      : inner_(std::move(inner)), probe_(probe), msg_id_(msg) {}

  int message_bits() const override { return inner_->message_bits(); }
  void start(const BitVec& message) override {
    message_ = &message;
    inner_->start(message);
  }
  std::vector<std::complex<float>> next_chunk() override {
    if (!probe_->traced) return inner_->next_chunk();
    const std::int64_t t0 = now_ns();
    std::vector<std::complex<float>> chunk = inner_->next_chunk();
    chunk_end_ns_ = now_ns();
    ThreadAcc& a = probe_->acc();
    a.enc_ns += chunk_end_ns_ - t0;
    a.enc_syms += static_cast<std::int64_t>(chunk.size());
    if (probe_->sampled(msg_id_))
      probe_->spans->record("encode", t0, chunk_end_ns_, msg_id_,
                            static_cast<std::int32_t>(chunk.size()));
    return chunk;
  }
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override {
    if (!probe_->traced) {
      inner_->receive_chunk(y, csi);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->receive_chunk(y, csi);
    const std::int64_t t1 = now_ns();
    ThreadAcc& a = probe_->acc();
    a.chan_ns += t0 - chunk_end_ns_;
    a.recv_ns += t1 - t0;
    a.recv_syms += static_cast<std::int64_t>(y.size());
    if (probe_->sampled(msg_id_)) {
      const auto n = static_cast<std::int32_t>(y.size());
      probe_->spans->record("channel", chunk_end_ns_, t0, msg_id_, n);
      probe_->spans->record("ingest", t0, t1, msg_id_, n);
    }
  }
  std::optional<BitVec> try_decode() override {
    const std::int64_t t0 = probe_->traced ? now_ns() : 0;
    std::optional<BitVec> c = inner_->try_decode();
    after_decode(c, t0, now_ns(), 1);
    return c;
  }
  std::optional<BitVec> try_decode_with(sim::CodecWorkspace* ws,
                                        int effort) override {
    const std::int64_t t0 = probe_->traced ? now_ns() : 0;
    std::optional<BitVec> c = inner_->try_decode_with(ws, effort);
    after_decode(c, t0, now_ns(), 1);
    return c;
  }
  /// Unwraps the jobs (every session of a batch is a ProbeSession: the
  /// runtime only batches equal batch keys, and a pass decorates all of
  /// its sessions) and dispatches the inner batch on the front job's
  /// inner session, as the runtime would have.
  void try_decode_batch(sim::CodecWorkspace* ws,
                        std::span<sim::BatchDecodeJob> jobs) override {
    thread_local std::vector<sim::BatchDecodeJob> inner_jobs;
    inner_jobs.clear();
    for (const sim::BatchDecodeJob& j : jobs)
      inner_jobs.push_back({static_cast<ProbeSession*>(j.session)->inner_.get(),
                            j.effort, j.candidate});
    const std::int64_t t0 = probe_->traced ? now_ns() : 0;
    inner_jobs.front().session->try_decode_batch(ws, inner_jobs);
    const std::int64_t t1 = now_ns();
    const auto n = static_cast<int>(jobs.size());
    if (probe_->traced && n > 1) ++probe_->acc().decode_calls;
    for (const sim::BatchDecodeJob& j : jobs)
      static_cast<ProbeSession*>(j.session)->after_decode(*j.candidate, t0, t1, n);
  }
  sim::WorkspaceKey batch_key() const override { return inner_->batch_key(); }
  sim::WorkspaceKey workspace_key() const override {
    return inner_->workspace_key();
  }
  std::unique_ptr<sim::CodecWorkspace> make_workspace() const override {
    return inner_->make_workspace();
  }
  sim::EffortProfile effort_profile() const override {
    return inner_->effort_profile();
  }
  int max_chunks() const override { return inner_->max_chunks(); }
  void set_noise_hint(double noise_variance) override {
    inner_->set_noise_hint(noise_variance);
  }

 private:
  /// @p batch jobs shared the decode call [t0, t1].
  void after_decode(const std::optional<BitVec>& candidate, std::int64_t t0,
                    std::int64_t t1, int batch) {
    std::atomic<std::int64_t>& done =
        probe_->done_ns[static_cast<std::size_t>(msg_id_)];
    const bool delivered = candidate && *candidate == *message_;
    if (delivered && done.load(std::memory_order_relaxed) == 0)
      done.store(t1, std::memory_order_relaxed);
    if (!probe_->traced) return;
    ThreadAcc& a = probe_->acc();
    if (batch == 1) ++a.decode_calls;  // try_decode_batch counts its own call
    ++a.attempts;
    a.attempt_us.push_back(static_cast<double>(t1 - t0) / 1000.0 / batch);
    if (probe_->sampled(msg_id_)) {
      probe_->spans->record("decode", t0, t1, msg_id_, batch);
      if (delivered) probe_->spans->record("complete", t1, t1, msg_id_, 0);
    }
  }
  std::unique_ptr<sim::RatelessSession> inner_;
  PassProbe* probe_;
  std::int64_t msg_id_;
  const BitVec* message_ = nullptr;
  std::int64_t chunk_end_ns_ = 0;
};

/// One message of a fleet: its code, channel and payload.
struct FleetInput {
  CodeParams params;
  bool bsc = false;
  spinal::runtime::ChannelSpec channel;
  BitVec message;
};

struct FleetShape {
  const char* name;
  int messages;     ///< per pass
  int warmup;       ///< admissions before the steady window opens
  int span_every;   ///< traced passes keep spans of every k-th message
  int check_count;  ///< sessions in the deterministic decorator check
};

class Fleet final : public Workload {
 public:
  Fleet(FleetShape shape, std::vector<FleetInput> inputs)
      : shape_(shape), inputs_(std::move(inputs)) {}

  std::string name() const override { return shape_.name; }
  bool decorated() const override { return true; }
  PassResult run_pass(Mode mode, SpanRecorder* spans) override;
  std::string check_decorator(std::vector<std::string>& notes) override;
  std::vector<std::pair<std::string, std::string>> not_applicable()
      const override {
    const std::string why = "fleets bypass SessionMux and the link layer";
    return {{"session_mux.stale_symbols_per_datagram", why},
            {"session_mux.round_wait_share", why},
            {"link.rounds_per_datagram_p50", why},
            {"link.rounds_per_datagram_p99", why},
            {"link.crc_false_accepts", why}};
  }

 private:
  SessionSpec make_spec(std::size_t i, PassProbe* probe) const {
    const FleetInput& in = inputs_[i];
    SessionSpec spec;
    spec.make_session = [p = in.params, bsc = in.bsc, probe,
                         i]() -> std::unique_ptr<sim::RatelessSession> {
      std::unique_ptr<sim::RatelessSession> s;
      if (bsc)
        s = std::make_unique<sim::BscSession>(p);
      else
        s = std::make_unique<sim::SpinalSession>(p);
      if (probe == nullptr) return s;
      return std::make_unique<ProbeSession>(std::move(s), probe,
                                            static_cast<std::int64_t>(i));
    };
    spec.channel = in.channel;
    spec.message = in.message;
    return spec;
  }

  FleetShape shape_;
  std::vector<FleetInput> inputs_;
};

PassResult Fleet::run_pass(Mode mode, SpanRecorder* spans) {
  const std::size_t n = inputs_.size();
  const bool traced = mode == Mode::kTraced;
  std::unique_ptr<PassProbe> probe;
  if (mode != Mode::kBare)
    probe = std::make_unique<PassProbe>(n, traced, traced ? spans : nullptr,
                                        shape_.span_every);
  // Inputs are materialized before the set-up timer starts.
  std::vector<SessionSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) specs.push_back(make_spec(i, probe.get()));
  std::vector<std::int64_t> admit(n, 0);
  std::vector<double> submit_wait_us;
  if (traced) submit_wait_us.reserve(n);
  if (traced && spans) spans->name_thread("generator");

  RuntimeOptions opt;
  opt.workers = kWorkers;
  const std::size_t warm = static_cast<std::size_t>(shape_.warmup);
  std::int64_t setup_end = 0, cpu0 = 0, gen0 = 0;
  std::vector<SessionReport> reports;
  spinal::runtime::TelemetrySnapshot tel;
  const long rss0 = current_rss_kb();
  const std::int64_t t_setup = now_ns();
  std::int64_t window_end = 0, cpu1 = 0, gen1 = 0;
  long rss1 = 0;
  {
    DecodeService service(opt);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t tc = traced ? now_ns() : 0;
      service.submit(std::move(specs[i]));
      const std::int64_t ta = now_ns();
      admit[i] = ta;
      if (traced) {
        submit_wait_us.push_back(static_cast<double>(ta - tc) / 1000.0);
        if (probe->sampled(static_cast<std::int64_t>(i)))
          spans->record("submit", tc, ta, static_cast<std::int64_t>(i));
      }
      if (i + 1 == warm) {
        setup_end = ta;
        cpu0 = process_cpu_ns();
        gen0 = thread_cpu_ns();
      }
    }
    window_end = now_ns();
    cpu1 = process_cpu_ns();
    gen1 = thread_cpu_ns();
    reports = service.drain();
    tel = service.telemetry();
    rss1 = current_rss_kb();
  }

  PassResult r;
  r.mode = mode;
  r.setup_s = static_cast<double>(setup_end - t_setup) / 1e9;
  r.window_s = static_cast<double>(window_end - setup_end) / 1e9;
  r.cpu_ns = static_cast<double>(cpu1 - cpu0);
  r.started = static_cast<long>(n);
  if (reports.size() != n) {
    r.accounting_error = "drain returned " + std::to_string(reports.size()) +
                         " reports for " + std::to_string(n) + " submissions";
    return r;
  }
  double admitted_bits = 0.0;
  for (std::size_t i = warm; i < n; ++i)
    admitted_bits += static_cast<double>(inputs_[i].params.n);
  r.admit_bps = admitted_bits / r.window_s;
  for (std::size_t i = 0; i < n; ++i) {
    const SessionReport& rep = reports[i];
    const bool ok = rep.run.success;
    if (ok && rep.message_bits != inputs_[i].params.n) {
      r.accounting_error = "session " + std::to_string(i) +
                           " reports a wrong message length";
      return r;
    }
    (ok ? r.delivered : r.failed) += 1;
    if (!probe) continue;
    const std::int64_t done = probe->done_ns[i].load();
    // The engine checks each candidate against the message; the
    // decorator checked it independently. They must agree.
    if (ok != (done != 0)) {
      r.accounting_error = "session " + std::to_string(i) +
                           (ok ? " succeeded without a verified candidate"
                               : " saw the message decoded but failed");
      return r;
    }
    if (ok && done >= setup_end && done <= window_end) {
      r.bits += rep.message_bits;
      r.symbols += static_cast<double>(rep.run.symbols);
      r.latency_ms.push_back(static_cast<double>(done - admit[i]) / 1e6);
    } else if (!ok && admit[i] >= setup_end && admit[i] <= window_end) {
      r.symbols += static_cast<double>(rep.run.symbols);
      r.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  if (r.delivered + r.failed != r.started) {
    r.accounting_error = "delivered + failed != started";
    return r;
  }
  const auto& c = tel.counters;
  if (c.sessions_completed + c.sessions_failed != n ||
      c.sessions_completed != static_cast<std::uint64_t>(r.delivered)) {
    r.accounting_error = "telemetry session counts disagree with the reports";
    return r;
  }
  if (!traced) return r;

  const ThreadAcc a = probe->merged();
  std::vector<double> att = a.attempt_us;
  const double window_ns = static_cast<double>(window_end - setup_end);
  const double gen_ns = static_cast<double>(gen1 - gen0);
  LayerMetrics& L = r.layer;
  L["decoder.attempt_us_p50"] = quantile(att, 0.50);
  L["decoder.attempt_us_p99"] = quantile(att, 0.99);
  L["decoder.attempts_per_message"] =
      static_cast<double>(a.attempts) / static_cast<double>(n);
  L["decoder.reduced_effort_share"] =
      c.decode_attempts ? static_cast<double>(c.reduced_effort_attempts) /
                              static_cast<double>(c.decode_attempts)
                        : 0.0;
  L["encoder.ns_per_symbol"] =
      static_cast<double>(a.enc_ns) / static_cast<double>(std::max<std::int64_t>(1, a.enc_syms));
  L["channel.ns_per_symbol"] =
      static_cast<double>(a.chan_ns) / static_cast<double>(std::max<std::int64_t>(1, a.recv_syms));
  L["receiver.ingest_ns_per_symbol"] =
      static_cast<double>(a.recv_ns) / static_cast<double>(std::max<std::int64_t>(1, a.recv_syms));
  L["decode_service.submit_wait_us_p50"] = quantile(submit_wait_us, 0.50);
  L["decode_service.submit_wait_us_p99"] = quantile(submit_wait_us, 0.99);
  L["decode_service.queue_wait_us_p50"] = tel.stages.queue_wait_us.quantile(0.50);
  L["decode_service.queue_wait_us_p99"] = tel.stages.queue_wait_us.quantile(0.99);
  L["decode_service.batch_jobs_mean"] =
      static_cast<double>(a.attempts) /
      static_cast<double>(std::max<std::int64_t>(1, a.decode_calls));
  L["decode_service.worker_busy_share"] =
      (r.cpu_ns - gen_ns) / (window_ns * kWorkers);
  L["job_queue.steals_per_kjob"] =
      c.jobs ? 1000.0 * static_cast<double>(tel.queue.steals) /
                   static_cast<double>(c.jobs)
             : 0.0;
  L["decode_service.rss_kb_per_message"] =
      static_cast<double>(rss1 - rss0) / static_cast<double>(n);
  L["generator.busy_share"] = gen_ns / window_ns;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "decode calls %lld for %lld attempts; %llu claims reached a "
                "decode; telemetry attempts %llu",
                static_cast<long long>(a.decode_calls),
                static_cast<long long>(a.attempts),
                static_cast<unsigned long long>(tel.stages.batch_assembly_us.count()),
                static_cast<unsigned long long>(c.decode_attempts));
  r.notes.emplace_back(buf);
  return r;
}

std::string Fleet::check_decorator(std::vector<std::string>& notes) {
  // One worker behind a gate task: every session is queued before the
  // worker starts, so the claim sequence is a pure function of the
  // inputs and claim counts compare exactly, not only outcomes.
  const std::size_t n =
      std::min(inputs_.size(), static_cast<std::size_t>(shape_.check_count));
  struct Outcome {
    std::vector<SessionReport> reports;
    spinal::runtime::TelemetrySnapshot tel;
  };
  auto run = [&](Mode mode) {
    std::unique_ptr<PassProbe> probe;
    if (mode != Mode::kBare)
      probe = std::make_unique<PassProbe>(n, mode == Mode::kTraced, nullptr, 1);
    RuntimeOptions opt;
    opt.workers = 1;
    opt.deterministic = true;
    opt.max_in_flight = static_cast<int>(n);
    Outcome out;
    DecodeService service(opt);
    std::promise<void> open;
    std::shared_future<void> gate = open.get_future().share();
    service.post([gate](DecodeService::WorkerScope&) { gate.wait(); });
    for (std::size_t i = 0; i < n; ++i) service.submit(make_spec(i, probe.get()));
    open.set_value();
    out.reports = service.drain();
    out.tel = service.telemetry();
    return out;
  };
  const Outcome bare = run(Mode::kBare);
  const Outcome stamp = run(Mode::kStamp);
  const Outcome traced = run(Mode::kTraced);
  auto claims = [](const Outcome& o) {
    return o.tel.stages.batch_assembly_us.count();
  };
  for (const Outcome* o : {&stamp, &traced}) {
    const char* which = o == &stamp ? "stamp" : "traced";
    if (o->reports.size() != bare.reports.size())
      return std::string(which) + ": report count differs";
    for (std::size_t i = 0; i < n; ++i) {
      const auto& x = bare.reports[i].run;
      const auto& y = o->reports[i].run;
      if (x.success != y.success || x.symbols != y.symbols ||
          x.attempts != y.attempts)
        return std::string(which) + ": session " + std::to_string(i) +
               " outcome differs";
    }
    if (o->tel.counters.jobs != bare.tel.counters.jobs ||
        o->tel.counters.decode_attempts != bare.tel.counters.decode_attempts ||
        claims(*o) != claims(bare))
      return std::string(which) + ": telemetry jobs/attempts/claims differ";
  }
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "decorator check (%zu sessions, deterministic, 1 worker): "
                "bare/stamp/traced identical: jobs %llu, attempts %llu, "
                "claims %llu, per-session success/symbols/attempts",
                n, static_cast<unsigned long long>(bare.tel.counters.jobs),
                static_cast<unsigned long long>(bare.tel.counters.decode_attempts),
                static_cast<unsigned long long>(claims(bare)));
  notes.emplace_back(buf);
  return {};
}

}  // namespace

std::unique_ptr<Workload> make_fleet_mixed(std::uint64_t seed) {
  // The example_decode_server mix: seven link profiles, n in {96, 192},
  // B in {64, 256}.
  struct Profile {
    ChannelKind kind;
    double snr_db, crossover;
    int coherence;
  };
  static constexpr std::array<Profile, 7> kProfiles{{
      {ChannelKind::kAwgn, 10.0, 0, 1},
      {ChannelKind::kAwgn, 15.0, 0, 1},
      {ChannelKind::kAwgn, 20.0, 0, 1},
      {ChannelKind::kRayleighCsi, 18.0, 0, 10},
      {ChannelKind::kRayleighNoCsi, 22.0, 0, 100},
      {ChannelKind::kBsc, 0, 0.03, 1},
      {ChannelKind::kBsc, 0, 0.05, 1},
  }};
  const FleetShape shape{"fleet_mixed", 900, 200, 1, 84};
  std::vector<FleetInput> in(static_cast<std::size_t>(shape.messages));
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Profile& prof = kProfiles[i % kProfiles.size()];
    FleetInput& f = in[i];
    f.params.n = (i % 2) ? 96 : 192;
    f.params.B = (i % 3) ? 64 : 256;
    f.bsc = prof.kind == ChannelKind::kBsc;
    if (f.bsc) f.params.c = 1;
    f.channel.kind = prof.kind;
    f.channel.snr_db = prof.snr_db;
    f.channel.crossover = prof.crossover;
    f.channel.coherence = prof.coherence;
    f.channel.seed = mix_seed(seed, 1, i);
    spinal::util::Xoshiro256 prng(mix_seed(seed, 2, i));
    f.message = prng.random_bits(static_cast<std::size_t>(f.params.n));
  }
  return std::make_unique<Fleet>(shape, std::move(in));
}

std::unique_ptr<Workload> make_fleet_small_b(std::uint64_t seed) {
  // The bench_runtime_throughput small-B fleet: BSC n in {4, 8}, B=2,
  // c=1; 16 give-up bounds (never reached) make 32 workspace keys. One
  // session in three has n=4, not one in two: n=4 sessions finish in
  // about a third of the time of n=8 ones, and an even split puts the
  // latency median exactly on the gap between the two populations,
  // where it swings by 20% from run to run.
  const FleetShape shape{"fleet_small_b", 50000, 5000, 64, 4000};
  std::vector<FleetInput> in(static_cast<std::size_t>(shape.messages));
  for (std::size_t i = 0; i < in.size(); ++i) {
    FleetInput& f = in[i];
    f.params.n = i % 3 == 0 ? 4 : 8;
    f.params.max_passes = 32 + static_cast<int>(i % 16);
    f.params.c = 1;
    f.params.B = 2;
    f.bsc = true;
    f.channel.kind = ChannelKind::kBsc;
    f.channel.crossover = 0.02;
    f.channel.seed = mix_seed(seed, 1, i);
    spinal::util::Xoshiro256 prng(mix_seed(seed, 2, i));
    f.message = prng.random_bits(static_cast<std::size_t>(f.params.n));
  }
  return std::make_unique<Fleet>(shape, std::move(in));
}

}  // namespace perfbench
