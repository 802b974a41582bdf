#include "runtime/decode_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "runtime/affinity.h"
#include "sim/trial_runner.h"

namespace spinal::runtime {

namespace {

/// Monotonic max on an atomic (the peak-in-flight high-water mark).
void store_max(std::atomic<int>& target, int value) {
  int cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

/// One admitted session: the spec (owning the message), the live
/// session/channel pair, and the MessageRun state machine over them.
/// Advanced by exactly one job at a time; after finish() only `report`
/// is ever read again (the heavyweight members are released).
struct DecodeService::SessionState {
  explicit SessionState(SessionSpec s)
      : spec(std::move(s)),
        session(spec.make_session()),
        channel(spec.channel.make()) {
    run.emplace(*session, channel, spec.message, spec.engine);
  }

  SessionSpec spec;
  std::unique_ptr<sim::RatelessSession> session;
  sim::ChannelSim channel;
  std::optional<sim::MessageRun> run;
  SessionReport report;
  long symbols_seen = 0;  ///< feed-telemetry watermark
  /// Interned batch_key() tag (kNoTag: untagged). Set once at
  /// admission, immutable after — jobs carry it into the queue, which
  /// routes on it (same-tag jobs colocate on one shard).
  std::int32_t batch_tag = ShardedJobQueue<QueueJob>::kNoTag;
  /// The tag's batchable bit (batch_key().batchable): whether a claim
  /// headed by this session's job may take same-tag followers.
  bool batchable = false;
};

std::uint64_t DecodeService::now_ns() const noexcept {
  if (tracer_) return tracer_->now_ns();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base_)
          .count());
}

DecodeService::DecodeService(const RuntimeOptions& opt)
    : opt_(opt),
      max_in_flight_(opt.max_in_flight > 0
                         ? opt.max_in_flight
                         : std::max(64, 4 * (opt.workers > 0
                                                 ? opt.workers
                                                 : sim::bench_threads()))),
      base_(std::chrono::steady_clock::now()),
      tracer_(kRuntimeTraceCompiled && opt.trace.enabled
                  ? std::make_unique<Tracer>(opt.trace)
                  : nullptr),
      // Sized so pushes from inside workers can never block: session
      // jobs in the queue are bounded by the admission cap (one job per
      // session exists at a time) and external tasks by kExtTaskCap, so
      // occupancy stays strictly below capacity and the queue's
      // blocking-push path is only ever exercised by misuse, not by the
      // service itself. Backpressure lives at admission instead.
      //
      // Deterministic mode drains through a single ordered shard: one
      // FIFO with windowed same-tag claims, which the ordered
      // bit-identity guarantee is stated against.
      queue_(static_cast<std::size_t>(max_in_flight_) + kExtTaskCap + 64,
             opt.deterministic
                 ? 1
                 : (opt.shards > 0 ? opt.shards
                                   : (opt.workers > 0 ? opt.workers
                                                      : sim::bench_threads()))) {
  const int n = opt.workers > 0 ? opt.workers : sim::bench_threads();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* w = workers_.back().get();
    w->index = i;
    w->thread = std::thread([this, w] {
      if (opt_.pin_workers) {
        if (pin_current_thread(w->index)) workers_pinned_.fetch_add(1);
        workers_started_.fetch_add(1);
      }
      worker_loop(*w);
    });
  }
  // Every pin attempt lands before construction returns, so
  // telemetry().workers_pinned is final from the first snapshot on (a
  // worker that never got a job would otherwise report late).
  if (opt_.pin_workers)
    while (workers_started_.load() < n) std::this_thread::yield();
}

DecodeService::~DecodeService() {
  {
    std::unique_lock lock(state_m_);
    ++done_waiters_;
    cv_done_.wait(lock, [&] {
      return completed_.load() == submitted_.load() &&
             ext_pending_.load() == 0;
    });
    --done_waiters_;
  }
  queue_.close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // An error drain() never collected must not vanish silently: the
  // caller skipped the rethrow point, so the last-resort channel is a
  // loud stderr line at teardown.
  if (first_error_) {
    try {
      std::rethrow_exception(first_error_);
    } catch (const std::exception& e) {
      std::fprintf(
          stderr,
          "DecodeService: swallowing undrained error at destruction: %s\n",
          e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "DecodeService: swallowing undrained non-std exception at "
                   "destruction\n");
    }
  }
}

void DecodeService::worker_loop(Worker& w) {
  WorkerScope scope(this, &w);
  if (tracer_)
    w.trace = tracer_->register_buffer("worker " + std::to_string(w.index));
  const std::size_t max_batch =
      opt_.batch.max_batch > 1 ? static_cast<std::size_t>(opt_.batch.max_batch)
                               : 1;
  const std::size_t window =
      opt_.batch.window > 0 ? static_cast<std::size_t>(opt_.batch.window) : 0;
  std::vector<QueueJob> batch;
  ShardedClaimInfo cinfo;
  std::uint64_t idle_since = w.trace ? now_ns() : 0;
  while (queue_.pop_batch(w.index, batch, max_batch, window, &cinfo)) {
    // Queue-wait is attributed per claim: the head job's wait stands in
    // for the whole batch (add_n), so the stage histogram counts jobs
    // at the cost of one clock read + one record per claim instead of
    // per job. claim_ns then anchors the batch-assembly stage.
    const std::uint64_t claim_ns = now_ns();
    const QueueJob& head = batch.front();
    const double wait_us =
        static_cast<double>(claim_ns - head.enqueue_ns) / 1000.0;
    w.telemetry.record_jobs(batch.size());
    w.telemetry.record_queue_wait(wait_us, batch.size());
    tag_stats_.lane(head.tag).record_claim(wait_us, batch.size());
    if (w.trace) {
      // The claim span doubles as the worker's idle/occupancy signal:
      // it covers everything since the last job finished, including the
      // blocking wait inside pop_batch.
      w.trace->record(TraceKind::kClaim, idle_since, claim_ns, batch.size(),
                      cinfo.shard);
      w.trace->record(TraceKind::kQueueWait, head.enqueue_ns, claim_ns,
                      batch.size(),
                      static_cast<std::uint64_t>(
                          head.tag < 0 ? 0 : static_cast<std::uint32_t>(head.tag)));
      if (cinfo.stolen)
        w.trace->instant(TraceKind::kSteal, claim_ns, batch.size(),
                         cinfo.shard);
    }
    if (head.session == QueueJob::kNoSession) {  // tasks are claimed alone
      batch.front().task(scope);
      if (w.trace) w.trace->record(TraceKind::kTask, claim_ns, now_ns(), 1);
    } else {
      // One job, or a same-tag run of a batchable tag: one step either way.
      step_sessions(scope, batch, claim_ns);
    }
    if (w.trace) idle_since = now_ns();
  }
}

void DecodeService::push_session_job(std::size_t index, SessionState& s) {
  QueueJob job;
  job.session = index;
  job.tag = s.batch_tag;
  job.enqueue_ns = now_ns();
  if (tracer_) {
    // The shard arg mirrors the queue's tag-hash routing.
    tracer_->thread_buffer()->instant(
        TraceKind::kSubmit, job.enqueue_ns, index,
        s.batch_tag < 0 ? 0
                        : static_cast<std::uint32_t>(s.batch_tag) %
                              static_cast<std::uint32_t>(queue_.shards()));
  }
  if (queue_.push(std::move(job), s.batch_tag,
                  ShardedJobQueue<QueueJob>::kNoShard, s.batchable))
    return;
  session_job_refused(s);
  release_session_slots(1);
}

/// The queue refused a session's job: it was closed with the session
/// still mid-run. Silently returning would leak the session — no job
/// ever finishes it, so drain() deadlocks waiting on completed_.
/// Record the error and finish the session as failed instead.
void DecodeService::session_job_refused(SessionState& s) {
  {
    std::lock_guard lock(state_m_);
    if (!first_error_)
      first_error_ = std::make_exception_ptr(std::runtime_error(
          "DecodeService: job queue closed with session in flight"));
  }
  s.report.run = s.run->result();
  s.report.run.success = false;
  s.report.message_bits = s.session->message_bits();
  s.run.reset();
  s.session.reset();
}

std::int32_t DecodeService::intern_tag_locked(const sim::WorkspaceKey& key) {
  if (!key.valid()) return ShardedJobQueue<QueueJob>::kNoTag;
  const auto [it, inserted] =
      batch_tags_.try_emplace(key, static_cast<std::int32_t>(batch_tags_.size()));
  if (inserted)
    tag_stats_.register_tag(it->second, key.params.empty()
                                            ? key.codec
                                            : key.codec + "/" + key.params);
  return it->second;
}

int DecodeService::try_reserve_slot() {
  int cur = in_flight_.load();
  while (cur < max_in_flight_) {
    if (in_flight_.compare_exchange_weak(cur, cur + 1)) return cur + 1;
  }
  return -1;
}

std::size_t DecodeService::submit(SessionSpec spec) {
  // Build the session (encoder, channel, engine validation) outside any
  // lock; MessageRun's constructor throws on invalid EngineOptions.
  auto state = std::make_unique<SessionState>(std::move(spec));
  // Tags are interned even when batching is off: routing and the
  // per-tag stage stats want the per-codec identity either way (with
  // one shard — deterministic mode, single-worker configs — routing is
  // unaffected).
  const sim::WorkspaceKey bkey = state->session->batch_key();
  // Admission: lock-free CAS in the common case; fall back to a condvar
  // wait only once the cap is actually hit. The waiter registers under
  // state_m_ before re-probing, and the release side (an atomic
  // decrement) re-checks admit_waiters_ after decrementing — seq_cst
  // order makes one of the two sides see the other, so the wakeup
  // cannot be lost.
  int reserved = try_reserve_slot();
  if (reserved < 0) {
    std::unique_lock lock(state_m_);
    ++admit_waiters_;
    cv_admit_.wait(lock,
                   [&] { return (reserved = try_reserve_slot()) >= 0; });
    --admit_waiters_;
  }
  store_max(peak_in_flight_, reserved);
  SessionState& s = *state;  // stable: sessions_ owns it from here on
  std::size_t id;
  {
    std::lock_guard lock(state_m_);
    s.batch_tag = intern_tag_locked(bkey);
    s.batchable = bkey.batchable;
    id = sessions_.size();
    sessions_.push_back(std::move(state));
    submitted_.fetch_add(1);  // under the lock: tracks sessions_.size()
  }
  push_session_job(id, s);
  return id;
}

std::optional<std::size_t> DecodeService::try_submit(SessionSpec spec) {
  // Reserve the admission slot *before* building the session: the whole
  // point of the non-blocking probe is sustained overload, where
  // constructing an encoder + decoder + channel just to throw them away
  // on a refusal would burn exactly the compute the caller is trying to
  // shed.
  const int reserved = try_reserve_slot();
  if (reserved < 0) return std::nullopt;
  std::unique_ptr<SessionState> state;
  try {
    state = std::make_unique<SessionState>(std::move(spec));
  } catch (...) {
    in_flight_.fetch_sub(1);
    if (admit_waiters_.load() > 0) {
      std::lock_guard lock(state_m_);
      cv_admit_.notify_one();
    }
    throw;
  }
  // The high-water mark moves only once the session is actually
  // admitted: the reservation above is rolled back if construction
  // throws, and a peak that counted such a phantom would overstate
  // concurrency the service never ran. (A concurrent submitter's peak
  // update can still observe another caller's transient reservation;
  // the mark is a bound on reservations, exact over admissions.)
  store_max(peak_in_flight_, reserved);
  const sim::WorkspaceKey bkey = state->session->batch_key();
  SessionState& s = *state;
  std::size_t id;
  {
    std::lock_guard lock(state_m_);
    s.batch_tag = intern_tag_locked(bkey);
    s.batchable = bkey.batchable;
    id = sessions_.size();
    sessions_.push_back(std::move(state));
    submitted_.fetch_add(1);
  }
  push_session_job(id, s);
  return id;
}

void DecodeService::step_sessions(WorkerScope& scope,
                                  std::vector<QueueJob>& claim,
                                  std::uint64_t claim_ns) {
  Worker& w = *scope.w_;
  TraceBuffer* const tb = w.trace;
  std::vector<SessionState*>& live = w.live;
  live.clear();
  {
    std::lock_guard lock(state_m_);  // sessions_ may reallocate under submit()
    for (const QueueJob& job : claim) live.push_back(sessions_[job.session].get());
  }
  // Sessions that end during the step release their admission slots in
  // one call at its end, after every completion instant has landed: a
  // released slot can wake drain(), after which the caller may export
  // the trace. Sessions still running after a phase are compacted to the
  // front of live and claim (kept index-aligned; the claim is one tag, so
  // only the session index moves), which leaves claim as the repost list.
  std::size_t released = 0;
  std::size_t kept = 0;
  const auto keep = [&](std::size_t i) {
    live[kept] = live[i];
    claim[kept].session = claim[i].session;
    ++kept;
  };
  const auto truncate = [&] {
    live.resize(kept);
    claim.resize(kept);
    kept = 0;
  };

  // Phase 1 — stream each session to its attempt point individually
  // (feeds are per-session work; only the decode attempt is shared), with
  // one feed-telemetry record for the whole claim.
  long fed = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    SessionState& s = *live[i];
    try {
      if (!s.run->feed_to_attempt()) {  // budget exhausted -> failed run
        finish_session(scope, s, claim[i].session);
        ++released;
        continue;
      }
      const long symbols = s.run->result().symbols;
      fed += symbols - s.symbols_seen;
      s.symbols_seen = symbols;
      keep(i);
    } catch (...) {
      finish_session(scope, s, claim[i].session, std::current_exception());
      ++released;
    }
  }
  truncate();
  if (fed > 0) scope.telemetry().record_feed(fed);
  if (live.empty()) {
    release_session_slots(released);
    return;
  }

  // Phase 2 — one decode attempt over every live session (for a single
  // session, the codecs' try_decode_batch is its try_decode_with). Equal
  // batch tags mean equal specs where it matters (profile, workspace
  // key), so the claim shares one effort pick, one workspace resolve and
  // one latency clock pair.
  SessionState& lead = *live.front();
  const sim::EffortProfile profile = lead.session->effort_profile();
  int effort = 0;
  if (!opt_.deterministic) effort = scope.pick_effort(profile);
  const bool reduced = effort > 0 && effort < profile.full;
  sim::CodecWorkspace* ws = scope.workspace(*lead.session);

  std::vector<std::optional<util::BitVec>>& candidates = w.candidates;
  candidates.clear();
  candidates.resize(live.size());
  w.jobs.clear();
  for (std::size_t i = 0; i < live.size(); ++i)
    w.jobs.push_back({live[i]->session.get(), effort, &candidates[i]});
  // One clock read ends batch-assembly (claim -> dispatch: feed, effort
  // pick, workspace resolve) and starts the decode.
  const std::uint64_t d0 = now_ns();
  scope.telemetry().record_batch_assembly(
      static_cast<double>(d0 - claim_ns) / 1000.0);
  if (tb)
    tb->record(TraceKind::kFeed, claim_ns, d0, live.size(),
               static_cast<std::uint64_t>(fed));
  try {
    lead.session->try_decode_batch(ws, w.jobs);
  } catch (...) {
    // A torn batched attempt taints every block in it: which blocks hold
    // valid candidates is unknowable, so all of them fail loudly rather
    // than any continuing on garbage.
    const std::exception_ptr err = std::current_exception();
    for (std::size_t i = 0; i < live.size(); ++i)
      finish_session(scope, *live[i], claim[i].session, err);
    release_session_slots(released + live.size());
    return;
  }
  const std::uint64_t d1 = now_ns();
  const double per = (static_cast<double>(d1 - d0) / 1000.0) /
                     static_cast<double>(live.size());
  scope.telemetry().record_attempts(live.size(), per, reduced, ws == nullptr);
  // The stage view keeps the shared span whole (one service event per
  // claim); the per-attempt split stays in decode_latency_us and the
  // per-tag lane, whose counts track attempts.
  scope.telemetry().record_decode_service(static_cast<double>(d1 - d0) /
                                          1000.0);
  tag_stats_.lane(lead.batch_tag).record_attempts(live.size(), per);
  if (tb)
    tb->record(TraceKind::kDecode, d0, d1, live.size(),
               static_cast<std::uint64_t>(effort));

  // Phase 3 — per-session accounting (latency attributed evenly across
  // the claim) and continuation.
  for (std::size_t i = 0; i < live.size(); ++i) {
    SessionState& s = *live[i];
    try {
      s.report.decode_micros += per;
      if (reduced) ++s.report.reduced_effort_attempts;
      s.run->record_attempt(candidates[i]);

      // A shrunk attempt that failed gets one full-effort retry on the
      // same symbols when the queue has drained: compute is free when
      // idle, channel symbols never are.
      if (!s.run->finished() && reduced && opt_.adapt.retry_full_when_idle &&
          scope.idle()) {
        const std::uint64_t r0 = now_ns();
        const std::optional<util::BitVec> cand =
            s.session->try_decode_with(ws, 0);
        const std::uint64_t r1 = now_ns();
        const double us = static_cast<double>(r1 - r0) / 1000.0;
        scope.telemetry().record_attempt(us, false, true, ws == nullptr);
        scope.telemetry().record_decode_service(us);
        tag_stats_.lane(s.batch_tag).record_attempts(1, us);
        if (tb) tb->record(TraceKind::kDecode, r0, r1, 1, 0);
        s.report.decode_micros += us;
        ++s.report.full_effort_retries;
        s.run->record_attempt(cand);
      }

      if (s.run->finished()) {
        finish_session(scope, s, claim[i].session);
        ++released;
        continue;
      }
      keep(i);
    } catch (...) {
      finish_session(scope, s, claim[i].session, std::current_exception());
      ++released;
    }
  }
  truncate();

  // The continuing sessions repost as one queue transaction onto this
  // worker's own shard (their state is hot in this core's cache, and the
  // next claim finds a batchable run contiguous at the head). One
  // enqueue timestamp covers the lot: queue-wait is head-attributed at
  // the claim anyway.
  if (!claim.empty()) {
    const std::uint64_t p0 = now_ns();
    for (QueueJob& job : claim) job.enqueue_ns = p0;
    if (queue_.push_many(claim, lead.batch_tag, w.index, lead.batchable)) {
      if (tb) tb->record(TraceKind::kRepost, p0, now_ns(), claim.size());
    } else {
      for (SessionState* s : live) session_job_refused(*s);
      released += live.size();
    }
  }
  release_session_slots(released);
}

void DecodeService::finish_session(WorkerScope& scope, SessionState& s,
                                   std::size_t id, std::exception_ptr err) {
  if (err) {
    std::lock_guard lock(state_m_);
    if (!first_error_) first_error_ = err;
  }
  s.report.run = s.run->result();
  // An error may have torn the MessageRun mid-feed or mid-attempt, so
  // its success flag cannot be trusted — keep the counters for the
  // report but mark the run failed explicitly.
  if (err) s.report.run.success = false;
  s.report.message_bits = s.session->message_bits();
  // Symbols streamed after the last attempt (the give-up tail) have not
  // hit the feed counter yet.
  scope.telemetry().record_feed(s.report.run.symbols - s.symbols_seen);
  s.symbols_seen = s.report.run.symbols;
  scope.telemetry().record_session_done(s.report.run.success,
                                        s.report.message_bits);
  if (TraceBuffer* tb = scope.w_->trace)
    tb->instant(TraceKind::kComplete, now_ns(), id,
                s.report.run.success ? 1 : 0);
  // Release the heavyweight per-session state (decoder symbol stores,
  // channel RNGs) now rather than at drain — with thousands of
  // in-flight sessions this is the difference between O(active) and
  // O(submitted) memory. Only `report` is read after this point.
  s.run.reset();
  s.session.reset();
}

void DecodeService::release_session_slots(std::size_t n) {
  if (n == 0) return;
  in_flight_.fetch_sub(static_cast<int>(n));
  completed_.fetch_add(n);
  // Both notify paths are gated on atomic waiter counts, so in steady
  // state (no submitter blocked, no drain in progress) releasing a
  // batch of slots is two atomic RMWs and two loads — no lock. When a
  // waiter does exist, the notify runs under state_m_: a woken thread
  // may destroy the condvar as soon as it can observe the updated
  // counters, which it cannot do before this mutex is released. The
  // waiter side registers its count under state_m_ *before* re-checking
  // the counters, so whichever of (counter update, waiter registration)
  // comes first in the seq_cst order, one side sees the other — the
  // wakeup cannot be lost.
  if (admit_waiters_.load() > 0) {
    std::lock_guard lock(state_m_);
    if (n > 1)
      cv_admit_.notify_all();
    else
      cv_admit_.notify_one();
  }
  if (done_waiters_.load() > 0 && completed_.load() == submitted_.load() &&
      ext_pending_.load() == 0) {
    std::lock_guard lock(state_m_);
    cv_done_.notify_all();
  }
}

std::vector<SessionReport> DecodeService::drain() {
  std::unique_lock lock(state_m_);
  ++done_waiters_;
  cv_done_.wait(lock, [&] {
    return completed_.load() == submitted_.load() && ext_pending_.load() == 0;
  });
  --done_waiters_;
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    std::rethrow_exception(e);
  }
  std::vector<SessionReport> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) out.push_back(s->report);
  return out;
}

TelemetrySnapshot DecodeService::telemetry() const {
  TelemetrySnapshot snap;
  for (const auto& w : workers_) w->telemetry.merge_into(snap);
  tag_stats_.snapshot_into(snap.tags);
  const ShardedQueueStats qs = queue_.stats();
  snap.queue.steals = qs.steals;
  snap.queue.stolen_jobs = qs.stolen_jobs;
  snap.queue.external_submits = qs.external_submits;
  snap.queue.off_home_pushes = qs.off_home_pushes;
  snap.queue.shard_depths.resize(static_cast<std::size_t>(queue_.shards()));
  for (std::size_t s = 0; s < snap.queue.shard_depths.size(); ++s)
    snap.queue.shard_depths[s] = queue_.shard_depth(s);
  snap.workers_pinned = workers_pinned_.load(std::memory_order_relaxed);
  return snap;
}

int DecodeService::peak_in_flight() const { return peak_in_flight_.load(); }

void DecodeService::post(Task task) {
  // Same lock-free-reserve / waiter-gated-sleep shape as session
  // admission, against the external-task cap.
  auto try_reserve_ext = [&] {
    std::size_t cur = ext_pending_.load();
    while (cur < kExtTaskCap) {
      if (ext_pending_.compare_exchange_weak(cur, cur + 1)) return true;
    }
    return false;
  };
  if (!try_reserve_ext()) {
    std::unique_lock lock(state_m_);
    ++ext_waiters_;
    cv_ext_.wait(lock, [&] { return try_reserve_ext(); });
    --ext_waiters_;
  }
  QueueJob job;
  job.enqueue_ns = now_ns();
  if (tracer_)
    tracer_->thread_buffer()->instant(TraceKind::kTaskPost, job.enqueue_ns,
                                      0, 0);
  job.task = [this, t = std::move(task)](WorkerScope& scope) {
    try {
      t(scope);
    } catch (...) {
      std::lock_guard lock(state_m_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    ext_pending_.fetch_sub(1);
    // Waiter-gated notifies under state_m_: see release_session_slots.
    if (ext_waiters_.load() > 0) {
      std::lock_guard lock(state_m_);
      cv_ext_.notify_one();
    }
    if (done_waiters_.load() > 0 && completed_.load() == submitted_.load() &&
        ext_pending_.load() == 0) {
      std::lock_guard lock(state_m_);
      cv_done_.notify_all();
    }
  };
  if (queue_.push(std::move(job))) return;
  // Closed queue: the task will never run — undo the pending count so
  // drain()/teardown don't wait on it, and surface the loss.
  {
    std::lock_guard lock(state_m_);
    if (!first_error_)
      first_error_ = std::make_exception_ptr(std::runtime_error(
          "DecodeService: job queue closed with task pending"));
  }
  ext_pending_.fetch_sub(1);
  if (ext_waiters_.load() > 0) {
    std::lock_guard lock(state_m_);
    cv_ext_.notify_one();
  }
  if (done_waiters_.load() > 0 && completed_.load() == submitted_.load() &&
      ext_pending_.load() == 0) {
    std::lock_guard lock(state_m_);
    cv_done_.notify_all();
  }
}

sim::CodecWorkspace* DecodeService::WorkerScope::workspace(
    const sim::RatelessSession& session) {
  const WorkspaceKey key = session.workspace_key();
  if (!key.valid()) return nullptr;
  std::unique_ptr<sim::CodecWorkspace>& slot = w_->pinned[key];
  if (!slot) slot = session.make_workspace();
  return slot.get();
}

int DecodeService::WorkerScope::pick_effort(
    const sim::EffortProfile& profile) const {
  if (svc_->opt_.deterministic || !svc_->opt_.adapt.enabled) return 0;
  const int e = runtime::pick_effort(svc_->opt_.adapt, profile.full,
                                     profile.floor, queue_depth());
  return e >= profile.full ? 0 : e;
}

sim::SpinalWorkspace& DecodeService::WorkerScope::spinal_pinned(
    const CodeParams& params) {
  std::unique_ptr<sim::CodecWorkspace>& slot =
      w_->pinned[sim::spinal_workspace_key(params)];
  if (!slot) slot = std::make_unique<sim::SpinalWorkspace>();
  // Safe: the "spinal" codec tag is only ever pinned with SpinalWorkspace
  // (the spinal sessions' make_workspace and this factory agree).
  return static_cast<sim::SpinalWorkspace&>(*slot);
}

int DecodeService::WorkerScope::pick_beam(const CodeParams& params) const {
  return pick_effort(sim::EffortProfile{params.B, std::min(16, params.B)});
}

}  // namespace spinal::runtime
