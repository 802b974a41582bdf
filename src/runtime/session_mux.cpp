#include "runtime/session_mux.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace spinal::runtime {

namespace {

double elapsed_micros(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SessionMux::SessionMux(DecodeService& service, const Options& opt)
    : service_(&service), opt_(opt) {
  opt_.attempt.validate();
}

SessionMux::~SessionMux() { wait_idle(); }

SessionMux::Sess& SessionMux::at(SessionId id) {
  if (id >= sessions_.size())
    throw std::out_of_range("SessionMux: bad session id");
  return *sessions_[id];
}

const SessionMux::Sess& SessionMux::at(SessionId id) const {
  if (id >= sessions_.size())
    throw std::out_of_range("SessionMux: bad session id");
  return *sessions_[id];
}

SessionMux::SessionId SessionMux::open(const CodeParams& params, int block_count) {
  if (block_count < 1)
    throw std::invalid_argument("SessionMux::open: block_count must be >= 1");
  std::lock_guard lock(m_);
  sessions_.push_back(
      std::make_unique<Sess>(params, block_count, opt_.attempt.attempt_every));
  return sessions_.size() - 1;
}

void SessionMux::ingest(SessionId id, const LinkSymbol& symbol,
                        std::complex<float> csi) {
  std::lock_guard lock(m_);
  Sess& s = at(id);
  if (symbol.block < 0 || symbol.block >= static_cast<int>(s.blocks.size()))
    throw std::out_of_range("SessionMux::ingest: bad block index");
  if (s.receiver.block_decoded(symbol.block)) {
    ++stale_;
    return;
  }
  Block& blk = s.blocks[static_cast<std::size_t>(symbol.block)];
  if (blk.outstanding)
    blk.pending.emplace_back(symbol, csi);  // store is on a worker thread
  else
    s.receiver.receive(symbol, csi);
  blk.got_symbols = true;
}

void SessionMux::pause_point(SessionId id) {
  // Claims are taken under the lock, but the posts happen outside it:
  // DecodeService::post() can block on the external-task admission cap,
  // and that cap only drains when workers finish mux tasks — which
  // requires this mutex in on_complete. Posting under the lock would
  // deadlock the whole service at sustained overload.
  std::vector<std::pair<int, const SpinalDecoder*>> claimed;
  CodeParams params;
  {
    std::lock_guard lock(m_);
    Sess& s = at(id);
    params = s.params;
    for (int b = 0; b < static_cast<int>(s.blocks.size()); ++b) {
      Block& blk = s.blocks[static_cast<std::size_t>(b)];
      if (!blk.got_symbols) continue;
      blk.got_symbols = false;
      ++blk.fed_bursts;
      if (blk.outstanding || s.receiver.block_decoded(b)) continue;
      if (!s.receiver.block_dirty(b)) continue;
      if (blk.fed_bursts < blk.next_attempt) continue;
      // Same schedule as the engine: linear floor + geometric back-off.
      blk.next_attempt =
          std::max(blk.fed_bursts + opt_.attempt.attempt_every,
                   static_cast<int>(blk.fed_bursts * opt_.attempt.attempt_growth));
      blk.outstanding = true;
      ++outstanding_;
      // The decoder reference stays valid: LinkReceiver's decoder array
      // is sized at construction and Sess is pinned behind a unique_ptr.
      claimed.emplace_back(b, &s.receiver.claim_block(b));
    }
  }
  for (const auto& [block, dec] : claimed) post_attempt(id, block, dec, params);
}

void SessionMux::post_attempt(SessionId id, int block, const SpinalDecoder* dec,
                              const CodeParams& params) {
  // One task per block attempt, claimed alone: a block decode (n=256,
  // B=64: ~65k node expansions, hundreds of µs) dwarfs the queue hop, and
  // the round ends only when its slowest worker does — so attempts
  // spread across workers instead of queueing behind each other on one,
  // and every queued attempt stays visible to the effort valve.
  service_->post(
      [this, id, block, dec, params](DecodeService::WorkerScope& scope) {
        // Decode until the symbol store stops changing under us: symbols
        // that arrive mid-decode were part of the window the attempt
        // policy already charged for, so a failed attempt re-runs
        // immediately once they are applied (on_complete re-claims and
        // returns the store).
        const SpinalDecoder* d = dec;
        try {
          while (d != nullptr) {
            DecodeResult& out = scope.out_scratch(params);
            const int beam = scope.pick_beam(params);
            const auto t0 = std::chrono::steady_clock::now();
            d->decode_with(scope.workspace(params), out, beam);
            scope.telemetry().record_attempt(
                elapsed_micros(t0), beam > 0 && beam < params.B, false);
            d = on_complete(scope, id, block, out.message);
          }
        } catch (...) {
          abandon_block(id, block);  // keep outstanding_ consistent so
          throw;                     // wait_idle()/~SessionMux cannot hang;
        }                            // the service records the exception
      });
}

const SpinalDecoder* SessionMux::on_complete(DecodeService::WorkerScope& scope,
                                             SessionId id, int block,
                                             const util::BitVec& candidate) {
  std::uint64_t stale_here = 0;
  const SpinalDecoder* next = nullptr;
  {
    std::lock_guard lock(m_);
    Sess& s = at(id);
    Block& blk = s.blocks[static_cast<std::size_t>(block)];
    if (s.receiver.complete_block(block, candidate))
      acks_.push_back({id, s.receiver.current_ack()});
    // Apply the symbols that arrived mid-decode; if the block just
    // decoded they are stale by definition.
    bool applied = false;
    for (const auto& [sym, csi] : blk.pending) {
      if (s.receiver.block_decoded(sym.block)) {
        ++stale_here;
        continue;
      }
      s.receiver.receive(sym, csi);
      applied = true;
    }
    blk.pending.clear();
    stale_ += stale_here;
    if (applied && !s.receiver.block_decoded(block)) {
      // Still undecoded and the store grew: retry in the same task, or
      // the buffered symbols would never get their attempt (the sender
      // may already have paused for good).
      next = &s.receiver.claim_block(block);
    } else {
      blk.outstanding = false;
      --outstanding_;
      // Notify under the lock: wait_idle() (and through it ~SessionMux)
      // may destroy the condvar as soon as it can observe
      // outstanding_ == 0, which it cannot do before we release the
      // mutex.
      cv_idle_.notify_all();
    }
  }
  if (stale_here > 0) scope.telemetry().record_stale_symbols(stale_here);
  return next;
}

void SessionMux::abandon_block(SessionId id, int block) {
  std::lock_guard lock(m_);
  Sess& s = at(id);
  Block& blk = s.blocks[static_cast<std::size_t>(block)];
  blk.outstanding = false;
  --outstanding_;
  cv_idle_.notify_all();
}

std::vector<SessionMux::AckEvent> SessionMux::poll_acks() {
  std::lock_guard lock(m_);
  std::vector<AckEvent> out;
  out.swap(acks_);
  return out;
}

AckBitmap SessionMux::current_ack(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.current_ack();
}

bool SessionMux::done(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.current_ack().all_decoded();
}

std::optional<std::vector<std::uint8_t>> SessionMux::datagram(SessionId id) const {
  std::lock_guard lock(m_);
  return at(id).receiver.datagram();
}

void SessionMux::wait_idle() {
  std::unique_lock lock(m_);
  cv_idle_.wait(lock, [&] { return outstanding_ == 0; });
}

std::uint64_t SessionMux::stale_symbols() const {
  std::lock_guard lock(m_);
  return stale_;
}

}  // namespace spinal::runtime
