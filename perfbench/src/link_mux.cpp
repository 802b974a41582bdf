// link_mux: 32 half-duplex links driven in lock-step rounds through
// SessionMux, the lock-step pattern session_mux.h documents. Every round
// each active link sends one burst (LinkSender::next_burst) through its
// own AwgnChannel into the mux, the generator marks every link's pause
// point, waits for the decode attempts, and hands each sender its ACK
// bitmap. A link opens its next datagram as soon as the previous one
// completes, so the loop is closed: 32 datagrams are always in flight
// until the pass runs out of datagrams.
//
// The application frames each 64-byte payload with its own CRC-32, the
// end-to-end check a real stack keeps above a link layer whose blocks
// carry only CRC-16. A datagram whose blocks all passed CRC-16 but whose
// bytes are wrong (a link-layer false accept, about one in 2000) fails
// the CRC-32 and is sent again on a fresh link session; the retry's
// rounds, symbols and time are charged to the datagram. Only a wrong
// datagram that also passes the CRC-32, or a give-up, fails.

#include <array>
#include <cstdio>
#include <limits>
#include <optional>

#include "channel/awgn.h"
#include "runtime/decode_service.h"
#include "runtime/session_mux.h"
#include "spinal/link.h"
#include "util/prng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spinal::CodeParams;
using spinal::LinkSender;
using spinal::LinkSymbol;
using spinal::runtime::DecodeService;
using spinal::runtime::RuntimeOptions;
using spinal::runtime::SessionMux;

constexpr int kWorkers = 2;
constexpr int kLinks = 32;
constexpr std::array<double, 4> kSnrDb{6.0, 10.0, 14.0, 18.0};
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kFrameBytes = kPayloadBytes + 4;  ///< + CRC-32
constexpr int kMaxTries = 4;  ///< sends of one datagram before it fails
constexpr int kDatagrams = 500;  ///< per pass
constexpr int kWarmup = 64;      ///< completions before the window opens

CodeParams link_params() {
  CodeParams p;
  p.n = 256;
  p.k = 4;
  p.c = 6;
  p.B = 64;
  return p;
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return ~crc;
}

class LinkMux final : public Workload {
 public:
  explicit LinkMux(std::uint64_t seed) {
    payloads_.resize(kDatagrams);
    seeds_.resize(kDatagrams);
    for (std::size_t d = 0; d < payloads_.size(); ++d) {
      spinal::util::Xoshiro256 prng(mix_seed(seed, 3, d));
      payloads_[d].resize(kPayloadBytes);
      for (auto& b : payloads_[d]) b = static_cast<std::uint8_t>(prng.next_u64());
      const std::uint32_t crc = crc32(payloads_[d].data(), kPayloadBytes);
      for (int i = 0; i < 4; ++i)
        payloads_[d].push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
      seeds_[d] = mix_seed(seed, 4, d);
    }
  }

  std::string name() const override { return "link_mux"; }
  bool decorated() const override { return false; }
  PassResult run_pass(Mode mode, SpanRecorder* spans) override;
  std::vector<std::pair<std::string, std::string>> not_applicable()
      const override {
    return {{"decode_service.batch_jobs_mean",
             "mux decode tasks are claimed inside the runtime; claims are "
             "invisible from outside without in-program tracing"}};
  }

 private:
  std::vector<std::vector<std::uint8_t>> payloads_;  ///< framed: + CRC-32
  std::vector<std::uint64_t> seeds_;
};

struct Link {
  std::optional<LinkSender> sender;
  std::optional<spinal::channel::AwgnChannel> channel;
  SessionMux::SessionId id = 0;
  int dgram = -1;  ///< -1: idle (the pass ran out of datagrams)
  std::int64_t open_ns = 0;  ///< first send of the datagram
  int rounds = 0;            ///< over all sends
  int tries = 0;
  long symbols = 0;          ///< spent by the earlier sends
};

/// True when @p got is @p sent followed only by zero padding: reassembly
/// returns whole blocks, so a 68-byte frame comes back as 90 bytes.
bool same_payload(const std::vector<std::uint8_t>& got,
                  const std::vector<std::uint8_t>& sent) {
  if (got.size() < sent.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != (i < sent.size() ? sent[i] : 0)) return false;
  return true;
}

/// The receiving application's own check, which knows only the frame
/// format: the CRC-32 trailer matches and the padding is zero.
bool frame_intact(const std::vector<std::uint8_t>& got) {
  if (got.size() < kFrameBytes) return false;
  std::uint32_t trailer = 0;
  for (int i = 0; i < 4; ++i)
    trailer |= static_cast<std::uint32_t>(got[kPayloadBytes + i]) << (8 * i);
  for (std::size_t i = kFrameBytes; i < got.size(); ++i)
    if (got[i] != 0) return false;
  return trailer == crc32(got.data(), kPayloadBytes);
}

PassResult LinkMux::run_pass(Mode mode, SpanRecorder* spans) {
  const bool traced = mode == Mode::kTraced;
  if (!traced) spans = nullptr;
  if (spans) spans->name_thread("generator");
  const CodeParams params = link_params();
  const double bits_per_dgram = 8.0 * kPayloadBytes;

  PassResult r;
  r.mode = mode;
  std::vector<int> rounds_per_dgram;
  std::vector<double> pause_us, wait_ms;
  double enc_ns = 0, chan_ns = 0, ingest_ns = 0, syms = 0;
  double wait_total_ns = 0, round_total_ns = 0;
  long ack_events = 0, acked_blocks = 0, completed = 0;
  std::int64_t setup_end = 0, window_end = 0, cpu0 = 0, cpu1 = 0, gen0 = 0,
               gen1 = 0;
  spinal::runtime::TelemetrySnapshot tel;
  std::uint64_t stale = 0;
  long rss1 = 0;

  RuntimeOptions opt;
  opt.workers = kWorkers;
  const long rss0 = current_rss_kb();
  const std::int64_t t_setup = now_ns();
  {
    DecodeService service(opt);
    SessionMux mux(service);
    std::array<Link, kLinks> links;
    int next = 0;
    // (Re)sends link li's datagram on a fresh link session.
    auto send = [&](int li) {
      Link& l = links[static_cast<std::size_t>(li)];
      const auto d = static_cast<std::size_t>(l.dgram);
      l.sender.emplace(params, payloads_[d]);
      l.channel.emplace(kSnrDb[static_cast<std::size_t>(li) % kSnrDb.size()],
                        mix_seed(seeds_[d], 5, static_cast<std::uint64_t>(l.tries)));
      l.id = mux.open(params, l.sender->block_count());
      ++l.tries;
    };
    auto open = [&](int li, std::int64_t t) {
      Link& l = links[static_cast<std::size_t>(li)];
      if (next >= kDatagrams) {
        l.dgram = -1;
        return;
      }
      l.dgram = next++;
      l.open_ns = t;
      l.rounds = 0;
      l.tries = 0;
      l.symbols = 0;
      send(li);
      ++r.started;
      if (spans) spans->record("open", t, t, l.dgram);
    };
    for (int li = 0; li < kLinks; ++li) open(li, now_ns());

    bool any_active = true;
    while (any_active) {
      const std::int64_t round0 = now_ns();
      // Serial generator phase: encode, channel, ingest.
      for (Link& l : links) {
        if (l.dgram < 0) continue;
        const std::int64_t t0 = traced ? now_ns() : 0;
        std::vector<LinkSymbol> burst = l.sender->next_burst();
        if (!traced) {
          for (LinkSymbol& s : burst) s.value = l.channel->transmit(s.value);
          for (const LinkSymbol& s : burst) mux.ingest(l.id, s);
          continue;
        }
        const std::int64_t t1 = now_ns();
        for (LinkSymbol& s : burst) s.value = l.channel->transmit(s.value);
        const std::int64_t t2 = now_ns();
        for (const LinkSymbol& s : burst) mux.ingest(l.id, s);
        const std::int64_t t3 = now_ns();
        enc_ns += static_cast<double>(t1 - t0);
        chan_ns += static_cast<double>(t2 - t1);
        ingest_ns += static_cast<double>(t3 - t2);
        syms += static_cast<double>(burst.size());
        if (spans) {
          const auto n = static_cast<std::int32_t>(burst.size());
          spans->record("encode", t0, t1, l.dgram, n);
          spans->record("channel", t1, t2, l.dgram, n);
          spans->record("ingest", t2, t3, l.dgram, n);
        }
      }
      // Pause points hand the due decode attempts to the service.
      for (Link& l : links) {
        if (l.dgram < 0) continue;
        const std::int64_t t0 = traced ? now_ns() : 0;
        mux.pause_point(l.id);
        if (!traced) continue;
        const std::int64_t t1 = now_ns();
        pause_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
        if (spans) spans->record("pause", t0, t1, l.dgram);
      }
      const std::int64_t w0 = now_ns();
      mux.wait_idle();
      const std::int64_t w1 = now_ns();
      if (traced) {
        wait_ms.push_back(static_cast<double>(w1 - w0) / 1e6);
        wait_total_ns += static_cast<double>(w1 - w0);
        if (spans) spans->record("round_wait", w0, w1, -1);
      }
      ack_events += static_cast<long>(mux.poll_acks().size());
      for (Link& l : links)
        if (l.dgram >= 0) l.sender->handle_ack(mux.current_ack(l.id));
      const std::int64_t t = now_ns();
      round_total_ns += static_cast<double>(t - round0);

      // Completions, verification and the closed loop's next opens.
      any_active = false;
      for (int li = 0; li < kLinks; ++li) {
        Link& l = links[static_cast<std::size_t>(li)];
        if (l.dgram < 0) continue;
        ++l.rounds;
        const bool done = l.sender->done();
        if (!done && !l.sender->gave_up()) {
          any_active = true;
          continue;
        }
        for (bool b : mux.current_ack(l.id).decoded) acked_blocks += b ? 1 : 0;
        l.symbols += l.sender->symbols_sent();
        bool delivered = false;
        if (done) {
          const auto got = mux.datagram(l.id);
          const bool right =
              got && same_payload(*got, payloads_[static_cast<std::size_t>(l.dgram)]);
          if (!right) ++r.crc_false_accepts;
          if (got && !frame_intact(*got) && l.tries < kMaxTries) {
            ++r.resends;
            if (spans) spans->record("resend", t, t, l.dgram);
            send(li);
            any_active = true;
            continue;
          }
          delivered = right;
        }
        (delivered ? r.delivered : r.failed) += 1;
        ++completed;
        rounds_per_dgram.push_back(l.rounds);
        if (spans) spans->record("complete", t, t, l.dgram, delivered ? 1 : 0);
        if (setup_end != 0 && window_end == 0) {
          r.symbols += static_cast<double>(l.symbols);
          if (delivered) {
            r.bits += bits_per_dgram;
            r.latency_ms.push_back(static_cast<double>(t - l.open_ns) / 1e6);
          } else {
            r.latency_ms.push_back(std::numeric_limits<double>::infinity());
          }
        }
        open(li, t);
        if (l.dgram >= 0) any_active = true;
      }
      // The window closes with the last open (the drain tail follows)
      // and opens once the warm-up completions are in.
      if (setup_end != 0 && window_end == 0 && next >= kDatagrams) {
        window_end = t;
        cpu1 = process_cpu_ns();
        gen1 = thread_cpu_ns();
      }
      if (setup_end == 0 && completed >= kWarmup) {
        setup_end = t;
        cpu0 = process_cpu_ns();
        gen0 = thread_cpu_ns();
      }
    }
    tel = service.telemetry();
    stale = mux.stale_symbols();
    rss1 = current_rss_kb();
  }

  r.setup_s = static_cast<double>(setup_end - t_setup) / 1e9;
  r.window_s = static_cast<double>(window_end - setup_end) / 1e9;
  r.cpu_ns = static_cast<double>(cpu1 - cpu0);
  r.admit_bps = r.bits / r.window_s;
  if (setup_end == 0 || window_end <= setup_end)
    r.accounting_error = "the steady window never opened";
  else if (r.started != kDatagrams || r.delivered + r.failed != r.started)
    r.accounting_error = "datagrams started/ended do not match";
  else if (ack_events != acked_blocks)
    r.accounting_error = "ACK events (" + std::to_string(ack_events) +
                         ") != decoded blocks (" + std::to_string(acked_blocks) + ")";
  if (!traced) return r;

  const auto& c = tel.counters;
  const double window_ns = static_cast<double>(window_end - setup_end);
  const double gen_ns = static_cast<double>(gen1 - gen0);
  std::vector<double> rounds(rounds_per_dgram.begin(), rounds_per_dgram.end());
  LayerMetrics& L = r.layer;
  L["decoder.attempt_us_p50"] = tel.decode_latency_us.quantile(0.50);
  L["decoder.attempt_us_p99"] = tel.decode_latency_us.quantile(0.99);
  L["decoder.attempts_per_message"] =
      static_cast<double>(c.decode_attempts) / kDatagrams;
  L["decoder.reduced_effort_share"] =
      c.decode_attempts ? static_cast<double>(c.reduced_effort_attempts) /
                              static_cast<double>(c.decode_attempts)
                        : 0.0;
  L["encoder.ns_per_symbol"] = enc_ns / syms;
  L["channel.ns_per_symbol"] = chan_ns / syms;
  L["receiver.ingest_ns_per_symbol"] = ingest_ns / syms;
  L["decode_service.submit_wait_us_p50"] = quantile(pause_us, 0.50);
  L["decode_service.submit_wait_us_p99"] = quantile(pause_us, 0.99);
  L["decode_service.queue_wait_us_p50"] = tel.stages.queue_wait_us.quantile(0.50);
  L["decode_service.queue_wait_us_p99"] = tel.stages.queue_wait_us.quantile(0.99);
  L["decode_service.batch_jobs_mean"] = 0.0;
  L["decode_service.worker_busy_share"] =
      (r.cpu_ns - gen_ns) / (window_ns * kWorkers);
  L["job_queue.steals_per_kjob"] =
      c.jobs ? 1000.0 * static_cast<double>(tel.queue.steals) /
                   static_cast<double>(c.jobs)
             : 0.0;
  L["decode_service.rss_kb_per_message"] =
      static_cast<double>(rss1 - rss0) / kDatagrams;
  L["generator.busy_share"] = gen_ns / window_ns;
  L["session_mux.stale_symbols_per_datagram"] =
      static_cast<double>(stale) / kDatagrams;
  L["session_mux.round_wait_share"] = wait_total_ns / round_total_ns;
  L["link.rounds_per_datagram_p50"] = quantile(rounds, 0.50);
  L["link.rounds_per_datagram_p99"] = quantile(rounds, 0.99);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "session_mux.round_wait_ms p50 %.3f p99 %.3f over %zu rounds; "
                "session_mux.pause_point_us p50 %.2f",
                quantile(wait_ms, 0.50), quantile(wait_ms, 0.99), wait_ms.size(),
                quantile(pause_us, 0.50));
  r.notes.emplace_back(buf);
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_link_mux(std::uint64_t seed) {
  return std::make_unique<LinkMux>(seed);
}

}  // namespace perfbench
