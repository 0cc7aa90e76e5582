#include "mac/upload_sim.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "core/multirate.hpp"
#include "core/power_control.hpp"
#include "mac/access_point.hpp"
#include "mac/station.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sic::mac {

namespace {

constexpr MacNodeId kApId = 0;

/// Folds one run's medium counters into the attached registry (no-op when
/// detached). Called once per run — the hot path never touches obs.
void publish_medium_stats(obs::MetricsRegistry& reg, const MediumStats& s) {
  reg.counter("mac.medium.transmissions").inc(s.transmissions);
  reg.counter("mac.medium.delivered").inc(s.delivered);
  reg.counter("mac.medium.failed_clean").inc(s.failed_clean);
  reg.counter("mac.medium.failed_collision").inc(s.failed_collision);
  reg.counter("mac.medium.sic_decodes").inc(s.sic_decodes);
  reg.counter("mac.medium.capture_decodes").inc(s.capture_decodes);
  reg.counter("mac.medium.injected_failures").inc(s.injected_failures);
}

/// The FailureTelemetry struct stays the per-run snapshot view (PR 1's
/// tests read it); the registry carries the same counters accumulated
/// across runs, under mac.upload.*.
void publish_failure_telemetry(obs::MetricsRegistry& reg,
                               const FailureTelemetry& t) {
  reg.counter("mac.upload.rate_misses").inc(t.rate_misses);
  reg.counter("mac.upload.cancellation_failures").inc(t.cancellation_failures);
  reg.counter("mac.upload.ack_losses").inc(t.ack_losses);
  reg.counter("mac.upload.duplicate_deliveries").inc(t.duplicate_deliveries);
  reg.counter("mac.upload.retransmissions").inc(t.retransmissions);
  reg.counter("mac.upload.mode_demotions").inc(t.mode_demotions);
  reg.counter("mac.upload.client_demotions").inc(t.client_demotions);
  reg.counter("mac.upload.rematch_rounds").inc(t.rematch_rounds);
  reg.counter("mac.upload.recovered").inc(t.recovered);
  reg.counter("mac.upload.unrecovered").inc(t.unrecovered);
  reg.counter("mac.upload.gave_up.rate_miss").inc(t.gave_up_rate_miss);
  reg.counter("mac.upload.gave_up.cancellation").inc(t.gave_up_cancellation);
  reg.counter("mac.upload.gave_up.ack_loss").inc(t.gave_up_ack_loss);
  reg.counter("mac.upload.gave_up.unattempted").inc(t.gave_up_unattempted);
  auto& retries = reg.histogram("mac.upload.retries_to_confirm", 1.0, 16);
  for (std::size_t k = 0; k < t.retry_histogram.size(); ++k) {
    for (std::uint64_t i = 0; i < t.retry_histogram[k]; ++i) {
      retries.observe(static_cast<double>(k));
    }
  }
}

/// Labels the per-node trace tracks once per run so the Perfetto timeline
/// reads "client 3", not "tid 4". \p executor_tid hosts round/slot spans.
void name_trace_tracks(obs::TraceSink& sink, std::size_t n_clients,
                       int executor_tid) {
  sink.name_track(kApId, "AP");
  for (std::size_t i = 0; i < n_clients; ++i) {
    sink.name_track(static_cast<int>(i) + 1,
                    "client " + std::to_string(i));
  }
  if (executor_tid >= 0) sink.name_track(executor_tid, "executor");
}

/// The AP's noise floor, which every client budget must share.
Milliwatts shared_noise_floor(std::span<const channel::LinkBudget> clients) {
  SIC_CHECK(!clients.empty());
  const Milliwatts noise = clients.front().noise;
  for (const auto& c : clients) {
    SIC_CHECK_MSG(c.noise == noise, "clients must share the AP noise floor");
  }
  SIC_CHECK(noise.value() > 0.0);
  return noise;
}

/// Builds the medium for one AP + n clients from their AP-side budgets.
/// Client-to-client gains come from the configured mutual SNR.
std::unique_ptr<Medium> build_medium(EventQueue& queue,
                                     std::span<const channel::LinkBudget> clients,
                                     const phy::RateAdapter& adapter,
                                     const UploadSimConfig& config) {
  const Milliwatts noise = shared_noise_floor(clients);
  const int n_nodes = static_cast<int>(clients.size()) + 1;
  phy::SicDecoderConfig decoder;
  decoder.sic_capable = config.sic_at_ap;
  decoder.cancellation_residual = config.cancellation_residual;
  decoder.max_decodable_disparity = config.max_decodable_disparity;
  auto medium =
      std::make_unique<Medium>(queue, n_nodes, noise, adapter, decoder);
  medium->fill_gains(noise * config.client_mutual_snr.linear());
  for (int i = 0; i < static_cast<int>(clients.size()); ++i) {
    medium->set_gain(kApId, i + 1, clients[static_cast<std::size_t>(i)].rss);
  }
  return medium;
}

}  // namespace

UploadSimResult run_dcf_upload(std::span<const channel::LinkBudget> clients,
                               const phy::RateAdapter& adapter,
                               const UploadSimConfig& config) {
  SIC_CHECK(config.frames_per_client >= 1);
  SIC_CHECK(config.rate_margin > 0.0 && config.rate_margin <= 1.0);
  EventQueue queue;
  auto medium = build_medium(queue, clients, adapter, config);
  AccessPoint ap{queue, *medium, kApId};
  Rng rng{config.seed};
  if (obs::TraceSink* sink = obs::trace()) {
    name_trace_tracks(*sink, clients.size(), /*executor_tid=*/-1);
  }

  std::vector<std::unique_ptr<DcfStation>> stations;
  for (int i = 0; i < static_cast<int>(clients.size()); ++i) {
    const auto& budget = clients[static_cast<std::size_t>(i)];
    const BitsPerSecond rate{adapter.rate(budget.snr()).value() *
                             config.rate_margin};
    if (rate.value() <= 0.0) continue;  // dead link; cannot participate
    auto st = std::make_unique<DcfStation>(queue, *medium, i + 1, kApId, rate,
                                           rng.fork());
    st->set_rts_cts(config.use_rts_cts);
    st->enqueue(config.frames_per_client, config.packet_bits);
    st->start();
    stations.push_back(std::move(st));
  }

  queue.run_until(config.horizon);

  UploadSimResult result;
  result.offered =
      stations.size() * static_cast<std::uint64_t>(config.frames_per_client);
  result.delivered = ap.stats().data_received;
  SimTime completion = 0;
  for (const auto& st : stations) {
    result.retries += st->stats().retries;
    result.drops += st->stats().drops;
    completion = std::max(completion, st->stats().completion_time);
  }
  result.completion_s = to_seconds(completion);
  result.medium = medium->stats();
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("mac.dcf.runs").inc();
    reg->counter("mac.dcf.offered").inc(result.offered);
    reg->counter("mac.dcf.delivered").inc(result.delivered);
    reg->counter("mac.dcf.retries").inc(result.retries);
    reg->counter("mac.dcf.drops").inc(result.drops);
    reg->histogram("mac.dcf.completion_s").observe(result.completion_s);
    publish_medium_stats(*reg, result.medium);
  }
  SIC_LOG_INFO("dcf upload: %zu clients, %llu/%llu delivered in %.3f s",
               clients.size(),
               static_cast<unsigned long long>(result.delivered),
               static_cast<unsigned long long>(result.offered),
               result.completion_s);
  return result;
}

namespace {

/// Closed-loop executor of a Section 6 schedule. A scheduled slot's
/// timeline is fixed by the plan: its frames start together (or, for a
/// serial or multirate tail, one ACK turnaround after the first), the AP
/// decodes them as they end and ACKs each decoded packet once the air is
/// clear, and the slot is checked a fixed turnaround after its longest
/// frame. So the runner walks that timeline directly, event by event in
/// time order, with no event queue or medium: the same verdict rule
/// (decode_verdict), counters and per-frame report as mac/medium.hpp, and
/// the AP's receive counters and duplicate rule inline. The slot check
/// then confirms every participating frame against those counters and
/// drives the recovery ladder of RecoveryConfig. With no injected faults
/// every confirmation succeeds on the first attempt and every result field
/// is identical to the open-loop executor this replaced.
class ClosedLoopRunner {
 public:
  ClosedLoopRunner(std::span<const channel::LinkBudget> clients,
                   const phy::RateAdapter& adapter,
                   const core::Schedule& schedule,
                   const UploadSimConfig& config, FaultModel& faults)
      : clients_(clients),
        adapter_(&adapter),
        config_(&config),
        faults_(&faults),
        decoder_(adapter, decoder_config(config)),
        margin_db_(schedule.admission_margin_db.value()),
        noise_(clients.front().noise),
        sink_(obs::trace()),
        executor_tid_(static_cast<int>(clients.size()) + 1) {
    const std::size_t n = clients.size();
    records_.reserve(n);
    // The schedule was planned on the nominal (stale) RSS; under channel
    // faults the packets fly through the drifted channel.
    const bool drifted = faults.config().channel_faults();
    for (std::size_t i = 0; i < n; ++i) {
      const Milliwatts rss = clients_[i].rss;
      records_.push_back(ClientRecord{
          rss, drifted ? faults.true_rss(rss, static_cast<int>(i)) : rss});
    }
    unrecovered_per_client_.assign(n, 0);
    const int buckets =
        std::clamp(config.recovery.max_attempts_per_frame, 1, 16);
    telemetry_.retry_histogram.assign(static_cast<std::size_t>(buckets), 0);
    // Room for the plan plus one retry slot per client before growing.
    round_slots_.reserve(schedule.slots.size() + n);
    for (const auto& slot : schedule.slots) {
      RunSlot rs;
      rs.first = slot.first;
      rs.second = slot.second;
      rs.mode = slot.second < 0 ? core::PairMode::kSolo : slot.plan.mode;
      rs.planned_weaker_scale = slot.plan.weaker_power_scale;
      rs.use_planned_scale = true;
      ++records_[static_cast<std::size_t>(slot.first)].pending;
      if (slot.second >= 0) {
        ++records_[static_cast<std::size_t>(slot.second)].pending;
      }
      round_slots_.push_back(rs);
    }
  }

  /// Runs the planned round and every re-match round after it, until the
  /// backlog drains, the round budget runs out, or the horizon: no event
  /// at or after it runs.
  void run() {
    round_open_ = true;
    round_start_us_ = now_us();
    std::size_t index = 0;
    for (;;) {
      if (index >= round_slots_.size()) {
        if (!end_round()) return;
        index = 0;
        continue;
      }
      if (!play_slot(index)) return;
      finish_slot(index);
      ++index;
    }
  }

  /// Accounts frames still pending when the horizon cut the run short.
  void finalize() {
    close_round_span("horizon");
    for (std::size_t c = 0; c < records_.size(); ++c) {
      if (records_[c].pending > 0 && !records_[c].dropped) give_up(c);
    }
  }

  /// Hands the run's accounting to \p result (call once, after finalize).
  void move_results_into(UploadSimResult& result) {
    result.delivered = data_received_;
    result.completion_s = to_seconds(now_);
    result.medium = medium_;
    result.failures = std::move(telemetry_);
    result.failures.duplicate_deliveries = duplicates_;
    result.unrecovered_per_client = std::move(unrecovered_per_client_);
  }

 private:
  struct RunSlot {
    int first = 0;
    int second = -1;  ///< -1 = solo
    core::PairMode mode = core::PairMode::kSolo;
    /// Weaker-client power scale from the planner; retry slots recompute
    /// it from the current estimates instead.
    double planned_weaker_scale = 1.0;
    bool use_planned_scale = false;
  };

  enum class CheckOutcome { kConfirmed, kFailed, kDropped };

  /// Cause of a client's most recent failed confirmation — the terminal
  /// cause attributed when the executor abandons that client's frames.
  enum class FailCause { kNone, kRateMiss, kCancellation, kAckLoss };

  /// The executor's state of one client.
  struct ClientRecord {
    Milliwatts estimate;        ///< executor's channel knowledge
    Milliwatts truth;           ///< the channel its frames fly through
    int pending = 0;            ///< unconfirmed frames
    int attempts = 0;           ///< transmissions
    int failures = 0;           ///< failed exchanges
    bool dropped = false;       ///< gave up on this client
    bool demoted = false;       ///< barred from pairing
    std::uint64_t received = 0;  ///< AP receive counter of this client
    std::uint64_t ap_seen = 0;   ///< receive counter last checked
    FailCause last_cause = FailCause::kNone;  ///< most recent failure
  };

  /// A data frame on the air: one phase of a slot holds up to two, in
  /// send order, all starting at the phase's start.
  struct AirFrame {
    int client = 0;
    BitsPerSecond rate{0.0};
    double scale = 1.0;
    double bits = 0.0;
    bool final_fragment = true;
    SimTime end = 0;
  };
  struct Phase {
    std::array<AirFrame, 2> frames{};
    std::size_t size = 0;
    /// Longest air time; 0 with nothing on the air.
    SimTime span = 0;
  };

  static phy::SicDecoderConfig decoder_config(const UploadSimConfig& c) {
    phy::SicDecoderConfig decoder;
    decoder.sic_capable = c.sic_at_ap;
    decoder.cancellation_residual = c.cancellation_residual;
    decoder.max_decodable_disparity = c.max_decodable_disparity;
    return decoder;
  }

  /// Abandons every pending frame of client \p c, splitting the loss by
  /// the last observed failure cause (kNone = never checked: horizon).
  void give_up(std::size_t c) {
    ClientRecord& r = records_[c];
    const auto count = static_cast<std::uint64_t>(r.pending);
    telemetry_.unrecovered += count;
    unrecovered_per_client_[c] += count;
    switch (r.last_cause) {
      case FailCause::kRateMiss: telemetry_.gave_up_rate_miss += count; break;
      case FailCause::kCancellation:
        telemetry_.gave_up_cancellation += count;
        break;
      case FailCause::kAckLoss: telemetry_.gave_up_ack_loss += count; break;
      case FailCause::kNone: telemetry_.gave_up_unattempted += count; break;
    }
    r.pending = 0;
  }

  [[nodiscard]] static std::uint64_t frame_id(int client) {
    // Stable per-client ids: a retransmission carries the same id as the
    // original (as an 802.11 retry keeps its sequence number), which lets
    // the AP count duplicate deliveries.
    return static_cast<std::uint64_t>(client) + 1;
  }

  /// RSS the executor *selects rates from*: the current estimate, derated
  /// by the plan's admission margin plus the client's retry backoff.
  /// Transmissions still leave at full (or planner-scaled) power.
  [[nodiscard]] Milliwatts selection_rss(int client) const {
    const ClientRecord& r = records_[static_cast<std::size_t>(client)];
    const double backoff_db =
        margin_db_ + r.failures * config_->recovery.retry_backoff.value();
    return r.estimate * Decibels{-backoff_db}.linear();
  }

  [[nodiscard]] BitsPerSecond clean_rate(int client) const {
    return adapter_->rate(selection_rss(client) / noise_);
  }

  [[nodiscard]] core::UploadPairContext pair_ctx(int a, int b) const {
    return core::UploadPairContext::make(selection_rss(a), selection_rss(b),
                                         noise_, *adapter_,
                                         config_->packet_bits);
  }

  /// Puts one data frame on the air at now_; zero-rate links (a discrete
  /// adapter below its lowest threshold) skip the air entirely and fail
  /// at confirmation.
  void send(Phase& phase, int client, BitsPerSecond rate, double scale,
            double bits, bool final_fragment) {
    if (rate.value() <= 0.0) return;
    SIC_CHECK(scale > 0.0 && scale <= 1.0);
    SIC_CHECK_MSG(phase.size == 0 || phase.frames[0].client != client,
                  "node is already transmitting (half duplex)");
    const SimTime end = now_ + PhyParams::airtime(bits, rate);
    phase.frames[phase.size++] =
        AirFrame{client, rate, scale, bits, final_fragment, end};
    phase.span = std::max(phase.span, end - now_);
    ++medium_.transmissions;
  }

  void note_attempt(int client) {
    ClientRecord& r = records_[static_cast<std::size_t>(client)];
    ++r.attempts;
    if (r.attempts > 1) ++telemetry_.retransmissions;
  }

  /// Moves the clock to the next event at \p t; false when \p t is at or
  /// past the horizon, where the run stops without running it.
  [[nodiscard]] bool advance_to(SimTime t) {
    SIC_DCHECK(t >= now_);
    if (t >= config_->horizon) return false;
    now_ = t;
    return true;
  }

  /// Plays slot \p index from now_ up to its check; false when the
  /// horizon stopped the run first.
  [[nodiscard]] bool play_slot(std::size_t index) {
    slot_start_us_ = now_us();
    const RunSlot& slot = round_slots_[index];
    const double bits = config_->packet_bits;
    const PhyParams phy;

    note_attempt(slot.first);
    if (slot.second >= 0) note_attempt(slot.second);

    Phase phase;
    int acks = 1;
    int tail_client = -1;  // sender of a serial or multirate second half
    double tail_bits = 0.0;
    switch (slot.mode) {
      case core::PairMode::kSolo:
        send(phase, slot.first, clean_rate(slot.first), 1.0, bits, true);
        break;
      case core::PairMode::kSerial:
        // First packet now; the second after the first's ACK turnaround.
        send(phase, slot.first, clean_rate(slot.first), 1.0, bits, true);
        tail_client = slot.second;
        tail_bits = bits;
        break;
      case core::PairMode::kSicMultirate: {
        SIC_CHECK(slot.second >= 0);
        const auto [strong, weak] = strong_weak(slot);
        const auto ctx = pair_ctx(slot.first, slot.second);
        const auto mr = core::multirate_airtime_detailed(ctx);
        const auto rates = core::sic_rates(ctx);
        if (!mr.boosted) {
          // Nothing to boost; run as a plain SIC pair.
          send(phase, strong, rates.stronger, 1.0, bits, true);
          send(phase, weak, rates.weaker, 1.0, bits, true);
          acks = 2;
          break;
        }
        // Fragment 1 of the stronger packet rides the overlap at the
        // interference-limited rate; the weaker packet runs in full.
        send(phase, weak, rates.weaker, 1.0, bits, true);
        if (mr.overlap_bits > 0.0) {
          send(phase, strong, rates.stronger, 1.0, mr.overlap_bits, false);
        }
        // After the overlap and the weaker packet's ACK turnaround, the
        // stronger client boosts the remainder to its clean rate.
        tail_client = strong;
        tail_bits = std::max(0.0, bits - mr.overlap_bits);
        break;
      }
      case core::PairMode::kSic:
      case core::PairMode::kSicPowerControl: {
        SIC_CHECK(slot.second >= 0);
        const auto [strong, weak] = strong_weak(slot);
        auto ctx = pair_ctx(slot.first, slot.second);
        double scale = 1.0;
        if (slot.mode == core::PairMode::kSicPowerControl) {
          scale = slot.use_planned_scale
                      ? slot.planned_weaker_scale
                      : core::optimize_weaker_power(ctx).scale;
        }
        ctx.arrival.weaker = ctx.arrival.weaker * scale;
        const auto rates = core::sic_rates(ctx);
        send(phase, strong, rates.stronger, 1.0, bits, true);
        send(phase, weak, rates.weaker, scale, bits, true);
        acks = 2;
        break;
      }
    }
    const SimTime start = now_;
    if (!play(phase)) return false;
    const SimTime ack_turnaround = phy.sifs + phy.ack_duration() + phy.sifs;
    if (tail_client < 0) {
      return advance_to(start + phase.span + phy.sifs +
                        acks * (phy.ack_duration() + phy.sifs));
    }
    if (!advance_to(start + phase.span + ack_turnaround)) return false;
    const SimTime tail_start = now_;
    Phase tail;
    send(tail, tail_client, clean_rate(tail_client), 1.0, tail_bits, true);
    if (!play(tail)) return false;
    return advance_to(tail_start + tail.span + ack_turnaround);
  }

  /// Runs \p phase's events in time order: its frame ends (ties in send
  /// order), each decoded packet's ACK once no data frame is on the air,
  /// and the ACK ends. The ACKs of a phase always end before the slot's
  /// next fixed event (tail start or check): SLOT < SIFS bounds a deferred
  /// ACK's wait.
  [[nodiscard]] bool play(Phase& phase) {
    const SimTime start = now_;
    const PhyParams phy;
    const SimTime ack_air = phy.ack_duration();
    std::array<std::size_t, 2> order{0, 1};
    if (phase.size == 2 && phase.frames[1].end < phase.frames[0].end) {
      std::swap(order[0], order[1]);
    }
    std::size_t ended = 0;
    // ACK backlog in decode order (a phase decodes at most two packets)
    // and its next start or retry event, kNever when none is due.
    std::array<int, 2> backlog{};
    std::size_t queued = 0;
    std::size_t sent = 0;
    SimTime ack_at = kNever;
    for (;;) {
      const SimTime frame_at =
          ended < phase.size ? phase.frames[order[ended]].end : kNever;
      if (frame_at == kNever && ack_at == kNever) return true;
      if (frame_at <= ack_at) {
        // A frame ending with an ACK due ends first: it went on the air,
        // and so was scheduled, before the ACK was.
        if (!advance_to(frame_at)) return false;
        const std::size_t i = order[ended++];
        const AirFrame* other =
            phase.size == 2 ? &phase.frames[1 - i] : nullptr;
        if (end_frame(phase.frames[i], start, other)) {
          backlog[queued++] = phase.frames[i].client;
          if (ack_at == kNever) {
            ack_at = std::max(now_ + phy.sifs, ack_ready_ + phy.sifs);
          }
        }
        continue;
      }
      if (!advance_to(ack_at)) return false;
      if (ended < phase.size) {
        // An SIC-capable AP defers its ACK while it is still receiving
        // another (cancellable) frame — transmitting now would both
        // violate half duplex and stomp the weaker signal's tail (the
        // ACK-timing issue [4] discusses). Retry one slot later.
        ack_ready_ = now_ + phy.slot;
        ack_at = std::max(now_ + phy.sifs, ack_ready_ + phy.sifs);
        continue;
      }
      const int client = backlog[sent++];
      const SimTime ack_start = now_;
      ++medium_.transmissions;
      ack_ready_ = ack_start + ack_air;
      ack_at = sent < queued
                   ? std::max(now_ + phy.sifs, ack_ready_ + phy.sifs)
                   : kNever;
      if (!advance_to(ack_start + ack_air)) return false;
      end_ack(client, ack_start);
    }
  }

  /// The AP's verdict on data frame \p f at its end, with \p other on the
  /// air alongside it (nullptr: alone); true when it completes a packet,
  /// which the AP then ACKs.
  bool end_frame(const AirFrame& f, SimTime start, const AirFrame* other) {
    const Arrival signal{
        records_[static_cast<std::size_t>(f.client)].truth * f.scale, f.rate};
    Arrival interferer{};
    if (other != nullptr) {
      interferer = Arrival{
          records_[static_cast<std::size_t>(other->client)].truth *
              other->scale,
          other->rate};
    }
    DecodeVerdict verdict =
        decode_verdict(*adapter_, decoder_, noise_, signal,
                       other != nullptr ? &interferer : nullptr);
    // Injected faults strike the cancellation path only, after the
    // physics said yes.
    if (verdict == DecodeVerdict::kSicOk &&
        faults_->cancellation_fails(frame_id(f.client))) {
      verdict = DecodeVerdict::kFailCollision;
      ++medium_.injected_failures;
    }
    Frame frame;
    frame.src = f.client + 1;
    frame.dst = kApId;
    frame.payload_bits = f.bits;
    report_frame(frame, f.rate, start, f.end, verdict, other != nullptr);
    medium_.record(verdict);
    // Non-final fragments (multirate packetization) complete no packet and
    // solicit no ACK; the final fragment accounts for the whole packet.
    if (!decoded(verdict) || !f.final_fragment) return false;
    ++data_received_;
    // A retransmission keeps its frame id, so any reception after a
    // client's first is a duplicate.
    if (records_[static_cast<std::size_t>(f.client)].received++ > 0) {
      ++duplicates_;
    }
    return true;
  }

  /// An ACK to \p client, sent at \p start, ends now_: nothing else is on
  /// the air, so its client decodes it clean whenever the rate allows.
  void end_ack(int client, SimTime start) {
    const PhyParams phy;
    const DecodeVerdict verdict = decode_verdict(
        *adapter_, decoder_, noise_,
        Arrival{records_[static_cast<std::size_t>(client)].truth,
                phy.ack_rate},
        nullptr);
    Frame ack;
    ack.type = FrameType::kAck;
    ack.src = kApId;
    ack.dst = client + 1;
    ack.payload_bits = phy.ack_bits;
    report_frame(ack, phy.ack_rate, start, now_, verdict, 0);
    medium_.record(verdict);
  }

  /// Stronger/weaker roles from the executor's *estimates* — under stale
  /// RSS the realized ordering may differ, which is itself a failure mode.
  [[nodiscard]] std::pair<int, int> strong_weak(const RunSlot& slot) const {
    const bool first_stronger =
        records_[static_cast<std::size_t>(slot.first)].estimate >=
        records_[static_cast<std::size_t>(slot.second)].estimate;
    return first_stronger ? std::pair{slot.first, slot.second}
                          : std::pair{slot.second, slot.first};
  }

  /// Confirmation + recovery at the instant the open-loop runner would
  /// have blindly moved on.
  void finish_slot(std::size_t index) {
    const RunSlot slot = round_slots_[index];
    const CheckOutcome first = check_client(slot.first);
    const CheckOutcome second =
        slot.second >= 0 ? check_client(slot.second) : CheckOutcome::kConfirmed;
    faults_->clear_injections();
    if (sink_ != nullptr) {
      obs::TraceSink::Args args{
          {"mode", core::to_string(slot.mode)},
          {"first", std::to_string(slot.first)},
          {"first_ok", first == CheckOutcome::kConfirmed ? "1" : "0"},
      };
      if (slot.second >= 0) {
        args.emplace_back("second", std::to_string(slot.second));
        args.emplace_back("second_ok",
                          second == CheckOutcome::kConfirmed ? "1" : "0");
      }
      sink_->complete("slot", slot_start_us_, now_us() - slot_start_us_,
                      executor_tid_, args);
    }

    if (config_->recovery.enabled) {
      const bool concurrent = slot.mode == core::PairMode::kSic ||
                              slot.mode == core::PairMode::kSicPowerControl ||
                              slot.mode == core::PairMode::kSicMultirate;
      if (concurrent && first == CheckOutcome::kFailed &&
          second == CheckOutcome::kFailed) {
        // Both lost: retry the pair one step down the degradation ladder.
        RunSlot retry;
        retry.first = slot.first;
        retry.second = slot.second;
        retry.mode = degrade(slot.mode);
        ++telemetry_.mode_demotions;
        if (sink_ != nullptr) {
          sink_->instant("mode_demotion", now_us(), executor_tid_,
                         {{"from", core::to_string(slot.mode)},
                          {"to", core::to_string(retry.mode)}});
        }
        round_slots_.push_back(retry);
      } else if (concurrent) {
        // One lost (typically the weaker to a cancellation failure):
        // immediate serial fallback for the victim alone.
        for (const auto& [client, outcome] :
             {std::pair{slot.first, first}, std::pair{slot.second, second}}) {
          if (outcome != CheckOutcome::kFailed) continue;
          RunSlot retry;
          retry.first = client;
          retry.mode = core::PairMode::kSolo;
          ++telemetry_.mode_demotions;
          if (sink_ != nullptr) {
            sink_->instant("mode_demotion", now_us(), executor_tid_,
                           {{"from", core::to_string(slot.mode)},
                            {"to", "solo"},
                            {"client", std::to_string(client)}});
          }
          round_slots_.push_back(retry);
        }
      }
      // kSolo / kSerial failures mean the clean-rate estimate itself is
      // stale; retrying on the same estimate is futile, so those clients
      // wait for the round boundary's re-estimation + re-matching.
    }
  }

  CheckOutcome check_client(int client) {
    const std::size_t c = static_cast<std::size_t>(client);
    ClientRecord& r = records_[c];
    if (r.pending <= 0) return CheckOutcome::kConfirmed;
    const std::uint64_t delta = r.received - r.ap_seen;
    r.ap_seen = r.received;
    if (delta > 0) {
      if (faults_->ack_lost()) {
        // The AP has the frame; the station never hears so and will
        // retransmit — the duplicate-delivery path.
        ++telemetry_.ack_losses;
        r.last_cause = FailCause::kAckLoss;
        if (sink_ != nullptr) {
          sink_->instant("ack_loss", now_us(), client + 1);
        }
      } else {
        --r.pending;
        const std::size_t bucket = std::min(
            static_cast<std::size_t>(r.attempts > 0 ? r.attempts - 1 : 0),
            telemetry_.retry_histogram.size() - 1);
        ++telemetry_.retry_histogram[bucket];
        if (r.attempts > 1) ++telemetry_.recovered;
        return CheckOutcome::kConfirmed;
      }
    } else if (faults_->was_injected(frame_id(client))) {
      ++telemetry_.cancellation_failures;
      r.last_cause = FailCause::kCancellation;
      if (sink_ != nullptr) {
        sink_->instant("cancellation_failure", now_us(), client + 1);
      }
    } else {
      ++telemetry_.rate_misses;
      r.last_cause = FailCause::kRateMiss;
      if (sink_ != nullptr) {
        sink_->instant("rate_miss", now_us(), client + 1);
      }
    }
    ++r.failures;
    if (!config_->recovery.enabled ||
        r.attempts >= config_->recovery.max_attempts_per_frame) {
      give_up(c);
      r.dropped = true;
      SIC_LOG_WARN("client %d dropped after %d attempts", client,
                   r.attempts);
      if (sink_ != nullptr) {
        sink_->instant("drop", now_us(), client + 1,
                       {{"attempts", std::to_string(r.attempts)}});
      }
      return CheckOutcome::kDropped;
    }
    return CheckOutcome::kFailed;
  }

  [[nodiscard]] static core::PairMode degrade(core::PairMode mode) {
    switch (mode) {
      case core::PairMode::kSicMultirate: return core::PairMode::kSic;
      case core::PairMode::kSic: return core::PairMode::kSicPowerControl;
      case core::PairMode::kSicPowerControl: return core::PairMode::kSerial;
      case core::PairMode::kSerial:
      case core::PairMode::kSolo: break;
    }
    return mode;
  }

  /// Round boundary: every frame either confirmed, dropped, or waiting on
  /// a fresh channel estimate. Re-measure, advance the channel, and
  /// re-match the residual backlog. True when a new round opens.
  [[nodiscard]] bool end_round() {
    residual_.clear();
    residual_.reserve(records_.size());
    for (std::size_t c = 0; c < records_.size(); ++c) {
      if (records_[c].pending > 0) residual_.push_back(static_cast<int>(c));
    }
    close_round_span(residual_.empty() ? "drained" : "residual");
    if (residual_.empty()) return false;  // all confirmed or dropped: drain
    SIC_LOG_DEBUG("round %d ends with %zu residual clients", rounds_,
                  residual_.size());
    if (!config_->recovery.enabled ||
        rounds_ >= config_->recovery.max_rematch_rounds) {
      for (const int client : residual_) {
        const std::size_t c = static_cast<std::size_t>(client);
        give_up(c);
        records_[c].dropped = true;
      }
      return false;
    }
    ++rounds_;
    ++telemetry_.rematch_rounds;
    if (sink_ != nullptr) {
      sink_->instant("rematch", now_us(), executor_tid_,
                     {{"round", std::to_string(rounds_)},
                      {"residual", std::to_string(residual_.size())}});
    }

    // Fresh measurement of every client, then one AR(1) step so the
    // re-matched slots fly through a channel that has again drifted.
    if (faults_->config().channel_faults()) {
      for (std::size_t c = 0; c < records_.size(); ++c) {
        records_[c].estimate =
            faults_->true_rss(clients_[c].rss, static_cast<int>(c));
      }
      faults_->advance_epoch();
      for (std::size_t c = 0; c < records_.size(); ++c) {
        records_[c].truth =
            faults_->true_rss(clients_[c].rss, static_cast<int>(c));
      }
    }

    pairable_.clear();
    pairable_.reserve(residual_.size());
    solo_.clear();
    solo_.reserve(residual_.size());
    for (const int client : residual_) {
      ClientRecord& r = records_[static_cast<std::size_t>(client)];
      if (r.failures >= config_->recovery.demote_after_failures) {
        if (!r.demoted) {
          r.demoted = true;
          ++telemetry_.client_demotions;
          if (sink_ != nullptr) {
            sink_->instant("client_demotion", now_us(), client + 1,
                           {{"failures", std::to_string(r.failures)}});
          }
        }
        solo_.push_back(client);
      } else {
        pairable_.push_back(client);
      }
    }

    round_slots_.clear();
    if (pairable_.size() >= 2) {
      core::SchedulerOptions options = config_->recovery.rematch_options;
      options.packet_bits = config_->packet_bits;
      budgets_.clear();
      budgets_.reserve(pairable_.size());
      for (const int client : pairable_) {
        budgets_.push_back(channel::LinkBudget{
            records_[static_cast<std::size_t>(client)].estimate, noise_});
      }
      const core::Schedule rematched =
          core::schedule_upload(budgets_, *adapter_, options);
      margin_db_ = options.admission_margin_db.value();
      for (const auto& s : rematched.slots) {
        RunSlot rs;
        rs.first = pairable_[static_cast<std::size_t>(s.first)];
        rs.second =
            s.second >= 0 ? pairable_[static_cast<std::size_t>(s.second)] : -1;
        rs.mode = s.second < 0 ? core::PairMode::kSolo : s.plan.mode;
        rs.planned_weaker_scale = s.plan.weaker_power_scale;
        rs.use_planned_scale = true;
        round_slots_.push_back(rs);
      }
    } else {
      for (const int client : pairable_) solo_.push_back(client);
    }
    std::sort(solo_.begin(), solo_.end());
    for (const int client : solo_) {
      RunSlot rs;
      rs.first = client;
      rs.mode = core::PairMode::kSolo;
      round_slots_.push_back(rs);
    }
    round_open_ = true;
    round_start_us_ = now_us();
    return true;
  }

  [[nodiscard]] double now_us() const { return to_seconds(now_) * 1e6; }

  /// Emits the span of the round in flight (planned round 0 or a re-match
  /// round) onto the executor track; safe to call when no round is open.
  void close_round_span(const char* outcome) {
    if (!round_open_) return;
    round_open_ = false;
    if (sink_ != nullptr) {
      sink_->complete("round", round_start_us_,
                      now_us() - round_start_us_, executor_tid_,
                      {{"round", std::to_string(rounds_)},
                       {"outcome", outcome}});
    }
  }

  std::span<const channel::LinkBudget> clients_;
  const phy::RateAdapter* adapter_;
  const UploadSimConfig* config_;
  FaultModel* faults_;
  phy::SicDecoder decoder_;
  double margin_db_;
  Milliwatts noise_;

  std::vector<ClientRecord> records_;  ///< indexed like clients_
  std::vector<std::uint64_t> unrecovered_per_client_;
  std::vector<RunSlot> round_slots_;
  /// end_round() scratch, reused by every round of the run.
  std::vector<int> residual_;
  std::vector<int> pairable_;
  std::vector<int> solo_;
  std::vector<channel::LinkBudget> budgets_;
  int rounds_ = 0;
  FailureTelemetry telemetry_;

  /// The air and the AP: the time of the last event run, when the AP's
  /// next ACK may start at the earliest, and what it has received.
  SimTime now_ = 0;
  SimTime ack_ready_ = 0;
  MediumStats medium_;
  std::uint64_t data_received_ = 0;
  std::uint64_t duplicates_ = 0;

  /// Pure observers — write-only from the simulation's point of view.
  obs::TraceSink* sink_;
  int executor_tid_;
  bool round_open_ = false;
  double round_start_us_ = 0.0;
  double slot_start_us_ = 0.0;
};

}  // namespace

UploadSimResult run_scheduled_upload(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, const core::Schedule& schedule,
    const UploadSimConfig& config) {
  (void)shared_noise_floor(clients);
  FaultModel faults{config.faults, static_cast<int>(clients.size()),
                    config.seed};
  if (obs::TraceSink* sink = obs::trace()) {
    name_trace_tracks(*sink, clients.size(),
                      static_cast<int>(clients.size()) + 1);
  }
  ClosedLoopRunner runner{clients, adapter, schedule, config, faults};
  runner.run();
  runner.finalize();

  UploadSimResult result;
  std::uint64_t offered = 0;
  for (const auto& slot : schedule.slots) {
    offered += slot.second >= 0 ? 2 : 1;
  }
  result.offered = offered;
  runner.move_results_into(result);
  result.retries = result.failures.retransmissions;
  result.drops = result.failures.unrecovered;
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("mac.upload.runs").inc();
    reg->counter("mac.upload.offered").inc(result.offered);
    reg->counter("mac.upload.delivered").inc(result.delivered);
    reg->histogram("mac.upload.completion_s").observe(result.completion_s);
    publish_failure_telemetry(*reg, result.failures);
    publish_medium_stats(*reg, result.medium);
  }
  SIC_LOG_INFO(
      "scheduled upload: %zu clients, %llu/%llu delivered, "
      "%llu retransmissions, %llu unrecovered, %.3f s",
      clients.size(), static_cast<unsigned long long>(result.delivered),
      static_cast<unsigned long long>(result.offered),
      static_cast<unsigned long long>(result.failures.retransmissions),
      static_cast<unsigned long long>(result.failures.unrecovered),
      result.completion_s);
  return result;
}

}  // namespace sic::mac
