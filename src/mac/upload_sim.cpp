#include "mac/upload_sim.hpp"

#include <algorithm>
#include <memory>

#include <string>

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

/// Builds the medium for one AP + n clients from their AP-side budgets.
/// Client-to-client gains come from the configured mutual SNR.
std::unique_ptr<Medium> build_medium(EventQueue& queue,
                                     std::span<const channel::LinkBudget> clients,
                                     const phy::RateAdapter& adapter,
                                     const UploadSimConfig& config) {
  SIC_CHECK(!clients.empty());
  const Milliwatts noise = clients.front().noise;
  for (const auto& c : clients) {
    SIC_CHECK_MSG(c.noise == noise, "clients must share the AP noise floor");
  }
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

/// Closed-loop executor of a Section 6 schedule. Each slot transmits
/// exactly as the open-loop runner did; the slot's completion event then
/// confirms every participating frame against the AP's receive counters
/// and drives the recovery ladder of RecoveryConfig. With no injected
/// faults every confirmation succeeds on the first attempt and the event
/// timeline (hence every result field) is identical to the open-loop
/// executor this replaced.
class ClosedLoopRunner {
 public:
  ClosedLoopRunner(EventQueue& queue, Medium& medium, AccessPoint& ap,
                   std::span<const channel::LinkBudget> clients,
                   const phy::RateAdapter& adapter,
                   const core::Schedule& schedule,
                   const UploadSimConfig& config, FaultModel& faults)
      : queue_(&queue),
        medium_(&medium),
        ap_(&ap),
        clients_(clients),
        adapter_(&adapter),
        config_(&config),
        faults_(&faults),
        margin_db_(schedule.admission_margin_db.value()),
        noise_(clients.front().noise),
        sink_(obs::trace()),
        executor_tid_(static_cast<int>(clients.size()) + 1) {
    const std::size_t n = clients.size();
    records_.reserve(n);
    for (const auto& c : clients_) records_.push_back(ClientRecord{c.rss});
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

  void start() {
    round_open_ = true;
    round_start_us_ = now_us();
    run_slot(0);
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
    result.failures = std::move(telemetry_);
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
    int pending = 0;            ///< unconfirmed frames
    int attempts = 0;           ///< transmissions
    int failures = 0;           ///< failed exchanges
    bool dropped = false;       ///< gave up on this client
    bool demoted = false;       ///< barred from pairing
    std::uint64_t ap_seen = 0;  ///< AP receive counter last seen
    FailCause last_cause = FailCause::kNone;  ///< most recent failure
  };

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

  /// Transmits one data frame; zero-rate links (a discrete adapter below
  /// its lowest threshold) skip the air entirely and fail at confirmation.
  SimTime send(int client, BitsPerSecond rate, double scale,
               double bits, bool final_fragment) {
    if (rate.value() <= 0.0) return 0;
    Frame f;
    f.id = frame_id(client);
    f.type = FrameType::kData;
    f.src = client + 1;
    f.dst = kApId;
    f.payload_bits = bits;
    f.final_fragment = final_fragment;
    medium_->transmit(f, rate, scale);
    return medium_->frame_duration(f, rate);
  }

  void note_attempt(int client) {
    ClientRecord& r = records_[static_cast<std::size_t>(client)];
    ++r.attempts;
    if (r.attempts > 1) ++telemetry_.retransmissions;
  }

  void run_slot(std::size_t index) {
    if (index >= round_slots_.size()) {
      end_round();
      return;
    }
    slot_start_us_ = now_us();
    // Copy: retry slots appended below may reallocate round_slots_.
    const RunSlot slot = round_slots_[index];
    const PhyParams& phy = medium_->phy();
    const double bits = config_->packet_bits;
    SimTime span = 0;

    note_attempt(slot.first);
    if (slot.second >= 0) note_attempt(slot.second);

    int acks = 1;
    switch (slot.mode) {
      case core::PairMode::kSolo:
        span = send(slot.first, clean_rate(slot.first), 1.0, bits, true);
        break;
      case core::PairMode::kSerial: {
        // First packet now; the second after the first's ACK turnaround.
        const SimTime t1 =
            send(slot.first, clean_rate(slot.first), 1.0, bits, true);
        const SimTime gap = t1 + phy.sifs + phy.ack_duration() + phy.sifs;
        tail_client_ = slot.second;
        tail_bits_ = bits;
        queue_->schedule_after(gap, [this, index] { send_tail(index); });
        return;  // send_tail handles the slot completion
      }
      case core::PairMode::kSicMultirate: {
        SIC_CHECK(slot.second >= 0);
        const auto [strong, weak] = strong_weak(slot);
        const auto ctx = pair_ctx(slot.first, slot.second);
        const auto mr = core::multirate_airtime_detailed(ctx);
        if (!mr.boosted) {
          // Nothing to boost; run as a plain SIC pair.
          const auto rates = core::sic_rates(ctx);
          const SimTime ts = send(strong, rates.stronger, 1.0, bits, true);
          const SimTime tw = send(weak, rates.weaker, 1.0, bits, true);
          span = std::max(ts, tw);
          acks = 2;
          break;
        }
        // Fragment 1 of the stronger packet rides the overlap at the
        // interference-limited rate; the weaker packet runs in full.
        const auto rates = core::sic_rates(ctx);
        SimTime overlap_span = send(weak, rates.weaker, 1.0, bits, true);
        if (mr.overlap_bits > 0.0) {
          overlap_span = std::max(
              overlap_span,
              send(strong, rates.stronger, 1.0, mr.overlap_bits, false));
        }
        // After the overlap and the weaker packet's ACK turnaround, the
        // stronger client boosts the remainder to its clean rate.
        tail_client_ = strong;
        tail_bits_ = std::max(0.0, bits - mr.overlap_bits);
        const SimTime gap =
            overlap_span + phy.sifs + phy.ack_duration() + phy.sifs;
        queue_->schedule_after(gap, [this, index] { send_tail(index); });
        return;  // send_tail handles the slot completion
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
        const SimTime ts = send(strong, rates.stronger, 1.0, bits, true);
        const SimTime tw = send(weak, rates.weaker, scale, bits, true);
        span = std::max(ts, tw);
        acks = 2;
        break;
      }
    }
    const SimTime turnaround =
        span + phy.sifs + acks * (phy.ack_duration() + phy.sifs);
    queue_->schedule_after(turnaround, [this, index] { finish_slot(index); });
  }

  /// Second half of a serial or multirate slot: tail_client_ sends
  /// tail_bits_ at its clean rate, then the slot completes after the ACK
  /// turnaround. The tail lives in members, not in the event's captures,
  /// so the callbacks stay two words (see mac/event_queue.hpp); one slot
  /// is on the air at a time, so one tail suffices.
  void send_tail(std::size_t index) {
    const SimTime t =
        send(tail_client_, clean_rate(tail_client_), 1.0, tail_bits_, true);
    const PhyParams& p = medium_->phy();
    queue_->schedule_after(t + p.sifs + p.ack_duration() + p.sifs,
                           [this, index] { finish_slot(index); });
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
    run_slot(index + 1);
  }

  CheckOutcome check_client(int client) {
    const std::size_t c = static_cast<std::size_t>(client);
    ClientRecord& r = records_[c];
    if (r.pending <= 0) return CheckOutcome::kConfirmed;
    const std::uint64_t total = ap_->received_from(client + 1);
    const std::uint64_t delta = total - r.ap_seen;
    r.ap_seen = total;
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
  /// re-match the residual backlog.
  void end_round() {
    residual_.clear();
    residual_.reserve(records_.size());
    for (std::size_t c = 0; c < records_.size(); ++c) {
      if (records_[c].pending > 0) residual_.push_back(static_cast<int>(c));
    }
    close_round_span(residual_.empty() ? "drained" : "residual");
    if (residual_.empty()) return;  // all confirmed or dropped: drain
    SIC_LOG_DEBUG("round %d ends with %zu residual clients", rounds_,
                  residual_.size());
    if (!config_->recovery.enabled ||
        rounds_ >= config_->recovery.max_rematch_rounds) {
      for (const int client : residual_) {
        const std::size_t c = static_cast<std::size_t>(client);
        give_up(c);
        records_[c].dropped = true;
      }
      return;
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
        medium_->set_gain(kApId, static_cast<int>(c) + 1,
                          faults_->true_rss(clients_[c].rss,
                                            static_cast<int>(c)));
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
    run_slot(0);
  }

  [[nodiscard]] double now_us() const {
    return to_seconds(queue_->now()) * 1e6;
  }

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

  EventQueue* queue_;
  Medium* medium_;
  AccessPoint* ap_;
  std::span<const channel::LinkBudget> clients_;
  const phy::RateAdapter* adapter_;
  const UploadSimConfig* config_;
  FaultModel* faults_;
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
  int tail_client_ = -1;    ///< sender of the in-flight slot's second half
  double tail_bits_ = 0.0;  ///< and its payload
  FailureTelemetry telemetry_;

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
  EventQueue queue;
  auto medium = build_medium(queue, clients, adapter, config);
  AccessPoint ap{queue, *medium, kApId};
  FaultModel faults{config.faults, static_cast<int>(clients.size()),
                    config.seed};
  if (config.faults.channel_faults()) {
    // The schedule was planned on the nominal (stale) RSS; the packets fly
    // through the drifted channel.
    for (int i = 0; i < static_cast<int>(clients.size()); ++i) {
      medium->set_gain(kApId, i + 1,
                       faults.true_rss(
                           clients[static_cast<std::size_t>(i)].rss, i));
    }
  }
  if (config.faults.cancellation_failure_prob > 0.0) {
    medium->set_decode_fault_hook([&faults](const Frame& f, bool sic_path) {
      return faults.should_fail_decode(f, sic_path);
    });
  }
  if (obs::TraceSink* sink = obs::trace()) {
    name_trace_tracks(*sink, clients.size(),
                      static_cast<int>(clients.size()) + 1);
  }
  ClosedLoopRunner runner{queue,   *medium,  ap,     clients,
                          adapter, schedule, config, faults};
  runner.start();
  queue.run_until(config.horizon);
  runner.finalize();

  UploadSimResult result;
  std::uint64_t offered = 0;
  for (const auto& slot : schedule.slots) {
    offered += slot.second >= 0 ? 2 : 1;
  }
  result.offered = offered;
  result.delivered = ap.stats().data_received;
  result.completion_s = to_seconds(queue.now());
  result.medium = medium->stats();
  runner.move_results_into(result);
  result.failures.duplicate_deliveries = ap.stats().duplicate_data;
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
