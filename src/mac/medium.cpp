#include "mac/medium.hpp"

#include <algorithm>

#include "obs/logger.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"

namespace sic::mac {

Medium::Medium(EventQueue& queue, int n_nodes, Milliwatts noise,
               const phy::RateAdapter& adapter,
               phy::SicDecoderConfig decoder_config)
    : queue_(&queue),
      n_nodes_(n_nodes),
      noise_(noise),
      adapter_(&adapter),
      decoder_(adapter, decoder_config),
      gains_(static_cast<std::size_t>(n_nodes) * n_nodes, Milliwatts{0.0}),
      listeners_(static_cast<std::size_t>(n_nodes), nullptr) {
  SIC_CHECK(n_nodes >= 1);
  SIC_CHECK(noise.value() > 0.0);
  // Room for an SIC pair and its ACKs before any buffer has to grow.
  active_.reserve(4);
  recent_.reserve(4);
  overlaps_.reserve(4);
}

void Medium::set_gain(MacNodeId tx, MacNodeId rx, Milliwatts rss) {
  SIC_CHECK(tx >= 0 && tx < n_nodes_ && rx >= 0 && rx < n_nodes_ && tx != rx);
  gains_[static_cast<std::size_t>(tx) * n_nodes_ + rx] = rss;
  gains_[static_cast<std::size_t>(rx) * n_nodes_ + tx] = rss;
}

void Medium::fill_gains(Milliwatts rss) {
  std::fill(gains_.begin(), gains_.end(), rss);
  for (int n = 0; n < n_nodes_; ++n) {
    gains_[static_cast<std::size_t>(n) * n_nodes_ + n] = Milliwatts{0.0};
  }
}

Milliwatts Medium::gain(MacNodeId tx, MacNodeId rx) const {
  SIC_DCHECK(tx >= 0 && tx < n_nodes_ && rx >= 0 && rx < n_nodes_);
  return gains_[static_cast<std::size_t>(tx) * n_nodes_ + rx];
}

void Medium::attach(MacNodeId node, MediumListener* listener) {
  SIC_CHECK(node >= 0 && node < n_nodes_);
  listeners_[static_cast<std::size_t>(node)] = listener;
  const auto it = std::lower_bound(attached_.begin(), attached_.end(), node);
  const bool listed = it != attached_.end() && *it == node;
  if (listener != nullptr && !listed) attached_.insert(it, node);
  if (listener == nullptr && listed) attached_.erase(it);
}

bool Medium::carrier_busy(MacNodeId node) const {
  const Milliwatts floor = noise_ * phy_.cs_above_noise.linear();
  for (const auto& t : active_) {
    if (t.frame.src == node) return true;  // own transmission
    const Milliwatts rss = gain(t.frame.src, node) * t.power_scale;
    if (rss >= floor) return true;
  }
  return false;
}

bool Medium::is_transmitting(MacNodeId node) const {
  return std::any_of(active_.begin(), active_.end(), [node](const auto& t) {
    return t.frame.src == node;
  });
}

bool Medium::is_receiving(MacNodeId node) const {
  return std::any_of(active_.begin(), active_.end(), [node](const auto& t) {
    return t.frame.dst == node;
  });
}

SimTime Medium::frame_duration(const Frame& frame, BitsPerSecond rate) const {
  SIC_CHECK_MSG(rate.value() > 0.0, "cannot transmit at zero rate");
  return PhyParams::airtime(frame.payload_bits, rate);
}

void Medium::transmit(const Frame& frame, BitsPerSecond rate,
                      double power_scale) {
  SIC_CHECK(frame.src >= 0 && frame.src < n_nodes_);
  SIC_CHECK(power_scale > 0.0 && power_scale <= 1.0);
  SIC_CHECK_MSG(!is_transmitting(frame.src),
                "node is already transmitting (half duplex)");
  const SimTime start = queue_->now();
  const Transmission t{next_key_++, frame, rate, power_scale, start,
                       start + frame_duration(frame, rate)};
  for (const auto& other : active_) overlaps_.push_back({other.key, t.key});
  active_.push_back(t);
  ++stats_.transmissions;
  // Schedule before notifying: a listener may transmit reentrantly.
  queue_->schedule_at(t.end, [this, key = t.key] { finish(key); });
  notify_channel_update();
}

const Medium::Transmission& Medium::find_tx(std::uint64_t key) const {
  const auto has_key = [key](const Transmission& t) { return t.key == key; };
  const auto live = std::find_if(active_.begin(), active_.end(), has_key);
  if (live != active_.end()) return *live;
  const auto ended = std::find_if(recent_.begin(), recent_.end(), has_key);
  SIC_CHECK_MSG(ended != recent_.end(), "interferer transmission lost");
  return *ended;
}

namespace {

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "data";
    case FrameType::kAck: return "ack";
    case FrameType::kRts: return "rts";
    case FrameType::kCts: return "cts";
  }
  return "?";
}

}  // namespace

const char* to_string(DecodeVerdict v) {
  switch (v) {
    case DecodeVerdict::kCleanOk: return "clean";
    case DecodeVerdict::kCaptureOk: return "capture";
    case DecodeVerdict::kSicOk: return "sic";
    case DecodeVerdict::kFailClean: return "fail_clean";
    case DecodeVerdict::kFailCollision: return "fail_collision";
    case DecodeVerdict::kFailHalfDuplex: return "fail_half_duplex";
    case DecodeVerdict::kFailNoDestination: return "no_destination";
  }
  return "?";
}

DecodeVerdict decode_verdict(const phy::RateAdapter& adapter,
                             const phy::SicDecoder& decoder,
                             Milliwatts noise, Arrival frame,
                             const Arrival* interferer) {
  if (interferer == nullptr) {
    return adapter.feasible(frame.rate, frame.rss / noise)
               ? DecodeVerdict::kCleanOk
               : DecodeVerdict::kFailClean;
  }
  if (frame.rss >= interferer->rss) {
    return adapter.feasible(frame.rate, frame.rss / (interferer->rss + noise))
               ? DecodeVerdict::kCaptureOk
               : DecodeVerdict::kFailCollision;
  }
  const auto arrival =
      phy::TwoSignalArrival::make(interferer->rss, frame.rss, noise);
  return decoder.decode(arrival, interferer->rate, frame.rate).weaker_decoded
             ? DecodeVerdict::kSicOk
             : DecodeVerdict::kFailCollision;
}

void MediumStats::record(DecodeVerdict v) {
  switch (v) {
    case DecodeVerdict::kCleanOk: ++delivered; break;
    case DecodeVerdict::kCaptureOk:
      ++delivered;
      ++capture_decodes;
      break;
    case DecodeVerdict::kSicOk:
      ++delivered;
      ++sic_decodes;
      break;
    case DecodeVerdict::kFailClean: ++failed_clean; break;
    case DecodeVerdict::kFailHalfDuplex:
    case DecodeVerdict::kFailCollision: ++failed_collision; break;
    case DecodeVerdict::kFailNoDestination: break;
  }
}

void report_frame(const Frame& frame, BitsPerSecond rate, SimTime start,
                  SimTime end, DecodeVerdict verdict,
                  std::size_t interferers) {
  // Frame-fate diagnostics, formerly the SICMAC_MEDIUM_LOG env toggle:
  // now --log-level debug / SICMAC_LOG_LEVEL=debug.
  SIC_LOG_DEBUG(
      "medium %9.1fus %-4s src=%d dst=%d bits=%.0f rate=%.2fMbps "
      "start=%.1fus verdict=%s interferers=%zu",
      to_seconds(end) * 1e6, frame_type_name(frame.type), frame.src,
      frame.dst, frame.payload_bits, rate.megabits(),
      to_seconds(start) * 1e6, to_string(verdict), interferers);
  // Every transmission becomes a span on its sender's track, its decode
  // verdict an annotation — this is what makes a faulty round visible on
  // the Perfetto timeline.
  if (obs::TraceSink* sink = obs::trace()) {
    const double start_us = to_seconds(start) * 1e6;
    const double dur_us = to_seconds(end - start) * 1e6;
    sink->complete(frame_type_name(frame.type), start_us, dur_us, frame.src,
                   obs::TraceSink::Args{
                       {"dst", std::to_string(frame.dst)},
                       {"verdict", to_string(verdict)},
                       {"interferers", std::to_string(interferers)},
                   });
  }
}

void Medium::finish(std::uint64_t key) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [key](const auto& t) { return t.key == key; });
  SIC_CHECK(it != active_.end());
  const Transmission done = *it;
  active_.erase(it);

  const auto overlaps_done = [&done](const Overlap& o) {
    return o.a == done.key || o.b == done.key;
  };

  // Decode verdict for an arbitrary receiver — the destination and any
  // overhearers share the same receiver model.
  const auto decode_at = [&](MacNodeId receiver) -> DecodeVerdict {
    bool half_duplex_conflict = false;
    std::size_t n_interferers = 0;
    const Transmission* interferer = nullptr;
    for (const Overlap& o : overlaps_) {
      if (!overlaps_done(o)) continue;
      const Transmission& other = find_tx(o.a == done.key ? o.b : o.a);
      if (other.frame.src == receiver) {
        half_duplex_conflict = true;
      } else {
        ++n_interferers;
        interferer = &other;
      }
    }
    if (half_duplex_conflict) return DecodeVerdict::kFailHalfDuplex;
    if (n_interferers > 1) return DecodeVerdict::kFailCollision;  // pile-up
    const Arrival signal{gain(done.frame.src, receiver) * done.power_scale,
                         done.rate};
    if (interferer == nullptr) {
      return decode_verdict(*adapter_, decoder_, noise_, signal, nullptr);
    }
    const Arrival other{
        gain(interferer->frame.src, receiver) * interferer->power_scale,
        interferer->rate};
    return decode_verdict(*adapter_, decoder_, noise_, signal, &other);
  };

  DecodeVerdict verdict = DecodeVerdict::kFailNoDestination;
  const MacNodeId dst = done.frame.dst;
  if (dst >= 0 && dst < n_nodes_) verdict = decode_at(dst);
  // Overhearers: every other attached node that could decode this frame
  // (feeds virtual carrier sense / NAV).
  overhearers_.clear();
  for (const MacNodeId n : attached_) {
    if (n == dst || n == done.frame.src) continue;
    if (decoded(decode_at(n))) overhearers_.push_back(n);
  }

  report_frame(done.frame, done.rate, done.start, done.end, verdict,
               static_cast<std::size_t>(std::count_if(
                   overlaps_.begin(), overlaps_.end(), overlaps_done)));
  stats_.record(verdict);

  // An overlap is needed until both its ends have been decoded, and an
  // ended transmission only while an overlap still names it.
  recent_.push_back(done);
  const auto active = [this](std::uint64_t k) {
    return std::any_of(active_.begin(), active_.end(),
                       [k](const Transmission& t) { return t.key == k; });
  };
  std::erase_if(overlaps_, [&](const Overlap& o) {
    return !active(o.a) && !active(o.b);
  });
  std::erase_if(recent_, [this](const Transmission& r) {
    return std::none_of(overlaps_.begin(), overlaps_.end(),
                        [&r](const Overlap& o) {
                          return o.a == r.key || o.b == r.key;
                        });
  });

  if (dst >= 0 && dst < n_nodes_ && listeners_[static_cast<std::size_t>(dst)]) {
    listeners_[static_cast<std::size_t>(dst)]->on_frame_received(
        done.frame, decoded(verdict));
  }
  for (const MacNodeId n : overhearers_) {
    MediumListener* l = listeners_[static_cast<std::size_t>(n)];
    if (l != nullptr) l->on_frame_overheard(done.frame);
  }
  notify_channel_update();
}

void Medium::notify_channel_update() {
  for (const MacNodeId n : attached_) {
    listeners_[static_cast<std::size_t>(n)]->on_channel_update();
  }
}

}  // namespace sic::mac
