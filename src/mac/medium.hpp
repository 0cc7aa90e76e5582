#ifndef SICMAC_MAC_MEDIUM_HPP
#define SICMAC_MAC_MEDIUM_HPP

/// \file medium.hpp
/// The broadcast medium of the discrete-event simulator. It tracks ongoing
/// transmissions, answers carrier-sense queries, and — when a transmission
/// ends — decides what its destination decoded, using the same analytic
/// SIC receiver model (phy::SicDecoder) as the closed-form analysis. Up to
/// one interferer is cancellable (the paper's two-signal restriction); any
/// denser pile-up is a loss.
///
/// The verdict rule (decode_verdict), its counters (MediumStats::record)
/// and the per-frame report (report_frame) are free functions: the
/// scheduled-upload executor, which walks each slot's fixed timeline
/// without a medium, decodes and reports its frames through them too.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mac/event_queue.hpp"
#include "mac/frame.hpp"
#include "mac/phy_params.hpp"
#include "phy/rate_adapter.hpp"
#include "phy/sic_decoder.hpp"
#include "util/units.hpp"

namespace sic::mac {

/// Nodes observe the medium through this interface.
class MediumListener {
 public:
  virtual ~MediumListener() = default;

  /// Some transmission started or ended; carrier-sense state may have
  /// changed anywhere.
  virtual void on_channel_update() {}

  /// A frame addressed to this node finished. \p decoded reflects the SIC
  /// receiver model's verdict.
  virtual void on_frame_received(const Frame& frame, bool decoded) {
    (void)frame;
    (void)decoded;
  }

  /// A frame addressed to *someone else* finished and this node could
  /// decode it (same receiver model) — the overhearing path that feeds the
  /// RTS/CTS virtual carrier sense.
  virtual void on_frame_overheard(const Frame& frame) { (void)frame; }
};

/// What a receiver made of one frame.
enum class DecodeVerdict : std::uint8_t {
  kCleanOk,
  kCaptureOk,
  kSicOk,
  kFailClean,
  kFailCollision,
  kFailHalfDuplex,
  kFailNoDestination,
};

[[nodiscard]] const char* to_string(DecodeVerdict v);

[[nodiscard]] constexpr bool decoded(DecodeVerdict v) {
  return v == DecodeVerdict::kCleanOk || v == DecodeVerdict::kCaptureOk ||
         v == DecodeVerdict::kSicOk;
}

/// One signal at a receiver: its power there and the rate its sender
/// chose.
struct Arrival {
  Milliwatts rss;
  BitsPerSecond rate;
};

/// The receiver model's verdict on \p frame with at most one interferer
/// (nullptr: none). Alone, it decodes iff its rate is feasible at S/N; as
/// the stronger of two, by capture at S/(I+N); as the weaker, through
/// \p decoder's cancellation chain.
[[nodiscard]] DecodeVerdict decode_verdict(const phy::RateAdapter& adapter,
                                           const phy::SicDecoder& decoder,
                                           Milliwatts noise, Arrival frame,
                                           const Arrival* interferer);

/// Reports one ended transmission: a debug log line and, with a trace
/// sink attached, a span on the sender's track annotated with the verdict
/// at its destination and its interferer count.
void report_frame(const Frame& frame, BitsPerSecond rate, SimTime start,
                  SimTime end, DecodeVerdict verdict, std::size_t interferers);

struct MediumStats {
  std::uint64_t transmissions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed_clean = 0;     ///< failed with no interference
  std::uint64_t failed_collision = 0; ///< failed with >= 1 interferer
  std::uint64_t sic_decodes = 0;      ///< weaker-signal successes via SIC
  std::uint64_t capture_decodes = 0;  ///< stronger-signal successes under
                                      ///< interference
  /// SIC successes the scheduled executor's fault model turned into
  /// failures (counted under failed_collision as well).
  std::uint64_t injected_failures = 0;

  /// Counts one destination verdict.
  void record(DecodeVerdict v);
};

class Medium {
 public:
  /// \p adapter and \p queue must outlive the medium.
  Medium(EventQueue& queue, int n_nodes, Milliwatts noise,
         const phy::RateAdapter& adapter,
         phy::SicDecoderConfig decoder_config = {});

  /// Symmetric channel gain: RSS of \p tx at \p rx at full power (and vice
  /// versa).
  void set_gain(MacNodeId tx, MacNodeId rx, Milliwatts rss);

  /// Sets the gain between every pair of distinct nodes to \p rss in one
  /// pass — the bulk form of set_gain for a medium whose links are mostly
  /// alike; override the exceptions with set_gain afterwards.
  void fill_gains(Milliwatts rss);

  [[nodiscard]] Milliwatts gain(MacNodeId tx, MacNodeId rx) const;
  [[nodiscard]] Milliwatts noise() const { return noise_; }
  [[nodiscard]] int n_nodes() const { return n_nodes_; }

  /// Registers the listener for \p node (frames addressed to it + channel
  /// updates). Pass nullptr to detach. Listeners are notified in node
  /// order, and only attached nodes are walked, so a medium with one
  /// listener pays O(1) per frame whatever its node count. A listener may
  /// call transmit() from any notification, but not attach().
  void attach(MacNodeId node, MediumListener* listener);

  /// Carrier sense at \p node: true when it is itself transmitting or any
  /// ongoing foreign transmission arrives at least phy().cs_above_noise
  /// over the noise floor.
  [[nodiscard]] bool carrier_busy(MacNodeId node) const;

  [[nodiscard]] bool is_transmitting(MacNodeId node) const;

  /// True while any ongoing transmission is addressed to \p node — the
  /// node's own demodulator state, which it knows regardless of whether
  /// the signal clears the energy-detect threshold.
  [[nodiscard]] bool is_receiving(MacNodeId node) const;

  /// Starts a transmission; duration = preamble + bits/rate. The frame is
  /// evaluated for decoding at frame.dst when it ends. \p power_scale
  /// models Section 5.2 power reduction. Once the medium's buffers have
  /// grown to the run's peak concurrency, a transmission allocates
  /// nothing.
  void transmit(const Frame& frame, BitsPerSecond rate,
                double power_scale = 1.0);

  [[nodiscard]] SimTime frame_duration(const Frame& frame,
                                       BitsPerSecond rate) const;

  [[nodiscard]] const MediumStats& stats() const { return stats_; }
  [[nodiscard]] const PhyParams& phy() const { return phy_; }

 private:
  struct Transmission {
    std::uint64_t key;
    Frame frame;
    BitsPerSecond rate;
    double power_scale;
    SimTime start;
    SimTime end;
  };
  /// Two transmissions that were on the air together at some instant.
  struct Overlap {
    std::uint64_t a;
    std::uint64_t b;
  };

  void finish(std::uint64_t key);
  [[nodiscard]] const Transmission& find_tx(std::uint64_t key) const;
  void notify_channel_update();

  EventQueue* queue_;
  int n_nodes_;
  Milliwatts noise_;
  const phy::RateAdapter* adapter_;
  phy::SicDecoder decoder_;
  PhyParams phy_;
  std::vector<Milliwatts> gains_;
  std::vector<MediumListener*> listeners_;
  /// Nodes with a listener, ascending.
  std::vector<MacNodeId> attached_;
  std::vector<Transmission> active_;
  /// Ended transmissions kept while they overlap an active one (whose
  /// decode still needs them).
  std::vector<Transmission> recent_;
  /// Every overlap with at least one active end.
  std::vector<Overlap> overlaps_;
  /// Scratch of finish(): attached nodes that overheard the frame.
  std::vector<MacNodeId> overhearers_;
  MediumStats stats_;
  std::uint64_t next_key_ = 1;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_MEDIUM_HPP
