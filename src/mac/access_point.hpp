#ifndef SICMAC_MAC_ACCESS_POINT_HPP
#define SICMAC_MAC_ACCESS_POINT_HPP

/// \file access_point.hpp
/// The upload-side AP: receives data frames (possibly two at once via the
/// medium's SIC receiver model) and returns ACKs after SIFS, serializing
/// back-to-back ACKs when a collision yielded two decodes. Its per-frame
/// book-keeping lives in flat buffers reused from frame to frame, so a
/// frame allocates nothing once they have grown.

#include <cstdint>
#include <vector>

#include "mac/event_queue.hpp"
#include "mac/medium.hpp"

namespace sic::mac {

struct ApStats {
  std::uint64_t data_received = 0;
  std::uint64_t acks_sent = 0;
};

class AccessPoint : public MediumListener {
 public:
  AccessPoint(EventQueue& queue, Medium& medium, MacNodeId id);

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  [[nodiscard]] const ApStats& stats() const { return stats_; }
  [[nodiscard]] MacNodeId id() const { return id_; }

  /// Frames received per source station.
  [[nodiscard]] std::uint64_t received_from(MacNodeId src) const;

  void on_frame_received(const Frame& frame, bool decoded) override;

 private:
  void pump_acks();

  EventQueue* queue_;
  Medium* medium_;
  MacNodeId id_;
  std::vector<Frame> ack_backlog_;  ///< queued ACK/CTS frames, send order
  SimTime next_ack_ready_ = 0;
  bool ack_scheduled_ = false;
  ApStats stats_;
  std::vector<std::uint64_t> per_source_;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_ACCESS_POINT_HPP
