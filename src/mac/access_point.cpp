#include "mac/access_point.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sic::mac {

AccessPoint::AccessPoint(EventQueue& queue, Medium& medium, MacNodeId id)
    : queue_(&queue),
      medium_(&medium),
      id_(id),
      per_source_(static_cast<std::size_t>(medium.n_nodes()), 0) {
  ack_backlog_.reserve(2);  // the two ACKs of an SIC pair
  medium_->attach(id_, this);
}

std::uint64_t AccessPoint::received_from(MacNodeId src) const {
  SIC_CHECK(src >= 0 && src < static_cast<MacNodeId>(per_source_.size()));
  return per_source_[static_cast<std::size_t>(src)];
}

void AccessPoint::on_frame_received(const Frame& frame, bool decoded) {
  if (!decoded) return;
  if (frame.type == FrameType::kRts) {
    // Grant the reservation: CTS after SIFS, NAV shortened by the CTS
    // exchange itself.
    const PhyParams& phy = medium_->phy();
    Frame cts;
    cts.id = (static_cast<std::uint64_t>(id_) << 48) | frame.id;
    cts.type = FrameType::kCts;
    cts.src = id_;
    cts.dst = frame.src;
    cts.payload_bits = phy.cts_bits;
    cts.acked_frame_id = frame.id;
    cts.nav_duration_ns = std::max<std::int64_t>(
        0, frame.nav_duration_ns - phy.sifs - phy.cts_duration());
    ack_backlog_.push_back(cts);
    pump_acks();
    return;
  }
  if (frame.type != FrameType::kData) return;
  ++stats_.data_received;
  if (frame.src >= 0 &&
      frame.src < static_cast<MacNodeId>(per_source_.size())) {
    ++per_source_[static_cast<std::size_t>(frame.src)];
  }
  Frame ack;
  ack.id = (static_cast<std::uint64_t>(id_) << 48) | frame.id;
  ack.type = FrameType::kAck;
  ack.src = id_;
  ack.dst = frame.src;
  ack.payload_bits = medium_->phy().ack_bits;
  ack.acked_frame_id = frame.id;
  ack_backlog_.push_back(ack);
  pump_acks();
}

void AccessPoint::pump_acks() {
  if (ack_scheduled_ || ack_backlog_.empty()) return;
  const PhyParams& phy = medium_->phy();
  const SimTime at =
      std::max(queue_->now() + phy.sifs, next_ack_ready_ + phy.sifs);
  ack_scheduled_ = true;
  queue_->schedule_at(at, [this] {
    ack_scheduled_ = false;
    if (ack_backlog_.empty()) return;
    if (medium_->is_transmitting(id_)) {
      // Previous ACK still on air; retry after it ends.
      pump_acks();
      return;
    }
    if (medium_->carrier_busy(id_) || medium_->is_receiving(id_)) {
      // An SIC-capable AP defers its ACK while it is still receiving
      // another (cancellable) frame — transmitting now would both violate
      // half duplex and stomp the weaker signal's tail (the ACK-timing
      // issue [4] discusses). The is_receiving check matters for frames
      // too weak to trip energy detection but strong enough to decode
      // after cancellation. Retry one slot later.
      next_ack_ready_ = queue_->now() + medium_->phy().slot;
      pump_acks();
      return;
    }
    // The backlog is a frame or two deep: popping the front by erase
    // keeps its capacity for the next ACK.
    const Frame ack = ack_backlog_.front();
    ack_backlog_.erase(ack_backlog_.begin());
    medium_->transmit(ack, medium_->phy().ack_rate);
    next_ack_ready_ =
        queue_->now() + medium_->frame_duration(ack, medium_->phy().ack_rate);
    ++stats_.acks_sent;
    if (!ack_backlog_.empty()) pump_acks();
  });
}

}  // namespace sic::mac
