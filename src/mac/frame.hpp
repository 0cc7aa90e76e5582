#ifndef SICMAC_MAC_FRAME_HPP
#define SICMAC_MAC_FRAME_HPP

/// \file frame.hpp
/// MAC frames carried by the simulated medium.

#include <cstdint>

namespace sic::mac {

using MacNodeId = int;

enum class FrameType : std::uint8_t {
  kData,
  kAck,
  kRts,
  kCts,
};

struct Frame {
  std::uint64_t id = 0;
  FrameType type = FrameType::kData;
  MacNodeId src = -1;
  MacNodeId dst = -1;
  double payload_bits = 0.0;
  /// For ACKs: the data frame being acknowledged.
  std::uint64_t acked_frame_id = 0;
  /// Virtual-carrier-sense reservation (RTS/CTS): overhearers defer this
  /// long past the frame's end. 0 = no reservation.
  std::int64_t nav_duration_ns = 0;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_FRAME_HPP
