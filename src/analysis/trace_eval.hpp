#ifndef SICMAC_ANALYSIS_TRACE_EVAL_HPP
#define SICMAC_ANALYSIS_TRACE_EVAL_HPP

/// \file trace_eval.hpp
/// The Section 7 trace-driven evaluations.
///
/// Upload (Fig. 13): for every (snapshot, AP) with at least two backlogged
/// clients, compare the serial upload time against the SIC-aware schedule
/// (link pairing), pairing + power control, and pairing + multirate
/// packetization; report the per-cell gain samples.
///
/// Download (Fig. 14): for pairs of AP→client links drawn from a
/// measurement campaign, report the SIC gain with and without packet
/// packing, under (a) arbitrary Shannon bitrates and (b) the discrete
/// 802.11g rate set.

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"
#include "phy/rate_adapter.hpp"
#include "trace/link_trace.hpp"
#include "trace/snapshot.hpp"
#include "util/units.hpp"

namespace sic::analysis {

struct UploadTraceGains {
  std::vector<double> pairing;        ///< SIC-aware pairing alone
  std::vector<double> power_control;  ///< pairing + Section 5.2
  std::vector<double> multirate;      ///< pairing + Section 5.3
  std::vector<double> greedy_pairing; ///< ablation: greedy instead of blossom
  int cells_evaluated = 0;            ///< (snapshot, AP) cells with >= 2 clients
};

struct UploadTraceEvalConfig {
  double packet_bits = 12000.0;
  static constexpr Dbm noise_floor{-94.0};
  int min_clients = 2;
  /// Safety cap per cell (O(n²) pair costs).
  static constexpr int max_clients = 30;
  /// Worker threads for the (snapshot, AP) cell cross product (0 = all
  /// hardware threads). Results are bit-identical for any value — cells
  /// are evaluated index-addressed on the parallel engine.
  int threads = 1;
};

[[nodiscard]] UploadTraceGains evaluate_upload_trace(
    const trace::RssiTrace& trace, const phy::RateAdapter& adapter,
    const UploadTraceEvalConfig& config = {});

struct DownloadTraceGains {
  std::vector<double> plain;    ///< SIC without packing
  std::vector<double> packing;  ///< SIC with packet packing
};

struct DownloadTraceEvalConfig {
  double packet_bits = 12000.0;
  /// Number of random link-pair scenarios to draw; the full cross product
  /// is ~10⁵ for the default campaign, so sampling keeps benches snappy
  /// without changing the CDF.
  int pair_samples = 5000;
  /// Scenarios pair arbitrary AP→client links, as in the paper's campaign
  /// ("we compute the relative throughput gain with SIC for each scenario
  /// of two transmitter-receiver (AP-client) pairs"), but a scenario is
  /// only valid if both serving links actually work: the measured best-
  /// bitrate methodology presupposes a link sustaining the base rate. This
  /// floor (just above 802.11g's 6 Mbps threshold) encodes that.
  static constexpr Decibels min_link_snr{6.5};
  std::uint64_t seed = 7;
  /// Worker threads for the scenario sweep (0 = all hardware threads).
  /// Each scenario draws from the counter-based substream
  /// Rng::at(seed, scenario), so results are bit-identical for any value.
  int threads = 1;
};

[[nodiscard]] DownloadTraceGains evaluate_download_trace(
    const trace::LinkTrace& trace, const phy::RateAdapter& adapter,
    const DownloadTraceEvalConfig& config = {});

}  // namespace sic::analysis

#endif  // SICMAC_ANALYSIS_TRACE_EVAL_HPP
