#ifndef SICMAC_TRACE_IO_HPP
#define SICMAC_TRACE_IO_HPP

/// \file io.hpp
/// CSV serialization of RSSI traces. Format (header included):
///
///   timestamp_s,ap_id,client_id,rssi_dbm
///
/// One row per observation; a snapshot with no observations is one row
/// `timestamp_s,,,`, so it survives the round trip.
///
/// A real building trace post-processed to the paper's snapshot form would
/// be loaded through the same reader, which is the point of the exercise —
/// the evaluation pipeline is byte-for-byte agnostic to whether the trace
/// is synthetic.

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace/snapshot.hpp"

namespace sic::trace {

/// The trace file could not be opened / accessed (environment problem, not
/// content). Derives from std::runtime_error so existing catch sites and
/// tests keep working; the CLI maps it to its own exit code.
class TraceIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The trace file opened fine but its content is not a valid trace CSV.
/// The message always carries the 1-based line number and the offending
/// line verbatim.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void write_csv(const RssiTrace& trace, std::ostream& os);
void write_csv_file(const RssiTrace& trace, const std::string& path);

/// Parses a trace. Tolerates CRLF line endings, trailing spaces/tabs, and
/// blank or whitespace-only lines; anything else malformed throws
/// TraceFormatError naming the line. Snapshots are keyed by timestamp;
/// rows may arrive in any order.
[[nodiscard]] RssiTrace read_csv(std::istream& is);
[[nodiscard]] RssiTrace read_csv_file(const std::string& path);

}  // namespace sic::trace

#endif  // SICMAC_TRACE_IO_HPP
