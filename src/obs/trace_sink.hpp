#ifndef SICMAC_OBS_TRACE_SINK_HPP
#define SICMAC_OBS_TRACE_SINK_HPP

/// \file trace_sink.hpp
/// Chrome-trace-format event sink: one JSON event object per line, inside
/// the JSON-array framing whose closing bracket the format spec makes
/// optional precisely so writers can append and crash safely. The output
/// opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing and
/// shows an upload-sim run as a timeline: rounds and slots as spans,
/// retries / mode degradations / decode failures as instant events, one
/// track (tid) per client.
///
/// Timestamps are microseconds (the format's unit). Simulator code passes
/// *sim time*; wall-clock instrumentation (SIC_SPAN) passes time since
/// process start. The two are never mixed in one file: a sink records
/// whatever timebase its writers use.
///
/// Like the metrics registry, a sink is a pure observer: it must never
/// influence simulation behavior, and all instrumented call sites treat a
/// null `obs::trace()` as "emit nothing".

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sic::obs {

class TraceSink {
 public:
  /// Key/value annotations attached to an event's "args" object. Values
  /// are emitted verbatim when they parse as plain JSON numbers and as
  /// escaped strings otherwise, so call sites can pass either.
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// Events are written to \p os as they are recorded; the stream must
  /// outlive the sink. The array-open bracket is written immediately.
  explicit TraceSink(std::ostream& os);
  /// A shard: buffers its events, without framing, until a sink append()s
  /// them. Code run on a pool worker records into a shard so the caller
  /// can keep the events in a fixed order at any thread count.
  TraceSink();
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Complete span ("ph":"X"): [ts_us, ts_us + dur_us) on track \p tid.
  void complete(std::string_view name, double ts_us, double dur_us,
                int tid = 0, const Args& args = {});

  /// Begin/end span pair ("ph":"B"/"E"); must nest properly per track.
  void begin(std::string_view name, double ts_us, int tid = 0,
             const Args& args = {});
  void end(std::string_view name, double ts_us, int tid = 0);

  /// Instant event ("ph":"i", thread scope).
  void instant(std::string_view name, double ts_us, int tid = 0,
               const Args& args = {});

  /// Names a track so the viewer shows e.g. "client 3" instead of a bare
  /// tid (metadata event "thread_name").
  void name_track(int tid, std::string_view name);

  void flush();

  /// Moves \p shard's buffered events to the end of this sink, in the
  /// order recorded, and empties \p shard.
  void append(TraceSink& shard);

  [[nodiscard]] std::uint64_t events_written() const { return events_; }

 private:
  void event(char ph, std::string_view name, double ts_us, double dur_us,
             int tid, const Args& args, bool metadata = false);

  std::ostringstream buffer_;  ///< a shard's events; unused otherwise
  std::ostream* os_;
  std::uint64_t events_ = 0;
};

/// Thread-local attach point, same contract as obs::metrics(): a sink
/// attached on one thread is invisible to others, so pool workers never
/// race on it (their spans are simply dropped — see DESIGN.md "Parallel
/// sweeps" — unless the caller attaches a shard on each worker, as the
/// deployment engine's serve phase does).
[[nodiscard]] TraceSink* trace();
TraceSink* set_trace(TraceSink* sink);

}  // namespace sic::obs

#endif  // SICMAC_OBS_TRACE_SINK_HPP
