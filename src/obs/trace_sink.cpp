#include "obs/trace_sink.hpp"

#include <cstdio>
#include <cstdlib>

namespace sic::obs {

namespace {

thread_local TraceSink* g_trace = nullptr;

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// True when \p text is already a self-contained JSON number, so arg
/// values like "3" or "2.5" stay numeric in the viewer.
bool is_json_number(std::string_view text) {
  if (text.empty()) return false;
  // strtod alone would also accept hex ("0x10"), "inf" and "nan" — none of
  // which are JSON — so restrict to the plain decimal alphabet first.
  for (const char c : text) {
    const bool plain = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                       c == '.' || c == 'e' || c == 'E';
    if (!plain) return false;
  }
  char* end = nullptr;
  const std::string owned{text};
  std::strtod(owned.c_str(), &end);
  return end == owned.c_str() + owned.size();
}

void append_number(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += buf;
}

}  // namespace

TraceSink::TraceSink(std::ostream& os) : os_(&os) {
  // JSON Array Format; the spec makes the closing ']' optional so the
  // file stays loadable even if the process dies mid-run.
  *os_ << "[\n";
}

TraceSink::TraceSink() : os_(&buffer_) {}

TraceSink::~TraceSink() { flush(); }

void TraceSink::event(char ph, std::string_view name, double ts_us,
                      double dur_us, int tid, const Args& args,
                      bool metadata) {
  std::string line;
  line.reserve(96);
  line += "{\"name\":";
  append_escaped(line, name);
  line += ",\"ph\":\"";
  line += ph;
  line += '"';
  if (!metadata) {
    line += ",\"ts\":";
    append_number(line, ts_us);
  }
  if (ph == 'X') {
    line += ",\"dur\":";
    append_number(line, dur_us);
  }
  if (ph == 'i') line += ",\"s\":\"t\"";
  line += ",\"pid\":0,\"tid\":";
  line += std::to_string(tid);
  if (!args.empty()) {
    line += ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : args) {
      if (!first) line += ',';
      first = false;
      append_escaped(line, key);
      line += ':';
      if (is_json_number(value)) {
        line += value;
      } else {
        append_escaped(line, value);
      }
    }
    line += '}';
  }
  line += "},\n";
  *os_ << line;
  ++events_;
}

void TraceSink::complete(std::string_view name, double ts_us, double dur_us,
                         int tid, const Args& args) {
  event('X', name, ts_us, dur_us, tid, args);
}

void TraceSink::begin(std::string_view name, double ts_us, int tid,
                      const Args& args) {
  event('B', name, ts_us, 0.0, tid, args);
}

void TraceSink::end(std::string_view name, double ts_us, int tid) {
  event('E', name, ts_us, 0.0, tid, {});
}

void TraceSink::instant(std::string_view name, double ts_us, int tid,
                        const Args& args) {
  event('i', name, ts_us, 0.0, tid, args);
}

void TraceSink::name_track(int tid, std::string_view name) {
  event('M', "thread_name", 0.0, 0.0, tid,
        Args{{"name", std::string{name}}}, /*metadata=*/true);
}

void TraceSink::flush() { os_->flush(); }

void TraceSink::append(TraceSink& shard) {
  *os_ << shard.buffer_.view();
  events_ += shard.events_;
  shard.buffer_.str({});
  shard.events_ = 0;
}

TraceSink* trace() { return g_trace; }

TraceSink* set_trace(TraceSink* sink) {
  TraceSink* previous = g_trace;
  g_trace = sink;
  return previous;
}

}  // namespace sic::obs
