#include "trace/io.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

namespace sic::trace {

namespace {

/// Strips a trailing CR (CRLF endings from Windows-authored traces) and
/// trailing spaces/tabs.
std::string rstrip(const std::string& s) {
  std::string_view v{s};
  while (!v.empty() &&
         (v.back() == '\r' || v.back() == ' ' || v.back() == '\t')) {
    v.remove_suffix(1);
  }
  return std::string{v};
}

bool is_blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return c == ' ' || c == '\t'; });
}

[[noreturn]] void malformed(int lineno, const std::string& line,
                            const char* what) {
  throw TraceFormatError("malformed trace CSV at line " +
                         std::to_string(lineno) + " (" + what +
                         "): " + line);
}

}  // namespace

void write_csv(const RssiTrace& trace, std::ostream& os) {
  os << "timestamp_s,ap_id,client_id,rssi_dbm\n";
  for (const auto& snap : trace.snapshots) {
    bool observed = false;
    for (const auto& ap : snap.aps) {
      for (const auto& obs : ap.clients) {
        os << snap.timestamp_s << ',' << ap.ap_id << ',' << obs.client_id
           << ',' << obs.rssi.value() << '\n';
        observed = true;
      }
    }
    if (!observed) os << snap.timestamp_s << ",,,\n";
  }
}

void write_csv_file(const RssiTrace& trace, const std::string& path) {
  std::ofstream os{path};
  if (!os) throw TraceIoError("cannot open trace file for write: " + path);
  write_csv(trace, os);
}

RssiTrace read_csv(std::istream& is) {
  std::string raw;
  if (!std::getline(is, raw)) {
    throw TraceFormatError("trace CSV is empty");
  }
  if (rstrip(raw) != "timestamp_s,ap_id,client_id,rssi_dbm") {
    throw TraceFormatError("unexpected trace CSV header: " + raw);
  }
  // timestamp -> ap -> observations
  std::map<std::int64_t, std::map<std::uint32_t, std::vector<ClientObservation>>>
      rows;
  int lineno = 1;
  while (std::getline(is, raw)) {
    ++lineno;
    const std::string line = rstrip(raw);
    if (line.empty() || is_blank(line)) continue;
    if (line.size() > 3 && line.ends_with(",,,")) {
      std::istringstream ls{line.substr(0, line.size() - 3)};
      std::int64_t ts = 0;
      std::string rest;
      if (!(ls >> ts) || ls >> rest) {
        malformed(lineno, raw, "expected timestamp_s,,, for an empty snapshot");
      }
      rows[ts];
      continue;
    }
    std::istringstream ls{line};
    std::int64_t ts = 0;
    std::uint32_t ap = 0;
    std::uint32_t client = 0;
    double rssi = 0.0;
    char c1 = 0, c2 = 0, c3 = 0;
    if (!(ls >> ts >> c1 >> ap >> c2 >> client >> c3 >> rssi) || c1 != ',' ||
        c2 != ',' || c3 != ',') {
      malformed(lineno, raw, "expected timestamp_s,ap_id,client_id,rssi_dbm");
    }
    std::string rest;
    if (ls >> rest) {
      malformed(lineno, raw, "trailing junk after rssi_dbm");
    }
    rows[ts][ap].push_back(ClientObservation{client, Dbm{rssi}});
  }
  RssiTrace trace;
  for (auto& [ts, aps] : rows) {
    Snapshot snap;
    snap.timestamp_s = ts;
    for (auto& [ap_id, clients] : aps) {
      ApSnapshot ap_snap;
      ap_snap.ap_id = ap_id;
      ap_snap.clients = std::move(clients);
      snap.aps.push_back(std::move(ap_snap));
    }
    trace.snapshots.push_back(std::move(snap));
  }
  return trace;
}

RssiTrace read_csv_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw TraceIoError("cannot open trace file for read: " + path);
  return read_csv(is);
}

}  // namespace sic::trace
