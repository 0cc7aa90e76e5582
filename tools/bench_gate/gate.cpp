#include "gate.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

namespace sic::bench_gate {

namespace {

void skip_ws(std::string_view text, std::size_t& i) {
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
          text[i] == '\r')) {
    ++i;
  }
}

/// Advances past a JSON string (opening quote at text[i]).
void skip_string(std::string_view text, std::size_t& i) {
  ++i;  // opening quote
  while (i < text.size() && text[i] != '"') {
    i += text[i] == '\\' ? 2 : 1;
  }
  if (i >= text.size()) throw std::runtime_error("unterminated JSON string");
  ++i;  // closing quote
}

std::string read_string(std::string_view text, std::size_t& i) {
  const std::size_t begin = i + 1;
  skip_string(text, i);
  return std::string{text.substr(begin, i - 1 - begin)};
}

/// Advances past any JSON value, tracking bracket depth; numeric
/// top-level scalars are the caller's fast path, so this handles the
/// rest (strings, objects, arrays, literals).
void skip_value(std::string_view text, std::size_t& i) {
  skip_ws(text, i);
  if (i >= text.size()) throw std::runtime_error("truncated JSON value");
  if (text[i] == '"') {
    skip_string(text, i);
    return;
  }
  if (text[i] == '{' || text[i] == '[') {
    int depth = 0;
    while (i < text.size()) {
      const char c = text[i];
      if (c == '"') {
        skip_string(text, i);
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        --depth;
        if (depth == 0) {
          ++i;
          return;
        }
      }
      ++i;
    }
    throw std::runtime_error("unbalanced JSON brackets");
  }
  // Literal or number: consume until a delimiter.
  while (i < text.size() && text[i] != ',' && text[i] != '}' &&
         text[i] != ']') {
    ++i;
  }
}

}  // namespace

std::map<std::string, double> parse_flat_json(std::string_view text) {
  std::map<std::string, double> out;
  std::set<std::string> keys;  // every key, numeric or not
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size() || text[i] != '{') {
    throw std::runtime_error("bench summary is not a JSON object");
  }
  ++i;
  skip_ws(text, i);
  if (i < text.size() && text[i] == '}') return out;  // empty object
  while (i < text.size()) {
    skip_ws(text, i);
    if (i >= text.size() || text[i] != '"') {
      throw std::runtime_error("expected JSON key");
    }
    const std::string key = read_string(text, i);
    if (!keys.insert(key).second) {
      throw std::runtime_error("duplicate key " + key + " in bench summary");
    }
    skip_ws(text, i);
    if (i >= text.size() || text[i] != ':') {
      throw std::runtime_error("expected ':' after key " + key);
    }
    ++i;
    skip_ws(text, i);
    if (i < text.size() &&
        (text[i] == '-' || (text[i] >= '0' && text[i] <= '9'))) {
      const std::string owned{text.substr(i)};
      char* end = nullptr;
      const double v = std::strtod(owned.c_str(), &end);
      if (end == owned.c_str()) {
        throw std::runtime_error("bad number for key " + key);
      }
      out[key] = v;
      i += static_cast<std::size_t>(end - owned.c_str());
    } else {
      skip_value(text, i);
    }
    skip_ws(text, i);
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') return out;
    throw std::runtime_error("expected ',' or '}' in bench summary");
  }
  throw std::runtime_error("truncated bench summary");
}

Pin parse_pin(std::string_view spec, double default_tolerance) {
  Pin pin;
  pin.tolerance_frac = default_tolerance;
  std::size_t colon = spec.find(':');
  pin.key = std::string{spec.substr(0, colon)};
  if (pin.key.empty()) throw std::runtime_error("empty --pin key");
  while (colon != std::string_view::npos) {
    const std::size_t begin = colon + 1;
    colon = spec.find(':', begin);
    const std::string_view part = spec.substr(
        begin,
        colon == std::string_view::npos ? std::string_view::npos
                                        : colon - begin);
    if (part == "lower") {
      pin.higher_is_better = false;
    } else if (part == "higher") {
      pin.higher_is_better = true;
    } else if (!part.empty() && part.back() == '%') {
      const std::string owned{part.substr(0, part.size() - 1)};
      char* end = nullptr;
      const double pct = std::strtod(owned.c_str(), &end);
      if (end != owned.c_str() + owned.size() || !(pct >= 0.0)) {
        throw std::runtime_error("bad --pin tolerance: " + std::string{spec});
      }
      pin.tolerance_frac = pct / 100.0;
    } else {
      throw std::runtime_error("bad --pin spec (key[:tol%][:lower]): " +
                               std::string{spec});
    }
  }
  return pin;
}

GateReport run_gate(const std::map<std::string, double>& baseline,
                    const std::map<std::string, double>& current,
                    const std::vector<Pin>& pins,
                    const std::map<std::string, double>& perturb) {
  GateReport report;
  for (const Pin& pin : pins) {
    KeyResult r;
    r.key = pin.key;
    r.tolerance_frac = pin.tolerance_frac;
    r.higher_is_better = pin.higher_is_better;
    const auto b = baseline.find(pin.key);
    const auto c = current.find(pin.key);
    r.missing_baseline = b == baseline.end();
    r.missing_current = c == current.end();
    if (r.missing_baseline || r.missing_current) {
      // A pinned key that vanished is a regression of the bench itself.
      r.regressed = true;
      report.keys.push_back(std::move(r));
      continue;
    }
    r.baseline = b->second;
    r.current = c->second;
    const auto p = perturb.find(pin.key);
    if (p != perturb.end()) r.current *= p->second;
    if (r.baseline == 0.0) {
      r.change_frac = r.current == 0.0 ? 0.0 : 1.0;
    } else {
      r.change_frac = (r.current - r.baseline) / std::fabs(r.baseline);
    }
    const double regressing_drop =
        pin.higher_is_better ? -r.change_frac : r.change_frac;
    r.regressed = regressing_drop > pin.tolerance_frac;
    report.keys.push_back(std::move(r));
  }
  return report;
}

bool GateReport::ok() const {
  for (const KeyResult& r : keys) {
    if (r.regressed) return false;
  }
  return true;
}

std::string GateReport::text() const {
  std::ostringstream os;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%-24s %14s %14s %9s %7s %5s  %s\n", "key",
                "baseline", "current", "change", "tol", "dir", "verdict");
  os << buf;
  for (const KeyResult& r : keys) {
    if (r.missing_baseline || r.missing_current) {
      std::snprintf(buf, sizeof(buf), "%-24s %14s %14s %9s %6.1f%% %5s  %s\n",
                    r.key.c_str(), r.missing_baseline ? "MISSING" : "-",
                    r.missing_current ? "MISSING" : "-", "-",
                    100.0 * r.tolerance_frac,
                    r.higher_is_better ? "up" : "down", "FAIL");
      os << buf;
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "%-24s %14.4g %14.4g %+8.1f%% %6.1f%% %5s  %s\n",
                  r.key.c_str(), r.baseline, r.current, 100.0 * r.change_frac,
                  100.0 * r.tolerance_frac, r.higher_is_better ? "up" : "down",
                  r.regressed ? "FAIL" : "ok");
    os << buf;
  }
  os << (ok() ? "bench gate: ok\n" : "bench gate: REGRESSION\n");
  return os.str();
}

}  // namespace sic::bench_gate
