// JSON text helpers shared by every deterministic export: metrics and span
// JSONL, Chrome traces, profiles, flight events, provenance, health and
// SLO reports, and the offline doctor timeline.
//
// Header-only, so the otherwise dependency-free observe layer can use it
// without linking jaal_telemetry.
#pragma once

#include <charconv>
#include <cstdio>
#include <string>

namespace jaal::telemetry {

/// Appends `v` exactly as printf("%.17g") formats it — 17 significant
/// digits, so the text round-trips bit-exactly — via std::to_chars, which
/// is several times faster and locale-free.
inline void append_double(std::string& out, double v) {
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

[[nodiscard]] inline std::string fmt_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

/// Escapes a string for a JSON string literal: quote, backslash, \n, \r and
/// \t by name, other control characters as \u00XX.
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace jaal::telemetry
