// JSON string quoting shared by every renderer in the repo (diagnostics,
// invariant violations, traces, metrics, the ct* tools). Header-only and
// standard-library-only, so the dependency-free libraries (src/obs,
// src/check) can use it without linking anything.
#ifndef CLOUDTALK_SRC_COMMON_JSON_H_
#define CLOUDTALK_SRC_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace cloudtalk {

// `text` as a JSON string literal: in double quotes, with quotes,
// backslashes and control characters escaped.
inline std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_COMMON_JSON_H_
