#include "src/lang/diagnostics.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>

#include "src/common/json.h"

namespace cloudtalk {
namespace lang {

namespace {

// Byte offset of the start of each line of `source`: line L starts at
// starts[L - 1].
std::vector<size_t> LineStarts(std::string_view source) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\n') {
      starts.push_back(i + 1);
    }
  }
  return starts;
}

// 1-based line `line` of `source` (without the trailing newline); empty
// when the source has fewer lines.
std::string_view SourceLine(std::string_view source, const std::vector<size_t>& starts,
                            int line) {
  if (static_cast<size_t>(line) > starts.size()) {
    return {};
  }
  const size_t start = starts[line - 1];
  const size_t end = source.find('\n', start);
  return source.substr(start, end == std::string_view::npos ? end : end - start);
}

// Renders one diagnostic clang-style: location, severity, message and code,
// then the offending source line under a caret, then the hint.
std::string FormatDiagnostic(const Diagnostic& diagnostic, std::string_view source,
                             const std::vector<size_t>& line_starts, std::string_view filename) {
  std::ostringstream os;
  os << filename;
  if (diagnostic.span.valid()) {
    os << ":" << diagnostic.span.line << ":" << diagnostic.span.column;
  }
  os << ": " << SeverityName(diagnostic.severity) << ": " << diagnostic.message << " ["
     << diagnostic.code << "]\n";
  if (diagnostic.span.valid()) {
    const std::string_view line = SourceLine(source, line_starts, diagnostic.span.line);
    if (!line.empty()) {
      os << "  " << line << "\n  ";
      const int caret_col = diagnostic.span.column;
      for (int i = 1; i < caret_col && static_cast<size_t>(i) <= line.size(); ++i) {
        os << (line[i - 1] == '\t' ? '\t' : ' ');
      }
      os << '^';
      const int underline = std::min(diagnostic.span.length - 1,
                                     static_cast<int>(line.size()) - caret_col);
      for (int i = 0; i < underline; ++i) {
        os << '~';
      }
      os << "\n";
    }
  }
  if (!diagnostic.hint.empty()) {
    os << "  hint: " << diagnostic.hint << "\n";
  }
  return os.str();
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

size_t DiagnosticSink::KeyHash::operator()(const Key& key) const {
  const size_t position = (static_cast<size_t>(static_cast<uint32_t>(key.line)) << 32) |
                          static_cast<uint32_t>(key.column);
  return std::hash<std::string>()(key.code) ^ std::hash<size_t>()(position);
}

void DiagnosticSink::Add(Diagnostic diagnostic) {
  if (!seen_.insert({diagnostic.code, diagnostic.span.line, diagnostic.span.column}).second) {
    return;
  }
  if (diagnostic.severity == Severity::kError) {
    ++error_count_;
  } else if (diagnostic.severity == Severity::kWarning) {
    ++warning_count_;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticSink::AddError(std::string code, Span span, std::string message,
                              std::string hint) {
  Add(Diagnostic{Severity::kError, std::move(code), span, std::move(message),
                 std::move(hint)});
}

void DiagnosticSink::AddWarning(std::string code, Span span, std::string message,
                                std::string hint) {
  Add(Diagnostic{Severity::kWarning, std::move(code), span, std::move(message),
                 std::move(hint)});
}

Severity DiagnosticSink::max_severity() const {
  Severity max = Severity::kNote;
  for (const Diagnostic& d : diagnostics_) {
    if (static_cast<int>(d.severity) > static_cast<int>(max)) {
      max = d.severity;
    }
  }
  return max;
}

void DiagnosticSink::SortByPosition() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.span.line != b.span.line) {
                       return a.span.line < b.span.line;
                     }
                     return a.span.column < b.span.column;
                   });
}

void DiagnosticSink::PromoteWarnings() {
  for (Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kWarning) {
      d.severity = Severity::kError;
      --warning_count_;
      ++error_count_;
    }
  }
}

cloudtalk::Error DiagnosticSink::ToLegacyError() const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kError) {
      return cloudtalk::Error{d.message + " [" + d.code + "]", d.span.line, d.span.column};
    }
  }
  return cloudtalk::Error{"no error recorded"};
}

std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics,
                              std::string_view source, std::string_view filename) {
  const std::vector<size_t> line_starts = LineStarts(source);
  std::string out;
  int errors = 0;
  int warnings = 0;
  for (const Diagnostic& d : diagnostics) {
    out += FormatDiagnostic(d, source, line_starts, filename);
    if (d.severity == Severity::kError) {
      ++errors;
    } else if (d.severity == Severity::kWarning) {
      ++warnings;
    }
  }
  out += std::to_string(errors) + " error" + (errors == 1 ? "" : "s") + ", " +
         std::to_string(warnings) + " warning" + (warnings == 1 ? "" : "s") + "\n";
  return out;
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics,
                              std::string_view filename) {
  std::string out = "{\"file\": ";
  out += JsonQuote(filename);
  int errors = 0;
  int warnings = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) {
      ++errors;
    } else if (d.severity == Severity::kWarning) {
      ++warnings;
    }
  }
  out += ", \"errors\": " + std::to_string(errors);
  out += ", \"warnings\": " + std::to_string(warnings);
  out += ", \"diagnostics\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) {
      out += ", ";
    }
    out += "{\"severity\": ";
    out += JsonQuote(SeverityName(d.severity));
    out += ", \"code\": ";
    out += JsonQuote(d.code);
    out += ", \"line\": " + std::to_string(d.span.line);
    out += ", \"column\": " + std::to_string(d.span.column);
    out += ", \"length\": " + std::to_string(d.span.length);
    out += ", \"message\": ";
    out += JsonQuote(d.message);
    if (!d.hint.empty()) {
      out += ", \"hint\": ";
      out += JsonQuote(d.hint);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace lang
}  // namespace cloudtalk
