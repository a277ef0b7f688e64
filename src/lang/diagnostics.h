// Multi-diagnostic error reporting for the CloudTalk query language.
//
// The lexer, parser, semantic analysis, and lint rules all report through a
// DiagnosticSink instead of failing fast: a single pass over a query yields
// every problem at once, each with a stable rule code, a source span, a
// message, and (where one exists) a fix-it hint. Renderers produce either
// clang-style text (source line + caret) or machine-readable JSON for CI.
//
// Rule codes are stable API: Exxx are errors (the query cannot be answered),
// Wxxx are warnings (legal but suspect; the server answers anyway). The full
// list lives in docs/LANGUAGE.md and src/lang/lint.h.
#ifndef CLOUDTALK_SRC_LANG_DIAGNOSTICS_H_
#define CLOUDTALK_SRC_LANG_DIAGNOSTICS_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/common/result.h"
#include "src/lang/span.h"

namespace cloudtalk {
namespace lang {

enum class Severity { kNote, kWarning, kError };

const char* SeverityName(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;  // "E001", "W020", ... (stable; see docs/LANGUAGE.md).
  Span span;
  std::string message;
  std::string hint;  // Optional fix-it suggestion; empty when none applies.
};

// Accumulates diagnostics. Duplicates (same code and span start) are dropped
// so that overlapping producers (e.g. the parser and a lint rule both
// flagging an empty pool) do not double-report.
class DiagnosticSink {
 public:
  void Add(Diagnostic diagnostic);
  void AddError(std::string code, Span span, std::string message, std::string hint = "");
  void AddWarning(std::string code, Span span, std::string message, std::string hint = "");

  bool empty() const { return diagnostics_.empty(); }
  bool has_errors() const { return error_count_ > 0; }
  int error_count() const { return error_count_; }
  int warning_count() const { return warning_count_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // Highest severity seen; kNote when the sink is empty.
  Severity max_severity() const;

  // Reorders diagnostics by (line, column) for presentation; emission order
  // is preserved among diagnostics at the same position.
  void SortByPosition();

  // Promotes every warning to an error (ctlint --werror).
  void PromoteWarnings();

  // First error as a legacy Error for Result<T>-returning wrappers. The
  // message carries the rule code; line/column come from the span.
  // Precondition: has_errors().
  cloudtalk::Error ToLegacyError() const;

 private:
  // What Add compares: a diagnostic's code and where its span starts.
  struct Key {
    std::string code;
    int line = 0;
    int column = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  std::vector<Diagnostic> diagnostics_;
  std::unordered_set<Key, KeyHash> seen_;
  int error_count_ = 0;
  int warning_count_ = 0;
};

// Renders all diagnostics clang-style, followed by a "N errors, M warnings"
// summary. `source` is the full query text (used to echo each offending
// line under a caret); `filename` prefixes the locations ("<query>" is a
// reasonable default for non-file input).
std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics,
                              std::string_view source, std::string_view filename);

// Machine-readable rendering for CI:
//   {"file": ..., "errors": N, "warnings": M, "diagnostics": [...]}
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics,
                              std::string_view filename);

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_DIAGNOSTICS_H_
