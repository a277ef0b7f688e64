// Tokenizer for the CloudTalk language.
//
// The original implementation used flex; this is an equivalent hand-written
// scanner (no generator dependency, better error positions). Tokens borrow
// their input: each one's text is a view of the bytes it was scanned from,
// so the input must outlive the tokens and must not change while they live.
#ifndef CLOUDTALK_SRC_LANG_LEXER_H_
#define CLOUDTALK_SRC_LANG_LEXER_H_

#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/lang/diagnostics.h"
#include "src/lang/span.h"

namespace cloudtalk {
namespace lang {

enum class TokenKind {
  kIdent,      // identifiers and keywords: names, disk, size, st, ...
  kNumber,     // numeric literal, suffix already applied
  kAddress,    // dotted-quad IPv4 literal
  kEquals,     // =
  kLParen,     // (
  kRParen,     // )
  kArrow,      // -> or >
  kSeparator,  // ; or newline
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kEof,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;  // The token's bytes in the input; empty at kEof.
  double number = 0;      // Value for kNumber (K/M/G suffix already applied).
  int line = 1;
  int column = 1;
  int length = 1;         // Source characters the token covers.

  Span span() const { return Span{line, column, length}; }
};

// Tokenizes `input`. Consecutive separators are collapsed into one.
Result<std::vector<Token>> Tokenize(std::string_view input);

// Like Tokenize, but reports problems into `sink` (code E001) and recovers
// by skipping the offending characters, so one pass surfaces every lexical
// error. Always returns a token stream terminated by kEof.
std::vector<Token> TokenizeWithDiagnostics(std::string_view input, DiagnosticSink* sink);

const char* TokenKindName(TokenKind kind);

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_LEXER_H_
