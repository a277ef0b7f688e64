#include "src/lang/lexer.h"

#include <cstdlib>
#include <string>

namespace cloudtalk {
namespace lang {

namespace {

// The query language is ASCII: every other byte is a stray character.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentStart(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'; }
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

// The value of a run of digits with at most one '.', as strtod reads it. Up
// to 15 digits without a point are exact in a double, as strtod's result is.
double ParseDecimal(std::string_view digits) {
  if (digits.size() <= 15 && digits.find('.') == std::string_view::npos) {
    double value = 0;
    for (const char c : digits) {
      value = value * 10 + (c - '0');
    }
    return value;
  }
  return std::strtod(std::string(digits).c_str(), nullptr);
}

class Scanner {
 public:
  Scanner(std::string_view input, DiagnosticSink* sink) : input_(input), sink_(sink) {}

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    // A query averages more than four bytes a token (`10.0.0.3 `, `-> `).
    tokens.reserve(input_.size() / 4 + 2);
    while (true) {
      SkipSpacesAndComments();
      if (AtEnd()) {
        break;
      }
      const size_t start = pos_;
      const int line = line_;
      const int column = Column();
      const char c = input_[pos_++];
      TokenKind kind = TokenKind::kEof;
      double number = 0;
      switch (c) {
        case '\n':
          ++line_;
          line_start_ = pos_;
          [[fallthrough]];
        case ';':
          // Collapse runs of separators.
          if (!tokens.empty() && tokens.back().kind != TokenKind::kSeparator) {
            tokens.push_back(Token{TokenKind::kSeparator, input_.substr(start, 1), 0, line, column});
          }
          continue;
        case '=':
          kind = TokenKind::kEquals;
          break;
        case '(':
          kind = TokenKind::kLParen;
          break;
        case ')':
          kind = TokenKind::kRParen;
          break;
        case '+':
          kind = TokenKind::kPlus;
          break;
        case '*':
          kind = TokenKind::kStar;
          break;
        case '/':
          kind = TokenKind::kSlash;
          break;
        case '>':
          kind = TokenKind::kArrow;
          break;
        case '-':
          kind = !AtEnd() && input_[pos_] == '>' ? TokenKind::kArrow : TokenKind::kMinus;
          pos_ += kind == TokenKind::kArrow ? 1 : 0;
          break;
        default:
          if (IsDigit(c)) {
            if (!ScanNumberOrAddress(start, column, &kind, &number)) {
              continue;  // Diagnostic recorded; offending characters skipped.
            }
          } else if (IsIdentStart(c)) {
            while (!AtEnd() && IsIdentChar(input_[pos_])) {
              ++pos_;
            }
            kind = TokenKind::kIdent;
          } else {
            sink_->AddError("E001", Span{line, column, 1},
                            std::string("unexpected character '") + c + "'");
            continue;
          }
      }
      const int length = static_cast<int>(pos_ - start);
      tokens.push_back(Token{kind, input_.substr(start, length), number, line, column, length});
    }
    // Drop a trailing separator; append EOF.
    if (!tokens.empty() && tokens.back().kind == TokenKind::kSeparator) {
      tokens.pop_back();
    }
    tokens.push_back(Token{TokenKind::kEof, {}, 0, line_, Column()});
    return tokens;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }

  void SkipSpacesAndComments() {
    while (!AtEnd()) {
      const char c = input_[pos_];
      if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '#') {
        while (!AtEnd() && input_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  // A token starting with a digit, at `start`, is either a dotted-quad
  // address (1.2.3.4) or a number with an optional K/M/G (and optional B)
  // suffix. Returns false (with a diagnostic recorded and the characters
  // consumed) on a malformed literal.
  bool ScanNumberOrAddress(size_t start, int column, TokenKind* kind, double* number) {
    int dots = 0;
    for (pos_ = start; !AtEnd(); ++pos_) {
      if (input_[pos_] == '.' && pos_ + 1 < input_.size() && IsDigit(input_[pos_ + 1])) {
        ++dots;
      } else if (!IsDigit(input_[pos_])) {
        break;
      }
    }
    if (dots == 3) {
      *kind = TokenKind::kAddress;
      return true;
    }
    if (dots > 1) {
      sink_->AddError("E001", Span{line_, column, static_cast<int>(pos_ - start)},
                      "malformed numeric literal",
                      "numbers take one decimal point; addresses are dotted quads");
      return false;
    }
    *kind = TokenKind::kNumber;
    *number = ParseDecimal(input_.substr(start, pos_ - start));
    // Optional binary magnitude suffix, optionally followed by B: 256M, 10KB.
    if (!AtEnd()) {
      const char suffix = input_[pos_] & ~0x20;  // ASCII upper case.
      const double scale = suffix == 'K'   ? 1024.0
                           : suffix == 'M' ? 1024.0 * 1024.0
                           : suffix == 'G' ? 1024.0 * 1024.0 * 1024.0
                                           : 0;
      if (scale > 0) {
        ++pos_;
        if (!AtEnd() && (input_[pos_] == 'B' || input_[pos_] == 'b')) {
          ++pos_;
        }
        *number *= scale;
      }
    }
    return true;
  }

  std::string_view input_;
  DiagnosticSink* sink_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // Offset of the current line's first byte.
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input) {
  DiagnosticSink sink;
  std::vector<Token> tokens = Scanner(input, &sink).Run();
  if (sink.has_errors()) {
    return sink.ToLegacyError();
  }
  return tokens;
}

std::vector<Token> TokenizeWithDiagnostics(std::string_view input, DiagnosticSink* sink) {
  return Scanner(input, sink).Run();
}

const char* TokenKindName(TokenKind kind) {
  static constexpr const char* kNames[] = {
      "identifier", "number", "address", "'='", "'('", "')'", "'->'",
      "separator",  "'+'",    "'-'",     "'*'", "'/'", "end of input"};
  return kNames[static_cast<int>(kind)];
}

}  // namespace lang
}  // namespace cloudtalk
