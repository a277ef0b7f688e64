#include "src/lang/parser.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "src/common/name_table.h"
#include "src/lang/lexer.h"

namespace cloudtalk {
namespace lang {

namespace {

// Deepest expression the parser accepts. Every parenthesis and unary minus
// it recurses into and every binary operator a chain adds counts one level;
// failing at the limit, before recursing or building further, bounds the
// parser's own recursion and every later walk of the tree (destruction,
// EvalConstant, canon, bound).
constexpr int kMaxExprDepth = 256;

constexpr Attr kAttrs[] = {Attr::kStart, Attr::kEnd, Attr::kSize, Attr::kRate, Attr::kTransfer};

std::optional<Attr> AttrKeyword(std::string_view word) {
  for (const Attr attr : kAttrs) {
    if (word == AttrName(attr)) {
      return attr;
    }
  }
  return word == "transferred" ? std::optional<Attr>(Attr::kTransfer) : std::nullopt;
}

std::optional<Attr> RefKeyword(std::string_view word) {
  for (const Attr attr : kAttrs) {
    if (word == AttrRefName(attr)) {
      return attr;
    }
  }
  return std::nullopt;
}

// Recursive-descent parser reporting through a DiagnosticSink. Statement
// methods return false after recording a diagnostic; the driver then skips
// to the next statement separator and keeps going, so a single pass
// surfaces every syntax error in the query.
class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticSink* sink)
      : tokens_(std::move(tokens)), sink_(sink) {}

  Query Run() {
    // Room for a variable or a flow, and the name it defines, per statement.
    const size_t statements =
        1 + std::count_if(tokens_.begin(), tokens_.end(),
                          [](const Token& t) { return t.kind == TokenKind::kSeparator; });
    query_.variables.reserve(statements);
    query_.flows.reserve(statements);
    names_.reserve(statements);
    bits_.reserve(statements);
    while (!Check(TokenKind::kEof)) {
      if (Check(TokenKind::kSeparator)) {
        Advance();
        continue;
      }
      bool ok;
      if (Check(TokenKind::kIdent) && Cur().text == "option") {
        ok = ParseOption();
      } else if (Check(TokenKind::kIdent) && CheckAt(1, TokenKind::kEquals)) {
        ok = ParseVarDecl();
      } else if (Check(TokenKind::kIdent) && At(1).kind == TokenKind::kIdent &&
                 At(1).text == "requires") {
        ok = ParseRequirement();
      } else {
        ok = ParseFlowDef();
      }
      if (ok && !Check(TokenKind::kEof) && !Check(TokenKind::kSeparator)) {
        ok = Fail("E001", "expected end of statement");
      }
      if (!ok) {
        Synchronize();
      }
    }
    Validate();
    return std::move(query_);
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& At(size_t offset) const {
    const size_t i = pos_ + offset;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenKind kind) const { return Cur().kind == kind; }
  bool CheckAt(size_t offset, TokenKind kind) const { return At(offset).kind == kind; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }

  // Skips to the next statement boundary after an error.
  void Synchronize() {
    while (!Check(TokenKind::kEof) && !Check(TokenKind::kSeparator)) {
      if (pos_ + 1 >= tokens_.size()) {
        return;
      }
      Advance();
    }
  }

  // Records an error at the current token and returns false so that
  // `return Fail(...)` reads naturally in the statement methods.
  bool Fail(std::string code, std::string message, std::string hint = "") {
    sink_->AddError(std::move(code), Cur().span(), std::move(message), std::move(hint));
    return false;
  }

  bool Expect(TokenKind kind) {
    if (!Check(kind)) {
      return Fail("E001", std::string("expected ") + TokenKindName(kind) + ", got " +
                              TokenKindName(Cur().kind));
    }
    Advance();
    return true;
  }

  bool ParseOption() {
    Advance();  // 'option'
    if (!Check(TokenKind::kIdent)) {
      return Fail("E004", "expected option name");
    }
    const std::string_view opt = Cur().text;
    if (opt == "packet") {
      query_.options.use_packet_simulator = true;
    } else if (opt == "flow") {
      query_.options.use_packet_simulator = false;
    } else if (opt == "static") {
      query_.options.use_dynamic_load = false;
    } else if (opt == "dynamic") {
      query_.options.use_dynamic_load = true;
    } else if (opt == "allow_same") {
      query_.options.allow_same_binding = true;
    } else if (opt == "noreserve") {
      query_.options.reserve = false;
    } else if (opt == "optimize") {
      query_.options.optimize = 1;
    } else if (opt == "no_optimize") {
      query_.options.optimize = -1;
    } else if (opt == "threads") {
      Advance();
      if (!Check(TokenKind::kNumber)) {
        return Fail("E006", "option threads expects a count");
      }
      const double count = Cur().number;
      if (count < 1 || count > 1024 || count != static_cast<int>(count)) {
        return Fail("E006", "option threads expects an integer between 1 and 1024");
      }
      query_.options.eval_threads = static_cast<int>(count);
    } else {
      return Fail("E004", "unknown option '" + std::string(opt) + "'",
                  "known options: packet, flow, static, dynamic, allow_same, noreserve, "
                  "optimize, no_optimize, threads <n>");
    }
    Advance();
    return true;
  }

  bool ParseVarDecl() {
    VarDecl decl;
    const size_t first_name = pos_;  // Name i is token first_name + 2 i.
    // IDENT ('=' IDENT)* '=' '(' values ')'
    while (true) {
      if (!Check(TokenKind::kIdent)) {
        return Fail("E001", "expected variable name");
      }
      if (decl.names.empty()) {
        decl.span = Cur().span();
      }
      decl.names.emplace_back(Cur().text);
      decl.name_spans.push_back(Cur().span());
      Advance();
      if (!Expect(TokenKind::kEquals)) {
        return false;
      }
      if (Check(TokenKind::kLParen)) {
        break;
      }
    }
    Advance();  // '('
    size_t values = 0;
    while (CheckAt(values, TokenKind::kAddress) || CheckAt(values, TokenKind::kIdent)) {
      ++values;
    }
    decl.values.reserve(values);
    decl.value_spans.reserve(values);
    while (!Check(TokenKind::kRParen)) {
      if (Check(TokenKind::kAddress)) {
        decl.values.push_back(Endpoint::Address(std::string(Cur().text)));
        decl.value_spans.push_back(Cur().span());
        Advance();
      } else if (Check(TokenKind::kIdent)) {
        if (Cur().text == "disk") {
          decl.values.push_back(Endpoint::Disk());
        } else {
          decl.values.push_back(Endpoint::Address(std::string(Cur().text)));
        }
        decl.value_spans.push_back(Cur().span());
        Advance();
      } else {
        return Fail("E001", "expected server address in value pool");
      }
    }
    Advance();  // ')'
    if (decl.values.empty()) {
      // E010: the query would have no candidate to bind; recorded as an
      // error, but the declaration is kept so later uses still resolve.
      sink_->AddError("E010", decl.span,
                      "variable pool of '" + decl.names.front() + "' is empty",
                      "add at least one candidate endpoint to the pool");
    }
    for (size_t i = 0; i < decl.names.size(); ++i) {
      if (Mark(tokens_[first_name + 2 * i].text, kDeclared)) {
        sink_->AddError("E002", decl.name_spans[i],
                        "variable '" + decl.names[i] + "' declared twice",
                        "merge the pools or rename one declaration");
      }
    }
    query_.variables.push_back(std::move(decl));
    return true;
  }

  // IDENT 'requires' ('cpu' NUMBER | 'mem' NUMBER)+ — Section 7 extension.
  bool ParseRequirement() {
    Requirement req;
    const std::string_view var = Cur().text;
    req.var = var;
    req.span = Cur().span();
    const bool declared = Has(var, kDeclared);
    if (!declared) {
      sink_->AddError("E003", req.span,
                      "requirement for undeclared variable '" + req.var + "'",
                      "declare the variable before constraining it");
    }
    Advance();  // var name
    Advance();  // 'requires'
    bool any = false;
    while (Check(TokenKind::kIdent) && (Cur().text == "cpu" || Cur().text == "mem")) {
      const bool is_cpu = Cur().text == "cpu";
      Advance();
      if (!Check(TokenKind::kNumber)) {
        return Fail("E001", std::string("expected number after '") + (is_cpu ? "cpu" : "mem") +
                                "'");
      }
      if (is_cpu) {
        req.cpu_cores = Cur().number;
      } else {
        req.memory = Cur().number;
      }
      Advance();
      any = true;
    }
    if (!any) {
      return Fail("E001", "'requires' needs at least one of: cpu <n>, mem <bytes>");
    }
    if (!declared) {
      return true;
    }
    if (Mark(var, kRequired)) {
      sink_->AddError("E002", req.span, "duplicate requirement for variable '" + req.var + "'",
                      "merge the constraints into one 'requires' statement");
      return true;
    }
    query_.requirements.push_back(std::move(req));
    return true;
  }

  bool ParseEndpoint(Endpoint* out, Span* span) {
    *span = Cur().span();
    if (Check(TokenKind::kAddress)) {
      *out = Cur().text == "0.0.0.0" ? Endpoint::Unknown()
                                     : Endpoint::Address(std::string(Cur().text));
      Advance();
      return true;
    }
    if (Check(TokenKind::kIdent)) {
      if (Cur().text == "disk") {
        *out = Endpoint::Disk();
      } else if (Has(Cur().text, kDeclared)) {
        *out = Endpoint::Variable(std::string(Cur().text));
      } else {
        *out = Endpoint::Address(std::string(Cur().text));
      }
      Advance();
      return true;
    }
    return Fail("E001", "expected flow endpoint");
  }

  bool ParseFlowDef() {
    FlowDef flow;
    flow.span = Cur().span();
    std::string_view name;
    // Optional leading name: present iff the token after it is NOT an arrow
    // (i.e. "name src -> dst" vs "src -> dst").
    if (Check(TokenKind::kIdent) && !CheckAt(1, TokenKind::kArrow) &&
        Cur().text != "disk") {
      name = Cur().text;
      flow.name = name;
      flow.explicit_name = true;
      Advance();
    }
    if (!ParseEndpoint(&flow.src, &flow.src_span)) {
      return false;
    }
    if (!Expect(TokenKind::kArrow)) {
      return false;
    }
    if (!ParseEndpoint(&flow.dst, &flow.dst_span)) {
      return false;
    }
    while (Check(TokenKind::kIdent)) {
      const std::optional<Attr> attr = AttrKeyword(Cur().text);
      if (!attr.has_value()) {
        return Fail("E004", "unknown flow attribute '" + std::string(Cur().text) + "'",
                    "attributes: start, end, size, rate, transfer");
      }
      const Span attr_span = Cur().span();
      Advance();
      ExprPtr value;
      int height = 0;
      if (!ParseExpr(&value, &height)) {
        return false;
      }
      bool duplicate = false;
      for (const AttrValue& existing : flow.attrs) {
        if (existing.attr == *attr) {
          sink_->AddError("E002", attr_span,
                          std::string("duplicate attribute '") + AttrName(*attr) + "'",
                          "each attribute may appear at most once per flow");
          duplicate = true;
        }
      }
      if (!duplicate) {
        flow.attrs.push_back(AttrValue{*attr, std::move(value), attr_span});
      }
    }
    if (!flow.explicit_name) {
      flow.name = "_f" + std::to_string(query_.flows.size() + 1);
      name = auto_names_.emplace_back(flow.name);
    }
    if (Mark(name, kFlow)) {
      sink_->AddError("E002", flow.span, "flow '" + flow.name + "' defined twice",
                      "rename one of the definitions");
    }
    if (flow.src.kind == Endpoint::Kind::kDisk && flow.dst.kind == Endpoint::Kind::kDisk) {
      sink_->AddError("E005", flow.span, "flow cannot connect disk to disk",
                      "a disk endpoint is the local disk of the flow's other endpoint");
    }
    query_.flows.push_back(std::move(flow));
    return true;
  }

  bool FailTooDeep() {
    return Fail("E007", "expression nested too deeply",
                "at most " + std::to_string(kMaxExprDepth) +
                    " levels of parentheses, unary minus and operators");
  }

  // Enters one parenthesis or unary minus, or fails at the depth limit.
  bool Nest() {
    if (nesting_ >= kMaxExprDepth) {
      return FailTooDeep();
    }
    ++nesting_;
    return true;
  }

  // Accounts for one operator over subtrees of heights *height and
  // `rhs_height`, or fails if the tree would grow past the depth limit.
  bool Grow(int* height, int rhs_height) {
    *height = 1 + std::max(*height, rhs_height);
    return nesting_ + *height <= kMaxExprDepth || FailTooDeep();
  }

  // The expression parsers store the subtree in *out and its height in
  // *height: the most operators on a path from its root to a leaf.
  bool ParseExpr(ExprPtr* out, int* height) {
    if (!ParseMul(out, height)) {
      return false;
    }
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      const char op = Check(TokenKind::kPlus) ? '+' : '-';
      const Span op_span = Cur().span();
      Advance();
      ExprPtr rhs;
      int rhs_height = 0;
      if (!ParseMul(&rhs, &rhs_height) || !Grow(height, rhs_height)) {
        return false;
      }
      *out = Expr::Binary(op, std::move(*out), std::move(rhs));
      (*out)->span = op_span;
    }
    return true;
  }

  bool ParseMul(ExprPtr* out, int* height) {
    if (!ParsePrimary(out, height)) {
      return false;
    }
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash)) {
      const char op = Check(TokenKind::kStar) ? '*' : '/';
      const Span op_span = Cur().span();
      Advance();
      ExprPtr rhs;
      int rhs_height = 0;
      if (!ParsePrimary(&rhs, &rhs_height) || !Grow(height, rhs_height)) {
        return false;
      }
      *out = Expr::Binary(op, std::move(*out), std::move(rhs));
      (*out)->span = op_span;
    }
    return true;
  }

  bool ParsePrimary(ExprPtr* out, int* height) {
    *height = 0;
    if (Check(TokenKind::kNumber)) {
      *out = Expr::Literal(Cur().number);
      (*out)->span = Cur().span();
      Advance();
      return true;
    }
    if (Check(TokenKind::kMinus)) {
      const Span minus_span = Cur().span();
      if (!Nest()) {
        return false;
      }
      Advance();
      ExprPtr operand;
      const bool ok = ParsePrimary(&operand, height);
      --nesting_;
      if (!ok || !Grow(height, 0)) {
        return false;
      }
      *out = Expr::Binary('-', Expr::Literal(0), std::move(operand));
      (*out)->span = minus_span;
      return true;
    }
    if (Check(TokenKind::kLParen)) {
      if (!Nest()) {
        return false;
      }
      Advance();
      const bool ok = ParseExpr(out, height) && Expect(TokenKind::kRParen);
      --nesting_;
      return ok;
    }
    if (Check(TokenKind::kIdent)) {
      const std::optional<Attr> ref = RefKeyword(Cur().text);
      if (!ref.has_value()) {
        return Fail("E001", "expected value, got identifier '" + std::string(Cur().text) + "'",
                    "references are st(f), e(f), sz(f), r(f), t(f)");
      }
      const Span ref_span = Cur().span();
      Advance();
      if (!Expect(TokenKind::kLParen)) {
        return false;
      }
      if (!Check(TokenKind::kIdent)) {
        return Fail("E001", "expected flow name inside reference");
      }
      const std::string_view flow_name = Cur().text;
      Advance();
      if (!Expect(TokenKind::kRParen)) {
        return false;
      }
      *out = Expr::Ref(*ref, std::string(flow_name));
      (*out)->span = ref_span;
      return true;
    }
    return Fail("E001", std::string("expected expression, got ") + TokenKindName(Cur().kind));
  }

  // Post-parse validation that needs the whole query. Reports every
  // undefined flow reference, not just the first.
  void Validate() {
    std::vector<const Expr*> refs;
    for (const FlowDef& flow : query_.flows) {
      for (const AttrValue& av : flow.attrs) {
        refs.clear();
        CollectFlowRefs(*av.value, &refs);
        for (const Expr* ref : refs) {
          if (!Has(ref->ref_flow, kFlow)) {
            sink_->AddError("E003", ref->span.valid() ? ref->span : flow.span,
                            "flow '" + flow.name + "' references undefined flow '" +
                                ref->ref_flow + "'",
                            "only named flows defined in this query can be referenced");
          }
        }
      }
    }
  }

  // What a name is so far: a declared variable, a defined flow, a variable
  // with a `requires`.
  enum NameBit : uint8_t { kDeclared = 1, kFlow = 2, kRequired = 4 };

  // Sets `bit` on `name`; returns whether it was set already.
  bool Mark(std::string_view name, uint8_t bit) {
    const int id = names_.Intern(name);
    bits_.resize(names_.size());
    return (std::exchange(bits_[id], bits_[id] | bit) & bit) != 0;
  }
  bool Has(std::string_view name, uint8_t bit) const {
    const int id = names_.Find(name);
    return id >= 0 && (bits_[id] & bit) != 0;
  }

  std::vector<Token> tokens_;
  DiagnosticSink* sink_;
  size_t pos_ = 0;
  int nesting_ = 0;  // Parentheses and unary minus open around the parse.
  Query query_;
  // The names marked so far, as views of the token bytes, or of
  // `auto_names_` for the flows the query leaves unnamed.
  NameTable names_;
  std::vector<uint8_t> bits_;  // By name id: NameBits.
  std::deque<std::string> auto_names_;
};

}  // namespace

Query ParseWithDiagnostics(std::string_view input, DiagnosticSink* sink) {
  std::vector<Token> tokens = TokenizeWithDiagnostics(input, sink);
  return Parser(std::move(tokens), sink).Run();
}

Result<Query> Parse(std::string_view input) {
  DiagnosticSink sink;
  Query query = ParseWithDiagnostics(input, &sink);
  if (sink.has_errors()) {
    return sink.ToLegacyError();
  }
  return query;
}

}  // namespace lang
}  // namespace cloudtalk
