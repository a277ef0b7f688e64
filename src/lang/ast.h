// Abstract syntax tree for the CloudTalk query language (paper Table 1).
//
// A query is a sequence of statements:
//   variable declarations   A = B = (vm1 vm2 vm3)
//   flow definitions        [name] src -> dst attr value ...
//
// Flow endpoints are literal addresses, variables, the local `disk`, or the
// wildcard 0.0.0.0 ("unknown source"). Attribute values are arithmetic
// expressions over numeric literals (with K/M/G suffixes) and references to
// other flows' attributes: st(f) e(f) sz(f) r(f) t(f).
#ifndef CLOUDTALK_SRC_LANG_AST_H_
#define CLOUDTALK_SRC_LANG_AST_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/lang/span.h"

namespace cloudtalk {
namespace lang {

// The five flow attributes (Table 1): start/end in seconds relative to now,
// size/transfer in bytes, rate in bits per second.
enum class Attr { kStart, kEnd, kSize, kRate, kTransfer };

inline const char* AttrName(Attr attr) {
  switch (attr) {
    case Attr::kStart:
      return "start";
    case Attr::kEnd:
      return "end";
    case Attr::kSize:
      return "size";
    case Attr::kRate:
      return "rate";
    case Attr::kTransfer:
      return "transfer";
  }
  return "?";
}

// Reference selectors usable inside expressions (REF in Table 1).
inline const char* AttrRefName(Attr attr) {
  switch (attr) {
    case Attr::kStart:
      return "st";
    case Attr::kEnd:
      return "e";
    case Attr::kSize:
      return "sz";
    case Attr::kRate:
      return "r";
    case Attr::kTransfer:
      return "t";
  }
  return "?";
}

struct Endpoint {
  enum class Kind {
    kAddress,   // Literal server address/name, e.g. 10.0.0.3 or vm2.
    kVariable,  // Reference to a declared variable.
    kDisk,      // The local disk of the flow's other endpoint.
    kUnknown,   // 0.0.0.0, "unknown source" (Section 5.3 reduce query).
  };
  Kind kind = Kind::kAddress;
  std::string name;  // Address text or variable name; empty for disk/unknown.

  static Endpoint Address(std::string addr) { return {Kind::kAddress, std::move(addr)}; }
  static Endpoint Variable(std::string var) { return {Kind::kVariable, std::move(var)}; }
  static Endpoint Disk() { return {Kind::kDisk, ""}; }
  static Endpoint Unknown() { return {Kind::kUnknown, ""}; }

  bool operator==(const Endpoint& other) const {
    return kind == other.kind && name == other.name;
  }
  std::string ToString() const;
};

// Hashes what Endpoint::operator== compares, for sets keyed on endpoints.
struct EndpointHash {
  size_t operator()(const Endpoint& e) const {
    return std::hash<std::string>()(e.name) ^ static_cast<size_t>(e.kind);
  }
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { kLiteral, kRef, kBinary };
  Kind kind = Kind::kLiteral;

  // kLiteral: value already scaled (bytes for sizes, Bps for rates).
  double literal = 0;

  // kRef: attribute of another flow, looked up by flow name.
  Attr ref_attr = Attr::kSize;
  std::string ref_flow;

  // kBinary.
  char op = '+';
  ExprPtr lhs;
  ExprPtr rhs;

  // Source range of the token that introduced this node (the literal, the
  // reference selector, or the operator). Invalid for programmatically
  // constructed expressions.
  Span span;

  static ExprPtr Literal(double value);
  static ExprPtr Ref(Attr attr, std::string flow);
  static ExprPtr Binary(char op, ExprPtr lhs, ExprPtr rhs);
  ExprPtr Clone() const;
  std::string ToString() const;
};

// True when `expr` contains no flow references (literals and arithmetic
// only); such expressions fold to a constant with EvalConstant().
bool IsConstantExpr(const Expr& expr);
double EvalConstant(const Expr& expr);

// Appends every reference node (kRef) inside `expr`, in source order.
void CollectFlowRefs(const Expr& expr, std::vector<const Expr*>* out);

struct AttrValue {
  Attr attr;
  ExprPtr value;
  Span span;  // Position of the attribute keyword.
};

struct FlowDef {
  std::string name;  // Auto-named "_f<N>" when the query omits it.
  bool explicit_name = false;
  Endpoint src;
  Endpoint dst;
  std::vector<AttrValue> attrs;
  Span span;      // First token of the definition (the name or the source).
  Span src_span;  // Source endpoint token.
  Span dst_span;  // Destination endpoint token.

  const Expr* FindAttr(Attr attr) const;
  // Span of the given attribute's keyword; falls back to the flow span when
  // the attribute is absent.
  Span AttrSpan(Attr attr) const;
  std::string ToString() const;
};

struct VarDecl {
  std::vector<std::string> names;   // A = B = C = (...) declares three.
  std::vector<Endpoint> values;     // Pool of possible bindings.
  Span span;                        // First declared name.
  std::vector<Span> name_spans;     // One per entry of `names`.
  std::vector<Span> value_spans;    // One per entry of `values`.
};

// Scalar endpoint requirements (paper Section 7: "an endpoint may require
// some number of CPU cores, and a certain amount of memory"). Spelled
//   X requires cpu 4 mem 8G
// Candidates without enough free CPU/memory are ranked below all others.
struct Requirement {
  std::string var;
  double cpu_cores = 0;  // 0 = no constraint.
  Bytes memory = 0;      // 0 = no constraint.
  Span span;             // The variable name token.
};

// Evaluation options. The paper says clients choose the estimator and
// whether dynamic load data is used (Section 4) and can override the
// distinct-bindings default (Section 4.1) but gives no concrete syntax;
// this reproduction spells them as `option <word>` statements.
struct QueryOptions {
  bool use_packet_simulator = false;  // option packet / option flow
  bool use_dynamic_load = true;       // option dynamic / option static
  bool allow_same_binding = false;    // option allow_same
  // option noreserve: the client may not act on the recommendation (e.g. a
  // scheduler polling every heartbeat), so the server must not hold the
  // recommended endpoints. Reservations of other queries are still honoured.
  bool reserve = true;
  // option threads N: worker shards for exhaustive/packet evaluation.
  // 0 = not specified (the server's configured default applies).
  int eval_threads = 0;
  // option optimize / option no_optimize: static optimisation passes
  // (src/lang/opt) for exhaustive evaluation. Tri-state: 0 = not specified
  // (the server's configured default applies), 1 = on, -1 = off.
  int optimize = 0;
};

struct Query {
  std::vector<VarDecl> variables;
  std::vector<FlowDef> flows;
  std::vector<Requirement> requirements;
  QueryOptions options;

  std::string ToString() const;
};

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_AST_H_
