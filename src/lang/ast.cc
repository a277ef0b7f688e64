#include "src/lang/ast.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace cloudtalk {
namespace lang {

std::string Endpoint::ToString() const {
  switch (kind) {
    case Kind::kAddress:
    case Kind::kVariable:
      return name;
    case Kind::kDisk:
      return "disk";
    case Kind::kUnknown:
      return "0.0.0.0";
  }
  return "?";
}

ExprPtr Expr::Literal(double value) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = value;
  return e;
}

ExprPtr Expr::Ref(Attr attr, std::string flow) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kRef;
  e->ref_attr = attr;
  e->ref_flow = std::move(flow);
  return e;
}

ExprPtr Expr::Binary(char op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr Expr::Clone() const {
  ExprPtr clone;
  switch (kind) {
    case Kind::kLiteral:
      clone = Literal(literal);
      break;
    case Kind::kRef:
      clone = Ref(ref_attr, ref_flow);
      break;
    case Kind::kBinary:
      clone = Binary(op, lhs->Clone(), rhs->Clone());
      break;
  }
  if (clone != nullptr) {
    clone->span = span;
  }
  return clone;
}

bool IsConstantExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return true;
    case Expr::Kind::kRef:
      return false;
    case Expr::Kind::kBinary:
      return IsConstantExpr(*expr.lhs) && IsConstantExpr(*expr.rhs);
  }
  return false;
}

double EvalConstant(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kRef:
      return 0;  // Caller guarantees IsConstantExpr.
    case Expr::Kind::kBinary: {
      const double l = EvalConstant(*expr.lhs);
      const double r = EvalConstant(*expr.rhs);
      switch (expr.op) {
        case '+':
          return l + r;
        case '-':
          return l - r;
        case '*':
          return l * r;
        case '/':
          return r != 0 ? l / r : 0;
      }
      return 0;
    }
  }
  return 0;
}

void CollectFlowRefs(const Expr& expr, std::vector<const Expr*>* out) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kRef:
      out->push_back(&expr);
      return;
    case Expr::Kind::kBinary:
      CollectFlowRefs(*expr.lhs, out);
      CollectFlowRefs(*expr.rhs, out);
      return;
  }
}

namespace {

// Prints a literal compactly, using K/M/G binary suffixes for exact powers.
// Distinct doubles always print distinctly (shortest round-tripping form):
// canonical-text equality (src/lang/canon) relies on the rendering being
// injective. The long long casts are guarded — they are undefined for
// magnitudes at or beyond 2^63.
std::string FormatLiteral(double value) {
  constexpr double kMaxExact = 9.2e18;  // Safely inside the long long range.
  const double kSuffixes[3] = {1024.0 * 1024.0 * 1024.0, 1024.0 * 1024.0, 1024.0};
  const char kNames[3] = {'G', 'M', 'K'};
  for (int i = 0; i < 3; ++i) {
    if (value >= kSuffixes[i] && value / kSuffixes[i] < kMaxExact &&
        std::fmod(value, kSuffixes[i]) == 0.0) {
      std::ostringstream os;
      os << static_cast<long long>(value / kSuffixes[i]) << kNames[i];
      return os.str();
    }
  }
  if (std::abs(value) < kMaxExact && value == static_cast<long long>(value)) {
    std::ostringstream os;
    os << static_cast<long long>(value);
    return os.str();
  }
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return FormatLiteral(literal);
    case Kind::kRef:
      return std::string(AttrRefName(ref_attr)) + "(" + ref_flow + ")";
    case Kind::kBinary:
      return "(" + lhs->ToString() + " " + op + " " + rhs->ToString() + ")";
  }
  return "?";
}

const Expr* FlowDef::FindAttr(Attr attr) const {
  for (const AttrValue& av : attrs) {
    if (av.attr == attr) {
      return av.value.get();
    }
  }
  return nullptr;
}

Span FlowDef::AttrSpan(Attr attr) const {
  for (const AttrValue& av : attrs) {
    if (av.attr == attr) {
      return av.span;
    }
  }
  return span;
}

std::string FlowDef::ToString() const {
  std::ostringstream os;
  if (explicit_name) {
    os << name << " ";
  }
  os << src.ToString() << " -> " << dst.ToString();
  for (const AttrValue& av : attrs) {
    os << " " << AttrName(av.attr) << " " << av.value->ToString();
  }
  return os.str();
}

std::string Query::ToString() const {
  std::ostringstream os;
  const QueryOptions defaults;
  if (options.use_packet_simulator != defaults.use_packet_simulator) {
    os << "option packet\n";
  }
  if (options.use_dynamic_load != defaults.use_dynamic_load) {
    os << "option static\n";
  }
  if (options.allow_same_binding != defaults.allow_same_binding) {
    os << "option allow_same\n";
  }
  if (options.reserve != defaults.reserve) {
    os << "option noreserve\n";
  }
  if (options.eval_threads != defaults.eval_threads) {
    os << "option threads " << options.eval_threads << "\n";
  }
  if (options.optimize > 0) {
    os << "option optimize\n";
  } else if (options.optimize < 0) {
    os << "option no_optimize\n";
  }
  for (const VarDecl& decl : variables) {
    for (const std::string& n : decl.names) {
      os << n << " = ";
    }
    os << "(";
    for (size_t i = 0; i < decl.values.size(); ++i) {
      os << (i ? " " : "") << decl.values[i].ToString();
    }
    os << ")\n";
  }
  for (const Requirement& req : requirements) {
    os << req.var << " requires";
    if (req.cpu_cores > 0) {
      os << " cpu " << FormatLiteral(req.cpu_cores);
    }
    if (req.memory > 0) {
      os << " mem " << FormatLiteral(req.memory);
    }
    os << "\n";
  }
  for (const FlowDef& flow : flows) {
    os << flow.ToString() << "\n";
  }
  return os.str();
}

}  // namespace lang
}  // namespace cloudtalk
