// Semantic canonicalization of CloudTalk queries (ISSUE 8).
//
// Two syntactically different queries often mean the same thing: renamed
// variables, commuted flow statements, `size 2*32M` vs `size 64M`, a rate
// limit written on a different member of the same chain group, duplicated
// pool entries. Each of them pays full parse/compile/probe/search cost in
// CloudTalkServer::Answer. Canonicalize() rewrites a parsed query into a
// normal form in which semantic equivalence becomes byte equality of the
// printed text, the way orbit canonicalisation (pass O200) turned symmetric
// bindings into one representative:
//
//   * alpha-renaming — variables become v0, v1, ... in declaration order;
//     referenced flows become f0, f1, ... in canonical flow order;
//     unreferenced flow names are dropped (they are unobservable);
//   * sorted flow order — a commutativity-aware total order from
//     Weisfeiler-Lehman-style refinement over the reference graph, so
//     commuted statements converge while reference structure is respected;
//   * constant folding and unit normalization — every constant subexpression
//     folds to one literal, printed in canonical K/M/G form, mirroring
//     EvalConstant() exactly (including the x/0 == 0 convention);
//   * dead-clause elimination — duplicate pool entries, no-op requirements,
//     `start 0`, non-constant (hence ignored) start/end attributes,
//     non-positive deadlines and rate limits;
//   * group-constraint normalization — a chain group's tightest literal rate
//     and deadline (the only ones compilation keeps: analysis takes the min)
//     move to one canonical member; duplicates and subsumed constraints
//     disappear (the lint rules W090/W091 flag the same redundancy).
//
// The transform set is deliberately limited to rewrites the evaluation
// engines are provably invariant under: declaration order and pool order are
// preserved (the heuristic breaks score ties by pool position and the
// exhaustive engine by odometer rank, so sorting either could change which
// of two equally-good answers is returned), and names never influence any
// engine tie-break (bindings are keyed positionally; the exhaustive merge
// uses (makespan, odometer rank)). `ctcheck --diff-canon` fuzzes this claim
// end to end (invariant D503): a canonicalized query answered cold must
// equal the original answered cold, after mapping names back.
//
// Canonical byte equality is sound (equal text => equivalent queries) but
// not complete: deciding equivalence of reference graphs in general is as
// hard as graph isomorphism, and WL refinement may leave automorphic flows
// in original order. Equal queries always canonicalize equally under the
// generator mutations D503 exercises.
#ifndef CLOUDTALK_SRC_LANG_CANON_H_
#define CLOUDTALK_SRC_LANG_CANON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/lang/ast.h"

namespace cloudtalk {
namespace lang {

// A canonicalized query plus the certificate mapping the original names to
// their canonical slots, so traces and replies computed on the canonical
// form can be mapped back to the caller's vocabulary (and vice versa).
struct CanonicalQuery {
  Query query;        // The canonical AST (safe to Compile / answer).
  std::string text;   // query.ToString(): the canonical byte form.
  uint64_t hash = 0;  // ContentHash(text).

  // original name -> canonical name, one entry per variable (declaration
  // order) and per flow (original statement order). Unreferenced flows map
  // to the auto name ("_f<N>") they receive in the canonical form.
  std::vector<std::pair<std::string, std::string>> variable_map;
  std::vector<std::pair<std::string, std::string>> flow_map;

  // canonical -> original lookups (empty string when unknown). Linear scans:
  // queries have a handful of names.
  const std::string* OriginalVariable(const std::string& canonical) const;
  const std::string* OriginalFlow(const std::string& canonical) const;
};

// FNV-1a 64-bit over the canonical text. Stable across platforms and runs;
// ctlint W092 keys on it.
uint64_t ContentHash(std::string_view text);

// Rewrites `query` into canonical form. Fails only on queries that are not
// self-consistent enough to rename soundly (duplicate variable or flow
// names, references to undefined flows) — conditions the parser already
// reports as E002/E003, so any error-free query canonicalizes.
Result<CanonicalQuery> Canonicalize(const Query& query);

// Canonicalize-and-compare: true when both queries canonicalize and their
// canonical texts are byte-equal. Sound, not complete (see file comment).
bool Equivalent(const Query& a, const Query& b);

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_CANON_H_
