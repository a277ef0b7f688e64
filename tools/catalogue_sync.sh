#!/usr/bin/env sh
# Catalogue-sync check: the stable diagnostic/metric/pass/invariant codes each
# binary advertises must all be documented, and the docs must not reference
# codes the binaries no longer know about.
#
#   catalogue_sync.sh <ctlint> <ctcheck> <ctstat> <repo_root>
#
# Forward direction (binary -> docs):
#   ctlint --rules    E/W lint rules        -> docs/LANGUAGE.md
#                     O optimisation passes -> DESIGN.md
#   ctcheck --catalog D/I/L invariants      -> DESIGN.md
#   ctstat --catalog  M metrics             -> docs/OBSERVABILITY.md
#
# Reverse direction (docs -> binary): every O/D/I/L/M code mentioned anywhere
# in DESIGN.md, docs/LANGUAGE.md, docs/OBSERVABILITY.md, or README.md must
# exist in the corresponding binary listing.  E/W codes are exempt from the
# reverse check because the parser and semantic analyser own E00x codes that
# are documented but are not lint rules.
#
# Exit 0 when in sync, 1 on drift, 2 on usage/setup errors.
set -u

if [ "$#" -ne 4 ]; then
  echo "usage: catalogue_sync.sh <ctlint> <ctcheck> <ctstat> <repo_root>" >&2
  exit 2
fi
CTLINT=$1
CTCHECK=$2
CTSTAT=$3
ROOT=$4

for bin in "$CTLINT" "$CTCHECK" "$CTSTAT"; do
  if [ ! -x "$bin" ]; then
    echo "catalogue_sync: not executable: $bin" >&2
    exit 2
  fi
done
for doc in "$ROOT/DESIGN.md" "$ROOT/docs/LANGUAGE.md" "$ROOT/docs/OBSERVABILITY.md" "$ROOT/README.md"; do
  if [ ! -f "$doc" ]; then
    echo "catalogue_sync: missing doc: $doc" >&2
    exit 2
  fi
done

TMPDIR_SYNC=$(mktemp -d) || exit 2
trap 'rm -rf "$TMPDIR_SYNC"' EXIT

# ctlint --rules lists the lint rules, then the passes: split by first letter.
"$CTLINT" --rules   | awk '{print $1}' | sort -u > "$TMPDIR_SYNC/rules.txt" || exit 2
grep '^[EW]' "$TMPDIR_SYNC/rules.txt" > "$TMPDIR_SYNC/lint.txt"
grep '^O' "$TMPDIR_SYNC/rules.txt" > "$TMPDIR_SYNC/opt.txt"
"$CTCHECK" --catalog | awk '{print $1}' | sort -u > "$TMPDIR_SYNC/check.txt" || exit 2
"$CTSTAT" --catalog | awk '{print $1}' | sort -u > "$TMPDIR_SYNC/stat.txt"  || exit 2
for f in lint opt check stat; do
  if [ ! -s "$TMPDIR_SYNC/$f.txt" ]; then
    echo "catalogue_sync: empty catalogue from $f listing" >&2
    exit 2
  fi
done

fail=0

# Forward: every advertised code appears in its documentation table.
check_forward() {
  # $1 = codes file, $2 = doc path, $3 = source label
  while IFS= read -r code; do
    if ! grep -q "\b$code\b" "$2"; then
      echo "catalogue_sync: $3 advertises $code but $(basename "$2") does not document it"
      fail=1
    fi
  done < "$1"
}
check_forward "$TMPDIR_SYNC/lint.txt"  "$ROOT/docs/LANGUAGE.md"      "ctlint --rules"
check_forward "$TMPDIR_SYNC/opt.txt"   "$ROOT/DESIGN.md"             "ctlint --rules"
check_forward "$TMPDIR_SYNC/check.txt" "$ROOT/DESIGN.md"             "ctcheck --catalog"
check_forward "$TMPDIR_SYNC/stat.txt"  "$ROOT/docs/OBSERVABILITY.md" "ctstat --catalog"

# Reverse: O/D/I/L/M codes referenced by the docs must still exist.
cat "$TMPDIR_SYNC/opt.txt" "$TMPDIR_SYNC/check.txt" "$TMPDIR_SYNC/stat.txt" \
  | sort -u > "$TMPDIR_SYNC/known.txt"
grep -hoE '\b[ODILM][0-9]{3}\b' \
    "$ROOT/DESIGN.md" "$ROOT/docs/LANGUAGE.md" "$ROOT/docs/OBSERVABILITY.md" \
    "$ROOT/README.md" | sort -u > "$TMPDIR_SYNC/doc_codes.txt"
while IFS= read -r code; do
  if ! grep -qx "$code" "$TMPDIR_SYNC/known.txt"; then
    echo "catalogue_sync: docs reference $code but no binary advertises it"
    fail=1
  fi
done < "$TMPDIR_SYNC/doc_codes.txt"

if [ "$fail" -ne 0 ]; then
  echo "catalogue_sync: drift detected between binary catalogues and docs" >&2
  exit 1
fi
echo "catalogue_sync: $(wc -l < "$TMPDIR_SYNC/lint.txt" | tr -d ' ') lint rules," \
     "$(wc -l < "$TMPDIR_SYNC/opt.txt" | tr -d ' ') passes," \
     "$(wc -l < "$TMPDIR_SYNC/check.txt" | tr -d ' ') invariants," \
     "$(wc -l < "$TMPDIR_SYNC/stat.txt" | tr -d ' ') metrics in sync with docs"
exit 0
