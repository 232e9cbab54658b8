#!/usr/bin/env bash
# Fails when a non-test function is linked into no binary of this
# repository and is not listed in scripts/unreachable.allow, or when an
# allowlist entry is linked or no longer exists.
#
#   bash scripts/unreachable.sh
#
# Every main package of both modules (the root and bench/) is built
# without inlining, so each called function keeps a symbol of its own; a
# main's "main." symbols are renamed to its import path. Empty unexported
# methods are sealed-interface markers and are not checked.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/unreachable.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for mod in . bench; do
  for pkg in $(cd "$mod" && go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    bin="$tmp/${pkg//\//_}"
    (cd "$mod" && go build -gcflags=all=-l -o "$bin" "$pkg")
    # The name is the rest of the line (generic shapes hold spaces); strip
    # instantiations innermost first.
    go tool nm "$bin" | sed -n "s/^ *[0-9a-f]* [Tt] //; T; :a; s/\[[^][]*\]//g; ta; s#^main\.#$pkg.#; p"
  done
done | sort -u >"$tmp/linked"

# "symbol file:line" for each top-level func of the gofmt'd non-test files.
for mod in . bench; do
  (cd "$mod" && go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./...)
done | while read -r pkg files; do
  [ -n "$files" ] || continue
  # shellcheck disable=SC2086
  { grep -Hn '^func ' $files || true; } | sed -E \
    -e '/^[^:]+:[0-9]+:func \([^)]*\) [a-z][A-Za-z0-9_]*\(\) +\{\}$/d' \
    -e "s#^([^:]+:[0-9]+):func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#$pkg.(*\3).\5 \1#" \
    -e "s#^([^:]+:[0-9]+):func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#$pkg.\3.\5 \1#" \
    -e "s#^([^:]+:[0-9]+):func ([A-Za-z0-9_]+).*#$pkg.\2 \1#" \
    -e "s# $PWD/# #"
done | grep -v '\.init ' >"$tmp/defined"

awk '!/^#/ && NF { print $1 }' "$allow" | sort >"$tmp/allowed"
fail=0
report() { [ -s "$tmp/$1" ] && { echo "$2:"; sed 's/^/  /' "$tmp/$1"; fail=1; }; return 0; }
awk 'FILENAME == ARGV[1] { linked[$0]; next } !($1 in linked)' "$tmp/linked" "$tmp/defined" >"$tmp/unlinked"
awk 'FILENAME == ARGV[1] { ok[$1]; next } !($1 in ok)' "$tmp/allowed" "$tmp/unlinked" >"$tmp/new"
awk 'FILENAME == ARGV[1] { linked[$0]; next } $1 in linked' "$tmp/linked" "$tmp/allowed" >"$tmp/stale"
awk 'FILENAME == ARGV[1] { def[$1]; next } !($1 in def)' "$tmp/defined" "$tmp/allowed" >"$tmp/gone"
report new "linked into no binary and not in $allow"
report stale "in $allow but linked"
report gone "in $allow but not defined"
echo "$(wc -l <"$tmp/defined") functions, $(wc -l <"$tmp/unlinked") unlinked, $(wc -l <"$tmp/allowed") allowlisted"
exit "$fail"
