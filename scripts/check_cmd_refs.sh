#!/usr/bin/env bash
# Docs and build files name only things that exist:
#  - every cmd/<name> that README.md, DESIGN.md, the Makefile or the CI
#    workflow names must be a directory of the repo;
#  - every backticked `pkg.Ident` in README.md, DESIGN.md and EXPERIMENTS.md,
#    where internal/pkg is a package of the repo, must be declared in a
#    non-test file of internal/pkg: at package level (func, type, var or
#    const) or as a method, which the docs write as `pkg.Method`. Test,
#    Benchmark, Fuzz and Example functions are looked up in the package's
#    _test.go files. Only the first identifier after the package is checked
#    (`pkg.Type.Field` checks Type). Snake_case names such as `core.place_ms`
#    are benchmark metrics, and `pkg.go` is a file name, so both are skipped.
# Lists each dangling reference and fails if any.
set -euo pipefail

cd "$(dirname "$0")/.."

bad=$(grep -noE 'cmd/[A-Za-z0-9_-]+' README.md DESIGN.md Makefile .github/workflows/ci.yml |
    while IFS=: read -r file line ref; do
        [ -d "$ref" ] || echo "$file:$line: $ref"
    done)

# declared PKG prints the identifiers that internal/PKG declares, one per
# line.
declared() {
    local files=() tests=()
    for f in internal/"$1"/*.go; do
        case $f in *_test.go) tests+=("$f") ;; *) files+=("$f") ;; esac
    done
    if [ ${#files[@]} -gt 0 ]; then
        awk '
            /^func \([^)]*\) [A-Za-z_]/ { sub(/^func \([^)]*\) /, ""); sub(/[^A-Za-z0-9_].*/, ""); print; next }
            /^(func|type|var|const) [A-Za-z_]/ { sub(/^[a-z]+ /, ""); sub(/[^A-Za-z0-9_].*/, ""); print; next }
            /^(var|const|type) \($/ { block = 1; next }
            block && /^\)/ { block = 0; next }
            block && /^\t[A-Za-z_]/ {
                line = $0; sub(/^\t/, "", line); sub(/[ \t=].*/, "", line)
                n = split(line, names, ",")
                for (i = 1; i <= n; i++) { gsub(/ /, "", names[i]); print names[i] }
            }
        ' "${files[@]}"
    fi
    if [ ${#tests[@]} -gt 0 ]; then
        grep -ohE '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' "${tests[@]}" |
            sed 's/^func //' || true
    fi
}

pkgs=$(find internal -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | sort | paste -sd'|')
declare -A decls
refs=$(grep -noE '`[^`]+`' README.md DESIGN.md EXPERIMENTS.md |
    while IFS=: read -r file line span; do
        { grep -oE "(^|[^A-Za-z0-9_./])($pkgs)\.[A-Za-z_][A-Za-z0-9_]*" <<<"$span" || true; } |
            sed -E 's/^[^a-z]//' |
            while IFS=. read -r pkg ident; do
                case $ident in go | *_*) continue ;; esac
                echo "$file:$line: $pkg.$ident"
            done
    done)
while IFS= read -r ref; do
    [ -n "$ref" ] || continue
    pkg=${ref##*: }
    ident=${pkg#*.}
    pkg=${pkg%%.*}
    if [ -z "${decls[$pkg]+x}" ]; then
        decls[$pkg]=" $(declared "$pkg" | sort -u | paste -sd' ') "
    fi
    case ${decls[$pkg]} in *" $ident "*) ;; *) bad+=$'\n'"$ref" ;; esac
done <<<"$refs"
bad=$(sed '/^$/d' <<<"$bad")

if [ -n "$bad" ]; then
    echo "references to commands or identifiers that do not exist:"
    echo "$bad"
    exit 1
fi
echo "every named command and identifier exists"
