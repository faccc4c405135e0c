#!/usr/bin/env bash
# Every cmd/<name> that README.md, DESIGN.md, the Makefile or the CI workflow
# names must be a directory of the repo, so no doc or build step points at a
# deleted command. Lists each dangling reference and fails if any.
set -euo pipefail

cd "$(dirname "$0")/.."

bad=$(grep -noE 'cmd/[A-Za-z0-9_-]+' README.md DESIGN.md Makefile .github/workflows/ci.yml |
    while IFS=: read -r file line ref; do
        [ -d "$ref" ] || echo "$file:$line: $ref"
    done)

if [ -n "$bad" ]; then
    echo "references to commands that do not exist:"
    echo "$bad"
    exit 1
fi
echo "every named command exists"
