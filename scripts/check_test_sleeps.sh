#!/usr/bin/env bash
# Every time.Sleep in a _test.go file must state why it sleeps rather than
# wait on a channel or condition: a "// sleep: <reason>" comment on the same
# line or on the line before. Lists each unjustified call and fails if any.
set -euo pipefail

cd "$(dirname "$0")/.."

bad=$(find . -name '*_test.go' -not -path './.git/*' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { prev = "" }
    /time\.Sleep\(/ && $0 !~ /\/\/ sleep: / && prev !~ /\/\/ sleep: / {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
    { prev = $0 }
')

if [ -n "$bad" ]; then
    echo "time.Sleep in a test without a \"// sleep:\" reason on the line or the line before:"
    echo "$bad"
    exit 1
fi
echo "every test sleep states its reason"
