#!/bin/sh
# Non-test lines per crate: every .rs file under crates/<crate>/src is
# counted up to its first `#[cfg(test)]` line (indented or not), and the
# storage engine's test-only files (engine/tests.rs, engine/tests/) are
# left out. Prints one "<crate> <lines>" row per crate.
#
# Usage: scripts/nontest_lines.sh [crate ...]   (default: every crate)
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi
for crate in "$@"; do
    lines=$(find "crates/$crate/src" -name '*.rs' ! -path '*/engine/tests*' -print0 |
        xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')
    echo "$crate $lines"
done
