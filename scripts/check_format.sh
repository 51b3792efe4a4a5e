#!/usr/bin/env bash
# Format gate for CI and local use.
#
# Always enforced (fast, no tooling needed): no tabs, no CRLF, no
# trailing whitespace, newline at EOF — the tree is clean on these and
# stays clean.
#
# clang-format (against the repo .clang-format) prints the files it
# would change; STRICT_CLANG_FORMAT=1 — what CI sets — makes any diff
# a hard failure. Point CLANG_FORMAT at a specific binary to match
# CI's pinned version (clang-format-15); the first of $CLANG_FORMAT,
# clang-format-15, clang-format found on PATH is used.
#
# scripts/*.py get the mechanical checks too, plus a pyflakes pass when
# the tool is installed (CI runners have it; local machines without it
# just skip the lint, never fail on the missing tool).
#
# Layering (always enforced): the kernel layers (src/common, graph,
# circuit, quantum, opt, pooling) include no header from the layers
# built on them (engine/, core/, landscape/, obs/, service/).
set -u

cd "$(dirname "$0")/.."

files=$(find src tests bench examples tools -name '*.cpp' -o -name '*.hpp')
py_files=$(find scripts -name '*.py')
fail=0

for f in $files $py_files; do
    if grep -qP '\t' "$f"; then
        echo "error: tab character in $f"
        fail=1
    fi
    if grep -qP '\r' "$f"; then
        echo "error: CRLF line ending in $f"
        fail=1
    fi
    if grep -qP '[ \t]+$' "$f"; then
        echo "error: trailing whitespace in $f"
        fail=1
    fi
    if [ -n "$(tail -c1 "$f")" ]; then
        echo "error: missing newline at end of $f"
        fail=1
    fi
done

lower_layers="src/common src/graph src/circuit src/quantum src/opt src/pooling"
upward=$(grep -rnE '#include "(engine|core|landscape|obs|service)/' \
    $lower_layers)
if [ -n "$upward" ]; then
    echo "error: lower layer includes an upper-layer header:"
    echo "$upward"
    fail=1
fi

cf=""
for candidate in "${CLANG_FORMAT:-}" clang-format-15 clang-format; do
    if [ -n "$candidate" ] && command -v "$candidate" >/dev/null 2>&1; then
        cf="$candidate"
        break
    fi
done

if [ -n "$cf" ]; then
    strict="${STRICT_CLANG_FORMAT:-0}"
    diff_seen=0
    for f in $files; do
        if ! "$cf" --dry-run -Werror "$f" >/dev/null 2>&1; then
            if [ "$diff_seen" -eq 0 ]; then
                echo "$cf differences (advisory unless STRICT_CLANG_FORMAT=1):"
                diff_seen=1
            fi
            echo "  $f"
            if [ "$strict" = "1" ]; then
                fail=1
            fi
        fi
    done
    [ "$diff_seen" -eq 0 ] && echo "clang-format ($cf): clean"
else
    echo "clang-format not found; skipped style diff (mechanical checks ran)"
fi

if [ -n "$py_files" ]; then
    if command -v pyflakes >/dev/null 2>&1; then
        if ! pyflakes $py_files; then
            echo "error: pyflakes found problems"
            fail=1
        else
            echo "pyflakes: clean"
        fi
    elif python3 -c 'import pyflakes' >/dev/null 2>&1; then
        if ! python3 -m pyflakes $py_files; then
            echo "error: pyflakes found problems"
            fail=1
        else
            echo "pyflakes: clean"
        fi
    else
        echo "pyflakes not found; skipped python lint"
    fi
fi

if [ "$fail" -ne 0 ]; then
    echo "format check FAILED"
    exit 1
fi
echo "format check passed"
