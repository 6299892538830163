#!/usr/bin/env bash
# Replays the catalogue of planted bugs: every `*.patch` beside this script
# plants one bug, and the tests its header names must catch it.
#
# A patch's header is the text before its diff, which `git apply` skips.
# Each line of it of the form
#
#   must-fail: <cargo test arguments> <exact test name>
#
# names one test that the plant must fail, for example
# `must-fail: -p aft-core --lib read::tests::latest_version_is_preferred`.
#
# The script copies the working tree (tracked and untracked, not ignored
# files) to a temporary directory once. For each patch it applies the patch
# there with `git apply`, runs each named test alone in debug, and reverts
# the patch. It exits non-zero, naming the patch, if a patch names no test,
# does not apply or does not build, or if a named test passes or matches no
# test.
#
# Usage: tests/mutants/run.sh [PATCH...]   (default: every patch here)
# The build goes to the copy's own target directory unless CARGO_TARGET_DIR
# is set; with it set, successive runs rebuild only what the plants touch.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
if [ $# -gt 0 ]; then
    patches=()
    for patch in "$@"; do patches+=("$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")"); done
else
    patches=("$here"/*.patch)
fi

copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$copy"

failed=()
for patch in "${patches[@]}"; do
    name=$(basename "$patch")
    mapfile -t targets < <(sed -n 's/^must-fail:[[:space:]]*//p' "$patch")
    if [ ${#targets[@]} -eq 0 ]; then
        echo "FAIL $name: names no test"
        failed+=("$name")
        continue
    fi
    if ! (cd "$copy" && git apply "$patch"); then
        echo "FAIL $name: does not apply"
        failed+=("$name")
        continue
    fi
    caught=true
    for target in "${targets[@]}"; do
        read -r -a args <<<"$target"
        test=${args[-1]}
        unset 'args[-1]'
        if ! (cd "$copy" && cargo test -q "${args[@]}" --no-run) >"$copy/build.log" 2>&1; then
            echo "FAIL $name: does not build for $target"
            tail -n 20 "$copy/build.log"
            caught=false
            continue
        fi
        out=$(cd "$copy" && cargo test -q "${args[@]}" -- --exact "$test" 2>&1) || true
        if grep -q '; 1 failed;' <<<"$out"; then
            echo "ok   $name: $test fails"
        else
            echo "FAIL $name: $test does not fail"
            grep 'test result' <<<"$out" || true
            caught=false
        fi
    done
    (cd "$copy" && git apply -R "$patch")
    $caught || failed+=("$name")
done

if [ ${#failed[@]} -gt 0 ]; then
    echo "plants not caught: ${failed[*]}"
    exit 1
fi
echo "all ${#patches[@]} plants caught"
