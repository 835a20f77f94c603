#!/bin/sh
# List the libvia functions that no program keeps.
#
# Usage: tools/unreferenced_functions.sh SCRATCH_DIR [LIST]
#
# Builds, in SCRATCH_DIR, the tools, bench harnesses and examples of
# the repository root and perfbench_iter from perfbench/, all at -O0
# with -ffunction-sections and linked with --gc-sections, so each
# program keeps exactly the functions it can reach. Prints, one per
# line and sorted, the demangled name of every global function
# defined in libvia.a that none of those programs keeps. Functions
# only the gtest suite reaches are on the list: test oracles and
# fixtures, or code that should go.
#
# With LIST (tools/goldens/unreferenced.txt: a demangled name, a
# tab and the reason it stays, one function per line), exits 1 and
# names every function that is on one side only. JOBS sets the build
# parallelism (default: the number of processors).

set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 SCRATCH_DIR [LIST]" >&2
    exit 2
fi
scratch=$1
list=${2:-}
root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(nproc)}
export LC_ALL=C

configure() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
        -DCMAKE_CXX_FLAGS=-ffunction-sections \
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
}

# The programs: every add_executable of tools/, every harness of
# bench/ (one per .cc but common.cc) and every example.
programs=""
for t in $(sed -n 's/^add_executable(\([a-z0-9_]*\) .*/\1/p' \
               "$root/tools/CMakeLists.txt"); do
    programs="$programs tools/$t"
done
for f in "$root"/bench/*.cc; do
    name=$(basename "$f" .cc)
    [ "$name" = common ] || programs="$programs bench/$name"
done
for f in "$root"/examples/*.cpp; do
    programs="$programs examples/example_$(basename "$f" .cpp)"
done

configure "$root" "$scratch/root"
targets=""
for p in $programs; do
    targets="$targets $(basename "$p")"
done
# shellcheck disable=SC2086 # one target per word
cmake --build "$scratch/root" -j "$jobs" --target $targets >/dev/null
configure "$root/perfbench" "$scratch/perfbench"
cmake --build "$scratch/perfbench" -j "$jobs" --target perfbench_iter \
    >/dev/null

nm --defined-only -g "$scratch/root/src/libvia.a" 2>/dev/null |
    awk '$2 == "T" { print $3 }' | sort -u >"$scratch/library.txt"
for p in $programs; do
    nm --defined-only "$scratch/root/$p"
done >"$scratch/kept_raw.txt"
nm --defined-only "$scratch/perfbench/perfbench_iter" \
    >>"$scratch/kept_raw.txt"
awk '$2 == "T" || $2 == "t" { print $3 }' "$scratch/kept_raw.txt" |
    sort -u >"$scratch/kept.txt"
comm -23 "$scratch/library.txt" "$scratch/kept.txt" | c++filt |
    sort >"$scratch/unreferenced.txt"

cat "$scratch/unreferenced.txt"
[ -n "$list" ] || exit 0

grep -v '^$' "$list" | cut -f1 | sort >"$scratch/listed.txt"
status=0
comm -23 "$scratch/unreferenced.txt" "$scratch/listed.txt" \
    >"$scratch/only_found.txt"
comm -13 "$scratch/unreferenced.txt" "$scratch/listed.txt" \
    >"$scratch/only_listed.txt"
while IFS= read -r name; do
    echo "not in $list, but no program keeps it: $name" >&2
    status=1
done <"$scratch/only_found.txt"
while IFS= read -r name; do
    echo "in $list, but a program keeps it or it is gone: $name" >&2
    status=1
done <"$scratch/only_listed.txt"
if [ "$status" -eq 0 ]; then
    echo "$(wc -l <"$scratch/listed.txt") unreferenced functions," \
         "all listed in $list" >&2
fi
exit "$status"
