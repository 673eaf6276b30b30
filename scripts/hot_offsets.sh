#!/bin/sh
# Where each replay hot function starts, modulo 64 bytes, in each
# BINARY (e.g. two builds' swan executables). A change that leaves the
# replay's instructions alone can still move these entry points across
# 64-byte boundaries and shift a replay benchmark by a few percent, so
# compare both commits' offsets whenever a replay change measures
# within noise (ROADMAP item 2). A function without a symbol of its
# own was inlined into its callers and reads "absent"; compiler clones
# other than .cold (.constprop, .isra) get a line of their own.
#
#   usage: scripts/hot_offsets.sh BINARY...
set -eu

if [ $# -eq 0 ]; then
    echo "usage: $0 BINARY..." >&2
    exit 2
fi

for bin in "$@"; do
    syms=$(nm -C --defined-only "$bin")
    echo "$bin"
    for f in \
        'sim::CoreModel::findIssueSlot(' \
        'sim::CoreModel::stepBlock<true>(' \
        'sim::CoreModel::stepBlock<false>(' \
        'sim::CoreModel::replayPass(' \
        'sim::CoreModel::walkCaches(' \
        'sim::Cache::access(' \
        'sim::MemTiming::load(' \
        'PackedTrace::Cursor::nextBatch('; do
        name=${f%\(}
        name=${name#*::}
        found=$(printf '%s\n' "$syms" | grep -F -- "$f" |
            grep -v -F '[clone .cold]' |
            awk -v name="$name" '
                function hex(c) { return index("0123456789abcdef", c) - 1 }
                {
                    clone = ""
                    if (match($0, /\[clone .*$/))
                        clone = " " substr($0, RSTART)
                    # The last two hex digits decide the offset.
                    n = length($1)
                    hi = hex(substr($1, n - 1, 1))
                    off = (hi * 16 + hex(substr($1, n, 1))) % 64
                    printf "  %-34s %d\n", name clone, off
                }')
        if [ -n "$found" ]; then
            printf '%s\n' "$found"
        else
            printf '  %-34s absent\n' "$name"
        fi
    done
done
