#!/usr/bin/env bash
# Lines of Rust per crate and for bench/: the total `.rs` lines, and the
# non-test lines, which count each file up to its first top-level
# `#[cfg(test)]` (a whole file when it has none). The last line is the
# crates/ + bench/ total that ROADMAP item 5 tracks. Build output under
# any `target/` directory is not counted. Takes no flags.
set -euo pipefail
cd "$(dirname "$0")/.."

# Print "total non_test" for the .rs files under the given paths.
count() {
    find "$@" -name target -prune -o -name '*.rs' -type f -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { testing = 0 }
            /^#\[cfg\(test\)\]/ { testing = 1 }
            { total++; if (!testing) non_test++ }
            END { printf "%d %d\n", total, non_test }' |
        awk '{ t += $1; n += $2 } END { printf "%d %d\n", t, n }'
}

printf '%-26s %8s %9s\n' "dir" "total" "non-test"
sum_total=0
sum_non_test=0
for dir in crates/*/ bench/; do
    dir="${dir%/}"
    read -r total non_test < <(count "$dir")
    printf '%-26s %8d %9d\n' "$dir" "$total" "$non_test"
    sum_total=$((sum_total + total))
    sum_non_test=$((sum_non_test + non_test))
done
# The simulation driver: one file before it was split into modules.
for dir in crates/core/src crates/core/src/driver*; do
    read -r total non_test < <(count "$dir")
    printf '%-26s %8d %9d\n' "$dir" "$total" "$non_test"
done
printf '%-26s %8d %9d\n' "crates/ + bench/" "$sum_total" "$sum_non_test"
