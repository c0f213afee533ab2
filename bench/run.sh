#!/usr/bin/env bash
# The repository benchmark: build offline, then hand every argument to the
# harness binary. See bench/README.md for the modes.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1   one measured run, one JSON line
#   bench/run.sh [--quick] [--sets N] [--workload W] [--seed N]  full report into bench/out/
#   bench/run.sh --compare A.json B.json                         verdict per metric and workload
#   bench/run.sh --self-test                                     the harness's own unit tests
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
target="${CARGO_TARGET_DIR:-$bench_dir/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

if [[ ! -d "$root/crates" ]]; then
    echo "bench: no crates/ beside bench/: there is no program to build and measure" >&2
    exit 1
fi

stage="$target/stage"
stamp="$target/perfbench.stamp"
# Where the last build succeeded: bench/ itself, or its copy in the stage.
built="$bench_dir"

# Everything the binary is built from. A missing `crates/` is an error the
# build reports itself.
sources() {
    find "$root/Cargo.toml" "$root/crates" "$bench_dir/Cargo.toml" "$bench_dir/Cargo.lock" \
        "$bench_dir/src" "$bench_dir/offline" -type f "$@" 2>/dev/null
}

# Compiler output goes to a log that is shown only when the build fails.
build() {
    cargo build --release --offline --manifest-path "$1/Cargo.toml" >"$2" 2>&1
}

# The tree as it is first. Only when that fails: stage a copy of `crates/`,
# apply the compile-only fix-ups that still apply, and build against the
# copy. Once the tree compiles by itself the stage is never created.
build_all() {
    mkdir -p "$target"
    if build "$bench_dir" "$target/build-tree.log"; then
        rm -rf "$stage"
        fixups=0
        return
    fi
    echo "bench: the tree does not compile as is (log: $target/build-tree.log); staging fix-ups" >&2
    rm -rf "$stage"
    mkdir -p "$stage/bench"
    # Modification times are kept, and given back to patched files, so that
    # Cargo rebuilds in the stage only what changed in the tree.
    cp -rp "$root/crates" "$stage/crates"
    cp -p "$root/Cargo.toml" "$root/BENCHMARK.json" "$stage/"
    cp -rp "$bench_dir/Cargo.toml" "$bench_dir/Cargo.lock" "$bench_dir/src" "$bench_dir/offline" "$stage/bench/"
    local p f
    for p in "$bench_dir"/offline/fixups/*.patch; do
        if patch -d "$stage" -p1 -N -s --dry-run <"$p" >/dev/null 2>&1; then
            patch -d "$stage" -p1 -N -s <"$p" >&2
            f="$(sed -n 's|^+++ b/||p' "$p")"
            touch -r "$root/$f" "$stage/$f"
            fixups=$((fixups + 1))
        else
            echo "bench: fix-up $(basename "$p") no longer applies; skipped" >&2
        fi
    done
    if ! build "$stage/bench" "$target/build-stage.log"; then
        cat "$target/build-stage.log" >&2
        exit 1
    fi
    built="$stage/bench"
}

if [[ "${1:-}" == "--self-test" ]]; then
    fixups=0
    build_all
    exec cargo test --offline -p sapsim-perfbench -p rand --manifest-path "$built/Cargo.toml"
fi

if [[ -f "$stamp" && -x "$target/release/sapsim-perfbench" && -z "$(sources -newer "$stamp" | head -1)" ]]; then
    fixups="$(cat "$stamp")"
else
    rm -f "$stamp"
    fixups=0
    build_all
    echo "$fixups" >"$stamp"
fi

cd "$root"
exec "$target/release/sapsim-perfbench" --build-fixups "$fixups" "$@"
