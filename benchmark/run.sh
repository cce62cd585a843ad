#!/usr/bin/env bash
# Build `isel` and the benchmark, then run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N]
#                    [--trace 0|1 | --traced] [--quick] [--bless]
#
# Run from the repository root. Everything the run writes goes under
# benchmark/out/ and the cargo target directory. Build time is outside
# every metric, `setup_s` included.
set -euo pipefail

here=$(dirname "$0")
root=$here/..
target=${CARGO_TARGET_DIR:-$root/target}
export CARGO_TARGET_DIR=$target

# Quiet on success: stdout carries only the benchmark's own output.
build() {
    local log
    if ! log=$(cargo build --release --offline "$@" 2>&1); then
        printf '%s\n' "$log" >&2
        exit 1
    fi
}
build --manifest-path "$root/Cargo.toml" -p isel-cli
build --manifest-path "$here/Cargo.toml"

# `--traced` is the spelling of `--trace 1` without a value.
args=()
for arg in "$@"; do
    if [[ $arg == --traced ]]; then args+=(--trace 1); else args+=("$arg"); fi
done

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$target/release/bench" \
    --isel "$target/release/isel" \
    --probe "$target/release/probe" \
    --out "$here/out" \
    --golden "$here/golden" \
    --commit "$commit" \
    "${args[@]}"
