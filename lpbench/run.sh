#!/usr/bin/env bash
# Builds what lpbench needs from source, then runs it with the given
# arguments. This is the `command` of BENCHMARK.json:
#
#   bash lpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Two builds share one target directory: the repository's workspace
# provides the shared objects the workloads load at run time (the
# preload shim and the openat-only example hook), the benchmark's own
# package provides the binary. Both are no-ops once built.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One absolute target directory for both builds, so the binary lands
# next to the libraries it looks for. The driver names it relative to
# the checkout; a developer running this from a clone gets `target/`.
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$root/target" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Build output goes to stderr: stdout belongs to the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p lazypoline-preload -p hook_openat >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/lpbench" "$@"
