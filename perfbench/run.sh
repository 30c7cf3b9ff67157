#!/usr/bin/env bash
# Build the benchmark and the server under test (release, offline), then
# run the benchmark with the given arguments. Build output goes to
# stderr, so standard output carries only the benchmark's results.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
