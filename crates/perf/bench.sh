#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: build the shipped binaries and
# the harness from source (a no-op when up to date), then hand every
# argument to `perf`. Run from the root of a checkout.
set -euo pipefail
cargo build --release --offline --bins -p esse -p esse-perf >&2
exec "${CARGO_TARGET_DIR:-target}/release/perf" "$@"
