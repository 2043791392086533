#!/usr/bin/env bash
# Builds the benchmark from source (offline) and runs it. Run from the
# repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/hasco-perfbench" --work-dir "$here/work" "$@"
