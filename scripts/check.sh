#!/usr/bin/env bash
# Full local gate: the roadmap's tier-1 check (release build + tests), the
# benchmark harness's own tests, and the lint ratchet. The workspace has no
# external crates, so everything runs `--offline` with an empty registry.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
bash bench/run.sh --self-test
cargo clippy --offline --all-targets -- -D warnings
