#!/bin/sh
# Smoke run on the shrunken fixtures: every workload once untraced and once
# traced, all answers checked. Under 20 s once built; wire it into CI as is.
set -eu
cd "$(dirname "$0")/.."
run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --smoke --seed 1 "$@"
}
run
run --trace
