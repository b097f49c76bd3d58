#!/usr/bin/env bash
# Repository CI gate. Run from the workspace root:
#
#   scripts/ci.sh
#
# Everything is offline: dependencies are the vendored stubs under
# vendor/, so no network access or registry is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== engine determinism (sequential vs parallel 1/2/8)"
cargo test -q -p faults --test parallel_determinism
cargo test -q -p netsim parallel

echo "== sharded engine: golden fingerprints + obs traces at 2/8 shards"
# Gates the AP-sharded engine byte-for-byte against the sequential
# oracle on every golden scenario, plus the single-worker fast paths.
cargo test -q -p netsim sharded
cargo test -q -p abrr-bench --test sharded_determinism

echo "== golden RIB-fingerprint regression (role engines vs recorded)"
# Observability defaults off here, so this doubles as the gate that the
# disabled obs path cannot drift golden results.
cargo test -q -p abrr-bench --test golden_regression

echo "== observability: unit tests + engine trace/metric equivalence"
cargo test -q -p obs
cargo test -q -p abrr-bench --test obs_determinism

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== scale smoke (epoch + sharded, ~15 s)"
cargo build --release -p abrr-bench --bin scale
./target/release/scale --workload churn --threads 2 --prefixes 200 --minutes 1
./target/release/scale --workload failover --threads 2 --prefixes 200 --minutes 1
./target/release/scale --workload churn --engine sharded --threads 2 --prefixes 200 --minutes 1

echo "== tier1-scale smoke (20K prefixes, sharded engine, streamed churn, RSS budget)"
# Exercises the hash-indexed RIB storage and the streaming churn driver
# at a bounded Tier-1 scale: must complete, quiesce, and stay under a
# peak-RSS budget (the compact-storage regression tripwire). The run
# peaks at about 1.4 GB; the budget is about 2x that, below the 2.95 GB
# the per-table binary-trie storage it replaced needed.
TIER1_OUT=$(mktemp)
./target/release/scale --workload churn --engine sharded --threads 2 \
  --prefixes 20000 --minutes 1 --stream --out "$TIER1_OUT"
TIER1_RSS_KB=$(sed -n 's/.*"peak_rss_kb":\([0-9]*\).*/\1/p' "$TIER1_OUT")
TIER1_QUIESCED=$(sed -n 's/.*"quiesced":\(true\|false\).*/\1/p' "$TIER1_OUT")
rm -f "$TIER1_OUT"
TIER1_RSS_BUDGET_KB=2800000 # 2.8 GB
if [ "$TIER1_QUIESCED" != "true" ]; then
  echo "tier1-scale smoke: did not quiesce" >&2
  exit 1
fi
if [ -z "$TIER1_RSS_KB" ] || [ "$TIER1_RSS_KB" -gt "$TIER1_RSS_BUDGET_KB" ]; then
  echo "tier1-scale smoke: peak RSS ${TIER1_RSS_KB:-unknown} kB exceeds budget ${TIER1_RSS_BUDGET_KB} kB" >&2
  exit 1
fi
echo "tier1-scale smoke OK: peak RSS ${TIER1_RSS_KB} kB (budget ${TIER1_RSS_BUDGET_KB} kB)"

echo "== wire mode: codec suites, golden differential sweep, pcap golden, MRT"
# The byte-level wire mode (DESIGN.md §14). Codec round-trip and
# corner-case proptests; every golden scenario in encode-decode-verify
# and bytes-only modes must reproduce struct mode's fingerprints and
# obs traces byte-for-byte on the seq + sharded engines; the pcap dump
# of the small reference scenario must match its blessed golden; the
# MRT reader fixtures must parse/skip exactly as recorded. The codec
# throughput bench must compile (rate itself is recorded out-of-band
# in BENCH_*.json, not timed in CI).
cargo test -q -p bgp-wire
cargo test -q -p abrr-bench --test wire_mode
cargo test -q -p abrr-bench --test pcap_golden
cargo test -q -p workload --test mrt_fixtures
cargo bench -p abrr-bench --bench codec --no-run

echo "== scenario corpus + fixed-seed fuzz smoke"
# Runs every gadget in examples/scenarios/ against its declared oracle
# checks (xfail gadgets must be *caught*), then 25 generated scenarios
# through the full oracle stack; every case's engines_agree oracle
# compares the sequential, epoch-parallel, and AP-sharded engines, and
# its wire oracle re-runs the case in encode-decode-verify wire mode,
# which must match struct mode byte-for-byte.
# Fixed seed: a failure here is a regression in the generator, the
# engines, or the auditors — never flake. Non-zero exit on any bad
# verdict.
cargo build --release -p abrr-bench --bin scenario
./target/release/scenario --dir examples/scenarios --fuzz 25 --seed 2011 \
  --shrink-dir results/shrunk --overlays results/table_overlays.txt

echo "CI OK"
