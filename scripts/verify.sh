#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 suite.
# Run from the repository root. Everything here works offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, deny warnings)"
cargo clippy --workspace -- -D warnings

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== tier-1: zero-alloc scheduler steady state (alloc-count)"
cargo test -q -p ctms-sim --features alloc-count --test zero_alloc

echo "== tier-1: zero-alloc sharded steady state (both window modes + optimistic)"
cargo test -q -p ctms-sim --features alloc-count --test zero_alloc_sharded

echo "== tier-1: sharded scheduler parity (golden digests at 1/2/4 shards)"
cargo test -q --test determinism sharded_harness_shares_the_golden_truth

echo "== tier-1: checkpoint parity (byte-identical resume, any shard count)"
cargo test -q --test checkpoint

echo "== tier-1: topology parity (tree/mesh/fddi golden truth at 1/2/4 shards)"
cargo test -q --test determinism topology_variants_share_the_golden_truth

echo "== tier-1: adaptive-vs-fixed window parity (chain/tree/mesh/fddi at 1/2/4 shards)"
cargo test -q --test determinism window_modes_share_the_golden_truth

echo "== tier-1: profitability gate (dense shapes demote in place, byte-identical; sparse stay sharded)"
cargo test -q --test determinism profitability_gate_demotes_dense_shapes_in_place

echo "== tier-1: optimistic execution parity (golden truth; rollback+replay exercised)"
cargo test -q --test determinism optimistic_mode_shares_the_golden_truth
cargo test -q -p ctms-sim straggler

echo "== ctms-serve smoke (typed error kinds + hostile input + optimistic session parity)"
cargo test -q -p ctms-bench --lib serve
cargo test -q --test serve
cons_out=$(printf '%s\n' \
  '{"scenario":"chain","rings":8,"shards":2}' \
  '{"cmd":"run","until_ms":50}' \
  '{"cmd":"telemetry"}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
opt_out=$(printf '%s\n' \
  '{"scenario":"chain","rings":8,"shards":2,"exec":"optimistic"}' \
  '{"cmd":"run","until_ms":50}' \
  '{"cmd":"telemetry"}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
[ "$cons_out" = "$opt_out" ] \
  || { echo "serve smoke: optimistic session diverged from conservative" >&2; exit 1; }

echo "== ctms-serve smoke (session, run, checkpoint/restore round trip)"
serve_out=$(printf '%s\n' \
  '{"scenario":"case_a","seed":42}' \
  '{"cmd":"run","until_ms":1000}' \
  '{"cmd":"checkpoint"}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
ckpt=$(printf '%s' "$serve_out" | sed -n 's/.*"checkpoint":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ckpt" ] || { echo "serve smoke: no checkpoint in output" >&2; exit 1; }
printf '%s\n' \
  '{"scenario":"case_a","seed":42}' \
  "{\"cmd\":\"restore\",\"checkpoint\":\"$ckpt\"}" \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve \
  | grep -q '"event":"restored","now_ms":1000' \
  || { echo "serve smoke: restore did not land at 1000 ms" >&2; exit 1; }

echo "== ctms-serve smoke (streamed checkpoint chunks concatenate to the monolithic hex)"
stream_out=$(printf '%s\n' \
  '{"scenario":"chain","rings":8,"shards":2}' \
  '{"cmd":"run","until_ms":200}' \
  '{"cmd":"checkpoint"}' \
  '{"cmd":"checkpoint_stream"}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
mono=$(printf '%s' "$stream_out" | sed -n 's/.*"checkpoint":"\([0-9a-f]*\)".*/\1/p')
chunks=$(printf '%s' "$stream_out" \
  | sed -n 's/.*"event":"checkpoint_chunk".*"data":"\([0-9a-f]*\)".*/\1/p' \
  | tr -d '\n')
[ -n "$mono" ] || { echo "serve smoke: no monolithic checkpoint hex" >&2; exit 1; }
[ "$chunks" = "$mono" ] \
  || { echo "serve smoke: streamed chunks do not concatenate to the checkpoint hex" >&2; exit 1; }
printf '%s' "$stream_out" | grep -q '"event":"checkpoint_done"' \
  || { echo "serve smoke: missing checkpoint_done line" >&2; exit 1; }

echo "== perf smoke (report-only, compares against checked-in BENCH_PR4.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --compare BENCH_PR4.json

echo "== sharded perf smoke (parity-asserting, report-only vs BENCH_PR5.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --shards 4 --rings 32 --compare BENCH_PR5.json

echo "== topology perf smoke (tree+mesh+fddi parity at 1 and 4 shards, vs BENCH_PR7.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --shards 4 --rings 32 \
  --topology tree:16 --topology mesh:12 --topology fddi:8 \
  --compare BENCH_PR7.json

echo "== profitability perf smoke (fddi/32 falls back to 1 effective shard, tree/1024 keeps 2)"
gate_json=$(mktemp)
cargo run --release -q -p ctms-bench --bin perf -- \
  --quick --shards 2 --topology fddi:32 --topology tree:1024 --json "$gate_json"
python3 - "$gate_json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
eff = {t["shape"]: t["sharded"][0]["effective_shards"] for t in report["topologies"]}
assert eff == {"fddi": 1, "tree": 2}, f"effective shards {eff}, want fddi 1 and tree 2"
PY
rm -f "$gate_json"

echo "== adaptive perf smoke (report-only: adaptive + fixed ablation, parity-asserting)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --shards 4 --rings 32 --adaptive

echo "== optimistic perf smoke (report-only: speculation ablation, parity-asserting, vs BENCH_PR9.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --shards 4 --rings 32 --adaptive --optimistic --compare BENCH_PR9.json

echo "== scale perf smoke (capacity section at small N: build, streamed-checkpoint parity at 1/2/4 shards, vs BENCH_PR10.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --scale --compare BENCH_PR10.json

echo "== bench_trend selftest (malformed reports, incl. topology section, must fail)"
python3 scripts/bench_trend.py --selftest

echo "verify: OK"
