#!/usr/bin/env bash
# Tier-1 verification gate: hermetic build, full test suite, and lint —
# all with --offline, proving no network/registry access is needed.
# --workspace matters: the root is itself a package, so without it cargo
# would build/test only the root crate, skipping member bins and tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --workspace --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --workspace -q --offline =="
cargo test --workspace -q --offline

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

smoke_json="$(mktemp)"
stats_a="$(mktemp)"
stats_b="$(mktemp)"
stats_inflated="$(mktemp)"
trace_json="$(mktemp)"
autopsy_json="$(mktemp)"
reduce_json="$(mktemp)"
bench_base="$(mktemp)"
bench_rerun="$(mktemp)"
path_json="$(mktemp)"
litmus_base="$(mktemp)"
litmus_rerun="$(mktemp)"
distill_a="$(mktemp)"
distill_b="$(mktemp)"
ptxd_addr="$(mktemp)"
ptxd_stats="$(mktemp)"
ptxd_run_a="$(mktemp)"
ptxd_run_b="$(mktemp)"
ptxd_base="$(mktemp)"
ptxd_rerun="$(mktemp)"
ptxd_access="$(mktemp)"
ptxtop_out="$(mktemp)"
ptxd_pid=""
cleanup() {
    [ -n "$ptxd_pid" ] && kill "$ptxd_pid" 2> /dev/null
    rm -f "$smoke_json" "$stats_a" "$stats_b" "$stats_inflated" "$trace_json" \
        "$autopsy_json" "$reduce_json" "$bench_base" "$bench_rerun" "$path_json" \
        "$litmus_base" "$litmus_rerun" "$distill_a" "$distill_b" \
        "$ptxd_addr" "$ptxd_stats" "$ptxd_run_a" \
        "$ptxd_run_b" "$ptxd_base" "$ptxd_rerun" "$ptxd_access" "$ptxtop_out"
}
trap cleanup EXIT

# Fast incremental-equivalence smoke: at bound 3 fig17_table runs every
# axiom query both from scratch and through a shared session, and exits
# non-zero if any verdict drifts between the two paths. The artifact is
# an obs JSON Lines snapshot with per-path wall times and counters.
echo "== incremental-equivalence smoke (fig17_table 3) =="
cargo run --release --offline -q -p ptxmm-bench --bin fig17_table -- 3 \
    --bench-json "$smoke_json" > /dev/null
grep -q '"kind":"timing","name":"time.bound3.scratch"' "$smoke_json"
grep -q '"kind":"timing","name":"time.bound3.sessions"' "$smoke_json"

# Learnt-DB reduction smoke: a conflict-heavy instance (pigeonhole) with
# a pinned low sweep cadence must actually delete clauses — nonzero
# solver.reduce_sweeps AND solver.deleted_clauses. Guards the LBD
# deletion policy end to end (the pre-PR-6 retention bug showed up as
# these counters silently reading 0).
echo "== learnt-DB reduction smoke (ptxsat --pigeonhole) =="
cargo run --release --offline -q -p ptxmm-satsolver --bin ptxsat -- \
    --pigeonhole 7 --reduce-interval 50 --stats-json "$reduce_json" > /dev/null || {
    status=$?
    # 20 is the conventional UNSAT exit code; anything else is a failure.
    if [ "$status" -ne 20 ]; then
        echo "verify.sh: ptxsat --pigeonhole 7 exited $status (expected UNSAT/20)" >&2
        exit 1
    fi
}
for c in solver.reduce_sweeps solver.deleted_clauses solver.binary_propagations; do
    v="$(sed -n 's/^{"kind":"counter","name":"'"$c"'","value":\([0-9]*\)}$/\1/p' "$reduce_json")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "verify.sh: reduction smoke counter $c missing or zero" >&2
        exit 1
    fi
done

# Benchmark-baseline gate: rerun the cheap bounds and diff their
# counters against the committed BENCH_fig17.json. Counters are
# deterministic for --jobs 1 runs, so any drift means the code no longer
# matches the committed baseline (regenerate it deliberately, not by
# accident). The baseline is filtered to the bounds rerun here because
# bench_diff treats baseline counters missing from the candidate as
# failures.
echo "== bench_diff gate against BENCH_fig17.json (bounds 2 3) =="
cargo run --release --offline -q -p ptxmm-bench --bin fig17_table -- 2 3 \
    --bench-json "$bench_rerun" > /dev/null
grep -E '"name":"(bound[23]|time\.bound[23])\.' BENCH_fig17.json > "$bench_base"
scripts/bench_diff.sh "$bench_base" "$bench_rerun" | tail -1

# Observability smoke: a fixed-seed single-job ptxherd sweep must emit a
# well-formed stats snapshot with nonzero work counters, two identical
# runs must diff clean, and bench_diff.sh must flag a synthetic 2x
# counter inflation — guarding both the stats plumbing and the diff tool.
echo "== obs stats smoke (ptxherd --suite --sat --stats-json) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --stats-json "$stats_a" > /dev/null
if grep -qvE '^\{"kind":"(note|counter|gauge|timing|histogram)","name":"' "$stats_a"; then
    echo "verify.sh: malformed stats record in $stats_a" >&2
    exit 1
fi
for c in solver.propagations solver.conflicts circuit.gates \
         circuit.gate_cache_hits harness.queries \
         sat.symbolic_rf_vars sat.value_bits; do
    v="$(sed -n 's/^{"kind":"counter","name":"'"$c"'","value":\([0-9]*\)}$/\1/p' "$stats_a")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "verify.sh: stats counter $c missing or zero" >&2
        exit 1
    fi
done
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --stats-json "$stats_b" > /dev/null
scripts/bench_diff.sh "$stats_a" "$stats_b" | grep -q "no regressions"
awk -F'"value":' '/^\{"kind":"counter"/ { printf "%s\"value\":%d}\n", $1, 2 * $2 + 1; next } { print }' \
    "$stats_a" > "$stats_inflated"
if scripts/bench_diff.sh "$stats_a" "$stats_inflated" > /dev/null; then
    echo "verify.sh: bench_diff.sh failed to flag a 2x counter inflation" >&2
    exit 1
fi

# Symbolic-path smoke: with the enumeration fallback retired, every PTX
# record in a --sat sweep must report the symbolic path — zero fallback
# markers — while C11 tests keep reporting the enumeration engine.
echo "== symbolic-path smoke (ptxherd --suite --sat --json, zero fallbacks) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --json > "$path_json"
if grep -q 'fallback=enumeration' "$path_json"; then
    echo "verify.sh: enumeration fallback reappeared on the SAT path" >&2
    exit 1
fi
grep -q '"path":"symbolic"' "$path_json"
grep -q '"path":"enumeration"' "$path_json"

# Litmus-benchmark gate: rerun the SAT-path scratch-vs-sessions bench
# over the PTX suite and diff its counters against the committed
# baseline rows (same determinism argument as the fig17 gate above).
echo "== bench_diff gate against BENCH_fig17.json (litmus SAT path) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --bench-json "$litmus_rerun" 2> /dev/null
grep -E '"name":"(litmus|time\.litmus)\.' BENCH_fig17.json > "$litmus_base"
scripts/bench_diff.sh "$litmus_base" "$litmus_rerun" | tail -1

# Model-distinguishing smoke: a small ptxdistill sweep must find at
# least one distinguishing test (every printed line is a synthesized
# test whose verdicts were re-verified under both models on both
# engines — the lifter discards anything that fails the round trip),
# and its stdout must be byte-identical across two runs: the search is
# seeded and the worker pool must not reorder or drop results.
echo "== model-distinguishing smoke (ptxdistill --max-bound 4, deterministic) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxdistill -- \
    --max-bound 4 --witnesses 1 --jobs 2 > "$distill_a" 2> /dev/null
cargo run --release --offline -q -p ptxmm-litmus --bin ptxdistill -- \
    --max-bound 4 --witnesses 1 --jobs 2 > "$distill_b" 2> /dev/null
if ! diff "$distill_a" "$distill_b"; then
    echo "verify.sh: ptxdistill stdout drifted between two identical runs" >&2
    exit 1
fi
if ! grep -qE 'ptx=(Forbid ptx-cumulative=Allow|Allow ptx-cumulative=Forbid)' "$distill_a"; then
    echo "verify.sh: ptxdistill found no distinguishing test at bound 4" >&2
    exit 1
fi
grep -qE 'searched [0-9]+ points to bound 4, lifted [0-9]+ tests, [1-9][0-9]* distinguishing' \
    "$distill_a"

# Synthesized-corpus gate: every checked-in test in litmus/synth/ must
# have a conformance row in litmus/EXPECTED.txt pinning *both* models'
# verdicts (the two-column format the conformance sweep regenerates).
echo "== synthesized-corpus EXPECTED.txt gate =="
for f in litmus/synth/*.litmus; do
    name="$(basename "$f")"
    if ! grep -qE "^synth/$name [^ ]+ expected=[A-Za-z]+ ptx=(observable|never) ptx-cumulative=(observable|never) Ok$" \
        litmus/EXPECTED.txt; then
        echo "verify.sh: litmus/EXPECTED.txt is missing a two-model row for synth/$name" >&2
        exit 1
    fi
done

# ptxd service smoke: start the daemon on an ephemeral port with an
# access log, drive it twice with `ptxherd --server` over five bundled
# litmus files, and check (a) the verdict columns of the two sweeps are
# byte-identical, (b) the second sweep is answered entirely from the
# verdict cache — with ptxtop reading the 100% recent hit ratio and the
# latency percentiles off the live server — (c) SIGTERM drains and
# exits 0 with the final stats flushed, and (d) the access log parses
# with one record per request sent.
echo "== ptxd service smoke (ptxherd --server, warm cache, ptxtop, SIGTERM drain) =="
: > "$ptxd_addr"
: > "$ptxd_access"
./target/release/ptxd --listen 127.0.0.1:0 --port-file "$ptxd_addr" \
    --stats-json "$ptxd_stats" --access-log "$ptxd_access" 2> /dev/null &
ptxd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$ptxd_addr" ] && break
    sleep 0.1
done
if ! [ -s "$ptxd_addr" ]; then
    echo "verify.sh: ptxd did not write its port file" >&2
    exit 1
fi
ptxd_files="litmus/mp.litmus litmus/sb+fences.litmus litmus/lb.litmus \
    litmus/cas.litmus litmus/mp-c11.litmus"
# shellcheck disable=SC2086 # word-splitting the file list is intended
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --server "$(cat "$ptxd_addr")" --json $ptxd_files > "$ptxd_run_a"
# shellcheck disable=SC2086
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --server "$(cat "$ptxd_addr")" --json $ptxd_files > "$ptxd_run_b"
# Strip the per-run fields (timing, cache provenance, solver detail);
# what must be byte-identical is the verdict column: test, verdict,
# timed_out, path.
strip_run_fields() {
    sed 's/,"wall_secs":[^,}]*//; s/,"cached":[a-z]*//; s/,"detail":"[^"]*"//' "$1"
}
if ! diff <(strip_run_fields "$ptxd_run_a") <(strip_run_fields "$ptxd_run_b"); then
    echo "verify.sh: ptxd verdicts drifted between cold and warm sweeps" >&2
    exit 1
fi
if grep -q '"verdict":"FAILED"\|"verdict":"Unknown"' "$ptxd_run_a"; then
    echo "verify.sh: ptxd sweep produced a failing verdict" >&2
    exit 1
fi
warm_hits="$(grep -c '"cached":true' "$ptxd_run_b")"
if [ "$warm_hits" -ne 5 ]; then
    echo "verify.sh: warm ptxd sweep had $warm_hits/5 cache hits" >&2
    exit 1
fi
# One ptxtop frame off the live server: the request rate must be
# nonzero, both latency percentile rows must be present, and with
# --recent 5 the recent cache ratio covers exactly the warm sweep — all
# five of its requests were hits.
./target/release/ptxtop "$(cat "$ptxd_addr")" --once --recent 5 > "$ptxtop_out"
rps="$(sed -n 's/.* rps \([0-9.]*\) .*/\1/p' "$ptxtop_out")"
if [ -z "$rps" ] || ! awk -v r="$rps" 'BEGIN { exit !(r > 0) }'; then
    echo "verify.sh: ptxtop reported no request rate (rps='$rps')" >&2
    cat "$ptxtop_out" >&2
    exit 1
fi
grep -q 'p50' "$ptxtop_out"
grep -q '^queue_wait ' "$ptxtop_out"
grep -q '^solve ' "$ptxtop_out"
if ! grep -q 'recent 100.0% (5/5)' "$ptxtop_out"; then
    echo "verify.sh: ptxtop recent cache ratio is not 100% over the warm sweep" >&2
    cat "$ptxtop_out" >&2
    exit 1
fi
kill -TERM "$ptxd_pid"
if ! wait "$ptxd_pid"; then
    echo "verify.sh: ptxd exited non-zero on SIGTERM" >&2
    exit 1
fi
ptxd_pid=""
for c in ptxd.requests ptxd.cache_hits; do
    v="$(sed -n 's/^{"kind":"counter","name":"'"$c"'","value":\([0-9]*\)}$/\1/p' "$ptxd_stats")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "verify.sh: ptxd drain stats counter $c missing or zero" >&2
        exit 1
    fi
done
# The access log validates with the service's own JSON parser and holds
# exactly one record per run request sent (two sweeps of five).
if ! ./target/release/ptxtop --check-log "$ptxd_access" \
    | grep -q ': 10 records, all parse'; then
    echo "verify.sh: access log did not validate at 10 records" >&2
    ./target/release/ptxtop --check-log "$ptxd_access" >&2 || true
    exit 1
fi

# ptxd-benchmark gate: rerun the service bench (scratch vs cold vs warm
# verdict cache; the binary itself enforces verdict parity across the
# three paths and the 10x warm floor) and diff its deterministic ptxd.*
# counters against the committed baseline rows.
echo "== bench_diff gate against BENCH_fig17.json (ptxd service) =="
./target/release/ptxd --bench-json "$ptxd_rerun" 2> /dev/null
grep -E '"name":"(ptxd|time\.ptxd)\.' BENCH_fig17.json > "$ptxd_base"
scripts/bench_diff.sh "$ptxd_base" "$ptxd_rerun" | tail -1

# Trace smoke: a bound-3 fig17_table run with --trace-out must produce
# a Chrome trace-event JSON file that traceview accepts (traceview's
# parser rejects malformed JSON with a nonzero exit) with the three
# solver phase spans; a ptxherd sweep must tag query spans. traceview
# doubles as the well-formedness checker for both files.
echo "== trace smoke (--trace-out + traceview) =="
cargo run --release --offline -q -p ptxmm-bench --bin fig17_table -- 3 \
    --trace-out "$trace_json" > /dev/null
for span in translate encode solve; do
    if ! grep -q "\"name\":\"$span\"" "$trace_json"; then
        echo "verify.sh: trace is missing the $span span" >&2
        exit 1
    fi
done
cargo run --release --offline -q -p ptxmm-obs --bin traceview -- "$trace_json" \
    | grep -q "top spans by self-time"
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --trace-out "$trace_json" > /dev/null
grep -q '"name":"query:' "$trace_json"
cargo run --release --offline -q -p ptxmm-obs --bin traceview -- "$trace_json" \
    | grep -q "per-query phase attribution"

# Timeout-autopsy smoke: with a zero-second budget every query times out
# and its JSON record must carry a non-empty flight-recorder autopsy
# (events + live counters). ptxherd exits non-zero on timeouts, which is
# expected here.
echo "== timeout-autopsy smoke (ptxherd --timeout-secs 0 --json) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --timeout-secs 0 --json > "$autopsy_json" || true
grep -q '"timed_out":true' "$autopsy_json"
grep -q '"autopsy":{"events":\[{' "$autopsy_json"
grep -q '"counters":{"' "$autopsy_json"

# JSON-escaper dedup: obs::json is the workspace's single escaper; any
# hand-rolled copy (the telltale is emitting a backslash escape with
# push_str) outside it tends to drift on control characters. Keep it so.
echo "== single JSON escaper check =="
if grep -rn 'push_str("\\\\' crates --include='*.rs' | grep -v 'crates/obs/src/json.rs'; then
    echo "verify.sh: hand-rolled JSON escaping outside obs::json (use obs::json::escape_into)" >&2
    exit 1
fi

# Fixed-seed differential-fuzzing smoke: any cross-layer disagreement or
# rejected DRAT certificate makes fuzzherd exit non-zero, printing the
# replayable seed and shrunk case. It only checks for disagreements;
# generator drift is guarded by the draw pins in
# crates/fuzz/tests/draws.rs.
echo "== differential-fuzzing smoke (fuzzherd --rounds 50 --seed 7) =="
cargo run --release --offline -q -p ptxmm-fuzz --bin fuzzherd -- \
    --rounds 50 --seed 7 --jobs 4 --timeout-secs 60

echo "verify.sh: all gates passed."
