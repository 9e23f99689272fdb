#!/usr/bin/env bash
# Offline tier-1 gate for the readduo workspace.
#
# The workspace has zero external crate dependencies (see Cargo.toml), so
# everything here must succeed with the network unplugged and an empty
# cargo registry cache. Run from the repo root:
#
#   ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# --workspace is required: the repo root is both a workspace and the
# `readduo` facade package, so a bare `cargo build` covers only the facade
# and leaves the bench binaries (fig9, stream_smoke, …) stale or missing.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

# The sweep executor's headline guarantee, run explicitly so a regression
# names itself in CI output: parallel and sequential matrices must produce
# identical reports. The test passes the two pool widths itself.
echo "==> parallel determinism (matrix on pools of 4 and 1)"
cargo test -q --release --test parallel_determinism

# The fault sampler decides most cells from a CDF threshold, the wear
# scan inverts only the cells that can tie for a line's minimum, the
# Zipf sampler's squeeze accepts most candidates without the exact test,
# and the BCH pattern decoder answers patterns of at most t bits without
# decoding; all four must reproduce the always-exact oracles kept in
# tests/proptests.rs bit for bit. A sharded run feeds each channel from
# a varint op log instead of a filtered replay; its round-trip test must
# read back, op for op, what the filter yields. Run these by name so a
# bit-exactness regression names itself in CI output.
echo "==> bit-exact oracles (fault sampler, wear scan, Zipf squeeze, BCH shortcut, op log)"
cargo test -q --release --test proptests -- --exact \
    fault_sampler_matches_inversion_oracle wear_scan_matches_brute_force \
    zipf_squeeze_matches_exact_acceptance_oracle bch_pattern_verdict_matches_full_decode
cargo test -q --release -p readduo-memsim --lib -- --exact \
    shard::tests::op_log_round_trips_every_channel

# The CSVs one fig9 run writes: every simulated figure of the paper.
figs="fig3 fig9 fig10 fig11 fig12 fig13 fig14 fig15"

# Timed smoke run: fig9 at a reduced volume must finish inside a generous
# wall-clock budget and write every figure's CSV. Catches accidental
# serialisation or hot-path regressions (the budget is ~10x the expected
# time on a laptop core) and a figure that silently drops out.
echo "==> timed fig9 smoke (READDUO_INSTR=200000, budget 120 s)"
for fig in $figs; do rm -f "target/experiments/$fig.csv"; done
start=$(date +%s)
READDUO_INSTR=200000 ./target/release/fig9 >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "    fig9 smoke took ${elapsed}s"
if [ "$elapsed" -gt 120 ]; then
    echo "    FAIL: fig9 smoke exceeded the 120 s budget" >&2
    exit 1
fi
for fig in $figs; do
    if [ ! -s "target/experiments/$fig.csv" ]; then
        echo "    FAIL: fig9 smoke wrote no $fig.csv (missing or empty)" >&2
        exit 1
    fi
done

# Streaming memory bound, run by name so a regression names itself in CI
# output: the streaming leg of tests/zero_alloc.rs runs one streamed
# Harness::run at V and at 4V instructions/core, and its peak live heap
# may not grow by more than 1 MiB; a materialised trace would add about
# 7 MB. Then the paper-scale streaming smoke: mcf through every headline
# scheme at 10M instructions/core in streaming mode. The binary asserts
# peak RSS stays under 512 MB, a ceiling against gross blow-ups only (a
# materialised mcf trace at that volume is about 7 MB), and the
# wall-clock budget catches hot-path regressions at the volume the paper
# actually uses.
echo "==> streaming memory bound (zero_alloc: streamed peak heap flat from V to 4V)"
cargo test -q --release --test zero_alloc
echo "==> streaming fig9 smoke (READDUO_INSTR=10000000, budget 300 s)"
start=$(date +%s)
READDUO_INSTR=10000000 ./target/release/stream_smoke
elapsed=$(( $(date +%s) - start ))
echo "    streaming smoke took ${elapsed}s"
if [ "$elapsed" -gt 300 ]; then
    echo "    FAIL: streaming smoke exceeded the 300 s budget" >&2
    exit 1
fi

# Telemetry gate, both directions. (1) Enabled: a fig9 smoke with
# READDUO_TELEMETRY=1 must emit a Chrome trace and a metrics snapshot
# that the in-tree checker accepts, with the escalation events and a
# populated read-latency histogram the paper's read path implies.
# (2) Disabled (the default, as in the timed smoke above): telemetry must
# stay a branch-and-return no-op — tests/telemetry_integration.rs pins
# the bit-for-bit claim, and the fig9 smoke's 120 s budget already bounds
# the wall clock with the hooks compiled in.
echo "==> telemetry gate (READDUO_TELEMETRY=1 fig9 smoke + trace_check)"
ttrace="target/experiments/ci-trace.json"
READDUO_TELEMETRY=1 READDUO_INSTR=50000 \
    READDUO_TRACE_OUT="$ttrace" ./target/release/fig9 >/dev/null
./target/release/trace_check "$ttrace" --metrics "$ttrace.metrics.json" \
    --require read --require scrub --require escalation \
    --require-hist sim.read_latency_ns

# Sharding gate, two directions. (1) Determinism across matrix widths:
# the 8-channel fig9 smoke run with its matrix pool (READDUO_THREADS, one
# workload per task) pinned to one worker and then to four must write
# byte-identical CSV artifacts (all eight figures it reads off the same
# runs) — the pool width may only choose the wall clock, never the
# physics. Each run's channels run one after another inside its task;
# tests/shard_equivalence.rs pins the channel fan-out at pool widths 1, 4
# and the host's parallelism. (2) Telemetry on a multi-channel run must
# emit the per-channel tracks (c0.bank 0, c1.bank 0, …) the sharded
# engine promises.
echo "==> sharding gate (8-channel fig9 smoke, matrix READDUO_THREADS=1 vs =4, budget 180 s)"
start=$(date +%s)
READDUO_INSTR=50000 READDUO_THREADS=1 ./target/release/fig9 --channels 8 >/dev/null
for fig in $figs; do
    cp "target/experiments/$fig.csv" "target/experiments/$fig-8ch-t1.csv"
done
READDUO_INSTR=50000 READDUO_THREADS=4 ./target/release/fig9 --channels 8 >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "    sharded smokes took ${elapsed}s"
for fig in $figs; do
    if ! cmp -s "target/experiments/$fig-8ch-t1.csv" "target/experiments/$fig.csv"; then
        echo "    FAIL: 8-channel $fig CSV differs across thread counts" >&2
        exit 1
    fi
done
if [ "$elapsed" -gt 180 ]; then
    echo "    FAIL: sharded smokes exceeded the 180 s budget" >&2
    exit 1
fi
strace="target/experiments/ci-shard-trace.json"
READDUO_TELEMETRY=1 READDUO_INSTR=20000 \
    READDUO_TRACE_OUT="$strace" ./target/release/fig9 --channels 2 >/dev/null
./target/release/trace_check "$strace" \
    --require-track "c0.bank 0" --require-track "c1.bank 0"

# Perf gate: the exact fig9@10M acceptance configuration (full headline
# matrix, one worker) under a wall-clock budget. The budget is
# generous — several times the post-PR-8 time, and still below the PR 6
# baseline region — so it trips on hot-path catastrophes (accidental
# debug-path work, serialisation, allocation storms), not on container
# noise.
echo "==> perf gate: fig9@10M matrix on one worker (budget 60 s)"
start=$(date +%s)
READDUO_INSTR=10000000 READDUO_THREADS=1 ./target/release/stream_smoke --matrix >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "    fig9@10M matrix took ${elapsed}s"
if [ "$elapsed" -gt 60 ]; then
    echo "    FAIL: fig9@10M matrix exceeded the 60 s budget" >&2
    exit 1
fi

# Seeded fault-injection smoke: the Monte-Carlo cross-validation binary
# asserts empirical line-error rates stay within confidence bounds of the
# analytic model and that the full R-fail → M-retry → ECC-correct →
# corrective-rewrite chain resolves every read with zero silent
# corruptions. 4000 lines per point keeps it a few seconds in release.
# Run twice: the seeded run must replay its stdout and its CSV byte for
# byte (wall-clock timings go to stderr).
echo "==> fault-injection smoke (READDUO_FAULT_MC_LINES=4000, twice + byte-diff)"
fcsv="target/experiments/fault_mc.csv"
READDUO_FAULT_MC_LINES=4000 ./target/release/fault_mc >target/experiments/fault_mc-a.txt
cp "$fcsv" target/experiments/fault_mc-a.csv
READDUO_FAULT_MC_LINES=4000 ./target/release/fault_mc >target/experiments/fault_mc-b.txt
echo "    fault_mc assertions passed"
if ! cmp -s target/experiments/fault_mc-a.txt target/experiments/fault_mc-b.txt; then
    echo "    FAIL: fault_mc stdout differs across identical seeded runs" >&2
    exit 1
fi
if ! cmp -s target/experiments/fault_mc-a.csv "$fcsv"; then
    echo "    FAIL: fault_mc CSV differs across identical seeded runs" >&2
    exit 1
fi

# Endurance gate, two directions. (1) A seeded accelerated-wear sweep
# with the spare pool squeezed to 2 lines must deterministically run it
# dry: at least one row has to report writes that wanted a spare and
# found none (graceful degradation on erasure hints alone), with zero
# silent corruptions anywhere — the binary itself additionally asserts
# the accel=1 rows carry no wear at all. (2) The same run replayed from
# the same seed must produce a byte-identical CSV: the whole ladder —
# lognormal deaths, verify retries, remap order, exhaustion — replays.
echo "==> wear gate (2-spare lifetime sweep, twice + byte-diff, budget 180 s)"
wcsv="target/experiments/lifetime.csv"
start=$(date +%s)
READDUO_SPARE_LINES=2 ./target/release/lifetime >/dev/null
cp "$wcsv" target/experiments/lifetime-wear-a.csv
READDUO_SPARE_LINES=2 ./target/release/lifetime >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "    wear sweeps took ${elapsed}s"
if ! cmp -s target/experiments/lifetime-wear-a.csv "$wcsv"; then
    echo "    FAIL: accelerated-wear CSV differs across identical seeded runs" >&2
    exit 1
fi
if ! awk -F, 'NR > 1 && $8 > 0 { found = 1 } END { exit !found }' "$wcsv"; then
    echo "    FAIL: 2-line spare pool never exhausted under accelerated wear" >&2
    exit 1
fi
if ! awk -F, 'NR > 1 && $10 != 0 { bad = 1 } END { exit bad }' "$wcsv"; then
    echo "    FAIL: silent corruption under accelerated wear" >&2
    exit 1
fi
if [ "$elapsed" -gt 180 ]; then
    echo "    FAIL: wear sweeps exceeded the 180 s budget" >&2
    exit 1
fi

# DRAM-tier gate, two directions. (1) A seeded dram_sweep smoke run
# twice must produce a byte-identical CSV (the tier owns no RNG;
# migration, eviction and writeback order all replay), and the
# threshold-1 rows must actually hit in DRAM — a cold tier would make the
# gate vacuous. (2) Telemetry on a tiered run must emit the dram.hit/
# dram.miss/dram.promote instants the migration path promises.
echo "==> dram gate (seeded sweep twice + byte-diff, budget 180 s)"
dcsv="target/experiments/dram_sweep.csv"
start=$(date +%s)
READDUO_INSTR=50000 ./target/release/dram_sweep >/dev/null
cp "$dcsv" target/experiments/dram-sweep-a.csv
READDUO_INSTR=50000 ./target/release/dram_sweep >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "    dram sweeps took ${elapsed}s"
if ! cmp -s target/experiments/dram-sweep-a.csv "$dcsv"; then
    echo "    FAIL: dram_sweep CSV differs across identical seeded runs" >&2
    exit 1
fi
if ! awk -F, 'NR > 1 && $3 == 1 && $4 > 0 { found = 1 } END { exit !found }' "$dcsv"; then
    echo "    FAIL: DRAM tier never hit at migration threshold 1" >&2
    exit 1
fi
if [ "$elapsed" -gt 180 ]; then
    echo "    FAIL: dram sweeps exceeded the 180 s budget" >&2
    exit 1
fi
dtrace="target/experiments/ci-dram-trace.json"
READDUO_TELEMETRY=1 READDUO_INSTR=50000 \
    READDUO_TRACE_OUT="$dtrace" \
    ./target/release/fig9 --dram-lines 4096 >/dev/null
./target/release/trace_check "$dtrace" \
    --require dram.hit --require dram.miss --require dram.promote

# The benchmark package (benchmark/, its own workspace) calls the
# harness and the device constructors directly; its unit tests pin its
# reports to the harness's, so they also keep it compiling.
echo "==> cargo test --manifest-path benchmark/Cargo.toml"
cargo test --offline --manifest-path benchmark/Cargo.toml -q

# The unit tests above run tiny volumes. The benchmark's own gate checks
# every report of every workload BENCHMARK.json declares, at the default
# seed and volume, against benchmark/reference_digests.txt; one untimed
# pass each (about 16 s on 2 vCPUs) must read correct with none failed.
echo "==> benchmark reference digests (every workload, --reps 1 --trace 0)"
for w in $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do
    if ! line=$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --reps 1 --trace 0 | tail -n 1); then
        echo "    FAIL: benchmark workload $w exited non-zero" >&2
        exit 1
    fi
    if ! grep -Eq '^\{"correct": true, "attempted": [1-9][0-9]*, "failed": 0,' <<<"$line"; then
        echo "    FAIL: benchmark workload $w: $line" >&2
        exit 1
    fi
    echo "    $w: correct"
done

# Rustdoc gate: a doc link to a deleted or private item, an ambiguous
# link, or a citation like [26] that rustdoc reads as a link fails here
# instead of rotting silently.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Clippy ships with rustup toolchains but may be absent in minimal
# containers; the gate is advisory there rather than a hard failure.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --no-deps -- -D warnings"
    cargo clippy --workspace --all-targets --no-deps -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint step"
fi

echo "==> ci.sh: all gates green"
