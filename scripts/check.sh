#!/usr/bin/env bash
# Full pre-merge gate: format check, release build, the whole test
# suite (with the observability tests called out explicitly), and a
# warning-free clippy pass. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Opt-in extras: --bench reruns the solver/sweep benches in a scratch
# directory and diffs them against the committed BENCH_*.json
# baselines with bench_compare (fails on a moved count, a timing past
# its tolerance or a floor missed). --chaos runs the robustness smoke gates: the resilient
# sweep runner under deterministic fault injection (zero lost points,
# bit-identical kill/resume) and the Monte-Carlo yield harness
# (injected failures tallied and visible, bit-identical resume).
# --report runs the run-ledger smoke gate: two quick bin runs must
# leave two well-formed manifests, one run_all run must leave exactly
# one more (listing results/report.md), supernpu_report must aggregate
# them cleanly, and a synthetic slowdown must come out flagged
# REGRESSION.
RUN_BENCH=0
RUN_CHAOS=0
RUN_REPORT=0
for arg in "$@"; do
    case "$arg" in
        --bench) RUN_BENCH=1 ;;
        --chaos) RUN_CHAOS=1 ;;
        --report) RUN_REPORT=1 ;;
        *) echo "usage: $0 [--bench] [--chaos] [--report]" >&2; exit 2 ;;
    esac
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== cargo fmt --all -- --check =="
cargo fmt --all -- --check

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== cargo test -q -p sfq-obs =="
# Includes the switch's table-driven parse of the observability
# variables and one sfq_obs::region feeding all three sinks.
cargo test -q -p sfq-obs

echo "== cargo test -q --test observability =="
# Includes the disabled-path check: with every sink off, gated helpers
# and sfq_obs::region must leave the registry untouched and register
# no trace sink or profile tree.
cargo test -q --test observability

echo "== cargo test -q --test tracing =="
# Includes the disabled-path check: with SUPERNPU_TRACE unset the
# trace helpers and an sfq_obs::region must register no sinks and
# record no events.
cargo test -q --test tracing

echo "== cargo test -q --test profiling =="
# Includes the disabled-path check: with SUPERNPU_PROFILE unset the
# profiler helpers and an sfq_obs::region must register no thread
# trees and record nothing, and the fig20 sweep must be bit-identical
# with profiling on.
cargo test -q --test profiling

echo "== cargo test -q -p supernpu-bench --test artifact_outputs =="
# Byte-for-byte artifact gate: the stdout of all 20 artifact binaries
# and of run_all (default threads and one thread) against committed
# FNV-1a digests, the written results/*.csv and results/report.md
# against the committed files, and one ledger manifest per run_all.
cargo test -q -p supernpu-bench --test artifact_outputs

echo "== committed bench baselines =="
# Every committed BENCH_*.json must parse as a bench report and pass
# the gate against itself: no benchmark runs, so this takes seconds.
# It catches a baseline the gate cannot read and a timing tolerance
# that admits twice its baseline.
for baseline in BENCH_*.json; do
    target/release/bench_compare --baseline "$baseline" --fresh "$baseline" >/dev/null
done

echo "== profiling smoke gate =="
# Tiny profiled workload: the collapsed-stack export must be non-empty
# and the kernel report must re-parse through the bench gate (a
# self-compare). profile_report itself exits nonzero unless the
# disabled path recorded zero frames before the profiler was enabled.
cargo build --release -p supernpu-bench \
    --bin profile_report --bin bench_compare --bin bench_batch
target/release/profile_report --smoke \
    --out "$tmp/profile.json" --bench-out "$tmp/BENCH_profile.json" >/dev/null
test -s "$tmp/profile.folded" || { echo "profiling smoke: empty profile.folded" >&2; exit 1; }
target/release/bench_compare \
    --baseline "$tmp/BENCH_profile.json" --fresh "$tmp/BENCH_profile.json" >/dev/null

echo "== batch smoke gate =="
# Shrunken batched-vs-scalar run: outcome identity and pulse-time
# equivalence are hard-checked inside bench_batch (the speedup floor
# only binds on full runs); the emitted report must re-parse through
# the bench gate (a self-compare).
target/release/bench_batch --smoke --out "$tmp/BENCH_batch.json" >/dev/null
target/release/bench_compare \
    --baseline "$tmp/BENCH_batch.json" --fresh "$tmp/BENCH_batch.json" >/dev/null

echo "== batch SIMD codegen check =="
# The lane LU factor kernel must compile to packed SSE arithmetic on
# x86_64 release builds — the whole point of the [f64; LANES] layout.
# The band LU is generic over the lane count; its LANES-wide
# instantiation is inlined into the one `#[inline(never)]` symbol
# jjsim::linalg::factor_band_lanes. The pattern matches exactly that
# symbol's mangled name, so the one-lane instantiation (which has no
# packed ops) can never stand in for it. Skipped where objdump is
# missing or the target is not x86_64.
if command -v objdump >/dev/null && [[ "$(uname -m)" == "x86_64" ]]; then
    # (awk must read to EOF — an early exit would SIGPIPE objdump
    # under `set -o pipefail`.)
    factor_asm="$(objdump -d target/release/bench_batch \
        | awk '/^[0-9a-f]+ <_ZN5jjsim6linalg17factor_band_lanes17h[0-9a-f]+E>:/{f=1} f&&/^$/{f=0} f{print}')"
    if [[ -z "$factor_asm" ]]; then
        echo "batch SIMD check: factor_band_lanes symbol not found" >&2
        exit 1
    fi
    if ! grep -Eq 'mulpd|subpd|divpd|vfmadd.*pd' <<<"$factor_asm"; then
        echo "batch SIMD check: no packed double ops in factor_band_lanes" >&2
        exit 1
    fi
else
    echo "(skipped: objdump or x86_64 unavailable)"
fi

echo "== trace example end-to-end =="
# The example writes a Chrome trace and exits nonzero unless the file
# re-parses with every required field and track family present: pool
# worker tracks, a jjsim solver slice, an explore sweep slice and the
# npusim cycle tracks.
SUPERNPU_TRACE="$tmp/trace.json" cargo run --release --example trace

echo "== end-to-end output check (bench_e2e at its golden seed) =="
# Whole-output conformance: the end-to-end benchmark digests every
# simulated statistic of its passes and compares them with the golden
# records committed in bench_e2e/golden/ (paper: all 20 run_all
# artifacts; dse: the estimator and npusim path; mc_yield: every
# sample's Monte-Carlo outcome on the lane-batched path). Seed 1 is
# the golden seed and --seconds 0 runs only the minimum pass count.
# The benchmark exits 0 either way, so gate on its last line, a JSON
# summary.
for workload in paper dse mc_yield; do
    summary="$(cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 | tail -n 1)"
    if ! grep -Eq '"correct": true, .*"failed": 0,' <<<"$summary"; then
        echo "bench_e2e $workload: output check failed: $summary" >&2
        exit 1
    fi
done

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (library unwrap/expect gate) =="
# Library code must not unwrap/expect on fallible paths: failures are
# typed (SimError, ConfigError, FaultError) or explicit panics with a
# documented invariant. Tests, benches and the experiment binaries are
# exempt (--lib only checks library targets).
cargo clippy --workspace --lib -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== cargo clippy (bench-binary unwrap/expect gate) =="
# The experiment binaries held the last bare unwraps on I/O paths;
# they now route through report::{die, write_report}, and this gate
# keeps it that way.
cargo clippy -p supernpu-bench --bins -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

if [[ $RUN_CHAOS -eq 1 ]]; then
    echo "== chaos smoke gate (--chaos) =="
    # Shrunken robustness run: chaos-injected panics/timeouts/stalls
    # must leave zero lost points (and the chaos seed must inject a
    # panic and a timeout at all). The resume check is deterministic:
    # a full fig20 checkpoint cut to its first half is resumed under a
    # pre-cancelled token, which must cancel at least one point, then
    # resumed clean, which must restore at least one point and
    # reproduce the uninterrupted sweep byte-for-byte. bench_robust
    # itself exits nonzero on any violated invariant; the emitted
    # report must re-parse through the bench gate (a self-compare).
    cargo build --release -p supernpu-bench \
        --bin bench_robust --bin bench_compare --bin bench_faults
    repo="$(pwd)"
    (cd "$tmp" && "$repo/target/release/bench_robust" --smoke >/dev/null)
    target/release/bench_compare \
        --baseline "$tmp/BENCH_robust.json" --fresh "$tmp/BENCH_robust.json" >/dev/null
    # Monte-Carlo yield curves under injected failures, at the default
    # configuration: bench_faults exits nonzero on a tally that misses
    # a sample, injected failures missing from the metrics, or a
    # resume from a cut checkpoint that is not bit-identical; every
    # tally must equal the committed baseline's.
    (cd "$tmp" && "$repo/target/release/bench_faults" >/dev/null)
    target/release/bench_compare \
        --baseline BENCH_faults.json --fresh "$tmp/BENCH_faults.json" >/dev/null
fi

if [[ $RUN_REPORT -eq 1 ]]; then
    echo "== run-ledger smoke gate (--report) =="
    # Two quick runs of the same bin against a scratch ledger must
    # leave two well-formed manifests plus two jsonl lines, and
    # supernpu_report must join them into a trend group. Then a
    # synthetic two-run fixture with a huge slowdown must come out
    # flagged with the literal REGRESSION marker.
    cargo build --release -p supernpu-bench --bin table1_setup --bin run_all --bin supernpu_report
    repo="$(pwd)"
    ledger="$tmp/ledger"
    (cd "$tmp" && SUPERNPU_LEDGER="$ledger" "$repo/target/release/table1_setup" >/dev/null)
    (cd "$tmp" && SUPERNPU_LEDGER="$ledger" "$repo/target/release/table1_setup" >/dev/null)
    manifests="$(find "$ledger" -name 'table1_setup-*.json' | wc -l)"
    if [[ "$manifests" -ne 2 ]]; then
        echo "ledger smoke: expected 2 manifests, found $manifests" >&2
        exit 1
    fi
    lines="$(wc -l < "$ledger/ledger.jsonl")"
    if [[ "$lines" -ne 2 ]]; then
        echo "ledger smoke: expected 2 ledger.jsonl lines, found $lines" >&2
        exit 1
    fi
    # run_all regenerates every artifact in one process: exactly one
    # new manifest, and it lists the report it wrote.
    (cd "$tmp" && SUPERNPU_LEDGER="$ledger" "$repo/target/release/run_all" >/dev/null)
    manifests="$(find "$ledger" -name '*.json' | wc -l)"
    run_all_manifest="$(find "$ledger" -name 'run_all-*.json')"
    if [[ "$manifests" -ne 3 || "$(wc -l <<<"$run_all_manifest")" -ne 1 ]]; then
        echo "ledger smoke: run_all left $((manifests - 2)) new manifests, expected 1" >&2
        exit 1
    fi
    grep -q '"results/report.md"' "$run_all_manifest" || {
        echo "ledger smoke: run_all manifest does not list results/report.md" >&2
        exit 1
    }
    target/release/supernpu_report --ledger "$ledger" --out "$tmp" >/dev/null
    grep -q 'table1_setup' "$tmp/report.md" || {
        echo "ledger smoke: report.md has no table1_setup trend" >&2
        exit 1
    }
    # Synthetic regression: same bin and knobs, 100 ms -> 60000 ms.
    mkdir -p "$tmp/regress"
    for run in '1, "duration_ms": 100.0' '2, "duration_ms": 60000.0'; do
        printf '%s\n' "{\"schema_version\": 1, \"bin\": \"slow_bin\", \"seq\": ${run}, \
\"args\": [], \"env\": [], \"threads\": 1, \"chunk\": 0, \"lanes\": 4, \"seeds\": [], \
\"cargo_profile\": \"release\", \"target\": \"x86_64-linux\", \"outcome\": \"Ok\", \
\"cache_hits\": 0, \"cache_misses\": 0, \"artifacts\": []}" >> "$tmp/regress/ledger.jsonl"
    done
    target/release/supernpu_report \
        --ledger "$tmp/regress" --out "$tmp/regress" --bench-dir "$tmp/regress" >/dev/null
    grep -q 'REGRESSION' "$tmp/regress/report.md" || {
        echo "ledger smoke: synthetic slowdown not flagged REGRESSION" >&2
        exit 1
    }
fi

if [[ $RUN_BENCH -eq 1 ]]; then
    echo "== bench-regression gate (--bench) =="
    cargo build --release -p supernpu-bench \
        --bin bench_solver --bin bench_sweeps --bin bench_compare --bin profile_report \
        --bin bench_batch --bin bench_robust
    repo="$(pwd)"
    (cd "$tmp" && "$repo/target/release/bench_solver" >/dev/null)
    # --points adds the granularity stress sweep: 1e5 synthetic design
    # points over a thread ladder. bench_sweeps itself hard-fails if
    # any rung's output diverges from serial or, where its two-thread
    # spin probe shows two threads running at once, its speedup misses
    # 0.8x the effective core count; bench_compare re-checks the
    # recorded floors against the committed baseline.
    # The probe line, each speed-up and each rung floor are echoed, so
    # a red run shows what the host's two threads delivered.
    (cd "$tmp" && "$repo/target/release/bench_sweeps" --points 100000 \
        | grep -E 'probe|speedup|floors')
    target/release/bench_compare \
        --baseline BENCH_solver.json --fresh "$tmp/BENCH_solver.json"
    target/release/bench_compare \
        --baseline BENCH_sweeps.json --fresh "$tmp/BENCH_sweeps.json"
    # Full profiled workload: enforces the >=92% solver-kernel
    # self-time coverage floor; bench_compare holds kernel call counts
    # and the gated kernel self-times to the committed baseline.
    target/release/profile_report \
        --out "$tmp/profile_full.json" --bench-out "$tmp/BENCH_profile.json" >/dev/null
    target/release/bench_compare \
        --baseline BENCH_profile.json --fresh "$tmp/BENCH_profile.json"
    # Full batched-vs-scalar run: bench_batch itself hard-fails if the
    # yield workload's SIMD speedup misses its recorded floor or any
    # outcome diverges from the scalar path; bench_compare re-checks
    # against the committed baseline.
    (cd "$tmp" && "$repo/target/release/bench_batch" >/dev/null)
    target/release/bench_compare \
        --baseline BENCH_batch.json --fresh "$tmp/BENCH_batch.json"
    # Full robustness run: bench_robust hard-fails internally on any
    # lost point, a chaos seed that injects nothing, or a non-identical
    # resume; bench_compare re-checks against the committed baseline.
    (cd "$tmp" && "$repo/target/release/bench_robust" >/dev/null)
    target/release/bench_compare \
        --baseline BENCH_robust.json --fresh "$tmp/BENCH_robust.json"
fi

echo "All checks passed."
