#!/usr/bin/env bash
# The tier-1 CI gate. Fully offline: the workspace vendors every
# dependency, so no network access is needed or attempted.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
RUSTFLAGS="-Dwarnings" cargo build --release
cargo test -q

# Every workspace crate's own tests beyond the facade's integration
# tests: kernel-vs-oracle parity (mvp-dsp), the streaming decode against
# its from-scratch oracle and artifact round trips (mvp-asr), the serve
# engine's stream and batch paths (mvp-serve), the lint's rule goldens
# (mvp-lint), and the rest. Under the build step's flags, so a warning
# in test code fails the gate as one in library code does.
RUSTFLAGS="-Dwarnings" cargo test --release -q --workspace

# The serving benchmark is a package of its own; its unit tests compile
# against the mvp-serve API it drives, so an API break fails here.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Served == in-process on every benchmark workload: perfbench recomputes
# each served verdict in-process (int8 auxiliaries, fused verdicts,
# streams with early exit, cache replays) and reports `"correct": false`
# on any mismatch, failed request or workload self-check. Runs are
# untraced, so no timing or stage-ledger reading can fail this step.
perfbench_verdicts() {
    local log workload line
    log=$(mktemp)
    trap 'rm -f "$log"' RETURN
    for workload in oneshot-fresh oneshot-replay stream-early-exit fused-int8; do
        line=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 0 2> "$log" | tail -n 1) || true
        if ! jq -e '.correct == true' <<< "$line" > /dev/null 2>&1; then
            cat "$log" >&2
            echo "perfbench_verdicts: $workload did not read correct: ${line:-no result}" >&2
            return 1
        fi
        echo "perfbench_verdicts: $workload served verdicts equal in-process ones"
    done
}
perfbench_verdicts

# Static-analysis gate: the workspace's own invariants (data-plane Mat
# discipline, serve-path panic freedom via the workspace call graph,
# NaN-safe comparators, allocation-free kernel hot paths, artifact
# schema versioning, ...) enforced by mvp-lint. Deny findings fail the
# build; suppressions require a reason and a known rule name. The run
# also records its own wall time as a bench artifact.
cargo run --release -q -p mvp-lint --bin lint -- --fail-on=deny --bench-out BENCH_lint.json

# API docs: every intra-doc link must resolve and no doc may warn, so a
# deleted or renamed item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Lint self-test: seed an *interprocedural* violation into a linted path
# — a serve entry point whose panic sits one call away, so only the
# call-graph rule can see it — and prove the gate actually fails on it,
# then clean up whatever happens.
lint_smoke() {
    local seeded="crates/serve/src/ci_lint_smoke_seeded.rs"
    trap 'rm -f "$seeded"' RETURN
    printf 'pub fn submit() { seeded_helper(); }\nfn seeded_helper() { panic!("ci lint smoke"); }\n' > "$seeded"
    if cargo run --release -q -p mvp-lint --bin lint -- --fail-on=deny > /dev/null 2>&1; then
        echo "lint_smoke: gate passed with a seeded violation" >&2
        return 1
    fi
    echo "lint_smoke: seeded violation correctly failed the gate"
}
lint_smoke

# Bench gate: run the gated experiments at tiny scale (artifacts go to a
# temp dir, never over the committed BENCH_*.json) and check each
# measured figure against its bound in mvp_bench::gate::GATES: fused vs
# similarity-only AUC, disabled-tracing overhead, vectorized vs scalar
# kernels, int8 acoustic-model speed and agreement (exit status is the
# gate).
cargo run --release -q -p mvp-bench --bin run_all -- --gate

# Collate whatever BENCH_*.json artifacts exist into one trajectory
# table (informational; never fails the gate on missing artifacts).
scripts/bench_summary.sh
