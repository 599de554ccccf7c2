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
# (mvp-lint), and the rest.
cargo test --release -q --workspace

# The serving benchmark is a package of its own; its unit tests compile
# against the mvp-serve API it drives, so an API break fails here.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Static-analysis gate: the workspace's own invariants (data-plane Mat
# discipline, serve-path panic freedom via the workspace call graph,
# NaN-safe comparators, allocation-free kernel hot paths, artifact
# schema versioning, ...) enforced by mvp-lint. Deny findings fail the
# build; suppressions require a reason and a known rule name. The run
# also records its own wall time as a bench artifact.
cargo run --release -q -p mvp-lint --bin lint -- --fail-on=deny --bench-out BENCH_lint.json

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
# similarity-only AUC, 4-shard scaling, disabled-tracing overhead,
# vectorized vs scalar kernels, int8 acoustic-model speed and agreement
# (exit status is the gate).
cargo run --release -q -p mvp-bench --bin run_all -- --gate

# Collate whatever BENCH_*.json artifacts exist into one trajectory
# table (informational; never fails the gate on missing artifacts).
scripts/bench_summary.sh
