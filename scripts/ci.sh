#!/usr/bin/env bash
# The tier-1 CI gate. Fully offline: the workspace vendors every
# dependency, so no network access is needed or attempted.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
RUSTFLAGS="-Dwarnings" cargo build --release
cargo test -q

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

# Artifact-plane smoke: train the cheapest profile, persist it, and prove
# a clean load succeeds while a corrupted artifact fails with a typed
# error (exit status is the gate).
cargo run --release -q -p mvp-bench --bin artifact_smoke

# Observability-plane smoke: disabled-tracing overhead must stay under
# 2 % per request, traced detections must emit a valid span forest, and
# every serve verdict must leave a parseable audit record that agrees
# with the metrics exposition (exit status is the gate).
cargo run --release -q -p mvp-bench --bin obs_smoke

# Modality-plane smoke: fit the fused similarity + modality classifier
# at tiny scale and require fused AUC >= the similarity-only baseline,
# plus a FusedClassifier persist round-trip and corruption refusal
# (exit status is the gate; the bench artifact goes to a temp dir).
cargo run --release -q -p mvp-bench --bin modality_smoke

# Kernel-plane smoke: every tuned kernel must agree with its scalar
# oracle (bit-exact or within documented reassociation slack), and
# end-to-end tiny-scale transcription on the vectorized path must not
# lose to the scalar fallback (exit status is the gate).
cargo run --release -q -p mvp-bench --bin kernel_smoke

# Streaming/sharding smoke: a 4-shard router must beat a single engine
# by >= 1.5x at tiny scale (cache affinity, not cores), and a forced
# chunked run must reproduce the one-shot verdict exactly (exit status
# is the gate).
cargo run --release -q -p mvp-bench --bin shard_smoke

# Quantization-plane smoke: the int8 GCS acoustic model must beat f64
# by >= 1.3x (the AM level is where the win physically lives — the MFCC
# frontend dominates end-to-end transcription), the int8 target must
# agree with its f64 parent on tiny-scale benign speech, and a corrupt
# quantized artifact must be refused typed (exit status is the gate).
cargo run --release -q -p mvp-bench --bin quant_smoke

# Collate whatever BENCH_*.json artifacts exist into one trajectory
# table (informational; never fails the gate on missing artifacts).
scripts/bench_summary.sh
