#!/usr/bin/env bash
# Collates every BENCH_*.json artifact in the repo root into one short
# trajectory table, so a CI log (or a human) can read the performance
# story of the repo at a glance. Informational only: missing or
# unparseable artifacts are reported, never fatal.
set -uo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PY'
import glob
import json
import os

rows = []


def add(artifact, metric, value):
    rows.append((artifact, metric, value))


def summarize_serve(doc):
    by_name = {level.get("name", "?"): level for level in doc}
    for level in doc:
        rates = level.get("shard_cache_hit_rates", [])
        hits = "/".join(f"{r:.0%}" for r in rates)
        add("serve", level.get("name", "?"),
            f"{level.get('throughput_rps', 0):.1f} rps"
            f" answered={level.get('answered', '?')}/{level.get('offered', '?')}"
            f" steals={sum(level.get('steal_counts', []))} hit={hits}")
    x1 = by_name.get("sharded-x1", {}).get("throughput_rps")
    x4 = by_name.get("sharded-x4", {}).get("throughput_rps")
    if x1 and x4:
        add("serve", "4-shard speedup", f"{x4 / x1:.2f}x over 1 shard")


def summarize(path, doc):
    name = os.path.basename(path)
    if name == "BENCH_serve.json" and isinstance(doc, list):
        summarize_serve(doc)
    elif name == "BENCH_artifact.json" and "profiles" in doc:
        speedups = [p.get("speedup", 0) for p in doc["profiles"]]
        add("artifact", f"{len(speedups)} profiles",
            f"warm-load speedup {min(speedups):.0f}x..{max(speedups):.0f}x")
    elif name == "BENCH_dataplane.json" and "per_call_rps" in doc:
        add("dataplane", "transcription",
            f"{doc['per_call_rps']:.0f} rps per-call, "
            f"{doc.get('batch_scratch_rps', 0):.0f} rps batched, "
            f"kernels {doc.get('kernel_speedup', 0):.2f}x scalar")
    elif name == "BENCH_modality.json" and "fused_auc" in doc:
        add("modality", "AUC",
            f"similarity {doc.get('similarity_auc', 0):.4f} -> "
            f"fused {doc['fused_auc']:.4f}")
    elif name == "BENCH_obs.json" and "disabled_span_overhead_pct" in doc:
        add("obs", "disabled tracing",
            f"{doc.get('disabled_span_ns', 0):.1f} ns/site, "
            f"{doc['disabled_span_overhead_pct']:.4f}% of one detection")
    elif name == "BENCH_lint.json" and "graph_nodes" in doc:
        add("lint", "workspace analysis",
            f"{doc.get('files_scanned', 0)} files, "
            f"{doc['graph_nodes']} fns / {doc.get('graph_edges', 0)} edges, "
            f"{doc.get('wall_ms', 0):.0f} ms")
    elif name == "BENCH_quant.json" and "aucs" in doc:
        add("quant", "int8 inference",
            f"AM {doc.get('am_headline_speedup', 0):.2f}x f64 (GCS), "
            f"end-to-end {doc.get('transcribe_speedup', 0):.2f}x, "
            f"benign agreement {doc.get('benign_agreement', 0):.0%}")
        aucs = doc["aucs"]
        add("quant", "ensemble AUC",
            f"precision-only {aucs.get('precision_only', 0):.4f}, "
            f"profile-only {aucs.get('profile_only', 0):.4f}, "
            f"mixed {aucs.get('mixed', 0):.4f}")
    else:
        kind = f"{len(doc)} entries" if isinstance(doc, list) else "object"
        add(name.removeprefix("BENCH_").removesuffix(".json"), kind, "(no summarizer)")


paths = sorted(glob.glob("BENCH_*.json"))
if not paths:
    print("bench summary: no BENCH_*.json artifacts found")
    raise SystemExit(0)

for path in paths:
    try:
        with open(path) as fh:
            summarize(path, json.load(fh))
    except (OSError, json.JSONDecodeError) as err:
        add(os.path.basename(path), "unreadable", str(err))

width_a = max(len(r[0]) for r in rows)
width_m = max(len(r[1]) for r in rows)
print("== bench trajectory ==")
for artifact, metric, value in rows:
    print(f"{artifact:<{width_a}}  {metric:<{width_m}}  {value}")
PY
exit 0
