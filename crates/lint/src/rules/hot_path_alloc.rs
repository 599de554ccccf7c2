//! `hot-path-alloc`: no heap allocation reachable from the scratch-plan
//! `*_into` functions or the kernel-plane entry points.
//!
//! PR 7 introduced the scratch-buffer convention: every per-frame
//! numeric routine has a `*_into(..., scratch)` form that writes into
//! caller-owned storage, precisely so the steady-state pipeline
//! allocates nothing. An allocation smuggled three calls below a
//! `*_into` fn silently un-does that contract — the benchmark numbers
//! decay and nobody sees why. This rule roots a BFS at every non-test
//! `*_into` fn in the numeric crates plus the named kernel-plane entry
//! points, and denies the allocating constructs (`Vec::new`,
//! `with_capacity`, `to_vec`, `clone`, `format!`, `vec!`, `Box::new`,
//! collection constructors) in everything reached.

use crate::diag::{ChainHop, Diagnostic, Severity};
use crate::engine::Workspace;
use crate::lexer::TokKind;
use crate::rules::reachable::{chain_hops, chain_root, reached_by_file};
use crate::rules::WorkspaceRule;

const NAME: &str = "hot-path-alloc";

/// Crates whose `*_into` fns are scratch-plan roots.
const CRATES: &[&str] = &["dsp", "asr", "core", "ml", "serve", "modality"];

/// Kernel-plane entry points rooted by name (all defined in
/// `crates/dsp/src/kernel.rs`).
const KERNEL_ROOTS: &[&str] = &[
    "dot",
    "sq_dist",
    "sq_zscore_sum",
    "axpy",
    "gemv",
    "gemm_nt",
    "dot_i8",
    "quantize_i8",
    "gemm_nt_i8",
    "forward",
    "forward_frames",
    // The lane body behind `forward_frames`: its ISA dispatch goes
    // through macro-generated fns the call graph cannot follow.
    "frames_in_lanes",
    "hfft",
    "inverse",
];

/// Type names whose `::new(` / `::with_capacity(` constructors allocate.
const ALLOC_TYPES: &[&str] =
    &["Vec", "Box", "String", "VecDeque", "HashMap", "BTreeMap", "HashSet", "BinaryHeap"];

pub struct HotPathAlloc;

impl WorkspaceRule for HotPathAlloc {
    fn name(&self) -> &'static str {
        NAME
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn doc(&self) -> &'static str {
        "no heap allocation (Vec/Box/String ctors, with_capacity, to_vec, clone, format!, \
         vec!) reachable from scratch-plan *_into fns or kernel-plane entry points"
    }

    fn explain(&self) -> &'static str {
        "The scratch-buffer convention (`*_into(..., scratch)`) exists so the steady-state \
         detection pipeline — framing, mel, DCT, acoustic scoring, quantized matmul — runs \
         allocation-free after warm-up. Allocation in that path is not wrong, it is slow in \
         a way no test catches: malloc contention between the engine's workers, page faults in \
         the first seconds of a stream, benchmark noise that masks real regressions. This \
         rule walks the call graph from every non-test `*_into` fn in the numeric crates \
         and from the kernel-plane entry points (dot/gemv/gemm_nt/fft/dct and their i8 \
         variants) and denies the allocating constructs in everything reached.\n\
         The graph is name-resolved and over-approximates (a method call edges to every \
         same-named method), so the chain in the diagnostic is the witness to audit.\n\
         Fix: take a `&mut` scratch argument or reuse a buffer owned by the plan/struct. \
         One-time setup allocation that genuinely cannot run per-frame (thread-pool \
         scaffolding, plan construction) is suppressed at the site with \
         `// mvp-lint: allow(hot-path-alloc) -- <why this is not per-frame>`."
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let roots: Vec<usize> = ws
            .index
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                if f.is_test {
                    return false;
                }
                let rel = &ws.files[f.file].rel;
                (f.name.ends_with("_into") && crate::rules::in_crate_src(rel, CRATES))
                    || (rel == "crates/dsp/src/kernel.rs"
                        && KERNEL_ROOTS.contains(&f.name.as_str()))
            })
            .map(|(id, _)| id)
            .collect();
        if roots.is_empty() {
            out.push(Diagnostic {
                rule: NAME,
                severity: Severity::Deny,
                path: "crates/dsp/src/kernel.rs".to_string(),
                line: 1,
                col: 1,
                message: "hot-path-alloc resolved no scratch-plan or kernel-plane roots; \
                          the kernel plane and the rule's root tables have drifted apart"
                    .to_string(),
                chain: Vec::new(),
            });
            return;
        }
        let reach = ws.graph.reach(&roots);
        for (file_id, fn_ids) in reached_by_file(ws, &reach) {
            let file = &ws.files[file_id];
            let toks = file.code();
            for fn_id in fn_ids {
                let item = &ws.index.fns[fn_id];
                let mut chain: Option<Vec<ChainHop>> = None;
                for (ti, &(kind, word, at)) in toks.iter().enumerate() {
                    if at < item.start || at >= item.end {
                        continue;
                    }
                    if ws.index.fn_at(file_id, at) != Some(fn_id) {
                        continue;
                    }
                    if file.is_test_at(at) {
                        continue;
                    }
                    if kind != TokKind::Ident {
                        continue;
                    }
                    let construct = match word {
                        // `Vec::new(`, `Box::new(`, ... — only when the
                        // qualifier is a known allocating type.
                        "new" => qualifier(&toks, ti)
                            .filter(|q| ALLOC_TYPES.contains(q))
                            .map(|q| format!("{q}::new()")),
                        // `with_capacity(` in any position (free,
                        // qualified or dotted) allocates.
                        "with_capacity" => toks
                            .get(ti + 1)
                            .is_some_and(|t| t.1 == "(")
                            .then(|| "with_capacity(..)".to_string()),
                        "to_vec" | "clone" | "to_owned" | "collect" => {
                            let dotted = ti > 0 && toks[ti - 1].1 == ".";
                            let called = toks.get(ti + 1).is_some_and(|t| t.1 == "(")
                                || toks.get(ti + 1).is_some_and(|t| t.1 == ":");
                            (dotted && called).then(|| format!(".{word}()"))
                        }
                        "format" | "vec" => {
                            toks.get(ti + 1).is_some_and(|t| t.1 == "!").then(|| format!("{word}!"))
                        }
                        _ => None,
                    };
                    let Some(construct) = construct else { continue };
                    let hops = chain.get_or_insert_with(|| chain_hops(ws, &reach, fn_id)).clone();
                    let (line, col) = file.line_col(at);
                    out.push(Diagnostic {
                        rule: NAME,
                        severity: Severity::Deny,
                        path: file.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "{construct} reachable from hot-path root `{}` ({} hop{}); the \
                             steady-state pipeline is allocation-free — take scratch storage \
                             from the caller (chain below is the witness)",
                            chain_root(&hops),
                            hops.len() - 1,
                            if hops.len() == 2 { "" } else { "s" },
                        ),
                        chain: hops,
                    });
                }
            }
        }
    }
}

/// The `Qual` of `Qual::name(` at token index `ti` (one path segment
/// back over the two-punct `::`), when present.
fn qualifier<'a>(toks: &[(TokKind, &'a str, usize)], ti: usize) -> Option<&'a str> {
    if ti >= 3 && toks[ti - 1].1 == ":" && toks[ti - 2].1 == ":" && toks[ti - 3].0 == TokKind::Ident
    {
        Some(toks[ti - 3].1)
    } else {
        None
    }
}
