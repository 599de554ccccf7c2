//! `panic-path`: nothing reachable from the serve request path may
//! panic.
//!
//! The interprocedural successor to the per-file `serve-no-panic` rule
//! of PR 5. That rule could only see `crates/serve/src` text; a worker
//! thread dies just as dead when the panic lives three calls deep in
//! `mvp-asr` or `mvp-core`. This rule roots a BFS at the serve engine's
//! request-handling entry points (submission, the worker/batcher/
//! collector loops, the stream and verdict surfaces), walks the
//! workspace call graph, and denies `panic!` / `unreachable!` /
//! `.unwrap()` / `.expect()` in every function the sweep reaches.
//! Slice/Vec indexing (`x[i]`, itself a panic site) is additionally
//! denied inside the serve crate, where the request plumbing lives;
//! in the numeric crates index bounds are the kernels' documented
//! contract, and flagging every subscript would drown the signal.
//!
//! Diagnostics carry the full call chain from the entry point to the
//! panic site, so the finding is evidence, not vibes. Test code is
//! exempt.

use crate::diag::{ChainHop, Diagnostic, Severity};
use crate::engine::Workspace;
use crate::lexer::TokKind;
use crate::rules::reachable::{chain_hops, chain_root, reached_by_file};
use crate::rules::WorkspaceRule;

const NAME: &str = "panic-path";

/// Request-handling entry points of the serve crate, by fn name. The
/// rule denies (with a meta-finding) a workspace where none of these
/// resolve, so a serve-API rename cannot silently disable the sweep.
const ROOT_NAMES: &[&str] = &[
    // Request submission and the blocking convenience wrapper.
    "submit",
    "submit_stream",
    "detect_blocking",
    // The engine's long-lived request-processing threads.
    "worker_loop",
    "batcher_loop",
    "collector_loop",
    // Verdict retrieval on the caller side of the rendezvous.
    "wait",
    "try_wait",
    "wait_timeout",
    // The streaming ingress surface.
    "push",
    "push_arc",
    "try_verdict",
    "finish",
];

pub struct PanicPath;

impl WorkspaceRule for PanicPath {
    fn name(&self) -> &'static str {
        NAME
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn doc(&self) -> &'static str {
        "no panic!/unreachable!/unwrap/expect reachable from serve request entry points \
         (interprocedural; indexing also denied inside crates/serve)"
    }

    fn explain(&self) -> &'static str {
        "The serve engine promises graceful degradation: a request that cannot be answered \
         well is answered worse (fewer auxiliaries, benign-mean threshold, default verdict), \
         never not at all. One panic anywhere under a request-handling entry point kills a \
         persistent worker thread and silently shrinks the engine until it wedges. The \
         per-file predecessor (serve-no-panic) policed crates/serve/src textually; this rule \
         walks the workspace call graph from the entry points (submit / submit_stream / \
         detect_blocking, the worker/batcher/collector loops, the verdict and stream \
         surfaces) and denies panic!/unreachable!/.unwrap()/.expect() in everything reached \
         — mvp-core scoring, mvp-asr transcription, mvp-dsp features included. Indexing \
         (x[i]) is additionally denied inside crates/serve itself.\n\
         The graph is name-resolved and so over-approximates: a method call edges to every \
         same-named method in the workspace. A finding therefore means \"possibly on the \
         request path\"; the call chain in the diagnostic shows the witness.\n\
         Fix: propagate a typed error and let the degrade ladder answer, or restructure so \
         the invariant is visible (get/if-let instead of unwrap). When the panic guards a \
         genuine internal invariant that request input cannot trigger, suppress at the site \
         with `// mvp-lint: allow(panic-path) -- <why this cannot fire on request input>`."
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let roots: Vec<usize> = ws
            .index
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && ROOT_NAMES.contains(&f.name.as_str())
                    && in_serve(&ws.files[f.file].rel)
            })
            .map(|(id, _)| id)
            .collect();
        if roots.is_empty() {
            out.push(Diagnostic {
                rule: NAME,
                severity: Severity::Deny,
                path: "crates/serve/src/engine.rs".to_string(),
                line: 1,
                col: 1,
                message: "panic-path resolved no request-path entry points; the serve API \
                          and the rule's ROOT_NAMES table have drifted apart"
                    .to_string(),
                chain: Vec::new(),
            });
            return;
        }
        let reach = ws.graph.reach(&roots);
        for (file_id, fn_ids) in reached_by_file(ws, &reach) {
            let file = &ws.files[file_id];
            let index_in_scope = in_serve(&file.rel);
            let toks = file.code();
            for fn_id in fn_ids {
                let item = &ws.index.fns[fn_id];
                let mut chain: Option<Vec<ChainHop>> = None;
                for (ti, &(kind, word, at)) in toks.iter().enumerate() {
                    if at < item.start || at >= item.end {
                        continue;
                    }
                    // Constructs inside a nested fn belong to that node.
                    if ws.index.fn_at(file_id, at) != Some(fn_id) {
                        continue;
                    }
                    if file.is_test_at(at) {
                        continue;
                    }
                    let construct = match kind {
                        TokKind::Ident => match word {
                            "unwrap" | "expect" => {
                                let dotted = ti > 0 && toks[ti - 1].1 == ".";
                                let called = toks.get(ti + 1).is_some_and(|t| t.1 == "(");
                                (dotted && called).then(|| format!(".{word}()"))
                            }
                            "panic" | "unreachable" => toks
                                .get(ti + 1)
                                .is_some_and(|t| t.1 == "!")
                                .then(|| format!("{word}!")),
                            _ => None,
                        },
                        TokKind::Punct if word == "[" && index_in_scope => {
                            let indexes = ti > 0
                                && matches!(
                                    toks[ti - 1],
                                    (TokKind::Ident, w, _) if !is_keyword(w)
                                )
                                || ti > 0 && matches!(toks[ti - 1].1, ")" | "]");
                            indexes.then(|| "[...] indexing".to_string())
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
                            "{construct} reachable from serve entry `{}` ({} hop{}); the \
                             request path degrades, it does not abort — propagate an error \
                             (chain below is the witness)",
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

fn in_serve(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
}

/// Keywords that precede `[` without indexing (e.g. `return [a, b]`).
fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "return" | "in" | "break" | "else" | "match" | "as" | "mut" | "ref" | "move" | "let"
    )
}
