//! `channel-discipline`: no unbounded channels in the serving plane.
//!
//! The engine's overload story depends on every queue having a cap: a
//! bounded ingress sheds at the door, and bounded worker/collector
//! channels push back instead of buffering without limit. One
//! `unbounded()` call quietly converts backpressure into unbounded
//! memory growth under sustained overload. The rule flags construction
//! of any unbounded channel in `crates/serve/src`:
//!
//! - `channel::unbounded()` / `crossbeam::channel::unbounded()`;
//! - `mpsc::channel()` (the std unbounded flavour — use
//!   `mpsc::sync_channel` or crossbeam `bounded` instead);
//! - tokio-style `unbounded_channel()` for future-proofing.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::rules::{finding, Rule};
use crate::source::SourceFile;

const NAME: &str = "channel-discipline";

pub struct ChannelDiscipline;

impl Rule for ChannelDiscipline {
    fn name(&self) -> &'static str {
        NAME
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn doc(&self) -> &'static str {
        "in crates/serve, channels must be bounded: no unbounded()/mpsc::channel()"
    }

    fn applies_to(&self, rel: &str) -> bool {
        rel.starts_with("crates/serve/src/")
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let toks = file.code();
        for (i, &(kind, word, at)) in toks.iter().enumerate() {
            if kind != TokKind::Ident {
                continue;
            }
            let called = is_called(&toks, i + 1);
            let flagged = match word {
                // `unbounded(...)` / `unbounded::<T>(...)`, bare or
                // path-qualified — every spelling constructs the
                // crossbeam unbounded channel.
                "unbounded" | "unbounded_channel" => called,
                // `mpsc::channel()` is std's unbounded constructor; the
                // bounded flavour is `mpsc::sync_channel`.
                "channel" => {
                    called
                        && i >= 3
                        && toks[i - 1].1 == ":"
                        && toks[i - 2].1 == ":"
                        && toks[i - 3].1 == "mpsc"
                }
                _ => false,
            };
            if !flagged || file.is_test_at(at) {
                continue;
            }
            finding(
                file,
                NAME,
                self.severity(),
                at,
                format!(
                    "unbounded channel `{word}` in the serving plane; use a bounded \
                     channel (crossbeam `channel::bounded` / `mpsc::sync_channel`) so \
                     overload turns into backpressure, not memory growth"
                ),
                out,
            );
        }
    }
}

/// Is the token at `j` the start of a call — `(` directly, or a
/// `::<T>(` turbofish leading to one?
fn is_called(toks: &[(TokKind, &str, usize)], j: usize) -> bool {
    match toks.get(j).map(|t| t.1) {
        Some("(") => true,
        Some(":")
            if toks.get(j + 1).map(|t| t.1) == Some(":")
                && toks.get(j + 2).map(|t| t.1) == Some("<") =>
        {
            // Skip the turbofish generics to the matching `>`.
            let mut depth = 0usize;
            for (k, t) in toks.iter().enumerate().skip(j + 2) {
                match t.1 {
                    "<" => depth += 1,
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return toks.get(k + 1).map(|t| t.1) == Some("(");
                        }
                    }
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}
