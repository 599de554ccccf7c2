//! Reporter surface tests: the `--list-rules` table is asserted
//! verbatim (a new rule cannot ship without a doc line), the JSON
//! report must parse back through `mvp_obs::json`, and interprocedural
//! findings must render their call-chain evidence in both reporters.

use mvp_lint::diag::ChainHop;
use mvp_lint::engine::LintReport;
use mvp_lint::report;
use mvp_lint::{Diagnostic, Severity};
use mvp_obs::json;

/// Golden copy of the rule table: per-file rules, then workspace rules,
/// then the engine-owned hygiene rule. Adding, renaming or
/// re-documenting a rule must update this test alongside DESIGN.md §8.
const LIST_RULES_GOLDEN: &str = "\
nested-vec-f64           deny   numeric crates carry matrices as contiguous Mat, never Vec<Vec<f64>>, outside tests
kernel-discipline        deny   hot numeric paths call mvp_dsp::kernel, never the scalar oracles directly, outside tests
lock-discipline          deny   in crates/serve, .lock() may appear only inside SharedCache::with (poison recovery)
channel-discipline       deny   in crates/serve, channels must be bounded: no unbounded()/mpsc::channel()
unbounded-with-capacity  warn   in audio/artifact parsers, with_capacity/vec![..; n] from parsed values needs a prior limit check (heuristic)
numeric-truncation       deny   byte-format codecs (wav, artifact) and the quantization plane (ml quant, dsp kernels) must not narrow integers with `as`; use try_into or the saturating helpers
persist-schema           deny   every `impl Persist for T` declares a `SCHEMA_VERSION` const for its wire format
todo-markers             deny   no todo!/unimplemented!/dbg! anywhere in non-test workspace code
panic-path               deny   no panic!/unreachable!/unwrap/expect reachable from serve request entry points (interprocedural; indexing also denied inside crates/serve)
float-ordering           deny   scoring/decoding comparators use f64::total_cmp, never partial_cmp(..).unwrap()/expect()
hot-path-alloc           deny   no heap allocation (Vec/Box/String ctors, with_capacity, to_vec, clone, format!, vec!) reachable from scratch-plan *_into fns or kernel-plane entry points
suppression-hygiene      deny   every mvp-lint marker is a well-formed allow(<known-rule>) -- <reason>
";

#[test]
fn list_rules_matches_golden() {
    assert_eq!(report::list_rules(), LIST_RULES_GOLDEN);
}

#[test]
fn every_rule_has_an_explain_page() {
    for line in LIST_RULES_GOLDEN.lines() {
        let name = line.split_whitespace().next().expect("rule name");
        let page = report::explain(name).unwrap_or_else(|| panic!("no --explain page: {name}"));
        assert!(page.starts_with(name), "{name}: page should open with the rule name");
        assert!(page.len() > name.len() + 20, "{name}: explain page is too thin");
    }
    assert!(report::explain("no-such-rule").is_none());
}

fn sample_report() -> LintReport {
    LintReport {
        diagnostics: vec![
            Diagnostic {
                rule: "todo-markers",
                severity: Severity::Deny,
                path: "crates/core/src/x.rs".to_string(),
                line: 3,
                col: 9,
                message: "todo!() left in non-test code".to_string(),
                chain: Vec::new(),
            },
            Diagnostic {
                rule: "panic-path",
                severity: Severity::Deny,
                path: "crates/asr/src/y.rs".to_string(),
                line: 12,
                col: 5,
                message: ".unwrap() reachable from serve entry `submit`".to_string(),
                chain: vec![
                    ChainHop {
                        path: "crates/serve/src/engine.rs".to_string(),
                        line: 100,
                        fn_name: "submit".to_string(),
                    },
                    ChainHop {
                        path: "crates/serve/src/engine.rs".to_string(),
                        line: 120,
                        fn_name: "transcribe".to_string(),
                    },
                ],
            },
            Diagnostic {
                rule: "unbounded-with-capacity",
                severity: Severity::Warn,
                path: "crates/audio/src/wav.rs".to_string(),
                line: 41,
                col: 5,
                message: "allocation sized by `n` with no visible limit check".to_string(),
                chain: Vec::new(),
            },
        ],
        files_scanned: 7,
        suppressed: 2,
        graph_nodes: 40,
        graph_edges: 90,
    }
}

#[test]
fn json_report_parses_and_carries_counts() {
    let doc = report::json(&sample_report());
    let v = json::parse(&doc).expect("reporter emits valid JSON");
    assert_eq!(v.get("tool").and_then(|t| t.as_str()), Some("mvp-lint"));
    assert_eq!(v.get("files_scanned").and_then(json::Value::as_f64), Some(7.0));
    assert_eq!(v.get("graph_nodes").and_then(json::Value::as_f64), Some(40.0));
    assert_eq!(v.get("graph_edges").and_then(json::Value::as_f64), Some(90.0));
    assert_eq!(v.get("deny").and_then(json::Value::as_f64), Some(2.0));
    assert_eq!(v.get("warn").and_then(json::Value::as_f64), Some(1.0));
    assert_eq!(v.get("suppressed").and_then(json::Value::as_f64), Some(2.0));
    let findings = v.get("findings").and_then(json::Value::as_arr).expect("array");
    assert_eq!(findings.len(), 3);
    assert_eq!(findings[0].get("rule").and_then(|r| r.as_str()), Some("todo-markers"));
    assert_eq!(findings[2].get("line").and_then(json::Value::as_f64), Some(41.0));
}

#[test]
fn json_report_carries_call_chains() {
    let doc = report::json(&sample_report());
    let v = json::parse(&doc).expect("valid JSON");
    let findings = v.get("findings").and_then(json::Value::as_arr).expect("array");
    let empty = findings[0].get("chain").and_then(json::Value::as_arr).expect("chain array");
    assert!(empty.is_empty(), "per-file findings carry an empty chain");
    let chain = findings[1].get("chain").and_then(json::Value::as_arr).expect("chain array");
    assert_eq!(chain.len(), 2);
    assert_eq!(chain[0].get("fn").and_then(|f| f.as_str()), Some("submit"));
    assert_eq!(chain[0].get("line").and_then(json::Value::as_f64), Some(100.0));
    assert_eq!(chain[1].get("fn").and_then(|f| f.as_str()), Some("transcribe"));
}

#[test]
fn human_report_lists_findings_chains_then_summary() {
    let text = report::human(&sample_report());
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6);
    assert_eq!(
        lines[0],
        "crates/core/src/x.rs:3:9: [deny] todo-markers: todo!() left in non-test code"
    );
    assert_eq!(lines[2], "    via submit (crates/serve/src/engine.rs:100)");
    assert_eq!(lines[3], "    via transcribe (crates/serve/src/engine.rs:120)");
    assert_eq!(
        lines[5],
        "mvp-lint: 7 file(s) scanned, 40 fn(s) / 90 edge(s) in call graph, 2 deny, 1 warn, 2 suppressed"
    );
}
