//! The workspace call graph: conservative name-matched edges over the
//! [`ItemIndex`], with BFS reachability and call-chain reconstruction.
//!
//! Resolution is deliberately an over-approximation — the lint layer
//! has no type information, so a call may edge to every function the
//! name *could* mean:
//!
//! - `self.name(...)` resolves inside the enclosing impl when that
//!   impl defines `name`; otherwise it falls back to every method of
//!   that name (the receiver may be a `Deref` or trait-object hop).
//! - `recv.name(...)` resolves to every impl-defined `name` in the
//!   workspace — this is what makes trait-object and generic dispatch
//!   conservative: one `.score()` call edges to *every* `score`.
//! - `Qual::name(...)` prefers fns owned by an impl of `Qual`
//!   (`Self::...` uses the enclosing impl's type). When no impl
//!   matches, a lower-case qualifier is a module path and falls back to
//!   free fns of that name; an upper-case or primitive qualifier is a
//!   foreign type (std, vendor) and produces no edge.
//! - `name(...)` resolves to free fns of that name, falling back to
//!   associated fns (imported via `use Type::name`).
//!
//! Two deliberate precision carve-outs keep the over-approximation
//! usable. Method names on the `STD_METHODS` list (`push`, `len`,
//! `clone`, iterator adapters, ...) are assumed to be the std prelude
//! method and produce no edge — a workspace method that *shadows* one
//! of these names is invisible to the sweep unless it is itself a rule
//! root (the serve entry points `push`/`wait`/... are, which is why the
//! carve-out is sound where it matters). And unresolved names (std,
//! vendor shims) produce no edge: the analysis only sees
//! workspace-defined code. Test functions are never edge targets, so
//! fixtures and `#[cfg(test)]` helpers cannot launder reachability into
//! production rules.

use std::collections::{HashMap, VecDeque};

use crate::items::{CallKind, FnItem, ItemIndex};
use crate::source::SourceFile;

/// Method names assumed to resolve to the std prelude, not the
/// workspace: a dotted call to one of these produces no edge. Without
/// this list every `v.push(x)` would edge into `StreamHandle::push` and
/// every `.clone()` into every workspace `Clone` impl, and the sweep
/// would reach essentially the whole workspace from any root.
const STD_METHODS: &[&str] = &[
    // Collections and slices.
    "push",
    "pop",
    "insert",
    "remove",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "first",
    "last",
    "contains",
    "contains_key",
    "keys",
    "values",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "clear",
    "resize",
    "truncate",
    "extend",
    "extend_from_slice",
    "copy_from_slice",
    "clone_from_slice",
    "fill",
    "swap",
    "reverse",
    "retain",
    "dedup",
    "drain",
    "split_at",
    "split_at_mut",
    "windows",
    "chunks",
    "chunks_exact",
    "chunks_mut",
    "concat",
    "join",
    "binary_search",
    "binary_search_by",
    "rotate_left",
    "rotate_right",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "to_vec",
    "as_slice",
    "as_mut_slice",
    "push_str",
    "push_front",
    "push_back",
    "pop_front",
    "pop_back",
    "make_contiguous",
    // Iterator adapters and consumers.
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "fold",
    "sum",
    "product",
    "count",
    "position",
    "find",
    "find_map",
    "any",
    "all",
    "zip",
    "enumerate",
    "rev",
    "skip",
    "take",
    "take_while",
    "skip_while",
    "chain",
    "step_by",
    "copied",
    "cloned",
    "collect",
    "peekable",
    "peek",
    "nth",
    "by_ref",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "last_mut",
    // Option / Result plumbing.
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "map_err",
    "map_or",
    "map_or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_deref",
    "take",
    "replace",
    "get_or_insert_with",
    "is_some_and",
    "is_none_or",
    // Strings.
    "chars",
    "bytes",
    "lines",
    "split",
    "split_whitespace",
    "trim",
    "trim_start",
    "trim_end",
    "starts_with",
    "ends_with",
    "strip_prefix",
    "strip_suffix",
    "to_string",
    "to_owned",
    "to_lowercase",
    "to_uppercase",
    "as_str",
    "as_bytes",
    "parse",
    "repeat",
    "char_indices",
    "find_char",
    "eq_ignore_ascii_case",
    // Numerics.
    "abs",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "log2",
    "log10",
    "floor",
    "ceil",
    "round",
    "clamp",
    "rem_euclid",
    "mul_add",
    "signum",
    "is_nan",
    "is_finite",
    "is_infinite",
    "to_bits",
    "total_cmp",
    "partial_cmp",
    "cmp",
    "hypot",
    "recip",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "pow",
    "div_euclid",
    "to_le_bytes",
    "to_be_bytes",
    "is_sign_negative",
    "is_sign_positive",
    "exp_m1",
    "ln_1p",
    "sin",
    "cos",
    "tan",
    "atan2",
    // Sync, channels, IO, time, misc.
    "clone",
    "lock",
    "read",
    "write",
    "try_lock",
    "send",
    "recv",
    "try_recv",
    "recv_timeout",
    "send_timeout",
    "store",
    "load",
    "fetch_add",
    "fetch_sub",
    "swap_val",
    "compare_exchange",
    "wait",
    "wait_timeout",
    "notify_one",
    "notify_all",
    "spawn",
    "join_handle",
    "is_finished",
    "elapsed",
    "duration_since",
    "as_secs_f64",
    "as_millis",
    "as_micros",
    "subsec_nanos",
    "flush",
    "read_to_string",
    "write_all",
    "write_str",
    "read_line",
    "read_exact",
    "set_len",
    "seek",
    "rewind",
    "fmt",
    "hash",
    "eq",
    "ne",
    "borrow",
    "borrow_mut",
    "deref",
    "drop",
    "default",
    "from_iter",
    "into",
    "try_into",
];

/// One resolved call edge out of a function.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee fn id (into [`ItemIndex::fns`]).
    pub callee: usize,
    /// Byte offset of the call site in the caller's file.
    pub call_offset: usize,
}

/// The workspace call graph over an [`ItemIndex`].
pub struct CallGraph {
    /// Outgoing edges per fn id, deduplicated by callee (first call
    /// site kept as the representative for chain evidence).
    pub edges: Vec<Vec<Edge>>,
    /// Total resolved edge count.
    pub n_edges: usize,
}

/// Result of a reachability sweep: BFS tree plus per-node provenance.
pub struct Reach {
    /// `parent[f] = Some((caller, call_offset))` for reached non-root
    /// nodes; `None` for roots and unreached nodes.
    parent: Vec<Option<(usize, usize)>>,
    reached: Vec<bool>,
    root: Vec<bool>,
}

impl Reach {
    /// Whether fn `id` is reachable (roots included).
    pub fn contains(&self, id: usize) -> bool {
        self.reached[id]
    }

    /// Ids of every reached fn, roots first in BFS order is not
    /// guaranteed — iterate and filter instead.
    pub fn reached_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.reached.iter().enumerate().filter(|(_, &r)| r).map(|(id, _)| id)
    }

    /// The call chain from a root to `id`: a list of `(fn id, call
    /// offset into that fn's file)` hops. The first entry is the root
    /// (offset = its own span start), the last entry is `id` itself
    /// with the call site *in its caller* that reached it.
    pub fn chain_to(&self, id: usize, index: &ItemIndex) -> Vec<(usize, usize)> {
        let mut hops = Vec::new();
        let mut cur = id;
        while let Some((caller, offset)) = self.parent[cur] {
            hops.push((cur, offset));
            cur = caller;
        }
        hops.push((cur, index.fns[cur].start));
        hops.reverse();
        hops
    }

    /// Whether fn `id` is one of the sweep's roots.
    pub fn is_root(&self, id: usize) -> bool {
        self.root[id]
    }
}

/// Which crate (by `crates/<name>/src/` path) can call into which:
/// `visible[a]` holds the crates whose items crate `a`'s code can name.
/// Dependencies are inferred from the sources themselves — crate `a`
/// depends on crate `b` when any file of `a` mentions the `mvp_<b>`
/// ident — then closed transitively. A name-matched edge that crosses
/// crates *against* this relation is impossible (the caller cannot even
/// import the callee) and is dropped.
struct CrateVisibility {
    /// File id → crate index, `usize::MAX` for files outside `crates/`.
    of_file: Vec<usize>,
    /// Crate index → set of visible crate indexes (self included).
    visible: Vec<Vec<bool>>,
}

impl CrateVisibility {
    fn build(files: &[SourceFile]) -> CrateVisibility {
        let crate_of = |rel: &str| -> Option<String> {
            let rest = rel.strip_prefix("crates/")?;
            Some(rest.split('/').next()?.to_string())
        };
        let mut names: Vec<String> = Vec::new();
        let mut of_file = Vec::with_capacity(files.len());
        for f in files {
            match crate_of(&f.rel) {
                Some(name) => {
                    let idx = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                        names.push(name);
                        names.len() - 1
                    });
                    of_file.push(idx);
                }
                None => of_file.push(usize::MAX),
            }
        }
        let n = names.len();
        let mut visible = vec![vec![false; n]; n];
        for (i, row) in visible.iter_mut().enumerate() {
            row[i] = true;
        }
        // Direct deps: crate i mentions ident `mvp_<name-with-underscores>`.
        let externs: Vec<String> =
            names.iter().map(|n| format!("mvp_{}", n.replace('-', "_"))).collect();
        for (fid, f) in files.iter().enumerate() {
            let i = of_file[fid];
            if i == usize::MAX {
                continue;
            }
            for &(kind, word, _) in &f.code() {
                if kind != crate::lexer::TokKind::Ident {
                    continue;
                }
                if let Some(j) = externs.iter().position(|e| e == word) {
                    visible[i][j] = true;
                }
            }
        }
        // Transitive closure (the crate count is tiny).
        loop {
            let mut changed = false;
            for i in 0..n {
                for j in 0..n {
                    if !visible[i][j] {
                        continue;
                    }
                    for k in 0..n {
                        if visible[j][k] && !visible[i][k] {
                            visible[i][k] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        CrateVisibility { of_file, visible }
    }

    /// Whether code in `caller_file` can name items of `callee_file`.
    fn allows(&self, caller_file: usize, callee_file: usize) -> bool {
        let (a, b) = (self.of_file[caller_file], self.of_file[callee_file]);
        // Files outside `crates/` are unconstrained in both directions.
        a == usize::MAX || b == usize::MAX || self.visible[a][b]
    }
}

impl CallGraph {
    /// Builds the graph by resolving every call site of `index` over
    /// the files it was indexed from.
    pub fn build(index: &ItemIndex, files: &[SourceFile]) -> CallGraph {
        let vis = CrateVisibility::build(files);
        // Name → candidate fn ids, split by ownership, built once.
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, f) in index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            if f.owner.is_some() {
                methods.entry(&f.name).or_default().push(id);
            } else {
                free.entry(&f.name).or_default().push(id);
            }
        }
        let owned_by = |name: &str, owner: &str| -> Vec<usize> {
            methods
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| index.fns[id].owner.as_deref() == Some(owner))
                        .collect()
                })
                .unwrap_or_default()
        };

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); index.fns.len()];
        let mut seen: Vec<HashMap<usize, ()>> = vec![HashMap::new(); index.fns.len()];
        let mut n_edges = 0usize;
        for call in &index.calls {
            let Some(caller) = call.caller else { continue };
            let name = call.callee.as_str();
            let candidates: Vec<usize> = match &call.kind {
                CallKind::Method { self_receiver } => {
                    let scoped = if *self_receiver {
                        index.fns[caller]
                            .owner
                            .as_deref()
                            .map(|own| owned_by(name, own))
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    if !scoped.is_empty() {
                        scoped
                    } else if STD_METHODS.contains(&name) {
                        // Assumed to be the std prelude method.
                        Vec::new()
                    } else {
                        methods.get(name).cloned().unwrap_or_default()
                    }
                }
                CallKind::Qualified(q) => {
                    // `Self::name(...)` means the enclosing impl's type.
                    let owner_name = if q == "Self" {
                        index.fns[caller].owner.clone().unwrap_or_else(|| q.clone())
                    } else {
                        q.clone()
                    };
                    let scoped = owned_by(name, &owner_name);
                    if !scoped.is_empty() {
                        scoped
                    } else if is_type_like(&owner_name) {
                        // An upper-case or primitive qualifier with no
                        // matching workspace impl is a foreign type.
                        Vec::new()
                    } else {
                        // A module path: the callee is a free fn.
                        free.get(name).cloned().unwrap_or_default()
                    }
                }
                CallKind::Free => {
                    let frees = free.get(name).cloned().unwrap_or_default();
                    if !frees.is_empty() {
                        frees
                    } else if STD_METHODS.contains(&name) {
                        Vec::new()
                    } else {
                        methods.get(name).cloned().unwrap_or_default()
                    }
                }
            };
            for callee in candidates {
                if !vis.allows(index.fns[caller].file, index.fns[callee].file) {
                    continue;
                }
                if seen[caller].insert(callee, ()).is_none() {
                    edges[caller].push(Edge { callee, call_offset: call.offset });
                    n_edges += 1;
                }
            }
        }
        CallGraph { edges, n_edges }
    }

    /// BFS from `roots`; shortest chains win, so diagnostics carry the
    /// tightest evidence available under the approximation.
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let n = self.edges.len();
        let mut reach =
            Reach { parent: vec![None; n], reached: vec![false; n], root: vec![false; n] };
        let mut queue = VecDeque::new();
        for &r in roots {
            if !reach.reached[r] {
                reach.reached[r] = true;
                reach.root[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(at) = queue.pop_front() {
            for e in &self.edges[at] {
                if !reach.reached[e.callee] {
                    reach.reached[e.callee] = true;
                    reach.parent[e.callee] = Some((at, e.call_offset));
                    queue.push_back(e.callee);
                }
            }
        }
        reach
    }
}

/// Convenience for rules: the fn item for an id.
pub fn item<'a>(index: &'a ItemIndex, id: usize) -> &'a FnItem {
    &index.fns[id]
}

/// Whether a path qualifier names a type (upper-case initial or a
/// primitive) rather than a module.
fn is_type_like(q: &str) -> bool {
    q.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        || matches!(
            q,
            "u8" | "u16"
                | "u32"
                | "u64"
                | "u128"
                | "usize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "i128"
                | "isize"
                | "f32"
                | "f64"
                | "bool"
                | "char"
                | "str"
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<SourceFile>, ItemIndex, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, text)| SourceFile::parse(rel, text).expect("parses"))
            .collect();
        let index = ItemIndex::build(&files);
        let graph = CallGraph::build(&index, &files);
        (files, index, graph)
    }

    fn id_of(index: &ItemIndex, name: &str) -> usize {
        index.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("fn {name}"))
    }

    #[test]
    fn direct_and_cross_file_edges() {
        let (_, idx, g) = graph_of(&[
            ("crates/a/src/lib.rs", "use mvp_b::helper;\npub fn entry() { helper(); }\n"),
            ("crates/b/src/lib.rs", "pub fn helper() { }\n"),
        ]);
        let entry = id_of(&idx, "entry");
        let helper = id_of(&idx, "helper");
        assert!(g.edges[entry].iter().any(|e| e.callee == helper));
        let reach = g.reach(&[entry]);
        assert!(reach.contains(helper));
        assert_eq!(reach.chain_to(helper, &idx).len(), 2);
    }

    #[test]
    fn trait_method_calls_edge_to_every_impl() {
        // `.score()` on an unknown receiver must conservatively edge to
        // every workspace impl of `score` — that is what keeps
        // trait-object and generic dispatch inside the sweep.
        let (_, idx, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "trait Score { fn score(&self) -> f64; }\n\
             struct Fast;\n\
             impl Score for Fast { fn score(&self) -> f64 { 1.0 } }\n\
             struct Slow;\n\
             impl Score for Slow { fn score(&self) -> f64 { 2.0 } }\n\
             pub fn run(s: &dyn Score) -> f64 { s.score() }\n",
        )]);
        let run = id_of(&idx, "run");
        let reach = g.reach(&[run]);
        let scores: Vec<usize> = idx
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == "score" && f.owner.is_some())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(scores.len(), 2, "both impl fns indexed");
        for id in scores {
            assert!(reach.contains(id), "impl fn {id} must be reached conservatively");
        }
    }

    #[test]
    fn std_shadowed_names_and_foreign_types_resolve_to_nothing() {
        let (_, idx, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct Q { inner: Vec<u32> }\n\
             impl Q { fn push(&mut self, v: u32) { self.inner.push(v) } }\n\
             pub fn run(v: &mut Vec<u32>) { v.push(1); let _s = String::new(); }\n",
        )]);
        let run = id_of(&idx, "run");
        // `v.push(1)` is assumed std, and `String::new` is a foreign
        // type: neither may edge into the workspace.
        assert!(g.edges[run].is_empty(), "{:?}", g.edges[run]);
        let reach = g.reach(&[run]);
        assert!(!reach.contains(id_of(&idx, "push")));
    }

    #[test]
    fn edges_respect_crate_dependency_direction() {
        // Crate a mentions mvp_b (depends on it); crate b does not know
        // crate a. The same-named fallback may only point a -> b.
        let (_, idx, g) = graph_of(&[
            ("crates/a/src/lib.rs", "use mvp_b::helper;\npub fn caller_a() { helper(); }\n"),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() { }\npub fn caller_b() { renamed_helper(); }\n",
            ),
            ("crates/a/src/extra.rs", "pub fn renamed_helper() { }\n"),
        ]);
        let caller_a = id_of(&idx, "caller_a");
        let caller_b = id_of(&idx, "caller_b");
        assert!(g.edges[caller_a].iter().any(|e| e.callee == id_of(&idx, "helper")));
        // b cannot see a, so the name match must be dropped.
        assert!(g.edges[caller_b].is_empty(), "{:?}", g.edges[caller_b]);
    }

    #[test]
    fn recursion_terminates() {
        let (_, idx, g) =
            graph_of(&[("crates/a/src/lib.rs", "fn a() { b(); }\nfn b() { a(); }\n")]);
        let reach = g.reach(&[id_of(&idx, "a")]);
        assert!(reach.contains(id_of(&idx, "b")));
        assert!(reach.contains(id_of(&idx, "a")));
    }
}
