//! Workspace call graph + hot-path reachability (the v3 engine).
//!
//! The per-file rules answer "is this construct hazardous?"; this module
//! answers "is it *reachable* from a path that matters?". It builds a
//! conservative call graph over every linted unit:
//!
//! * **Nodes** are function items (free, inherent and trait methods),
//!   qualified by file, crate, enclosing `impl` type, and body line
//!   range. Test code is collected but never resolved against or marked
//!   hot.
//! * **Edges** come from a token scan of each body: `name(...)` is a
//!   free call, `recv.name(...)` a method call, `Qual::name(...)` an
//!   associated call. Resolution is deliberately conservative — an edge
//!   is added only when the callee is provable from the AST:
//!   - `self.m(...)` resolves within the caller's own impl type;
//!   - `Self::f` / `Ty::f` resolve through the `(type, name)` index,
//!     falling back to a free function when `Ty` is really a module
//!     path segment (`widemath::mul_div_ceil`);
//!   - `recv.m(...)` resolves when every `recv: Type` declaration in
//!     the workspace (struct fields, params, typed lets — wrappers like
//!     `Arc<T>`/`Rc<T>` stripped) agrees on a single type that defines
//!     `m`, or else when `m` is defined by exactly one type in the
//!     workspace and is not a ubiquitous std method name;
//!   - everything else is an **unknown callee**: counted, never an
//!     edge. Reachability therefore under-approximates — a finding
//!     with a chain is definitely hot; absence of a chain proves
//!     nothing.
//! * **Hot roots** seed a bounded BFS (default depth 3 — root, callee,
//!   callee-of-callee). Specs use `crate::Type::fn`, `crate::fn`,
//!   `Type::fn` or bare `fn`, with an optional `@N` depth suffix. The
//!   built-in set covers the per-message transport paths; files can add
//!   roots with a `// simlint: hot-root(<spec>)` comment (fixtures and
//!   future hot paths).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use syn::{Item, ItemFn, TokenTree};

use crate::engine;

/// Reachability depth when a root spec has no `@N` suffix: the root
/// itself plus three levels of callees.
pub const DEFAULT_DEPTH: usize = 3;

/// The built-in hot roots: the per-message transport paths (datatap
/// channel send/pull, simnet transfer/wire-time, evpath stone delivery),
/// event dispatch, and the manager policy tick. `policy_tick@0` pins
/// the tick body itself (it runs every poll interval and was
/// de-allocated into `PolicyScratch` recycling); `decide_cluster@2`
/// covers the pure decision path the tick evaluates every round. The
/// `perform_*` action executors are deliberately *not* roots: cooldown
/// and the in-flight guard make them per-action, not per-tick.
pub const DEFAULT_HOT_ROOTS: &[&str] = &[
    "datatap::Writer::write",
    "datatap::Writer::try_write",
    "datatap::Reader::pull",
    "datatap::Reader::pull_timeout",
    "datatap::Reader::try_pull",
    "datatap::Reader::peek_meta",
    "simnet::Network::transfer",
    "simnet::Network::effective_wire_time",
    "simnet::NetworkConfig::wire_time",
    "evpath::Worker::dispatch",
    "sim-core::Sim::step",
    "sim-core::EventQueue::pop",
    "iocontainers::policy_tick@0",
    "iocontainers::decide_cluster@2",
];

/// Method names too common to resolve by workspace-wide uniqueness:
/// std containers, iterators, smart pointers, sync primitives. A call
/// through one of these stays an unknown callee unless the receiver's
/// declared type resolves it first.
const UBIQUITOUS_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "get", "get_mut", "get_or_insert_with", "contains",
    "contains_key", "len", "is_empty", "clear", "iter", "iter_mut", "into_iter", "keys", "values",
    "values_mut", "drain", "entry", "or_default", "or_insert", "or_insert_with", "clone",
    "to_vec", "to_string", "to_owned", "collect", "map", "map_err", "filter", "filter_map",
    "and_then", "or_else", "unwrap", "unwrap_or", "unwrap_or_else", "unwrap_or_default",
    "expect", "ok", "ok_or", "ok_or_else", "err", "is_some", "is_none", "is_ok", "is_err",
    "as_ref", "as_mut", "as_str", "as_slice", "as_deref", "take", "replace", "lock", "borrow",
    "borrow_mut", "try_borrow", "try_lock", "wait", "wait_for", "notify_all", "notify_one",
    "send", "recv", "try_recv", "next", "peekable", "front", "back", "push_back", "push_front",
    "pop_front", "pop_back", "first", "last", "sort", "sort_unstable", "sort_by", "sort_by_key",
    "sort_unstable_by", "sort_unstable_by_key", "extend", "append", "split_off", "split_at",
    "retain", "truncate", "resize", "reserve", "min", "max", "abs", "sum", "product", "count",
    "fold", "rev", "enumerate", "zip", "chain", "flatten", "flat_map", "copied", "cloned",
    "position", "find", "any", "all", "min_by_key", "max_by_key", "max_by", "min_by", "step_by",
    "skip", "now", "starts_with", "ends_with", "trim", "split", "join", "fmt", "eq", "cmp",
    "partial_cmp", "hash", "default", "from", "into", "try_into", "try_from", "new",
    "with_capacity", "to_le_bytes", "to_be_bytes", "swap", "windows", "chunks", "get_unchecked",
    "saturating_add", "saturating_sub", "saturating_mul", "checked_add", "checked_sub",
    "checked_mul", "checked_div", "wrapping_add", "wrapping_sub", "wrapping_mul", "min_assign",
    "rotate_left", "rotate_right", "leading_zeros", "trailing_zeros",
];

/// Keywords and value constructors that look like `ident(...)` but are
/// never calls the graph should chase.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "loop", "else", "move", "as", "let", "mut",
    "ref", "box", "await", "fn", "impl", "where", "unsafe", "pub", "crate", "super", "dyn",
    "Some", "None", "Ok", "Err", "Self",
];

/// One function node in the workspace call graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the owning [`crate::SourceUnit`].
    pub unit: usize,
    /// The unit's crate key (`crates/<name>` or the top directory).
    pub crate_key: String,
    /// Enclosing `impl` type, when the node is a method.
    pub ty: Option<String>,
    /// The function name.
    pub name: String,
    /// Line of the `fn` identifier.
    pub start_line: usize,
    /// Last line of the body (signature line when bodyless).
    pub end_line: usize,
    /// Test code: `#[test]` or inside a `#[cfg(test)]` module/impl.
    pub in_test: bool,
}

impl FnNode {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn display(&self) -> String {
        match &self.ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A call site extracted from a body, before resolution.
enum CallSite {
    Free(String),
    Method { recv: Option<String>, name: String },
    Assoc { qual: String, name: String },
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// All function nodes, in unit/source order.
    pub nodes: Vec<FnNode>,
    /// Resolved callee node ids per node (deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Total resolved call sites.
    pub resolved_calls: usize,
    /// Call sites left as unknown-callee terminal edges.
    pub unknown_calls: usize,
}

/// Why a function is hot: the matched root spec and the call chain that
/// reaches it (node ids, root first, this node last).
#[derive(Clone, Debug)]
pub struct HotInfo {
    /// The root spec (as written) this chain starts from.
    pub root: String,
    /// Path of node ids from the root to this function, inclusive.
    pub chain: Vec<usize>,
}

/// A parsed hot-root spec: `[crate::][Type::]fn[@depth]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotRoot {
    /// Constrains `FnNode::crate_key` when present.
    pub krate: Option<String>,
    /// Constrains the enclosing impl type when present.
    pub ty: Option<String>,
    /// The function name (always required).
    pub name: String,
    /// Reachability depth from this root.
    pub depth: usize,
    /// The spec as written (diagnostics).
    pub spec: String,
}

/// Parses a hot-root spec. Two-segment specs disambiguate by case:
/// `Type::fn` when the first segment starts uppercase, `crate::fn`
/// otherwise (crate names are kebab/lowercase throughout the workspace).
pub fn parse_hot_root(spec: &str) -> Option<HotRoot> {
    let spec = spec.trim();
    let (path, depth) = match spec.split_once('@') {
        Some((p, d)) => (p.trim(), d.trim().parse::<usize>().ok()?),
        None => (spec, DEFAULT_DEPTH),
    };
    let segs: Vec<&str> = path.split("::").map(str::trim).collect();
    if segs.iter().any(|s| s.is_empty()) {
        return None;
    }
    let (krate, ty, name) = match segs.as_slice() {
        [f] => (None, None, *f),
        [a, f] if a.starts_with(char::is_uppercase) => (None, Some(*a), *f),
        [c, f] => (Some(*c), None, *f),
        [c, t, f] => (Some(*c), Some(*t), *f),
        _ => return None,
    };
    Some(HotRoot {
        krate: krate.map(str::to_string),
        ty: ty.map(str::to_string),
        name: name.to_string(),
        depth,
        spec: spec.to_string(),
    })
}

/// Extracts every `// simlint: hot-root(<spec>)` directive from raw
/// source. Malformed specs are ignored (the lint must not fail a build
/// over a comment).
pub fn hot_root_directives(src: &str) -> Vec<HotRoot> {
    let mut out = Vec::new();
    for raw in src.lines() {
        let Some(comment_at) = raw.find("//") else { continue };
        let comment = raw[comment_at + 2..].trim();
        let Some(rest) = comment.strip_prefix("simlint:") else { continue };
        let Some(open) = rest.trim().strip_prefix("hot-root(") else { continue };
        let Some(close) = open.rfind(')') else { continue };
        if let Some(root) = parse_hot_root(&open[..close]) {
            out.push(root);
        }
    }
    out
}

fn root_matches(root: &HotRoot, node: &FnNode) -> bool {
    if node.in_test || node.name != root.name {
        return false;
    }
    if let Some(t) = &root.ty {
        if node.ty.as_deref() != Some(t.as_str()) {
            return false;
        }
    }
    if let Some(c) = &root.krate {
        if node.crate_key != *c && node.crate_key != format!("crates/{c}") {
            return false;
        }
    }
    true
}

/// The deepest line reached by any token in the stream.
fn max_line(stream: &[TokenTree], acc: &mut usize) {
    for t in stream {
        *acc = (*acc).max(t.span().line);
        if let TokenTree::Group(g) = t {
            *acc = (*acc).max(g.span.line);
            max_line(&g.stream, acc);
        }
    }
}

/// The self type of an `impl` header: the first type ident after `for`
/// (trait impls), or the first ident after `impl` and its generic
/// parameter list (inherent impls).
fn impl_type(header: &[TokenTree]) -> Option<String> {
    let mut i = 0;
    if engine::is_ident(header.first(), "impl") {
        i = 1;
    }
    // Skip the generic parameter list, tracking <> depth.
    if engine::is_punct(header.get(i), '<') {
        let mut depth = 0usize;
        while i < header.len() {
            match header[i].punct() {
                Some('<') => depth += 1,
                Some('>') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Trait impl: the self type follows the top-level `for`.
    let mut depth = 0usize;
    for (j, t) in header.iter().enumerate().skip(i) {
        match t.punct() {
            Some('<') => depth += 1,
            Some('>') => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth == 0 && engine::is_ident(Some(t), "for") {
            // First ident after `for` (skipping `&`, `mut`, lifetimes);
            // for a path like `crate::Foo` take the last leading segment.
            return last_path_head(&header[j + 1..]);
        }
    }
    last_path_head(&header[i..])
}

/// First type name in a token run: skips references/lifetimes, then
/// follows leading path segments (`a::b::Ty` → the segment before a
/// non-`::` token).
fn last_path_head(toks: &[TokenTree]) -> Option<String> {
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Punct(p) if matches!(p.ch, '&' | '\'') => i += 1,
            TokenTree::Ident(id) if matches!(id.text.as_str(), "mut" | "dyn") => i += 1,
            _ => break,
        }
    }
    let mut head = None;
    while let Some(TokenTree::Ident(id)) = toks.get(i) {
        head = Some(id.text.clone());
        if engine::is_path_sep(toks, i + 1) {
            i += 3;
        } else {
            break;
        }
    }
    head
}

fn collect_fns<'a>(
    items: &'a [Item],
    in_test: bool,
    ty: Option<&str>,
    out: &mut Vec<(&'a ItemFn, bool, Option<String>)>,
) {
    for item in items {
        match item {
            Item::Fn(f) => {
                let test = in_test || f.attrs.iter().any(|a| a.is_test());
                out.push((f, test, ty.map(str::to_string)));
            }
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    let test = in_test || m.attrs.iter().any(|a| a.is_cfg_test());
                    collect_fns(content, test, None, out);
                }
            }
            Item::Impl(im) => {
                let test = in_test || im.attrs.iter().any(|a| a.is_cfg_test());
                let self_ty = impl_type(&im.header);
                collect_fns(&im.items, test, self_ty.as_deref(), out);
            }
            _ => {}
        }
    }
}

/// Wrapper types stripped when reading a declared receiver type:
/// `telemetry: Arc<Inner>` types the receiver as `Inner`.
const TYPE_WRAPPERS: &[&str] =
    &["Arc", "Rc", "Box", "RefCell", "Cell", "Mutex", "RwLock", "Option", "Shared"];

/// Collects `ident: Type` declarations (struct fields, fn params, typed
/// lets, struct-literal enum paths) into a name → candidate-types map.
/// Resolution only trusts names whose every declaration agrees on one
/// type, so over-collection here costs precision, never soundness.
fn collect_decl_types(stream: &[TokenTree], out: &mut BTreeMap<String, BTreeSet<String>>) {
    for (i, t) in stream.iter().enumerate() {
        if let TokenTree::Group(g) = t {
            collect_decl_types(&g.stream, out);
        }
        let TokenTree::Ident(id) = t else { continue };
        // `name :` but not `name ::`.
        if !engine::is_punct(stream.get(i + 1), ':') || engine::is_punct(stream.get(i + 2), ':') {
            continue;
        }
        // Skip the second colon of a `::` before the name's own colon.
        if i >= 1 && engine::is_punct(stream.get(i - 1), ':') {
            continue;
        }
        if let Some(ty) = decl_type_name(&stream[i + 2..]) {
            out.entry(id.text.clone()).or_default().insert(ty);
        }
    }
}

/// The concrete type name starting a type expression, wrappers stripped.
fn decl_type_name(toks: &[TokenTree]) -> Option<String> {
    let mut i = 0;
    loop {
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if matches!(p.ch, '&' | '\'') => i += 1,
                TokenTree::Ident(id) if matches!(id.text.as_str(), "mut" | "dyn") => i += 1,
                _ => break,
            }
        }
        let TokenTree::Ident(id) = toks.get(i)? else { return None };
        if !id.text.starts_with(char::is_uppercase) {
            return None;
        }
        if TYPE_WRAPPERS.contains(&id.text.as_str()) && engine::is_punct(toks.get(i + 1), '<') {
            i += 2; // descend into the wrapper's parameter
            continue;
        }
        return Some(id.text.clone());
    }
}

/// Extracts the call sites in one function body.
fn collect_call_sites(body: &[TokenTree], out: &mut Vec<CallSite>) {
    engine::visit_streams(body, &mut |stream| {
        for (i, t) in stream.iter().enumerate() {
            let TokenTree::Ident(id) = t else { continue };
            let name = id.text.as_str();
            if NON_CALL_IDENTS.contains(&name) {
                continue;
            }
            if engine::paren_at(stream, i + 1).is_none() {
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| stream.get(p));
            if engine::is_punct(prev, '.') {
                let recv = i
                    .checked_sub(2)
                    .and_then(|p| stream.get(p))
                    .and_then(TokenTree::ident)
                    .map(str::to_string);
                out.push(CallSite::Method { recv, name: name.to_string() });
            } else if i >= 2 && engine::is_path_sep(stream, i - 2) {
                if let Some(qual) =
                    i.checked_sub(3).and_then(|p| stream.get(p)).and_then(TokenTree::ident)
                {
                    out.push(CallSite::Assoc { qual: qual.to_string(), name: name.to_string() });
                }
            } else if name.starts_with(char::is_lowercase) {
                // Uppercase `Name(...)` is a tuple-struct/variant
                // constructor, not a call.
                out.push(CallSite::Free(name.to_string()));
            }
        }
    });
}

/// Builds the workspace call graph over the parsed units.
///
/// `files` pairs each unit's index with its parsed items; `decl_types`
/// is the workspace-wide `ident: Type` map from [`collect_decl_types`]
/// (exposed so `lint_units` can build it from the flattened streams it
/// already has).
pub fn build(units: &[(usize, String, &[Item])]) -> CallGraph {
    let mut nodes = Vec::new();
    let mut bodies: Vec<Option<&syn::Group>> = Vec::new();
    let mut decl_types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    for (unit, crate_key, items) in units {
        let mut fns = Vec::new();
        collect_fns(items, false, None, &mut fns);
        for (f, in_test, ty) in fns {
            let start_line = f.ident.span.line;
            let mut end_line = start_line;
            if let Some(b) = &f.body {
                end_line = end_line.max(b.span.line);
                max_line(&b.stream, &mut end_line);
            }
            nodes.push(FnNode {
                unit: *unit,
                crate_key: crate_key.clone(),
                ty,
                name: f.ident.text.clone(),
                start_line,
                end_line,
                in_test,
            });
            bodies.push(f.body.as_ref());
            // Param and local declarations participate in receiver
            // typing alongside struct fields.
            collect_decl_types(&f.signature, &mut decl_types);
            if let Some(b) = &f.body {
                collect_decl_types(&b.stream, &mut decl_types);
            }
        }
        // Struct/enum bodies and consts live outside fn items.
        let flat = engine::flatten(items);
        collect_decl_types(&flat, &mut decl_types);
    }

    // Resolution indexes over non-test nodes.
    let mut free_idx: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut method_idx: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed_idx: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (ix, n) in nodes.iter().enumerate() {
        if n.in_test {
            continue;
        }
        match &n.ty {
            None => free_idx.entry(n.name.as_str()).or_default().push(ix),
            Some(t) => {
                method_idx.entry(n.name.as_str()).or_default().push(ix);
                typed_idx.entry((t.as_str(), n.name.as_str())).or_default().push(ix);
            }
        }
    }
    let unique_in = |cands: Option<&Vec<usize>>, caller: &FnNode| -> Option<usize> {
        let cands = cands?;
        let same_crate: Vec<usize> =
            cands.iter().copied().filter(|&c| nodes[c].crate_key == caller.crate_key).collect();
        match same_crate.as_slice() {
            [one] => Some(*one),
            [] if cands.len() == 1 => Some(cands[0]),
            _ => None,
        }
    };

    let mut edges = vec![Vec::new(); nodes.len()];
    let mut resolved_calls = 0usize;
    let mut unknown_calls = 0usize;
    for (ix, body) in bodies.iter().enumerate() {
        let Some(body) = body else { continue };
        let caller = &nodes[ix];
        let mut sites = Vec::new();
        collect_call_sites(&body.stream, &mut sites);
        for site in sites {
            let target = match &site {
                CallSite::Free(name) => unique_in(free_idx.get(name.as_str()), caller),
                CallSite::Assoc { qual, name } => {
                    let ty = if qual == "Self" { caller.ty.clone() } else { Some(qual.clone()) };
                    ty.and_then(|t| unique_in(typed_idx.get(&(t.as_str(), name.as_str())), caller))
                        .or_else(|| {
                            // Module-path call: `widemath::mul_div_ceil`.
                            qual.starts_with(char::is_lowercase)
                                .then(|| unique_in(free_idx.get(name.as_str()), caller))
                                .flatten()
                        })
                }
                CallSite::Method { recv, name } => {
                    let via_self = (recv.as_deref() == Some("self"))
                        .then_some(caller.ty.as_ref())
                        .flatten()
                        .and_then(|t| unique_in(typed_idx.get(&(t.as_str(), name.as_str())), caller));
                    let via_decl = || {
                        let r = recv.as_deref()?;
                        let types = decl_types.get(r)?;
                        // A typed receiver resolves when exactly one of
                        // the types declared under that name defines the
                        // method (an ambiguous name like `telemetry:
                        // Telemetry` vs `telemetry: TelemetryConfig`
                        // disambiguates through the method itself).
                        let mut hits = types
                            .iter()
                            .filter_map(|t| {
                                unique_in(typed_idx.get(&(t.as_str(), name.as_str())), caller)
                            })
                            .collect::<Vec<_>>();
                        hits.dedup();
                        match hits.as_slice() {
                            [one] => Some(*one),
                            _ => None,
                        }
                    };
                    let via_unique = || {
                        if UBIQUITOUS_METHODS.contains(&name.as_str()) {
                            return None;
                        }
                        let cands = method_idx.get(name.as_str())?;
                        (cands.len() == 1).then(|| cands[0])
                    };
                    via_self.or_else(via_decl).or_else(via_unique)
                }
            };
            match target {
                Some(t) => {
                    resolved_calls += 1;
                    if !edges[ix].contains(&t) {
                        edges[ix].push(t);
                    }
                }
                None => unknown_calls += 1,
            }
        }
    }
    CallGraph { nodes, edges, resolved_calls, unknown_calls }
}

/// Multi-root bounded BFS over resolved edges. Returns, per reachable
/// non-test node, the root and shortest chain that made it hot. A node
/// reached by several roots keeps the reaching with the most remaining
/// depth (ties: first root in spec order), so the hot set is maximal
/// and deterministic.
pub fn hot_set(graph: &CallGraph, roots: &[HotRoot]) -> BTreeMap<usize, HotInfo> {
    let mut best_left: BTreeMap<usize, usize> = BTreeMap::new();
    let mut info: BTreeMap<usize, HotInfo> = BTreeMap::new();
    for root in roots {
        for (ix, node) in graph.nodes.iter().enumerate() {
            if !root_matches(root, node) {
                continue;
            }
            let mut queue = VecDeque::new();
            queue.push_back((ix, root.depth, vec![ix]));
            while let Some((at, left, chain)) = queue.pop_front() {
                let better = best_left.get(&at).is_none_or(|&have| left > have);
                if !better {
                    continue;
                }
                best_left.insert(at, left);
                info.insert(at, HotInfo { root: root.spec.clone(), chain: chain.clone() });
                if left == 0 {
                    continue;
                }
                for &next in &graph.edges[at] {
                    if graph.nodes[next].in_test || chain.contains(&next) {
                        continue;
                    }
                    let mut c = chain.clone();
                    c.push(next);
                    queue.push_back((next, left - 1, c));
                }
            }
        }
    }
    info
}

/// Renders a chain as `A::f → B::g → h`.
pub fn chain_display(graph: &CallGraph, chain: &[usize]) -> String {
    chain.iter().map(|&ix| graph.nodes[ix].display()).collect::<Vec<_>>().join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        let file = syn::parse_file(src).expect("fixture parses");
        build(&[(0, "crates/x".to_string(), &file.items)])
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).expect("node present")
    }

    #[test]
    fn free_calls_resolve_same_crate() {
        let g = graph_of("fn a() { b(); }\nfn b() {}\n");
        assert_eq!(g.edges[node(&g, "a")], vec![node(&g, "b")]);
        assert_eq!(g.resolved_calls, 1);
    }

    #[test]
    fn self_methods_resolve_within_impl() {
        let g = graph_of(
            "struct S;\nimpl S {\n    fn a(&self) { self.b(); }\n    fn b(&self) {}\n}\n",
        );
        assert_eq!(g.nodes[node(&g, "a")].ty.as_deref(), Some("S"));
        assert_eq!(g.edges[node(&g, "a")], vec![node(&g, "b")]);
    }

    #[test]
    fn trait_impl_type_is_the_for_side() {
        let g = graph_of(
            "struct Ev;\nimpl fmt::Debug for Ev {\n    fn dump(&self) { self.walk(); }\n    \
             fn walk(&self) {}\n}\n",
        );
        assert_eq!(g.nodes[node(&g, "dump")].ty.as_deref(), Some("Ev"));
        assert_eq!(g.edges[node(&g, "dump")], vec![node(&g, "walk")]);
    }

    #[test]
    fn typed_receiver_resolves_through_field_decl() {
        let g = graph_of(
            "struct Tel;\nimpl Tel {\n    fn count(&self) {}\n}\n\
             struct Net { telemetry: Tel }\nimpl Net {\n    \
             fn hot(&self) { self.telemetry.count(); }\n}\n",
        );
        assert_eq!(g.edges[node(&g, "hot")], vec![node(&g, "count")]);
    }

    #[test]
    fn wrapped_receiver_type_is_stripped() {
        let g = graph_of(
            "struct Inner;\nimpl Inner {\n    fn poke(&self) {}\n}\n\
             struct Outer { inner: Arc<Inner> }\nimpl Outer {\n    \
             fn hot(&self) { self.inner.poke(); }\n}\n",
        );
        assert_eq!(g.edges[node(&g, "hot")], vec![node(&g, "poke")]);
    }

    #[test]
    fn ubiquitous_method_names_stay_unknown() {
        let g = graph_of(
            "struct Q;\nimpl Q {\n    fn push(&self) {}\n}\nfn hot(v: &mut Vec<u32>) { v.push(1); }\n",
        );
        assert!(g.edges[node(&g, "hot")].is_empty());
        assert_eq!(g.unknown_calls, 1);
    }

    #[test]
    fn ambiguous_receiver_types_stay_unknown() {
        let g = graph_of(
            "struct A;\nimpl A {\n    fn go(&self) {}\n}\nstruct B;\nimpl B {\n    fn go(&self) {}\n}\n\
             struct H { x: A }\nstruct I { x: B }\nimpl H {\n    fn hot(&self) { self.x.go(); }\n}\n",
        );
        assert!(g.edges[node(&g, "hot")].is_empty(), "x declares two types; no edge");
    }

    #[test]
    fn module_path_assoc_falls_back_to_free_fn() {
        let g = graph_of("fn mul(a: u64) -> u64 { a }\nfn hot() { widemath::mul(3); }\n");
        assert_eq!(g.edges[node(&g, "hot")], vec![node(&g, "mul")]);
    }

    #[test]
    fn test_fns_are_neither_targets_nor_hot() {
        let src = "fn hot() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let g = graph_of(src);
        assert!(g.edges[node(&g, "hot")].is_empty(), "test helper is not a target");
        let roots = [parse_hot_root("hot").unwrap()];
        let hot = hot_set(&g, &roots);
        assert!(hot.contains_key(&node(&g, "hot")));
    }

    #[test]
    fn hot_root_grammar_parses_all_forms() {
        let r = parse_hot_root("simnet::Network::transfer").unwrap();
        assert_eq!(
            (r.krate.as_deref(), r.ty.as_deref(), r.name.as_str(), r.depth),
            (Some("simnet"), Some("Network"), "transfer", DEFAULT_DEPTH)
        );
        let r = parse_hot_root("iocontainers::policy_tick@2").unwrap();
        assert_eq!((r.krate.as_deref(), r.ty.as_deref(), r.depth), (Some("iocontainers"), None, 2));
        let r = parse_hot_root("Worker::dispatch").unwrap();
        assert_eq!((r.krate.as_deref(), r.ty.as_deref()), (None, Some("Worker")));
        let r = parse_hot_root("entry@1").unwrap();
        assert_eq!((r.name.as_str(), r.depth), ("entry", 1));
        assert!(parse_hot_root("").is_none());
        assert!(parse_hot_root("a::@2").is_none());
    }

    #[test]
    fn default_roots_all_parse() {
        for spec in DEFAULT_HOT_ROOTS {
            assert!(parse_hot_root(spec).is_some(), "default root {spec:?} must parse");
        }
    }

    #[test]
    fn reachability_respects_depth() {
        let g = graph_of("fn a() { b(); }\nfn b() { c(); }\nfn c() { d(); }\nfn d() {}\n");
        let roots = [parse_hot_root("a@2").unwrap()];
        let hot = hot_set(&g, &roots);
        assert!(hot.contains_key(&node(&g, "a")));
        assert!(hot.contains_key(&node(&g, "c")), "depth 2 reaches the grand-callee");
        assert!(!hot.contains_key(&node(&g, "d")), "depth 2 stops before the third hop");
        let chain = &hot[&node(&g, "c")].chain;
        assert_eq!(chain_display(&g, chain), "a → b → c");
    }

    #[test]
    fn deeper_root_wins_on_overlap() {
        let g = graph_of("fn a() { m(); }\nfn z() { m(); }\nfn m() { deep(); }\nfn deep() {}\n");
        let roots = [parse_hot_root("a@1").unwrap(), parse_hot_root("z@3").unwrap()];
        let hot = hot_set(&g, &roots);
        assert_eq!(hot[&node(&g, "m")].root, "z@3", "more remaining depth wins");
        assert!(hot.contains_key(&node(&g, "deep")));
    }

    #[test]
    fn directives_parse_from_comments() {
        let src = "// simlint: hot-root(Worker::dispatch@4)\nfn f() {}\n";
        let d = hot_root_directives(src);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].ty.as_deref(), d[0].depth), (Some("Worker"), 4));
    }
}
