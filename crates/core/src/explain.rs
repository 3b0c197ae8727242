//! Liveness provenance: renders, for one data member, *why* the analysis
//! classified it the way it did — the `--explain Class::member` feature.
//!
//! A live member's explanation is a witness chain: the [`Origin`] recorded
//! at its first (winning) mark, plus the shortest call-graph path from
//! `main` to the function containing the inducing access. Every input to
//! the rendering — origins, reasons, the call graph — is bit-identical
//! across `--jobs` values and cache states, so the explanation text is
//! too.

use crate::liveness::{LiveReason, Liveness, Origin};
use ddm_callgraph::CallGraph;
use ddm_hierarchy::{FuncId, MemberRef, Program};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Why an `--explain` spec could not be answered. The two variants are
/// the client-facing distinction daemon consumers need: a
/// [`ExplainError::BadRequest`] is a malformed query (fix the request),
/// a [`ExplainError::NotFound`] is a well-formed query that names
/// nothing in the program (fix the name, or the program changed). The
/// rendered messages are stable — tests pin them — and distinct between
/// the variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// The spec itself is malformed (no `::` separator).
    BadRequest(String),
    /// The spec parses, but the class or member does not exist.
    NotFound(String),
}

impl ExplainError {
    /// The stable message text (what [`fmt::Display`] renders).
    pub fn message(&self) -> &str {
        match self {
            ExplainError::BadRequest(m) | ExplainError::NotFound(m) => m,
        }
    }

    /// The protocol error-kind tag serve mode reports
    /// (`"bad_request"` / `"not_found"`).
    pub fn kind(&self) -> &'static str {
        match self {
            ExplainError::BadRequest(_) => "bad_request",
            ExplainError::NotFound(_) => "not_found",
        }
    }
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ExplainError {}

/// The shortest path `main -> ... -> target` in the call graph, or `None`
/// when `target` is reachable only by a conservative root assumption
/// (virtual method of a library-instantiated class, address-taken
/// function) rather than by calls from `main`.
///
/// Breadth-first over [`CallGraph::callees`], whose iteration order is
/// the deterministic `FuncId` order — ties between equal-length paths
/// always break the same way.
pub fn witness_path(program: &Program, callgraph: &CallGraph, target: FuncId) -> Option<Vec<FuncId>> {
    let main = program.main_function()?;
    if !callgraph.is_reachable(target) {
        return None;
    }
    // `pred[f]` is the function whose callees first reached `f`; `main`
    // is its own, so `Some` also marks a function as seen.
    let mut pred: Vec<Option<FuncId>> = vec![None; program.function_count()];
    pred[main.index()] = Some(main);
    let mut queue = VecDeque::from([main]);
    while let Some(f) = queue.pop_front() {
        if f == target {
            let mut path = vec![target];
            let mut cur = target;
            while cur != main {
                cur = pred[cur.index()].expect("a queued function has a predecessor");
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for callee in callgraph.callees(f) {
            let slot = &mut pred[callee.index()];
            if slot.is_none() {
                *slot = Some(f);
                queue.push_back(callee);
            }
        }
    }
    None
}

/// Explains the classification of the member named by `spec`
/// (`Class::member`).
///
/// # Errors
///
/// [`ExplainError::BadRequest`] when `spec` is not of the form
/// `Class::member`; [`ExplainError::NotFound`] when it is but names no
/// class or data member of `program`.
pub fn explain(
    program: &Program,
    callgraph: &CallGraph,
    liveness: &Liveness,
    spec: &str,
) -> Result<String, ExplainError> {
    let member = resolve_spec(program, spec)?;
    let label = member_label(program, member);
    let mut out = String::new();

    if liveness.is_unclassifiable(member) {
        out.push_str(&format!(
            "{label}: UNCLASSIFIABLE\n  member of library class {}, whose source is unavailable; \
             the analysis cannot prove it dead (§3.3)\n",
            program.class(member.class).name
        ));
        return Ok(out);
    }
    if !liveness.is_live(member) {
        out.push_str(&format!(
            "{label}: DEAD\n  never read, address-taken, or otherwise livened in code reachable \
             from main\n"
        ));
        return Ok(out);
    }

    let reason = liveness
        .reason(member)
        .expect("live member always has a reason");
    out.push_str(&format!("{label}: LIVE ({reason})\n"));
    let mut seen = HashSet::from([member]);
    explain_origin(program, callgraph, liveness, member, reason, 1, &mut seen, &mut out);
    Ok(out)
}

/// Appends the explanation of one member's origin at `depth` (two spaces
/// of indent per level), recursing through union witnesses with `seen` as
/// the cycle guard.
#[allow(clippy::too_many_arguments)]
fn explain_origin(
    program: &Program,
    callgraph: &CallGraph,
    liveness: &Liveness,
    member: MemberRef,
    reason: LiveReason,
    depth: usize,
    seen: &mut HashSet<MemberRef>,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    let Some(origin) = liveness.origin(member) else {
        // Unreachable for members marked by this crate's analysis, but a
        // hand-built Liveness may lack provenance.
        out.push_str(&format!("{pad}(no provenance recorded)\n"));
        return;
    };
    match origin {
        Origin::Access { func } => {
            let verb = match reason {
                LiveReason::Read => "read",
                LiveReason::AddressTaken => "address taken",
                LiveReason::PointerToMember => "named by a pointer-to-member expression",
                LiveReason::VolatileWrite => "written through its volatile qualifier",
                // An Access origin only carries direct-access reasons.
                other => return out.push_str(&format!("{pad}{other} (inconsistent provenance)\n")),
            };
            out.push_str(&format!("{pad}{verb} in {}\n", site_label(program, func)));
            push_call_chain(program, callgraph, func, &pad, out);
        }
        Origin::MarkAll { func, root } => {
            let root_name = &program.class(root).name;
            let trigger = match reason {
                LiveReason::Sizeof => format!("a conservative sizeof({root_name})"),
                _ => "an unsafe cast".to_string(),
            };
            out.push_str(&format!(
                "{pad}swept live by MarkAllContainedMembers: {trigger} in {} forced every member \
                 contained in {root_name} live\n",
                site_label(program, func)
            ));
            push_call_chain(program, callgraph, func, &pad, out);
        }
        Origin::Union { root, via } => {
            let via_label = member_label(program, via);
            out.push_str(&format!(
                "{pad}livened by union propagation: union {} contains live member {via_label}, so \
                 every member it contains becomes live\n",
                program.class(root).name
            ));
            if !seen.insert(via) {
                out.push_str(&format!("{pad}  (witness {via_label} already explained above)\n"));
                return;
            }
            let Some(via_reason) = liveness.reason(via) else {
                return;
            };
            out.push_str(&format!("{pad}because {via_label} is LIVE ({via_reason}):\n"));
            explain_origin(
                program,
                callgraph,
                liveness,
                via,
                via_reason,
                depth + 1,
                seen,
                out,
            );
        }
    }
}

/// Appends the `call chain:` line for the function containing an inducing
/// access (nothing for the global initializers, which need no chain).
fn push_call_chain(
    program: &Program,
    callgraph: &CallGraph,
    func: Option<FuncId>,
    pad: &str,
    out: &mut String,
) {
    let Some(func) = func else {
        return;
    };
    match witness_path(program, callgraph, func) {
        Some(path) => {
            let chain: Vec<String> = path
                .iter()
                .map(|&f| program.func_display_name(f))
                .collect();
            out.push_str(&format!("{pad}call chain: {}\n", chain.join(" -> ")));
        }
        None => out.push_str(&format!(
            "{pad}call chain: {} (call-graph root: reachable by conservative assumption, not by \
             calls from main)\n",
            program.func_display_name(func)
        )),
    }
}

/// `<global initializers>` or the function's display name.
fn site_label(program: &Program, func: Option<FuncId>) -> String {
    match func {
        Some(f) => program.func_display_name(f),
        None => "<global initializers> (run unconditionally before main)".to_string(),
    }
}

/// `Class::member` for display.
fn member_label(program: &Program, member: MemberRef) -> String {
    let class = program.class(member.class);
    format!("{}::{}", class.name, class.members[member.index as usize].name)
}

/// Resolves a `Class::member` spec against the program.
fn resolve_spec(program: &Program, spec: &str) -> Result<MemberRef, ExplainError> {
    let (class_name, member_name) = spec.split_once("::").ok_or_else(|| {
        ExplainError::BadRequest(format!("invalid member spec '{spec}': expected Class::member"))
    })?;
    let cid = program
        .class_by_name(class_name)
        .ok_or_else(|| ExplainError::NotFound(format!("unknown class '{class_name}'")))?;
    let idx = program
        .class(cid)
        .members
        .iter()
        .position(|m| m.name == member_name)
        .ok_or_else(|| {
            ExplainError::NotFound(format!(
                "class '{class_name}' has no data member '{member_name}'"
            ))
        })?;
    Ok(MemberRef::new(cid, idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisPipeline;

    fn run(src: &str) -> AnalysisPipeline {
        AnalysisPipeline::from_source(src).expect("pipeline")
    }

    fn explain_run(run: &AnalysisPipeline, spec: &str) -> String {
        explain(run.program(), run.callgraph(), run.liveness(), spec).expect("explain")
    }

    #[test]
    fn live_member_gets_chain_from_main() {
        let run = run("class A { public: int m; };\n\
             int helper(A* a) { return a->m; }\n\
             int main() { A a; return helper(&a); }");
        let text = explain_run(&run, "A::m");
        assert!(text.starts_with("A::m: LIVE (read)"), "{text}");
        assert!(text.contains("read in helper"), "{text}");
        assert!(text.contains("call chain: main -> helper"), "{text}");
    }

    #[test]
    fn dead_member_says_so() {
        let run = run("class A { public: int w; };\n\
             int main() { A a; a.w = 1; return 0; }");
        let text = explain_run(&run, "A::w");
        assert!(text.starts_with("A::w: DEAD"), "{text}");
        assert!(text.contains("never read"), "{text}");
    }

    #[test]
    fn union_explanation_recurses_to_the_witness() {
        let run = run("union U { int i; float f; };\n\
             int main() { U u; return u.i; }");
        let text = explain_run(&run, "U::f");
        assert!(text.starts_with("U::f: LIVE (union propagation)"), "{text}");
        assert!(text.contains("contains live member U::i"), "{text}");
        assert!(text.contains("because U::i is LIVE (read)"), "{text}");
        assert!(text.contains("call chain: main"), "{text}");
    }

    #[test]
    fn markall_explanation_names_the_root() {
        let run = run("class A { public: int m; };\n\
             int main() { A* a = new A(); long v = reinterpret_cast<long>(a); return 0; }");
        let text = explain_run(&run, "A::m");
        assert!(text.starts_with("A::m: LIVE (unsafe cast)"), "{text}");
        assert!(text.contains("MarkAllContainedMembers"), "{text}");
        assert!(text.contains("contained in A"), "{text}");
        assert!(text.contains("call chain: main"), "{text}");
    }

    #[test]
    fn unknown_specs_are_errors() {
        let run = run("class A { public: int m; }; int main() { A a; return a.m; }");
        assert!(explain(run.program(), run.callgraph(), run.liveness(), "A::nope").is_err());
        assert!(explain(run.program(), run.callgraph(), run.liveness(), "Nope::m").is_err());
        assert!(explain(run.program(), run.callgraph(), run.liveness(), "plain").is_err());
    }

    #[test]
    fn malformed_and_unknown_specs_are_distinct_stable_errors() {
        let run = run("class A { public: int m; }; int main() { A a; return a.m; }");
        let at =
            |spec: &str| explain(run.program(), run.callgraph(), run.liveness(), spec).unwrap_err();

        let malformed = at("plain");
        assert_eq!(malformed.kind(), "bad_request");
        assert_eq!(
            malformed.to_string(),
            "invalid member spec 'plain': expected Class::member"
        );

        let no_class = at("Nope::m");
        assert_eq!(no_class.kind(), "not_found");
        assert_eq!(no_class.to_string(), "unknown class 'Nope'");

        let no_member = at("A::nope");
        assert_eq!(no_member.kind(), "not_found");
        assert_eq!(no_member.to_string(), "class 'A' has no data member 'nope'");

        assert_ne!(
            malformed.to_string(),
            no_member.to_string(),
            "clients must be able to tell bad request from not found"
        );
    }
}
