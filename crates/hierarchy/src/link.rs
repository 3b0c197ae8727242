//! Links per-TU [`TuModule`]s into one whole-program model.
//!
//! The link step mirrors a C++ linker restricted to the header model the
//! front end assumes: every TU is self-contained for *types* (class and
//! enum definitions are textually duplicated across TUs, as if included
//! from a header, and merged under ODR identity — first definition
//! wins), while *functions* link by name (a body-less free-function
//! prototype in one TU binds to the definition in another, names only,
//! exactly like C linkage). Conflicting definitions are collected — all
//! of them, not just the first — and reported as a deterministic,
//! sorted diagnostic list.
//!
//! The output is a [`LinkedProgram`]: an assembled [`Program`] plus a
//! [`ProgramSummary`] whose per-function summaries were *resolved* from
//! the modules' symbolic summaries (cross-TU candidate tables recomputed
//! from the linked hierarchy), never re-walked. Function bodies are
//! injected from per-TU parses when available and synthesized as
//! analysis-equivalent stand-ins otherwise, so a cache-warm link (no
//! parses at all) drives the analysis to byte-identical output.

use crate::ids::{ClassId, FuncId};
use crate::model::{BaseInfo, ClassInfo, FunctionInfo, GlobalInfo, MemberInfo, Program};
use crate::module::{ClassRecord, FreeFnRecord, SymResolver, SymResult, TuModule};
use crate::summary::{FnSummary, ProgramSummary};
use crate::typewalk::TypeError;
use ddm_cppfront::ast::{CtorInit, Param, Type};
use ddm_cppfront::Span;
use ddm_telemetry::{EventClass, Telemetry};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// All definition conflicts found while linking, rendered one per line,
/// sorted and deduplicated so the diagnostic is deterministic for any
/// TU order and worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkError {
    /// Rendered conflict lines (sorted, deduplicated).
    pub conflicts: Vec<String>,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} definition conflict(s) across translation units:",
            self.conflicts.len()
        )?;
        for line in &self.conflicts {
            write!(f, "\n  {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LinkError {}

/// A linked whole-program view plus the per-TU provenance needed to
/// attribute later analysis errors back to a file.
#[derive(Debug)]
pub struct LinkedProgram {
    program: Program,
    summary: ProgramSummary,
    fn_tu: Vec<usize>,
    class_tu: Vec<usize>,
    global_tu: Vec<usize>,
    globals_err_tu: Option<usize>,
}

impl LinkedProgram {
    /// The assembled whole-program model.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The linked program summary (resolved, never re-walked).
    pub fn summary(&self) -> &ProgramSummary {
        &self.summary
    }

    /// The TU that provided `func`'s summary (its defining TU).
    pub fn fn_tu(&self, func: FuncId) -> usize {
        self.fn_tu[func.index()]
    }

    /// The TU whose definition of `class` won the ODR merge.
    pub fn class_tu(&self, class: ClassId) -> usize {
        self.class_tu[class.index()]
    }

    /// The TU that defined global number `index`.
    pub fn global_tu(&self, index: usize) -> usize {
        self.global_tu[index]
    }

    /// Best-effort attribution of an analysis-phase [`TypeError`] to the
    /// TU whose body produced it: scans the stored per-function results
    /// in id order, then the global-initializer result.
    pub fn locate_error(&self, err: &TypeError) -> Option<usize> {
        for i in 0..self.program.function_count() {
            let fid = FuncId::from_index(i);
            if self.summary.function(fid).as_ref() == Err(err) {
                return Some(self.fn_tu[i]);
            }
        }
        if self.summary.globals().as_ref() == Err(err) {
            return self.globals_err_tu;
        }
        None
    }
}

/// Where a free function's linked identity comes from.
struct FreeMerge<'m> {
    /// TU and record of the first appearance (prototype or definition) —
    /// fixes the function's position in the linked id order.
    first: (usize, &'m FreeFnRecord),
    /// TU and record of the winning definition, when one exists.
    def: Option<(usize, &'m FreeFnRecord)>,
}

impl<'m> FreeMerge<'m> {
    /// The record that provides the summary, body, and arity.
    fn provider(&self) -> (usize, &'m FreeFnRecord) {
        self.def.unwrap_or(self.first)
    }
}

fn loc(module: &TuModule, line: u32, col: u32) -> String {
    format!("{}:{line}:{col}", module.file)
}

/// Orders a pair of rendered locations so a conflict reads the same no
/// matter which TU the linker saw first.
fn pair(a: String, b: String) -> (String, String) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Links `modules` into one program. `parsed[t]`, when present, is the
/// per-TU [`Program`] that `modules[t]` was extracted from; its function
/// bodies and global initializers are injected into the linked model
/// (the interpreter and the AST-walking reference analysis need them).
/// For cache-warm TUs pass `None`: analysis-equivalent stand-ins are
/// synthesized (same arity, same body-presence, same
/// initializer-presence — everything the analysis observes).
///
/// # Errors
///
/// [`LinkError`] listing every definition conflict.
pub fn link(modules: &[TuModule], parsed: &[Option<Program>]) -> Result<LinkedProgram, LinkError> {
    link_with(modules, parsed, &Telemetry::disabled())
}

/// [`link`] with telemetry: every ODR class merge, every definition
/// conflict, and the link summary land in the flight recorder.
///
/// Link decisions depend only on the module list (input order, built
/// identically cold or warm, on the coordinating thread), so all link
/// events are deterministic class.
///
/// # Errors
///
/// [`LinkError`] listing every definition conflict.
pub fn link_with(
    modules: &[TuModule],
    parsed: &[Option<Program>],
    telemetry: &Telemetry,
) -> Result<LinkedProgram, LinkError> {
    assert_eq!(
        modules.len(),
        parsed.len(),
        "one (optional) parse per module"
    );
    let mut conflicts: Vec<String> = Vec::new();

    // --- Merge classes under ODR identity (first definition wins). ---
    let mut class_first: HashMap<&str, (usize, &ClassRecord)> = HashMap::new();
    let mut class_order: Vec<(usize, &ClassRecord)> = Vec::new();
    for (t, m) in modules.iter().enumerate() {
        for c in &m.classes {
            let c: &ClassRecord = c;
            match class_first.get(c.name.as_str()) {
                None => {
                    class_first.insert(&c.name, (t, c));
                    class_order.push((t, c));
                }
                Some(&(ft, fc)) => {
                    // TUs that share a type prefix, and modules decoded
                    // from one snapshot, hold the kept record itself.
                    if std::ptr::eq(fc, c) || fc.odr_eq(c) {
                        telemetry.event(EventClass::Deterministic, "odr_class_merge", || {
                            vec![
                                ("class", c.name.as_str().into()),
                                ("kept_tu", modules[ft].file.as_str().into()),
                                ("dup_tu", m.file.as_str().into()),
                            ]
                        });
                    } else {
                        let (a, b) = pair(
                            loc(&modules[ft], fc.line, fc.col),
                            loc(&modules[t], c.line, c.col),
                        );
                        conflicts.push(format!(
                            "{} `{}` defined differently: {a} vs {b}",
                            c.kind, c.name,
                        ));
                    }
                }
            }
        }
    }

    // --- Merge enums (same identity rule: name + variants). ---
    let mut enum_first: HashMap<&str, (usize, &crate::module::EnumRecord)> = HashMap::new();
    let mut enum_order: Vec<(usize, &crate::module::EnumRecord)> = Vec::new();
    for (t, m) in modules.iter().enumerate() {
        for e in &m.enums {
            match enum_first.get(e.name.as_str()) {
                None => {
                    enum_first.insert(&e.name, (t, e));
                    enum_order.push((t, e));
                    if let Some(&(ct, cc)) = class_first.get(e.name.as_str()) {
                        conflicts.push(format!(
                            "`{}` is a {} at {} and an enum at {}",
                            e.name,
                            cc.kind,
                            loc(&modules[ct], cc.line, cc.col),
                            loc(&modules[t], e.line, e.col),
                        ));
                    }
                }
                Some(&(ft, fe)) => {
                    if fe.variants != e.variants {
                        let (a, b) = pair(
                            loc(&modules[ft], fe.line, fe.col),
                            loc(&modules[t], e.line, e.col),
                        );
                        conflicts
                            .push(format!("enum `{}` defined differently: {a} vs {b}", e.name));
                    }
                }
            }
        }
    }

    // --- Enumerator values must agree across all enums that are kept. ---
    let mut enumerator_first: HashMap<&str, (usize, &crate::module::EnumRecord, i64)> =
        HashMap::new();
    for &(t, e) in &enum_order {
        for (name, value) in &e.variants {
            match enumerator_first.get(name.as_str()) {
                None => {
                    enumerator_first.insert(name, (t, e, *value));
                }
                Some(&(ft, fe, fv)) => {
                    if fv != *value {
                        let mut defs = [
                            (loc(&modules[ft], fe.line, fe.col), fv),
                            (loc(&modules[t], e.line, e.col), *value),
                        ];
                        defs.sort();
                        conflicts.push(format!(
                            "enumerator `{name}` has conflicting values: {} at {} vs {} at {}",
                            defs[0].1, defs[0].0, defs[1].1, defs[1].0,
                        ));
                    }
                }
            }
        }
    }

    // --- Globals: exactly one definition per name, program-wide. ---
    let mut global_first: HashMap<&str, (usize, &crate::module::GlobalRecord)> = HashMap::new();
    for (t, m) in modules.iter().enumerate() {
        for g in &m.globals {
            match global_first.get(g.name.as_str()) {
                None => {
                    global_first.insert(&g.name, (t, g));
                }
                Some(&(ft, fg)) => {
                    let (a, b) = pair(
                        loc(&modules[ft], fg.line, fg.col),
                        loc(&modules[t], g.line, g.col),
                    );
                    conflicts.push(format!(
                        "global `{}` defined in two translation units: {a} and {b}",
                        g.name,
                    ));
                }
            }
        }
    }

    // --- Free functions: C-style linkage, names only. A prototype
    // binds to the definition; two definitions must be textually
    // identical (same source fingerprint). Position in the linked id
    // order is the name's first appearance. ---
    let mut free_merge: HashMap<&str, FreeMerge<'_>> = HashMap::new();
    let mut free_order: Vec<&str> = Vec::new();
    for (t, m) in modules.iter().enumerate() {
        for f in &m.free_fns {
            match free_merge.get_mut(f.name.as_str()) {
                None => {
                    free_order.push(&f.name);
                    free_merge.insert(
                        &f.name,
                        FreeMerge {
                            first: (t, f),
                            def: f.has_body.then_some((t, f)),
                        },
                    );
                }
                Some(merge) => {
                    if f.has_body {
                        match merge.def {
                            None => merge.def = Some((t, f)),
                            Some((dt, df)) => {
                                if df.body_fp != f.body_fp {
                                    let (a, b) = pair(
                                        loc(&modules[dt], df.line, df.col),
                                        loc(&modules[t], f.line, f.col),
                                    );
                                    conflicts.push(format!(
                                        "function `{}` defined differently: {a} vs {b}",
                                        f.name,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    if !conflicts.is_empty() {
        conflicts.sort();
        conflicts.dedup();
        for line in &conflicts {
            telemetry.event(EventClass::Deterministic, "link_conflict", || {
                vec![("detail", line.as_str().into())]
            });
        }
        return Err(LinkError { conflicts });
    }

    // --- Assign linked ids and assemble the model. Order matches the
    // single-TU front end: classes by first appearance; all methods
    // (class order, declaration order) before free functions. ---
    let class_id: HashMap<&str, ClassId> = class_order
        .iter()
        .enumerate()
        .map(|(i, (_, c))| (c.name.as_str(), ClassId::from_index(i)))
        .collect();

    let mut classes: Vec<ClassInfo> = Vec::with_capacity(class_order.len());
    let mut class_tu: Vec<usize> = Vec::with_capacity(class_order.len());
    let mut functions: Vec<FunctionInfo> = Vec::new();
    let mut fn_tu: Vec<usize> = Vec::new();
    let mut fn_summaries: Vec<&SymResult> = Vec::new();

    for (ci, &(t, rec)) in class_order.iter().enumerate() {
        let linked_cid = ClassId::from_index(ci);
        let per_tu = parsed[t].as_ref();
        let per_tu_cid = per_tu.map(|p| {
            p.class_by_name(&rec.name)
                .expect("a module's class exists in the program it was extracted from")
        });
        let mut methods = Vec::with_capacity(rec.methods.len());
        for (i, mrec) in rec.methods.iter().enumerate() {
            let fid = FuncId::from_index(functions.len());
            methods.push(fid);
            let info = match (per_tu, per_tu_cid) {
                (Some(p), Some(cid)) => {
                    let f = p.function(p.class(cid).methods[i]);
                    FunctionInfo {
                        class: Some(linked_cid),
                        ..f.clone()
                    }
                }
                _ => synth_function(
                    &mrec.name,
                    mrec.kind,
                    Some(linked_cid),
                    mrec.is_virtual,
                    mrec.arity,
                    mrec.has_body,
                    mrec.has_inits,
                ),
            };
            functions.push(info);
            fn_tu.push(t);
            fn_summaries.push(&mrec.summary);
        }
        classes.push(ClassInfo {
            name: rec.name.clone(),
            kind: rec.kind,
            bases: rec
                .bases
                .iter()
                .map(|(name, is_virtual)| BaseInfo {
                    id: class_id[name.as_str()],
                    is_virtual: *is_virtual,
                })
                .collect(),
            members: rec
                .members
                .iter()
                .map(|m| MemberInfo {
                    name: m.name.clone(),
                    ty: m.ty.clone(),
                    is_volatile: m.is_volatile,
                    span: Span::dummy(),
                })
                .collect(),
            methods,
            span: Span::dummy(),
        });
        class_tu.push(t);
    }

    for name in &free_order {
        let (t, rec) = free_merge[name].provider();
        let info = match parsed[t].as_ref() {
            Some(p) => {
                let f = p.function(
                    p.free_function(name)
                        .expect("a module's free function exists in its own program"),
                );
                FunctionInfo {
                    class: None,
                    ..f.clone()
                }
            }
            None => synth_function(
                name,
                ddm_cppfront::ast::FunctionKind::Free,
                None,
                false,
                rec.arity,
                rec.has_body,
                false,
            ),
        };
        functions.push(info);
        fn_tu.push(t);
        fn_summaries.push(&rec.summary);
    }

    // --- Globals, concatenated in TU order. ---
    let mut globals: Vec<GlobalInfo> = Vec::new();
    let mut global_tu: Vec<usize> = Vec::new();
    for (t, m) in modules.iter().enumerate() {
        for g in &m.globals {
            let (init, base) = parsed[t]
                .as_ref()
                .and_then(|p| p.globals().iter().find(|pg| pg.name == g.name))
                .map_or((None, 0), |pg| (pg.init.clone(), pg.base));
            globals.push(GlobalInfo {
                name: g.name.clone(),
                ty: g.ty.clone(),
                init,
                span: Span::dummy(),
                base,
            });
            global_tu.push(t);
        }
    }

    // --- Enums, merged. ---
    let mut enum_consts: HashMap<String, i64> = HashMap::new();
    let mut enum_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    for &(_, e) in &enum_order {
        enum_names.insert(e.name.clone());
        for (name, value) in &e.variants {
            enum_consts.insert(name.clone(), *value);
        }
    }

    let program = Program::assemble(classes, functions, globals, enum_consts, enum_names);

    // --- Resolve the symbolic summaries against the linked id space.
    // Candidate tables (virtual dispatch, `delete` obligations) are
    // recomputed from the linked hierarchy inside the resolver. ---
    let resolver = SymResolver::new(&program);
    let function_results: Vec<Result<FnSummary, TypeError>> =
        fn_summaries.iter().map(|s| resolver.resolve(s)).collect();

    let mut globals_err_tu = None;
    let mut globals_result: Result<FnSummary, TypeError> = Ok(FnSummary {
        live_steps: Vec::new(),
        cg_steps: Vec::new(),
    });
    for (t, m) in modules.iter().enumerate() {
        match resolver.resolve(&m.globals_summary) {
            Ok(s) => {
                if let Ok(acc) = &mut globals_result {
                    acc.live_steps.extend(s.live_steps);
                    acc.cg_steps.extend(s.cg_steps);
                }
            }
            Err(e) => {
                globals_err_tu = Some(t);
                globals_result = Err(e);
                break;
            }
        }
    }

    let summary = ProgramSummary::from_parts(&program, function_results, globals_result);

    telemetry.event(EventClass::Deterministic, "link_done", || {
        vec![
            ("tus", modules.len().into()),
            ("classes", program.class_count().into()),
            ("functions", program.function_count().into()),
            ("globals", program.globals().len().into()),
        ]
    });
    telemetry.metrics(|m| {
        m.gauge_set("link/tus", modules.len() as i64);
        m.gauge_set("link/classes", program.class_count() as i64);
        m.gauge_set("link/functions", program.function_count() as i64);
    });

    Ok(LinkedProgram {
        program,
        summary,
        fn_tu,
        class_tu,
        global_tu,
        globals_err_tu,
    })
}

/// An analysis-equivalent stand-in for an unparsed (cache-warm)
/// function: same name/kind/virtualness, `arity` placeholder parameters
/// (constructor overloads resolve by arity), a placeholder body iff the
/// real one had a body, one placeholder initializer iff the real one had
/// any. The analysis reads nothing else from a `FunctionInfo`.
fn synth_function(
    name: &str,
    kind: ddm_cppfront::ast::FunctionKind,
    class: Option<ClassId>,
    is_virtual: bool,
    arity: u32,
    has_body: bool,
    has_inits: bool,
) -> FunctionInfo {
    FunctionInfo {
        name: name.to_string(),
        kind,
        class,
        is_virtual,
        ret: Type::void(),
        params: (0..arity)
            .map(|_| Param {
                name: String::new(),
                ty: Type::int(),
                span: Span::dummy(),
            })
            .collect(),
        inits: if has_inits {
            Arc::from([CtorInit {
                name: String::new(),
                args: Vec::new(),
                span: Span::dummy(),
            }])
        } else {
            Arc::default()
        },
        body: has_body.then(Arc::default),
        span: Span::dummy(),
        base: 0,
        fp: 0,
    }
}

/// The summary-level difference between two module lists, computed
/// before linking. This is what drives the incremental warm path:
/// [`link_delta`] names exactly which classes and free functions an
/// edit touched, so the fixpoint can decide whether the previous
/// converged state is still valid (class space stable, no reachable
/// function perturbed) instead of re-running from scratch.
///
/// Identity is by *name* — the same identity the linker itself merges
/// under — and "changed" means the merged record is no longer
/// value-equal, which is strictly stronger than ODR identity (a method
/// body edit changes the summary but not the ODR shape; it still must
/// invalidate the fixpoint).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkDelta {
    /// Positions (input order) of TUs whose module content changed,
    /// including positions only present on one side.
    pub tus_changed: Vec<usize>,
    /// Class names present only in the new module list.
    pub classes_added: Vec<String>,
    /// Class names present only in the old module list.
    pub classes_removed: Vec<String>,
    /// Class names whose winning (first-appearance) record changed —
    /// ODR shape, method bodies, or summaries.
    pub classes_changed: Vec<String>,
    /// Free-function names present only in the new module list.
    pub fns_added: Vec<String>,
    /// Free-function names present only in the old module list.
    pub fns_removed: Vec<String>,
    /// Free-function names whose providing record (the definition when
    /// one exists, else the first prototype) changed.
    pub fns_changed: Vec<String>,
    /// Whether every TU's enums, globals, and global-initializer
    /// summary are unchanged (positionally).
    pub enums_and_globals_stable: bool,
}

impl LinkDelta {
    /// Whether nothing changed at all.
    pub fn is_empty(&self) -> bool {
        self.tus_changed.is_empty()
    }

    /// Whether the linked *class space* is unchanged: no class was
    /// added, removed, or edited, and enums/globals are stable. When
    /// this holds, class ids, member ids, dispatch tables, and layouts
    /// are identical to the previous link, so only function-level
    /// facts can differ.
    pub fn class_space_stable(&self) -> bool {
        self.classes_added.is_empty()
            && self.classes_removed.is_empty()
            && self.classes_changed.is_empty()
            && self.enums_and_globals_stable
    }

    /// Size of the function-level invalidation frontier: every free
    /// function the edit added, removed, or changed.
    pub fn frontier_len(&self) -> usize {
        self.fns_added.len() + self.fns_removed.len() + self.fns_changed.len()
    }
}

/// The per-name record a free function among `names` links to: the
/// definition when one exists, else the first prototype (mirrors
/// `FreeMerge::provider`, without conflict handling — delta computation
/// is observational).
fn free_providers<'a>(
    modules: impl IntoIterator<Item = &'a TuModule>,
    names: &HashSet<&str>,
) -> std::collections::BTreeMap<&'a str, &'a FreeFnRecord> {
    let mut map: std::collections::BTreeMap<&str, &FreeFnRecord> =
        std::collections::BTreeMap::new();
    for m in modules {
        let named = m.free_fns.iter().filter(|f| names.contains(f.name.as_str()));
        for f in named {
            match map.get(f.name.as_str()) {
                None => {
                    map.insert(&f.name, f);
                }
                Some(prev) if !prev.has_body && f.has_body => {
                    map.insert(&f.name, f);
                }
                Some(_) => {}
            }
        }
    }
    map
}

/// First-appearance class records among `names`, by name (the record
/// the ODR merge keeps).
fn class_winners<'a>(
    modules: impl IntoIterator<Item = &'a TuModule>,
    names: &HashSet<&str>,
) -> std::collections::BTreeMap<&'a str, &'a ClassRecord> {
    let mut map: std::collections::BTreeMap<&str, &ClassRecord> = std::collections::BTreeMap::new();
    for m in modules {
        for c in m.classes.iter().filter(|c| names.contains(c.name.as_str())) {
            let c: &ClassRecord = c;
            map.entry(&c.name).or_insert(c);
        }
    }
    map
}

/// Record equality that skips the field-by-field comparison when both
/// sides are the same record: a warm start diffs every unchanged TU's
/// module, class winner and function provider against itself.
fn same<T: PartialEq>(a: &T, b: &T) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// Computes the [`LinkDelta`] between the previous run's module list
/// and the current one. Input order is the TU order handed to
/// [`link`]; both lists may differ in length (TUs added or dropped).
///
/// Cost is linear in the two module lists and independent of the
/// analysis itself; it runs once per warm start.
pub fn link_delta(old: &[TuModule], new: &[TuModule]) -> LinkDelta {
    let old_refs: Vec<&TuModule> = old.iter().collect();
    link_delta_ref(&old_refs, new)
}

/// [`link_delta`] over borrowed previous modules. A warm start keeps
/// the previous run's modules inside its snapshot; this variant lets it
/// diff against them without cloning the whole module list first (for
/// an unchanged TU the caller passes a reference to the *current*
/// module, which is content-identical, so a rename alone is not a
/// change).
pub fn link_delta_ref(old: &[&TuModule], new: &[TuModule]) -> LinkDelta {
    let mut delta = LinkDelta {
        enums_and_globals_stable: old.len() == new.len(),
        ..LinkDelta::default()
    };
    let positions = old.len().max(new.len());
    for t in 0..positions {
        match (old.get(t), new.get(t)) {
            (Some(a), Some(b)) if same(*a, b) => {}
            (Some(a), Some(b)) => {
                delta.tus_changed.push(t);
                if a.enums != b.enums
                    || a.globals != b.globals
                    || a.globals_summary != b.globals_summary
                {
                    delta.enums_and_globals_stable = false;
                }
            }
            _ => delta.tus_changed.push(t),
        }
    }
    if delta.tus_changed.is_empty() {
        delta.enums_and_globals_stable = true;
        return delta;
    }

    // Only a name that a changed TU has, before or after, can change
    // its winner or provider: every other name first appears in the
    // same unchanged modules on both sides.
    let changed = delta
        .tus_changed
        .iter()
        .flat_map(|&t| old.get(t).copied().into_iter().chain(new.get(t)));
    let (mut class_names, mut fn_names) = (HashSet::new(), HashSet::new());
    for m in changed {
        class_names.extend(m.classes.iter().map(|c| c.name.as_str()));
        fn_names.extend(m.free_fns.iter().map(|f| f.name.as_str()));
    }
    let (old_classes, new_classes) = (
        class_winners(old.iter().copied(), &class_names),
        class_winners(new, &class_names),
    );
    for (name, rec) in &old_classes {
        match new_classes.get(name) {
            None => delta.classes_removed.push((*name).to_string()),
            Some(new_rec) if !same(*new_rec, *rec) => {
                delta.classes_changed.push((*name).to_string())
            }
            Some(_) => {}
        }
    }
    for name in new_classes.keys() {
        if !old_classes.contains_key(name) {
            delta.classes_added.push((*name).to_string());
        }
    }

    let (old_fns, new_fns) = (
        free_providers(old.iter().copied(), &fn_names),
        free_providers(new, &fn_names),
    );
    for (name, rec) in &old_fns {
        match new_fns.get(name) {
            None => delta.fns_removed.push((*name).to_string()),
            Some(new_rec) if !same(*new_rec, *rec) => delta.fns_changed.push((*name).to_string()),
            Some(_) => {}
        }
    }
    for name in new_fns.keys() {
        if !old_fns.contains_key(name) {
            delta.fns_added.push((*name).to_string());
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::TuModule;
    use ddm_cppfront::{parse, SourceMap};

    const HEADER: &str = "\
class Counter {
public:
    Counter(int s) : count(s), dead(0) { }
    virtual ~Counter() { }
    virtual int bump() { return ++count; }
    int count;
    int dead;
};
";

    fn tu(name: &str, src: &str) -> (TuModule, Program) {
        let unit = parse(src).expect("parse");
        let program = Program::build(&unit).expect("sema");
        let summary = ProgramSummary::build(&program, false, 1);
        let map = SourceMap::new(name, src);
        let module = TuModule::extract(&unit, &program, &summary, &map);
        (module, program)
    }

    fn two_tus() -> Vec<(TuModule, Program)> {
        let a = format!("{HEADER}int touch(Counter* c);\nint main() {{ Counter c(1); return touch(&c); }}");
        let b = format!("{HEADER}int touch(Counter* c) {{ return c->bump(); }}");
        vec![tu("a.cpp", &a), tu("b.cpp", &b)]
    }

    #[test]
    fn odr_identical_classes_merge() {
        let tus = two_tus();
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let parsed: Vec<Option<Program>> = tus.into_iter().map(|(_, p)| Some(p)).collect();
        let linked = link(&modules, &parsed).expect("link");
        assert_eq!(linked.program().class_count(), 1);
        // 3 methods + touch + main.
        assert_eq!(linked.program().function_count(), 5);
        assert_eq!(linked.class_tu(ClassId::from_index(0)), 0);
        // `touch` first appears in a.cpp as a prototype, but its summary
        // comes from the defining TU.
        let touch = linked.program().free_function("touch").unwrap();
        assert_eq!(linked.fn_tu(touch), 1);
        assert!(linked.program().function(touch).body.is_some());
        let main = linked.program().main_function().unwrap();
        assert_eq!(linked.fn_tu(main), 0);
        // The prototype call in a.cpp resolved to the linked definition.
        let s = linked.summary().function(main).unwrap();
        assert!(s
            .cg_steps
            .iter()
            .any(|c| matches!(c, crate::summary::CgStep::Call(f) if *f == touch)));
    }

    #[test]
    fn a_shared_body_is_one_allocation_from_parse_to_link() {
        // The header sits at a different offset in each TU.
        let a = format!("// a\n{HEADER}int touch(Counter* c);\nint main() {{ Counter c(1); return touch(&c); }}");
        let b = format!("// a longer b\n\n{HEADER}int touch(Counter* c) {{ return c->bump(); }}");
        let memo = ddm_cppfront::DeclMemo::new();
        let units = [memo.parse(0, &a).expect("a"), memo.parse(1, &b).expect("b")];
        let programs: Vec<Program> = units
            .iter()
            .map(|u| Program::build(u).expect("sema"))
            .collect();
        let modules: Vec<TuModule> = units
            .iter()
            .zip(&programs)
            .zip(["a.cpp", "b.cpp"].iter().zip([&a, &b]))
            .map(|((u, p), (name, src))| {
                let summary = ProgramSummary::build(p, false, 1);
                TuModule::extract(u, p, &summary, &SourceMap::new(*name, src.as_str()))
            })
            .collect();
        let bump_of = |p: &Program| {
            let cid = p.class_by_name("Counter").unwrap();
            let fid = p.class(cid).methods[2];
            assert_eq!(p.function(fid).name, "bump");
            p.function(fid).clone()
        };
        let parsed = units[0].classes[0].methods[2].body.clone().expect("a body");
        let (in_a, in_b) = (bump_of(&programs[0]), bump_of(&programs[1]));
        let linked = link(
            &modules,
            &programs.into_iter().map(Some).collect::<Vec<_>>(),
        )
        .expect("link");
        let in_linked = bump_of(linked.program());
        for f in [&in_a, &in_b, &in_linked] {
            assert!(Arc::ptr_eq(&parsed, f.body.as_ref().unwrap()));
        }
        // Each occurrence keeps its own base; the link keeps the first.
        assert_eq!((in_a.base, in_b.base, in_linked.base), (5, 15, 5));
        assert_eq!(in_b.span.lo, in_a.span.lo + 10);
    }

    #[test]
    fn warm_link_without_parses_matches_cold() {
        let tus = two_tus();
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let cold_parsed: Vec<Option<Program>> = tus.into_iter().map(|(_, p)| Some(p)).collect();
        let warm_parsed: Vec<Option<Program>> = modules.iter().map(|_| None).collect();
        let cold = link(&modules, &cold_parsed).expect("cold link");
        let warm = link(&modules, &warm_parsed).expect("warm link");
        assert_eq!(
            cold.program().function_count(),
            warm.program().function_count()
        );
        for i in 0..cold.program().function_count() {
            let fid = FuncId::from_index(i);
            assert_eq!(
                cold.summary().function(fid).ok(),
                warm.summary().function(fid).ok(),
                "summary {i} diverged"
            );
            let cf = cold.program().function(fid);
            let wf = warm.program().function(fid);
            assert_eq!(cf.params.len(), wf.params.len(), "arity {i} diverged");
            assert_eq!(
                cf.body.is_some(),
                wf.body.is_some(),
                "body presence {i} diverged"
            );
            assert_eq!(
                cf.inits.is_empty(),
                wf.inits.is_empty(),
                "init presence {i} diverged"
            );
        }
        assert_eq!(
            cold.summary().globals().ok(),
            warm.summary().globals().ok()
        );
        assert_eq!(
            cold.summary().used_classes(cold.program()).unwrap(),
            warm.summary().used_classes(warm.program()).unwrap()
        );
    }

    #[test]
    fn cold_linked_summary_matches_a_fresh_walk() {
        // The resolved summary must be exactly what walking the linked
        // program would produce.
        let tus = two_tus();
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let parsed: Vec<Option<Program>> = tus.into_iter().map(|(_, p)| Some(p)).collect();
        let linked = link(&modules, &parsed).expect("link");
        let fresh = ProgramSummary::build(linked.program(), false, 1);
        for i in 0..linked.program().function_count() {
            let fid = FuncId::from_index(i);
            assert_eq!(
                linked.summary().function(fid).ok(),
                fresh.function(fid).ok(),
                "fn {i}"
            );
        }
        assert_eq!(linked.summary().globals().ok(), fresh.globals().ok());
    }

    #[test]
    fn differing_class_definitions_conflict() {
        let a = format!("{HEADER}int main() {{ Counter c(1); return c.count; }}");
        let bad_header = HEADER.replace("int dead;", "long dead;");
        let b = format!("{bad_header}int touch(Counter* c) {{ return c->bump(); }}");
        let tus = vec![tu("a.cpp", &a), tu("b.cpp", &b)];
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let parsed: Vec<Option<Program>> = tus.into_iter().map(|(_, p)| Some(p)).collect();
        let err = link(&modules, &parsed).unwrap_err();
        assert_eq!(err.conflicts.len(), 1);
        assert!(err.conflicts[0].contains("class `Counter` defined differently"));
        assert!(err.conflicts[0].contains("a.cpp:1:1"));
        assert!(err.conflicts[0].contains("b.cpp:1:1"));
        // Rendering is stable under TU reordering (location pairs are
        // normalized, lines sorted and deduped).
        let rev_modules: Vec<TuModule> = modules.iter().rev().cloned().collect();
        let err2 = link(&rev_modules, &[None, None]).unwrap_err();
        assert_eq!(err.conflicts, err2.conflicts);
    }

    #[test]
    fn duplicate_definitions_conflict() {
        let a = "int shared = 1;\nint twice() { return 1; }\nint main() { return twice(); }";
        let b = "int shared = 2;\nint twice() { return 2; }";
        let tus = vec![tu("a.cpp", a), tu("b.cpp", b)];
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let err = link(&modules, &[None, None]).unwrap_err();
        assert_eq!(err.conflicts.len(), 2);
        assert!(err
            .conflicts
            .iter()
            .any(|c| c.contains("function `twice` defined differently")));
        assert!(err
            .conflicts
            .iter()
            .any(|c| c.contains("global `shared` defined in two translation units")));
    }

    #[test]
    fn identical_free_fn_definitions_merge() {
        let shared = "int twice() { return 2; }\n";
        let a = format!("{shared}int main() {{ return twice(); }}");
        let b = format!("{shared}int other() {{ return twice(); }}");
        let tus = vec![tu("a.cpp", &a), tu("b.cpp", &b)];
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let linked = link(&modules, &[None, None]).expect("identical text merges");
        assert_eq!(linked.program().function_count(), 3);
    }

    #[test]
    fn enum_conflicts_are_reported() {
        let a = "enum Mode { Off, On };\nint main() { return Off; }";
        let b = "enum Mode { On, Off };\nint other() { return On; }";
        let c = "enum Other { Off };\nint third() { return 0; }";
        let tus = vec![tu("a.cpp", a), tu("b.cpp", b), tu("c.cpp", c)];
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let err = link(&modules, &[None, None, None]).unwrap_err();
        assert!(err
            .conflicts
            .iter()
            .any(|c| c.contains("enum `Mode` defined differently")));
        // c.cpp's `Off = 0` agrees with a.cpp's and raises no extra noise.
        assert!(!err.conflicts.iter().any(|c| c.contains("`Off`")));
    }

    #[test]
    fn analysis_errors_locate_their_tu() {
        let a = "class W { public: int x; };\nint main() { W w; return w.ghost; }";
        let b = "class W { public: int x; };\nint fine(W* w) { return w->x; }";
        let tus = vec![tu("a.cpp", a), tu("b.cpp", b)];
        let modules: Vec<TuModule> = tus.iter().map(|(m, _)| m.clone()).collect();
        let linked = link(&modules, &[None, None]).expect("link");
        let main = linked.program().main_function().unwrap();
        let err = linked.summary().function(main).unwrap_err();
        assert_eq!(linked.locate_error(&err), Some(0));
    }

    fn modules_of(tus: &[(TuModule, Program)]) -> Vec<TuModule> {
        tus.iter().map(|(m, _)| m.clone()).collect()
    }

    #[test]
    fn link_delta_of_identical_lists_is_empty() {
        let modules = modules_of(&two_tus());
        let delta = link_delta(&modules, &modules);
        assert!(delta.is_empty());
        assert!(delta.class_space_stable());
        assert_eq!(delta.frontier_len(), 0);
    }

    #[test]
    fn link_delta_names_an_edited_function() {
        let old = modules_of(&two_tus());
        let mut new = old.clone();
        let edited = format!("{HEADER}int touch(Counter* c) {{ return c->bump() + 1; }}");
        new[1] = tu("b.cpp", &edited).0;
        let delta = link_delta(&old, &new);
        assert_eq!(delta.tus_changed, vec![1]);
        assert!(delta.class_space_stable(), "class space untouched");
        assert_eq!(delta.fns_changed, vec!["touch".to_string()]);
        assert!(delta.fns_added.is_empty() && delta.fns_removed.is_empty());
        assert_eq!(delta.frontier_len(), 1);
    }

    #[test]
    fn link_delta_sees_added_and_removed_functions() {
        let old = modules_of(&two_tus());
        let mut new = old.clone();
        let edited = format!("{HEADER}int touch(Counter* c) {{ return c->bump(); }}\nint pad() {{ return 7; }}");
        new[1] = tu("b.cpp", &edited).0;
        let delta = link_delta(&old, &new);
        assert_eq!(delta.fns_added, vec!["pad".to_string()]);
        assert!(delta.fns_changed.is_empty(), "touch itself is unchanged");
        let back = link_delta(&new, &old);
        assert_eq!(back.fns_removed, vec!["pad".to_string()]);
    }

    #[test]
    fn link_delta_flags_class_space_changes() {
        let old = modules_of(&two_tus());
        // Member edit in the shared header: the class record changes in
        // both TUs; the ODR winner changes; the space is not stable.
        let grown = HEADER.replace("int dead;", "int dead;\n    int extra;");
        let a = format!("{grown}int touch(Counter* c);\nint main() {{ Counter c(1); return touch(&c); }}");
        let b = format!("{grown}int touch(Counter* c) {{ return c->bump(); }}");
        let new = modules_of(&[tu("a.cpp", &a), tu("b.cpp", &b)]);
        let delta = link_delta(&old, &new);
        assert_eq!(delta.classes_changed, vec!["Counter".to_string()]);
        assert!(!delta.class_space_stable());
        // A body-only method edit also invalidates the class (summaries
        // changed) even though its ODR shape is identical.
        let retuned = HEADER.replace("return ++count;", "return count;");
        let a2 = format!("{retuned}int touch(Counter* c);\nint main() {{ Counter c(1); return touch(&c); }}");
        let b2 = format!("{retuned}int touch(Counter* c) {{ return c->bump(); }}");
        let new2 = modules_of(&[tu("a.cpp", &a2), tu("b.cpp", &b2)]);
        let delta2 = link_delta(&old, &new2);
        assert_eq!(delta2.classes_changed, vec!["Counter".to_string()]);
        assert!(!delta2.class_space_stable());
    }

    #[test]
    fn link_delta_tracks_globals_and_tu_count() {
        let old = modules_of(&two_tus());
        let mut new = old.clone();
        let edited = format!("{HEADER}int touch(Counter* c) {{ return c->bump(); }}\nint knob = 3;");
        new[1] = tu("b.cpp", &edited).0;
        let delta = link_delta(&old, &new);
        assert!(!delta.enums_and_globals_stable);
        assert!(!delta.class_space_stable());
        // Dropping a TU invalidates positionally.
        let shorter = &old[..1];
        let delta = link_delta(&old, shorter);
        assert_eq!(delta.tus_changed, vec![1]);
        assert!(!delta.enums_and_globals_stable);
    }
}
