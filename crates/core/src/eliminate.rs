//! Dead-data-member *elimination*: the space optimization the paper
//! motivates ("we believe that this optimization should be incorporated
//! in any optimizing compiler", §4.4).
//!
//! Given an analysis result, [`eliminate`] produces transformed source
//! in which eligible dead members are removed from their classes, their
//! constructor-initializer entries are dropped, statements that store
//! into them are reduced to their (side-effecting) right-hand sides, and
//! any remaining accesses — which can only occur in unreachable code —
//! are replaced by the member type's zero value so the program still
//! compiles. Removing a member shrinks every object of every class that
//! contains it, which is precisely the saving the paper's Table 2 /
//! Figure 4 quantify.
//!
//! The transformation is deliberately conservative: a dead member is
//! *eligible* only when rewriting is provably safe on syntactic grounds
//! (see [`eliminate`] for the exact rules). Ineligible dead members are
//! simply kept — dropping an optimization opportunity is always sound.

use crate::liveness::Liveness;
use crate::project::ProjectPipeline;
use ddm_cppfront::ast::{
    Block, Expr, ExprKind, Stmt, StmtChild, StmtChildMut, StmtKind, TranslationUnit, Type,
    TypeKind, UnaryOp,
};
use ddm_cppfront::{parse, print_unit};
use ddm_hierarchy::{MemberRef, Program};
use ddm_telemetry::{EventClass, Telemetry};

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The outcome of a dead-member elimination run.
#[derive(Debug, Clone)]
pub struct Elimination {
    /// Transformed source (pretty-printed).
    pub source: String,
    /// `Class::member` names that were removed.
    pub removed: Vec<String>,
    /// Dead members that were kept because rewriting them was not
    /// provably safe (each with the reason).
    pub kept: Vec<(String, KeepReason)>,
}

/// Why a dead member was not eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Another (live) member, local, global, parameter, function, or
    /// enumerator shares the name, so syntactic rewriting could damage
    /// a live entity.
    NameCollision,
    /// The member's type has no zero literal (e.g. a by-value class).
    NoDefaultValue,
    /// A constructor initializes it with a side-effecting expression.
    ImpureInitializer,
    /// A store into it appears in a non-statement position.
    EmbeddedStore,
    /// A pointer-to-member expression names it.
    PointerToMember,
}

impl std::fmt::Display for KeepReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KeepReason::NameCollision => "name collision",
            KeepReason::NoDefaultValue => "no zero value for the member type",
            KeepReason::ImpureInitializer => "side-effecting constructor initializer",
            KeepReason::EmbeddedStore => "store in expression position",
            KeepReason::PointerToMember => "named by a pointer-to-member expression",
        })
    }
}

/// Eliminates eligible dead members from the analysed program.
///
/// The pipeline keeps no syntax tree, so its one source is parsed
/// again; only elimination pays for that second parse.
///
/// # Examples
///
/// ```
/// use ddm_core::{eliminate, ProjectPipeline};
///
/// let run = ProjectPipeline::from_source(
///     "class A { public: int keep; int drop; };\n\
///      int main() { A a; a.drop = 9; return a.keep; }",
/// )?;
/// let result = eliminate(&run);
/// assert_eq!(result.removed, vec!["A::drop"]);
/// assert!(!result.source.contains("drop"));
/// # Ok::<(), ddm_core::ProjectError>(())
/// ```
///
/// Eligibility rules (all must hold for a dead member `C::m`):
///
/// 1. no live member anywhere in the program is also named `m`, and no
///    local, parameter, global, free function, or enumerator is named
///    `m` (then every syntactic occurrence of `m` denotes a dead member
///    and may be rewritten);
/// 2. the member's type has a zero literal (integers, floats, pointers);
/// 3. every constructor-initializer entry for `m` has side-effect-free
///    arguments;
/// 4. every assignment whose target accesses `m` is a statement by
///    itself (so it can be reduced to its right-hand side);
/// 5. no pointer-to-member expression names `m`.
///
/// # Panics
///
/// If the run analysed more than one translation unit: elimination
/// rewrites one source.
pub fn eliminate(pipeline: &ProjectPipeline) -> Elimination {
    eliminate_with(pipeline, &Telemetry::disabled())
}

/// [`eliminate`] with telemetry: every removal and every keep-with-reason
/// decision lands in the flight recorder. Elimination reads only the
/// analysed program and its liveness verdicts — all of them jobs- and
/// cache-invariant — and its own output is sorted, so every elimination
/// event is deterministic class.
///
/// # Panics
///
/// As [`eliminate`].
pub fn eliminate_with(pipeline: &ProjectPipeline, telemetry: &Telemetry) -> Elimination {
    let program = pipeline.program();
    let liveness = pipeline.liveness();
    let sources = pipeline.sources();
    assert_eq!(sources.len(), 1, "elimination rewrites one source");
    let map = sources.get(0).expect("one source");
    let tu = parse(map.source())
        .unwrap_or_else(|e| panic!("{} parsed once, so it reparses: {e}", map.name()));

    let mut scan = Scan::default();
    scan.collect(&tu);

    let mut removed = Vec::new();
    let mut kept = Vec::new();
    // name → default expression for its (unique) dead member.
    let mut eliminable: HashMap<String, Expr> = HashMap::new();

    for (cid, class) in program.classes() {
        for (idx, member) in class.members.iter().enumerate() {
            let mref = MemberRef::new(cid, idx);
            if !liveness.is_dead(mref) {
                continue;
            }
            let qualified = format!("{}::{}", class.name, member.name);
            match check_eligibility(program, liveness, &scan, &member.name, &member.ty) {
                Err(reason) => kept.push((qualified, reason)),
                Ok(default) => {
                    eliminable.insert(member.name.clone(), default);
                    removed.push(qualified);
                }
            }
        }
    }

    // Declarations and bodies are shared `Arc`s: every write below
    // copies a shared one first.
    let mut transformed = tu;
    let names: HashSet<String> = eliminable.keys().cloned().collect();
    for class in &mut transformed.classes {
        class.data_members.retain(|m| !names.contains(&m.name));
        for method in &mut class.methods {
            method.inits = method
                .inits
                .iter()
                .filter(|init| !names.contains(&init.name))
                .cloned()
                .collect();
            if let Some(body) = &mut method.body {
                rewrite_block(Arc::make_mut(body), &eliminable);
            }
        }
    }
    for func in &mut transformed.functions {
        if let Some(body) = &mut func.body {
            rewrite_block(Arc::make_mut(body), &eliminable);
        }
    }
    for global in &mut transformed.globals {
        if let Some(init) = &mut global.init {
            rewrite_expr(Arc::make_mut(init), &eliminable);
        }
    }

    removed.sort();
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    for member in &removed {
        telemetry.event(EventClass::Deterministic, "eliminate_remove", || {
            vec![("member", member.as_str().into())]
        });
    }
    for (member, reason) in &kept {
        telemetry.event(EventClass::Deterministic, "eliminate_keep", || {
            vec![
                ("member", member.as_str().into()),
                ("reason", reason.to_string().into()),
            ]
        });
    }
    telemetry.event(EventClass::Deterministic, "elimination_done", || {
        vec![("removed", removed.len().into()), ("kept", kept.len().into())]
    });
    telemetry.metrics(|m| {
        m.gauge_set("eliminate/removed", removed.len() as i64);
        m.gauge_set("eliminate/kept", kept.len() as i64);
    });
    Elimination {
        source: print_unit(&transformed),
        removed,
        kept,
    }
}

/// Names bound to things that are not data members, plus structural
/// facts needed for the eligibility check.
#[derive(Default)]
struct Scan {
    non_member_names: HashSet<String>,
    ptr_to_member_names: HashSet<String>,
    embedded_store_names: HashSet<String>,
    impure_init_names: HashSet<String>,
}

impl Scan {
    fn collect(&mut self, tu: &TranslationUnit) {
        for g in &tu.globals {
            self.non_member_names.insert(g.name.clone());
        }
        for e in &tu.enums {
            for (n, _) in &e.variants {
                self.non_member_names.insert(n.clone());
            }
        }
        for f in &tu.functions {
            self.non_member_names.insert(f.name.clone());
            self.function(f);
        }
        for c in &tu.classes {
            for m in &c.methods {
                self.function(m);
                for init in m.inits.iter() {
                    if !init.args.iter().all(is_pure) {
                        self.impure_init_names.insert(init.name.clone());
                    }
                }
            }
        }
    }

    fn function(&mut self, f: &ddm_cppfront::ast::FunctionDecl) {
        for p in &f.params {
            self.non_member_names.insert(p.name.clone());
        }
        if let Some(body) = &f.body {
            for s in &body.stmts {
                self.stmt(s);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            // A statement-level assignment's own store is fine; its
            // sub-expressions are scanned in expression position.
            StmtKind::Expr(Expr {
                kind: ExprKind::Assign { lhs, rhs, .. },
                ..
            }) => {
                self.expr_skip_store_target(lhs);
                self.expr(rhs);
                return;
            }
            StmtKind::Decl(d) => {
                self.non_member_names.insert(d.name.clone());
            }
            _ => {}
        }
        s.each_child(|child| match child {
            StmtChild::Stmt(s) => self.stmt(s),
            StmtChild::Expr(e) => self.expr(e),
        });
    }

    /// Scans the target of a statement-level store: the final member
    /// access is the store itself (allowed), but its base is an ordinary
    /// expression.
    fn expr_skip_store_target(&mut self, lhs: &Expr) {
        match &lhs.kind {
            ExprKind::Member { base, .. } => self.expr(base),
            ExprKind::Ident(_) => {}
            _ => self.expr(lhs),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::PtrToMember { member, .. } => {
                self.ptr_to_member_names.insert(member.clone());
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                // An assignment in expression position: its target cannot
                // be reduced away.
                match &lhs.kind {
                    ExprKind::Member { name, base, .. } => {
                        self.embedded_store_names.insert(name.clone());
                        self.expr(base);
                    }
                    ExprKind::Ident(name) => {
                        self.embedded_store_names.insert(name.clone());
                    }
                    _ => self.expr(lhs),
                }
                self.expr(rhs);
            }
            _ => e.each_child(|child| self.expr(child)),
        }
    }
}

fn check_eligibility(
    program: &Program,
    liveness: &Liveness,
    scan: &Scan,
    name: &str,
    ty: &Type,
) -> Result<Expr, KeepReason> {
    // Rule 1: name uniqueness against live members and non-member names.
    if scan.non_member_names.contains(name) {
        return Err(KeepReason::NameCollision);
    }
    for (cid, class) in program.classes() {
        for (idx, m) in class.members.iter().enumerate() {
            if m.name == name && !liveness.is_dead(MemberRef::new(cid, idx)) {
                return Err(KeepReason::NameCollision);
            }
        }
        for &fid in &class.methods {
            if program.function(fid).name == name {
                return Err(KeepReason::NameCollision);
            }
        }
    }
    // Rule 2: a zero literal exists for the type.
    let default = default_expr(ty).ok_or(KeepReason::NoDefaultValue)?;
    // Rule 3: pure initializers only.
    if scan.impure_init_names.contains(name) {
        return Err(KeepReason::ImpureInitializer);
    }
    // Rule 4: no embedded stores.
    if scan.embedded_store_names.contains(name) {
        return Err(KeepReason::EmbeddedStore);
    }
    // Rule 5: never named by a pointer-to-member.
    if scan.ptr_to_member_names.contains(name) {
        return Err(KeepReason::PointerToMember);
    }
    Ok(default)
}

/// The zero literal for a member type, if one exists.
fn default_expr(ty: &Type) -> Option<Expr> {
    let kind = match &ty.kind {
        TypeKind::Bool | TypeKind::Char | TypeKind::Short | TypeKind::Int | TypeKind::Long => {
            ExprKind::IntLit(0)
        }
        TypeKind::Float | TypeKind::Double => ExprKind::FloatLit(0.0),
        TypeKind::Pointer(_) | TypeKind::MemberPointer { .. } => ExprKind::Null,
        _ => return None,
    };
    Some(Expr::new(kind, ddm_cppfront::Span::dummy()))
}

/// True when evaluating `e` has no side effects.
fn is_pure(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Unary {
            op: UnaryOp::PreInc | UnaryOp::PreDec,
            ..
        }
        | ExprKind::Postfix { .. }
        | ExprKind::Assign { .. }
        | ExprKind::Call { .. }
        | ExprKind::New { .. }
        | ExprKind::Delete { .. } => false,
        // `sizeof` never evaluates its operand.
        ExprKind::SizeofExpr(_) => true,
        _ => {
            let mut pure = true;
            e.each_child(|child| pure = pure && is_pure(child));
            pure
        }
    }
}

fn rewrite_block(b: &mut Block, eliminable: &HashMap<String, Expr>) {
    for s in &mut b.stmts {
        rewrite_stmt(s, eliminable);
    }
}

fn rewrite_stmt(s: &mut Stmt, eliminable: &HashMap<String, Expr>) {
    // First: a statement-level store into an eliminated member becomes
    // its right-hand side (kept for side effects) or an empty statement.
    if let StmtKind::Expr(e) = &mut s.kind {
        let target_name = match &e.kind {
            ExprKind::Assign { op, lhs, .. } if op.binary_op().is_none() => match &lhs.kind {
                ExprKind::Member { name, .. } => Some(name.clone()),
                ExprKind::Ident(name) => Some(name.clone()),
                _ => None,
            },
            _ => None,
        };
        if let Some(name) = target_name {
            if eliminable.contains_key(&name) {
                let ExprKind::Assign { lhs, rhs, .. } = &mut e.kind else {
                    unreachable!("matched above")
                };
                // The base of the removed access may itself have side
                // effects (e.g. `f()->m = rhs`); keep it via a comma.
                let base_effect = match &lhs.kind {
                    ExprKind::Member { base, .. } if !is_pure(base) => Some((**base).clone()),
                    _ => None,
                };
                let mut replacement = (**rhs).clone();
                rewrite_expr(&mut replacement, eliminable);
                s.kind = match (base_effect, is_pure(&replacement)) {
                    (None, true) => StmtKind::Empty,
                    (None, false) => StmtKind::Expr(replacement),
                    (Some(mut base), pure_rhs) => {
                        rewrite_expr(&mut base, eliminable);
                        if pure_rhs {
                            StmtKind::Expr(base)
                        } else {
                            let span = s.span;
                            StmtKind::Expr(Expr::new(
                                ExprKind::Comma {
                                    lhs: Box::new(base),
                                    rhs: Box::new(replacement),
                                },
                                span,
                            ))
                        }
                    }
                };
                return;
            }
        }
    }
    s.each_child_mut(|child| match child {
        StmtChildMut::Stmt(s) => rewrite_stmt(s, eliminable),
        StmtChildMut::Expr(e) => rewrite_expr(e, eliminable),
    });
}

/// Replaces remaining accesses to eliminated members (which only occur
/// in unreachable code) with the member's zero value.
fn rewrite_expr(e: &mut Expr, eliminable: &HashMap<String, Expr>) {
    let replace_with = match &e.kind {
        ExprKind::Member { base, name, .. } if eliminable.contains_key(name) && is_pure(base) => {
            Some(eliminable[name].clone())
        }
        ExprKind::Ident(name) if eliminable.contains_key(name) => Some(eliminable[name].clone()),
        _ => None,
    };
    if let Some(mut replacement) = replace_with {
        replacement.span = e.span;
        *e = replacement;
        return;
    }
    // Impure-base member accesses keep the base evaluation via a comma.
    if let ExprKind::Member { base, name, .. } = &e.kind {
        if eliminable.contains_key(name) {
            let mut base = (**base).clone();
            rewrite_expr(&mut base, eliminable);
            let default = eliminable[name].clone();
            e.kind = ExprKind::Comma {
                lhs: Box::new(base),
                rhs: Box::new(default),
            };
            return;
        }
    }
    e.each_child_mut(|child| rewrite_expr(child, eliminable));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_elimination(src: &str) -> (ProjectPipeline, Elimination) {
        let pipeline = ProjectPipeline::from_source(src).expect("pipeline");
        let result = eliminate(&pipeline);
        (pipeline, result)
    }

    #[test]
    fn removes_write_only_member_and_its_stores() {
        let (_, r) = run_elimination(
            "class A { public: int live; int dead_field; };\n\
             int main() { A a; a.dead_field = 1; a.live = 2; return a.live; }",
        );
        assert_eq!(r.removed, vec!["A::dead_field"]);
        assert!(!r.source.contains("dead_field"), "{}", r.source);
        // The transformed program still analyzes and has nothing dead.
        let again = ProjectPipeline::from_source(&r.source).expect("re-analyze");
        assert!(again.report().dead_member_names().is_empty());
    }

    #[test]
    fn store_with_side_effecting_rhs_keeps_the_call() {
        let (_, r) = run_elimination(
            "class A { public: int scratch; };\n\
             int counter = 0;\n\
             int tick() { counter = counter + 1; return counter; }\n\
             int main() { A a; a.scratch = tick(); return counter; }",
        );
        assert_eq!(r.removed, vec!["A::scratch"]);
        assert!(
            r.source.contains("tick()"),
            "call must survive:\n{}",
            r.source
        );
    }

    #[test]
    fn reads_in_unreachable_code_become_zero() {
        let (_, r) = run_elimination(
            "class A { public: int ghost; };\n\
             int spooky(A* a) { return a->ghost; }\n\
             int main() { A a; a.ghost = 5; return 0; }",
        );
        assert_eq!(r.removed, vec!["A::ghost"]);
        assert!(!r.source.contains("ghost"), "{}", r.source);
        assert!(ProjectPipeline::from_source(&r.source).is_ok());
    }

    #[test]
    fn ctor_initializer_entries_are_dropped() {
        let (_, r) = run_elimination(
            "class A { public: int keep; int drop_me; A() : keep(1), drop_me(2) { } };\n\
             int main() { A a; return a.keep; }",
        );
        assert_eq!(r.removed, vec!["A::drop_me"]);
        assert!(!r.source.contains("drop_me"));
        let again = ProjectPipeline::from_source(&r.source).expect("re-analyze");
        assert_eq!(again.program().class_count(), 1);
    }

    #[test]
    fn name_collision_with_live_member_blocks_elimination() {
        let (_, r) = run_elimination(
            "class A { public: int m; };\n\
             class B { public: int m; };\n\
             int main() { A a; B b; a.m = 1; return b.m; }",
        );
        // A::m is dead but shares its name with the live B::m.
        assert!(r.removed.is_empty());
        assert_eq!(r.kept.len(), 1);
        assert_eq!(r.kept[0].1, KeepReason::NameCollision);
    }

    #[test]
    fn local_variable_collision_blocks_elimination() {
        let (_, r) = run_elimination(
            "class A { public: int total; };\n\
             int main() { A a; a.total = 9; int total = 3; return total; }",
        );
        assert!(r.removed.is_empty());
        assert_eq!(r.kept[0].1, KeepReason::NameCollision);
    }

    #[test]
    fn class_typed_member_is_kept() {
        let (_, r) = run_elimination(
            "class Inner { public: int x; };\n\
             class A { public: Inner part; int z; };\n\
             int main() { A a; return a.z; }",
        );
        // `part` (class-typed) has no zero literal; Inner::x is dead but
        // eliminable, A::part is kept.
        assert!(r
            .kept
            .iter()
            .any(|(n, why)| n == "A::part" && *why == KeepReason::NoDefaultValue));
    }

    #[test]
    fn pointer_member_becomes_nullptr_in_unreachable_reads() {
        let (_, r) = run_elimination(
            "class Node { public: Node* stale_link; int v; };\n\
             Node* walk(Node* n) { return n->stale_link; }\n\
             int main() { Node n; n.stale_link = nullptr; return n.v; }",
        );
        assert!(r.removed.contains(&"Node::stale_link".to_string()));
        assert!(r.source.contains("nullptr"), "{}", r.source);
        assert!(ProjectPipeline::from_source(&r.source).is_ok());
    }

    #[test]
    fn behaviour_is_preserved_on_figure_one() {
        let src = "
            class N { public: int mn1; int mn2; };
            class A { public: virtual int f() { return ma1; } int ma1; int ma2; int ma3; };
            class B : public A { public: virtual int f() { return mb1; } int mb1; N mb2; int mb3; int mb4; };
            class C : public A { public: virtual int f() { return mc1; } int mc1; };
            int foo(int* x) { return (*x) + 1; }
            int main() {
                A a; B b; C c; A* ap;
                a.ma3 = b.mb3 + 1;
                int i = 10;
                if (i < 20) { ap = &a; } else { ap = &b; }
                return ap->f() + b.mb2.mn1 + foo(&b.mb4);
            }";
        let (pipeline, r) = run_elimination(src);
        assert_eq!(r.removed, vec!["A::ma2", "A::ma3", "N::mn2"]);
        // Execute both versions: identical observable behaviour, and the
        // objects must not grow.
        use ddm_hierarchy::Program;
        let before = pipeline.program();
        let after_tu = ddm_cppfront::parse(&r.source).expect("reparse");
        let after = Program::build(&after_tu).expect("sema");
        let a_before = before.class_by_name("A").unwrap();
        let a_after = after.class_by_name("A").unwrap();
        let lb = ddm_hierarchy::LayoutEngine::new(before);
        let la = ddm_hierarchy::LayoutEngine::new(&after);
        assert!(
            la.layout(a_after).size < lb.layout(a_before).size,
            "A must shrink after losing ma2 and ma3"
        );
    }
}
