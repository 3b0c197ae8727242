//! Intraprocedural points-to refinement for virtual call sites (§3.1).
//!
//! The paper: "a simple alias/points-to analysis algorithm can determine
//! that pointer `ap` never points to a `C` object. This fact can be used
//! to exclude method `C::f` from the call graph, so that ... data member
//! `C::mc1` can be marked dead."
//!
//! [`local_pointees`] computes, for one local pointer variable of one
//! function, the exact set of dynamic classes it can point to — or `None`
//! when that cannot be established. The computation is deliberately
//! simple (flow-insensitive, intraprocedural, syntactic), in the spirit
//! of the lightweight analyses the paper cites:
//!
//! * a variable is *analysable* if it is a local (not a parameter), its
//!   address is never taken, it is declared exactly once, and every
//!   assignment to it is a `nullptr`, `new T`, `&local_object`,
//!   `&global_object`, another analysable variable, a conditional/comma
//!   combination of those, or a static/C-style pointer cast thereof
//!   (casts do not change an object's dynamic class);
//! * `&obj` contributes the *declared* class of `obj`, which for by-value
//!   locals and globals is exactly the dynamic class.

use ddm_cppfront::ast::{
    Expr, ExprKind, LocalInit, Stmt, StmtChild, StmtKind, Type, TypeKind, UnaryOp,
};
use crate::ids::{ClassId, FuncId};
use crate::model::Program;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Everything learned about one function's locals in a single pass.
#[derive(Debug, Default)]
struct FunctionFacts {
    /// Local name → declared class for by-value class locals.
    object_locals: HashMap<String, ClassId>,
    /// Right-hand sides assigned to each pointer-ish local (including
    /// its initializer).
    assignments: HashMap<String, Vec<Expr>>,
    /// Names whose address is taken (could be mutated through a pointer).
    poisoned: HashSet<String>,
    /// Names declared more than once (scope shadowing): not analysable.
    redeclared: HashSet<String>,
    /// All declared local names.
    declared: HashSet<String>,
}

/// Computes the exact dynamic-class set a local pointer `var` of `func`
/// may point to, or `None` when the simple analysis cannot establish one.
pub fn local_pointees(program: &Program, func: FuncId, var: &str) -> Option<BTreeSet<ClassId>> {
    let info = program.function(func);
    let body = info.body.as_ref()?;
    // Parameters are unknown inputs.
    if info.params.iter().any(|p| p.name == var) {
        return None;
    }
    let mut facts = FunctionFacts::default();
    for p in &info.params {
        facts.poisoned.insert(p.name.clone());
    }
    for s in &body.stmts {
        collect_stmt(program, s, &mut facts);
    }
    let mut visiting = HashSet::new();
    resolve(program, &facts, var, &mut visiting)
}

fn resolve(
    program: &Program,
    facts: &FunctionFacts,
    var: &str,
    visiting: &mut HashSet<String>,
) -> Option<BTreeSet<ClassId>> {
    if facts.poisoned.contains(var) || facts.redeclared.contains(var) {
        return None;
    }
    if !facts.declared.contains(var) {
        return None;
    }
    if !visiting.insert(var.to_string()) {
        // A cycle (p = q; q = p;): the cycle itself adds nothing.
        return Some(BTreeSet::new());
    }
    let mut out = BTreeSet::new();
    for rhs in facts.assignments.get(var).map(Vec::as_slice).unwrap_or(&[]) {
        let contribution = eval_rhs(program, facts, rhs, visiting)?;
        out.extend(contribution);
    }
    visiting.remove(var);
    Some(out)
}

fn eval_rhs(
    program: &Program,
    facts: &FunctionFacts,
    e: &Expr,
    visiting: &mut HashSet<String>,
) -> Option<BTreeSet<ClassId>> {
    match &e.kind {
        ExprKind::Null => Some(BTreeSet::new()),
        ExprKind::New { ty, .. } => {
            let class = class_of_type(program, ty)?;
            Some([class].into_iter().collect())
        }
        ExprKind::Unary {
            op: UnaryOp::AddrOf,
            expr,
        } => match &expr.kind {
            ExprKind::Ident(name) => {
                if let Some(&class) = facts.object_locals.get(name) {
                    return Some([class].into_iter().collect());
                }
                // A by-value class global: its dynamic class is exact too.
                let g = program.globals().iter().find(|g| &g.name == name)?;
                let class = class_of_type(program, &g.ty)?;
                Some([class].into_iter().collect())
            }
            _ => None,
        },
        ExprKind::Ident(name) => resolve(program, facts, name, visiting),
        ExprKind::Cond { then, els, .. } => {
            let mut a = eval_rhs(program, facts, then, visiting)?;
            let b = eval_rhs(program, facts, els, visiting)?;
            a.extend(b);
            Some(a)
        }
        ExprKind::Comma { rhs, .. } => eval_rhs(program, facts, rhs, visiting),
        // Pointer casts re-type the pointer but never change the pointee's
        // dynamic class.
        ExprKind::Cast { expr, .. } => eval_rhs(program, facts, expr, visiting),
        _ => None,
    }
}

fn class_of_type(program: &Program, ty: &Type) -> Option<ClassId> {
    match &ty.kind {
        TypeKind::Named(n) => program.class_by_name(n),
        _ => None,
    }
}

fn collect_stmt(program: &Program, s: &Stmt, facts: &mut FunctionFacts) {
    if let StmtKind::Decl(d) = &s.kind {
        if !facts.declared.insert(d.name.clone()) {
            facts.redeclared.insert(d.name.clone());
        }
        if let TypeKind::Named(n) = &d.ty.kind {
            if let Some(class) = program.class_by_name(n) {
                facts.object_locals.insert(d.name.clone(), class);
            }
        }
        if let LocalInit::Expr(e) = &d.init {
            facts
                .assignments
                .entry(d.name.clone())
                .or_default()
                .push(e.clone());
        }
    }
    s.each_child(|child| match child {
        StmtChild::Stmt(s) => collect_stmt(program, s, facts),
        StmtChild::Expr(e) => collect_expr(e, facts),
    });
}

fn collect_expr(e: &Expr, facts: &mut FunctionFacts) {
    match &e.kind {
        ExprKind::Assign { op, lhs, rhs } => {
            if let ExprKind::Ident(name) = &lhs.kind {
                if op.binary_op().is_none() {
                    facts
                        .assignments
                        .entry(name.clone())
                        .or_default()
                        .push((**rhs).clone());
                } else {
                    // Compound assignment (pointer arithmetic): unknown.
                    facts.poisoned.insert(name.clone());
                }
            } else {
                collect_expr(lhs, facts);
            }
            collect_expr(rhs, facts);
        }
        ExprKind::Unary {
            op: UnaryOp::AddrOf,
            expr,
        } => {
            if let ExprKind::Ident(name) = &expr.kind {
                // `&p` lets the callee rewrite p: only pointer-typed locals
                // matter, but poisoning any name is safe.
                // (Taking `&obj` of an object local is the *normal* way a
                // pointee enters a set, so object locals are exempt.)
                if !facts.object_locals.contains_key(name) {
                    facts.poisoned.insert(name.clone());
                }
            } else {
                collect_expr(expr, facts);
            }
        }
        ExprKind::Postfix { expr, .. } => {
            if let ExprKind::Ident(name) = &expr.kind {
                facts.poisoned.insert(name.clone());
            }
            collect_expr(expr, facts);
        }
        ExprKind::Unary {
            op: UnaryOp::PreInc | UnaryOp::PreDec,
            expr,
        } => {
            if let ExprKind::Ident(name) = &expr.kind {
                facts.poisoned.insert(name.clone());
            }
            collect_expr(expr, facts);
        }
        _ => e.each_child(|child| collect_expr(child, facts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn setup(src: &str) -> Program {
        Program::build(&parse(src).expect("parse")).expect("sema")
    }

    fn pointees(p: &Program, var: &str) -> Option<Vec<String>> {
        let main = p.main_function().unwrap();
        local_pointees(p, main, var)
            .map(|set| set.into_iter().map(|c| p.class(c).name.clone()).collect())
    }

    const HIER: &str = "class A { public: virtual int f() { return 0; } };\n\
        class B : public A { public: virtual int f() { return 1; } };\n\
        class C : public A { public: virtual int f() { return 2; } };\n";

    #[test]
    fn figure1_shape_excludes_the_never_assigned_class() {
        let p = setup(&format!(
            "{HIER}int main() {{ A a; B b; C c; A* ap;\n\
             int i = 10;\n\
             if (i < 20) {{ ap = &a; }} else {{ ap = &b; }}\n\
             return ap->f(); }}"
        ));
        assert_eq!(pointees(&p, "ap"), Some(vec!["A".into(), "B".into()]));
    }

    #[test]
    fn new_expressions_contribute_exact_classes() {
        let p = setup(&format!(
            "{HIER}int main() {{ A* p = new B(); p = new C(); return p->f(); }}"
        ));
        assert_eq!(pointees(&p, "p"), Some(vec!["B".into(), "C".into()]));
    }

    #[test]
    fn copies_between_locals_union_their_sets() {
        let p = setup(&format!(
            "{HIER}int main() {{ B b; A* q = &b; A* p = q; return p->f(); }}"
        ));
        assert_eq!(pointees(&p, "p"), Some(vec!["B".into()]));
    }

    #[test]
    fn casts_do_not_lose_the_pointee() {
        let p = setup(&format!(
            "{HIER}int main() {{ B* pb = new B(); A* pa = (A*)pb; return pa->f(); }}"
        ));
        assert_eq!(pointees(&p, "pa"), Some(vec!["B".into()]));
    }

    #[test]
    fn unknown_sources_defeat_the_analysis() {
        let p = setup(&format!(
            "{HIER}A* make() {{ return new C(); }}\n\
             int main() {{ A* p = make(); return p->f(); }}"
        ));
        assert_eq!(pointees(&p, "p"), None);
    }

    #[test]
    fn parameters_are_unknown() {
        let p = setup(&format!(
            "{HIER}int user(A* p) {{ return p->f(); }}\n\
             int main() {{ B b; return user(&b); }}"
        ));
        let user = p.free_function("user").unwrap();
        assert_eq!(local_pointees(&p, user, "p"), None);
    }

    #[test]
    fn address_taken_pointer_is_poisoned() {
        let p = setup(&format!(
            "{HIER}void rewrite(A** slot) {{ }}\n\
             int main() {{ B b; A* p = &b; rewrite(&p); return p->f(); }}"
        ));
        assert_eq!(pointees(&p, "p"), None);
    }

    #[test]
    fn nullptr_only_yields_the_empty_set() {
        let p = setup(&format!("{HIER}int main() {{ A* p = nullptr; return 0; }}"));
        assert_eq!(pointees(&p, "p"), Some(vec![]));
    }

    #[test]
    fn global_objects_contribute_their_class() {
        let p = setup(&format!(
            "{HIER}B shared;\n\
             int main() {{ A* p = &shared; return p->f(); }}"
        ));
        assert_eq!(pointees(&p, "p"), Some(vec!["B".into()]));
    }

    #[test]
    fn conditional_expression_unions_both_arms() {
        let p = setup(&format!(
            "{HIER}int main() {{ B b; C c; int k = 1; A* p = k > 0 ? (A*)&b : (A*)&c; return p->f(); }}"
        ));
        assert_eq!(pointees(&p, "p"), Some(vec!["B".into(), "C".into()]));
    }
}
