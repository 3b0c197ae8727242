//! Member lookup over the class hierarchy.
//!
//! Implements the C++ member-name-lookup rule (ISO C++ 10.2) over
//! [subobject trees](crate::subobject): a declaration in a derived
//! subobject hides declarations of the same name in its base subobjects;
//! after hiding, more than one surviving subobject means the access is
//! ambiguous. This plays the role of the `Lookup` function in the paper's
//! Figure 2 (the paper cites Ramalingam & Srinivasan's PLDI'97 lookup
//! algorithm; the observable behaviour — `(type, name) → declaring class`
//! with ambiguity detection — is identical).

use crate::ids::{ClassId, FuncId, MemberRef};
use crate::intern::Symbol;
use crate::model::Program;
use crate::subobject::{SubobjectId, SubobjectTree};
use ddm_cppfront::ast::FunctionKind;
use std::cell::RefCell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// What a successful member lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// A data member, identified by its declaring class and index.
    Data(MemberRef),
    /// A member function declared in the given class.
    Method {
        /// The class whose declaration was found (not necessarily the
        /// dynamic dispatch target).
        declaring: ClassId,
        /// The found declaration.
        func: FuncId,
    },
}

/// Why a lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupError {
    /// No base subobject declares the name.
    NotFound {
        /// The class looked in.
        class: String,
        /// The member name.
        name: String,
    },
    /// More than one non-hidden declaration (C++ would reject the access).
    Ambiguous {
        /// The class looked in.
        class: String,
        /// The member name.
        name: String,
    },
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupError::NotFound { class, name } => {
                write!(f, "no member named `{name}` in `{class}` or its bases")
            }
            LookupError::Ambiguous { class, name } => {
                write!(f, "member `{name}` is ambiguous in `{class}`")
            }
        }
    }
}

impl Error for LookupError {}

/// Member-lookup service with per-class subobject-tree caching.
///
/// # Examples
///
/// ```
/// use ddm_hierarchy::{Program, MemberLookup};
/// let tu = ddm_cppfront::parse(
///     "class A { public: int m; }; class B : public A { };\n\
///      int main() { B b; return b.m; }",
/// ).unwrap();
/// let program = Program::build(&tu).unwrap();
/// let lookup = MemberLookup::new(&program);
/// let b = program.class_by_name("B").unwrap();
/// let a = program.class_by_name("A").unwrap();
/// let found = lookup.data_member(b, "m").unwrap();
/// assert_eq!(found.class, a); // `m` resolves to its declaring class A
/// ```
pub struct MemberLookup<'p> {
    program: &'p Program,
    trees: RefCell<HashMap<ClassId, std::rc::Rc<SubobjectTree>>>,
    dispatch: RefCell<HashMap<(ClassId, Symbol), std::rc::Rc<Vec<(ClassId, FuncId)>>>>,
    dtors: RefCell<HashMap<ClassId, std::rc::Rc<Vec<(ClassId, FuncId)>>>>,
}

impl<'p> MemberLookup<'p> {
    /// Creates a lookup service for `program`.
    pub fn new(program: &'p Program) -> Self {
        MemberLookup {
            program,
            trees: RefCell::new(HashMap::new()),
            dispatch: RefCell::new(HashMap::new()),
            dtors: RefCell::new(HashMap::new()),
        }
    }

    /// The (cached) subobject tree of `class`.
    pub fn tree(&self, class: ClassId) -> std::rc::Rc<SubobjectTree> {
        if let Some(t) = self.trees.borrow().get(&class) {
            return t.clone();
        }
        let t = std::rc::Rc::new(SubobjectTree::build(self.program, class));
        self.trees.borrow_mut().insert(class, t.clone());
        t
    }

    /// Looks up member `name` in `class` and its bases, applying the C++
    /// hiding (dominance) rule.
    ///
    /// A name `class` declares itself is answered without building the
    /// subobject tree; otherwise the cost is linear in the tree's size.
    ///
    /// # Errors
    ///
    /// [`LookupError::NotFound`] if no subobject declares `name`;
    /// [`LookupError::Ambiguous`] if hiding leaves more than one candidate.
    pub fn member(&self, class: ClassId, name: &str) -> Result<Found, LookupError> {
        // The most-derived subobject is the root of the tree, so a
        // declaration there hides every other candidate.
        if let Some(own) = self.declared_in(class, name) {
            return Ok(own);
        }
        let tree = self.tree(class);
        // Collect subobjects whose class directly declares `name`.
        let found: Vec<(SubobjectId, Found)> = tree
            .iter()
            .filter_map(|(sid, node)| self.declared_in(node.class, name).map(|f| (sid, f)))
            .collect();
        match found.as_slice() {
            [] => {
                return Err(LookupError::NotFound {
                    class: self.program.class(class).name.clone(),
                    name: name.to_string(),
                })
            }
            [(_, single)] => return Ok(*single),
            _ => {}
        }
        // Hiding: drop a candidate if it lives in a base subobject of
        // another candidate. The tree is acyclic, so no candidate is a
        // base subobject of itself and one pass over all of them suffices.
        let hidden = tree.proper_bases_of(found.iter().map(|(sid, _)| *sid));
        let survivors: Vec<&(SubobjectId, Found)> = found
            .iter()
            .filter(|(sid, _)| !hidden.contains(sid.index() as u32))
            .collect();
        match survivors.as_slice() {
            [] => unreachable!("hiding cannot remove every candidate"),
            [(_, single)] => Ok(*single),
            many => {
                // Multiple survivors naming the same declaration through one
                // shared virtual subobject would have been collapsed already
                // (shared nodes are single). Distinct survivors that still
                // agree on the exact declaration (same class, same slot) are
                // genuinely ambiguous in C++ (two distinct subobjects), so
                // only identical *subobjects* are fine.
                let first = many[0].1;
                if many.iter().all(|(sid, _)| *sid == many[0].0) {
                    Ok(first)
                } else {
                    Err(LookupError::Ambiguous {
                        class: self.program.class(class).name.clone(),
                        name: name.to_string(),
                    })
                }
            }
        }
    }

    /// The declaration of `name` that `class` itself makes, if any: a data
    /// member first, then a method other than a constructor.
    fn declared_in(&self, class: ClassId, name: &str) -> Option<Found> {
        let info = self.program.class(class);
        if let Some(idx) = info.members.iter().position(|m| m.name == name) {
            return Some(Found::Data(MemberRef::new(class, idx)));
        }
        info.methods
            .iter()
            .find(|&&f| {
                let fi = self.program.function(f);
                fi.name == name && fi.kind != FunctionKind::Constructor
            })
            .map(|&func| Found::Method {
                declaring: class,
                func,
            })
    }

    /// Looks up a data member specifically.
    ///
    /// # Errors
    ///
    /// As [`MemberLookup::member`]; also `NotFound` if the name resolves to
    /// a method.
    pub fn data_member(&self, class: ClassId, name: &str) -> Result<MemberRef, LookupError> {
        match self.member(class, name)? {
            Found::Data(m) => Ok(m),
            Found::Method { .. } => Err(LookupError::NotFound {
                class: self.program.class(class).name.clone(),
                name: name.to_string(),
            }),
        }
    }

    /// Looks up a method specifically.
    ///
    /// # Errors
    ///
    /// As [`MemberLookup::member`]; also `NotFound` if the name resolves to
    /// a data member.
    pub fn method(&self, class: ClassId, name: &str) -> Result<FuncId, LookupError> {
        match self.member(class, name)? {
            Found::Method { func, .. } => Ok(func),
            Found::Data(_) => Err(LookupError::NotFound {
                class: self.program.class(class).name.clone(),
                name: name.to_string(),
            }),
        }
    }

    /// Resolves the *dynamic dispatch target* of calling `name` on an object
    /// whose most-derived class is `dynamic`: the declaration in the most
    /// derived class along the path. Returns `None` if no class in the
    /// hierarchy declares it.
    pub fn resolve_virtual(&self, dynamic: ClassId, name: &str) -> Option<FuncId> {
        match self.member(dynamic, name) {
            Ok(Found::Method { func, .. }) => Some(func),
            _ => None,
        }
    }

    /// The (cached) dispatch-candidate set of a virtual call on a receiver
    /// declared as `receiver`: for every transitive subclass (in class-id
    /// order, `receiver` included), the dynamic dispatch target of `name` on
    /// that class. Every dispatch site with the same declared receiver and
    /// method shares this computation — without the cache, candidate
    /// resolution is quadratic in hierarchy depth *per site*, which
    /// dominates body walking on deep hierarchies.
    pub fn dispatch_candidates(
        &self,
        receiver: ClassId,
        name: &str,
    ) -> std::rc::Rc<Vec<(ClassId, FuncId)>> {
        match self.program.interner().lookup(name) {
            Some(sym) => self.dispatch_candidates_interned(receiver, sym, name),
            // No function anywhere bears this name, so no subclass can
            // resolve a dispatch target for it.
            None => std::rc::Rc::new(Vec::new()),
        }
    }

    /// [`MemberLookup::dispatch_candidates`] keyed by the statically
    /// resolved declaration instead of its name: the hot callers (the
    /// fixpoint replay and the summary extractor) already hold a
    /// `FuncId`, and going through its interned name symbol makes a
    /// cache hit two integer hashes with no allocation.
    pub fn dispatch_candidates_for(
        &self,
        receiver: ClassId,
        method: FuncId,
    ) -> std::rc::Rc<Vec<(ClassId, FuncId)>> {
        let sym = self.program.fn_name_symbol(method);
        self.dispatch_candidates_interned(receiver, sym, &self.program.function(method).name)
    }

    fn dispatch_candidates_interned(
        &self,
        receiver: ClassId,
        sym: Symbol,
        name: &str,
    ) -> std::rc::Rc<Vec<(ClassId, FuncId)>> {
        if let Some(c) = self.dispatch.borrow().get(&(receiver, sym)) {
            return c.clone();
        }
        let computed = std::rc::Rc::new(
            self.program
                .subclasses_of(receiver)
                .into_iter()
                .filter_map(|c| self.resolve_virtual(c, name).map(|f| (c, f)))
                .collect::<Vec<_>>(),
        );
        self.dispatch
            .borrow_mut()
            .insert((receiver, sym), computed.clone());
        computed
    }

    /// The (cached) destructor-candidate set of a `delete` through a
    /// pointer declared as `class`: every transitive subclass (in class-id
    /// order) paired with its destructor, for subclasses that have one.
    /// Cached for the same reason as [`MemberLookup::dispatch_candidates`].
    pub fn destructor_candidates(&self, class: ClassId) -> std::rc::Rc<Vec<(ClassId, FuncId)>> {
        if let Some(c) = self.dtors.borrow().get(&class) {
            return c.clone();
        }
        let computed = std::rc::Rc::new(
            self.program
                .subclasses_of(class)
                .into_iter()
                .filter_map(|c| self.program.destructor(c).map(|d| (c, d)))
                .collect::<Vec<_>>(),
        );
        self.dtors.borrow_mut().insert(class, computed.clone());
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn program(src: &str) -> Program {
        Program::build(&parse(src).expect("parse")).expect("sema")
    }

    #[test]
    fn finds_member_in_own_class() {
        let p = program("class A { public: int x; }; int main() { return 0; }");
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let m = lk.data_member(a, "x").unwrap();
        assert_eq!(m.class, a);
        assert_eq!(m.index, 0);
    }

    #[test]
    fn finds_member_in_base_class() {
        let p = program(
            "class A { public: int x; }; class B : public A { public: int y; };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        assert_eq!(lk.data_member(b, "x").unwrap().class, a);
        assert_eq!(lk.data_member(b, "y").unwrap().class, b);
    }

    #[test]
    fn derived_declaration_hides_base() {
        let p = program(
            "class A { public: int m; }; class B : public A { public: int m; };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let b = p.class_by_name("B").unwrap();
        assert_eq!(lk.data_member(b, "m").unwrap().class, b);
        // The hidden member is still reachable from A itself.
        let a = p.class_by_name("A").unwrap();
        assert_eq!(lk.data_member(a, "m").unwrap().class, a);
    }

    #[test]
    fn nonvirtual_diamond_is_ambiguous() {
        let p = program(
            "class Top { public: int t; };\n\
             class L : public Top { }; class R : public Top { };\n\
             class D : public L, public R { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        assert!(matches!(
            lk.data_member(d, "t"),
            Err(LookupError::Ambiguous { .. })
        ));
    }

    #[test]
    fn virtual_diamond_is_unambiguous() {
        let p = program(
            "class Top { public: int t; };\n\
             class L : public virtual Top { }; class R : public virtual Top { };\n\
             class D : public L, public R { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        let top = p.class_by_name("Top").unwrap();
        assert_eq!(lk.data_member(d, "t").unwrap().class, top);
    }

    #[test]
    fn dominance_over_virtual_base() {
        // L overrides the name from the shared virtual base; the L copy
        // dominates when looked up from D (ISO C++ 10.2p6 example shape).
        let p = program(
            "class Top { public: int m; };\n\
             class L : public virtual Top { public: int m; };\n\
             class R : public virtual Top { };\n\
             class D : public L, public R { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        let l = p.class_by_name("L").unwrap();
        assert_eq!(lk.data_member(d, "m").unwrap().class, l);
    }

    #[test]
    fn ambiguity_between_two_unrelated_bases() {
        let p = program(
            "class X { public: int m; }; class Y { public: int m; };\n\
             class D : public X, public Y { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        assert!(matches!(
            lk.data_member(d, "m"),
            Err(LookupError::Ambiguous { .. })
        ));
    }

    #[test]
    fn missing_member_is_not_found() {
        let p = program("class A { public: int x; }; int main() { return 0; }");
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let err = lk.data_member(a, "nope").unwrap_err();
        assert!(matches!(err, LookupError::NotFound { .. }));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn method_lookup_and_virtual_resolution() {
        let p = program(
            "class A { public: virtual int f() { return 0; } };\n\
             class B : public A { public: virtual int f() { return 1; } };\n\
             class C : public B { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let c = p.class_by_name("C").unwrap();
        let fa = lk.method(a, "f").unwrap();
        let fb = lk.method(b, "f").unwrap();
        assert_ne!(fa, fb);
        // Dispatch on a C object reaches B::f.
        assert_eq!(lk.resolve_virtual(c, "f"), Some(fb));
        assert_eq!(lk.resolve_virtual(a, "f"), Some(fa));
        assert_eq!(lk.resolve_virtual(c, "missing"), None);
    }

    #[test]
    fn data_member_lookup_rejects_methods_and_vice_versa() {
        let p = program(
            "class A { public: int x; int f() { return x; } };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        assert!(lk.data_member(a, "f").is_err());
        assert!(lk.method(a, "x").is_err());
        assert!(lk.method(a, "f").is_ok());
    }

    #[test]
    fn tree_cache_returns_same_tree() {
        let p = program("class A { }; int main() { return 0; }");
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let t1 = lk.tree(a);
        let t2 = lk.tree(a);
        assert!(std::rc::Rc::ptr_eq(&t1, &t2));
    }
}

#[cfg(test)]
mod more_lookup_tests {
    use super::*;
    use ddm_cppfront::parse;

    fn program(src: &str) -> Program {
        Program::build(&parse(src).expect("parse")).expect("sema")
    }

    #[test]
    fn ambiguous_method_from_two_bases() {
        let p = program(
            "class X { public: int f() { return 1; } };\n\
             class Y { public: int f() { return 2; } };\n\
             class D : public X, public Y { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        assert!(matches!(
            lk.method(d, "f"),
            Err(LookupError::Ambiguous { .. })
        ));
    }

    #[test]
    fn method_hides_base_data_member_of_same_name() {
        // A derived *method* named like a base *data member* hides it.
        let p = program(
            "class B { public: int item; };\n\
             class D : public B { public: int item() { return 1; } };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        assert!(lk.method(d, "item").is_ok());
        assert!(lk.data_member(d, "item").is_err());
        // The base member is still reachable from B directly.
        let b = p.class_by_name("B").unwrap();
        assert!(lk.data_member(b, "item").is_ok());
    }

    #[test]
    fn deep_chain_lookup_finds_the_root_declaration() {
        let mut src = String::from("class C0 { public: int root; };\n");
        for i in 1..12 {
            src.push_str(&format!("class C{i} : public C{} {{ }};\n", i - 1));
        }
        src.push_str("int main() { return 0; }");
        let p = program(&src);
        let lk = MemberLookup::new(&p);
        let leaf = p.class_by_name("C11").unwrap();
        let root = p.class_by_name("C0").unwrap();
        assert_eq!(lk.data_member(leaf, "root").unwrap().class, root);
    }

    #[test]
    fn dispatch_candidates_by_name_and_by_func_share_one_cache_entry() {
        let p = program(
            "class A { public: virtual int f() { return 0; } };\n\
             class B : public A { public: virtual int f() { return 1; } };\n\
             class C : public B { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let fa = lk.method(a, "f").unwrap();
        let by_name = lk.dispatch_candidates(a, "f");
        let by_func = lk.dispatch_candidates_for(a, fa);
        assert!(
            std::rc::Rc::ptr_eq(&by_name, &by_func),
            "both entry points hit the same cache slot"
        );
        let b = p.class_by_name("B").unwrap();
        let c = p.class_by_name("C").unwrap();
        let fb = lk.method(b, "f").unwrap();
        assert_eq!(*by_name, vec![(a, fa), (b, fb), (c, fb)]);
        // A name no function bears resolves to no candidates.
        assert!(lk.dispatch_candidates(a, "no_such_method").is_empty());
    }

    #[test]
    fn repeated_virtual_base_through_many_paths_is_one_subobject() {
        let p = program(
            "class V { public: int shared; };\n\
             class A : public virtual V { };\n\
             class B : public virtual V { };\n\
             class C : public virtual V { };\n\
             class D : public A, public B, public C { };\n\
             int main() { return 0; }",
        );
        let lk = MemberLookup::new(&p);
        let d = p.class_by_name("D").unwrap();
        let v = p.class_by_name("V").unwrap();
        assert_eq!(lk.data_member(d, "shared").unwrap().class, v);
        assert_eq!(lk.tree(d).virtual_bases().len(), 1);
    }
}
