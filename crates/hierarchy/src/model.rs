//! The semantic program model built from a parsed translation unit.
//!
//! [`Program::build`] resolves names (base classes, member types, enums),
//! detects inheritance cycles and duplicate members, resolves inherited
//! virtualness of methods, and produces a self-contained model that the
//! call-graph builders, the dead-member analysis, and the interpreter all
//! share.

use crate::bitset::ClassBitSet;
use crate::ids::{ClassId, FuncId};
use crate::intern::{Interner, Symbol};
use ddm_cppfront::ast::{
    Block, ClassKind, CtorInit, DataMemberDecl, FunctionKind, Param, TranslationUnit, Type,
    TypeKind,
};
use ddm_cppfront::Span;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A semantic error found while building the model.
#[derive(Debug, Clone, PartialEq)]
pub struct SemaError {
    kind: SemaErrorKind,
    span: Span,
}

impl SemaError {
    fn new(kind: SemaErrorKind, span: Span) -> Self {
        SemaError { kind, span }
    }

    /// The specific failure.
    pub fn kind(&self) -> &SemaErrorKind {
        &self.kind
    }

    /// Where the failure was detected.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.span)
    }
}

impl Error for SemaError {}

/// The kinds of semantic errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SemaErrorKind {
    /// A base class name that is not defined.
    UnknownBase {
        /// The derived class.
        class: String,
        /// The missing base name.
        base: String,
    },
    /// A type name that is neither a class nor an enum.
    UnknownType(String),
    /// The inheritance graph contains a cycle.
    InheritanceCycle(String),
    /// Two data members with the same name in one class.
    DuplicateMember {
        /// The class.
        class: String,
        /// The duplicated member name.
        member: String,
    },
    /// A data member whose type is (or contains by value) its own class.
    RecursiveByValueMember {
        /// The class.
        class: String,
        /// The offending member.
        member: String,
    },
}

impl fmt::Display for SemaErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemaErrorKind::UnknownBase { class, base } => {
                write!(f, "class `{class}` derives from unknown base `{base}`")
            }
            SemaErrorKind::UnknownType(name) => write!(f, "unknown type `{name}`"),
            SemaErrorKind::InheritanceCycle(name) => {
                write!(f, "inheritance cycle involving `{name}`")
            }
            SemaErrorKind::DuplicateMember { class, member } => {
                write!(f, "duplicate member `{member}` in class `{class}`")
            }
            SemaErrorKind::RecursiveByValueMember { class, member } => write!(
                f,
                "member `{member}` embeds class `{class}` by value into itself"
            ),
        }
    }
}

/// A resolved direct base-class edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseInfo {
    /// The base class.
    pub id: ClassId,
    /// True for `virtual` inheritance.
    pub is_virtual: bool,
}

/// A resolved data member.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberInfo {
    /// Member name.
    pub name: String,
    /// Resolved type (enum names normalized to `int`).
    pub ty: Type,
    /// Whether the member is `volatile` (write-livens, per the paper).
    pub is_volatile: bool,
    /// Source location of the declaration.
    pub span: Span,
}

/// A resolved class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassInfo {
    /// Class name.
    pub name: String,
    /// `class` / `struct` / `union`.
    pub kind: ClassKind,
    /// Direct bases in declaration order.
    pub bases: Vec<BaseInfo>,
    /// Data members in declaration order.
    pub members: Vec<MemberInfo>,
    /// All methods (constructors, destructor, member functions).
    pub methods: Vec<FuncId>,
    /// Source location.
    pub span: Span,
}

/// A resolved function or method.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    /// Function name (class-qualified display name available via
    /// [`Program::func_display_name`]).
    pub name: String,
    /// Free function, method, constructor or destructor.
    pub kind: FunctionKind,
    /// The class a method belongs to; `None` for free functions.
    pub class: Option<ClassId>,
    /// True if the method is virtual, directly or by overriding a virtual
    /// method inherited from a base class.
    pub is_virtual: bool,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Constructor initializer list (constructors only), shared with the
    /// parsed declaration.
    pub inits: Arc<[CtorInit]>,
    /// Body; `None` for pure-virtual or library (body-less) declarations.
    /// Shared with the parsed declaration.
    pub body: Option<Arc<Block>>,
    /// Source location.
    pub span: Span,
    /// Byte offset in the TU source that the spans inside `inits` and
    /// `body` are measured from (every other span here is absolute).
    pub base: u32,
}

/// A resolved global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalInfo {
    /// Variable name.
    pub name: String,
    /// Resolved type.
    pub ty: Type,
    /// Optional initializer, shared with the parsed declaration.
    pub init: Option<Arc<ddm_cppfront::ast::Expr>>,
    /// Source location.
    pub span: Span,
    /// Byte offset in the TU source that the spans inside `init` are
    /// measured from.
    pub base: u32,
}

/// The complete, resolved program.
#[derive(Debug, Clone)]
pub struct Program {
    classes: Vec<ClassInfo>,
    functions: Vec<FunctionInfo>,
    globals: Vec<GlobalInfo>,
    /// Enumerator name → value, flattened to global scope (C++98 enums).
    enum_consts: HashMap<String, i64>,
    enum_names: HashSet<String>,
    class_by_name: HashMap<String, ClassId>,
    free_fn_by_name: HashMap<String, FuncId>,
    /// Function names interned in `FuncId` order (so the numbering is
    /// deterministic for a given program); backs the integer-keyed
    /// dispatch cache in [`crate::MemberLookup`].
    interner: Interner,
    fn_name_syms: Vec<Symbol>,
    /// Per class, its direct subclasses — the inverted base relation,
    /// which makes [`Program::subclasses_of`] proportional to the
    /// subtree instead of the whole class table.
    children: Vec<Vec<ClassId>>,
}

impl Program {
    /// Builds a program model from a parsed translation unit. Spans
    /// come out as byte offsets of the TU source, except inside the
    /// shared initializers and bodies, which keep their own `base`.
    ///
    /// # Errors
    ///
    /// Returns a [`SemaError`] for unknown bases/types, inheritance cycles,
    /// duplicate members, and by-value recursive member embedding.
    pub fn build(tu: &TranslationUnit) -> Result<Program, SemaError> {
        let mut enum_consts = HashMap::new();
        let mut enum_names = HashSet::new();
        for e in &tu.enums {
            enum_names.insert(e.name.clone());
            for (n, v) in &e.variants {
                enum_consts.insert(n.clone(), *v);
            }
        }

        let mut class_by_name = HashMap::new();
        for (i, c) in tu.classes.iter().enumerate() {
            class_by_name.insert(c.name.clone(), ClassId(i as u32));
        }

        let mut prog = Program {
            classes: Vec::with_capacity(tu.classes.len()),
            functions: Vec::new(),
            globals: Vec::new(),
            enum_consts,
            enum_names,
            class_by_name,
            free_fn_by_name: HashMap::new(),
            interner: Interner::new(),
            fn_name_syms: Vec::new(),
            children: Vec::new(),
        };

        // Pass 1: classes with resolved bases and members.
        for decl in &tu.classes {
            let mut bases = Vec::new();
            for b in &decl.bases {
                let id = prog.class_by_name.get(&b.name).copied().ok_or_else(|| {
                    SemaError::new(
                        SemaErrorKind::UnknownBase {
                            class: decl.name.clone(),
                            base: b.name.clone(),
                        },
                        decl.at(b.span),
                    )
                })?;
                bases.push(BaseInfo {
                    id,
                    is_virtual: b.is_virtual,
                });
            }
            let mut seen = HashSet::new();
            let mut members = Vec::new();
            for m in &decl.data_members {
                let span = decl.at(m.span);
                if !seen.insert(m.name.clone()) {
                    return Err(SemaError::new(
                        SemaErrorKind::DuplicateMember {
                            class: decl.name.clone(),
                            member: m.name.clone(),
                        },
                        span,
                    ));
                }
                let ty = prog.resolve_type(&m.ty, span)?;
                members.push(MemberInfo {
                    name: m.name.clone(),
                    ty,
                    is_volatile: member_is_volatile(m),
                    span,
                });
            }
            prog.classes.push(ClassInfo {
                name: decl.name.clone(),
                kind: decl.kind,
                bases,
                members,
                methods: Vec::new(),
                span: decl.at(decl.span),
            });
        }

        prog.check_inheritance_acyclic()?;
        prog.check_no_by_value_recursion()?;

        // Pass 2: methods (class order, then declaration order) so that
        // virtualness can consult base classes already processed? Bases may
        // appear after derived classes in source; instead resolve direct
        // `virtual` flags first and propagate override-virtualness below.
        for (ci, decl) in tu.classes.iter().enumerate() {
            let class_id = ClassId(ci as u32);
            for m in &decl.methods {
                let span = decl.at(m.span);
                let base = decl.base.wrapping_add(m.body_offset);
                let ret = prog.resolve_type(&m.ret, span)?;
                let params = prog.resolve_params(&m.params, base)?;
                let fid = FuncId(prog.functions.len() as u32);
                prog.functions.push(FunctionInfo {
                    name: m.name.clone(),
                    kind: m.kind,
                    class: Some(class_id),
                    is_virtual: m.is_virtual,
                    ret,
                    params,
                    inits: m.inits.clone(),
                    body: m.body.clone(),
                    span,
                    base,
                });
                prog.classes[ci].methods.push(fid);
            }
        }

        // Pass 3: free functions.
        for f in &tu.functions {
            let span = f.at(f.span);
            let base = f.base.wrapping_add(f.body_offset);
            let ret = prog.resolve_type(&f.ret, span)?;
            let params = prog.resolve_params(&f.params, base)?;
            let fid = FuncId(prog.functions.len() as u32);
            prog.free_fn_by_name.insert(f.name.clone(), fid);
            prog.functions.push(FunctionInfo {
                name: f.name.clone(),
                kind: FunctionKind::Free,
                class: None,
                is_virtual: false,
                ret,
                params,
                inits: f.inits.clone(),
                body: f.body.clone(),
                span,
                base,
            });
        }

        // Pass 4: globals.
        for g in &tu.globals {
            let span = g.at(g.span);
            let ty = prog.resolve_type(&g.ty, span)?;
            prog.globals.push(GlobalInfo {
                name: g.name.clone(),
                ty,
                init: g.init.clone(),
                span,
                base: g.base,
            });
        }

        prog.propagate_virtualness();
        prog.build_derived_indexes();
        Ok(prog)
    }

    /// Assembles a program directly from already-resolved parts. Used by
    /// the TU linker, which merges per-TU models that each went through
    /// [`Program::build`]: types are resolved, ids are consistent, and
    /// virtualness was propagated per TU (identical to whole-program
    /// propagation, because a class definition always has its complete
    /// ancestry in its own TU under the header model). The name maps are
    /// recomputed here so they cannot disagree with the vectors.
    pub(crate) fn assemble(
        classes: Vec<ClassInfo>,
        functions: Vec<FunctionInfo>,
        globals: Vec<GlobalInfo>,
        enum_consts: HashMap<String, i64>,
        enum_names: HashSet<String>,
    ) -> Program {
        let class_by_name = classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), ClassId(i as u32)))
            .collect();
        let free_fn_by_name = functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.class.is_none())
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
        let mut prog = Program {
            classes,
            functions,
            globals,
            enum_consts,
            enum_names,
            class_by_name,
            free_fn_by_name,
            interner: Interner::new(),
            fn_name_syms: Vec::new(),
            children: Vec::new(),
        };
        prog.build_derived_indexes();
        prog
    }

    /// Builds the derived lookup structures both construction paths
    /// ([`Program::build`] and [`Program::assemble`]) share: the
    /// function-name interner and the direct-subclass adjacency.
    fn build_derived_indexes(&mut self) {
        let mut interner = Interner::new();
        self.fn_name_syms = self
            .functions
            .iter()
            .map(|f| interner.intern(&f.name))
            .collect();
        self.interner = interner;
        let mut children = vec![Vec::new(); self.classes.len()];
        for (i, c) in self.classes.iter().enumerate() {
            for b in &c.bases {
                children[b.id.index()].push(ClassId(i as u32));
            }
        }
        self.children = children;
    }

    /// Resolves a syntactic type: checks named types exist, rewrites enum
    /// names to `int`.
    fn resolve_type(&self, ty: &Type, span: Span) -> Result<Type, SemaError> {
        let mut out = ty.clone();
        self.resolve_type_mut(&mut out, span)?;
        Ok(out)
    }

    fn resolve_type_mut(&self, ty: &mut Type, span: Span) -> Result<(), SemaError> {
        match &mut ty.kind {
            TypeKind::Named(name) => {
                if self.enum_names.contains(name) {
                    ty.kind = TypeKind::Int;
                } else if !self.class_by_name.contains_key(name) {
                    return Err(SemaError::new(
                        SemaErrorKind::UnknownType(name.clone()),
                        span,
                    ));
                }
                Ok(())
            }
            TypeKind::Pointer(inner) | TypeKind::Reference(inner) => {
                self.resolve_type_mut(inner, span)
            }
            TypeKind::Array(inner, _) => self.resolve_type_mut(inner, span),
            TypeKind::Function(ft) => {
                self.resolve_type_mut(&mut ft.ret, span)?;
                for p in &mut ft.params {
                    self.resolve_type_mut(p, span)?;
                }
                Ok(())
            }
            TypeKind::MemberPointer { class, pointee } => {
                if !self.class_by_name.contains_key(class) {
                    return Err(SemaError::new(
                        SemaErrorKind::UnknownType(class.clone()),
                        span,
                    ));
                }
                self.resolve_type_mut(pointee, span)
            }
            _ => Ok(()),
        }
    }

    /// Resolves parameters whose spans are measured from `base`.
    fn resolve_params(&self, params: &[Param], base: u32) -> Result<Vec<Param>, SemaError> {
        params
            .iter()
            .map(|p| {
                let span = p.span.rebase(base);
                Ok(Param {
                    name: p.name.clone(),
                    ty: self.resolve_type(&p.ty, span)?,
                    span,
                })
            })
            .collect()
    }

    fn check_inheritance_acyclic(&self) -> Result<(), SemaError> {
        // Colors: 0 = unvisited, 1 = on stack, 2 = done.
        let mut color = vec![0u8; self.classes.len()];
        for start in 0..self.classes.len() {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&(node, edge)) = stack.last() {
                if edge < self.classes[node].bases.len() {
                    stack.last_mut().expect("stack is non-empty").1 += 1;
                    let next = self.classes[node].bases[edge].id.index();
                    match color[next] {
                        0 => {
                            color[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            return Err(SemaError::new(
                                SemaErrorKind::InheritanceCycle(self.classes[next].name.clone()),
                                self.classes[next].span,
                            ))
                        }
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    fn check_no_by_value_recursion(&self) -> Result<(), SemaError> {
        for (ci, class) in self.classes.iter().enumerate() {
            for m in &class.members {
                if let Some(embedded) = by_value_class(&m.ty) {
                    if let Some(&eid) = self.class_by_name.get(embedded) {
                        if self.embeds_by_value(eid, ClassId(ci as u32), &mut HashSet::new()) {
                            return Err(SemaError::new(
                                SemaErrorKind::RecursiveByValueMember {
                                    class: class.name.clone(),
                                    member: m.name.clone(),
                                },
                                m.span,
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// True if an object of `outer` transitively contains an object of
    /// `target` by value (through members or base classes), or is `target`.
    fn embeds_by_value(
        &self,
        outer: ClassId,
        target: ClassId,
        seen: &mut HashSet<ClassId>,
    ) -> bool {
        if outer == target {
            return true;
        }
        if !seen.insert(outer) {
            return false;
        }
        let class = &self.classes[outer.index()];
        for b in &class.bases {
            if self.embeds_by_value(b.id, target, seen) {
                return true;
            }
        }
        for m in &class.members {
            if let Some(name) = by_value_class(&m.ty) {
                if let Some(&mid) = self.class_by_name.get(name) {
                    if self.embeds_by_value(mid, target, seen) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Marks methods virtual when they override a virtual method of any
    /// (transitive) base class, iterating to a fixpoint over the hierarchy.
    fn propagate_virtualness(&mut self) {
        let order = self.topo_order();
        for &cid in &order {
            let method_ids = self.classes[cid.index()].methods.clone();
            for fid in method_ids {
                if self.functions[fid.index()].is_virtual
                    || self.functions[fid.index()].kind != FunctionKind::Method
                {
                    continue;
                }
                let name = self.functions[fid.index()].name.clone();
                if self.base_has_virtual_method(cid, &name) {
                    self.functions[fid.index()].is_virtual = true;
                }
            }
            // Destructors: virtual if any base destructor is virtual.
            let dtor = self.classes[cid.index()]
                .methods
                .iter()
                .copied()
                .find(|f| self.functions[f.index()].kind == FunctionKind::Destructor);
            if let Some(d) = dtor {
                if !self.functions[d.index()].is_virtual && self.base_has_virtual_dtor(cid) {
                    self.functions[d.index()].is_virtual = true;
                }
            }
        }
    }

    fn base_has_virtual_method(&self, class: ClassId, name: &str) -> bool {
        let mut stack: Vec<ClassId> = self.classes[class.index()]
            .bases
            .iter()
            .map(|b| b.id)
            .collect();
        let mut seen = HashSet::new();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            for &fid in &self.classes[c.index()].methods {
                let f = &self.functions[fid.index()];
                if f.kind == FunctionKind::Method && f.name == name && f.is_virtual {
                    return true;
                }
            }
            stack.extend(self.classes[c.index()].bases.iter().map(|b| b.id));
        }
        false
    }

    fn base_has_virtual_dtor(&self, class: ClassId) -> bool {
        let mut stack: Vec<ClassId> = self.classes[class.index()]
            .bases
            .iter()
            .map(|b| b.id)
            .collect();
        let mut seen = HashSet::new();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            for &fid in &self.classes[c.index()].methods {
                let f = &self.functions[fid.index()];
                if f.kind == FunctionKind::Destructor && f.is_virtual {
                    return true;
                }
            }
            stack.extend(self.classes[c.index()].bases.iter().map(|b| b.id));
        }
        false
    }

    /// Classes in an order where bases come before derived classes.
    pub fn topo_order(&self) -> Vec<ClassId> {
        let mut order = Vec::with_capacity(self.classes.len());
        let mut done = vec![false; self.classes.len()];
        fn visit(p: &Program, c: usize, done: &mut [bool], order: &mut Vec<ClassId>) {
            if done[c] {
                return;
            }
            done[c] = true;
            for b in &p.classes[c].bases {
                visit(p, b.id.index(), done, order);
            }
            order.push(ClassId(c as u32));
        }
        for c in 0..self.classes.len() {
            visit(self, c, &mut done, &mut order);
        }
        order
    }

    // ----- accessors -------------------------------------------------------

    /// All classes.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = (ClassId, &ClassInfo)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }

    /// The class with the given id.
    pub fn class(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.index()]
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// All functions (free and methods).
    pub fn functions(&self) -> impl ExactSizeIterator<Item = (FuncId, &FunctionInfo)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// The function with the given id.
    pub fn function(&self, id: FuncId) -> &FunctionInfo {
        &self.functions[id.index()]
    }

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Looks up a free function by name.
    pub fn free_function(&self, name: &str) -> Option<FuncId> {
        self.free_fn_by_name.get(name).copied()
    }

    /// The interned symbol of the function's (unqualified) name.
    pub fn fn_name_symbol(&self, id: FuncId) -> Symbol {
        self.fn_name_syms[id.index()]
    }

    /// The function-name interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The `main` function, if present.
    pub fn main_function(&self) -> Option<FuncId> {
        self.free_function("main")
    }

    /// All global variables.
    pub fn globals(&self) -> &[GlobalInfo] {
        &self.globals
    }

    /// The value of an enumerator, if `name` is one.
    pub fn enum_const(&self, name: &str) -> Option<i64> {
        self.enum_consts.get(name).copied()
    }

    /// True if `name` names an enum type.
    pub fn is_enum_type(&self, name: &str) -> bool {
        self.enum_names.contains(name)
    }

    /// Human-readable function name, `Class::method` for methods.
    pub fn func_display_name(&self, id: FuncId) -> String {
        let f = &self.functions[id.index()];
        match f.class {
            Some(c) => format!("{}::{}", self.classes[c.index()].name, f.name),
            None => f.name.clone(),
        }
    }

    /// Finds a method declared *directly* in `class` by name.
    pub fn direct_method(&self, class: ClassId, name: &str) -> Option<FuncId> {
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .find(|&f| {
                let fi = &self.functions[f.index()];
                fi.name == name && fi.kind != FunctionKind::Constructor
            })
    }

    /// The constructors of `class`.
    pub fn constructors(&self, class: ClassId) -> Vec<FuncId> {
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .filter(|&f| self.functions[f.index()].kind == FunctionKind::Constructor)
            .collect()
    }

    /// The destructor of `class`, if declared.
    pub fn destructor(&self, class: ClassId) -> Option<FuncId> {
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .find(|&f| self.functions[f.index()].kind == FunctionKind::Destructor)
    }

    /// True if `sub` equals `sup` or transitively derives from it. Each
    /// base is explored once however many inheritance paths reach it, so
    /// a stack of diamonds costs its size, not its path count.
    pub fn derives_from(&self, sub: ClassId, sup: ClassId) -> bool {
        sub == sup || self.ancestors_of(sub).contains(&sup)
    }

    /// All transitive subclasses of `class`, including itself, in
    /// ascending id order.
    ///
    /// Walks the inverted base relation, so dispatch-candidate
    /// resolution does not scan the whole class table per class — the
    /// old scan-every-class form made it quadratic on deep generated
    /// hierarchies. The output is exactly what the scan produced:
    /// reflexive, deduplicated, ascending.
    pub fn subclasses_of(&self, class: ClassId) -> Vec<ClassId> {
        let mut below = self.derived_from_any([class]);
        below.insert(class);
        below.to_vec()
    }

    /// Every class that transitively derives from one of `bases`, in one
    /// walk down the inverted base relation. A class of `bases` is in the
    /// set only when it derives from another one.
    pub fn derived_from_any(&self, bases: impl IntoIterator<Item = ClassId>) -> ClassBitSet {
        let mut out = ClassBitSet::with_capacity(self.classes.len());
        let mut stack: Vec<ClassId> = bases.into_iter().collect();
        while let Some(c) = stack.pop() {
            for &d in &self.children[c.index()] {
                if out.insert(d) {
                    stack.push(d);
                }
            }
        }
        out
    }

    /// All direct and transitive base classes of `class` (no duplicates,
    /// excluding `class` itself).
    pub fn ancestors_of(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        // Grows on insert, so a query does not clear a set the size of
        // the class table.
        let mut seen = ClassBitSet::default();
        let mut stack: Vec<ClassId> = self.classes[class.index()]
            .bases
            .iter()
            .map(|b| b.id)
            .collect();
        while let Some(c) = stack.pop() {
            if seen.insert(c) {
                out.push(c);
                stack.extend(self.classes[c.index()].bases.iter().map(|b| b.id));
            }
        }
        out
    }

    /// Total number of data members across all classes.
    pub fn total_data_members(&self) -> usize {
        self.classes.iter().map(|c| c.members.len()).sum()
    }
}

/// If `ty` embeds a class by value (directly or through arrays), its name.
pub fn by_value_class(ty: &Type) -> Option<&str> {
    match &ty.kind {
        TypeKind::Named(n) => Some(n),
        TypeKind::Array(inner, _) => by_value_class(inner),
        _ => None,
    }
}

fn member_is_volatile(m: &DataMemberDecl) -> bool {
    fn vol(ty: &Type) -> bool {
        if ty.is_volatile {
            return true;
        }
        match &ty.kind {
            TypeKind::Array(inner, _) => vol(inner),
            _ => false,
        }
    }
    vol(&m.ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn build(src: &str) -> Program {
        let tu = parse(src).expect("parse");
        Program::build(&tu).expect("sema")
    }

    #[test]
    fn builds_simple_hierarchy() {
        let p = build(
            "class A { public: int x; virtual int f() { return x; } };\n\
             class B : public A { public: int y; virtual int f() { return y; } };\n\
             int main() { B b; return b.f(); }",
        );
        assert_eq!(p.class_count(), 2);
        let b = p.class_by_name("B").unwrap();
        assert_eq!(p.class(b).bases.len(), 1);
        assert!(!p.class(b).bases[0].is_virtual);
        assert!(p.main_function().is_some());
    }

    #[test]
    fn enum_types_normalize_to_int() {
        let p = build(
            "enum Color { Red, Green };\n\
             class A { public: Color c; };\n\
             int main() { A a; a.c = Green; return a.c; }",
        );
        let a = p.class_by_name("A").unwrap();
        assert_eq!(p.class(a).members[0].ty, Type::int());
        assert_eq!(p.enum_const("Green"), Some(1));
        assert!(p.is_enum_type("Color"));
    }

    #[test]
    fn override_inherits_virtualness() {
        let p = build(
            "class A { public: virtual int f() { return 0; } virtual ~A() { } };\n\
             class B : public A { public: int f() { return 1; } ~B() { } };\n\
             int main() { return 0; }",
        );
        let b = p.class_by_name("B").unwrap();
        let f = p.direct_method(b, "f").unwrap();
        assert!(p.function(f).is_virtual, "override must become virtual");
        let d = p.destructor(b).unwrap();
        assert!(
            p.function(d).is_virtual,
            "dtor override must become virtual"
        );
    }

    #[test]
    fn non_override_stays_non_virtual() {
        let p = build(
            "class A { public: int f() { return 0; } };\n\
             class B : public A { public: int g() { return 1; } };\n\
             int main() { return 0; }",
        );
        let b = p.class_by_name("B").unwrap();
        let g = p.direct_method(b, "g").unwrap();
        assert!(!p.function(g).is_virtual);
    }

    #[test]
    fn unknown_base_is_error() {
        let tu = parse("class B : public Missing { }; int main() { return 0; }").unwrap();
        let err = Program::build(&tu).unwrap_err();
        assert!(matches!(err.kind(), SemaErrorKind::UnknownBase { .. }));
        let tu =
            parse("class Missing; class B : public Missing { }; int main() { return 0; }").unwrap();
        let err = Program::build(&tu).unwrap_err();
        assert!(matches!(err.kind(), SemaErrorKind::UnknownBase { .. }));
    }

    #[test]
    fn unknown_member_type_is_error() {
        let tu =
            parse("class Ghost; class A { public: Ghost g; }; int main() { return 0; }").unwrap();
        let err = Program::build(&tu).unwrap_err();
        assert!(matches!(err.kind(), SemaErrorKind::UnknownType(_)));
    }

    #[test]
    fn pointer_to_undefined_class_is_ok() {
        // Pointers to forward-declared classes are fine in C++; we only
        // require the name to be known.
        let tu =
            parse("class Node { public: Node* next; int v; }; int main() { return 0; }").unwrap();
        assert!(Program::build(&tu).is_ok());
    }

    #[test]
    fn duplicate_member_is_error() {
        let tu = parse("class A { public: int x; int x; }; int main() { return 0; }").unwrap();
        let err = Program::build(&tu).unwrap_err();
        assert!(matches!(err.kind(), SemaErrorKind::DuplicateMember { .. }));
    }

    #[test]
    fn by_value_self_embedding_is_error() {
        let tu = parse("class A { public: A a; }; int main() { return 0; }").unwrap();
        let err = Program::build(&tu).unwrap_err();
        assert!(matches!(
            err.kind(),
            SemaErrorKind::RecursiveByValueMember { .. }
        ));
    }

    #[test]
    fn mutual_by_value_embedding_is_error() {
        let tu = parse(
            "class B; class A { public: B* pb; }; class B { public: A a; };\n\
             class C { public: C* self; };\n\
             int main() { return 0; }",
        )
        .unwrap();
        assert!(Program::build(&tu).is_ok());
        let tu2 = parse(
            "class B; class A { public: B b; }; class B { public: A a; };\n\
             int main() { return 0; }",
        );
        // `class A { B b; }` with B defined later parses; sema must reject.
        let tu2 = tu2.unwrap();
        assert!(Program::build(&tu2).is_err());
    }

    #[test]
    fn derives_from_and_subclasses() {
        let p = build(
            "class A { }; class B : public A { }; class C : public B { }; class D { };\n\
             int main() { return 0; }",
        );
        let a = p.class_by_name("A").unwrap();
        let c = p.class_by_name("C").unwrap();
        let d = p.class_by_name("D").unwrap();
        assert!(p.derives_from(c, a));
        assert!(!p.derives_from(a, c));
        assert!(!p.derives_from(d, a));
        assert_eq!(p.subclasses_of(a).len(), 3);
        assert_eq!(p.ancestors_of(c).len(), 2);
    }

    #[test]
    fn subclasses_match_the_brute_force_scan() {
        // Diamond plus a chain hanging off one arm, declared out of
        // id order so the ascending-output contract is exercised.
        let p = build(
            "class Top { };\n\
             class R : public Top { };\n\
             class L : public Top { };\n\
             class D : public L, public R { };\n\
             class E : public D { };\n\
             class Apart { };\n\
             int main() { return 0; }",
        );
        for ci in 0..p.class_count() {
            let c = ClassId(ci as u32);
            let brute: Vec<ClassId> = (0..p.class_count())
                .map(|i| ClassId(i as u32))
                .filter(|&s| p.derives_from(s, c))
                .collect();
            assert_eq!(p.subclasses_of(c), brute, "class {}", p.class(c).name);
        }
        let top = p.class_by_name("Top").unwrap();
        assert_eq!(p.subclasses_of(top).len(), 5, "diamond counted once");
    }

    #[test]
    fn function_name_symbols_round_trip() {
        let p = build(
            "class A { public: int f() { return 0; } };\n\
             class B { public: int f() { return 1; } };\n\
             int g() { return 2; } int main() { return 0; }",
        );
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let fa = p.direct_method(a, "f").unwrap();
        let fb = p.direct_method(b, "f").unwrap();
        assert_eq!(
            p.fn_name_symbol(fa),
            p.fn_name_symbol(fb),
            "same name, same symbol"
        );
        assert_ne!(
            p.fn_name_symbol(fa),
            p.fn_name_symbol(p.main_function().unwrap())
        );
        assert_eq!(p.interner().resolve(p.fn_name_symbol(fa)), "f");
        assert_eq!(p.interner().lookup("g"), Some(p.fn_name_symbol(p.free_function("g").unwrap())));
    }

    #[test]
    fn volatile_member_detected() {
        let p = build("class A { public: volatile int flag; int x; }; int main() { return 0; }");
        let a = p.class_by_name("A").unwrap();
        assert!(p.class(a).members[0].is_volatile);
        assert!(!p.class(a).members[1].is_volatile);
    }

    #[test]
    fn topo_order_puts_bases_first() {
        let p = build(
            "class C : public B { }; class B : public A { }; class A { };\n\
             int main() { return 0; }",
        );
        let order = p.topo_order();
        let pos = |name: &str| order.iter().position(|&c| p.class(c).name == name).unwrap();
        assert!(pos("A") < pos("B"));
        assert!(pos("B") < pos("C"));
    }

    #[test]
    fn func_display_names() {
        let p = build("class A { public: int f() { return 0; } }; int g() { return 1; } int main() { return 0; }");
        let a = p.class_by_name("A").unwrap();
        let f = p.direct_method(a, "f").unwrap();
        assert_eq!(p.func_display_name(f), "A::f");
        let g = p.free_function("g").unwrap();
        assert_eq!(p.func_display_name(g), "g");
    }
}
