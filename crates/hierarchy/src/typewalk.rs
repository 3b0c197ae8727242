//! Typed traversal of function bodies.
//!
//! [`walk_function`] drives an [`EventVisitor`] over every statement and
//! expression of one function, maintaining local scopes and inferring
//! static types, and reports the semantic *events* the downstream analyses
//! care about: member accesses (with read/write classification), calls
//! (with virtual-dispatch information), casts, `sizeof`, allocation,
//! deallocation, and address-taken functions.
//!
//! Both the call-graph builders and the dead-member analysis consume this
//! single traversal, so the two phases agree on name resolution by
//! construction.

use crate::ids::{ClassId, FuncId, MemberRef};
use crate::lookup::{Found, LookupError, MemberLookup};
use crate::model::Program;
use ddm_cppfront::ast::{
    AssignOp, Block, CastStyle, Expr, ExprKind, FnType, FunctionKind, LocalInit, Stmt, StmtKind,
    Type, TypeKind, UnaryOp,
};
use ddm_cppfront::Span;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of body traversals ([`walk_function`] and
/// [`walk_globals`] invocations), for asserting the summary engine's
/// walk-once property in tests and benchmarks.
static BODY_WALKS: AtomicU64 = AtomicU64::new(0);

/// The number of body traversals performed so far by this process.
pub fn body_walk_count() -> u64 {
    BODY_WALKS.load(Ordering::Relaxed)
}

/// Built-in functions the runtime provides. Calls to these are not user
/// code; `free` gets the paper's special treatment (its argument is not a
/// liveness-inducing access) and the `print_*` family is the program's
/// observable output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `print_int(int)` — writes an integer to the output.
    PrintInt,
    /// `print_char(char)` — writes a character to the output.
    PrintChar,
    /// `print_float(double)` — writes a float to the output.
    PrintFloat,
    /// `print_str(char*)` — writes a string literal to the output.
    PrintStr,
    /// `free(void*)` — releases heap memory (C allocation interface).
    Free,
}

impl Builtin {
    /// Looks up a builtin by source name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "print_int" => Builtin::PrintInt,
            "print_char" => Builtin::PrintChar,
            "print_float" => Builtin::PrintFloat,
            "print_str" => Builtin::PrintStr,
            "free" => Builtin::Free,
            _ => return None,
        })
    }

    /// The builtin's return type (they all return `void`).
    pub fn return_type(self) -> Type {
        Type::void()
    }
}

/// A type or resolution error found while walking a body.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError {
    kind: TypeErrorKind,
    span: Span,
}

impl TypeError {
    fn new(kind: TypeErrorKind, span: Span) -> Self {
        TypeError { kind, span }
    }

    /// Reassembles a `TypeError` from its parts, as the cache decoder does.
    pub fn from_parts(kind: TypeErrorKind, span: Span) -> Self {
        TypeError { kind, span }
    }

    /// The specific failure.
    pub fn kind(&self) -> &TypeErrorKind {
        &self.kind
    }

    /// Where it occurred.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.span)
    }
}

impl Error for TypeError {}

/// Kinds of type errors.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeErrorKind {
    /// A name that resolves to nothing.
    UnknownIdent(String),
    /// Member access on a non-class type.
    NotAClass(String),
    /// Dereference/arrow on a non-pointer.
    NotAPointer(String),
    /// Call of something that is not a function.
    NotCallable(String),
    /// Member lookup failed.
    Lookup(LookupError),
    /// `this` outside a method.
    ThisOutsideMethod,
    /// A qualifier that names no class.
    UnknownQualifier(String),
}

impl fmt::Display for TypeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeErrorKind::UnknownIdent(n) => write!(f, "unknown identifier `{n}`"),
            TypeErrorKind::NotAClass(t) => write!(f, "member access on non-class type `{t}`"),
            TypeErrorKind::NotAPointer(t) => write!(f, "`->` or `*` applied to non-pointer `{t}`"),
            TypeErrorKind::NotCallable(t) => write!(f, "cannot call value of type `{t}`"),
            TypeErrorKind::Lookup(e) => write!(f, "{e}"),
            TypeErrorKind::ThisOutsideMethod => write!(f, "`this` used outside a member function"),
            TypeErrorKind::UnknownQualifier(q) => write!(f, "unknown qualifier `{q}`"),
        }
    }
}

impl From<LookupError> for TypeErrorKind {
    fn from(e: LookupError) -> Self {
        TypeErrorKind::Lookup(e)
    }
}

/// A data-member access event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberAccessEvent {
    /// The resolved member (`C::m` in the paper's terms).
    pub member: MemberRef,
    /// The static class of the object expression.
    pub object_class: ClassId,
    /// Whether the access used `base.Qual::m` syntax.
    pub qualified: bool,
    /// True when this access is the *direct* left-hand side of a simple
    /// `=` assignment — a pure write, which the analysis ignores (unless
    /// the member is `volatile`).
    pub is_store_target: bool,
    /// True when this access is the direct operand of `delete` or the
    /// direct argument of `free` — exempt from livening, per the paper.
    pub is_delete_operand: bool,
    /// True when the *address* of the member is taken (`&e.m`).
    pub address_taken: bool,
    /// Source location of the access.
    pub span: Span,
}

/// How a call site resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// A free function.
    Free(FuncId),
    /// A runtime builtin.
    Builtin(Builtin),
    /// A method call on an object of static class `receiver_class`.
    Method {
        /// The statically resolved declaration.
        func: FuncId,
        /// Static class of the receiver.
        receiver_class: ClassId,
        /// True when dynamic dispatch applies (virtual method, unqualified
        /// call, receiver accessed through a pointer or reference).
        is_virtual_dispatch: bool,
        /// For dispatched calls whose receiver is a plain local/parameter
        /// pointer (`p->f()`), the variable name — the hook a points-to
        /// refinement (§3.1) uses to narrow the candidate set.
        receiver_var: Option<String>,
    },
    /// An indirect call through a function pointer (unknown target).
    FunctionPointer,
}

/// A call event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEvent {
    /// Where the call goes.
    pub target: CallTarget,
    /// Number of arguments at the call site.
    pub arg_count: usize,
    /// Source location.
    pub span: Span,
}

/// A cast event (any style).
#[derive(Debug, Clone, PartialEq)]
pub struct CastEvent {
    /// Which syntax was used.
    pub style: CastStyle,
    /// The target type.
    pub target: Type,
    /// The operand's static type (the paper's `S` in
    /// `MarkAllContainedMembers(S)`).
    pub operand: Type,
    /// Source location.
    pub span: Span,
}

/// An object allocation/instantiation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantiationEvent {
    /// The instantiated class.
    pub class: ClassId,
    /// The constructor that runs, when one is declared and resolvable by
    /// arity. `None` for classes without declared constructors.
    pub ctor: Option<FuncId>,
    /// How the object comes into being.
    pub kind: InstantiationKind,
    /// Source location.
    pub span: Span,
}

/// The different ways an object gets created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantiationKind {
    /// A local (stack) variable.
    Local,
    /// A `new` expression.
    Heap,
    /// A `new T[n]` expression.
    HeapArray,
    /// A global variable.
    Global,
}

/// A `delete` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeleteEvent {
    /// Static class of the deleted pointee, if it is a class.
    pub pointee_class: Option<ClassId>,
    /// True for `delete[]`.
    pub is_array: bool,
    /// Source location.
    pub span: Span,
}

/// Visitor over the semantic events of one function body. All methods
/// default to no-ops so implementations override only what they need.
pub trait EventVisitor {
    /// A data-member access (read, write, or address-taken).
    fn member_access(&mut self, _ev: &MemberAccessEvent) {}
    /// A pointer-to-data-member creation `&C::m`.
    fn ptr_to_member(&mut self, _member: MemberRef, _span: Span) {}
    /// A call site.
    fn call(&mut self, _ev: &CallEvent) {}
    /// A function whose address is taken (named without calling it).
    fn address_of_function(&mut self, _func: FuncId, _span: Span) {}
    /// A cast of any style.
    fn cast(&mut self, _ev: &CastEvent) {}
    /// A `sizeof(T)` or `sizeof expr` with the resolved type.
    fn sizeof_of(&mut self, _ty: &Type, _span: Span) {}
    /// An object instantiation (local, heap, or global).
    fn instantiation(&mut self, _ev: &InstantiationEvent) {}
    /// A `delete` expression.
    fn delete_of(&mut self, _ev: &DeleteEvent) {}
}

/// Walks one function body (including constructor initializer lists),
/// reporting events to `visitor`.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered. Body-less functions
/// produce no events and succeed.
pub fn walk_function(
    program: &Program,
    lookup: &MemberLookup<'_>,
    func: FuncId,
    visitor: &mut dyn EventVisitor,
) -> Result<(), TypeError> {
    BODY_WALKS.fetch_add(1, Ordering::Relaxed);
    let info = program.function(func);
    let mut walker = Walker {
        program,
        lookup,
        visitor,
        scopes: vec![HashMap::new()],
        this_class: info.class,
        base: info.base,
    };
    for p in &info.params {
        walker.declare(&p.name, p.ty.clone());
    }
    // Constructor initializer lists: member entries are pure writes (the
    // arguments are evaluated, the target member is not livened); base
    // entries are constructor calls.
    if info.kind == FunctionKind::Constructor {
        let class = info.class.expect("constructors always have a class");
        for init in info.inits.iter() {
            for arg in &init.args {
                walker.expr(arg, Ctx::value())?;
            }
            if let Some(base_id) = program.class_by_name(&init.name) {
                if program.class(class).bases.iter().any(|b| b.id == base_id) {
                    let ctor = resolve_ctor(program, base_id, init.args.len());
                    walker.visitor.call(&CallEvent {
                        target: CallTarget::Method {
                            func: match ctor {
                                Some(c) => c,
                                None => continue,
                            },
                            receiver_class: base_id,
                            is_virtual_dispatch: false,
                            receiver_var: None,
                        },
                        arg_count: init.args.len(),
                        span: init.span.rebase(info.base),
                    });
                }
            }
        }
    }
    if let Some(body) = &info.body {
        walker.block(body)?;
    }
    Ok(())
}

/// Walks every global-variable initializer (these run before `main`, so
/// their member accesses are always reachable).
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn walk_globals(
    program: &Program,
    lookup: &MemberLookup<'_>,
    visitor: &mut dyn EventVisitor,
) -> Result<(), TypeError> {
    BODY_WALKS.fetch_add(1, Ordering::Relaxed);
    let mut walker = Walker {
        program,
        lookup,
        visitor,
        scopes: vec![HashMap::new()],
        this_class: None,
        base: 0,
    };
    for g in program.globals() {
        walker.base = g.base;
        if let Some(init) = &g.init {
            walker.expr(init, Ctx::value())?;
        }
        if let Some(class_name) = crate::model::by_value_class(&g.ty) {
            if let Some(class) = walker.program.class_by_name(class_name) {
                let ctor = resolve_ctor(walker.program, class, 0);
                walker.visitor.instantiation(&InstantiationEvent {
                    class,
                    ctor,
                    kind: InstantiationKind::Global,
                    span: g.span,
                });
            }
        }
    }
    Ok(())
}

/// Resolves a constructor of `class` by argument count: an exact-arity
/// match wins; otherwise any constructor (our subset does not model default
/// arguments); `None` when the class declares no constructors.
pub fn resolve_ctor(program: &Program, class: ClassId, arity: usize) -> Option<FuncId> {
    let ctors = program.constructors(class);
    ctors
        .iter()
        .copied()
        .find(|&c| program.function(c).params.len() == arity)
        .or_else(|| ctors.first().copied())
}

/// Expression evaluation context, threaded top-down.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    /// This expression is the direct LHS of a simple `=`.
    store_target: bool,
    /// This expression is the direct operand of `delete` / argument of `free`.
    delete_operand: bool,
    /// This expression is the direct operand of `&`.
    address_of: bool,
    /// This expression is being called (so a bare function name is not an
    /// address-taken event).
    callee: bool,
}

impl Ctx {
    fn value() -> Ctx {
        Ctx::default()
    }
}

struct Walker<'a> {
    program: &'a Program,
    lookup: &'a MemberLookup<'a>,
    visitor: &'a mut dyn EventVisitor,
    scopes: Vec<HashMap<String, Type>>,
    this_class: Option<ClassId>,
    /// Byte offset the spans of the walked body are measured from; every
    /// span an event or error carries is rebased by it.
    base: u32,
}

impl<'a> Walker<'a> {
    fn declare(&mut self, name: &str, ty: Type) {
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_string(), ty);
    }

    fn lookup_local(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn block(&mut self, b: &Block) -> Result<(), TypeError> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), TypeError> {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.expr(e, Ctx::value())?;
            }
            StmtKind::Decl(d) => self.local_decl(d, s.span.rebase(self.base))?,
            StmtKind::If { cond, then, els } => {
                self.expr(cond, Ctx::value())?;
                self.stmt(then)?;
                if let Some(e) = els {
                    self.stmt(e)?;
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond, Ctx::value())?;
                self.stmt(body)?;
            }
            StmtKind::DoWhile { body, cond } => {
                self.stmt(body)?;
                self.expr(cond, Ctx::value())?;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                if let Some(c) = cond {
                    self.expr(c, Ctx::value())?;
                }
                if let Some(st) = step {
                    self.expr(st, Ctx::value())?;
                }
                self.stmt(body)?;
                self.scopes.pop();
            }
            StmtKind::Switch { scrutinee, arms } => {
                self.expr(scrutinee, Ctx::value())?;
                self.scopes.push(HashMap::new());
                for arm in arms {
                    if let Some(v) = &arm.value {
                        self.expr(v, Ctx::value())?;
                    }
                    for st in &arm.stmts {
                        self.stmt(st)?;
                    }
                }
                self.scopes.pop();
            }
            StmtKind::Return(Some(e)) => {
                self.expr(e, Ctx::value())?;
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
            StmtKind::Block(b) => self.block(b)?,
        }
        Ok(())
    }

    fn local_decl(
        &mut self,
        d: &ddm_cppfront::ast::LocalDecl,
        span: Span,
    ) -> Result<(), TypeError> {
        let ty = self.resolve_decl_type(&d.ty);
        match &d.init {
            LocalInit::Default => {}
            LocalInit::Expr(e) => {
                self.expr(e, Ctx::value())?;
            }
            LocalInit::Ctor(args) => {
                for a in args {
                    self.expr(a, Ctx::value())?;
                }
            }
        }
        // Instantiation events for by-value class locals.
        if let Some(class_name) = crate::model::by_value_class(&ty) {
            if let Some(class) = self.program.class_by_name(class_name) {
                let arity = match &d.init {
                    LocalInit::Ctor(args) => args.len(),
                    _ => 0,
                };
                let ctor = resolve_ctor(self.program, class, arity);
                self.visitor.instantiation(&InstantiationEvent {
                    class,
                    ctor,
                    kind: InstantiationKind::Local,
                    span,
                });
            }
        }
        self.declare(&d.name, ty);
        Ok(())
    }

    /// Normalizes enum-named types to `int` in declared types (the model's
    /// stored types are already normalized; local declarations come from
    /// the raw AST).
    fn resolve_decl_type(&self, ty: &Type) -> Type {
        let mut out = ty.clone();
        fn fix(p: &Program, t: &mut Type) {
            match &mut t.kind {
                TypeKind::Named(n) if p.is_enum_type(n) => t.kind = TypeKind::Int,
                TypeKind::Pointer(i) | TypeKind::Reference(i) => fix(p, i),
                TypeKind::Array(i, _) => fix(p, i),
                TypeKind::Function(ft) => {
                    fix(p, &mut ft.ret);
                    for q in &mut ft.params {
                        fix(p, q);
                    }
                }
                TypeKind::MemberPointer { pointee, .. } => fix(p, pointee),
                _ => {}
            }
        }
        fix(self.program, &mut out);
        out
    }

    /// Walks `e`, emitting events, and returns its static type.
    fn expr(&mut self, e: &Expr, ctx: Ctx) -> Result<Type, TypeError> {
        let span = e.span.rebase(self.base);
        match &e.kind {
            ExprKind::IntLit(_) => Ok(Type::int()),
            ExprKind::FloatLit(_) => Ok(Type::plain(TypeKind::Double)),
            ExprKind::BoolLit(_) => Ok(Type::plain(TypeKind::Bool)),
            ExprKind::CharLit(_) => Ok(Type::plain(TypeKind::Char)),
            ExprKind::StrLit(_) => Ok(Type::plain(TypeKind::Char).pointer_to()),
            ExprKind::Null => Ok(Type::void().pointer_to()),
            ExprKind::This => match self.this_class {
                Some(c) => Ok(
                    Type::plain(TypeKind::Named(self.program.class(c).name.clone())).pointer_to(),
                ),
                None => Err(TypeError::new(TypeErrorKind::ThisOutsideMethod, span)),
            },
            ExprKind::Ident(name) => self.ident(name, span, ctx),
            ExprKind::Member {
                base,
                arrow,
                qualifier,
                name,
            } => self.member(base, *arrow, qualifier.as_deref(), name, span, ctx),
            ExprKind::Index { base, index } => {
                let base_ty = self.expr(base, Ctx::value())?;
                self.expr(index, Ctx::value())?;
                let stripped = base_ty.strip_reference();
                match &stripped.kind {
                    TypeKind::Array(elem, _) => Ok((**elem).clone()),
                    TypeKind::Pointer(p) => Ok((**p).clone()),
                    _ => Err(TypeError::new(
                        TypeErrorKind::NotAPointer(base_ty.to_string()),
                        span,
                    )),
                }
            }
            ExprKind::Call { callee, args } => self.call(callee, args, span),
            ExprKind::Unary { op, expr } => self.unary(*op, expr, span, ctx),
            ExprKind::Postfix { expr, .. } => self.expr(expr, Ctx::value()),
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr(lhs, Ctx::value())?;
                let rt = self.expr(rhs, Ctx::value())?;
                Ok(binary_result(*op, &lt, &rt))
            }
            ExprKind::Assign { op, lhs, rhs } => {
                // `lhs = rhs`: the direct target of a simple assignment is a
                // pure write; compound assignments read their target.
                let target_ctx = Ctx {
                    store_target: *op == AssignOp::Assign,
                    ..Ctx::value()
                };
                let lt = self.expr(lhs, target_ctx)?;
                self.expr(rhs, Ctx::value())?;
                Ok(lt)
            }
            ExprKind::Cond { cond, then, els } => {
                self.expr(cond, Ctx::value())?;
                let tt = self.expr(then, Ctx::value())?;
                self.expr(els, Ctx::value())?;
                Ok(tt)
            }
            ExprKind::Cast { style, ty, expr } => {
                let operand = self.expr(expr, Ctx::value())?;
                let target = self.resolve_decl_type(ty);
                self.visitor.cast(&CastEvent {
                    style: *style,
                    target: target.clone(),
                    operand,
                    span,
                });
                Ok(target)
            }
            ExprKind::New {
                ty,
                args,
                array_len,
            } => {
                for a in args {
                    self.expr(a, Ctx::value())?;
                }
                if let Some(len) = array_len {
                    self.expr(len, Ctx::value())?;
                }
                let ty = self.resolve_decl_type(ty);
                if let Some(class_name) = crate::model::by_value_class(&ty) {
                    if let Some(class) = self.program.class_by_name(class_name) {
                        let kind = if array_len.is_some() {
                            InstantiationKind::HeapArray
                        } else {
                            InstantiationKind::Heap
                        };
                        let arity = if array_len.is_some() { 0 } else { args.len() };
                        let ctor = resolve_ctor(self.program, class, arity);
                        self.visitor.instantiation(&InstantiationEvent {
                            class,
                            ctor,
                            kind,
                            span,
                        });
                    }
                }
                Ok(ty.pointer_to())
            }
            ExprKind::Delete { expr, is_array } => {
                let ty = self.expr(
                    expr,
                    Ctx {
                        delete_operand: true,
                        ..Ctx::value()
                    },
                )?;
                let pointee_class = ty
                    .pointee()
                    .and_then(|p| p.named())
                    .and_then(|n| self.program.class_by_name(n));
                self.visitor.delete_of(&DeleteEvent {
                    pointee_class,
                    is_array: *is_array,
                    span,
                });
                Ok(Type::void())
            }
            ExprKind::SizeofType(ty) => {
                let ty = self.resolve_decl_type(ty);
                self.visitor.sizeof_of(&ty, span);
                Ok(Type::int())
            }
            ExprKind::SizeofExpr(inner) => {
                // The operand of sizeof is NOT evaluated in C++, so member
                // accesses inside it are not livening accesses; only the
                // resulting type matters.
                let ty = self.type_only(inner)?;
                self.visitor.sizeof_of(&ty, span);
                Ok(Type::int())
            }
            ExprKind::PtrToMember { class, member } => {
                let class_id = self.program.class_by_name(class).ok_or_else(|| {
                    TypeError::new(TypeErrorKind::UnknownQualifier(class.clone()), span)
                })?;
                match self.lookup.member(class_id, member) {
                    Ok(Found::Data(m)) => {
                        self.visitor.ptr_to_member(m, span);
                        let mty = self.program.class(m.class).members[m.index as usize]
                            .ty
                            .clone();
                        Ok(Type::plain(TypeKind::MemberPointer {
                            class: class.clone(),
                            pointee: Box::new(mty),
                        }))
                    }
                    Ok(Found::Method { func, .. }) => {
                        // Pointer to member function: the function's address
                        // is taken.
                        self.visitor.address_of_function(func, span);
                        Ok(Type::void().pointer_to())
                    }
                    Err(err) => Err(TypeError::new(err.into(), span)),
                }
            }
            ExprKind::PtrMemApply { base, arrow, ptr } => {
                let base_ty = self.expr(base, Ctx::value())?;
                let ptr_ty = self.expr(ptr, Ctx::value())?;
                let _ = self.class_of_base(&base_ty, *arrow, span)?;
                match &ptr_ty.kind {
                    TypeKind::MemberPointer { pointee, .. } => Ok((**pointee).clone()),
                    _ => Ok(Type::int()),
                }
            }
            ExprKind::Comma { lhs, rhs } => {
                self.expr(lhs, Ctx::value())?;
                self.expr(rhs, Ctx::value())
            }
        }
    }

    /// Type of an unevaluated expression (`sizeof` operand): no events.
    fn type_only(&mut self, e: &Expr) -> Result<Type, TypeError> {
        struct Silent;
        impl EventVisitor for Silent {}
        let mut silent = Silent;
        let mut sub = Walker {
            program: self.program,
            lookup: self.lookup,
            visitor: &mut silent,
            scopes: std::mem::take(&mut self.scopes),
            this_class: self.this_class,
            base: self.base,
        };
        let result = sub.expr(e, Ctx::value());
        self.scopes = std::mem::take(&mut sub.scopes);
        result
    }

    fn ident(&mut self, name: &str, span: Span, ctx: Ctx) -> Result<Type, TypeError> {
        // Resolution order: locals/params, enclosing-class members,
        // globals, enumerators, functions, builtins.
        if let Some(ty) = self.lookup_local(name) {
            return Ok(ty.clone());
        }
        if let Some(this_class) = self.this_class {
            if let Ok(found) = self.lookup.member(this_class, name) {
                match found {
                    Found::Data(m) => {
                        let member = &self.program.class(m.class).members[m.index as usize];
                        let ty = member.ty.clone();
                        self.visitor.member_access(&MemberAccessEvent {
                            member: m,
                            object_class: this_class,
                            qualified: false,
                            is_store_target: ctx.store_target,
                            is_delete_operand: ctx.delete_operand,
                            address_taken: ctx.address_of,
                            span,
                        });
                        return Ok(ty);
                    }
                    Found::Method { func, .. } => {
                        if !ctx.callee {
                            self.visitor.address_of_function(func, span);
                        }
                        return Ok(fn_type_of(self.program, func));
                    }
                }
            }
        }
        if let Some(g) = self.program.globals().iter().find(|g| g.name == name) {
            return Ok(g.ty.clone());
        }
        if self.program.enum_const(name).is_some() {
            return Ok(Type::int());
        }
        if let Some(f) = self.program.free_function(name) {
            if !ctx.callee {
                self.visitor.address_of_function(f, span);
            }
            return Ok(fn_type_of(self.program, f));
        }
        if Builtin::from_name(name).is_some() {
            return Ok(Type::void().pointer_to());
        }
        Err(TypeError::new(
            TypeErrorKind::UnknownIdent(name.to_string()),
            span,
        ))
    }

    /// The class a member access goes through, given the base expression's
    /// type and the access operator.
    fn class_of_base(&self, base_ty: &Type, arrow: bool, span: Span) -> Result<ClassId, TypeError> {
        let stripped = base_ty.strip_reference();
        let class_ty = if arrow {
            stripped.pointee().ok_or_else(|| {
                TypeError::new(TypeErrorKind::NotAPointer(base_ty.to_string()), span)
            })?
        } else {
            stripped
        };
        let name = class_ty
            .named()
            .ok_or_else(|| TypeError::new(TypeErrorKind::NotAClass(class_ty.to_string()), span))?;
        self.program
            .class_by_name(name)
            .ok_or_else(|| TypeError::new(TypeErrorKind::NotAClass(name.to_string()), span))
    }

    fn member(
        &mut self,
        base: &Expr,
        arrow: bool,
        qualifier: Option<&str>,
        name: &str,
        span: Span,
        ctx: Ctx,
    ) -> Result<Type, TypeError> {
        let base_ty = self.expr(base, Ctx::value())?;
        let base_class = self.class_of_base(&base_ty, arrow, span)?;
        // Qualified access `e.Y::m` looks up in Y (which must be a base of,
        // or equal to, the static class).
        let lookup_class = match qualifier {
            Some(q) => self.program.class_by_name(q).ok_or_else(|| {
                TypeError::new(TypeErrorKind::UnknownQualifier(q.to_string()), span)
            })?,
            None => base_class,
        };
        match self
            .lookup
            .member(lookup_class, name)
            .map_err(|e| TypeError::new(e.into(), span))?
        {
            Found::Data(m) => {
                let ty = self.program.class(m.class).members[m.index as usize]
                    .ty
                    .clone();
                self.visitor.member_access(&MemberAccessEvent {
                    member: m,
                    object_class: base_class,
                    qualified: qualifier.is_some(),
                    is_store_target: ctx.store_target,
                    is_delete_operand: ctx.delete_operand,
                    address_taken: ctx.address_of,
                    span,
                });
                Ok(ty)
            }
            Found::Method { func, .. } => {
                if !ctx.callee {
                    self.visitor.address_of_function(func, span);
                }
                Ok(fn_type_of(self.program, func))
            }
        }
    }

    fn unary(
        &mut self,
        op: UnaryOp,
        operand: &Expr,
        span: Span,
        _ctx: Ctx,
    ) -> Result<Type, TypeError> {
        match op {
            UnaryOp::AddrOf => {
                let inner_ctx = Ctx {
                    address_of: true,
                    ..Ctx::value()
                };
                let ty = self.expr(operand, inner_ctx)?;
                Ok(ty.strip_reference().clone().pointer_to())
            }
            UnaryOp::Deref => {
                let ty = self.expr(operand, Ctx::value())?;
                match ty.strip_reference().pointee() {
                    Some(p) => Ok(p.clone()),
                    None => Err(TypeError::new(
                        TypeErrorKind::NotAPointer(ty.to_string()),
                        span,
                    )),
                }
            }
            UnaryOp::Not => {
                self.expr(operand, Ctx::value())?;
                Ok(Type::plain(TypeKind::Bool))
            }
            UnaryOp::Neg | UnaryOp::Plus | UnaryOp::BitNot | UnaryOp::PreInc | UnaryOp::PreDec => {
                self.expr(operand, Ctx::value())
            }
        }
    }

    fn call(&mut self, callee: &Expr, args: &[Expr], span: Span) -> Result<Type, TypeError> {
        for a in args {
            // `free(e.m)` exempts a direct member-access argument.
            let is_free_call = matches!(
                &callee.kind,
                ExprKind::Ident(n) if Builtin::from_name(n) == Some(Builtin::Free)
            );
            let ctx = Ctx {
                delete_operand: is_free_call,
                ..Ctx::value()
            };
            self.expr(a, ctx)?;
        }
        match &callee.kind {
            ExprKind::Ident(name) => {
                if let Some(b) = Builtin::from_name(name) {
                    // Builtins are shadowed by any user definition.
                    if self.program.free_function(name).is_none()
                        && self.lookup_local(name).is_none()
                    {
                        self.visitor.call(&CallEvent {
                            target: CallTarget::Builtin(b),
                            arg_count: args.len(),
                            span,
                        });
                        return Ok(b.return_type());
                    }
                }
                // Local function pointer?
                if let Some(ty) = self.lookup_local(name).cloned() {
                    return self.indirect_call(&ty, args.len(), span);
                }
                // Implicit `this->method(...)`.
                if let Some(this_class) = self.this_class {
                    if let Ok(Found::Method { func, .. }) = self.lookup.member(this_class, name) {
                        let fi = self.program.function(func);
                        self.visitor.call(&CallEvent {
                            target: CallTarget::Method {
                                func,
                                receiver_class: this_class,
                                is_virtual_dispatch: fi.is_virtual,
                                receiver_var: None,
                            },
                            arg_count: args.len(),
                            span,
                        });
                        return Ok(fi.ret.clone());
                    }
                }
                if let Some(f) = self.program.free_function(name) {
                    self.visitor.call(&CallEvent {
                        target: CallTarget::Free(f),
                        arg_count: args.len(),
                        span,
                    });
                    return Ok(self.program.function(f).ret.clone());
                }
                // Global function pointer?
                if let Some(g) = self.program.globals().iter().find(|g| &g.name == name) {
                    let ty = g.ty.clone();
                    return self.indirect_call(&ty, args.len(), span);
                }
                Err(TypeError::new(
                    TypeErrorKind::UnknownIdent(name.clone()),
                    span,
                ))
            }
            ExprKind::Member {
                base,
                arrow,
                qualifier,
                name,
            } => {
                let base_ty = self.expr(base, Ctx::value())?;
                let base_class = self.class_of_base(&base_ty, *arrow, span)?;
                let lookup_class = match qualifier.as_deref() {
                    Some(q) => self.program.class_by_name(q).ok_or_else(|| {
                        TypeError::new(TypeErrorKind::UnknownQualifier(q.to_string()), span)
                    })?,
                    None => base_class,
                };
                match self
                    .lookup
                    .member(lookup_class, name)
                    .map_err(|e| TypeError::new(e.into(), span))?
                {
                    Found::Method { func, .. } => {
                        let fi = self.program.function(func);
                        // Dynamic dispatch applies to unqualified calls of
                        // virtual methods; `e.f()` on a by-value object has
                        // a known dynamic type, but the analyses treat it
                        // like dispatch for conservatism parity with the
                        // paper's call-graph construction when the receiver
                        // is a pointer/reference.
                        let via_indirection =
                            *arrow || matches!(base_ty.kind, TypeKind::Reference(_));
                        let is_virtual_dispatch =
                            fi.is_virtual && qualifier.is_none() && via_indirection;
                        let receiver_var = match &base.kind {
                            ExprKind::Ident(n) if self.lookup_local(n).is_some() => Some(n.clone()),
                            _ => None,
                        };
                        self.visitor.call(&CallEvent {
                            target: CallTarget::Method {
                                func,
                                receiver_class: base_class,
                                is_virtual_dispatch,
                                receiver_var,
                            },
                            arg_count: args.len(),
                            span,
                        });
                        Ok(fi.ret.clone())
                    }
                    Found::Data(m) => {
                        // Calling a data member: must be a function pointer.
                        let mty = self.program.class(m.class).members[m.index as usize]
                            .ty
                            .clone();
                        self.visitor.member_access(&MemberAccessEvent {
                            member: m,
                            object_class: base_class,
                            qualified: qualifier.is_some(),
                            is_store_target: false,
                            is_delete_operand: false,
                            address_taken: false,
                            span,
                        });
                        self.indirect_call(&mty, args.len(), span)
                    }
                }
            }
            _ => {
                let ty = self.expr(callee, Ctx::value())?;
                self.indirect_call(&ty, args.len(), span)
            }
        }
    }

    fn indirect_call(
        &mut self,
        ty: &Type,
        arg_count: usize,
        span: Span,
    ) -> Result<Type, TypeError> {
        let stripped = ty.strip_reference();
        let fn_ty: Option<&FnType> = match &stripped.kind {
            TypeKind::Function(ft) => Some(ft),
            TypeKind::Pointer(p) => match &p.kind {
                TypeKind::Function(ft) => Some(ft),
                _ => None,
            },
            _ => None,
        };
        match fn_ty {
            Some(ft) => {
                self.visitor.call(&CallEvent {
                    target: CallTarget::FunctionPointer,
                    arg_count,
                    span,
                });
                Ok(ft.ret.clone())
            }
            None => Err(TypeError::new(
                TypeErrorKind::NotCallable(ty.to_string()),
                span,
            )),
        }
    }
}

/// The function-pointer type of a named function.
fn fn_type_of(program: &Program, func: FuncId) -> Type {
    let f = program.function(func);
    Type::plain(TypeKind::Function(Box::new(FnType {
        ret: f.ret.clone(),
        params: f.params.iter().map(|p| p.ty.clone()).collect(),
    })))
    .pointer_to()
}

/// Result type of a binary operation under the usual arithmetic
/// conversions (simplified: comparisons yield `bool`, mixed float/int
/// yields the float, pointer arithmetic yields the pointer).
fn binary_result(op: ddm_cppfront::ast::BinaryOp, lt: &Type, rt: &Type) -> Type {
    use ddm_cppfront::ast::BinaryOp as B;
    match op {
        B::Lt | B::Gt | B::Le | B::Ge | B::Eq | B::Ne | B::LogAnd | B::LogOr => {
            Type::plain(TypeKind::Bool)
        }
        _ => {
            let l = lt.strip_reference();
            let r = rt.strip_reference();
            if matches!(l.kind, TypeKind::Pointer(_) | TypeKind::Array(..)) {
                return l.clone();
            }
            if matches!(r.kind, TypeKind::Pointer(_) | TypeKind::Array(..)) {
                return r.clone();
            }
            if matches!(l.kind, TypeKind::Double) || matches!(r.kind, TypeKind::Double) {
                return Type::plain(TypeKind::Double);
            }
            if matches!(l.kind, TypeKind::Float) || matches!(r.kind, TypeKind::Float) {
                return Type::plain(TypeKind::Float);
            }
            if matches!(l.kind, TypeKind::Long) || matches!(r.kind, TypeKind::Long) {
                return Type::plain(TypeKind::Long);
            }
            Type::int()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    /// Collects every event for assertions.
    #[derive(Default)]
    struct Collect {
        accesses: Vec<MemberAccessEvent>,
        calls: Vec<CallEvent>,
        casts: Vec<CastEvent>,
        instantiations: Vec<InstantiationEvent>,
        deletes: Vec<DeleteEvent>,
        ptr_members: Vec<MemberRef>,
        fn_addrs: Vec<FuncId>,
        sizeofs: Vec<Type>,
    }

    impl EventVisitor for Collect {
        fn member_access(&mut self, ev: &MemberAccessEvent) {
            self.accesses.push(ev.clone());
        }
        fn ptr_to_member(&mut self, m: MemberRef, _s: Span) {
            self.ptr_members.push(m);
        }
        fn call(&mut self, ev: &CallEvent) {
            self.calls.push(ev.clone());
        }
        fn address_of_function(&mut self, f: FuncId, _s: Span) {
            self.fn_addrs.push(f);
        }
        fn cast(&mut self, ev: &CastEvent) {
            self.casts.push(ev.clone());
        }
        fn sizeof_of(&mut self, t: &Type, _s: Span) {
            self.sizeofs.push(t.clone());
        }
        fn instantiation(&mut self, ev: &InstantiationEvent) {
            self.instantiations.push(ev.clone());
        }
        fn delete_of(&mut self, ev: &DeleteEvent) {
            self.deletes.push(ev.clone());
        }
    }

    fn walk_main(src: &str) -> (Program, Collect) {
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        let lk = MemberLookup::new(&p);
        let mut c = Collect::default();
        let main = p.main_function().expect("main");
        walk_function(&p, &lk, main, &mut c).expect("walk");
        (p, c)
    }

    #[test]
    fn read_access_is_reported() {
        let (p, c) = walk_main("class A { public: int x; }; int main() { A a; return a.x; }");
        assert_eq!(c.accesses.len(), 1);
        let a = p.class_by_name("A").unwrap();
        assert_eq!(c.accesses[0].member, MemberRef::new(a, 0));
        assert!(!c.accesses[0].is_store_target);
    }

    #[test]
    fn simple_store_is_flagged_as_store_target() {
        let (_, c) =
            walk_main("class A { public: int x; }; int main() { A a; a.x = 5; return 0; }");
        assert_eq!(c.accesses.len(), 1);
        assert!(c.accesses[0].is_store_target);
    }

    #[test]
    fn compound_assignment_reads_target() {
        let (_, c) =
            walk_main("class A { public: int x; }; int main() { A a; a.x += 5; return 0; }");
        assert_eq!(c.accesses.len(), 1);
        assert!(!c.accesses[0].is_store_target, "`+=` reads its target");
    }

    #[test]
    fn nested_member_path_reports_both_members() {
        let (p, c) = walk_main(
            "class N { public: int v; }; class M { public: N n; };\n\
             int main() { M m; return m.n.v; }",
        );
        assert_eq!(c.accesses.len(), 2);
        let n = p.class_by_name("N").unwrap();
        let m = p.class_by_name("M").unwrap();
        assert!(c.accesses.iter().any(|a| a.member.class == m));
        assert!(c.accesses.iter().any(|a| a.member.class == n));
    }

    #[test]
    fn store_through_path_reads_intermediate_writes_final() {
        let (p, c) = walk_main(
            "class N { public: int v; }; class M { public: N n; };\n\
             int main() { M m; m.n.v = 3; return 0; }",
        );
        let n = p.class_by_name("N").unwrap();
        let m = p.class_by_name("M").unwrap();
        let v_acc = c.accesses.iter().find(|a| a.member.class == n).unwrap();
        assert!(v_acc.is_store_target);
        let n_acc = c.accesses.iter().find(|a| a.member.class == m).unwrap();
        assert!(
            !n_acc.is_store_target,
            "path member is an access, not a store"
        );
    }

    #[test]
    fn address_of_member_is_flagged() {
        let (_, c) =
            walk_main("class A { public: int x; }; int main() { A a; int* p = &a.x; return *p; }");
        assert_eq!(c.accesses.len(), 1);
        assert!(c.accesses[0].address_taken);
    }

    #[test]
    fn implicit_this_member_read_in_method() {
        let tu = parse(
            "class A { public: int x; int f() { return x; } };\n\
             int main() { A a; return a.f(); }",
        )
        .unwrap();
        let p = Program::build(&tu).unwrap();
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let f = p.direct_method(a, "f").unwrap();
        let mut c = Collect::default();
        walk_function(&p, &lk, f, &mut c).unwrap();
        assert_eq!(c.accesses.len(), 1);
        assert_eq!(c.accesses[0].member, MemberRef::new(a, 0));
    }

    #[test]
    fn ctor_init_list_is_write_and_walks_args() {
        let tu = parse(
            "class A { public: int x; int y; A(int v) : x(v), y(0) { } };\n\
             int main() { A a(1); return 0; }",
        )
        .unwrap();
        let p = Program::build(&tu).unwrap();
        let lk = MemberLookup::new(&p);
        let a = p.class_by_name("A").unwrap();
        let ctor = p.constructors(a)[0];
        let mut c = Collect::default();
        walk_function(&p, &lk, ctor, &mut c).unwrap();
        // Member initializers are writes; no member-access events fire for
        // the targets, and `v`/`0` are not members.
        assert!(c.accesses.is_empty());
    }

    #[test]
    fn base_ctor_init_emits_call() {
        let tu = parse(
            "class A { public: int x; A(int v) { x = v; } };\n\
             class B : public A { public: B() : A(3) { } };\n\
             int main() { B b; return 0; }",
        )
        .unwrap();
        let p = Program::build(&tu).unwrap();
        let lk = MemberLookup::new(&p);
        let b = p.class_by_name("B").unwrap();
        let ctor = p.constructors(b)[0];
        let mut c = Collect::default();
        walk_function(&p, &lk, ctor, &mut c).unwrap();
        assert_eq!(c.calls.len(), 1);
        assert!(matches!(
            c.calls[0].target,
            CallTarget::Method {
                is_virtual_dispatch: false,
                ..
            }
        ));
    }

    #[test]
    fn virtual_call_through_pointer_is_dispatch() {
        let (p, c) = walk_main(
            "class A { public: virtual int f() { return 0; } };\n\
             class B : public A { public: virtual int f() { return 1; } };\n\
             int main() { B b; A* ap = &b; return ap->f(); }",
        );
        let call = c
            .calls
            .iter()
            .find(|ev| matches!(ev.target, CallTarget::Method { .. }))
            .unwrap();
        let CallTarget::Method {
            receiver_class,
            is_virtual_dispatch,
            ..
        } = &call.target
        else {
            unreachable!()
        };
        assert_eq!(*receiver_class, p.class_by_name("A").unwrap());
        assert!(*is_virtual_dispatch);
    }

    #[test]
    fn qualified_call_suppresses_dispatch() {
        let (_, c) = walk_main(
            "class A { public: virtual int f() { return 0; } };\n\
             class B : public A { public: virtual int f() { return 1; } };\n\
             int main() { B b; B* p = &b; return p->A::f(); }",
        );
        let call = c
            .calls
            .iter()
            .find(|ev| matches!(ev.target, CallTarget::Method { .. }))
            .unwrap();
        let CallTarget::Method {
            is_virtual_dispatch,
            ..
        } = &call.target
        else {
            unreachable!()
        };
        assert!(!*is_virtual_dispatch);
    }

    #[test]
    fn builtin_call_and_free_exemption() {
        let (_, c) = walk_main(
            "class A { public: int* buf; };\n\
             int main() { A a; print_int(3); free(a.buf); return 0; }",
        );
        assert_eq!(c.calls.len(), 2);
        assert!(matches!(
            c.calls[0].target,
            CallTarget::Builtin(Builtin::PrintInt)
        ));
        assert!(matches!(
            c.calls[1].target,
            CallTarget::Builtin(Builtin::Free)
        ));
        assert_eq!(c.accesses.len(), 1);
        assert!(c.accesses[0].is_delete_operand);
    }

    #[test]
    fn delete_member_operand_is_exempt() {
        let (_, c) = walk_main(
            "class Node { public: Node* next; };\n\
             int main() { Node n; delete n.next; return 0; }",
        );
        assert_eq!(c.accesses.len(), 1);
        assert!(c.accesses[0].is_delete_operand);
        assert_eq!(c.deletes.len(), 1);
        assert!(c.deletes[0].pointee_class.is_some());
    }

    #[test]
    fn new_and_local_instantiations_reported() {
        let (p, c) = walk_main(
            "class A { public: int x; A(int v) { x = v; } };\n\
             int main() { A a(1); A* p = new A(2); A* arr = new A[3]; delete p; delete[] arr; return 0; }",
        );
        let a = p.class_by_name("A").unwrap();
        assert_eq!(c.instantiations.len(), 3);
        assert_eq!(c.instantiations[0].kind, InstantiationKind::Local);
        assert_eq!(c.instantiations[1].kind, InstantiationKind::Heap);
        assert_eq!(c.instantiations[2].kind, InstantiationKind::HeapArray);
        assert!(c.instantiations.iter().all(|i| i.class == a));
        assert!(c.instantiations[0].ctor.is_some());
    }

    #[test]
    fn casts_report_operand_type() {
        let (_, c) = walk_main(
            "class A { public: int x; }; class B : public A { public: int y; };\n\
             int main() { A* a = new B(); B* b = (B*)a; return 0; }",
        );
        assert_eq!(c.casts.len(), 1);
        assert_eq!(c.casts[0].operand.to_string(), "A*");
        assert_eq!(c.casts[0].target.to_string(), "B*");
    }

    #[test]
    fn sizeof_reports_type_and_does_not_liven_operand() {
        let (_, c) = walk_main(
            "class A { public: int x; }; int main() { A a; int s = sizeof(a.x); return s + sizeof(A); }",
        );
        assert_eq!(c.sizeofs.len(), 2);
        assert!(
            c.accesses.is_empty(),
            "sizeof operands are unevaluated; no access events"
        );
    }

    #[test]
    fn function_address_taken_detected() {
        let (p, c) = walk_main(
            "int add(int a, int b) { return a + b; }\n\
             int main() { int (*fp)(int, int) = &add; return fp(1, 2); }",
        );
        let add = p.free_function("add").unwrap();
        assert_eq!(c.fn_addrs, vec![add]);
        assert!(c
            .calls
            .iter()
            .any(|ev| matches!(ev.target, CallTarget::FunctionPointer)));
    }

    #[test]
    fn bare_function_name_without_call_is_address_taken() {
        let (p, c) = walk_main(
            "int f() { return 1; }\n\
             int main() { int (*fp)() = f; return fp(); }",
        );
        assert_eq!(c.fn_addrs, vec![p.free_function("f").unwrap()]);
    }

    #[test]
    fn called_function_is_not_address_taken() {
        let (_, c) = walk_main("int f() { return 1; } int main() { return f(); }");
        assert!(c.fn_addrs.is_empty());
        assert!(matches!(c.calls[0].target, CallTarget::Free(_)));
    }

    #[test]
    fn ptr_to_member_event() {
        let (p, c) = walk_main(
            "class A { public: int m; };\n\
             int main() { int A::* pm = &A::m; A a; return a.*pm; }",
        );
        let a = p.class_by_name("A").unwrap();
        assert_eq!(c.ptr_members, vec![MemberRef::new(a, 0)]);
    }

    #[test]
    fn qualified_member_access_resolves_in_qualifier() {
        let (p, c) = walk_main(
            "class A { public: int m; }; class B : public A { public: int m; };\n\
             int main() { B b; return b.A::m; }",
        );
        let a = p.class_by_name("A").unwrap();
        assert_eq!(c.accesses.len(), 1);
        assert_eq!(c.accesses[0].member, MemberRef::new(a, 0));
        assert!(c.accesses[0].qualified);
    }

    #[test]
    fn global_initializers_walk() {
        let tu = parse(
            "class A { public: int x; };\n\
             A ga;\n\
             int gi = 5;\n\
             int main() { return gi; }",
        )
        .unwrap();
        let p = Program::build(&tu).unwrap();
        let lk = MemberLookup::new(&p);
        let mut c = Collect::default();
        walk_globals(&p, &lk, &mut c).unwrap();
        assert_eq!(c.instantiations.len(), 1);
        assert_eq!(c.instantiations[0].kind, InstantiationKind::Global);
    }

    #[test]
    fn type_errors_are_reported() {
        let tu = parse("int main() { return nope; }").unwrap();
        let p = Program::build(&tu).unwrap();
        let lk = MemberLookup::new(&p);
        struct S;
        impl EventVisitor for S {}
        let err = walk_function(&p, &lk, p.main_function().unwrap(), &mut S).unwrap_err();
        assert!(matches!(err.kind(), TypeErrorKind::UnknownIdent(_)));

        let tu = parse("class A { public: int x; }; int main() { int y = 0; return y.x; }");
        let tu = tu.unwrap();
        let p = Program::build(&tu).unwrap();
        let lk = MemberLookup::new(&p);
        let err = walk_function(&p, &lk, p.main_function().unwrap(), &mut S).unwrap_err();
        assert!(matches!(err.kind(), TypeErrorKind::NotAClass(_)));
    }
}
