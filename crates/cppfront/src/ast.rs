//! Abstract syntax tree for the C++ subset.
//!
//! A [`TranslationUnit`] lists its classes, enums, global variables and
//! free functions as [`Item`]s: one shared parse of a top-level
//! declaration plus the byte offset where this occurrence starts. Every
//! node carries a [`Span`] measured from the start of its item, so later
//! phases can report locations after rebasing with [`Item::at`].

use crate::span::Span;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A parsed source file: the root of the AST.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// All class, struct and union definitions, in source order.
    pub classes: Vec<Item<ClassDecl>>,
    /// All enum definitions, in source order.
    pub enums: Vec<Item<EnumDecl>>,
    /// All global variable definitions, in source order.
    pub globals: Vec<Item<GlobalDecl>>,
    /// All free functions (including `main`), in source order.
    pub functions: Vec<Item<FunctionDecl>>,
}

/// One top-level declaration of a [`TranslationUnit`].
///
/// The declaration is shared: every translation unit of a run that
/// repeats its exact text (under the same set of type names) holds the
/// same `Arc` (see [`DeclMemo`](crate::DeclMemo)). Its spans are
/// therefore measured from the item's first byte, and `base` says where
/// that byte sits in this occurrence's source. Mutable access copies a
/// shared declaration first.
#[derive(Debug, Clone, PartialEq)]
pub struct Item<T> {
    /// Byte offset of the item's first token in its source.
    pub base: u32,
    /// The parsed declaration.
    pub decl: Arc<T>,
}

impl<T> Item<T> {
    /// `span`, measured from this item's start, as a byte range of the
    /// whole source.
    pub fn at(&self, span: Span) -> Span {
        span.rebase(self.base)
    }
}

impl<T> Deref for Item<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.decl
    }
}

impl<T: Clone> DerefMut for Item<T> {
    fn deref_mut(&mut self) -> &mut T {
        Arc::make_mut(&mut self.decl)
    }
}

impl TranslationUnit {
    /// Finds a class definition by name.
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes
            .iter()
            .find(|c| c.name == name)
            .map(|c| &*c.decl)
    }

    /// Finds a free function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDecl> {
        self.functions
            .iter()
            .find(|f| f.name == name)
            .map(|f| &*f.decl)
    }

    /// Total number of data members declared across all classes.
    pub fn data_member_count(&self) -> usize {
        self.classes.iter().map(|c| c.data_members.len()).sum()
    }
}

/// Whether a user-defined type was introduced with `class`, `struct` or `union`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    /// `class C { ... };`
    Class,
    /// `struct S { ... };`
    Struct,
    /// `union U { ... };`
    Union,
}

impl fmt::Display for ClassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClassKind::Class => "class",
            ClassKind::Struct => "struct",
            ClassKind::Union => "union",
        })
    }
}

/// C++ member access levels. Parsed and recorded but not enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// `public:`
    Public,
    /// `protected:`
    Protected,
    /// `private:`
    Private,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Access::Public => "public",
            Access::Protected => "protected",
            Access::Private => "private",
        })
    }
}

/// One base class in a class head, e.g. `public virtual A`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseSpecifier {
    /// Name of the base class.
    pub name: String,
    /// True for `virtual` inheritance.
    pub is_virtual: bool,
    /// Access of the inheritance edge.
    pub access: Access,
    /// Source location of the specifier.
    pub span: Span,
}

/// A class, struct or union definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// The type name.
    pub name: String,
    /// `class` / `struct` / `union`.
    pub kind: ClassKind,
    /// Direct bases, in declaration order (empty for unions).
    pub bases: Vec<BaseSpecifier>,
    /// Non-static data members, in declaration order.
    pub data_members: Vec<DataMemberDecl>,
    /// Member functions, constructors and the destructor.
    pub methods: Vec<FunctionDecl>,
    /// Source location of the whole definition.
    pub span: Span,
}

impl ClassDecl {
    /// Finds a data member declared directly in this class.
    pub fn data_member(&self, name: &str) -> Option<&DataMemberDecl> {
        self.data_members.iter().find(|m| m.name == name)
    }

    /// All constructors declared in this class.
    pub fn constructors(&self) -> impl Iterator<Item = &FunctionDecl> {
        self.methods
            .iter()
            .filter(|m| m.kind == FunctionKind::Constructor)
    }

    /// The destructor, if one is declared.
    pub fn destructor(&self) -> Option<&FunctionDecl> {
        self.methods
            .iter()
            .find(|m| m.kind == FunctionKind::Destructor)
    }
}

/// A non-static data member (the paper's "data member" / instance variable).
#[derive(Debug, Clone, PartialEq)]
pub struct DataMemberDecl {
    /// Member name.
    pub name: String,
    /// Declared type (may carry `volatile`, which the analysis treats specially).
    pub ty: Type,
    /// Access level in effect at the declaration.
    pub access: Access,
    /// Source location.
    pub span: Span,
}

/// An `enum Name { A, B = 3, C };` definition. Enumerators behave as `int`
/// constants; the enum name is usable as a type synonymous with `int`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDecl {
    /// The enum type name.
    pub name: String,
    /// `(enumerator name, value)` pairs in declaration order.
    pub variants: Vec<(String, i64)>,
    /// Source location.
    pub span: Span,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional initializer expression, shared between occurrences.
    pub init: Option<Arc<Expr>>,
    /// Source location.
    pub span: Span,
}

/// Distinguishes ordinary functions/methods from special members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// A free function.
    Free,
    /// An ordinary member function.
    Method,
    /// A constructor.
    Constructor,
    /// A destructor.
    Destructor,
}

/// One `member(expr...)` or `Base(expr...)` entry in a constructor
/// initializer list. Which of the two it is gets resolved semantically.
#[derive(Debug, Clone, PartialEq)]
pub struct CtorInit {
    /// Member or base-class name being initialized.
    pub name: String,
    /// Arguments (a single expression for members, ctor args for bases).
    pub args: Vec<Expr>,
    /// Source location.
    pub span: Span,
}

/// A function or method definition (bodies are always inline in the subset).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Function name (`ClassName` for constructors, `~ClassName` for destructors).
    pub name: String,
    /// What kind of function this is.
    pub kind: FunctionKind,
    /// Declared `virtual` (directly; inherited virtualness is resolved later).
    pub is_virtual: bool,
    /// Return type (`void` for constructors/destructors).
    pub ret: Type,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Constructor initializer list (empty unless a constructor), shared
    /// between occurrences.
    pub inits: Arc<[CtorInit]>,
    /// The body, shared between occurrences. `None` marks a
    /// pure-virtual declaration (`= 0`).
    pub body: Option<Arc<Block>>,
    /// Source location of the definition.
    pub span: Span,
    /// Where the spans of `params`, `inits` and `body` are measured
    /// from, as an offset from the item's start: 0, except for a method
    /// whose out-of-line definition elsewhere in the TU supplied them.
    /// Wraps (modulo 2^32) when that definition precedes its class.
    pub body_offset: u32,
    /// FNV-1a fingerprint of the source text `span` covers. It is taken
    /// when the declaration is parsed, so a shared declaration is
    /// fingerprinted once, and again over the merged span when an
    /// out-of-line definition is attached.
    pub fp: u64,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// An expression evaluated for effect, e.g. `x = 1;`.
    Expr(Expr),
    /// A local variable declaration, e.g. `A a(1, 2);` or `int i = 0;`.
    Decl(LocalDecl),
    /// `if (cond) then else els`.
    If {
        /// Condition.
        cond: Expr,
        /// Taken when the condition is non-zero.
        then: Box<Stmt>,
        /// Taken otherwise, if present.
        els: Option<Box<Stmt>>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Loop condition, tested after the body.
        cond: Expr,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Optional init statement (declaration or expression).
        init: Option<Box<Stmt>>,
        /// Optional condition (absent means "true").
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `switch (scrutinee) { case ...: ... default: ... }` with C++
    /// fallthrough semantics.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// The arms, in source order.
        arms: Vec<SwitchArm>,
    },
    /// `return;` or `return expr;`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested `{ ... }` block.
    Block(Block),
    /// An empty statement `;`.
    Empty,
}

/// One `case`/`default` arm of a [`StmtKind::Switch`]. Execution falls
/// through into the next arm unless a `break` intervenes, as in C++.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchArm {
    /// The matched constant; `None` for `default:`. Case labels must be
    /// integer constant expressions (literals or enumerators, resolved
    /// at parse/semantic time).
    pub value: Option<Expr>,
    /// Statements under this label (up to the next label).
    pub stmts: Vec<Stmt>,
    /// Source location of the label.
    pub span: Span,
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// How the variable is initialized.
    pub init: LocalInit,
}

/// The initializer form of a [`LocalDecl`].
#[derive(Debug, Clone, PartialEq)]
pub enum LocalInit {
    /// No initializer: default-construct class objects, leave scalars unset.
    Default,
    /// `= expr` copy initialization.
    Expr(Expr),
    /// `(args...)` direct (constructor) initialization.
    Ctor(Vec<Expr>),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Calls `f` on each direct child expression, left to right in
    /// source order.
    pub fn each_child(&self, mut f: impl FnMut(&Expr)) {
        match &self.kind {
            ExprKind::Member { base, .. } => f(base),
            ExprKind::Index { base, index } => {
                f(base);
                f(index);
            }
            ExprKind::Call { callee, args } => {
                f(callee);
                args.iter().for_each(f);
            }
            ExprKind::Unary { expr, .. }
            | ExprKind::Postfix { expr, .. }
            | ExprKind::SizeofExpr(expr)
            | ExprKind::Cast { expr, .. }
            | ExprKind::Delete { expr, .. } => f(expr),
            ExprKind::Binary { lhs, rhs, .. }
            | ExprKind::Comma { lhs, rhs }
            | ExprKind::Assign { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            ExprKind::Cond { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            ExprKind::New {
                args, array_len, ..
            } => {
                args.iter().for_each(&mut f);
                if let Some(len) = array_len {
                    f(len);
                }
            }
            ExprKind::PtrMemApply { base, ptr, .. } => {
                f(base);
                f(ptr);
            }
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Null
            | ExprKind::This
            | ExprKind::Ident(_)
            | ExprKind::SizeofType(_)
            | ExprKind::PtrToMember { .. } => {}
        }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// `true` / `false`.
    BoolLit(bool),
    /// Character literal.
    CharLit(char),
    /// String literal.
    StrLit(String),
    /// `nullptr` (also produced for literal `0` used in pointer contexts is
    /// *not* rewritten; only the keyword maps here).
    Null,
    /// `this` inside a member function.
    This,
    /// A name: local, parameter, global, enumerator, enclosing-class member,
    /// or function designator.
    Ident(String),
    /// Member access: `base.m`, `base->m`, `base.Qual::m`, `base->Qual::m`.
    Member {
        /// The object or pointer expression.
        base: Box<Expr>,
        /// True for `->`, false for `.`.
        arrow: bool,
        /// Present for qualified accesses `base.Qual::m`.
        qualifier: Option<String>,
        /// Member name.
        name: String,
    },
    /// Array indexing `base[index]`.
    Index {
        /// The array or pointer expression.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// A call. The callee is an [`ExprKind::Ident`] (free function, builtin,
    /// or implicit-`this` method) or an [`ExprKind::Member`] (method call),
    /// or any expression of function-pointer type.
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// Prefix unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Postfix `++` / `--`.
    Postfix {
        /// The operator.
        op: PostfixOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation (arithmetic, comparison, logical, bitwise).
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment, simple or compound.
    Assign {
        /// The operator (`=`, `+=`, ...).
        op: AssignOp,
        /// Assigned-to place.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// `cond ? then : els`.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Value when non-zero.
        then: Box<Expr>,
        /// Value when zero.
        els: Box<Expr>,
    },
    /// A cast: C-style `(T)e` or named `static_cast<T>(e)` etc.
    Cast {
        /// Which cast syntax was used.
        style: CastStyle,
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `new T(args...)` or `new T[len]`.
    New {
        /// Allocated type.
        ty: Type,
        /// Constructor arguments (scalar `new int(5)` uses one arg).
        args: Vec<Expr>,
        /// Present for array form `new T[len]`.
        array_len: Option<Box<Expr>>,
    },
    /// `delete e` or `delete[] e`.
    Delete {
        /// The pointer being deleted.
        expr: Box<Expr>,
        /// True for `delete[]`.
        is_array: bool,
    },
    /// `sizeof(T)`.
    SizeofType(Type),
    /// `sizeof expr` / `sizeof(expr)`.
    SizeofExpr(Box<Expr>),
    /// Pointer-to-member creation `&Class::member`.
    PtrToMember {
        /// The class whose member offset is taken.
        class: String,
        /// The member name.
        member: String,
    },
    /// Pointer-to-member application `base.*ptr` or `base->*ptr`.
    PtrMemApply {
        /// Object or pointer expression.
        base: Box<Expr>,
        /// True for `->*`.
        arrow: bool,
        /// The pointer-to-member expression.
        ptr: Box<Expr>,
    },
    /// Comma expression `lhs, rhs`.
    Comma {
        /// Evaluated for effect.
        lhs: Box<Expr>,
        /// Value of the whole expression.
        rhs: Box<Expr>,
    },
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-e`
    Neg,
    /// `+e`
    Plus,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `*e`
    Deref,
    /// `&e`
    AddrOf,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
}

/// Postfix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostfixOp {
    /// `e++`
    PostInc,
    /// `e--`
    PostDec,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
    /// `%=`
    RemAssign,
    /// `&=`
    AndAssign,
    /// `|=`
    OrAssign,
    /// `^=`
    XorAssign,
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,
}

impl AssignOp {
    /// The binary operator a compound assignment applies, if any.
    /// `x op= y` reads `x`, so the analysis treats compound assignment
    /// left-hand sides as read accesses.
    pub fn binary_op(self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::AddAssign => BinaryOp::Add,
            AssignOp::SubAssign => BinaryOp::Sub,
            AssignOp::MulAssign => BinaryOp::Mul,
            AssignOp::DivAssign => BinaryOp::Div,
            AssignOp::RemAssign => BinaryOp::Rem,
            AssignOp::AndAssign => BinaryOp::BitAnd,
            AssignOp::OrAssign => BinaryOp::BitOr,
            AssignOp::XorAssign => BinaryOp::BitXor,
            AssignOp::ShlAssign => BinaryOp::Shl,
            AssignOp::ShrAssign => BinaryOp::Shr,
        })
    }
}

/// Which cast syntax an [`ExprKind::Cast`] used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastStyle {
    /// `(T)e`
    CStyle,
    /// `static_cast<T>(e)`
    Static,
    /// `reinterpret_cast<T>(e)`
    Reinterpret,
    /// `const_cast<T>(e)`
    Const,
    /// `dynamic_cast<T>(e)`
    Dynamic,
}

/// A type as written in source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Type {
    /// The structural part of the type.
    pub kind: TypeKind,
    /// `const`-qualified.
    pub is_const: bool,
    /// `volatile`-qualified. Volatile data members are live when written
    /// (the paper's footnote-1 exception).
    pub is_volatile: bool,
}

impl Type {
    /// An unqualified type of the given kind.
    pub fn plain(kind: TypeKind) -> Self {
        Type {
            kind,
            is_const: false,
            is_volatile: false,
        }
    }

    /// Shorthand for `int`.
    pub fn int() -> Self {
        Type::plain(TypeKind::Int)
    }

    /// Shorthand for `void`.
    pub fn void() -> Self {
        Type::plain(TypeKind::Void)
    }

    /// Shorthand for a pointer to `self`.
    pub fn pointer_to(self) -> Self {
        Type::plain(TypeKind::Pointer(Box::new(self)))
    }

    /// Shorthand for a reference to `self`.
    pub fn reference_to(self) -> Self {
        Type::plain(TypeKind::Reference(Box::new(self)))
    }

    /// The class name if this is a (possibly qualified) named type.
    pub fn named(&self) -> Option<&str> {
        match &self.kind {
            TypeKind::Named(n) => Some(n),
            _ => None,
        }
    }

    /// Strips references: `T&` becomes `T`; other types are unchanged.
    pub fn strip_reference(&self) -> &Type {
        match &self.kind {
            TypeKind::Reference(inner) => inner,
            _ => self,
        }
    }

    /// The pointee if this is a pointer (after stripping references).
    pub fn pointee(&self) -> Option<&Type> {
        match &self.strip_reference().kind {
            TypeKind::Pointer(inner) => Some(inner),
            _ => None,
        }
    }

    /// True for the arithmetic types (integers, floats, `bool`, `char`).
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self.kind,
            TypeKind::Bool
                | TypeKind::Char
                | TypeKind::Short
                | TypeKind::Int
                | TypeKind::Long
                | TypeKind::Float
                | TypeKind::Double
        )
    }
}

/// The structural alternatives of a [`Type`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// `void`
    Void,
    /// `bool`
    Bool,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
    /// A class, struct, union or enum name.
    Named(String),
    /// `T*`
    Pointer(Box<Type>),
    /// `T&`
    Reference(Box<Type>),
    /// `T[n]`
    Array(Box<Type>, usize),
    /// A function type, used through function pointers.
    Function(Box<FnType>),
    /// Pointer-to-data-member type `T Class::*`.
    MemberPointer {
        /// The class the member belongs to.
        class: String,
        /// The member's value type.
        pointee: Box<Type>,
    },
}

/// Parameter/return shape of a function type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FnType {
    /// Return type.
    pub ret: Type,
    /// Parameter types in order.
    pub params: Vec<Type>,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_const {
            write!(f, "const ")?;
        }
        if self.is_volatile {
            write!(f, "volatile ")?;
        }
        match &self.kind {
            TypeKind::Void => write!(f, "void"),
            TypeKind::Bool => write!(f, "bool"),
            TypeKind::Char => write!(f, "char"),
            TypeKind::Short => write!(f, "short"),
            TypeKind::Int => write!(f, "int"),
            TypeKind::Long => write!(f, "long"),
            TypeKind::Float => write!(f, "float"),
            TypeKind::Double => write!(f, "double"),
            TypeKind::Named(n) => write!(f, "{n}"),
            TypeKind::Pointer(t) => write!(f, "{t}*"),
            TypeKind::Reference(t) => write!(f, "{t}&"),
            TypeKind::Array(t, n) => write!(f, "{t}[{n}]"),
            TypeKind::Function(ft) => {
                write!(f, "{}(", ft.ret)?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            TypeKind::MemberPointer { class, pointee } => write!(f, "{pointee} {class}::*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display_round_trips_simple_shapes() {
        assert_eq!(Type::int().to_string(), "int");
        assert_eq!(Type::int().pointer_to().to_string(), "int*");
        assert_eq!(Type::int().reference_to().to_string(), "int&");
        assert_eq!(
            Type::plain(TypeKind::Array(Box::new(Type::int()), 8)).to_string(),
            "int[8]"
        );
    }

    #[test]
    fn member_pointer_display() {
        let t = Type::plain(TypeKind::MemberPointer {
            class: "C".into(),
            pointee: Box::new(Type::int()),
        });
        assert_eq!(t.to_string(), "int C::*");
    }

    #[test]
    fn strip_reference_and_pointee() {
        let t = Type::plain(TypeKind::Named("A".into()))
            .pointer_to()
            .reference_to();
        assert_eq!(t.strip_reference().to_string(), "A*");
        assert_eq!(t.pointee().unwrap().to_string(), "A");
        assert!(Type::int().pointee().is_none());
    }

    #[test]
    fn compound_assign_maps_to_binary() {
        assert_eq!(AssignOp::AddAssign.binary_op(), Some(BinaryOp::Add));
        assert_eq!(AssignOp::ShrAssign.binary_op(), Some(BinaryOp::Shr));
        assert_eq!(AssignOp::Assign.binary_op(), None);
    }

    #[test]
    fn class_decl_lookups() {
        let c = ClassDecl {
            name: "A".into(),
            kind: ClassKind::Class,
            bases: vec![],
            data_members: vec![DataMemberDecl {
                name: "x".into(),
                ty: Type::int(),
                access: Access::Public,
                span: Span::dummy(),
            }],
            methods: vec![],
            span: Span::dummy(),
        };
        assert!(c.data_member("x").is_some());
        assert!(c.data_member("y").is_none());
        assert!(c.destructor().is_none());
        assert_eq!(c.constructors().count(), 0);
    }

    #[test]
    fn unit_counts_members() {
        let mut tu = TranslationUnit::default();
        assert_eq!(tu.data_member_count(), 0);
        tu.classes.push(Item {
            base: 0,
            decl: Arc::new(ClassDecl {
                name: "A".into(),
                kind: ClassKind::Struct,
                bases: vec![],
                data_members: vec![
                    DataMemberDecl {
                        name: "x".into(),
                        ty: Type::int(),
                        access: Access::Public,
                        span: Span::dummy(),
                    },
                    DataMemberDecl {
                        name: "y".into(),
                        ty: Type::int(),
                        access: Access::Public,
                        span: Span::dummy(),
                    },
                ],
                methods: vec![],
                span: Span::dummy(),
            }),
        });
        assert_eq!(tu.data_member_count(), 2);
        assert!(tu.class("A").is_some());
        assert!(tu.class("B").is_none());
    }

    #[test]
    fn arithmetic_predicate() {
        assert!(Type::plain(TypeKind::Double).is_arithmetic());
        assert!(Type::plain(TypeKind::Bool).is_arithmetic());
        assert!(!Type::void().is_arithmetic());
        assert!(!Type::int().pointer_to().is_arithmetic());
    }
}
