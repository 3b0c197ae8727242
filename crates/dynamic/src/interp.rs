//! Tree-walking interpreter for the C++ subset.
//!
//! Replaces the paper's binary instrumentation (Nair's RS/6000 profiling
//! tooling): the interpreter executes the benchmark deterministically and
//! logs every object allocation and deallocation into a
//! `HeapTrace`, which the profiler replays to
//! produce the paper's dynamic measurements.
//!
//! Semantics notes (documented deviations, none observable by the
//! benchmark suite):
//!
//! * storage is zero-initialized (reading uninitialized storage is UB in
//!   C++, so no well-defined program can tell);
//! * class-typed values are object references; by-value class copies
//!   (`A b = a;` / assignment) perform a field-wise copy of scalars;
//! * data-member hiding is resolved against the dynamic class;
//! * arrays of class type are not supported (scalar arrays are).

use crate::error::RuntimeError;
use crate::heap::{default_value, AllocKind, HeapTrace, ObjectStore};
use crate::value::{cell, ArrayRef, CellRef, ObjId, PtrTarget, Value};
use ddm_cppfront::ast::{
    BinaryOp, Block, Expr, ExprKind, LocalInit, PostfixOp, Stmt, StmtKind, Type, TypeKind, UnaryOp,
};
use ddm_hierarchy::{
    resolve_ctor, Builtin, ClassId, Found, FuncId, MemberLookup, MemberRef, Program,
};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Execution options.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Maximum number of evaluation steps before aborting with
    /// [`RuntimeError::OutOfFuel`].
    pub fuel: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { fuel: 200_000_000 }
    }
}

/// The observable result of one program execution.
#[derive(Debug)]
pub struct Execution {
    /// `main`'s return value.
    pub exit_code: i64,
    /// Everything written through the `print_*` builtins.
    pub output: String,
    /// The allocation/deallocation event trace.
    pub trace: HeapTrace,
    /// Every data member whose value was read, or whose address was taken,
    /// during execution. This is the ground-truth oracle used by the
    /// property tests: the static analysis must classify all of these as
    /// live.
    pub members_observed: BTreeSet<MemberRef>,
    /// Evaluation steps consumed.
    pub steps: u64,
}

/// The interpreter.
///
/// # Examples
///
/// ```
/// use ddm_dynamic::{Interpreter, RunConfig};
/// use ddm_hierarchy::Program;
///
/// let tu = ddm_cppfront::parse(
///     "int main() { int total = 0; for (int i = 1; i <= 4; i++) { total += i; } return total; }",
/// ).unwrap();
/// let program = Program::build(&tu).unwrap();
/// let run = Interpreter::new(&program).run(&RunConfig::default()).unwrap();
/// assert_eq!(run.exit_code, 10);
/// ```
pub struct Interpreter<'p> {
    program: &'p Program,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter for `program`.
    pub fn new(program: &'p Program) -> Self {
        Interpreter { program }
    }

    /// Executes the program from `main`.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for missing `main`, null dereferences,
    /// division by zero, fuel exhaustion, and unsupported constructs.
    pub fn run(&self, config: &RunConfig) -> Result<Execution, RuntimeError> {
        let main = self.program.main_function().ok_or(RuntimeError::NoMain)?;
        let lookup = MemberLookup::new(self.program);
        let mut m = Machine {
            program: self.program,
            lookup: &lookup,
            store: ObjectStore::new(),
            globals: HashMap::new(),
            output: String::new(),
            fuel: config.fuel,
            start_fuel: config.fuel,
            members_observed: BTreeSet::new(),
            cdtor_class: HashMap::new(),
        };
        m.init_globals()?;
        let exit = m.call_function(main, Vec::new(), None)?;
        let exit_code = match exit {
            Value::Int(v) => v,
            _ => 0,
        };
        Ok(Execution {
            exit_code,
            output: m.output,
            trace: m.store.into_trace(),
            members_observed: m.members_observed,
            steps: m.start_fuel - m.fuel,
        })
    }
}

/// Control flow outcome of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// An evaluated call argument: by value, or an aliased cell/object for
/// reference parameters.
enum Arg {
    Value(Value),
    Ref(CellRef),
}

/// A storage location.
enum Place {
    Cell(CellRef),
    Object(ObjId),
}

/// What a name is bound to: scalar/pointer variables get a cell, class
/// locals and globals *are* objects (so `&x` yields an object pointer).
#[derive(Clone)]
enum Binding {
    Cell(CellRef),
    Object(ObjId),
}

/// One lexical scope: variables plus the stack objects it owns.
#[derive(Default)]
struct Scope {
    vars: HashMap<String, Binding>,
    owned: Vec<ObjId>,
}

/// A function activation.
struct Env {
    scopes: Vec<Scope>,
    this_obj: Option<ObjId>,
}

impl Env {
    fn new(this_obj: Option<ObjId>) -> Env {
        Env {
            scopes: vec![Scope::default()],
            this_obj,
        }
    }

    fn declare(&mut self, name: &str, c: CellRef) {
        self.declare_binding(name, Binding::Cell(c));
    }

    fn declare_binding(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .vars
            .insert(name.to_string(), b);
    }

    fn get(&self, name: &str) -> Option<Binding> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.vars.get(name))
            .cloned()
    }

    fn own_object(&mut self, id: ObjId) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .owned
            .push(id);
    }
}

struct Machine<'p> {
    program: &'p Program,
    lookup: &'p MemberLookup<'p>,
    store: ObjectStore,
    globals: HashMap<String, Binding>,
    output: String,
    fuel: u64,
    start_fuel: u64,
    members_observed: BTreeSet<MemberRef>,
    /// For each object under construction or destruction, the class
    /// whose constructor or destructor is running. A method call on such
    /// an object dispatches as if that class were its dynamic type
    /// ([class.cdtor]); the object itself — and so the space profile —
    /// keeps its allocated, most-derived class.
    cdtor_class: HashMap<ObjId, ClassId>,
}

impl<'p> Machine<'p> {
    fn step(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn init_globals(&mut self) -> Result<(), RuntimeError> {
        let globals: Vec<_> = self.program.globals().to_vec();
        for g in globals {
            let mut env = Env::new(None);
            let binding = if let Some(class) =
                ddm_hierarchy::by_value_class(&g.ty).and_then(|n| self.program.class_by_name(n))
            {
                let id = self.store.allocate(self.program, class, AllocKind::Global);
                self.construct(id, class, Vec::new())?;
                Binding::Object(id)
            } else if let Some(init) = &g.init {
                Binding::Cell(cell(self.eval(init, &mut env)?))
            } else {
                Binding::Cell(cell(default_value(self.program, &g.ty)))
            };
            self.globals.insert(g.name.clone(), binding);
        }
        Ok(())
    }

    // ----- functions -------------------------------------------------------

    fn call_function(
        &mut self,
        func: FuncId,
        args: Vec<Arg>,
        this_obj: Option<ObjId>,
    ) -> Result<Value, RuntimeError> {
        self.step()?;
        let info = self.program.function(func);
        if info.params.len() != args.len() {
            return Err(RuntimeError::ArityMismatch {
                function: self.program.func_display_name(func),
                expected: info.params.len(),
                got: args.len(),
            });
        }
        let Some(body) = info.body.clone() else {
            return Err(RuntimeError::MissingBody(
                self.program.func_display_name(func),
            ));
        };
        let mut env = Env::new(this_obj);
        for (p, a) in info.params.iter().zip(args) {
            match a {
                // Reference parameters alias the caller's storage cell.
                Arg::Ref(c) => env.declare(&p.name, c),
                Arg::Value(v) => env.declare(&p.name, cell(v)),
            }
        }
        let flow = self.exec_block(&body, &mut env)?;
        // Destroy any stack objects in the (already popped) scopes is done
        // by exec_block; only the return value remains.
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Void,
        })
    }

    /// The class a method call on `obj` dispatches through: the class of
    /// a running constructor or destructor, else the allocated class.
    fn dispatch_class(&self, obj: ObjId) -> ClassId {
        self.cdtor_class
            .get(&obj)
            .copied()
            .unwrap_or_else(|| self.store.object(obj).class)
    }

    /// Runs `f` with `obj` under construction or destruction as `class`,
    /// then restores the enclosing constructor's or destructor's class.
    fn in_cdtor<T>(
        &mut self,
        obj: ObjId,
        class: ClassId,
        f: impl FnOnce(&mut Self) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let outer = self.cdtor_class.insert(obj, class);
        let result = f(self);
        match outer {
            Some(c) => self.cdtor_class.insert(obj, c),
            None => self.cdtor_class.remove(&obj),
        };
        result
    }

    /// Runs constructors for `obj` viewed as `class`: base constructors
    /// (init-list args or default), member initializers, then the body.
    fn construct(
        &mut self,
        obj: ObjId,
        class: ClassId,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        self.in_cdtor(obj, class, |m| m.run_constructor(obj, class, args))
    }

    fn run_constructor(
        &mut self,
        obj: ObjId,
        class: ClassId,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        // Constructors in the subset take value parameters (reference
        // parameters on constructors are not modelled).
        self.step()?;
        let ctor = resolve_ctor(self.program, class, args.len());
        match ctor {
            None => {
                // No declared constructor: default-construct bases and
                // by-value members.
                let info = self.program.class(class).clone();
                for b in &info.bases {
                    self.construct(obj, b.id, Vec::new())?;
                }
                for (idx, mem) in info.members.iter().enumerate() {
                    if let Some(mc) = ddm_hierarchy::by_value_class(&mem.ty)
                        .and_then(|n| self.program.class_by_name(n))
                    {
                        let child = self.member_object(obj, MemberRef::new(class, idx))?;
                        self.construct(child, mc, Vec::new())?;
                    }
                }
                Ok(Value::Void)
            }
            Some(ctor_id) => {
                let info = self.program.function(ctor_id).clone();
                if info.params.len() != args.len() {
                    return Err(RuntimeError::ArityMismatch {
                        function: self.program.func_display_name(ctor_id),
                        expected: info.params.len(),
                        got: args.len(),
                    });
                }
                let mut env = Env::new(Some(obj));
                for (p, v) in info.params.iter().zip(args) {
                    env.declare(&p.name, cell(v));
                }
                let class_info = self.program.class(class).clone();
                // Bases, in declaration order.
                for b in &class_info.bases {
                    let base_name = &self.program.class(b.id).name;
                    let init = info.inits.iter().find(|i| &i.name == base_name);
                    let base_args = match init {
                        Some(i) => i
                            .args
                            .iter()
                            .map(|a| self.eval(a, &mut env))
                            .collect::<Result<Vec<_>, _>>()?,
                        None => Vec::new(),
                    };
                    self.construct(obj, b.id, base_args)?;
                }
                // Members, in declaration order.
                for (idx, mem) in class_info.members.iter().enumerate() {
                    let mref = MemberRef::new(class, idx);
                    let init = info.inits.iter().find(|i| i.name == mem.name);
                    if let Some(mc) = ddm_hierarchy::by_value_class(&mem.ty)
                        .and_then(|n| self.program.class_by_name(n))
                    {
                        let child = self.member_object(obj, mref)?;
                        let ctor_args = match init {
                            Some(i) => i
                                .args
                                .iter()
                                .map(|a| self.eval(a, &mut env))
                                .collect::<Result<Vec<_>, _>>()?,
                            None => Vec::new(),
                        };
                        self.construct(child, mc, ctor_args)?;
                    } else if let Some(i) = init {
                        if let Some(arg) = i.args.first() {
                            let v = self.eval(arg, &mut env)?;
                            let c = self
                                .store
                                .field(obj, mref)
                                .ok_or_else(|| RuntimeError::UnknownMember(mem.name.clone()))?;
                            *c.borrow_mut() = v;
                        }
                    }
                }
                if let Some(body) = info.body.clone() {
                    self.exec_block(&body, &mut env)?;
                }
                Ok(Value::Void)
            }
        }
    }

    /// Runs destructors for `obj`, starting from its dynamic class: the
    /// body, then member destructors, then base destructors.
    fn destruct(&mut self, obj: ObjId, class: ClassId) -> Result<(), RuntimeError> {
        self.in_cdtor(obj, class, |m| m.run_destructor(obj, class))
    }

    fn run_destructor(&mut self, obj: ObjId, class: ClassId) -> Result<(), RuntimeError> {
        self.step()?;
        if let Some(dtor) = self.program.destructor(class) {
            if let Some(body) = self.program.function(dtor).body.clone() {
                let mut env = Env::new(Some(obj));
                self.exec_block(&body, &mut env)?;
            }
        }
        let info = self.program.class(class).clone();
        for (idx, mem) in info.members.iter().enumerate().rev() {
            if let Some(mc) =
                ddm_hierarchy::by_value_class(&mem.ty).and_then(|n| self.program.class_by_name(n))
            {
                if let Ok(child) = self.member_object(obj, MemberRef::new(class, idx)) {
                    self.destruct(child, mc)?;
                }
            }
        }
        for b in info.bases.iter().rev() {
            self.destruct(obj, b.id)?;
        }
        Ok(())
    }

    /// The nested object backing a by-value class member.
    fn member_object(&self, obj: ObjId, member: MemberRef) -> Result<ObjId, RuntimeError> {
        let c = self
            .store
            .field(obj, member)
            .ok_or_else(|| RuntimeError::UnknownMember(format!("{member}")))?;
        let v = c.borrow().clone();
        match v {
            Value::Ptr(PtrTarget::Object(id)) => Ok(id),
            other => Err(RuntimeError::TypeMismatch(format!(
                "member object expected, found {other:?}"
            ))),
        }
    }

    // ----- statements ------------------------------------------------------

    fn exec_block(&mut self, b: &Block, env: &mut Env) -> Result<Flow, RuntimeError> {
        env.scopes.push(Scope::default());
        let mut result = Flow::Normal;
        for s in &b.stmts {
            match self.exec_stmt(s, env)? {
                Flow::Normal => {}
                other => {
                    result = other;
                    break;
                }
            }
        }
        let scope = env.scopes.pop().expect("scope stack never empty");
        self.destroy_scope(scope)?;
        Ok(result)
    }

    fn destroy_scope(&mut self, scope: Scope) -> Result<(), RuntimeError> {
        for id in scope.owned.into_iter().rev() {
            let class = self.store.object(id).class;
            self.destruct(id, class)?;
            self.store.deallocate(id);
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env) -> Result<Flow, RuntimeError> {
        self.step()?;
        match &s.kind {
            StmtKind::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl(d) => {
                self.exec_local_decl(d, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if self.eval(cond, env)?.is_truthy() {
                    self.exec_stmt(then, env)
                } else if let Some(e) = els {
                    self.exec_stmt(e, env)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(cond, env)?.is_truthy() {
                    match self.exec_stmt(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    match self.exec_stmt(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond, env)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                env.scopes.push(Scope::default());
                let mut result = Flow::Normal;
                if let Some(i) = init {
                    self.exec_stmt(i, env)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval(c, env)?.is_truthy() {
                            break;
                        }
                    }
                    match self.exec_stmt(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            result = Flow::Return(v);
                            break;
                        }
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(st) = step {
                        self.eval(st, env)?;
                    }
                }
                let scope = env.scopes.pop().expect("scope stack never empty");
                self.destroy_scope(scope)?;
                Ok(result)
            }
            StmtKind::Switch { scrutinee, arms } => {
                let selector = self
                    .eval(scrutinee, env)?
                    .as_int()
                    .ok_or_else(|| RuntimeError::TypeMismatch("switch on non-integer".into()))?;
                // Find the first matching case (or `default`), then fall
                // through subsequent arms until a break.
                let mut start = None;
                for (i, arm) in arms.iter().enumerate() {
                    if let Some(v) = &arm.value {
                        let case_v = self.eval(v, env)?.as_int().ok_or_else(|| {
                            RuntimeError::TypeMismatch("non-integer case label".into())
                        })?;
                        if case_v == selector {
                            start = Some(i);
                            break;
                        }
                    }
                }
                if start.is_none() {
                    start = arms.iter().position(|a| a.value.is_none());
                }
                let Some(start) = start else {
                    return Ok(Flow::Normal);
                };
                env.scopes.push(Scope::default());
                let mut flow = Flow::Normal;
                'arms: for arm in &arms[start..] {
                    for st in &arm.stmts {
                        match self.exec_stmt(st, env)? {
                            Flow::Normal => {}
                            Flow::Break => break 'arms,
                            other => {
                                flow = other;
                                break 'arms;
                            }
                        }
                    }
                }
                let scope = env.scopes.pop().expect("scope stack never empty");
                self.destroy_scope(scope)?;
                Ok(flow)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block(b, env),
            StmtKind::Empty => Ok(Flow::Normal),
        }
    }

    fn exec_local_decl(
        &mut self,
        d: &ddm_cppfront::ast::LocalDecl,
        env: &mut Env,
    ) -> Result<(), RuntimeError> {
        if let Some(class) =
            ddm_hierarchy::by_value_class(&d.ty).and_then(|n| self.program.class_by_name(n))
        {
            if matches!(d.ty.kind, TypeKind::Array(..)) {
                return Err(RuntimeError::Unsupported(
                    "arrays of class type".to_string(),
                ));
            }
            let id = self.store.allocate(self.program, class, AllocKind::Stack);
            match &d.init {
                LocalInit::Ctor(args) => {
                    let argv = args
                        .iter()
                        .map(|a| self.eval(a, env))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.construct(id, class, argv)?;
                }
                LocalInit::Default => {
                    self.construct(id, class, Vec::new())?;
                }
                LocalInit::Expr(e) => {
                    // Copy-initialization: construct, then field-wise copy.
                    self.construct(id, class, Vec::new())?;
                    let src = self.eval(e, env)?;
                    self.copy_object_fields(&src, id)?;
                }
            }
            env.own_object(id);
            env.declare_binding(&d.name, Binding::Object(id));
            return Ok(());
        }
        let value = match &d.init {
            LocalInit::Default => default_value(self.program, &d.ty),
            LocalInit::Expr(e) => self.eval(e, env)?,
            LocalInit::Ctor(args) => match args.first() {
                Some(a) => self.eval(a, env)?,
                None => default_value(self.program, &d.ty),
            },
        };
        env.declare(&d.name, cell(value));
        Ok(())
    }

    fn copy_object_fields(&mut self, src: &Value, dst: ObjId) -> Result<(), RuntimeError> {
        let Value::Ptr(PtrTarget::Object(src_id)) = src else {
            return Err(RuntimeError::TypeMismatch(
                "class copy-initialization from non-object".to_string(),
            ));
        };
        let src_fields: Vec<(MemberRef, Value)> = self
            .store
            .object(*src_id)
            .fields
            .iter()
            .map(|(k, v)| (*k, v.borrow().clone()))
            .collect();
        for (mref, v) in src_fields {
            if let Value::Ptr(PtrTarget::Object(src_child)) = v {
                // By-value member objects keep their own storage: copy
                // their fields recursively instead of aliasing.
                if let Ok(dst_child) = self.member_object(dst, mref) {
                    self.copy_object_fields(&Value::Ptr(PtrTarget::Object(src_child)), dst_child)?;
                }
                continue;
            }
            if let Some(c) = self.store.field(dst, mref) {
                *c.borrow_mut() = v;
            }
        }
        Ok(())
    }

    // ----- expressions -----------------------------------------------------

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Result<Value, RuntimeError> {
        self.step()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::BoolLit(b) => Ok(Value::Int(*b as i64)),
            ExprKind::CharLit(c) => Ok(Value::Int(*c as i64)),
            ExprKind::StrLit(s) => Ok(Value::Str(Rc::from(s.as_str()))),
            ExprKind::Null => Ok(Value::null()),
            ExprKind::This => match env.this_obj {
                Some(id) => Ok(Value::Ptr(PtrTarget::Object(id))),
                None => Err(RuntimeError::Unsupported("`this` outside method".into())),
            },
            ExprKind::Ident(_) | ExprKind::Member { .. } | ExprKind::Index { .. } => {
                let place = self.eval_place(e, env)?;
                self.record_member_read(e, env);
                Ok(self.read_place(place))
            }
            ExprKind::Call { callee, args } => self.eval_call(callee, args, env),
            ExprKind::Unary { op, expr } => self.eval_unary(*op, expr, env),
            ExprKind::Postfix { op, expr } => {
                let place = self.eval_place(expr, env)?;
                self.record_member_read(expr, env);
                let old = self.read_place_ref(&place);
                let new = match (op, &old) {
                    (PostfixOp::PostInc, Value::Int(v)) => Value::Int(v.wrapping_add(1)),
                    (PostfixOp::PostDec, Value::Int(v)) => Value::Int(v.wrapping_sub(1)),
                    (PostfixOp::PostInc, Value::Float(v)) => Value::Float(v + 1.0),
                    (PostfixOp::PostDec, Value::Float(v)) => Value::Float(v - 1.0),
                    (_, Value::Ptr(PtrTarget::Element { array, index })) => {
                        let delta: isize = if *op == PostfixOp::PostInc { 1 } else { -1 };
                        Value::Ptr(PtrTarget::Element {
                            array: array.clone(),
                            index: index.wrapping_add_signed(delta),
                        })
                    }
                    _ => {
                        return Err(RuntimeError::TypeMismatch(
                            "++/-- on non-numeric value".to_string(),
                        ))
                    }
                };
                self.write_place(&place, new)?;
                Ok(old)
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, env),
            ExprKind::Assign { op, lhs, rhs } => {
                let place = self.eval_place(lhs, env)?;
                let value = match op.binary_op() {
                    None => self.eval(rhs, env)?,
                    Some(bop) => {
                        self.record_member_read(lhs, env);
                        let old = self.read_place_ref(&place);
                        let rv = self.eval(rhs, env)?;
                        self.apply_binary(bop, old, rv)?
                    }
                };
                self.write_place(&place, value.clone())?;
                Ok(value)
            }
            ExprKind::Cond { cond, then, els } => {
                if self.eval(cond, env)?.is_truthy() {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            ExprKind::Cast { ty, expr, .. } => {
                let v = self.eval(expr, env)?;
                Ok(cast_value(v, ty))
            }
            ExprKind::New {
                ty,
                args,
                array_len,
            } => self.eval_new(ty, args, array_len.as_deref(), env),
            ExprKind::Delete { expr, is_array } => {
                let v = self.eval(expr, env)?;
                self.do_delete(v, *is_array)?;
                Ok(Value::Void)
            }
            ExprKind::SizeofType(ty) => {
                let layouts = ddm_hierarchy::LayoutEngine::new(self.program);
                Ok(Value::Int(layouts.type_size(ty) as i64))
            }
            ExprKind::SizeofExpr(_) => {
                // The operand is unevaluated; without static types at
                // runtime we conservatively report the pointer size for
                // non-type operands (benchmarks use `sizeof(T)`).
                Ok(Value::Int(4))
            }
            ExprKind::PtrToMember { class, member } => {
                let class_id = self
                    .program
                    .class_by_name(class)
                    .ok_or_else(|| RuntimeError::Lookup(class.clone()))?;
                match self.lookup.member(class_id, member) {
                    Ok(Found::Data(m)) => Ok(Value::MemberPtr(m)),
                    Ok(Found::Method { func, .. }) => Ok(Value::FnPtr(func)),
                    Err(e) => Err(RuntimeError::Lookup(e.to_string())),
                }
            }
            ExprKind::PtrMemApply { .. } => {
                let place = self.eval_place(e, env)?;
                self.record_member_read(e, env);
                Ok(self.read_place(place))
            }
            ExprKind::Comma { lhs, rhs } => {
                self.eval(lhs, env)?;
                self.eval(rhs, env)
            }
        }
    }

    /// Records the member read for the analysis oracle when `e` is a
    /// member access (direct or through `this`).
    fn record_member_read(&mut self, e: &Expr, env: &Env) {
        match &e.kind {
            ExprKind::Member { .. } | ExprKind::PtrMemApply { .. } | ExprKind::Ident(_) => {
                if let Some(m) = self.member_of_access(e, env) {
                    self.members_observed.insert(m);
                }
            }
            _ => {}
        }
    }

    /// Resolves which declared member an access expression touches, if any.
    fn member_of_access(&mut self, e: &Expr, env: &Env) -> Option<MemberRef> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if env.get(name).is_some() || self.globals.contains_key(name) {
                    return None;
                }
                let this = env.this_obj?;
                let class = self.store.object(this).class;
                match self.lookup.member(class, name) {
                    Ok(Found::Data(m)) => Some(m),
                    _ => None,
                }
            }
            ExprKind::Member {
                base,
                qualifier,
                name,
                ..
            } => {
                // The earlier eval_place already resolved the object; redo
                // the resolution structurally (side-effect free).
                let obj = self.object_of(base, env).ok()??;
                let class = match qualifier {
                    Some(q) => self.program.class_by_name(q)?,
                    None => self.store.object(obj).class,
                };
                match self.lookup.member(class, name) {
                    Ok(Found::Data(m)) => Some(m),
                    _ => None,
                }
            }
            ExprKind::PtrMemApply { ptr, .. } => match &ptr.kind {
                ExprKind::PtrToMember { class, member } => {
                    let cid = self.program.class_by_name(class)?;
                    match self.lookup.member(cid, member) {
                        Ok(Found::Data(m)) => Some(m),
                        _ => None,
                    }
                }
                ExprKind::Ident(name) => match env.get(name)? {
                    Binding::Cell(c) => {
                        let v = c.borrow().clone();
                        match v {
                            Value::MemberPtr(m) => Some(m),
                            _ => None,
                        }
                    }
                    Binding::Object(_) => None,
                },
                _ => None,
            },
            _ => None,
        }
    }

    /// The object a member-access base expression designates, without
    /// recording oracle reads (pure resolution).
    fn object_of(&mut self, base: &Expr, env: &Env) -> Result<Option<ObjId>, RuntimeError> {
        // Evaluate with a scratch environment view: we need the real env
        // for locals, so reuse it immutably through cloned cells.
        let v = match &base.kind {
            ExprKind::Ident(name) => {
                match env.get(name).or_else(|| self.globals.get(name).cloned()) {
                    Some(Binding::Cell(c)) => c.borrow().clone(),
                    Some(Binding::Object(id)) => Value::Ptr(PtrTarget::Object(id)),
                    None => return Ok(None),
                }
            }
            ExprKind::This => match env.this_obj {
                Some(id) => Value::Ptr(PtrTarget::Object(id)),
                None => return Ok(None),
            },
            ExprKind::Member {
                base: inner,
                qualifier,
                name,
                ..
            } => {
                let Some(obj) = self.object_of(inner, env)? else {
                    return Ok(None);
                };
                let class = match qualifier {
                    Some(q) => match self.program.class_by_name(q) {
                        Some(c) => c,
                        None => return Ok(None),
                    },
                    None => self.store.object(obj).class,
                };
                match self.lookup.member(class, name) {
                    Ok(Found::Data(m)) => match self.store.field(obj, m) {
                        Some(c) => c.borrow().clone(),
                        None => return Ok(None),
                    },
                    _ => return Ok(None),
                }
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => {
                let Some(obj) = self.object_of(expr, env)? else {
                    return Ok(None);
                };
                return Ok(Some(obj));
            }
            _ => return Ok(None),
        };
        Ok(match v {
            Value::Ptr(PtrTarget::Object(id)) => Some(id),
            _ => None,
        })
    }

    fn read_place(&mut self, place: Place) -> Value {
        self.read_place_ref(&place)
    }

    fn read_place_ref(&self, place: &Place) -> Value {
        match place {
            Place::Cell(c) => c.borrow().clone(),
            Place::Object(id) => Value::Ptr(PtrTarget::Object(*id)),
        }
    }

    fn write_place(&mut self, place: &Place, v: Value) -> Result<(), RuntimeError> {
        match place {
            Place::Cell(c) => {
                *c.borrow_mut() = v;
                Ok(())
            }
            Place::Object(dst) => self.copy_object_fields(&v, *dst),
        }
    }

    fn eval_place(&mut self, e: &Expr, env: &mut Env) -> Result<Place, RuntimeError> {
        self.step()?;
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(b) = env.get(name) {
                    return Ok(match b {
                        Binding::Cell(c) => Place::Cell(c),
                        Binding::Object(id) => Place::Object(id),
                    });
                }
                // Implicit `this->member`.
                if let Some(this) = env.this_obj {
                    let class = self.store.object(this).class;
                    if let Ok(Found::Data(m)) = self.lookup.member(class, name) {
                        return self.member_place(this, m, name);
                    }
                }
                if let Some(b) = self.globals.get(name) {
                    return Ok(match b {
                        Binding::Cell(c) => Place::Cell(c.clone()),
                        Binding::Object(id) => Place::Object(*id),
                    });
                }
                if let Some(v) = self.program.enum_const(name) {
                    return Ok(Place::Cell(cell(Value::Int(v))));
                }
                if let Some(f) = self.program.free_function(name) {
                    return Ok(Place::Cell(cell(Value::FnPtr(f))));
                }
                Err(RuntimeError::Unsupported(format!(
                    "unknown identifier `{name}` at runtime"
                )))
            }
            ExprKind::Member {
                base,
                arrow,
                qualifier,
                name,
            } => {
                let base_v = self.eval(base, env)?;
                let obj = self.expect_object(base_v, *arrow)?;
                let class = match qualifier {
                    Some(q) => self
                        .program
                        .class_by_name(q)
                        .ok_or_else(|| RuntimeError::Lookup(q.clone()))?,
                    None => self.store.object(obj).class,
                };
                let m = match self
                    .lookup
                    .member(class, name)
                    .map_err(|e| RuntimeError::Lookup(e.to_string()))?
                {
                    Found::Data(m) => m,
                    Found::Method { func, .. } => return Ok(Place::Cell(cell(Value::FnPtr(func)))),
                };
                self.member_place(obj, m, name)
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base, env)?;
                let i = self
                    .eval(index, env)?
                    .as_int()
                    .ok_or_else(|| RuntimeError::TypeMismatch("non-integer index".into()))?;
                match b {
                    Value::Array(arr) => self.array_place(&arr, i),
                    Value::Ptr(PtrTarget::Element { array, index }) => {
                        self.array_place(&array, index as i64 + i)
                    }
                    Value::Ptr(PtrTarget::Object(id)) => {
                        let elems = self.store.object(id).array_elems.clone();
                        match elems {
                            Some(list) => {
                                let idx = usize::try_from(i).map_err(|_| {
                                    RuntimeError::IndexOutOfBounds {
                                        index: i,
                                        len: list.len(),
                                    }
                                })?;
                                let target =
                                    *list.get(idx).ok_or(RuntimeError::IndexOutOfBounds {
                                        index: i,
                                        len: list.len(),
                                    })?;
                                Ok(Place::Object(target))
                            }
                            None if i == 0 => Ok(Place::Object(id)),
                            None => Err(RuntimeError::IndexOutOfBounds { index: i, len: 1 }),
                        }
                    }
                    Value::Str(s) => {
                        let bytes = s.as_bytes();
                        let idx = usize::try_from(i).ok().filter(|&x| x < bytes.len()).ok_or(
                            RuntimeError::IndexOutOfBounds {
                                index: i,
                                len: bytes.len(),
                            },
                        )?;
                        Ok(Place::Cell(cell(Value::Int(bytes[idx] as i64))))
                    }
                    other => Err(RuntimeError::TypeMismatch(format!(
                        "indexing non-array value {other:?}"
                    ))),
                }
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => {
                let v = self.eval(expr, env)?;
                self.deref_place(v)
            }
            ExprKind::PtrMemApply { base, arrow, ptr } => {
                let base_v = self.eval(base, env)?;
                let obj = self.expect_object(base_v, *arrow)?;
                let pv = self.eval(ptr, env)?;
                match pv {
                    Value::MemberPtr(m) => {
                        let c = self
                            .store
                            .field(obj, m)
                            .ok_or_else(|| RuntimeError::UnknownMember(format!("{m}")))?;
                        Ok(Place::Cell(c))
                    }
                    other => Err(RuntimeError::TypeMismatch(format!(
                        ".* applied to non-member-pointer {other:?}"
                    ))),
                }
            }
            // Parenthesized-away and rvalue fallbacks: evaluate into a
            // fresh cell (assignment to it is then meaningless but legal
            // C++ rejects those at compile time; our benchmarks don't).
            _ => {
                let v = self.eval(e, env)?;
                Ok(Place::Cell(cell(v)))
            }
        }
    }

    /// The place of member `m` in `obj`: by-value class members resolve
    /// to their nested object so `&o.part` yields an object pointer.
    fn member_place(&self, obj: ObjId, m: MemberRef, name: &str) -> Result<Place, RuntimeError> {
        let mem = &self.program.class(m.class).members[m.index as usize];
        if ddm_hierarchy::by_value_class(&mem.ty)
            .and_then(|n| self.program.class_by_name(n))
            .is_some()
        {
            return Ok(Place::Object(self.member_object(obj, m)?));
        }
        let c = self
            .store
            .field(obj, m)
            .ok_or_else(|| RuntimeError::UnknownMember(name.to_string()))?;
        Ok(Place::Cell(c))
    }

    fn array_place(&self, arr: &ArrayRef, i: i64) -> Result<Place, RuntimeError> {
        let list = arr.borrow();
        let idx = usize::try_from(i).ok().filter(|&x| x < list.len()).ok_or(
            RuntimeError::IndexOutOfBounds {
                index: i,
                len: list.len(),
            },
        )?;
        Ok(Place::Cell(list[idx].clone()))
    }

    fn deref_place(&mut self, v: Value) -> Result<Place, RuntimeError> {
        match v {
            Value::Ptr(PtrTarget::Null) => Err(RuntimeError::NullDeref),
            Value::Ptr(PtrTarget::Cell(c)) => Ok(Place::Cell(c)),
            Value::Ptr(PtrTarget::Object(id)) => Ok(Place::Object(id)),
            Value::Ptr(PtrTarget::Element { array, index }) => {
                self.array_place(&array, index as i64)
            }
            other => Err(RuntimeError::TypeMismatch(format!(
                "dereferencing non-pointer {other:?}"
            ))),
        }
    }

    fn expect_object(&mut self, v: Value, _arrow: bool) -> Result<ObjId, RuntimeError> {
        match v {
            Value::Ptr(PtrTarget::Object(id)) => Ok(id),
            Value::Ptr(PtrTarget::Null) => Err(RuntimeError::NullDeref),
            other => Err(RuntimeError::NotAnObject(format!("{other:?}"))),
        }
    }

    fn eval_unary(
        &mut self,
        op: UnaryOp,
        operand: &Expr,
        env: &mut Env,
    ) -> Result<Value, RuntimeError> {
        match op {
            UnaryOp::AddrOf => {
                // `&f` on a function designator yields the function pointer.
                if let ExprKind::Ident(name) = &operand.kind {
                    if env.get(name).is_none()
                        && !self.globals.contains_key(name)
                        && env.this_obj.is_none_or(|t| {
                            let class = self.store.object(t).class;
                            self.lookup.member(class, name).is_err()
                        })
                    {
                        if let Some(f) = self.program.free_function(name) {
                            return Ok(Value::FnPtr(f));
                        }
                    }
                }
                let place = self.eval_place(operand, env)?;
                // Taking a member's address counts as an observation for
                // the oracle (the analysis must mark it live).
                self.record_member_read(operand, env);
                Ok(match place {
                    Place::Cell(c) => Value::Ptr(PtrTarget::Cell(c)),
                    Place::Object(id) => Value::Ptr(PtrTarget::Object(id)),
                })
            }
            UnaryOp::Deref => {
                let v = self.eval(operand, env)?;
                let place = self.deref_place(v)?;
                Ok(self.read_place(place))
            }
            UnaryOp::Neg => match self.eval(operand, env)? {
                Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
                Value::Float(v) => Ok(Value::Float(-v)),
                other => Err(RuntimeError::TypeMismatch(format!("-{other:?}"))),
            },
            UnaryOp::Plus => self.eval(operand, env),
            UnaryOp::Not => Ok(Value::Int(!self.eval(operand, env)?.is_truthy() as i64)),
            UnaryOp::BitNot => match self.eval(operand, env)? {
                Value::Int(v) => Ok(Value::Int(!v)),
                other => Err(RuntimeError::TypeMismatch(format!("~{other:?}"))),
            },
            UnaryOp::PreInc | UnaryOp::PreDec => {
                let place = self.eval_place(operand, env)?;
                self.record_member_read(operand, env);
                let old = self.read_place_ref(&place);
                let new = match (&op, &old) {
                    (UnaryOp::PreInc, Value::Int(v)) => Value::Int(v.wrapping_add(1)),
                    (UnaryOp::PreDec, Value::Int(v)) => Value::Int(v.wrapping_sub(1)),
                    (UnaryOp::PreInc, Value::Float(v)) => Value::Float(v + 1.0),
                    (UnaryOp::PreDec, Value::Float(v)) => Value::Float(v - 1.0),
                    (_, Value::Ptr(PtrTarget::Element { array, index })) => {
                        let delta: isize = if op == UnaryOp::PreInc { 1 } else { -1 };
                        Value::Ptr(PtrTarget::Element {
                            array: array.clone(),
                            index: index.wrapping_add_signed(delta),
                        })
                    }
                    _ => {
                        return Err(RuntimeError::TypeMismatch(
                            "++/-- on non-numeric value".to_string(),
                        ))
                    }
                };
                self.write_place(&place, new.clone())?;
                Ok(new)
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &mut Env,
    ) -> Result<Value, RuntimeError> {
        // Short-circuit forms first.
        match op {
            BinaryOp::LogAnd => {
                return Ok(Value::Int(
                    (self.eval(lhs, env)?.is_truthy() && self.eval(rhs, env)?.is_truthy()) as i64,
                ))
            }
            BinaryOp::LogOr => {
                return Ok(Value::Int(
                    (self.eval(lhs, env)?.is_truthy() || self.eval(rhs, env)?.is_truthy()) as i64,
                ))
            }
            _ => {}
        }
        let l = self.eval(lhs, env)?;
        let r = self.eval(rhs, env)?;
        self.apply_binary(op, l, r)
    }

    fn apply_binary(&self, op: BinaryOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
        use BinaryOp::*;
        // Pointer arithmetic on scalar-array element pointers.
        if let (Value::Ptr(PtrTarget::Element { array, index }), Value::Int(n)) = (&l, &r) {
            match op {
                Add => {
                    return Ok(Value::Ptr(PtrTarget::Element {
                        array: array.clone(),
                        index: index.wrapping_add_signed(*n as isize),
                    }))
                }
                Sub => {
                    return Ok(Value::Ptr(PtrTarget::Element {
                        array: array.clone(),
                        index: index.wrapping_add_signed(-(*n as isize)),
                    }))
                }
                _ => {}
            }
        }
        match op {
            Eq => return Ok(Value::Int(l.runtime_eq(&r) as i64)),
            Ne => return Ok(Value::Int(!l.runtime_eq(&r) as i64)),
            _ => {}
        }
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    Add => Value::Int(a.wrapping_add(b)),
                    Sub => Value::Int(a.wrapping_sub(b)),
                    Mul => Value::Int(a.wrapping_mul(b)),
                    Div => {
                        if b == 0 {
                            return Err(RuntimeError::DivideByZero);
                        }
                        Value::Int(a.wrapping_div(b))
                    }
                    Rem => {
                        if b == 0 {
                            return Err(RuntimeError::DivideByZero);
                        }
                        Value::Int(a.wrapping_rem(b))
                    }
                    Shl => Value::Int(a.wrapping_shl(b as u32 & 63)),
                    Shr => Value::Int(a.wrapping_shr(b as u32 & 63)),
                    BitAnd => Value::Int(a & b),
                    BitOr => Value::Int(a | b),
                    BitXor => Value::Int(a ^ b),
                    Lt => Value::Int((a < b) as i64),
                    Gt => Value::Int((a > b) as i64),
                    Le => Value::Int((a <= b) as i64),
                    Ge => Value::Int((a >= b) as i64),
                    Eq | Ne | LogAnd | LogOr => unreachable!("handled above"),
                };
                Ok(v)
            }
            (a, b) => {
                let (x, y) = match (a.as_float(), b.as_float()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => {
                        return Err(RuntimeError::TypeMismatch(format!(
                            "binary {op:?} on non-numeric values"
                        )))
                    }
                };
                let v = match op {
                    Add => Value::Float(x + y),
                    Sub => Value::Float(x - y),
                    Mul => Value::Float(x * y),
                    Div => Value::Float(x / y),
                    Rem => Value::Float(x % y),
                    Lt => Value::Int((x < y) as i64),
                    Gt => Value::Int((x > y) as i64),
                    Le => Value::Int((x <= y) as i64),
                    Ge => Value::Int((x >= y) as i64),
                    _ => {
                        return Err(RuntimeError::TypeMismatch(format!(
                            "binary {op:?} on floats"
                        )))
                    }
                };
                Ok(v)
            }
        }
    }

    fn eval_new(
        &mut self,
        ty: &Type,
        args: &[Expr],
        array_len: Option<&Expr>,
        env: &mut Env,
    ) -> Result<Value, RuntimeError> {
        // Class allocation.
        if let Some(class) =
            ddm_hierarchy::by_value_class(ty).and_then(|n| self.program.class_by_name(n))
        {
            if let Some(len_expr) = array_len {
                let n = self
                    .eval(len_expr, env)?
                    .as_int()
                    .ok_or_else(|| RuntimeError::TypeMismatch("non-integer new[] length".into()))?;
                let n = usize::try_from(n)
                    .map_err(|_| RuntimeError::TypeMismatch("negative new[] length".into()))?;
                let mut ids = Vec::with_capacity(n.max(1));
                for _ in 0..n.max(1) {
                    let id = self.store.allocate(self.program, class, AllocKind::Heap);
                    self.construct(id, class, Vec::new())?;
                    ids.push(id);
                }
                let first = ids[0];
                self.store.object_mut(first).array_elems = Some(ids);
                return Ok(Value::Ptr(PtrTarget::Object(first)));
            }
            let argv = args
                .iter()
                .map(|a| self.eval(a, env))
                .collect::<Result<Vec<_>, _>>()?;
            let id = self.store.allocate(self.program, class, AllocKind::Heap);
            self.construct(id, class, argv)?;
            return Ok(Value::Ptr(PtrTarget::Object(id)));
        }
        // Scalar allocation.
        match array_len {
            Some(len_expr) => {
                let n = self
                    .eval(len_expr, env)?
                    .as_int()
                    .ok_or_else(|| RuntimeError::TypeMismatch("non-integer new[] length".into()))?;
                let n = usize::try_from(n)
                    .map_err(|_| RuntimeError::TypeMismatch("negative new[] length".into()))?;
                let cells: Vec<CellRef> = (0..n)
                    .map(|_| cell(default_value(self.program, ty)))
                    .collect();
                let arr: ArrayRef = Rc::new(std::cell::RefCell::new(cells));
                Ok(Value::Ptr(PtrTarget::Element {
                    array: arr,
                    index: 0,
                }))
            }
            None => {
                let init = match args.first() {
                    Some(a) => self.eval(a, env)?,
                    None => default_value(self.program, ty),
                };
                Ok(Value::Ptr(PtrTarget::Cell(cell(init))))
            }
        }
    }

    fn do_delete(&mut self, v: Value, _is_array: bool) -> Result<(), RuntimeError> {
        match v {
            Value::Ptr(PtrTarget::Null) => Ok(()), // delete nullptr is a no-op
            Value::Ptr(PtrTarget::Object(id)) => {
                if !self.store.object(id).alive {
                    return Ok(()); // double delete: tolerated, like free
                }
                let elems = self.store.object(id).array_elems.clone();
                match elems {
                    Some(list) => {
                        for e in list.into_iter().rev() {
                            if self.store.object(e).alive {
                                let class = self.store.object(e).class;
                                self.destruct(e, class)?;
                                self.store.deallocate(e);
                            }
                        }
                        Ok(())
                    }
                    None => {
                        let class = self.store.object(id).class;
                        self.destruct(id, class)?;
                        self.store.deallocate(id);
                        Ok(())
                    }
                }
            }
            Value::Ptr(PtrTarget::Cell(_)) | Value::Ptr(PtrTarget::Element { .. }) => Ok(()),
            other => Err(RuntimeError::TypeMismatch(format!(
                "delete of non-pointer {other:?}"
            ))),
        }
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        env: &mut Env,
    ) -> Result<Value, RuntimeError> {
        match &callee.kind {
            ExprKind::Ident(name) => {
                // Builtins (unless shadowed by a user function or local).
                if let Some(b) = Builtin::from_name(name) {
                    if self.program.free_function(name).is_none() && env.get(name).is_none() {
                        return self.eval_builtin(b, args, env);
                    }
                }
                // Local or global function pointer.
                if let Some(Binding::Cell(c)) =
                    env.get(name).or_else(|| self.globals.get(name).cloned())
                {
                    let v = c.borrow().clone();
                    if let Value::FnPtr(f) = v {
                        let argv = self.eval_args(f, args, env)?;
                        return self.call_function(f, argv, None);
                    }
                }
                // Implicit this->method(...).
                if let Some(this) = env.this_obj {
                    let class = self.dispatch_class(this);
                    if let Ok(Found::Method { func, .. }) = self.lookup.member(class, name) {
                        let argv = self.eval_args(func, args, env)?;
                        return self.call_function(func, argv, Some(this));
                    }
                }
                if let Some(f) = self.program.free_function(name) {
                    let argv = self.eval_args(f, args, env)?;
                    return self.call_function(f, argv, None);
                }
                Err(RuntimeError::Unsupported(format!(
                    "call to unknown function `{name}`"
                )))
            }
            ExprKind::Member {
                base,
                arrow,
                qualifier,
                name,
            } => {
                let base_v = self.eval(base, env)?;
                let obj = self.expect_object(base_v, *arrow)?;
                let dynamic_class = self.dispatch_class(obj);
                let lookup_class = match qualifier {
                    Some(q) => self
                        .program
                        .class_by_name(q)
                        .ok_or_else(|| RuntimeError::Lookup(q.clone()))?,
                    None => dynamic_class,
                };
                match self
                    .lookup
                    .member(lookup_class, name)
                    .map_err(|e| RuntimeError::Lookup(e.to_string()))?
                {
                    Found::Method { func, .. } => {
                        let argv = self.eval_args(func, args, env)?;
                        self.call_function(func, argv, Some(obj))
                    }
                    Found::Data(m) => {
                        // Function-pointer data member.
                        self.members_observed.insert(m);
                        let c = self
                            .store
                            .field(obj, m)
                            .ok_or_else(|| RuntimeError::UnknownMember(name.clone()))?;
                        let v = c.borrow().clone();
                        match v {
                            Value::FnPtr(f) => {
                                let argv = self.eval_args(f, args, env)?;
                                self.call_function(f, argv, None)
                            }
                            other => Err(RuntimeError::TypeMismatch(format!(
                                "calling non-function member {other:?}"
                            ))),
                        }
                    }
                }
            }
            _ => {
                let v = self.eval(callee, env)?;
                match v {
                    Value::FnPtr(f) => {
                        let argv = self.eval_args(f, args, env)?;
                        self.call_function(f, argv, None)
                    }
                    other => Err(RuntimeError::TypeMismatch(format!(
                        "calling non-function value {other:?}"
                    ))),
                }
            }
        }
    }

    /// Evaluates call arguments against the callee's parameter list:
    /// reference parameters receive an alias of the argument's place,
    /// everything else is passed by value.
    fn eval_args(
        &mut self,
        func: FuncId,
        args: &[Expr],
        env: &mut Env,
    ) -> Result<Vec<Arg>, RuntimeError> {
        let param_tys: Vec<Type> = self
            .program
            .function(func)
            .params
            .iter()
            .map(|p| p.ty.clone())
            .collect();
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let is_ref = param_tys
                .get(i)
                .is_some_and(|t| matches!(t.kind, TypeKind::Reference(_)));
            if is_ref {
                let place = self.eval_place(a, env)?;
                self.record_member_read(a, env);
                match place {
                    Place::Cell(c) => out.push(Arg::Ref(c)),
                    Place::Object(id) => out.push(Arg::Value(Value::Ptr(PtrTarget::Object(id)))),
                }
            } else {
                out.push(Arg::Value(self.eval(a, env)?));
            }
        }
        Ok(out)
    }

    fn eval_builtin(
        &mut self,
        b: Builtin,
        args: &[Expr],
        env: &mut Env,
    ) -> Result<Value, RuntimeError> {
        use std::fmt::Write as _;
        match b {
            Builtin::PrintInt => {
                let v = self.eval_arg1(args, env)?;
                let n = v
                    .as_int()
                    .ok_or_else(|| RuntimeError::TypeMismatch("print_int of non-int".into()))?;
                let _ = writeln!(self.output, "{n}");
            }
            Builtin::PrintChar => {
                let v = self.eval_arg1(args, env)?;
                let n = v
                    .as_int()
                    .ok_or_else(|| RuntimeError::TypeMismatch("print_char of non-char".into()))?;
                self.output
                    .push(char::from_u32(n as u32).unwrap_or('\u{FFFD}'));
            }
            Builtin::PrintFloat => {
                let v = self.eval_arg1(args, env)?;
                let n = v
                    .as_float()
                    .ok_or_else(|| RuntimeError::TypeMismatch("print_float of non-float".into()))?;
                let _ = writeln!(self.output, "{n}");
            }
            Builtin::PrintStr => {
                let v = self.eval_arg1(args, env)?;
                match v {
                    Value::Str(s) => self.output.push_str(&s),
                    other => {
                        return Err(RuntimeError::TypeMismatch(format!(
                            "print_str of {other:?}"
                        )))
                    }
                }
            }
            Builtin::Free => {
                let v = self.eval_arg1(args, env)?;
                // free() releases storage without running destructors.
                if let Value::Ptr(PtrTarget::Object(id)) = v {
                    self.store.deallocate(id);
                }
            }
        }
        Ok(Value::Void)
    }

    fn eval_arg1(&mut self, args: &[Expr], env: &mut Env) -> Result<Value, RuntimeError> {
        match args {
            [a] => self.eval(a, env),
            _ => Err(RuntimeError::ArityMismatch {
                function: "builtin".to_string(),
                expected: 1,
                got: args.len(),
            }),
        }
    }
}

/// Value-level cast semantics: numeric conversions narrow/widen; pointer
/// casts are identity (the object model is typeless at runtime).
fn cast_value(v: Value, ty: &Type) -> Value {
    match &ty.kind {
        TypeKind::Int | TypeKind::Long | TypeKind::Short | TypeKind::Char | TypeKind::Bool => {
            match v {
                Value::Float(f) => Value::Int(f as i64),
                Value::Int(i) => Value::Int(match ty.kind {
                    TypeKind::Bool => (i != 0) as i64,
                    TypeKind::Char => i as u8 as i64,
                    TypeKind::Short => i as i16 as i64,
                    _ => i,
                }),
                other => other,
            }
        }
        TypeKind::Float | TypeKind::Double => match v {
            Value::Int(i) => Value::Float(i as f64),
            other => other,
        },
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn run(src: &str) -> Execution {
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        Interpreter::new(&p)
            .run(&RunConfig::default())
            .expect("run")
    }

    fn run_err(src: &str) -> RuntimeError {
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        Interpreter::new(&p)
            .run(&RunConfig::default())
            .expect_err("expected a runtime error")
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let e = run(
            "int main() { int t = 0; for (int i = 1; i <= 10; i++) { if (i % 2 == 0) t += i; } return t; }",
        );
        assert_eq!(e.exit_code, 30);
    }

    #[test]
    fn while_do_while_break_continue() {
        let e = run("int main() {\n\
               int n = 0; int i = 0;\n\
               while (true) { i++; if (i > 5) break; if (i == 2) continue; n += i; }\n\
               do { n += 100; } while (false);\n\
               return n;\n\
             }");
        assert_eq!(e.exit_code, 1 + 3 + 4 + 5 + 100);
    }

    #[test]
    fn function_calls_and_recursion() {
        let e = run(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
             int main() { return fib(10); }",
        );
        assert_eq!(e.exit_code, 55);
    }

    #[test]
    fn class_members_and_methods() {
        let e = run("class Counter {\n\
             public:\n\
               int n;\n\
               Counter() : n(0) { }\n\
               void bump(int by) { n = n + by; }\n\
               int get() { return n; }\n\
             };\n\
             int main() { Counter c; c.bump(3); c.bump(4); return c.get(); }");
        assert_eq!(e.exit_code, 7);
    }

    #[test]
    fn virtual_dispatch_uses_dynamic_type() {
        let e = run("class A { public: virtual int f() { return 1; } };\n\
             class B : public A { public: virtual int f() { return 2; } };\n\
             int main() { B b; A* p = &b; return p->f(); }");
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn qualified_call_bypasses_dispatch() {
        let e = run("class A { public: virtual int f() { return 1; } };\n\
             class B : public A { public: virtual int f() { return 2; } };\n\
             int main() { B b; B* p = &b; return p->A::f(); }");
        assert_eq!(e.exit_code, 1);
    }

    #[test]
    fn inherited_members_shared_with_base() {
        let e = run("class A { public: int x; int getx() { return x; } };\n\
             class B : public A { public: void setx(int v) { x = v; } };\n\
             int main() { B b; b.setx(9); return b.getx(); }");
        assert_eq!(e.exit_code, 9);
    }

    #[test]
    fn constructors_run_bases_members_then_body() {
        let e = run(
            "class Base { public: int b; Base() : b(10) { } };\n\
             class Part { public: int p; Part() : p(5) { } };\n\
             class Whole : public Base { public: Part part; int w; Whole() : w(1) { w = w + b + part.p; } };\n\
             int main() { Whole x; return x.w; }",
        );
        assert_eq!(e.exit_code, 16);
    }

    #[test]
    fn new_delete_and_trace() {
        let e = run("class A { public: int x; A(int v) : x(v) { } };\n\
             int main() { A* p = new A(42); int v = p->x; delete p; return v; }");
        assert_eq!(e.exit_code, 42);
        assert_eq!(e.trace.allocation_count(), 1);
        assert_eq!(e.trace.events().len(), 2);
    }

    #[test]
    fn new_array_and_delete_array() {
        let e = run(
            "class A { public: int x; A() : x(7) { } };\n\
             int main() { A* arr = new A[3]; int t = arr[0].x + arr[2].x; delete[] arr; return t; }",
        );
        assert_eq!(e.exit_code, 14);
        assert_eq!(e.trace.allocation_count(), 3);
        assert_eq!(e.trace.events().len(), 6);
    }

    #[test]
    fn stack_objects_deallocate_at_scope_exit() {
        let e = run("class A { public: int x; };\n\
             int main() { { A a; a.x = 1; } { A b; b.x = 2; } return 0; }");
        // Two allocations, two scope-exit deallocations.
        assert_eq!(e.trace.allocation_count(), 2);
        assert_eq!(e.trace.events().len(), 4);
        let deltas: Vec<i8> = e.trace.events().iter().map(|ev| ev.delta).collect();
        assert_eq!(deltas, vec![1, -1, 1, -1]);
    }

    #[test]
    fn destructors_run_in_reverse_order() {
        let e = run(
            "class Logger { public: int id; Logger(int i) : id(i) { } ~Logger() { print_int(id); } };\n\
             int main() { Logger a(1); Logger b(2); return 0; }",
        );
        assert_eq!(e.output, "2\n1\n");
    }

    #[test]
    fn virtual_destructor_dispatches() {
        let e = run("class A { public: virtual ~A() { print_int(1); } };\n\
             class B : public A { public: ~B() { print_int(2); } };\n\
             int main() { A* p = new B(); delete p; return 0; }");
        // B's dtor then A's (base) dtor.
        assert_eq!(e.output, "2\n1\n");
    }

    #[test]
    fn scalar_heap_arrays_and_pointer_arithmetic() {
        let e = run("int main() {\n\
               int* a = new int[5];\n\
               for (int i = 0; i < 5; i++) { a[i] = i * i; }\n\
               int* p = a + 2;\n\
               int v = *p + a[4];\n\
               delete[] a;\n\
               return v;\n\
             }");
        assert_eq!(e.exit_code, 4 + 16);
    }

    #[test]
    fn member_arrays() {
        let e = run("class Buf { public: int data[4]; };\n\
             int main() { Buf b; b.data[1] = 5; b.data[3] = 7; return b.data[1] + b.data[3]; }");
        assert_eq!(e.exit_code, 12);
    }

    #[test]
    fn function_pointers() {
        let e = run(
            "int add(int a, int b) { return a + b; }\n\
             int mul(int a, int b) { return a * b; }\n\
             int main() { int (*op)(int, int) = add; int x = op(2, 3); op = &mul; return x + op(2, 3); }",
        );
        assert_eq!(e.exit_code, 11);
    }

    #[test]
    fn pointer_to_member_access() {
        let e = run("class A { public: int m; A() : m(33) { } };\n\
             int main() { int A::* pm = &A::m; A a; A* p = &a; return a.*pm + p->*pm; }");
        assert_eq!(e.exit_code, 66);
    }

    #[test]
    fn globals_initialized_before_main() {
        let e = run("int g = 5;\n\
             class C { public: int v; C() : v(7) { } };\n\
             C gc;\n\
             int main() { return g + gc.v; }");
        assert_eq!(e.exit_code, 12);
        // The global object allocates and never deallocates.
        assert_eq!(e.trace.allocation_count(), 1);
        assert_eq!(e.trace.events().len(), 1);
    }

    #[test]
    fn output_builtins() {
        let e = run(
            "int main() { print_str(\"n=\"); print_int(42); print_char('x'); print_float(1.5); return 0; }",
        );
        assert_eq!(e.output, "n=42\nx1.5\n");
    }

    #[test]
    fn members_observed_oracle_records_reads_not_writes() {
        let e = run("class A { public: int r; int w; };\n\
             int main() { A a; a.w = 1; return a.r; }");
        assert_eq!(e.members_observed.len(), 1, "only the read member");
    }

    #[test]
    fn address_of_member_is_observed() {
        let e = run("class A { public: int m; };\n\
             int main() { A a; int* p = &a.m; *p = 4; return 0; }");
        assert_eq!(e.members_observed.len(), 1);
    }

    #[test]
    fn implicit_this_reads_are_observed() {
        let e = run("class A { public: int m; int get() { return m; } };\n\
             int main() { A a; return a.get(); }");
        assert_eq!(e.members_observed.len(), 1);
    }

    #[test]
    fn null_deref_is_an_error() {
        let err = run_err(
            "class A { public: int x; };\n\
             int main() { A* p = nullptr; return p->x; }",
        );
        assert_eq!(err, RuntimeError::NullDeref);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let err = run_err("int main() { int z = 0; return 5 / z; }");
        assert_eq!(err, RuntimeError::DivideByZero);
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let tu = parse("int main() { while (true) { } return 0; }").unwrap();
        let p = Program::build(&tu).unwrap();
        let err = Interpreter::new(&p)
            .run(&RunConfig { fuel: 10_000 })
            .unwrap_err();
        assert_eq!(err, RuntimeError::OutOfFuel);
    }

    #[test]
    fn out_of_bounds_index_is_an_error() {
        let err = run_err("int main() { int a[3]; return a[7]; }");
        assert!(matches!(err, RuntimeError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn delete_null_is_noop() {
        let e =
            run("class A { public: int x; }; int main() { A* p = nullptr; delete p; return 3; }");
        assert_eq!(e.exit_code, 3);
    }

    #[test]
    fn figure1_program_runs() {
        let e = run(
            "class N { public: int mn1; int mn2; };\n\
             class A { public: virtual int f() { return ma1; } int ma1; int ma2; int ma3; };\n\
             class B : public A { public: virtual int f() { return mb1; } int mb1; N mb2; int mb3; int mb4; };\n\
             class C : public A { public: virtual int f() { return mc1; } int mc1; };\n\
             int foo(int* x) { return (*x) + 1; }\n\
             int main() {\n\
               A a; B b; C c; A* ap;\n\
               a.ma3 = b.mb3 + 1;\n\
               int i = 10;\n\
               if (i < 20) { ap = &a; } else { ap = &b; }\n\
               return ap->f() + b.mb2.mn1 + foo(&b.mb4);\n\
             }",
        );
        // Everything is zero-initialized: f() returns 0, mn1 is 0, foo(&0)+1.
        assert_eq!(e.exit_code, 1);
        assert_eq!(e.trace.allocation_count(), 3);
    }

    #[test]
    fn enum_constants_evaluate() {
        let e = run("enum State { Idle = 1, Busy = 4 };\n\
             int main() { State s = Busy; if (s == Busy) return Idle + Busy; return 0; }");
        assert_eq!(e.exit_code, 5);
    }

    #[test]
    fn ternary_and_comma() {
        let e = run("int main() { int a = 1; int b = (a = 5, a > 2 ? 10 : 20); return a + b; }");
        assert_eq!(e.exit_code, 15);
    }

    #[test]
    fn casts_between_numeric_types() {
        let e =
            run("int main() { double d = 3.9; int i = (int)d; char c = (char)321; return i + c; }");
        assert_eq!(e.exit_code, 3 + 65);
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use ddm_cppfront::parse;

    fn run(src: &str) -> Execution {
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        Interpreter::new(&p)
            .run(&RunConfig::default())
            .expect("run")
    }

    #[test]
    fn reference_parameter_aliases_local() {
        let e = run("void bump(int& x) { x = x + 1; }\n\
             int main() { int v = 5; bump(v); bump(v); return v; }");
        assert_eq!(e.exit_code, 7);
    }

    #[test]
    fn reference_parameter_aliases_member() {
        let e = run("class A { public: int n; };\n\
             void set(int& slot, int v) { slot = v; }\n\
             int main() { A a; set(a.n, 42); return a.n; }");
        assert_eq!(e.exit_code, 42);
    }

    #[test]
    fn reference_parameter_aliases_array_element() {
        let e = run("void zero(int& x) { x = 0; }\n\
             int main() { int buf[3]; buf[1] = 9; zero(buf[1]); return buf[1] + 4; }");
        assert_eq!(e.exit_code, 4);
    }

    #[test]
    fn swap_through_references() {
        let e = run("void swap(int& a, int& b) { int t = a; a = b; b = t; }\n\
             int main() { int x = 3; int y = 8; swap(x, y); return x * 10 + y; }");
        assert_eq!(e.exit_code, 83);
    }

    #[test]
    fn value_parameter_does_not_alias() {
        let e = run("void try_bump(int x) { x = x + 1; }\n\
             int main() { int v = 5; try_bump(v); return v; }");
        assert_eq!(e.exit_code, 5);
    }

    #[test]
    fn reference_to_member_read_is_observed_for_oracle() {
        let e = run("class A { public: int n; };\n\
             int get(int& slot) { return slot; }\n\
             int main() { A a; a.n = 6; return get(a.n); }");
        // Passing a.n by reference and reading it through the reference
        // must register as an observation of A::n.
        assert_eq!(e.exit_code, 6);
        assert_eq!(e.members_observed.len(), 1);
    }
}

#[cfg(test)]
mod switch_tests {
    use super::*;
    use ddm_cppfront::parse;

    fn run(src: &str) -> Execution {
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        Interpreter::new(&p)
            .run(&RunConfig::default())
            .expect("run")
    }

    #[test]
    fn switch_selects_matching_case() {
        let e = run("int classify(int x) {\n\
               switch (x) {\n\
                 case 1: return 10;\n\
                 case 2: return 20;\n\
                 default: return 99;\n\
               }\n\
             }\n\
             int main() { return classify(2) + classify(1) + classify(7); }");
        assert_eq!(e.exit_code, 129);
    }

    #[test]
    fn switch_falls_through_without_break() {
        let e = run("int main() {\n\
               int acc = 0;\n\
               switch (2) {\n\
                 case 1: acc = acc + 1;\n\
                 case 2: acc = acc + 10;\n\
                 case 3: acc = acc + 100;\n\
                 default: acc = acc + 1000;\n\
               }\n\
               return acc;\n\
             }");
        assert_eq!(e.exit_code, 1110, "2 falls through 3 and default");
    }

    #[test]
    fn switch_break_stops_fallthrough() {
        let e = run("int main() {\n\
               int acc = 0;\n\
               switch (1) {\n\
                 case 1: acc = acc + 1; break;\n\
                 case 2: acc = acc + 10; break;\n\
               }\n\
               return acc;\n\
             }");
        assert_eq!(e.exit_code, 1);
    }

    #[test]
    fn switch_without_match_or_default_is_skipped() {
        let e = run("int main() { int x = 5; switch (x) { case 1: x = 0; } return x; }");
        assert_eq!(e.exit_code, 5);
    }

    #[test]
    fn switch_on_enum_constants() {
        let e = run("enum Kind { ALPHA = 4, BETA = 9 };\n\
             int main() {\n\
               int k = BETA;\n\
               switch (k) {\n\
                 case ALPHA: return 1;\n\
                 case BETA: return 2;\n\
               }\n\
               return 0;\n\
             }");
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn return_inside_switch_propagates() {
        let e = run("int main() {\n\
               for (int i = 0; i < 10; i++) {\n\
                 switch (i) {\n\
                   case 3: return i * 2;\n\
                   default: ;\n\
                 }\n\
               }\n\
               return 0;\n\
             }");
        assert_eq!(e.exit_code, 6);
    }

    #[test]
    fn member_reads_inside_switch_are_observed() {
        let e = run("class A { public: int mode; int payload; };\n\
             int main() {\n\
               A a; a.mode = 1;\n\
               switch (a.mode) {\n\
                 case 1: return a.payload;\n\
                 default: return 0;\n\
               }\n\
             }");
        assert_eq!(e.members_observed.len(), 2);
    }
}

#[cfg(test)]
mod out_of_line_runtime_tests {
    use super::*;
    use ddm_cppfront::parse;

    #[test]
    fn out_of_line_methods_execute() {
        let tu = parse(
            "class Node { public: Node* next; int v; Node* tail(); };\n\
             Node* Node::tail() {\n\
                 Node* cur = this;\n\
                 while (cur->next != nullptr) { cur = cur->next; }\n\
                 return cur;\n\
             }\n\
             int main() { Node a; Node b; a.next = &b; b.next = nullptr; a.v = 1; b.v = 2; return a.tail()->v; }",
        )
        .unwrap();
        let p = Program::build(&tu).unwrap();
        let e = Interpreter::new(&p).run(&RunConfig::default()).unwrap();
        assert_eq!(e.exit_code, 2);
    }
}

#[cfg(test)]
mod inheritance_runtime_tests {
    use super::*;
    use ddm_cppfront::parse;

    fn run(src: &str) -> Execution {
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        Interpreter::new(&p)
            .run(&RunConfig::default())
            .expect("run")
    }

    #[test]
    fn multiple_inheritance_members_are_distinct() {
        let e = run(
            "class X { public: int xv; };\n\
             class Y { public: int yv; };\n\
             class D : public X, public Y { public: int dv; };\n\
             int main() { D d; d.xv = 1; d.yv = 2; d.dv = 4; return d.xv + d.yv + d.dv; }",
        );
        assert_eq!(e.exit_code, 7);
    }

    #[test]
    fn virtual_base_members_are_shared_at_runtime() {
        // Writing the shared virtual base member through one path and
        // reading through another must see the same storage.
        let e = run(
            "class Top { public: int shared; };\n\
             class L : public virtual Top { public: void setit(int v) { shared = v; } };\n\
             class R : public virtual Top { public: int getit() { return shared; } };\n\
             class D : public L, public R { };\n\
             int main() { D d; d.setit(42); return d.getit(); }",
        );
        assert_eq!(e.exit_code, 42);
    }

    #[test]
    fn deep_chain_dispatch_picks_most_derived_override() {
        let e = run(
            "class A { public: virtual int id() { return 1; } };\n\
             class B : public A { };\n\
             class C : public B { public: virtual int id() { return 3; } };\n\
             class E : public C { };\n\
             int main() { E e; A* p = &e; return p->id(); }",
        );
        assert_eq!(e.exit_code, 3);
    }

    #[test]
    fn base_method_sees_derived_override_via_this() {
        // Template-method pattern: a base method calling a virtual hook
        // dispatches to the derived override through `this`.
        let e = run(
            "class Base { public: int run() { return hook() * 10; } virtual int hook() { return 1; } };\n\
             class Derived : public Base { public: virtual int hook() { return 7; } };\n\
             int main() { Derived d; return d.run(); }",
        );
        assert_eq!(e.exit_code, 70);
    }

    #[test]
    fn ctor_chain_runs_base_before_member_before_body() {
        let e = run(
            "class Probe { public: int tag; Probe(int t) : tag(t) { print_int(t); } };\n\
             class Base { public: Base() { print_int(1); } };\n\
             class Whole : public Base { public: Probe p; Whole() : p(2) { print_int(3); } };\n\
             int main() { Whole w; return 0; }",
        );
        assert_eq!(e.output, "1\n2\n3\n");
    }

    #[test]
    fn dtor_chain_runs_body_then_members_then_bases() {
        let e = run(
            "class Part { public: ~Part() { print_int(2); } };\n\
             class Base { public: ~Base() { print_int(3); } };\n\
             class Whole : public Base { public: Part part; ~Whole() { print_int(1); } };\n\
             int main() { { Whole w; } return 0; }",
        );
        assert_eq!(e.output, "1\n2\n3\n");
    }

    #[test]
    fn virtual_calls_in_ctor_and_dtor_dispatch_to_the_running_class() {
        // [class.cdtor]: inside A::A and A::~A the object behaves as an
        // A, so f() and g() reach A's overrides, not B's — which would
        // read B's members before B::B set them and after B::~B ran.
        let e = run(
            "class A { public: int a_only;\n\
               A() { a_only = 5; print_int(f()); }  ~A() { print_int(g()); }\n\
               virtual int f() { return a_only; }  virtual int g() { return 10; } };\n\
             class B : public A { public: int b_unset; int b_dtor;\n\
               B() : A() { b_unset = 7; b_dtor = 3; }  ~B() { b_dtor = 0; }\n\
               virtual int f() { return b_unset; }  virtual int g() { return b_dtor; } };\n\
             int main() { B* p = new B(); delete p; return 0; }",
        );
        assert_eq!(e.output, "5\n10\n");
    }

    #[test]
    fn cdtor_dispatch_reaches_helpers_and_the_explicit_this() {
        // The rule covers calls made indirectly from the constructor and
        // through an explicit `this->`; once construction finishes the
        // object dispatches to B again, and B's space is still charged
        // to B.
        let src = "class A { public: A() { print_int(probe()); print_int(this->id()); }\n\
               int probe() { return id(); }  virtual int id() { return 1; } };\n\
             class B : public A { public: int pad; B() : A() { print_int(id()); }\n\
               virtual int id() { return 2; } };\n\
             int main() { B b; A* p = &b; print_int(p->id()); return 0; }";
        let e = run(src);
        assert_eq!(e.output, "1\n1\n2\n2\n");
        let p = Program::build(&parse(src).unwrap()).unwrap();
        let b = p.class_by_name("B").unwrap();
        assert!(!e.trace.events().is_empty());
        assert!(e.trace.events().iter().all(|ev| ev.class == b));
    }

    #[test]
    fn qualified_base_member_access_through_derived() {
        let e = run(
            "class A { public: int m; };\n\
             class B : public A { public: int m; };\n\
             int main() { B b; b.m = 5; b.A::m = 9; return b.A::m * 10 + b.m; }",
        );
        assert_eq!(e.exit_code, 95);
    }
}
