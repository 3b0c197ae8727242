//! Per-translation-unit summary modules: the cache unit of the
//! multi-TU (project-mode) pipeline.
//!
//! A [`TuModule`] is everything the linker needs to know about one TU
//! *without re-parsing it*: the classes, enums, globals, and free
//! functions it defines, plus one walk-once [`FnSummary`] per function —
//! stored **symbolically** (names and per-class indices instead of
//! `ClassId`/`FuncId`), so a module stays valid no matter which other
//! TUs it is later linked with. Cross-TU candidate sets (virtual
//! dispatch tables, `delete` destructor obligations) are deliberately
//! *not* stored: the linker re-derives them from the linked hierarchy,
//! which is exactly what whole-program extraction would have computed.
//!
//! The cache files hold modules in the binary codec of
//! [`binmod`](crate::binmod), whose entry reader runs
//! [`TuModule::validate`] on every module it accepts. The versioned
//! JSON document of [`TuModule::to_json`]/[`TuModule::from_json`] (the
//! codec reuses [`ddm_telemetry::json`]) is no longer a cache format;
//! it stays for the repository benchmark's traced replica, which still
//! renders and reads it.

use crate::ids::{ClassId, FuncId, MemberRef};
use crate::model::Program;
use crate::summary::{
    CgStep, DeleteSite, FnSummary, LiveStep, MarkAllCause, MemberAccessKind, ProgramSummary,
    VirtualSite,
};
use crate::typewalk::{TypeError, TypeErrorKind};
use crate::LookupError;
use ddm_cppfront::ast::{ClassKind, FnType, FunctionKind, Type, TypeKind};
use ddm_cppfront::{SourceMap, TranslationUnit};
use ddm_telemetry::json::{self, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Version of the on-disk module format. Bumped on any incompatible
/// codec change; entries with a different version are invalidated.
pub const MODULE_FORMAT_VERSION: i64 = 1;

/// FNV-1a 64-bit hash (the content hash of the cache key and the body
/// fingerprints used for ODR comparison).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a hash as the fixed-width hex form used in file names and
/// envelopes.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// A function reference by stable name rather than by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymFunc {
    /// A free function, by name (C-style linkage: names only).
    Free(String),
    /// A method, by declaring class name and position in that class's
    /// method list. Stable across TUs because ODR-identical class
    /// definitions have identical method lists.
    Method {
        /// Declaring class name.
        class: String,
        /// Index into the class's method list.
        index: u32,
    },
}

/// A data member reference by class name and declaration index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymMember {
    /// Declaring class name.
    pub class: String,
    /// Index into the class's data-member list.
    pub index: u32,
}

/// Symbolic form of [`LiveStep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymLiveStep {
    /// A single member is livened.
    Access {
        /// The accessed member.
        member: SymMember,
        /// How it is accessed.
        kind: MemberAccessKind,
    },
    /// All members contained in `class` are livened.
    MarkAll {
        /// Root class of the containment closure, by name.
        class: String,
        /// Why, including any configuration gate.
        cause: MarkAllCause,
    },
}

/// Symbolic form of [`CgStep`]. Virtual-call and `delete` sites store
/// only what is TU-local (the static receiver / deleted class and any
/// points-to refinement); the linker recomputes candidate tables from
/// the linked hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymCgStep {
    /// A statically bound call.
    Call(SymFunc),
    /// A virtual dispatch site.
    VirtualCall {
        /// The statically resolved declaration.
        decl: SymFunc,
        /// The static receiver class name.
        receiver: String,
        /// §3.1 points-to refinement, when it applied (TU-computable:
        /// a receiver's full ancestry is visible in its own TU).
        refined: Option<Vec<SymFunc>>,
    },
    /// An indirect call through a function pointer.
    FnPointerCall,
    /// A function whose address is taken.
    TakeAddress(SymFunc),
    /// An object instantiation.
    Instantiate {
        /// The instantiated class name.
        class: String,
        /// The constructor that runs, when resolvable.
        ctor: Option<SymFunc>,
    },
    /// A `delete` of a pointer to `class`.
    Delete {
        /// The static class of the deleted pointer.
        class: String,
    },
}

/// Symbolic form of [`FnSummary`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymFnSummary {
    /// Liveness facts in body order.
    pub live_steps: Vec<SymLiveStep>,
    /// Call-graph facts in body order.
    pub cg_steps: Vec<SymCgStep>,
}

/// A symbolic summary or the walk error the body produced.
pub type SymResult = Result<SymFnSummary, TypeError>;

/// One data member of a [`ClassRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberRecord {
    /// Member name.
    pub name: String,
    /// Resolved type (enums already normalized to `int`).
    pub ty: Type,
    /// Whether the member is `volatile`.
    pub is_volatile: bool,
}

/// One method of a [`ClassRecord`], with its summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRecord {
    /// Method name.
    pub name: String,
    /// Method / constructor / destructor.
    pub kind: FunctionKind,
    /// Resolved virtualness (per-TU propagation equals whole-program
    /// propagation: a class's complete ancestry is TU-visible).
    pub is_virtual: bool,
    /// Parameter count (constructor overloads resolve by arity).
    pub arity: u32,
    /// Whether the method has a body.
    pub has_body: bool,
    /// FNV-1a fingerprint of the method's source text, for ODR
    /// comparison across TUs.
    pub body_fp: u64,
    /// Whether the method has a constructor-initializer list.
    pub has_inits: bool,
    /// 1-based declaration line (diagnostics).
    pub line: u32,
    /// 1-based declaration column (diagnostics).
    pub col: u32,
    /// The walk-once summary, or the error the walk produced.
    pub summary: SymResult,
}

/// One class definition in a TU.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRecord {
    /// Class name.
    pub name: String,
    /// `class` / `struct` / `union`.
    pub kind: ClassKind,
    /// Direct bases: (name, is_virtual), in declaration order.
    pub bases: Vec<(String, bool)>,
    /// Data members in declaration order.
    pub members: Vec<MemberRecord>,
    /// Methods in declaration order.
    pub methods: Vec<MethodRecord>,
    /// 1-based definition line (diagnostics).
    pub line: u32,
    /// 1-based definition column (diagnostics).
    pub col: u32,
}

impl ClassRecord {
    /// ODR identity: two definitions merge iff everything that affects
    /// analysis is equal — name, kind, bases, members, and each method's
    /// signature-and-text identity. Locations and summaries are
    /// excluded (summaries of textually identical methods over
    /// ODR-identical hierarchies are equal by construction).
    pub fn odr_eq(&self, other: &ClassRecord) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.bases == other.bases
            && self.members == other.members
            && self.methods.len() == other.methods.len()
            && self
                .methods
                .iter()
                .zip(&other.methods)
                .all(|(a, b)| {
                    a.name == b.name
                        && a.kind == b.kind
                        && a.is_virtual == b.is_virtual
                        && a.arity == b.arity
                        && a.has_body == b.has_body
                        && a.body_fp == b.body_fp
                        && a.has_inits == b.has_inits
                })
    }
}

/// One enum definition in a TU.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumRecord {
    /// Enum name.
    pub name: String,
    /// Enumerators with resolved values, in declaration order.
    pub variants: Vec<(String, i64)>,
    /// 1-based definition line.
    pub line: u32,
    /// 1-based definition column.
    pub col: u32,
}

/// One global variable definition in a TU.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRecord {
    /// Variable name.
    pub name: String,
    /// Resolved type.
    pub ty: Type,
    /// 1-based definition line.
    pub line: u32,
    /// 1-based definition column.
    pub col: u32,
}

/// One free function (definition or prototype) in a TU.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeFnRecord {
    /// Function name.
    pub name: String,
    /// Parameter count.
    pub arity: u32,
    /// Whether this record is a definition (`true`) or a body-less
    /// prototype (`false`).
    pub has_body: bool,
    /// FNV-1a fingerprint of the declaration's source text.
    pub body_fp: u64,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// The walk-once summary (empty for prototypes), or the walk error.
    pub summary: SymResult,
}

/// Everything one TU contributes to a linked program.
#[derive(Debug, Clone, PartialEq)]
pub struct TuModule {
    /// The TU's file name (display only; not part of the cache key).
    pub file: String,
    /// FNV-1a hash of the TU source text.
    pub source_hash: u64,
    /// Class definitions in declaration order. Shared (`Arc`) because
    /// snapshot decoding materializes one record per distinct class
    /// and every TU that repeats it (shared headers) references the
    /// same allocation.
    pub classes: Vec<Arc<ClassRecord>>,
    /// Enum definitions in declaration order.
    pub enums: Vec<EnumRecord>,
    /// Global variables in declaration order.
    pub globals: Vec<GlobalRecord>,
    /// Free functions (definitions and prototypes) in declaration order.
    pub free_fns: Vec<FreeFnRecord>,
    /// The global-initializer summary of this TU.
    pub globals_summary: SymResult,
}

impl TuModule {
    /// Extracts the module of one TU from its parsed and summarized
    /// forms. `map` provides the source text (for content hash, body
    /// fingerprints, and line/column positions).
    pub fn extract(
        tu: &TranslationUnit,
        program: &Program,
        summary: &ProgramSummary,
        map: &SourceMap,
    ) -> TuModule {
        let loc = |span: ddm_cppfront::Span| {
            let lc = map.lookup(span.lo);
            (lc.line, lc.col)
        };
        let classes = program
            .classes()
            .map(|(_, info)| {
                let (line, col) = loc(info.span);
                Arc::new(ClassRecord {
                    name: info.name.clone(),
                    kind: info.kind,
                    bases: info
                        .bases
                        .iter()
                        .map(|b| (program.class(b.id).name.clone(), b.is_virtual))
                        .collect(),
                    members: info
                        .members
                        .iter()
                        .map(|m| MemberRecord {
                            name: m.name.clone(),
                            ty: m.ty.clone(),
                            is_volatile: m.is_volatile,
                        })
                        .collect(),
                    methods: info
                        .methods
                        .iter()
                        .map(|&fid| {
                            let f = program.function(fid);
                            let (line, col) = loc(f.span);
                            MethodRecord {
                                name: f.name.clone(),
                                kind: f.kind,
                                is_virtual: f.is_virtual,
                                arity: f.params.len() as u32,
                                has_body: f.body.is_some(),
                                body_fp: fnv1a64(map.snippet(f.span).as_bytes()),
                                has_inits: !f.inits.is_empty(),
                                line,
                                col,
                                summary: sym_result(program, summary.function(fid)),
                            }
                        })
                        .collect(),
                    line,
                    col,
                })
            })
            .collect();
        let free_fns = program
            .functions()
            .filter(|(_, f)| f.class.is_none())
            .map(|(fid, f)| {
                let (line, col) = loc(f.span);
                FreeFnRecord {
                    name: f.name.clone(),
                    arity: f.params.len() as u32,
                    has_body: f.body.is_some(),
                    body_fp: fnv1a64(map.snippet(f.span).as_bytes()),
                    line,
                    col,
                    summary: sym_result(program, summary.function(fid)),
                }
            })
            .collect();
        let enums = tu
            .enums
            .iter()
            .map(|e| {
                let (line, col) = loc(e.at(e.span));
                EnumRecord {
                    name: e.name.clone(),
                    variants: e.variants.clone(),
                    line,
                    col,
                }
            })
            .collect();
        let globals = program
            .globals()
            .iter()
            .map(|g| {
                let (line, col) = loc(g.span);
                GlobalRecord {
                    name: g.name.clone(),
                    ty: g.ty.clone(),
                    line,
                    col,
                }
            })
            .collect();
        TuModule {
            file: map.name().to_string(),
            source_hash: fnv1a64(map.source().as_bytes()),
            classes,
            enums,
            globals,
            free_fns,
            globals_summary: sym_result(program, summary.globals()),
        }
    }

    /// Serializes the module with its envelope (version, configuration
    /// fingerprint, source hash).
    pub fn to_json(&self, fingerprint: &str) -> String {
        Value::Obj(vec![
            ("version".into(), Value::Int(MODULE_FORMAT_VERSION)),
            ("fingerprint".into(), Value::Str(fingerprint.to_string())),
            ("source_hash".into(), Value::Str(hash_hex(self.source_hash))),
            ("file".into(), Value::Str(self.file.clone())),
            (
                "classes".into(),
                Value::Arr(self.classes.iter().map(|c| class_to_json(c)).collect()),
            ),
            (
                "enums".into(),
                Value::Arr(self.enums.iter().map(enum_to_json).collect()),
            ),
            (
                "globals".into(),
                Value::Arr(self.globals.iter().map(global_to_json).collect()),
            ),
            (
                "free_fns".into(),
                Value::Arr(self.free_fns.iter().map(free_fn_to_json).collect()),
            ),
            (
                "globals_summary".into(),
                sym_result_to_json(&self.globals_summary),
            ),
        ])
        .render()
    }

    /// Deserializes a module, rejecting anything that does not match
    /// `fingerprint` and `source_hash` or fails internal validation.
    ///
    /// # Errors
    ///
    /// Any parse failure, envelope mismatch, or dangling symbolic
    /// reference — all of which mean "invalidate and recompute".
    pub fn from_json(doc: &str, fingerprint: &str, source_hash: u64) -> Result<TuModule, String> {
        let v = json::parse(doc)?;
        if v.get("version").and_then(Value::as_int) != Some(MODULE_FORMAT_VERSION) {
            return Err("format version mismatch".to_string());
        }
        if v.get("fingerprint").and_then(Value::as_str) != Some(fingerprint) {
            return Err("configuration fingerprint mismatch".to_string());
        }
        if v.get("source_hash").and_then(Value::as_str) != Some(hash_hex(source_hash).as_str()) {
            return Err("source hash mismatch".to_string());
        }
        let file = req_str(&v, "file")?.to_string();
        let classes = req_arr(&v, "classes")?
            .iter()
            .map(|c| class_from_json(c).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let enums = req_arr(&v, "enums")?
            .iter()
            .map(enum_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let globals = req_arr(&v, "globals")?
            .iter()
            .map(global_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let free_fns = req_arr(&v, "free_fns")?
            .iter()
            .map(free_fn_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let globals_summary =
            sym_result_from_json(v.get("globals_summary").ok_or("missing globals_summary")?)?;
        let module = TuModule {
            file,
            source_hash,
            classes,
            enums,
            globals,
            free_fns,
            globals_summary,
        };
        module.validate()?;
        Ok(module)
    }

    /// Checks that every symbolic reference resolves within this
    /// module's own records. Genuine modules always pass: a per-TU
    /// summary can only reference names defined in its own TU (the
    /// self-containment contract), so a failure here proves the entry
    /// was corrupted or hand-crafted.
    pub fn validate(&self) -> Result<(), String> {
        let classes: HashMap<&str, &ClassRecord> = self
            .classes
            .iter()
            .map(|c| (c.name.as_str(), &**c))
            .collect();
        let free_fns: std::collections::HashSet<&str> =
            self.free_fns.iter().map(|f| f.name.as_str()).collect();
        let check_class = |name: &str| -> Result<&ClassRecord, String> {
            classes
                .get(name)
                .copied()
                .ok_or_else(|| format!("dangling class reference `{name}`"))
        };
        let check_func = |f: &SymFunc| -> Result<(), String> {
            match f {
                SymFunc::Free(name) => {
                    if free_fns.contains(name.as_str()) {
                        Ok(())
                    } else {
                        Err(format!("dangling free-function reference `{name}`"))
                    }
                }
                SymFunc::Method { class, index } => {
                    let c = check_class(class)?;
                    if (*index as usize) < c.methods.len() {
                        Ok(())
                    } else {
                        Err(format!("method index {index} out of range in `{class}`"))
                    }
                }
            }
        };
        let check_summary = |s: &SymResult| -> Result<(), String> {
            let Ok(s) = s else { return Ok(()) };
            for step in &s.live_steps {
                match step {
                    SymLiveStep::Access { member, .. } => {
                        let c = check_class(&member.class)?;
                        if member.index as usize >= c.members.len() {
                            return Err(format!(
                                "member index {} out of range in `{}`",
                                member.index, member.class
                            ));
                        }
                    }
                    SymLiveStep::MarkAll { class, .. } => {
                        check_class(class)?;
                    }
                }
            }
            for step in &s.cg_steps {
                match step {
                    SymCgStep::Call(f) | SymCgStep::TakeAddress(f) => check_func(f)?,
                    SymCgStep::VirtualCall {
                        decl,
                        receiver,
                        refined,
                    } => {
                        check_func(decl)?;
                        check_class(receiver)?;
                        for f in refined.iter().flatten() {
                            check_func(f)?;
                        }
                    }
                    SymCgStep::FnPointerCall => {}
                    SymCgStep::Instantiate { class, ctor } => {
                        check_class(class)?;
                        if let Some(c) = ctor {
                            check_func(c)?;
                        }
                    }
                    SymCgStep::Delete { class } => {
                        check_class(class)?;
                    }
                }
            }
            Ok(())
        };
        for c in &self.classes {
            for (base, _) in &c.bases {
                check_class(base)?;
            }
            for m in &c.methods {
                check_summary(&m.summary)?;
            }
        }
        for f in &self.free_fns {
            check_summary(&f.summary)?;
        }
        check_summary(&self.globals_summary)
    }
}

fn sym_result(program: &Program, r: Result<&FnSummary, TypeError>) -> SymResult {
    r.map(|s| sym_summary(program, s))
}

fn sym_func(program: &Program, fid: FuncId) -> SymFunc {
    let f = program.function(fid);
    match f.class {
        None => SymFunc::Free(f.name.clone()),
        Some(cid) => {
            let index = program
                .class(cid)
                .methods
                .iter()
                .position(|&m| m == fid)
                .expect("a method is listed by its declaring class") as u32;
            SymFunc::Method {
                class: program.class(cid).name.clone(),
                index,
            }
        }
    }
}

fn sym_member(program: &Program, m: MemberRef) -> SymMember {
    SymMember {
        class: program.class(m.class).name.clone(),
        index: m.index,
    }
}

fn class_name(program: &Program, c: ClassId) -> String {
    program.class(c).name.clone()
}

/// Converts an id-based summary to the symbolic form.
fn sym_summary(program: &Program, s: &FnSummary) -> SymFnSummary {
    let live_steps = s
        .live_steps
        .iter()
        .map(|step| match step {
            LiveStep::Access { member, kind } => SymLiveStep::Access {
                member: sym_member(program, *member),
                kind: *kind,
            },
            LiveStep::MarkAll { class, cause } => SymLiveStep::MarkAll {
                class: class_name(program, *class),
                cause: *cause,
            },
        })
        .collect();
    let cg_steps = s
        .cg_steps
        .iter()
        .map(|step| match step {
            CgStep::Call(f) => SymCgStep::Call(sym_func(program, *f)),
            CgStep::VirtualCall(site) => SymCgStep::VirtualCall {
                decl: sym_func(program, site.decl),
                receiver: class_name(program, site.receiver),
                refined: site
                    .refined
                    .as_ref()
                    .map(|fs| fs.iter().map(|&f| sym_func(program, f)).collect()),
            },
            CgStep::FnPointerCall => SymCgStep::FnPointerCall,
            CgStep::TakeAddress(f) => SymCgStep::TakeAddress(sym_func(program, *f)),
            CgStep::Instantiate { class, ctor } => SymCgStep::Instantiate {
                class: class_name(program, *class),
                ctor: ctor.map(|c| sym_func(program, c)),
            },
            CgStep::Delete(site) => SymCgStep::Delete {
                class: class_name(program, site.class),
            },
        })
        .collect();
    SymFnSummary {
        live_steps,
        cg_steps,
    }
}

/// A resolution context over a linked program: turns symbolic summaries
/// back into id-based [`FnSummary`]s and recomputes the link-dependent
/// candidate tables. Resolution is infallible on validated modules
/// whose classes and free functions were all linked in.
pub struct SymResolver<'p> {
    program: &'p Program,
    lookup: crate::MemberLookup<'p>,
}

impl<'p> SymResolver<'p> {
    /// Creates a resolver over the linked `program`.
    pub fn new(program: &'p Program) -> SymResolver<'p> {
        SymResolver {
            program,
            lookup: crate::MemberLookup::new(program),
        }
    }

    fn class(&self, name: &str) -> ClassId {
        self.program
            .class_by_name(name)
            .expect("validated module references a linked class")
    }

    fn func(&self, f: &SymFunc) -> FuncId {
        match f {
            SymFunc::Free(name) => self
                .program
                .free_function(name)
                .expect("validated module references a linked free function"),
            SymFunc::Method { class, index } => {
                self.program.class(self.class(class)).methods[*index as usize]
            }
        }
    }

    /// Resolves one symbolic result into the id space of the linked
    /// program, recomputing virtual-dispatch and `delete` candidate
    /// tables from the linked hierarchy (exactly what whole-program
    /// extraction computes).
    pub fn resolve(&self, r: &SymResult) -> Result<FnSummary, TypeError> {
        let s = r.as_ref().map_err(Clone::clone)?;
        let live_steps = s
            .live_steps
            .iter()
            .map(|step| match step {
                SymLiveStep::Access { member, kind } => LiveStep::Access {
                    member: MemberRef::new(self.class(&member.class), member.index as usize),
                    kind: *kind,
                },
                SymLiveStep::MarkAll { class, cause } => LiveStep::MarkAll {
                    class: self.class(class),
                    cause: *cause,
                },
            })
            .collect();
        let cg_steps = s
            .cg_steps
            .iter()
            .map(|step| match step {
                SymCgStep::Call(f) => CgStep::Call(self.func(f)),
                SymCgStep::VirtualCall {
                    decl,
                    receiver,
                    refined,
                } => {
                    let decl = self.func(decl);
                    let receiver = self.class(receiver);
                    CgStep::VirtualCall(VirtualSite {
                        decl,
                        receiver,
                        candidates: self.lookup.dispatch_candidates_for(receiver, decl).to_vec(),
                        refined: refined
                            .as_ref()
                            .map(|fs| fs.iter().map(|f| self.func(f)).collect()),
                    })
                }
                SymCgStep::FnPointerCall => CgStep::FnPointerCall,
                SymCgStep::TakeAddress(f) => CgStep::TakeAddress(self.func(f)),
                SymCgStep::Instantiate { class, ctor } => CgStep::Instantiate {
                    class: self.class(class),
                    ctor: ctor.as_ref().map(|c| self.func(c)),
                },
                SymCgStep::Delete { class } => {
                    let class = self.class(class);
                    let dtor = self.program.destructor(class);
                    let virtual_dtor =
                        dtor.is_some_and(|d| self.program.function(d).is_virtual);
                    let candidates = if virtual_dtor {
                        self.lookup.destructor_candidates(class).to_vec()
                    } else {
                        Vec::new()
                    };
                    let ancestor_dtors = self
                        .program
                        .ancestors_of(class)
                        .into_iter()
                        .filter_map(|a| self.program.destructor(a))
                        .collect();
                    CgStep::Delete(DeleteSite {
                        class,
                        dtor,
                        virtual_dtor,
                        candidates,
                        ancestor_dtors,
                    })
                }
            })
            .collect();
        Ok(FnSummary {
            live_steps,
            cg_steps,
        })
    }
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn u(n: u32) -> Value {
    Value::Int(i64::from(n))
}

fn class_to_json(c: &ClassRecord) -> Value {
    Value::Obj(vec![
        ("name".into(), s(&c.name)),
        (
            "kind".into(),
            s(match c.kind {
                ClassKind::Class => "class",
                ClassKind::Struct => "struct",
                ClassKind::Union => "union",
            }),
        ),
        (
            "bases".into(),
            Value::Arr(
                c.bases
                    .iter()
                    .map(|(n, v)| Value::Arr(vec![s(n), Value::Bool(*v)]))
                    .collect(),
            ),
        ),
        (
            "members".into(),
            Value::Arr(
                c.members
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".into(), s(&m.name)),
                            ("ty".into(), ty_to_json(&m.ty)),
                            ("vol".into(), Value::Bool(m.is_volatile)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "methods".into(),
            Value::Arr(c.methods.iter().map(method_to_json).collect()),
        ),
        ("line".into(), u(c.line)),
        ("col".into(), u(c.col)),
    ])
}

fn method_to_json(m: &MethodRecord) -> Value {
    Value::Obj(vec![
        ("name".into(), s(&m.name)),
        (
            "kind".into(),
            s(match m.kind {
                FunctionKind::Free => "free",
                FunctionKind::Method => "method",
                FunctionKind::Constructor => "ctor",
                FunctionKind::Destructor => "dtor",
            }),
        ),
        ("virt".into(), Value::Bool(m.is_virtual)),
        ("arity".into(), u(m.arity)),
        ("has_body".into(), Value::Bool(m.has_body)),
        ("fp".into(), Value::Str(hash_hex(m.body_fp))),
        ("has_inits".into(), Value::Bool(m.has_inits)),
        ("line".into(), u(m.line)),
        ("col".into(), u(m.col)),
        ("summary".into(), sym_result_to_json(&m.summary)),
    ])
}

fn free_fn_to_json(f: &FreeFnRecord) -> Value {
    Value::Obj(vec![
        ("name".into(), s(&f.name)),
        ("arity".into(), u(f.arity)),
        ("has_body".into(), Value::Bool(f.has_body)),
        ("fp".into(), Value::Str(hash_hex(f.body_fp))),
        ("line".into(), u(f.line)),
        ("col".into(), u(f.col)),
        ("summary".into(), sym_result_to_json(&f.summary)),
    ])
}

fn enum_to_json(e: &EnumRecord) -> Value {
    Value::Obj(vec![
        ("name".into(), s(&e.name)),
        (
            "variants".into(),
            Value::Arr(
                e.variants
                    .iter()
                    .map(|(n, v)| Value::Arr(vec![s(n), Value::Int(*v)]))
                    .collect(),
            ),
        ),
        ("line".into(), u(e.line)),
        ("col".into(), u(e.col)),
    ])
}

fn global_to_json(g: &GlobalRecord) -> Value {
    Value::Obj(vec![
        ("name".into(), s(&g.name)),
        ("ty".into(), ty_to_json(&g.ty)),
        ("line".into(), u(g.line)),
        ("col".into(), u(g.col)),
    ])
}

/// Types encode as tagged arrays with the const/volatile qualifiers at
/// every level: `["ptr", c, v, <inner>]`, `["named", c, v, "A"]`, …
fn ty_to_json(ty: &Type) -> Value {
    let c = Value::Bool(ty.is_const);
    let v = Value::Bool(ty.is_volatile);
    let mut items = match &ty.kind {
        TypeKind::Void => vec![s("void")],
        TypeKind::Bool => vec![s("bool")],
        TypeKind::Char => vec![s("char")],
        TypeKind::Short => vec![s("short")],
        TypeKind::Int => vec![s("int")],
        TypeKind::Long => vec![s("long")],
        TypeKind::Float => vec![s("float")],
        TypeKind::Double => vec![s("double")],
        TypeKind::Named(n) => vec![s("named"), s(n)],
        TypeKind::Pointer(inner) => vec![s("ptr"), ty_to_json(inner)],
        TypeKind::Reference(inner) => vec![s("ref"), ty_to_json(inner)],
        TypeKind::Array(inner, n) => {
            vec![s("arr"), ty_to_json(inner), Value::Int(*n as i64)]
        }
        TypeKind::Function(ft) => vec![
            s("fn"),
            ty_to_json(&ft.ret),
            Value::Arr(ft.params.iter().map(ty_to_json).collect()),
        ],
        TypeKind::MemberPointer { class, pointee } => {
            vec![s("mptr"), s(class), ty_to_json(pointee)]
        }
    };
    items.insert(1, c);
    items.insert(2, v);
    Value::Arr(items)
}

fn sym_func_to_json(f: &SymFunc) -> Value {
    match f {
        SymFunc::Free(name) => Value::Arr(vec![s("f"), s(name)]),
        SymFunc::Method { class, index } => Value::Arr(vec![s("m"), s(class), u(*index)]),
    }
}

fn sym_result_to_json(r: &SymResult) -> Value {
    match r {
        Ok(summary) => Value::Obj(vec![
            (
                "live".into(),
                Value::Arr(summary.live_steps.iter().map(live_step_to_json).collect()),
            ),
            (
                "cg".into(),
                Value::Arr(summary.cg_steps.iter().map(cg_step_to_json).collect()),
            ),
        ]),
        Err(e) => Value::Obj(vec![("err".into(), type_error_to_json(e))]),
    }
}

fn live_step_to_json(step: &SymLiveStep) -> Value {
    match step {
        SymLiveStep::Access { member, kind } => Value::Arr(vec![
            s("acc"),
            s(&member.class),
            u(member.index),
            s(match kind {
                MemberAccessKind::Read => "read",
                MemberAccessKind::AddressTaken => "addr",
                MemberAccessKind::PointerToMember => "pm",
                MemberAccessKind::VolatileWrite => "vw",
            }),
        ]),
        SymLiveStep::MarkAll { class, cause } => Value::Arr(vec![
            s("all"),
            s(class),
            s(match cause {
                MarkAllCause::UnsafeCast => "cast",
                MarkAllCause::UnsafeDowncast => "down",
                MarkAllCause::Sizeof => "sizeof",
            }),
        ]),
    }
}

fn cg_step_to_json(step: &SymCgStep) -> Value {
    match step {
        SymCgStep::Call(f) => Value::Arr(vec![s("call"), sym_func_to_json(f)]),
        SymCgStep::VirtualCall {
            decl,
            receiver,
            refined,
        } => Value::Arr(vec![
            s("virt"),
            sym_func_to_json(decl),
            s(receiver),
            match refined {
                None => Value::Null,
                Some(fs) => Value::Arr(fs.iter().map(sym_func_to_json).collect()),
            },
        ]),
        SymCgStep::FnPointerCall => Value::Arr(vec![s("fp")]),
        SymCgStep::TakeAddress(f) => Value::Arr(vec![s("addr"), sym_func_to_json(f)]),
        SymCgStep::Instantiate { class, ctor } => Value::Arr(vec![
            s("new"),
            s(class),
            match ctor {
                None => Value::Null,
                Some(c) => sym_func_to_json(c),
            },
        ]),
        SymCgStep::Delete { class } => Value::Arr(vec![s("del"), s(class)]),
    }
}

fn type_error_to_json(e: &TypeError) -> Value {
    let span = e.span();
    let (tag, payload) = match e.kind() {
        TypeErrorKind::UnknownIdent(n) => ("unknown_ident", vec![s(n)]),
        TypeErrorKind::NotAClass(t) => ("not_a_class", vec![s(t)]),
        TypeErrorKind::NotAPointer(t) => ("not_a_pointer", vec![s(t)]),
        TypeErrorKind::NotCallable(t) => ("not_callable", vec![s(t)]),
        TypeErrorKind::Lookup(LookupError::NotFound { class, name }) => {
            ("lookup_not_found", vec![s(class), s(name)])
        }
        TypeErrorKind::Lookup(LookupError::Ambiguous { class, name }) => {
            ("lookup_ambiguous", vec![s(class), s(name)])
        }
        TypeErrorKind::ThisOutsideMethod => ("this_outside_method", vec![]),
        TypeErrorKind::UnknownQualifier(q) => ("unknown_qualifier", vec![s(q)]),
    };
    let mut items = vec![s(tag)];
    items.extend(payload);
    items.push(u(span.lo));
    items.push(u(span.hi));
    Value::Arr(items)
}

// ---------------------------------------------------------------------
// JSON decoding
// ---------------------------------------------------------------------

fn req<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn req_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn req_arr<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    req(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

fn req_bool(v: &Value, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a bool"))
}

fn req_u32(v: &Value, key: &str) -> Result<u32, String> {
    let n = req(v, key)?
        .as_int()
        .ok_or_else(|| format!("field `{key}` is not an integer"))?;
    u32::try_from(n).map_err(|_| format!("field `{key}` out of range"))
}

fn req_hash(v: &Value, key: &str) -> Result<u64, String> {
    let text = req_str(v, key)?;
    if text.len() != 16 {
        return Err(format!("field `{key}` is not a 16-hex hash"));
    }
    u64::from_str_radix(text, 16).map_err(|_| format!("field `{key}` is not a 16-hex hash"))
}

fn arr_str(v: &Value) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected a string".to_string())
}

fn arr_u32(v: &Value) -> Result<u32, String> {
    let n = v.as_int().ok_or("expected an integer")?;
    u32::try_from(n).map_err(|_| "integer out of range".to_string())
}

fn class_from_json(v: &Value) -> Result<ClassRecord, String> {
    let kind = match req_str(v, "kind")? {
        "class" => ClassKind::Class,
        "struct" => ClassKind::Struct,
        "union" => ClassKind::Union,
        other => return Err(format!("unknown class kind `{other}`")),
    };
    let bases = req_arr(v, "bases")?
        .iter()
        .map(|b| {
            let items = b.as_arr().ok_or("base is not an array")?;
            match items {
                [name, virt] => Ok((
                    arr_str(name)?.to_string(),
                    virt.as_bool().ok_or("base virtual flag is not a bool")?,
                )),
                _ => Err("base is not a [name, virtual] pair".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let members = req_arr(v, "members")?
        .iter()
        .map(|m| {
            Ok(MemberRecord {
                name: req_str(m, "name")?.to_string(),
                ty: ty_from_json(req(m, "ty")?)?,
                is_volatile: req_bool(m, "vol")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let methods = req_arr(v, "methods")?
        .iter()
        .map(method_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ClassRecord {
        name: req_str(v, "name")?.to_string(),
        kind,
        bases,
        members,
        methods,
        line: req_u32(v, "line")?,
        col: req_u32(v, "col")?,
    })
}

fn fn_kind_from_str(text: &str) -> Result<FunctionKind, String> {
    match text {
        "free" => Ok(FunctionKind::Free),
        "method" => Ok(FunctionKind::Method),
        "ctor" => Ok(FunctionKind::Constructor),
        "dtor" => Ok(FunctionKind::Destructor),
        other => Err(format!("unknown function kind `{other}`")),
    }
}

fn method_from_json(v: &Value) -> Result<MethodRecord, String> {
    Ok(MethodRecord {
        name: req_str(v, "name")?.to_string(),
        kind: fn_kind_from_str(req_str(v, "kind")?)?,
        is_virtual: req_bool(v, "virt")?,
        arity: req_u32(v, "arity")?,
        has_body: req_bool(v, "has_body")?,
        body_fp: req_hash(v, "fp")?,
        has_inits: req_bool(v, "has_inits")?,
        line: req_u32(v, "line")?,
        col: req_u32(v, "col")?,
        summary: sym_result_from_json(req(v, "summary")?)?,
    })
}

fn free_fn_from_json(v: &Value) -> Result<FreeFnRecord, String> {
    Ok(FreeFnRecord {
        name: req_str(v, "name")?.to_string(),
        arity: req_u32(v, "arity")?,
        has_body: req_bool(v, "has_body")?,
        body_fp: req_hash(v, "fp")?,
        line: req_u32(v, "line")?,
        col: req_u32(v, "col")?,
        summary: sym_result_from_json(req(v, "summary")?)?,
    })
}

fn enum_from_json(v: &Value) -> Result<EnumRecord, String> {
    let variants = req_arr(v, "variants")?
        .iter()
        .map(|e| {
            let items = e.as_arr().ok_or("variant is not an array")?;
            match items {
                [name, value] => Ok((
                    arr_str(name)?.to_string(),
                    value.as_int().ok_or("variant value is not an integer")?,
                )),
                _ => Err("variant is not a [name, value] pair".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(EnumRecord {
        name: req_str(v, "name")?.to_string(),
        variants,
        line: req_u32(v, "line")?,
        col: req_u32(v, "col")?,
    })
}

fn global_from_json(v: &Value) -> Result<GlobalRecord, String> {
    Ok(GlobalRecord {
        name: req_str(v, "name")?.to_string(),
        ty: ty_from_json(req(v, "ty")?)?,
        line: req_u32(v, "line")?,
        col: req_u32(v, "col")?,
    })
}

fn ty_from_json(v: &Value) -> Result<Type, String> {
    let items = v.as_arr().ok_or("type is not an array")?;
    let [tag, c, vol, rest @ ..] = items else {
        return Err("type array too short".to_string());
    };
    let tag = arr_str(tag)?;
    let is_const = c.as_bool().ok_or("type const flag is not a bool")?;
    let is_volatile = vol.as_bool().ok_or("type volatile flag is not a bool")?;
    let kind = match (tag, rest) {
        ("void", []) => TypeKind::Void,
        ("bool", []) => TypeKind::Bool,
        ("char", []) => TypeKind::Char,
        ("short", []) => TypeKind::Short,
        ("int", []) => TypeKind::Int,
        ("long", []) => TypeKind::Long,
        ("float", []) => TypeKind::Float,
        ("double", []) => TypeKind::Double,
        ("named", [name]) => TypeKind::Named(arr_str(name)?.to_string()),
        ("ptr", [inner]) => TypeKind::Pointer(Box::new(ty_from_json(inner)?)),
        ("ref", [inner]) => TypeKind::Reference(Box::new(ty_from_json(inner)?)),
        ("arr", [inner, len]) => {
            let len = len.as_int().ok_or("array length is not an integer")?;
            let len = usize::try_from(len).map_err(|_| "array length out of range".to_string())?;
            TypeKind::Array(Box::new(ty_from_json(inner)?), len)
        }
        ("fn", [ret, params]) => {
            let params = params
                .as_arr()
                .ok_or("fn params is not an array")?
                .iter()
                .map(ty_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            TypeKind::Function(Box::new(FnType {
                ret: ty_from_json(ret)?,
                params,
            }))
        }
        ("mptr", [class, pointee]) => TypeKind::MemberPointer {
            class: arr_str(class)?.to_string(),
            pointee: Box::new(ty_from_json(pointee)?),
        },
        _ => return Err(format!("malformed type `{tag}`")),
    };
    Ok(Type {
        kind,
        is_const,
        is_volatile,
    })
}

fn sym_func_from_json(v: &Value) -> Result<SymFunc, String> {
    let items = v.as_arr().ok_or("function ref is not an array")?;
    match items {
        [tag, name] if tag.as_str() == Some("f") => Ok(SymFunc::Free(arr_str(name)?.to_string())),
        [tag, class, index] if tag.as_str() == Some("m") => Ok(SymFunc::Method {
            class: arr_str(class)?.to_string(),
            index: arr_u32(index)?,
        }),
        _ => Err("malformed function ref".to_string()),
    }
}

fn sym_result_from_json(v: &Value) -> Result<SymResult, String> {
    if let Some(err) = v.get("err") {
        return Ok(Err(type_error_from_json(err)?));
    }
    let live_steps = req_arr(v, "live")?
        .iter()
        .map(live_step_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let cg_steps = req_arr(v, "cg")?
        .iter()
        .map(cg_step_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Ok(SymFnSummary {
        live_steps,
        cg_steps,
    }))
}

fn live_step_from_json(v: &Value) -> Result<SymLiveStep, String> {
    let items = v.as_arr().ok_or("live step is not an array")?;
    match items {
        [tag, class, index, kind] if tag.as_str() == Some("acc") => {
            let kind = match arr_str(kind)? {
                "read" => MemberAccessKind::Read,
                "addr" => MemberAccessKind::AddressTaken,
                "pm" => MemberAccessKind::PointerToMember,
                "vw" => MemberAccessKind::VolatileWrite,
                other => return Err(format!("unknown access kind `{other}`")),
            };
            Ok(SymLiveStep::Access {
                member: SymMember {
                    class: arr_str(class)?.to_string(),
                    index: arr_u32(index)?,
                },
                kind,
            })
        }
        [tag, class, cause] if tag.as_str() == Some("all") => {
            let cause = match arr_str(cause)? {
                "cast" => MarkAllCause::UnsafeCast,
                "down" => MarkAllCause::UnsafeDowncast,
                "sizeof" => MarkAllCause::Sizeof,
                other => return Err(format!("unknown mark-all cause `{other}`")),
            };
            Ok(SymLiveStep::MarkAll {
                class: arr_str(class)?.to_string(),
                cause,
            })
        }
        _ => Err("malformed live step".to_string()),
    }
}

fn cg_step_from_json(v: &Value) -> Result<SymCgStep, String> {
    let items = v.as_arr().ok_or("cg step is not an array")?;
    let tag = items
        .first()
        .and_then(Value::as_str)
        .ok_or("cg step has no tag")?;
    match (tag, &items[1..]) {
        ("call", [f]) => Ok(SymCgStep::Call(sym_func_from_json(f)?)),
        ("virt", [decl, receiver, refined]) => Ok(SymCgStep::VirtualCall {
            decl: sym_func_from_json(decl)?,
            receiver: arr_str(receiver)?.to_string(),
            refined: match refined {
                Value::Null => None,
                Value::Arr(fs) => Some(
                    fs.iter()
                        .map(sym_func_from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                ),
                _ => return Err("malformed refined list".to_string()),
            },
        }),
        ("fp", []) => Ok(SymCgStep::FnPointerCall),
        ("addr", [f]) => Ok(SymCgStep::TakeAddress(sym_func_from_json(f)?)),
        ("new", [class, ctor]) => Ok(SymCgStep::Instantiate {
            class: arr_str(class)?.to_string(),
            ctor: match ctor {
                Value::Null => None,
                other => Some(sym_func_from_json(other)?),
            },
        }),
        ("del", [class]) => Ok(SymCgStep::Delete {
            class: arr_str(class)?.to_string(),
        }),
        _ => Err(format!("malformed cg step `{tag}`")),
    }
}

fn type_error_from_json(v: &Value) -> Result<TypeError, String> {
    let items = v.as_arr().ok_or("type error is not an array")?;
    let tag = items
        .first()
        .and_then(Value::as_str)
        .ok_or("type error has no tag")?;
    let kind = match (tag, &items[1..]) {
        ("unknown_ident", [n, _, _]) => TypeErrorKind::UnknownIdent(arr_str(n)?.to_string()),
        ("not_a_class", [t, _, _]) => TypeErrorKind::NotAClass(arr_str(t)?.to_string()),
        ("not_a_pointer", [t, _, _]) => TypeErrorKind::NotAPointer(arr_str(t)?.to_string()),
        ("not_callable", [t, _, _]) => TypeErrorKind::NotCallable(arr_str(t)?.to_string()),
        ("lookup_not_found", [class, name, _, _]) => {
            TypeErrorKind::Lookup(LookupError::NotFound {
                class: arr_str(class)?.to_string(),
                name: arr_str(name)?.to_string(),
            })
        }
        ("lookup_ambiguous", [class, name, _, _]) => {
            TypeErrorKind::Lookup(LookupError::Ambiguous {
                class: arr_str(class)?.to_string(),
                name: arr_str(name)?.to_string(),
            })
        }
        ("this_outside_method", [_, _]) => TypeErrorKind::ThisOutsideMethod,
        ("unknown_qualifier", [q, _, _]) => TypeErrorKind::UnknownQualifier(arr_str(q)?.to_string()),
        _ => return Err(format!("malformed type error `{tag}`")),
    };
    let n = items.len();
    let lo = arr_u32(&items[n - 2])?;
    let hi = arr_u32(&items[n - 1])?;
    Ok(TypeError::from_parts(
        kind,
        ddm_cppfront::Span::new(lo, hi),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    const SRC: &str = "\
enum Mode { Off, On };
class Base { public: virtual int get() { return tag; } virtual ~Base() { } int tag; };
class Derived : public Base {
public:
    Derived(int s) : seed(s) { }
    virtual int get() { return seed; }
    int seed;
    volatile int flag;
    Mode mode;
};
int helper();
int spin(Base* b) { return b->get(); }
int main() {
    Derived d(3);
    Base* b = &d;
    int r = spin(b) + helper();
    delete b;
    return r;
}
int helper() { int (*fp)() = helper; return sizeof(Derived) + fp(); }
int fleet = helper();
";

    fn extract(src: &str, refine: bool) -> (TuModule, Program, ProgramSummary) {
        let tu = parse(src).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let summary = ProgramSummary::build(&program, refine, 1);
        let map = SourceMap::new("t.cpp", src);
        let module = TuModule::extract(&tu, &program, &summary, &map);
        (module, program, summary)
    }

    #[test]
    fn extraction_captures_definitions() {
        let (m, _, _) = extract(SRC, false);
        assert_eq!(m.file, "t.cpp");
        assert_eq!(m.source_hash, fnv1a64(SRC.as_bytes()));
        assert_eq!(m.classes.len(), 2);
        assert_eq!(m.classes[1].name, "Derived");
        assert_eq!(m.classes[1].bases, vec![("Base".to_string(), false)]);
        assert_eq!(m.classes[1].members.len(), 3);
        assert!(m.classes[1].members[1].is_volatile);
        // Enum member type is already normalized to int.
        assert_eq!(m.classes[1].members[2].ty, Type::int());
        assert_eq!(m.enums.len(), 1);
        assert_eq!(m.enums[0].variants, vec![("Off".into(), 0), ("On".into(), 1)]);
        assert_eq!(m.globals.len(), 1);
        // The per-TU front end merges a prototype with its same-TU
        // definition into a single function slot, so one record remains
        // and it carries the body.
        let helpers: Vec<&FreeFnRecord> =
            m.free_fns.iter().filter(|f| f.name == "helper").collect();
        assert_eq!(helpers.len(), 1);
        assert!(helpers[0].has_body);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn json_roundtrip_is_identity() {
        for refine in [false, true] {
            let (m, _, _) = extract(SRC, refine);
            let doc = m.to_json("v1;refine=0");
            assert!(json::validate(&doc).is_ok());
            let back =
                TuModule::from_json(&doc, "v1;refine=0", m.source_hash).expect("roundtrip");
            assert_eq!(back, m, "refine={refine}");
        }
    }

    #[test]
    fn envelope_mismatches_are_rejected() {
        let (m, _, _) = extract(SRC, false);
        let doc = m.to_json("v1;refine=0");
        assert!(TuModule::from_json(&doc, "v1;refine=1", m.source_hash).is_err());
        assert!(TuModule::from_json(&doc, "v1;refine=0", m.source_hash ^ 1).is_err());
        let stale = doc.replace("\"version\":1", "\"version\":999");
        assert!(TuModule::from_json(&stale, "v1;refine=0", m.source_hash).is_err());
    }

    #[test]
    fn corruption_is_rejected() {
        let (m, _, _) = extract(SRC, false);
        let doc = m.to_json("v1;refine=0");
        // Truncation.
        assert!(TuModule::from_json(&doc[..doc.len() / 2], "v1;refine=0", m.source_hash).is_err());
        // A dangling class reference inside a summary.
        let crafted = doc.replace("[\"new\",\"Derived\"", "[\"new\",\"Ghost\"");
        assert_ne!(crafted, doc, "test must actually rewrite a step");
        assert!(TuModule::from_json(&crafted, "v1;refine=0", m.source_hash).is_err());
        // Not JSON at all.
        assert!(TuModule::from_json("{]", "v1;refine=0", m.source_hash).is_err());
    }

    #[test]
    fn resolver_reproduces_the_original_summaries() {
        // Self-link: resolving the symbolic summaries against the very
        // program they came from must reproduce them bit for bit.
        for refine in [false, true] {
            let (m, program, summary) = extract(SRC, refine);
            let resolver = SymResolver::new(&program);
            for (fid, f) in program.functions() {
                let record = match f.class {
                    Some(cid) => {
                        let idx = program
                            .class(cid)
                            .methods
                            .iter()
                            .position(|&x| x == fid)
                            .unwrap();
                        let class_ix = cid.index();
                        &m.classes[class_ix].methods[idx].summary
                    }
                    None => {
                        // Records are in id order for free functions.
                        let free_ix = program
                            .functions()
                            .filter(|(_, g)| g.class.is_none())
                            .position(|(gid, _)| gid == fid)
                            .unwrap();
                        &m.free_fns[free_ix].summary
                    }
                };
                let resolved = resolver.resolve(record);
                match (resolved, summary.function(fid)) {
                    (Ok(a), Ok(b)) => assert_eq!(&a, b, "fn {fid:?} refine={refine}"),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("result shape diverged: {a:?} vs {b:?}"),
                }
            }
            let globals = resolver.resolve(&m.globals_summary).unwrap();
            assert_eq!(&globals, summary.globals().unwrap());
        }
    }

    #[test]
    fn type_errors_roundtrip() {
        let src = "class A { public: int x; };\nint main() { A a; return a.ghost; }";
        let (m, _, _) = extract(src, false);
        let doc = m.to_json("fp");
        let back = TuModule::from_json(&doc, "fp", m.source_hash).unwrap();
        assert_eq!(back, m);
        let err = m.free_fns[0].summary.as_ref().unwrap_err();
        assert!(matches!(err.kind(), TypeErrorKind::Lookup(_)));
    }

    #[test]
    fn odr_identity_ignores_location_but_not_text() {
        let header = "class P { public: P() : x(1) { } int get() { return x; } int x; };\n";
        let (m1, _, _) = extract(&format!("{header}int main() {{ P p; return p.get(); }}"), false);
        let (m2, _, _) = extract(&format!("\n\n{header}int use(P* p) {{ return p->get(); }}\nint main() {{ return 0; }}"), false);
        assert!(m1.classes[0].odr_eq(&m2.classes[0]), "same text, different offsets");
        let (m3, _, _) = extract(
            "class P { public: P() : x(2) { } int get() { return x; } int x; };\nint main() { return 0; }",
            false,
        );
        assert!(!m1.classes[0].odr_eq(&m3.classes[0]), "different ctor body");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_hex(0xaf63_dc4c_8601_ec8c), "af63dc4c8601ec8c");
    }
}
