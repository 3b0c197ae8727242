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
//! A module has one serialization, the binary codec of
//! [`binmod`](crate::binmod). Its readers — the cache file's loader and
//! the entry reader — run [`TuModule::validate`] on every module they
//! accept. [`TuModule::to_json`]/[`TuModule::from_json`] carry an entry
//! as hex inside a JSON document, under the same checks.

use crate::binmod::{decode_entry, encode_entry};
use crate::ids::{ClassId, FuncId, MemberRef};
use crate::model::Program;
use crate::summary::{
    delete_site, CgStep, FnSummary, LiveStep, MarkAllCause, MemberAccessKind, ProgramSummary,
    VirtualSite,
};
use crate::typewalk::TypeError;
use ddm_cppfront::ast::{ClassKind, FunctionKind, Type};
use ddm_cppfront::{SourceMap, TranslationUnit};
use ddm_telemetry::json::{self, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// FNV-1a 64-bit hashing (the content hash of the cache key and the
/// body fingerprints used for ODR comparison).
pub use ddm_cppfront::{fnv1a64, fnv1a64_each};

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
    /// forms. `map` provides the source text (for the content hash and
    /// line/column positions); body fingerprints come from the parse.
    pub fn extract(
        tu: &TranslationUnit,
        program: &Program,
        summary: &ProgramSummary,
        map: &SourceMap,
    ) -> TuModule {
        let source_hash = fnv1a64(map.source().as_bytes());
        Self::extract_hashed(tu, program, summary, map, source_hash)
    }

    /// [`TuModule::extract`] for a caller that already hashed the source:
    /// `source_hash` is `fnv1a64` of `map`'s text.
    pub fn extract_hashed(
        tu: &TranslationUnit,
        program: &Program,
        summary: &ProgramSummary,
        map: &SourceMap,
        source_hash: u64,
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
                                body_fp: f.fp,
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
                    body_fp: f.fp,
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
            source_hash,
            classes,
            enums,
            globals,
            free_fns,
            globals_summary: sym_result(program, summary.globals()),
        }
    }

    /// The per-TU cache entry of [`encode_entry`] as a JSON document,
    /// `{"entry":"<hex>"}`.
    pub fn to_json(&self, fingerprint: &str) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let hex = encode_entry(self, fingerprint)
            .iter()
            .flat_map(|&b| [DIGITS[usize::from(b >> 4)], DIGITS[usize::from(b & 15)]])
            .map(char::from)
            .collect();
        Value::Obj(vec![("entry".into(), Value::Str(hex))]).render()
    }

    /// Reads a document written by [`TuModule::to_json`], with every
    /// check of [`decode_entry`].
    ///
    /// # Errors
    ///
    /// A parse failure, a missing or malformed `entry`, or the entry's
    /// [`Reject`](crate::binmod::Reject) as its reason string — all of
    /// which mean "invalidate and recompute".
    pub fn from_json(doc: &str, fingerprint: &str, source_hash: u64) -> Result<TuModule, String> {
        let v = json::parse(doc)?;
        let hex = v
            .get("entry")
            .and_then(Value::as_str)
            .ok_or("missing entry")?;
        let nibble = |d: u8| char::from(d).to_digit(16);
        let image: Option<Vec<u8>> = hex
            .as_bytes()
            .chunks(2)
            .map(|pair| match *pair {
                [hi, lo] => Some((nibble(hi)? << 4 | nibble(lo)?) as u8),
                _ => None,
            })
            .collect();
        let image = image.ok_or("entry is not an even run of hex digits")?;
        decode_entry(&image, fingerprint, source_hash).map_err(|reject| reject.to_string())
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
                    CgStep::Delete(delete_site(self.program, &self.lookup, self.class(class)))
                }
            })
            .collect();
        Ok(FnSummary {
            live_steps,
            cg_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typewalk::TypeErrorKind;
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
        let reject = |fp: &str, hash: u64| TuModule::from_json(&doc, fp, hash).unwrap_err();
        assert_eq!(reject("v1;refine=1", m.source_hash), "config_fingerprint");
        assert_eq!(reject("v1;refine=0", m.source_hash ^ 1), "source_hash");
    }

    #[test]
    fn corruption_is_rejected() {
        let fp = "v1;refine=0";
        let (m, _, _) = extract(SRC, false);
        let doc = m.to_json(fp);
        let hex = doc
            .strip_prefix("{\"entry\":\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
            .expect("the document is one `entry` string");
        let with_entry = |hex: &str| format!("{{\"entry\":\"{hex}\"}}");
        let read = |doc: &str| TuModule::from_json(doc, fp, m.source_hash);
        // One flipped digit in the payload fails the seal's checksum.
        let (body, last) = hex.split_at(hex.len() - 1);
        let flipped = format!("{body}{}", if last == "0" { '1' } else { '0' });
        assert_eq!(read(&with_entry(&flipped)).unwrap_err(), "corrupt");
        let old_form = format!(
            "{{\"version\":1,\"fingerprint\":\"{fp}\",\"source_hash\":\"{}\",\
             \"file\":\"t.cpp\",\"classes\":[],\"enums\":[],\"globals\":[],\
             \"free_fns\":[],\"globals_summary\":{{\"live\":[],\"cg\":[]}}}}",
            hash_hex(m.source_hash)
        );
        for bad in [
            &doc[..doc.len() / 2],
            &with_entry(body),
            &with_entry(&format!("{body}g")),
            "{}",
            &old_form,
            "{]",
        ] {
            assert!(read(bad).is_err(), "accepted {bad:.40}");
        }
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
