//! # ddm-hierarchy
//!
//! Semantic layer for the dead-data-member study: a resolved program
//! model ([`Program`]), subobject trees, C++ member lookup with the
//! dominance rule ([`MemberLookup`]), a 32-bit object-layout engine
//! ([`LayoutEngine`]), a typed body walker ([`walk_function`]), and the
//! walk-once function summaries ([`ProgramSummary`]) that the call-graph
//! builder and the dead-member analysis consume.
//!
//! # Examples
//!
//! ```
//! use ddm_hierarchy::{Program, MemberLookup, LayoutEngine};
//!
//! let tu = ddm_cppfront::parse(
//!     "class A { public: int x; }; class B : public A { public: int y; };\n\
//!      int main() { B b; return b.x + b.y; }",
//! )?;
//! let program = Program::build(&tu)?;
//! let lookup = MemberLookup::new(&program);
//! let layouts = LayoutEngine::new(&program);
//! let b = program.class_by_name("B").unwrap();
//! assert_eq!(layouts.layout(b).size, 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod binmod;
pub mod bitset;
pub mod ids;
pub mod intern;
pub mod layout;
pub mod link;
pub mod lookup;
pub mod model;
pub mod module;
pub mod pta;
pub mod subobject;
pub mod summary;
pub mod typewalk;

pub use binmod::{
    decode_entry, decode_module, decode_modules, encode_entry, encode_module, encode_modules,
    ByteReader, ByteWriter, Reject, BINMOD_FORMAT_VERSION,
};
pub use bitset::{ClassBitSet, DenseBitSet, FuncBitSet};
pub use ids::{ClassId, FuncId, MemberRef};
pub use intern::{Interner, Symbol};
pub use layout::{ClassLayout, FieldSlot, LayoutEngine};
pub use link::{link, link_delta, link_delta_ref, link_with, LinkDelta, LinkError, LinkedProgram};
pub use lookup::{Found, LookupError, MemberLookup};
pub use model::{
    by_value_class, BaseInfo, ClassInfo, FunctionInfo, GlobalInfo, MemberInfo, Program, SemaError,
    SemaErrorKind,
};
pub use module::{
    fnv1a64, fnv1a64_each, hash_hex, ClassRecord, EnumRecord, FreeFnRecord, GlobalRecord, MemberRecord,
    MethodRecord, SymCgStep, SymFnSummary, SymFunc, SymLiveStep, SymMember, SymResolver, SymResult,
    TuModule,
};
pub use subobject::{Subobject, SubobjectId, SubobjectTree};
pub use summary::{
    classify_cast, strip_indirections, CastSafety, CgStep, Containment, DeleteSite, FnSummary,
    LiveStep, MarkAllCause, MemberAccessKind, MemberBitSet, MemberIndex, ProgramSummary,
    VirtualSite,
};
pub use typewalk::{
    body_walk_count, resolve_ctor, walk_function, walk_globals, Builtin, CallEvent, CallTarget,
    CastEvent, DeleteEvent, EventVisitor, InstantiationEvent, InstantiationKind, MemberAccessEvent,
    TypeError, TypeErrorKind,
};
