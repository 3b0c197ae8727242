//! # ddm-cppfront
//!
//! Front end for the C++ subset analysed by the dead-data-member detector
//! (Sweeney & Tip, *A Study of Dead Data Members in C++ Applications*,
//! PLDI 1998).
//!
//! The subset covers everything the paper's algorithm treats specially:
//! classes/structs/unions, single/multiple/virtual inheritance, virtual
//! functions, constructors with initializer lists, destructors, pointers,
//! references, arrays, `new`/`delete`, C-style and named casts, `sizeof`,
//! qualified member access (`e.Y::m`), pointer-to-member expressions
//! (`&Z::m`, `e.*pm`), `volatile` members, and function pointers.
//!
//! # Examples
//!
//! ```
//! use ddm_cppfront::parse;
//!
//! let tu = parse(r#"
//!     class Point {
//!     public:
//!         int x;
//!         int y;
//!         Point(int px, int py) : x(px), y(py) { }
//!         int norm1() { return x + y; }
//!     };
//!     int main() { Point p(3, 4); return p.norm1(); }
//! "#)?;
//! assert_eq!(tu.classes.len(), 1);
//! assert_eq!(tu.class("Point").unwrap().data_members.len(), 2);
//! # Ok::<(), ddm_cppfront::ParseError>(())
//! ```

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::{Item, TranslationUnit};
pub use diag::{ParseError, ParseErrorKind};
pub use parser::{parse, DeclMemo, MAX_NESTING_DEPTH};
pub use pretty::{print_expr, print_stmt, print_unit};
pub use span::{LineCol, SourceMap, SourceSet, Span};
