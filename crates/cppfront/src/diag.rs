//! Parse-time diagnostics.

use crate::span::{SourceMap, Span};
use std::error::Error;
use std::fmt;

/// A lexical or syntactic error with the source span where it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    kind: ParseErrorKind,
    span: Span,
}

impl ParseError {
    /// Creates an error of `kind` at `span`.
    pub fn new(kind: ParseErrorKind, span: Span) -> Self {
        ParseError { kind, span }
    }

    /// The specific failure.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// Where in the source the failure occurred.
    pub fn span(&self) -> Span {
        self.span
    }

    /// Renders the error with `file:line:col` using a source map.
    pub fn render(&self, map: &SourceMap) -> String {
        let pos = map.lookup(self.span.lo);
        format!("{}:{}: error: {}", map.name(), pos, self.kind)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.span)
    }
}

impl Error for ParseError {}

/// The specific kinds of parse failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A `/* ... ` comment that never closes.
    UnterminatedComment,
    /// A string or character literal that never closes.
    UnterminatedLiteral,
    /// An escape sequence the lexer does not recognise.
    InvalidEscape(char),
    /// A numeric literal that does not fit or cannot be parsed.
    InvalidNumber(String),
    /// A character the lexer does not recognise at all.
    UnexpectedChar(char),
    /// The parser expected one construct and found another.
    Unexpected {
        /// What the parser was looking for.
        expected: String,
        /// What it actually found.
        found: String,
    },
    /// A name was redefined (e.g. two classes with the same name).
    Duplicate(String),
    /// A construct the subset deliberately does not support.
    Unsupported(String),
    /// Statements or expressions nested deeper than the given limit.
    NestingTooDeep(usize),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnterminatedComment => write!(f, "unterminated block comment"),
            ParseErrorKind::UnterminatedLiteral => write!(f, "unterminated literal"),
            ParseErrorKind::InvalidEscape(c) => write!(f, "invalid escape sequence `\\{c}`"),
            ParseErrorKind::InvalidNumber(s) => write!(f, "invalid numeric literal `{s}`"),
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ParseErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseErrorKind::Duplicate(name) => write!(f, "duplicate definition of `{name}`"),
            ParseErrorKind::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            ParseErrorKind::NestingTooDeep(limit) => {
                write!(f, "nesting exceeds the maximum depth of {limit}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_location_and_message() {
        let map = SourceMap::new("f.cpp", "int x\nbad");
        let err = ParseError::new(ParseErrorKind::UnexpectedChar('$'), Span::new(6, 7));
        assert_eq!(
            err.render(&map),
            "f.cpp:2:1: error: unexpected character `$`"
        );
    }

    #[test]
    fn display_mentions_span() {
        let err = ParseError::new(ParseErrorKind::UnterminatedComment, Span::new(3, 5));
        let text = err.to_string();
        assert!(text.contains("unterminated block comment"));
        assert!(text.contains("3..5"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(ParseError::new(
            ParseErrorKind::Duplicate("A".into()),
            Span::dummy(),
        ));
    }
}
