//! Token model for the C++ subset.

use crate::span::Span;
use std::fmt;

/// A lexical token: a kind plus the source span it covers. Identifier
/// text borrows from the source the token was lexed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// What kind of token this is (including any literal payload).
    pub kind: TokenKind<'a>,
    /// Where in the source the token appears.
    pub span: Span,
}

/// The different kinds of tokens produced by the [lexer](crate::lexer::Lexer).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// An identifier that is not a keyword, e.g. `foo`.
    Ident(&'a str),
    /// An integer literal, e.g. `42` or `0x1f`.
    IntLit(i64),
    /// A floating-point literal, e.g. `3.14`.
    FloatLit(f64),
    /// A character literal, e.g. `'a'`.
    CharLit(char),
    /// A string literal, e.g. `"hello"` (without the quotes, escapes resolved).
    StrLit(String),
    /// A reserved keyword, e.g. `class`.
    Keyword(Keyword),
    /// Punctuation or an operator, e.g. `->`.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// True if this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self, TokenKind::Keyword(k) if *k == kw)
    }

    /// True if this token is the given punctuation.
    pub fn is_punct(&self, p: Punct) -> bool {
        matches!(self, TokenKind::Punct(q) if *q == p)
    }

    /// A short human-readable description used in parse errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::IntLit(v) => format!("integer literal `{v}`"),
            TokenKind::FloatLit(v) => format!("float literal `{v}`"),
            TokenKind::CharLit(c) => format!("char literal `{c:?}`"),
            TokenKind::StrLit(_) => "string literal".to_string(),
            TokenKind::Keyword(k) => format!("keyword `{k}`"),
            TokenKind::Punct(p) => format!("`{p}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Reserved words of the C++ subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $(#[doc = concat!("The `", $text, "` keyword.")] $variant),+
        }

        impl Keyword {
            /// Looks up a keyword from its source spelling.
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }

            /// The source spelling of the keyword.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text,)+
                }
            }
        }

        impl fmt::Display for Keyword {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

keywords! {
    Class => "class",
    Struct => "struct",
    Union => "union",
    Enum => "enum",
    Public => "public",
    Private => "private",
    Protected => "protected",
    Virtual => "virtual",
    Static => "static",
    Const => "const",
    Volatile => "volatile",
    Void => "void",
    Bool => "bool",
    Char => "char",
    Short => "short",
    Int => "int",
    Long => "long",
    Float => "float",
    Double => "double",
    Unsigned => "unsigned",
    Signed => "signed",
    If => "if",
    Else => "else",
    While => "while",
    Do => "do",
    For => "for",
    Return => "return",
    Break => "break",
    Continue => "continue",
    New => "new",
    Delete => "delete",
    This => "this",
    True => "true",
    False => "false",
    Sizeof => "sizeof",
    StaticCast => "static_cast",
    ReinterpretCast => "reinterpret_cast",
    ConstCast => "const_cast",
    DynamicCast => "dynamic_cast",
    Operator => "operator",
    Typedef => "typedef",
    Switch => "switch",
    Case => "case",
    Default => "default",
    Nullptr => "nullptr",
}

macro_rules! puncts {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Punctuation and operator tokens of the C++ subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Punct {
            $(#[doc = concat!("The `", $text, "` token.")] $variant),+
        }

        impl Punct {
            /// The source spelling of the punctuation.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Punct::$variant => $text,)+
                }
            }
        }

        impl fmt::Display for Punct {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

puncts! {
    LParen => "(",
    RParen => ")",
    LBrace => "{",
    RBrace => "}",
    LBracket => "[",
    RBracket => "]",
    Semi => ";",
    Comma => ",",
    Dot => ".",
    DotStar => ".*",
    Arrow => "->",
    ArrowStar => "->*",
    ColonColon => "::",
    Colon => ":",
    Question => "?",
    Plus => "+",
    Minus => "-",
    Star => "*",
    Slash => "/",
    Percent => "%",
    PlusPlus => "++",
    MinusMinus => "--",
    Amp => "&",
    Pipe => "|",
    Caret => "^",
    Tilde => "~",
    Bang => "!",
    AmpAmp => "&&",
    PipePipe => "||",
    Shl => "<<",
    Shr => ">>",
    Lt => "<",
    Gt => ">",
    Le => "<=",
    Ge => ">=",
    EqEq => "==",
    NotEq => "!=",
    Eq => "=",
    PlusEq => "+=",
    MinusEq => "-=",
    StarEq => "*=",
    SlashEq => "/=",
    PercentEq => "%=",
    AmpEq => "&=",
    PipeEq => "|=",
    CaretEq => "^=",
    ShlEq => "<<=",
    ShrEq => ">>=",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Class,
            Keyword::Virtual,
            Keyword::Sizeof,
            Keyword::Nullptr,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_str("notakeyword"), None);
    }

    #[test]
    fn punct_display_matches_spelling() {
        assert_eq!(Punct::ArrowStar.to_string(), "->*");
        assert_eq!(Punct::ColonColon.to_string(), "::");
        assert_eq!(Punct::ShlEq.to_string(), "<<=");
    }

    #[test]
    fn token_kind_predicates() {
        let t = TokenKind::Keyword(Keyword::Class);
        assert!(t.is_keyword(Keyword::Class));
        assert!(!t.is_keyword(Keyword::Struct));
        let p = TokenKind::Punct(Punct::Arrow);
        assert!(p.is_punct(Punct::Arrow));
        assert!(!p.is_punct(Punct::Dot));
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(TokenKind::Ident("x").describe(), "identifier `x`");
        assert_eq!(TokenKind::Punct(Punct::Semi).describe(), "`;`");
        assert_eq!(TokenKind::Eof.describe(), "end of input");
    }
}
