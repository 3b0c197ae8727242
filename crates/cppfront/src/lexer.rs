//! Hand-written lexer for the C++ subset.

use crate::diag::{ParseError, ParseErrorKind};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Converts source text into a token stream.
///
/// The lexer is a plain maximal-munch scanner. It strips `//` and `/* */`
/// comments and produces a final [`TokenKind::Eof`] token.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Lexes the whole input, returning all tokens (ending with `Eof`).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for unterminated comments/literals and
    /// unrecognised characters.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>, ParseError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.bytes.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.bytes.len() {
                            return Err(ParseError::new(
                                ParseErrorKind::UnterminatedComment,
                                Span::new(start, start + 2),
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_trivia()?;
        let lo = self.pos as u32;
        if self.pos >= self.bytes.len() {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: Span::new(lo, lo),
            });
        }
        let c = self.peek();
        let kind = if c.is_ascii_alphabetic() || c == b'_' {
            self.lex_ident_or_keyword()
        } else if c.is_ascii_digit() {
            self.lex_number(lo)?
        } else if c == b'\'' {
            self.lex_char(lo)?
        } else if c == b'"' {
            self.lex_string(lo)?
        } else {
            self.lex_punct(lo)?
        };
        Ok(Token {
            kind,
            span: Span::new(lo, self.pos as u32),
        })
    }

    fn lex_ident_or_keyword(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text),
        }
    }

    fn lex_number(&mut self, lo: u32) -> Result<TokenKind<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.pos += 2;
            let hex_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
            let text = &self.src[hex_start..self.pos];
            let value = i64::from_str_radix(text, 16).map_err(|_| {
                ParseError::new(
                    ParseErrorKind::InvalidNumber(text.to_string()),
                    Span::new(lo, self.pos as u32),
                )
            })?;
            self.eat_int_suffix();
            return Ok(TokenKind::IntLit(value));
        }
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let mut look = self.pos + 1;
            if self.bytes.get(look) == Some(&b'+') || self.bytes.get(look) == Some(&b'-') {
                look += 1;
            }
            if self.bytes.get(look).is_some_and(u8::is_ascii_digit) {
                is_float = true;
                self.pos = look;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            if self.peek() == b'f' || self.peek() == b'F' {
                self.pos += 1;
            }
            let value: f64 = text.parse().map_err(|_| {
                ParseError::new(
                    ParseErrorKind::InvalidNumber(text.to_string()),
                    Span::new(lo, self.pos as u32),
                )
            })?;
            Ok(TokenKind::FloatLit(value))
        } else {
            let value: i64 = text.parse().map_err(|_| {
                ParseError::new(
                    ParseErrorKind::InvalidNumber(text.to_string()),
                    Span::new(lo, self.pos as u32),
                )
            })?;
            self.eat_int_suffix();
            Ok(TokenKind::IntLit(value))
        }
    }

    fn eat_int_suffix(&mut self) {
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
            self.pos += 1;
        }
    }

    fn lex_escape(&mut self, lo: u32) -> Result<char, ParseError> {
        // Caller consumed the backslash.
        let c = self.bump();
        Ok(match c {
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'0' => '\0',
            b'\\' => '\\',
            b'\'' => '\'',
            b'"' => '"',
            _ => {
                return Err(ParseError::new(
                    ParseErrorKind::InvalidEscape(c as char),
                    Span::new(lo, self.pos as u32),
                ))
            }
        })
    }

    fn lex_char(&mut self, lo: u32) -> Result<TokenKind<'a>, ParseError> {
        self.pos += 1; // opening quote
        let c = match self.peek() {
            0 => {
                return Err(ParseError::new(
                    ParseErrorKind::UnterminatedLiteral,
                    Span::new(lo, self.pos as u32),
                ))
            }
            b'\\' => {
                self.pos += 1;
                self.lex_escape(lo)?
            }
            _ => self.bump() as char,
        };
        if self.peek() != b'\'' {
            return Err(ParseError::new(
                ParseErrorKind::UnterminatedLiteral,
                Span::new(lo, self.pos as u32),
            ));
        }
        self.pos += 1;
        Ok(TokenKind::CharLit(c))
    }

    fn lex_string(&mut self, lo: u32) -> Result<TokenKind<'a>, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                0 | b'\n' => {
                    return Err(ParseError::new(
                        ParseErrorKind::UnterminatedLiteral,
                        Span::new(lo, self.pos as u32),
                    ))
                }
                b'"' => {
                    self.pos += 1;
                    return Ok(TokenKind::StrLit(out));
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.lex_escape(lo)?);
                }
                _ => out.push(self.bump() as char),
            }
        }
    }

    fn lex_punct(&mut self, lo: u32) -> Result<TokenKind<'a>, ParseError> {
        use Punct::*;
        let (p, len) = match (self.peek(), self.peek2(), self.peek3()) {
            (b'<', b'<', b'=') => (ShlEq, 3),
            (b'>', b'>', b'=') => (ShrEq, 3),
            (b'-', b'>', b'*') => (ArrowStar, 3),
            (b'-', b'>', _) => (Arrow, 2),
            (b'.', b'*', _) => (DotStar, 2),
            (b':', b':', _) => (ColonColon, 2),
            (b'+', b'+', _) => (PlusPlus, 2),
            (b'-', b'-', _) => (MinusMinus, 2),
            (b'&', b'&', _) => (AmpAmp, 2),
            (b'|', b'|', _) => (PipePipe, 2),
            (b'<', b'<', _) => (Shl, 2),
            (b'>', b'>', _) => (Shr, 2),
            (b'<', b'=', _) => (Le, 2),
            (b'>', b'=', _) => (Ge, 2),
            (b'=', b'=', _) => (EqEq, 2),
            (b'!', b'=', _) => (NotEq, 2),
            (b'+', b'=', _) => (PlusEq, 2),
            (b'-', b'=', _) => (MinusEq, 2),
            (b'*', b'=', _) => (StarEq, 2),
            (b'/', b'=', _) => (SlashEq, 2),
            (b'%', b'=', _) => (PercentEq, 2),
            (b'&', b'=', _) => (AmpEq, 2),
            (b'|', b'=', _) => (PipeEq, 2),
            (b'^', b'=', _) => (CaretEq, 2),
            (b'(', ..) => (LParen, 1),
            (b')', ..) => (RParen, 1),
            (b'{', ..) => (LBrace, 1),
            (b'}', ..) => (RBrace, 1),
            (b'[', ..) => (LBracket, 1),
            (b']', ..) => (RBracket, 1),
            (b';', ..) => (Semi, 1),
            (b',', ..) => (Comma, 1),
            (b'.', ..) => (Dot, 1),
            (b':', ..) => (Colon, 1),
            (b'?', ..) => (Question, 1),
            (b'+', ..) => (Plus, 1),
            (b'-', ..) => (Minus, 1),
            (b'*', ..) => (Star, 1),
            (b'/', ..) => (Slash, 1),
            (b'%', ..) => (Percent, 1),
            (b'&', ..) => (Amp, 1),
            (b'|', ..) => (Pipe, 1),
            (b'^', ..) => (Caret, 1),
            (b'~', ..) => (Tilde, 1),
            (b'!', ..) => (Bang, 1),
            (b'<', ..) => (Lt, 1),
            (b'>', ..) => (Gt, 1),
            (b'=', ..) => (Eq, 1),
            (other, ..) => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedChar(other as char),
                    Span::new(lo, lo + 1),
                ))
            }
        };
        self.pos += len;
        Ok(TokenKind::Punct(p))
    }
}

/// Convenience wrapper: lexes `src` into tokens.
///
/// # Errors
///
/// Propagates any lexical error (see [`Lexer::tokenize`]).
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src)
            .expect("lex failure")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("class Foo"),
            vec![
                TokenKind::Keyword(Keyword::Class),
                TokenKind::Ident("Foo"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_integers_and_floats() {
        assert_eq!(
            kinds("42 0x1F 3.5 1e3 2.5e-2 7L"),
            vec![
                TokenKind::IntLit(42),
                TokenKind::IntLit(31),
                TokenKind::FloatLit(3.5),
                TokenKind::FloatLit(1000.0),
                TokenKind::FloatLit(0.025),
                TokenKind::IntLit(7),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn dot_not_confused_with_float() {
        assert_eq!(
            kinds("a.b"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct(Punct::Dot),
                TokenKind::Ident("b"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_char_and_string_escapes() {
        assert_eq!(
            kinds(r#"'a' '\n' "hi\tthere""#),
            vec![
                TokenKind::CharLit('a'),
                TokenKind::CharLit('\n'),
                TokenKind::StrLit("hi\tthere".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(
            kinds("->* -> .* :: <<= << <= <"),
            vec![
                TokenKind::Punct(Punct::ArrowStar),
                TokenKind::Punct(Punct::Arrow),
                TokenKind::Punct(Punct::DotStar),
                TokenKind::Punct(Punct::ColonColon),
                TokenKind::Punct(Punct::ShlEq),
                TokenKind::Punct(Punct::Shl),
                TokenKind::Punct(Punct::Le),
                TokenKind::Punct(Punct::Lt),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            kinds("a // comment\n/* block\nmore */ b"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(tokenize("/* never ends").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("\"oops").is_err());
        assert!(tokenize("'x").is_err());
    }

    #[test]
    fn unknown_character_is_error() {
        assert!(tokenize("int $x;").is_err());
    }

    #[test]
    fn spans_cover_token_text() {
        let toks = tokenize("abc 42").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 3));
        assert_eq!(toks[1].span, Span::new(4, 6));
    }

    #[test]
    fn empty_input_yields_eof_only() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   \n\t"), vec![TokenKind::Eof]);
    }
}
