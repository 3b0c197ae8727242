//! Recursive-descent parser for the C++ subset.
//!
//! The parser keeps a set of known type names (collected by a pre-scan over
//! the token stream, so forward references work) and uses it to disambiguate
//! declarations from expressions, exactly as a real C++ front end does.

use crate::ast::*;
use crate::diag::{ParseError, ParseErrorKind};
use crate::lexer::tokenize;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

/// Parses a complete source file into a [`TranslationUnit`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// let tu = ddm_cppfront::parse("struct S { int x; }; int main() { S s; return s.x; }")?;
/// assert_eq!(tu.classes.len(), 1);
/// assert_eq!(tu.functions.len(), 1);
/// # Ok::<(), ddm_cppfront::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<TranslationUnit, ParseError> {
    DeclMemo::new().parse(0, src)
}

/// The deepest nesting the parser accepts, clang's default
/// `-fbracket-depth`. One level is a statement, an assignment expression
/// (so each parenthesis, call argument and `?:` branch), or a prefix
/// operator, cast, `sizeof` or `delete` applied to an operand. Deeper
/// input fails with [`ParseErrorKind::NestingTooDeep`] instead of
/// exhausting the stack of the recursive descent.
pub const MAX_NESTING_DEPTH: usize = 256;

/// The top-level declarations parsed so far in one run, shared by every
/// translation unit the run parses (possibly from several threads).
///
/// A top-level item (class, enum, global, function, out-of-line method
/// definition) is parsed once per distinct pair of exact item text and
/// TU type-name set; every later occurrence shares that parse, whose
/// spans are measured from the item's first byte. The key is sound
/// because an item's parse reads nothing but its own tokens and the
/// type-name set: it runs on the item's tokens alone, followed by end of
/// input, and is kept only if it consumes exactly them. Merging an item
/// into its TU (duplicate checks, prototype replacement, out-of-line
/// attachment) runs for every occurrence.
///
/// # Examples
///
/// ```
/// use ddm_cppfront::DeclMemo;
///
/// let header = "class A { public: int x; int get() { return x; } };\n";
/// let a = format!("{header}int main() {{ A a; return a.get(); }}");
/// let b = format!("// another TU\n{header}int helper() {{ return 1; }}");
/// let memo = DeclMemo::new();
/// let (ta, tb) = (memo.parse(0, &a)?, memo.parse(1, &b)?);
/// assert!(std::sync::Arc::ptr_eq(&ta.classes[0].decl, &tb.classes[0].decl));
/// assert_eq!(tb.classes[0].base, 14);
/// assert_eq!(memo.decl_counts(), (4, 1));
/// # Ok::<(), ddm_cppfront::ParseError>(())
/// ```
#[derive(Debug, Default)]
pub struct DeclMemo<'a> {
    /// Hashes each item key once, outside the lock.
    hasher: RandomState,
    state: Mutex<MemoState<'a>>,
}

/// `(type-name set, exact item text)`.
type Key<'a> = (u32, &'a str);

#[derive(Debug, Default)]
struct MemoState<'a> {
    /// Each distinct type-name set (sorted), interned once per TU.
    name_sets: HashMap<Vec<&'a str>, u32>,
    /// Key hash → the newest entry with that hash (a collision costs a
    /// text comparison, never a wrong hit).
    index: HashMap<u64, usize>,
    entries: Vec<Entry<'a>>,
    /// Items in the TUs parsed so far, and `(TU, entry)` per memoized one.
    decls: u64,
    uses: Vec<(usize, usize)>,
}

/// One shared parse.
#[derive(Debug)]
struct Entry<'a> {
    key: Key<'a>,
    decl: Decl,
    /// The lowest TU index whose parse used it.
    first_tu: usize,
    /// The previous entry whose key has the same hash.
    next: Option<usize>,
}

impl MemoState<'_> {
    /// The entry for `key`, compared exactly.
    fn find(&self, hash: u64, key: Key<'_>) -> Option<usize> {
        let mut at = self.index.get(&hash).copied();
        while let Some(entry) = at.filter(|&entry| self.entries[entry].key != key) {
            at = self.entries[entry].next;
        }
        at
    }
}

/// One top-level item's parse, relative to the item's first byte.
#[derive(Debug, Clone)]
enum Decl {
    /// A class definition, or `None` for a forward declaration.
    Class(Option<Arc<ClassDecl>>),
    Enum(Arc<EnumDecl>),
    Global(Arc<GlobalDecl>),
    /// A free function: a prototype (no body) or a definition.
    Function(Arc<FunctionDecl>),
    /// `T C::m(...) { ... }`: the body of method `m` of class `C`.
    OutOfLine(Arc<str>, Arc<FunctionDecl>),
}

/// A TU under construction: the merged items so far.
#[derive(Default)]
struct UnitBuilder {
    tu: TranslationUnit,
    out_of_line: Vec<(Arc<str>, Item<FunctionDecl>)>,
}

impl<'a> DeclMemo<'a> {
    /// An empty memo.
    pub fn new() -> Self {
        DeclMemo::default()
    }

    /// Parses translation unit number `tu` of the run, sharing every item
    /// whose text an earlier parse of this memo already saw under the same
    /// type names. Spans and errors come out exactly as from a parse with
    /// an empty memo.
    ///
    /// # Errors
    ///
    /// Returns the first lexical or syntactic error encountered.
    pub fn parse(&self, tu: usize, src: &'a str) -> Result<TranslationUnit, ParseError> {
        let mut parser = Parser::new(tokenize(src)?);
        let names = {
            let mut set: Vec<&'a str> = parser.type_names.iter().copied().collect();
            set.sort_unstable();
            let mut state = self.lock();
            let next = state.name_sets.len() as u32;
            *state.name_sets.entry(set).or_insert(next)
        };
        let mut unit = UnitBuilder::default();
        let mut used = Vec::new();
        let mut items = 0u64;
        while !matches!(parser.peek(), TokenKind::Eof) {
            let first = parser.pos;
            let last = parser.item_end();
            let start = parser.tokens[first].span;
            let text = &src[start.lo as usize..parser.tokens[last].span.hi as usize];
            let key = (names, text);
            let hash = self.hasher.hash_one(key);
            let hit = {
                let state = self.lock();
                let entry = state.find(hash, key);
                entry.map(|entry| (entry, state.entries[entry].decl.clone()))
            };
            let shared = match hit {
                Some(hit) => {
                    parser.pos = last + 1;
                    Some(hit)
                }
                None => parser
                    .parse_alone(first, last)
                    .map(|decl| self.insert(hash, key, decl)),
            };
            let (decl, base) = match shared {
                Some((entry, decl)) => {
                    used.push(entry);
                    (decl, start.lo)
                }
                // The item does not parse on its own tokens: parse it in
                // context, for exactly the result or error of a whole-TU
                // parse.
                None => {
                    parser.pos = first;
                    (parser.parse_item()?, 0)
                }
            };
            items += 1;
            unit.merge(decl, base, start)?;
        }
        let unit = unit.finish()?;
        let mut state = self.lock();
        state.decls += items;
        for &entry in &used {
            let first_tu = &mut state.entries[entry].first_tu;
            *first_tu = (*first_tu).min(tu);
            state.uses.push((tu, entry));
        }
        Ok(unit)
    }

    /// `(items, shared items)` over the TUs this memo parsed: every
    /// top-level item, and those whose key an item of a TU earlier in
    /// input order also had. Both are independent of the order in which
    /// the TUs were parsed.
    pub fn decl_counts(&self) -> (u64, u64) {
        let state = self.lock();
        let shared = state
            .uses
            .iter()
            .filter(|&&(tu, entry)| state.entries[entry].first_tu < tu)
            .count();
        (state.decls, shared as u64)
    }

    /// Records `decl` as the parse of `key`, whose hash is `hash`, unless
    /// another thread got there first; returns the entry and the
    /// declaration it holds.
    fn insert(&self, hash: u64, key: Key<'a>, decl: Decl) -> (usize, Decl) {
        let mut state = self.lock();
        let entry = match state.find(hash, key) {
            Some(entry) => entry,
            None => {
                let fresh = state.entries.len();
                let next = state.index.insert(hash, fresh);
                state.entries.push(Entry {
                    key,
                    decl,
                    first_tu: usize::MAX,
                    next,
                });
                fresh
            }
        };
        (entry, state.entries[entry].decl.clone())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoState<'a>> {
        self.state.lock().expect("declaration memo poisoned")
    }
}

impl UnitBuilder {
    /// Adds one item, found at `base` and starting with the token at
    /// `start`, to the TU.
    fn merge(&mut self, decl: Decl, base: u32, start: Span) -> Result<(), ParseError> {
        let tu = &mut self.tu;
        match decl {
            Decl::Class(None) => {}
            Decl::Class(Some(class)) => {
                let class = Item { base, decl: class };
                if tu.class(&class.name).is_some() {
                    return Err(ParseError::new(
                        ParseErrorKind::Duplicate(class.name.clone()),
                        class.at(class.span),
                    ));
                }
                tu.classes.push(class);
            }
            Decl::Enum(decl) => tu.enums.push(Item { base, decl }),
            Decl::Global(decl) => tu.globals.push(Item { base, decl }),
            // A prototype is recorded only if the function is not
            // defined yet; a body replaces an earlier prototype.
            Decl::Function(decl) if decl.body.is_none() => {
                if tu.function(&decl.name).is_none() {
                    tu.functions.push(Item { base, decl });
                }
            }
            Decl::Function(decl) => {
                tu.functions
                    .retain(|f| !(f.name == decl.name && f.body.is_none()));
                if tu.function(&decl.name).is_some() {
                    return Err(ParseError::new(
                        ParseErrorKind::Duplicate(decl.name.clone()),
                        start,
                    ));
                }
                tu.functions.push(Item { base, decl });
            }
            Decl::OutOfLine(class, decl) => self.out_of_line.push((class, Item { base, decl })),
        }
        Ok(())
    }

    /// Attaches out-of-line method bodies to their in-class declarations.
    fn finish(mut self) -> Result<TranslationUnit, ParseError> {
        for (class_name, def) in self.out_of_line {
            let span = def.at(def.span);
            let class = self
                .tu
                .classes
                .iter_mut()
                .find(|c| *c.name == *class_name)
                .ok_or_else(|| {
                    ParseError::new(
                        ParseErrorKind::Unexpected {
                            expected: format!("class `{class_name}`"),
                            found: "out-of-line definition for an undefined class".to_string(),
                        },
                        span,
                    )
                })?;
            let index = class
                .methods
                .iter()
                .position(|m| m.name == def.name && m.kind == FunctionKind::Method)
                .ok_or_else(|| {
                    ParseError::new(
                        ParseErrorKind::Unexpected {
                            expected: format!(
                                "declaration of `{}` inside class `{class_name}`",
                                def.name
                            ),
                            found: "out-of-line definition without one".to_string(),
                        },
                        span,
                    )
                })?;
            if class.methods[index].body.is_some() {
                return Err(ParseError::new(
                    ParseErrorKind::Duplicate(format!("{class_name}::{}", def.name)),
                    span,
                ));
            }
            // The merged span is computed in absolute terms; the body and
            // parameters stay measured from the definition's own start.
            let class_base = class.base;
            let decl = &mut class.methods[index];
            decl.body = def.body.clone();
            decl.params = def.params.clone();
            decl.body_offset = def.base.wrapping_sub(class_base);
            decl.span = decl
                .span
                .rebase(class_base)
                .to(span)
                .rebase(class_base.wrapping_neg());
        }
        Ok(self.tu)
    }
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Index of the token that ends the input: the final `Eof`, or a
    /// stand-in `Eof` while one item is parsed on its own.
    end: usize,
    /// Subtracted (modulo 2^32) from every token offset, so spans come
    /// out measured from the start of the item being parsed alone.
    base: u32,
    type_names: HashSet<&'a str>,
    /// Current nesting level, bounded by [`MAX_NESTING_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>) -> Self {
        let mut type_names = HashSet::new();
        // Pre-scan so classes may reference each other regardless of
        // order. The set never changes afterwards.
        for w in tokens.windows(2) {
            if let TokenKind::Keyword(
                Keyword::Class | Keyword::Struct | Keyword::Union | Keyword::Enum,
            ) = w[0].kind
            {
                if let TokenKind::Ident(name) = w[1].kind {
                    type_names.insert(name);
                }
            }
        }
        Parser {
            end: tokens.len() - 1,
            tokens,
            pos: 0,
            base: 0,
            type_names,
            depth: 0,
        }
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(ParseError::new(
                ParseErrorKind::NestingTooDeep(MAX_NESTING_DEPTH),
                self.span(),
            ));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    // ----- token helpers -------------------------------------------------

    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos.min(self.end)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind<'a> {
        &self.tokens[(self.pos + n).min(self.end)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.end)]
            .span
            .rebase(self.base.wrapping_neg())
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)]
            .span
            .rebase(self.base.wrapping_neg())
    }

    fn bump(&mut self) -> TokenKind<'a> {
        let kind = self.tokens[self.pos.min(self.end)].kind.clone();
        if self.pos < self.end {
            self.pos += 1;
        }
        kind
    }
    fn at_punct(&self, p: Punct) -> bool {
        self.peek().is_punct(p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        self.peek().is_keyword(k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match *self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(
            ParseErrorKind::Unexpected {
                expected: expected.to_string(),
                found: self.peek().describe(),
            },
            self.span(),
        )
    }

    fn unsupported(&self, what: &str) -> ParseError {
        ParseError::new(ParseErrorKind::Unsupported(what.to_string()), self.span())
    }

    // ----- top level ------------------------------------------------------

    /// The index of the last token of the top-level item that starts at
    /// the current token: the first `;` outside braces, or for a function
    /// the `}` that closes its body. Stops early at an unbalanced `}`,
    /// and at the last token before the end of input.
    fn item_end(&self) -> usize {
        let is_type = matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Class | Keyword::Struct | Keyword::Union | Keyword::Enum)
        );
        let last = self.end - 1;
        let mut depth = 0usize;
        for i in self.pos..=last {
            match self.tokens[i].kind {
                TokenKind::Punct(Punct::LBrace) => depth += 1,
                TokenKind::Punct(Punct::RBrace) => {
                    if depth <= 1 && (depth == 0 || !is_type) {
                        return i;
                    }
                    depth -= 1;
                }
                TokenKind::Punct(Punct::Semi) if depth == 0 => return i,
                _ => {}
            }
        }
        last
    }

    /// Parses tokens `first..=last` as one item, as if the input ended
    /// after `last`, with spans measured from the item's first byte.
    /// `None` if that fails or stops before `last`.
    fn parse_alone(&mut self, first: usize, last: usize) -> Option<Decl> {
        let end = self.tokens[last].span.hi;
        let stand_in = Token {
            kind: TokenKind::Eof,
            span: Span::new(end, end),
        };
        let next = std::mem::replace(&mut self.tokens[last + 1], stand_in);
        let full_end = std::mem::replace(&mut self.end, last + 1);
        self.base = self.tokens[first].span.lo;
        self.pos = first;
        let decl = self.parse_item();
        self.tokens[last + 1] = next;
        self.end = full_end;
        self.base = 0;
        decl.ok().filter(|_| self.pos == last + 1)
    }

    /// Parses one top-level item.
    fn parse_item(&mut self) -> Result<Decl, ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Class | Keyword::Struct | Keyword::Union) => {
                Ok(Decl::Class(self.parse_class()?.map(Arc::new)))
            }
            TokenKind::Keyword(Keyword::Enum) => Ok(Decl::Enum(Arc::new(self.parse_enum()?))),
            TokenKind::Keyword(Keyword::Typedef) => Err(self.unsupported("typedef")),
            _ => self.parse_global_or_function(),
        }
    }

    /// Parses `class C [: bases] { ... };` or a forward declaration
    /// `class C;` (which yields `None`).
    fn parse_class(&mut self) -> Result<Option<ClassDecl>, ParseError> {
        let start = self.span();
        let kind = match self.bump() {
            TokenKind::Keyword(Keyword::Class) => ClassKind::Class,
            TokenKind::Keyword(Keyword::Struct) => ClassKind::Struct,
            TokenKind::Keyword(Keyword::Union) => ClassKind::Union,
            _ => unreachable!("caller checked the keyword"),
        };
        let name = self.expect_ident()?;
        if self.eat_punct(Punct::Semi) {
            return Ok(None); // forward declaration
        }
        let mut bases = Vec::new();
        if self.eat_punct(Punct::Colon) {
            if kind == ClassKind::Union {
                return Err(self.unsupported("base classes on a union"));
            }
            loop {
                let base_start = self.span();
                let mut access = match kind {
                    ClassKind::Class => Access::Private,
                    _ => Access::Public,
                };
                let mut is_virtual = false;
                loop {
                    if self.eat_keyword(Keyword::Virtual) {
                        is_virtual = true;
                    } else if self.eat_keyword(Keyword::Public) {
                        access = Access::Public;
                    } else if self.eat_keyword(Keyword::Protected) {
                        access = Access::Protected;
                    } else if self.eat_keyword(Keyword::Private) {
                        access = Access::Private;
                    } else {
                        break;
                    }
                }
                let base_name = self.expect_ident()?;
                bases.push(BaseSpecifier {
                    name: base_name.to_string(),
                    is_virtual,
                    access,
                    span: base_start.to(self.prev_span()),
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let mut access = match kind {
            ClassKind::Class => Access::Private,
            _ => Access::Public,
        };
        let mut data_members = Vec::new();
        let mut methods = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.eat_keyword(Keyword::Public) {
                self.expect_punct(Punct::Colon)?;
                access = Access::Public;
            } else if self.eat_keyword(Keyword::Protected) {
                self.expect_punct(Punct::Colon)?;
                access = Access::Protected;
            } else if self.eat_keyword(Keyword::Private) {
                self.expect_punct(Punct::Colon)?;
                access = Access::Private;
            } else {
                self.parse_member(name, access, &mut data_members, &mut methods)?;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        self.expect_punct(Punct::Semi)?;
        Ok(Some(ClassDecl {
            name: name.to_string(),
            kind,
            bases,
            data_members,
            methods,
            span: start.to(self.prev_span()),
        }))
    }

    fn parse_member(
        &mut self,
        class_name: &str,
        access: Access,
        data_members: &mut Vec<DataMemberDecl>,
        methods: &mut Vec<FunctionDecl>,
    ) -> Result<(), ParseError> {
        let start = self.span();
        let is_virtual = self.eat_keyword(Keyword::Virtual);
        if self.eat_keyword(Keyword::Static) {
            return Err(self.unsupported("static members"));
        }

        // Destructor.
        if self.at_punct(Punct::Tilde) {
            self.bump();
            let dtor_name = self.expect_ident()?;
            if dtor_name != class_name {
                return Err(self.unexpected(&format!("destructor name `{class_name}`")));
            }
            self.expect_punct(Punct::LParen)?;
            self.expect_punct(Punct::RParen)?;
            let body = self.parse_optional_body()?;
            methods.push(FunctionDecl {
                name: format!("~{class_name}"),
                kind: FunctionKind::Destructor,
                is_virtual,
                ret: Type::void(),
                params: Vec::new(),
                inits: Arc::default(),
                body,
                span: start.to(self.prev_span()),
                body_offset: 0,
            });
            return Ok(());
        }

        // Constructor: `ClassName ( ... )`.
        if let TokenKind::Ident(id) = self.peek() {
            if *id == class_name && self.peek_at(1).is_punct(Punct::LParen) {
                self.bump();
                let params = self.parse_params()?;
                let mut inits = Vec::new();
                if self.eat_punct(Punct::Colon) {
                    loop {
                        let init_start = self.span();
                        let init_name = self.expect_ident()?;
                        self.expect_punct(Punct::LParen)?;
                        let mut args = Vec::new();
                        if !self.at_punct(Punct::RParen) {
                            loop {
                                args.push(self.parse_assign_expr()?);
                                if !self.eat_punct(Punct::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                        inits.push(CtorInit {
                            name: init_name.to_string(),
                            args,
                            span: init_start.to(self.prev_span()),
                        });
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                let body = self.parse_optional_body()?;
                methods.push(FunctionDecl {
                    name: class_name.to_string(),
                    kind: FunctionKind::Constructor,
                    is_virtual: false,
                    ret: Type::void(),
                    params,
                    inits: inits.into(),
                    body,
                    span: start.to(self.prev_span()),
                    body_offset: 0,
                });
                return Ok(());
            }
        }

        // Ordinary member: type, then declarator.
        let base_ty = self.parse_type()?;
        let (decl_name, ty, is_fn_ptr_decl) = self.parse_declarator(base_ty)?;
        if self.at_punct(Punct::LParen) && !is_fn_ptr_decl {
            // Member function.
            let params = self.parse_params()?;
            self.eat_keyword(Keyword::Const); // trailing const is accepted and ignored
            let body = self.parse_optional_body()?;
            methods.push(FunctionDecl {
                name: decl_name,
                kind: FunctionKind::Method,
                is_virtual,
                ret: ty,
                params,
                inits: Arc::default(),
                body,
                span: start.to(self.prev_span()),
                body_offset: 0,
            });
        } else {
            if is_virtual {
                return Err(self.unexpected("member function after `virtual`"));
            }
            self.expect_punct(Punct::Semi)?;
            data_members.push(DataMemberDecl {
                name: decl_name,
                ty,
                access,
                span: start.to(self.prev_span()),
            });
        }
        Ok(())
    }

    /// Parses `{ body }`, `;` (no body), or `= 0 ;` (pure virtual, no body).
    fn parse_optional_body(&mut self) -> Result<Option<Arc<Block>>, ParseError> {
        if self.eat_punct(Punct::Semi) {
            return Ok(None);
        }
        if self.at_punct(Punct::Eq) {
            self.bump();
            match self.bump() {
                TokenKind::IntLit(0) => {}
                _ => return Err(self.unexpected("`0` in pure-virtual specifier")),
            }
            self.expect_punct(Punct::Semi)?;
            return Ok(None);
        }
        Ok(Some(Arc::new(self.parse_block()?)))
    }

    fn parse_enum(&mut self) -> Result<EnumDecl, ParseError> {
        let start = self.span();
        self.bump(); // `enum`
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut variants = Vec::new();
        let mut next_value = 0i64;
        while !self.at_punct(Punct::RBrace) {
            let vname = self.expect_ident()?;
            if self.eat_punct(Punct::Eq) {
                let negative = self.eat_punct(Punct::Minus);
                match self.bump() {
                    TokenKind::IntLit(v) => next_value = if negative { -v } else { v },
                    _ => return Err(self.unexpected("integer enumerator value")),
                }
            }
            variants.push((vname.to_string(), next_value));
            next_value += 1;
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        self.expect_punct(Punct::Semi)?;
        Ok(EnumDecl {
            name: name.to_string(),
            variants,
            span: start.to(self.prev_span()),
        })
    }

    fn parse_global_or_function(&mut self) -> Result<Decl, ParseError> {
        let start = self.span();
        if !self.starts_type() {
            return Err(self.unexpected("declaration"));
        }
        let base_ty = self.parse_type()?;
        // Out-of-line method definition: `T Class::name(params) { ... }`.
        if let TokenKind::Ident(class_name) = self.peek() {
            if self.peek_at(1).is_punct(Punct::ColonColon)
                && matches!(self.peek_at(2), TokenKind::Ident(_))
            {
                let class_name = Arc::from(*class_name);
                self.bump();
                self.bump();
                let method_name = self.expect_ident()?;
                let params = self.parse_params()?;
                self.eat_keyword(Keyword::Const);
                let body = self.parse_block()?;
                return Ok(Decl::OutOfLine(
                    class_name,
                    Arc::new(FunctionDecl {
                        name: method_name.to_string(),
                        kind: FunctionKind::Method,
                        is_virtual: false,
                        ret: base_ty,
                        params,
                        inits: Arc::default(),
                        body: Some(Arc::new(body)),
                        span: start.to(self.prev_span()),
                        body_offset: 0,
                    }),
                ));
            }
        }
        let (name, ty, is_fn_ptr_decl) = self.parse_declarator(base_ty)?;
        if self.at_punct(Punct::LParen) && !is_fn_ptr_decl {
            let params = self.parse_params()?;
            // A prototype (`;`) or a definition.
            let body = if self.eat_punct(Punct::Semi) {
                None
            } else {
                Some(Arc::new(self.parse_block()?))
            };
            Ok(Decl::Function(Arc::new(FunctionDecl {
                name,
                kind: FunctionKind::Free,
                is_virtual: false,
                ret: ty,
                params,
                inits: Arc::default(),
                body,
                span: start.to(self.prev_span()),
                body_offset: 0,
            })))
        } else {
            let init = if self.eat_punct(Punct::Eq) {
                Some(Arc::new(self.parse_assign_expr()?))
            } else {
                None
            };
            self.expect_punct(Punct::Semi)?;
            Ok(Decl::Global(Arc::new(GlobalDecl {
                name,
                ty,
                init,
                span: start.to(self.prev_span()),
            })))
        }
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            if self.at_keyword(Keyword::Void) && self.peek_at(1).is_punct(Punct::RParen) {
                self.bump(); // `(void)` means no parameters
            } else {
                loop {
                    let start = self.span();
                    let base_ty = self.parse_type()?;
                    let (name, ty, _) = self.parse_declarator_opt_name(base_ty)?;
                    params.push(Param {
                        name: name.unwrap_or_default(),
                        ty,
                        span: start.to(self.prev_span()),
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(params)
    }

    // ----- types and declarators -----------------------------------------

    /// Whether the current token can begin a type.
    fn starts_type(&self) -> bool {
        self.starts_type_at(0)
    }

    fn starts_type_at(&self, n: usize) -> bool {
        match self.peek_at(n) {
            TokenKind::Keyword(
                Keyword::Void
                | Keyword::Bool
                | Keyword::Char
                | Keyword::Short
                | Keyword::Int
                | Keyword::Long
                | Keyword::Float
                | Keyword::Double
                | Keyword::Unsigned
                | Keyword::Signed
                | Keyword::Const
                | Keyword::Volatile
                | Keyword::Class
                | Keyword::Struct
                | Keyword::Union
                | Keyword::Enum,
            ) => true,
            TokenKind::Ident(name) => self.type_names.contains(name),
            _ => false,
        }
    }

    /// Parses a type: qualifiers, a base type, then `*` / `&` / `C::*` suffixes.
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let mut is_const = false;
        let mut is_volatile = false;
        loop {
            if self.eat_keyword(Keyword::Const) {
                is_const = true;
            } else if self.eat_keyword(Keyword::Volatile) {
                is_volatile = true;
            } else {
                break;
            }
        }
        // Elaborated specifier: `struct S x;` — skip the keyword.
        if matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Class | Keyword::Struct | Keyword::Union | Keyword::Enum)
        ) && matches!(self.peek_at(1), TokenKind::Ident(_))
            && !self.peek_at(2).is_punct(Punct::LBrace)
            && !self.peek_at(2).is_punct(Punct::Colon)
        {
            self.bump();
        }
        let mut kind = match self.bump() {
            TokenKind::Keyword(Keyword::Void) => TypeKind::Void,
            TokenKind::Keyword(Keyword::Bool) => TypeKind::Bool,
            TokenKind::Keyword(Keyword::Char) => TypeKind::Char,
            TokenKind::Keyword(Keyword::Short) => {
                self.eat_keyword(Keyword::Int);
                TypeKind::Short
            }
            TokenKind::Keyword(Keyword::Int) => TypeKind::Int,
            TokenKind::Keyword(Keyword::Long) => {
                self.eat_keyword(Keyword::Long);
                self.eat_keyword(Keyword::Int);
                TypeKind::Long
            }
            TokenKind::Keyword(Keyword::Float) => TypeKind::Float,
            TokenKind::Keyword(Keyword::Double) => TypeKind::Double,
            TokenKind::Keyword(Keyword::Unsigned | Keyword::Signed) => match self.peek() {
                TokenKind::Keyword(Keyword::Char) => {
                    self.bump();
                    TypeKind::Char
                }
                TokenKind::Keyword(Keyword::Short) => {
                    self.bump();
                    self.eat_keyword(Keyword::Int);
                    TypeKind::Short
                }
                TokenKind::Keyword(Keyword::Long) => {
                    self.bump();
                    self.eat_keyword(Keyword::Int);
                    TypeKind::Long
                }
                TokenKind::Keyword(Keyword::Int) => {
                    self.bump();
                    TypeKind::Int
                }
                _ => TypeKind::Int,
            },
            TokenKind::Ident(name) => TypeKind::Named(name.to_string()),
            _ => {
                return Err(ParseError::new(
                    ParseErrorKind::Unexpected {
                        expected: "type".to_string(),
                        found: self.tokens[self.pos - 1].kind.describe(),
                    },
                    self.prev_span(),
                ))
            }
        };
        // Trailing qualifiers (`int const`).
        loop {
            if self.eat_keyword(Keyword::Const) {
                is_const = true;
            } else if self.eat_keyword(Keyword::Volatile) {
                is_volatile = true;
            } else {
                break;
            }
        }
        // Pointer / reference / member-pointer suffixes.
        loop {
            if self.at_punct(Punct::Star) {
                self.bump();
                let inner = Type {
                    kind,
                    is_const,
                    is_volatile,
                };
                kind = TypeKind::Pointer(Box::new(inner));
                is_const = false;
                is_volatile = false;
                // `T* const`, `T* volatile`
                loop {
                    if self.eat_keyword(Keyword::Const) {
                        is_const = true;
                    } else if self.eat_keyword(Keyword::Volatile) {
                        is_volatile = true;
                    } else {
                        break;
                    }
                }
            } else if self.at_punct(Punct::Amp) {
                self.bump();
                let inner = Type {
                    kind,
                    is_const,
                    is_volatile,
                };
                kind = TypeKind::Reference(Box::new(inner));
                is_const = false;
                is_volatile = false;
            } else if let TokenKind::Ident(cls) = self.peek() {
                // Member-pointer type `T C::*`.
                if self.peek_at(1).is_punct(Punct::ColonColon)
                    && self.peek_at(2).is_punct(Punct::Star)
                {
                    let cls = cls.to_string();
                    self.bump();
                    self.bump();
                    self.bump();
                    let inner = Type {
                        kind,
                        is_const,
                        is_volatile,
                    };
                    kind = TypeKind::MemberPointer {
                        class: cls,
                        pointee: Box::new(inner),
                    };
                    is_const = false;
                    is_volatile = false;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(Type {
            kind,
            is_const,
            is_volatile,
        })
    }

    /// Parses a declarator after the base type: an optional function-pointer
    /// wrapper, the name, then array suffixes. Returns `(name, full type,
    /// was_function_pointer)`.
    fn parse_declarator(&mut self, base: Type) -> Result<(String, Type, bool), ParseError> {
        let (name, ty, fp) = self.parse_declarator_opt_name(base)?;
        match name {
            Some(n) => Ok((n, ty, fp)),
            None => Err(self.unexpected("declarator name")),
        }
    }

    fn parse_declarator_opt_name(
        &mut self,
        base: Type,
    ) -> Result<(Option<String>, Type, bool), ParseError> {
        // Function pointer declarator: `RET (*name)(params)`.
        if self.at_punct(Punct::LParen) && self.peek_at(1).is_punct(Punct::Star) {
            self.bump();
            self.bump();
            let name = match *self.peek() {
                TokenKind::Ident(n) => {
                    self.bump();
                    Some(n.to_string())
                }
                _ => None,
            };
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::LParen)?;
            let mut params = Vec::new();
            if !self.at_punct(Punct::RParen) {
                if self.at_keyword(Keyword::Void) && self.peek_at(1).is_punct(Punct::RParen) {
                    self.bump();
                } else {
                    loop {
                        let pty = self.parse_type()?;
                        // Parameter names inside function-pointer types are
                        // allowed and ignored.
                        if let TokenKind::Ident(_) = self.peek() {
                            self.bump();
                        }
                        params.push(pty);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            let fn_ty = Type::plain(TypeKind::Function(Box::new(FnType { ret: base, params })));
            return Ok((name, fn_ty.pointer_to(), true));
        }
        let name = match *self.peek() {
            TokenKind::Ident(n) => {
                self.bump();
                Some(n.to_string())
            }
            _ => None,
        };
        let mut ty = base;
        while self.at_punct(Punct::LBracket) {
            self.bump();
            let len = match self.bump() {
                TokenKind::IntLit(v) if v >= 0 => v as usize,
                _ => return Err(self.unexpected("array length")),
            };
            self.expect_punct(Punct::RBracket)?;
            ty = Type::plain(TypeKind::Array(Box::new(ty), len));
        }
        Ok((name, ty, false))
    }

    // ----- statements ------------------------------------------------------

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        let start = self.span();
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.unexpected("`}`"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect_punct(Punct::RBrace)?;
        // Bodies outlive the parse (programs share them), so they keep no
        // spare capacity.
        stmts.shrink_to_fit();
        Ok(Block {
            stmts,
            span: start.to(self.prev_span()),
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let kind = match self.peek() {
            TokenKind::Punct(Punct::LBrace) => StmtKind::Block(self.parse_block()?),
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                StmtKind::Empty
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.parse_stmt()?);
                let els = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                StmtKind::If { cond, then, els }
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                StmtKind::While { cond, body }
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.parse_stmt()?);
                if !self.eat_keyword(Keyword::While) {
                    return Err(self.unexpected("`while` after `do` body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::DoWhile { body, cond }
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.at_punct(Punct::Semi) {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.parse_decl_or_expr_stmt()?))
                };
                let cond = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.at_punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                StmtKind::Return(value)
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                StmtKind::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let scrutinee = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::LBrace)?;
                let mut arms = Vec::new();
                while !self.at_punct(Punct::RBrace) {
                    let arm_start = self.span();
                    let value = if self.eat_keyword(Keyword::Case) {
                        let v = self.parse_cond_expr()?;
                        self.expect_punct(Punct::Colon)?;
                        Some(v)
                    } else if self.eat_keyword(Keyword::Default) {
                        self.expect_punct(Punct::Colon)?;
                        None
                    } else {
                        return Err(self.unexpected("`case`, `default`, or `}`"));
                    };
                    let mut stmts = Vec::new();
                    while !self.at_punct(Punct::RBrace)
                        && !self.at_keyword(Keyword::Case)
                        && !self.at_keyword(Keyword::Default)
                    {
                        stmts.push(self.parse_stmt()?);
                    }
                    arms.push(SwitchArm {
                        value,
                        stmts,
                        span: arm_start.to(self.prev_span()),
                    });
                }
                self.expect_punct(Punct::RBrace)?;
                StmtKind::Switch { scrutinee, arms }
            }
            _ => return self.parse_decl_or_expr_stmt(),
        };
        Ok(Stmt {
            kind,
            span: start.to(self.prev_span()),
        })
    }

    /// Parses either a local declaration or an expression statement
    /// (both end with `;`). Used for plain statements and `for` inits.
    fn parse_decl_or_expr_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        if self.is_decl_start() {
            let base_ty = self.parse_type()?;
            let (name, ty, _) = self.parse_declarator(base_ty)?;
            let init = if self.eat_punct(Punct::Eq) {
                LocalInit::Expr(self.parse_assign_expr()?)
            } else if self.at_punct(Punct::LParen) {
                self.bump();
                let mut args = Vec::new();
                if !self.at_punct(Punct::RParen) {
                    loop {
                        args.push(self.parse_assign_expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen)?;
                LocalInit::Ctor(args)
            } else {
                LocalInit::Default
            };
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt {
                kind: StmtKind::Decl(LocalDecl { name, ty, init }),
                span: start.to(self.prev_span()),
            })
        } else {
            let expr = self.parse_expr()?;
            self.expect_punct(Punct::Semi)?;
            Ok(Stmt {
                kind: StmtKind::Expr(expr),
                span: start.to(self.prev_span()),
            })
        }
    }

    /// Decides whether the statement at the cursor is a declaration.
    ///
    /// Built-in type keywords and qualifiers always start declarations. A
    /// known type *name* starts a declaration only when followed by a
    /// declarator shape (`T x`, `T* x`, `T& x`, `T (*x)(...)`), mirroring
    /// the C++ disambiguation rule.
    fn is_decl_start(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword(
                Keyword::Void
                | Keyword::Bool
                | Keyword::Char
                | Keyword::Short
                | Keyword::Int
                | Keyword::Long
                | Keyword::Float
                | Keyword::Double
                | Keyword::Unsigned
                | Keyword::Signed
                | Keyword::Const
                | Keyword::Volatile,
            ) => true,
            TokenKind::Ident(name) if self.type_names.contains(name) => {
                let mut n = 1;
                // Skip pointer/reference tokens.
                loop {
                    match self.peek_at(n) {
                        TokenKind::Punct(Punct::Star | Punct::Amp) => n += 1,
                        TokenKind::Keyword(Keyword::Const | Keyword::Volatile) => n += 1,
                        _ => break,
                    }
                }
                match self.peek_at(n) {
                    TokenKind::Ident(_) => true,
                    // `T (*x)(...)` function-pointer declarator.
                    TokenKind::Punct(Punct::LParen) if n == 1 => {
                        self.peek_at(2).is_punct(Punct::Star)
                            && matches!(self.peek_at(3), TokenKind::Ident(_))
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }

    // ----- expressions ----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_assign_expr()?;
        while self.at_punct(Punct::Comma) {
            self.bump();
            let rhs = self.parse_assign_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Comma {
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_assign_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_assign_expr_here)
    }

    fn parse_assign_expr_here(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_cond_expr()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Eq) => AssignOp::Assign,
            TokenKind::Punct(Punct::PlusEq) => AssignOp::AddAssign,
            TokenKind::Punct(Punct::MinusEq) => AssignOp::SubAssign,
            TokenKind::Punct(Punct::StarEq) => AssignOp::MulAssign,
            TokenKind::Punct(Punct::SlashEq) => AssignOp::DivAssign,
            TokenKind::Punct(Punct::PercentEq) => AssignOp::RemAssign,
            TokenKind::Punct(Punct::AmpEq) => AssignOp::AndAssign,
            TokenKind::Punct(Punct::PipeEq) => AssignOp::OrAssign,
            TokenKind::Punct(Punct::CaretEq) => AssignOp::XorAssign,
            TokenKind::Punct(Punct::ShlEq) => AssignOp::ShlAssign,
            TokenKind::Punct(Punct::ShrEq) => AssignOp::ShrAssign,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_assign_expr()?;
        let span = lhs.span.to(rhs.span);
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn parse_cond_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.parse_assign_expr()?;
            self.expect_punct(Punct::Colon)?;
            let els = self.parse_assign_expr()?;
            let span = cond.span.to(els.span);
            return Ok(Expr::new(
                ExprKind::Cond {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                span,
            ));
        }
        Ok(cond)
    }

    fn binary_op_at(&self) -> Option<(BinaryOp, u8)> {
        // Precedence levels: higher binds tighter.
        let (op, prec) = match self.peek() {
            TokenKind::Punct(Punct::PipePipe) => (BinaryOp::LogOr, 1),
            TokenKind::Punct(Punct::AmpAmp) => (BinaryOp::LogAnd, 2),
            TokenKind::Punct(Punct::Pipe) => (BinaryOp::BitOr, 3),
            TokenKind::Punct(Punct::Caret) => (BinaryOp::BitXor, 4),
            TokenKind::Punct(Punct::Amp) => (BinaryOp::BitAnd, 5),
            TokenKind::Punct(Punct::EqEq) => (BinaryOp::Eq, 6),
            TokenKind::Punct(Punct::NotEq) => (BinaryOp::Ne, 6),
            TokenKind::Punct(Punct::Lt) => (BinaryOp::Lt, 7),
            TokenKind::Punct(Punct::Gt) => (BinaryOp::Gt, 7),
            TokenKind::Punct(Punct::Le) => (BinaryOp::Le, 7),
            TokenKind::Punct(Punct::Ge) => (BinaryOp::Ge, 7),
            TokenKind::Punct(Punct::Shl) => (BinaryOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinaryOp::Shr, 8),
            TokenKind::Punct(Punct::Plus) => (BinaryOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinaryOp::Sub, 9),
            TokenKind::Punct(Punct::Star) => (BinaryOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinaryOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinaryOp::Rem, 10),
            _ => return None,
        };
        Some((op, prec))
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_pm_expr()?;
        while let Some((op, prec)) = self.binary_op_at() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary_expr(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    /// Pointer-to-member binding: `e .* pm` and `e ->* pm` bind tighter
    /// than multiplication but looser than unary operators.
    fn parse_pm_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary_expr()?;
        loop {
            let arrow = if self.at_punct(Punct::DotStar) {
                false
            } else if self.at_punct(Punct::ArrowStar) {
                true
            } else {
                break;
            };
            self.bump();
            let ptr = self.parse_unary_expr()?;
            let span = lhs.span.to(ptr.span);
            lhs = Expr::new(
                ExprKind::PtrMemApply {
                    base: Box::new(lhs),
                    arrow,
                    ptr: Box::new(ptr),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_unary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnaryOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnaryOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnaryOp::AddrOf),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnaryOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            // `&Class::member` is a pointer-to-member creation.
            if op == UnaryOp::AddrOf {
                if let TokenKind::Ident(cls) = self.peek() {
                    if self.type_names.contains(cls) && self.peek_at(1).is_punct(Punct::ColonColon)
                    {
                        let class = cls.to_string();
                        self.bump();
                        self.bump();
                        let member = self.expect_ident()?.to_string();
                        return Ok(Expr::new(
                            ExprKind::PtrToMember { class, member },
                            start.to(self.prev_span()),
                        ));
                    }
                }
            }
            let operand = self.nested(Self::parse_unary_expr)?;
            let span = start.to(operand.span);
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    expr: Box::new(operand),
                },
                span,
            ));
        }
        match self.peek() {
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                if self.at_punct(Punct::LParen) && self.starts_type_at(1) {
                    self.bump();
                    let ty = self.parse_type()?;
                    self.expect_punct(Punct::RParen)?;
                    Ok(Expr::new(
                        ExprKind::SizeofType(ty),
                        start.to(self.prev_span()),
                    ))
                } else {
                    let operand = self.nested(Self::parse_unary_expr)?;
                    let span = start.to(operand.span);
                    Ok(Expr::new(ExprKind::SizeofExpr(Box::new(operand)), span))
                }
            }
            TokenKind::Keyword(Keyword::New) => {
                self.bump();
                let ty = self.parse_type()?;
                if self.eat_punct(Punct::LBracket) {
                    let len = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    return Ok(Expr::new(
                        ExprKind::New {
                            ty,
                            args: Vec::new(),
                            array_len: Some(Box::new(len)),
                        },
                        start.to(self.prev_span()),
                    ));
                }
                let mut args = Vec::new();
                if self.eat_punct(Punct::LParen) {
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assign_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                }
                Ok(Expr::new(
                    ExprKind::New {
                        ty,
                        args,
                        array_len: None,
                    },
                    start.to(self.prev_span()),
                ))
            }
            TokenKind::Keyword(Keyword::Delete) => {
                self.bump();
                let is_array = if self.at_punct(Punct::LBracket) {
                    self.bump();
                    self.expect_punct(Punct::RBracket)?;
                    true
                } else {
                    false
                };
                let operand = self.nested(Self::parse_unary_expr)?;
                let span = start.to(operand.span);
                Ok(Expr::new(
                    ExprKind::Delete {
                        expr: Box::new(operand),
                        is_array,
                    },
                    span,
                ))
            }
            TokenKind::Keyword(
                Keyword::StaticCast
                | Keyword::ReinterpretCast
                | Keyword::ConstCast
                | Keyword::DynamicCast,
            ) => {
                let style = match self.bump() {
                    TokenKind::Keyword(Keyword::StaticCast) => CastStyle::Static,
                    TokenKind::Keyword(Keyword::ReinterpretCast) => CastStyle::Reinterpret,
                    TokenKind::Keyword(Keyword::ConstCast) => CastStyle::Const,
                    TokenKind::Keyword(Keyword::DynamicCast) => CastStyle::Dynamic,
                    _ => unreachable!(),
                };
                self.expect_punct(Punct::Lt)?;
                let ty = self.parse_type()?;
                self.expect_punct(Punct::Gt)?;
                self.expect_punct(Punct::LParen)?;
                let operand = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(Expr::new(
                    ExprKind::Cast {
                        style,
                        ty,
                        expr: Box::new(operand),
                    },
                    start.to(self.prev_span()),
                ))
            }
            // C-style cast `(T)e` — requires the parenthesized tokens to be a
            // type followed by something that can begin a unary expression.
            TokenKind::Punct(Punct::LParen) if self.is_cstyle_cast() => {
                self.bump();
                let ty = self.parse_type()?;
                self.expect_punct(Punct::RParen)?;
                let operand = self.nested(Self::parse_unary_expr)?;
                let span = start.to(operand.span);
                Ok(Expr::new(
                    ExprKind::Cast {
                        style: CastStyle::CStyle,
                        ty,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            _ => self.parse_postfix_expr(),
        }
    }

    /// Lookahead test for a C-style cast at an opening parenthesis.
    fn is_cstyle_cast(&self) -> bool {
        if !self.starts_type_at(1) {
            return false;
        }
        // Walk past the type tokens to find the matching `)`.
        let mut n = 1;
        loop {
            match self.peek_at(n) {
                TokenKind::Keyword(
                    Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Const
                    | Keyword::Volatile,
                ) => n += 1,
                TokenKind::Ident(name) if n == 1 && self.type_names.contains(name) => n += 1,
                TokenKind::Punct(Punct::Star | Punct::Amp) => n += 1,
                _ => break,
            }
        }
        if n == 1 || !self.peek_at(n).is_punct(Punct::RParen) {
            return false;
        }
        // The token after `)` must begin a unary expression.
        matches!(
            self.peek_at(n + 1),
            TokenKind::Ident(_)
                | TokenKind::IntLit(_)
                | TokenKind::FloatLit(_)
                | TokenKind::CharLit(_)
                | TokenKind::StrLit(_)
                | TokenKind::Punct(
                    Punct::LParen
                        | Punct::Star
                        | Punct::Amp
                        | Punct::Minus
                        | Punct::Plus
                        | Punct::Bang
                        | Punct::Tilde
                        | Punct::PlusPlus
                        | Punct::MinusMinus
                )
                | TokenKind::Keyword(
                    Keyword::This
                        | Keyword::New
                        | Keyword::Sizeof
                        | Keyword::True
                        | Keyword::False
                        | Keyword::Nullptr
                )
        )
    }

    fn parse_postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::Punct(Punct::Dot | Punct::Arrow) => {
                    let arrow = self.at_punct(Punct::Arrow);
                    self.bump();
                    let first = self.expect_ident()?.to_string();
                    let (qualifier, name) = if self.at_punct(Punct::ColonColon) {
                        self.bump();
                        let m = self.expect_ident()?.to_string();
                        (Some(first), m)
                    } else {
                        (None, first)
                    };
                    let span = expr.span.to(self.prev_span());
                    expr = Expr::new(
                        ExprKind::Member {
                            base: Box::new(expr),
                            arrow,
                            qualifier,
                            name,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    let span = expr.span.to(self.prev_span());
                    expr = Expr::new(
                        ExprKind::Index {
                            base: Box::new(expr),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assign_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    args.shrink_to_fit();
                    let span = expr.span.to(self.prev_span());
                    expr = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(expr),
                            args,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    let span = expr.span.to(self.prev_span());
                    expr = Expr::new(
                        ExprKind::Postfix {
                            op: PostfixOp::PostInc,
                            expr: Box::new(expr),
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    let span = expr.span.to(self.prev_span());
                    expr = Expr::new(
                        ExprKind::Postfix {
                            op: PostfixOp::PostDec,
                            expr: Box::new(expr),
                        },
                        span,
                    );
                }
                _ => return Ok(expr),
            }
        }
    }

    fn parse_primary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let kind = match self.bump() {
            TokenKind::IntLit(v) => ExprKind::IntLit(v),
            TokenKind::FloatLit(v) => ExprKind::FloatLit(v),
            TokenKind::CharLit(c) => ExprKind::CharLit(c),
            TokenKind::StrLit(s) => ExprKind::StrLit(s),
            TokenKind::Keyword(Keyword::True) => ExprKind::BoolLit(true),
            TokenKind::Keyword(Keyword::False) => ExprKind::BoolLit(false),
            TokenKind::Keyword(Keyword::Nullptr) => ExprKind::Null,
            TokenKind::Keyword(Keyword::This) => ExprKind::This,
            TokenKind::Ident(name) => ExprKind::Ident(name.to_string()),
            TokenKind::Punct(Punct::LParen) => {
                let inner = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(inner);
            }
            other => {
                return Err(ParseError::new(
                    ParseErrorKind::Unexpected {
                        expected: "expression".to_string(),
                        found: other.describe(),
                    },
                    start,
                ))
            }
        };
        Ok(Expr::new(kind, start.to(self.prev_span())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        match parse(src) {
            Ok(tu) => tu,
            Err(e) => panic!("parse error: {e} in\n{src}"),
        }
    }

    #[test]
    fn parses_empty_unit() {
        let tu = parse_ok("");
        assert!(tu.classes.is_empty());
        assert!(tu.functions.is_empty());
    }

    #[test]
    fn parses_simple_class() {
        let tu = parse_ok("class A { public: int x; int f() { return x; } };");
        let a = tu.class("A").unwrap();
        assert_eq!(a.kind, ClassKind::Class);
        assert_eq!(a.data_members.len(), 1);
        assert_eq!(a.data_members[0].access, Access::Public);
        assert_eq!(a.methods.len(), 1);
        assert_eq!(a.methods[0].kind, FunctionKind::Method);
    }

    #[test]
    fn struct_members_default_public_class_private() {
        let tu = parse_ok("struct S { int a; }; class C { int b; };");
        assert_eq!(
            tu.class("S").unwrap().data_members[0].access,
            Access::Public
        );
        assert_eq!(
            tu.class("C").unwrap().data_members[0].access,
            Access::Private
        );
    }

    #[test]
    fn parses_inheritance_with_virtual_bases() {
        let tu = parse_ok(
            "class A { }; class B : public A { }; class C : public virtual A, private B { };",
        );
        let c = tu.class("C").unwrap();
        assert_eq!(c.bases.len(), 2);
        assert!(c.bases[0].is_virtual);
        assert_eq!(c.bases[0].access, Access::Public);
        assert!(!c.bases[1].is_virtual);
        assert_eq!(c.bases[1].access, Access::Private);
    }

    #[test]
    fn parses_constructor_with_init_list() {
        let tu = parse_ok("class A { public: int x; int y; A(int v) : x(v), y(0) { } };");
        let ctor = tu.class("A").unwrap().constructors().next().unwrap();
        assert_eq!(ctor.params.len(), 1);
        assert_eq!(ctor.inits.len(), 2);
        assert_eq!(ctor.inits[0].name, "x");
    }

    #[test]
    fn parses_virtual_destructor_and_pure_virtual() {
        let tu = parse_ok("class A { public: virtual ~A() { } virtual int f() = 0; };");
        let a = tu.class("A").unwrap();
        let dtor = a.destructor().unwrap();
        assert!(dtor.is_virtual);
        assert!(dtor.body.is_some());
        let f = a.methods.iter().find(|m| m.name == "f").unwrap();
        assert!(f.is_virtual);
        assert!(f.body.is_none());
    }

    #[test]
    fn parses_union() {
        let tu = parse_ok("union U { int i; float f; };");
        let u = tu.class("U").unwrap();
        assert_eq!(u.kind, ClassKind::Union);
        assert_eq!(u.data_members.len(), 2);
    }

    #[test]
    fn parses_enum_with_values() {
        let tu = parse_ok("enum E { A, B = 5, C };");
        assert_eq!(
            tu.enums[0].variants,
            vec![("A".into(), 0), ("B".into(), 5), ("C".into(), 6)]
        );
    }

    #[test]
    fn parses_globals_and_main() {
        let tu = parse_ok("int g = 3; int main() { return g; }");
        assert_eq!(tu.globals.len(), 1);
        assert!(tu.globals[0].init.is_some());
        assert!(tu.function("main").is_some());
    }

    #[test]
    fn decl_vs_expr_disambiguation() {
        let tu = parse_ok(
            "class A { public: int x; };\n\
             int main() { A a; A* p; p = &a; int y = p->x; return y; }",
        );
        let main = tu.function("main").unwrap();
        let body = main.body.as_ref().unwrap();
        assert!(matches!(body.stmts[0].kind, StmtKind::Decl(_)));
        assert!(matches!(body.stmts[1].kind, StmtKind::Decl(_)));
        assert!(matches!(body.stmts[2].kind, StmtKind::Expr(_)));
    }

    #[test]
    fn multiplication_of_non_type_is_expression() {
        let tu = parse_ok("int main() { int a = 2; int b = 3; int c = a * b; return c; }");
        let main = tu.function("main").unwrap();
        assert_eq!(main.body.as_ref().unwrap().stmts.len(), 4);
    }

    #[test]
    fn parses_member_access_chains() {
        let tu = parse_ok(
            "struct N { int v; }; struct M { N n; };\n\
             int main() { M m; return m.n.v; }",
        );
        let main = tu.function("main").unwrap();
        let ret = &main.body.as_ref().unwrap().stmts[1];
        match &ret.kind {
            StmtKind::Return(Some(e)) => match &e.kind {
                ExprKind::Member { base, name, .. } => {
                    assert_eq!(name, "v");
                    assert!(matches!(base.kind, ExprKind::Member { .. }));
                }
                other => panic!("expected member access, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_qualified_member_access() {
        let tu = parse_ok(
            "struct A { int m; }; struct B : public A { int m; };\n\
             int main() { B b; return b.A::m; }",
        );
        let main = tu.function("main").unwrap();
        let StmtKind::Return(Some(e)) = &main.body.as_ref().unwrap().stmts[1].kind else {
            panic!("expected return")
        };
        match &e.kind {
            ExprKind::Member {
                qualifier, name, ..
            } => {
                assert_eq!(qualifier.as_deref(), Some("A"));
                assert_eq!(name, "m");
            }
            other => panic!("expected qualified access, got {other:?}"),
        }
    }

    #[test]
    fn parses_pointer_to_member() {
        let tu = parse_ok(
            "struct A { int m; };\n\
             int main() { int A::* pm; pm = &A::m; A a; return a.*pm; }",
        );
        let main = tu.function("main").unwrap();
        let stmts = &main.body.as_ref().unwrap().stmts;
        let StmtKind::Decl(decl) = &stmts[0].kind else {
            panic!("expected decl")
        };
        assert!(matches!(decl.ty.kind, TypeKind::MemberPointer { .. }));
        let StmtKind::Expr(assign) = &stmts[1].kind else {
            panic!("expected expr stmt")
        };
        let ExprKind::Assign { rhs, .. } = &assign.kind else {
            panic!("expected assignment")
        };
        assert!(matches!(rhs.kind, ExprKind::PtrToMember { .. }));
        let StmtKind::Return(Some(ret)) = &stmts[3].kind else {
            panic!("expected return")
        };
        assert!(matches!(ret.kind, ExprKind::PtrMemApply { .. }));
    }

    #[test]
    fn parses_new_delete() {
        let tu = parse_ok(
            "struct A { int x; A(int v) { x = v; } };\n\
             int main() { A* p = new A(3); int* q = new int[10]; delete p; delete[] q; return 0; }",
        );
        let main = tu.function("main").unwrap();
        assert_eq!(main.body.as_ref().unwrap().stmts.len(), 5);
    }

    #[test]
    fn parses_cstyle_and_named_casts() {
        let tu = parse_ok(
            "struct A { int x; }; struct B : public A { int y; };\n\
             int main() { A* a = new B(); B* b = (B*)a; B* c = static_cast<B*>(a); double d = (double)1; return 0; }",
        );
        let main = tu.function("main").unwrap();
        let stmts = &main.body.as_ref().unwrap().stmts;
        let StmtKind::Decl(d1) = &stmts[1].kind else {
            panic!()
        };
        let LocalInit::Expr(e) = &d1.init else {
            panic!()
        };
        assert!(matches!(
            e.kind,
            ExprKind::Cast {
                style: CastStyle::CStyle,
                ..
            }
        ));
        let StmtKind::Decl(d2) = &stmts[2].kind else {
            panic!()
        };
        let LocalInit::Expr(e2) = &d2.init else {
            panic!()
        };
        assert!(matches!(
            e2.kind,
            ExprKind::Cast {
                style: CastStyle::Static,
                ..
            }
        ));
    }

    #[test]
    fn parenthesized_expression_is_not_cast() {
        let tu = parse_ok("int main() { int a = 1; int b = (a) + 2; return b; }");
        let main = tu.function("main").unwrap();
        let StmtKind::Decl(d) = &main.body.as_ref().unwrap().stmts[1].kind else {
            panic!()
        };
        let LocalInit::Expr(e) = &d.init else {
            panic!()
        };
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn parses_sizeof_forms() {
        let tu = parse_ok(
            "struct A { int x; };\n\
             int main() { A a; int s = sizeof(A) + sizeof a; return s; }",
        );
        assert!(tu.function("main").is_some());
    }

    #[test]
    fn parses_control_flow() {
        let tu = parse_ok(
            "int main() {\n\
               int total = 0;\n\
               for (int i = 0; i < 10; i++) { if (i % 2 == 0) total += i; else continue; }\n\
               while (total > 5) { total--; }\n\
               do { total++; } while (total < 3);\n\
               return total;\n\
             }",
        );
        assert!(tu.function("main").is_some());
    }

    #[test]
    fn parses_function_pointer_declarations_and_calls() {
        let tu = parse_ok(
            "int add(int a, int b) { return a + b; }\n\
             int main() { int (*fp)(int, int); fp = &add; return fp(1, 2); }",
        );
        let main = tu.function("main").unwrap();
        let StmtKind::Decl(d) = &main.body.as_ref().unwrap().stmts[0].kind else {
            panic!("expected function-pointer declaration")
        };
        assert!(matches!(d.ty.kind, TypeKind::Pointer(_)));
    }

    #[test]
    fn parses_ternary_and_logical() {
        let tu = parse_ok("int main() { int a = 1; int b = a > 0 && a < 5 ? 2 : 3; return b; }");
        assert!(tu.function("main").is_some());
    }

    #[test]
    fn duplicate_class_is_error() {
        assert!(parse("class A { }; class A { };").is_err());
    }

    #[test]
    fn duplicate_function_is_error() {
        assert!(parse("int f() { return 0; } int f() { return 1; }").is_err());
    }

    #[test]
    fn prototype_then_definition_is_ok() {
        let tu = parse_ok("int f(int x); int f(int x) { return x; } int main() { return f(1); }");
        assert_eq!(tu.functions.len(), 2);
        assert!(tu.function("f").unwrap().body.is_some());
    }

    #[test]
    fn unsupported_constructs_error_cleanly() {
        assert!(parse("typedef int myint;").is_err());
        assert!(parse("class A { static int x; };").is_err());
    }

    #[test]
    fn parses_switch_with_cases_and_default() {
        let tu = parse_ok(
            "enum E { RED = 1, BLUE = 2 };
             int main() {
               int x = 2;
               switch (x) {
                 case RED:
                   x = 10;
                   break;
                 case 2:
                 case 3:
                   x = 20;
                   break;
                 default:
                   x = 30;
               }
               return x;
             }",
        );
        let main = tu.function("main").unwrap();
        let StmtKind::Switch { arms, .. } = &main.body.as_ref().unwrap().stmts[1].kind else {
            panic!("expected switch");
        };
        assert_eq!(arms.len(), 4);
        assert!(arms[0].value.is_some());
        assert!(arms[3].value.is_none());
        assert!(arms[1].stmts.is_empty(), "empty fallthrough arm");
    }

    #[test]
    fn forward_references_between_classes() {
        let tu = parse_ok("class B; class A { public: B* b; }; class B { public: A* a; };");
        assert_eq!(tu.classes.len(), 2);
    }

    #[test]
    fn parses_volatile_member() {
        let tu = parse_ok("class A { public: volatile int flag; };");
        assert!(tu.class("A").unwrap().data_members[0].ty.is_volatile);
    }

    #[test]
    fn parses_arrays() {
        let tu = parse_ok(
            "struct A { int buf[16]; };\n\
             int g[4];\n\
             int main() { int local[8]; A a; a.buf[0] = 1; local[2] = a.buf[0]; return local[2]; }",
        );
        let a = tu.class("A").unwrap();
        assert!(matches!(a.data_members[0].ty.kind, TypeKind::Array(_, 16)));
        assert!(matches!(tu.globals[0].ty.kind, TypeKind::Array(_, 4)));
    }

    #[test]
    fn parses_method_without_body_as_library_decl() {
        let tu = parse_ok("class Lib { public: int get(); int field; };");
        let lib = tu.class("Lib").unwrap();
        assert!(lib.methods[0].body.is_none());
    }

    #[test]
    fn parses_figure1_program() {
        // The paper's Figure 1 example, transliterated.
        let src = r#"
            class N {
            public:
                int mn1; /* live */
                int mn2; /* dead */
            };
            class A {
            public:
                virtual int f() { return ma1; }
                int ma1;
                int ma2;
                int ma3;
            };
            class B : public A {
            public:
                virtual int f() { return mb1; }
                int mb1;
                N mb2;
                int mb3;
                int mb4;
            };
            class C : public A {
            public:
                virtual int f() { return mc1; }
                int mc1;
            };
            int foo(int* x) { return (*x) + 1; }
            int main() {
                A a; B b; C c;
                A* ap;
                a.ma3 = b.mb3 + 1;
                int i = 10;
                if (i < 20) { ap = &a; } else { ap = &b; }
                return ap->f() + b.mb2.mn1 + foo(&b.mb4);
            }
        "#;
        let tu = parse_ok(src);
        assert_eq!(tu.classes.len(), 4);
        assert_eq!(tu.functions.len(), 2);
        assert_eq!(tu.data_member_count(), 10);
    }
}

#[cfg(test)]
mod out_of_line_tests {
    use super::*;

    #[test]
    fn attaches_out_of_line_body_to_declaration() {
        let tu = parse(
            "class Stack {\n\
             public:\n\
                 int top;\n\
                 int pop();\n\
             };\n\
             int Stack::pop() { int v = top; top = top - 1; return v; }\n\
             int main() { Stack s; s.top = 3; return s.pop(); }",
        )
        .expect("parse");
        let stack = tu.class("Stack").unwrap();
        let pop = stack.methods.iter().find(|m| m.name == "pop").unwrap();
        assert!(pop.body.is_some(), "out-of-line body must attach");
        assert_eq!(stack.methods.len(), 1, "no duplicate method entry");
    }

    #[test]
    fn out_of_line_params_override_declaration_names() {
        let tu = parse(
            "class Adder { public: int add(int a, int b); };\n\
             int Adder::add(int x, int y) { return x + y; }\n\
             int main() { Adder a; return a.add(1, 2); }",
        )
        .expect("parse");
        let add = &tu.class("Adder").unwrap().methods[0];
        assert_eq!(add.params[0].name, "x");
    }

    #[test]
    fn out_of_line_const_method_is_accepted() {
        assert!(parse(
            "class A { public: int x; int get() const; };\n\
             int A::get() const { return x; }\n\
             int main() { A a; return a.get(); }",
        )
        .is_ok());
    }

    #[test]
    fn out_of_line_without_declaration_is_an_error() {
        let err = parse(
            "class A { public: int x; };\n\
             int A::mystery() { return x; }\n\
             int main() { return 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("declaration"));
    }

    #[test]
    fn out_of_line_for_unknown_class_is_an_error() {
        // `Ghost` is pre-scanned as a type name via the forward decl but
        // never defined.
        let err = parse(
            "class Ghost;\n\
             int Ghost::haunt() { return 1; }\n\
             int main() { return 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("class `Ghost`"));
    }

    #[test]
    fn duplicate_out_of_line_body_is_an_error() {
        let err = parse(
            "class A { public: int f() { return 1; } };\n\
             int A::f() { return 2; }\n\
             int main() { return 0; }",
        )
        .unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::Duplicate(_)));
    }

    #[test]
    fn out_of_line_method_works_end_to_end_with_pointer_return() {
        let tu = parse(
            "class Node { public: Node* next; int v; Node* tail(); };\n\
             Node* Node::tail() {\n\
                 Node* cur = this;\n\
                 while (cur->next != nullptr) { cur = cur->next; }\n\
                 return cur;\n\
             }\n\
             int main() { Node a; Node b; a.next = &b; a.v = 1; b.v = 2; b.next = nullptr; return a.tail()->v; }",
        )
        .expect("parse");
        assert!(tu.class("Node").unwrap().methods[0].body.is_some());
    }

    /// One statement per nesting shape, each nested `depth` levels.
    fn nested_statements(depth: usize) -> Vec<String> {
        let rep = |s: &str| s.repeat(depth);
        vec![
            format!("return {}1{};", rep("("), rep(")")),
            format!("{};{}", rep("{ "), rep(" }")),
            format!("{};", rep("while (a) ")),
            format!("return {}a;", rep("-")),
            format!("return {}a;", rep("!")),
            format!("return {}a;", rep("(int)")),
            format!("return {}a;", rep("sizeof ")),
            format!("{}1;", rep("a = ")),
            format!("return {}2;", rep("a ? 1 : ")),
            format!("return {}1{};", rep("f("), rep(")")),
            format!("return {}0{};", rep("p["), rep("]")),
        ]
    }

    fn in_main(stmt: &str) -> String {
        format!(
            "int f(int x) {{ return x; }}\n\
             int main() {{ int a = 0; int* p = &a; {stmt} return 0; }}"
        )
    }

    fn assert_too_deep(src: &str) {
        let err = parse(src).expect_err("nesting past the limit is rejected");
        assert_eq!(
            err.kind(),
            &ParseErrorKind::NestingTooDeep(MAX_NESTING_DEPTH),
            "{err}"
        );
    }

    #[test]
    fn nesting_below_the_limit_parses() {
        for stmt in nested_statements(200) {
            parse(&in_main(&stmt)).unwrap_or_else(|e| panic!("{e}: {}", &stmt[..40]));
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        for stmt in nested_statements(10_000) {
            assert_too_deep(&in_main(&stmt));
        }
        // The limit is exact. The statement and its expression take two
        // levels, each parenthesis one more.
        let parens = |n: usize| {
            format!(
                "int main() {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(parse(&parens(MAX_NESTING_DEPTH - 2)).is_ok());
        assert_too_deep(&parens(MAX_NESTING_DEPTH - 1));
    }
}
