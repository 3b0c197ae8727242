//! Recursive-descent parser for the C++ subset.
//!
//! The parser keeps a set of known type names (every name a `class`,
//! `struct`, `union` or `enum` keyword introduces anywhere in the TU, so
//! forward references work) and uses it to disambiguate declarations
//! from expressions, exactly as a real C++ front end does.

use crate::ast::*;
use crate::diag::{ParseError, ParseErrorKind};
use crate::hash::{fnv1a64, fnv1a64_each};
use crate::lexer::{ItemEnd, Lexer};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
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
/// Item text an earlier TU had is not even lexed again. The memo knows
/// every item text it has split that its own `;` or `}` ended, with the
/// type names the item declares and the item that followed it last
/// time. Where an item starts, the split proposes the item that
/// followed the previous one (first in a TU: the first item of the TU
/// split before); if the source continues with exactly that text, the
/// item is taken whole, unlexed. Lexing from a token boundary needs no
/// context, and `;` or `}` is never a prefix of a longer token, so
/// lexing would have ended the item at the same byte.
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
    /// Hashes each item text once, outside the lock.
    hasher: RandomState,
    state: Mutex<MemoState<'a>>,
}

#[derive(Debug, Default)]
struct MemoState<'a> {
    /// Each distinct type-name set (sorted), interned once per TU.
    name_sets: HashMap<Vec<&'a str>, u32>,
    /// Text hash → the newest text with that hash (a collision costs a
    /// text comparison, never a wrong hit). The keys are already keyed
    /// hashes, so the map uses them as they are.
    index: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    texts: Vec<Text<'a>>,
    /// The type names the texts declare, by [`Text::names`].
    names: Vec<&'a str>,
    entries: Vec<Entry>,
    /// The first item of the TU that reached it last, if closed.
    first: Option<usize>,
    /// Items in the TUs parsed so far, and `(TU, entry)` per memoized one.
    decls: u64,
    uses: Vec<(usize, usize)>,
}

/// Hashes a `u64` key that is already a keyed hash: as itself.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only `u64` keys are prehashed")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One distinct item text.
#[derive(Debug)]
struct Text<'a> {
    text: &'a str,
    /// The previous text whose hash is the same.
    chain: Option<usize>,
    /// Whether the item's own `;` or `}` ended it, not the end of input:
    /// only then does the text end an item wherever it starts one.
    closed: bool,
    /// Where its first token ends, from its first byte.
    head: u32,
    /// The type names it declares, a range of [`MemoState::names`].
    names: (u32, u32),
    /// The closed text that followed it last time.
    next: Option<usize>,
    /// Its newest parse.
    entry: Option<usize>,
}

/// One shared parse.
#[derive(Debug)]
struct Entry {
    /// The type-name set it was parsed under.
    names: u32,
    decl: Decl,
    /// The lowest TU index whose parse used it.
    first_tu: usize,
    /// The same text's previous parse, under other type names.
    prev: Option<usize>,
}

impl<'a> MemoState<'a> {
    /// The text equal to `text`, whose hash is `hash`.
    fn find(&self, hash: u64, text: &str) -> Option<usize> {
        let mut at = self.index.get(&hash).copied();
        while let Some(id) = at.filter(|&id| self.texts[id].text != text) {
            at = self.texts[id].chain;
        }
        at
    }

    /// The parse of text `text` under the type-name set `names`.
    fn entry(&self, text: usize, names: u32) -> Option<usize> {
        let mut at = self.texts[text].entry;
        while let Some(entry) = at.filter(|&entry| self.entries[entry].names != names) {
            at = self.entries[entry].prev;
        }
        at
    }

    /// Adds `item`'s text, which declares `names`.
    fn add(&mut self, item: &SplitItem, text: &'a str, names: &[&'a str]) -> usize {
        let id = self.texts.len();
        let from = self.names.len() as u32;
        self.names.extend_from_slice(names);
        let chain = self.index.insert(item.hash, id);
        self.texts.push(Text {
            text,
            chain,
            closed: item.closed,
            head: item.head - item.lo,
            names: (from, self.names.len() as u32),
            next: None,
            entry: None,
        });
        id
    }
}

/// One top-level item of the TU being parsed.
#[derive(Debug)]
struct SplitItem {
    /// The item's text, as a byte range of the source.
    lo: u32,
    hi: u32,
    /// Where its first token ends.
    head: u32,
    /// The index of its first token, or, for an item taken unlexed,
    /// where its tokens would go.
    first: usize,
    /// The index of its last token; `None` for an item taken unlexed.
    last: Option<usize>,
    /// The hash of its text (lexed items only).
    hash: u64,
    /// Whether its own `;` or `}` ended it.
    closed: bool,
    /// The type names it declares, a range of the TU's name list.
    names: (usize, usize),
    /// The memo's text, once known.
    text: Option<usize>,
}

/// Describes tokens `first..=last` as one item, adding the type names
/// it declares (each `class`, `struct`, `union` or `enum` keyword
/// followed by an identifier) to `names`. No such pair straddles two
/// items, since every item but the last ends in `;` or `}`.
fn describe<'a>(
    src: &'a str,
    tokens: &[Token<'a>],
    first: usize,
    last: usize,
    closed: bool,
    hasher: &RandomState,
    names: &mut Vec<&'a str>,
) -> SplitItem {
    let from = names.len();
    for w in tokens[first..=last].windows(2) {
        if let (
            TokenKind::Keyword(Keyword::Class | Keyword::Struct | Keyword::Union | Keyword::Enum),
            TokenKind::Ident(name),
        ) = (&w[0].kind, &w[1].kind)
        {
            names.push(name);
        }
    }
    let (lo, hi) = (tokens[first].span.lo, tokens[last].span.hi);
    SplitItem {
        lo,
        hi,
        head: tokens[first].span.hi,
        first,
        last: Some(last),
        hash: hasher.hash_one(&src[lo as usize..hi as usize]),
        closed,
        names: (from, names.len()),
        text: None,
    }
}

/// The text `span` covers in `src`: empty if the span is not a range
/// of it.
fn text_of(src: &str, span: Span) -> &[u8] {
    src.get(span.lo as usize..span.hi as usize)
        .unwrap_or("")
        .as_bytes()
}

/// One item's declaration in the TU being parsed.
struct Parsed {
    decl: Decl,
    /// Where its spans are measured from: the item's first byte, or 0
    /// for a parse in context.
    base: u32,
    /// Its first token.
    start: Span,
    origin: Origin,
}

/// Where an item's declaration came from.
#[derive(Clone, Copy)]
enum Origin {
    /// The memo entry it shares.
    Shared(usize),
    /// Parsed on its own tokens, to be memoized under this text.
    Fresh(usize),
    /// Parsed in context; never memoized.
    InContext,
}

/// Sets the fingerprint of every function a fresh parse in `parsed`
/// declares, four functions at a time ([`fnv1a64_each`]): each is the
/// hash of the text its span covers. A shared parse already has them.
fn fingerprint_fresh(src: &str, parsed: &mut [Parsed]) {
    let mut functions: Vec<(&mut FunctionDecl, u32)> = Vec::new();
    for item in parsed {
        if matches!(item.origin, Origin::Shared(_)) {
            continue;
        }
        let base = item.base;
        let fresh = "a fresh parse is not shared yet";
        match &mut item.decl {
            Decl::Class(Some(class)) => functions.extend(
                Arc::get_mut(class)
                    .expect(fresh)
                    .methods
                    .iter_mut()
                    .map(|f| (f, base)),
            ),
            Decl::Function(f) | Decl::OutOfLine(_, f) => {
                functions.push((Arc::get_mut(f).expect(fresh), base));
            }
            Decl::Class(None) | Decl::Enum(_) | Decl::Global(_) => {}
        }
    }
    let texts: Vec<&[u8]> = functions
        .iter()
        .map(|(f, base)| text_of(src, f.span.rebase(*base)))
        .collect();
    for ((f, _), fp) in functions.iter_mut().zip(fnv1a64_each(&texts)) {
        f.fp = fp;
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
    /// The names of `tu.classes`, for the duplicate check.
    class_names: HashSet<String>,
    /// The free functions in merge order. A prototype that its
    /// definition replaced leaves a `None`, which `finish` drops.
    functions: Vec<Option<Item<FunctionDecl>>>,
    /// Each free function's slot in `functions`.
    function_slots: HashMap<String, usize>,
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
        let (tokens, split, mut names) = self.split(src)?;
        let mut set = names.clone();
        set.sort_unstable();
        set.dedup();
        let type_names = set.iter().copied().collect();
        let set = {
            let mut state = self.lock();
            let next = state.name_sets.len() as u32;
            *state.name_sets.entry(set).or_insert(next)
        };
        let mut parser = Parser::new(src, tokens, type_names);
        let mut parsed = Vec::new();
        let mut failed = None;
        let mut prev = None;
        // The split's items, until an in-context parse re-lexes the rest
        // of the TU; from then on an item starts where the last one ended.
        let mut split = split.into_iter();
        let mut relexed = false;
        loop {
            let item = if relexed {
                parser.next_item(&self.hasher, &mut names)
            } else {
                split.next()
            };
            let Some(item) = item else {
                break;
            };
            let text = &src[item.lo as usize..item.hi as usize];
            let (id, hit) = self.lookup(&item, text, &names, set, prev);
            prev = Some(id);
            let start = Span::new(item.lo, item.head);
            let (decl, base, origin) = if let Some((entry, decl)) = hit {
                if let Some(last) = item.last {
                    parser.pos = last + 1;
                }
                (decl, item.lo, Origin::Shared(entry))
            } else if let Some(decl) = parser.parse_alone(&item)? {
                (decl, item.lo, Origin::Fresh(id))
            } else {
                // The item does not parse on its own tokens: parse it in
                // context, for exactly the result or error of a whole-TU
                // parse. That parse may end anywhere, so the rest of the
                // TU is lexed for it, once.
                if !relexed {
                    parser.relex(&item)?;
                    relexed = true;
                }
                parser.pos = item.first;
                match parser.parse_item() {
                    Ok(decl) => (decl, 0, Origin::InContext),
                    Err(error) => {
                        failed = Some(error);
                        break;
                    }
                }
            };
            parsed.push(Parsed {
                decl,
                base,
                start,
                origin,
            });
        }
        fingerprint_fresh(src, &mut parsed);
        let used = self.memoize(&mut parsed, set);
        // Items merge in order, so a merge error of an earlier item still
        // wins over the parse error of a later one.
        let items = parsed.len() as u64;
        let mut unit = UnitBuilder::default();
        for Parsed {
            decl, base, start, ..
        } in parsed
        {
            unit.merge(decl, base, start)?;
        }
        if let Some(error) = failed {
            return Err(error);
        }
        let unit = unit.finish(src)?;
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

    /// Splits `src` into its top-level items. An item whose text the
    /// memo proposes is taken unlexed; every other item is lexed on its
    /// own. Returns the lexed items' tokens (ending with `Eof`), the
    /// items, and the type names they declare. Every lexical error
    /// stops the split, so it wins over any parse error.
    #[allow(clippy::type_complexity)]
    fn split(
        &self,
        src: &'a str,
    ) -> Result<(Vec<Token<'a>>, Vec<SplitItem>, Vec<&'a str>), ParseError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        let mut items = Vec::new();
        let mut names = Vec::new();
        // Looking texts up costs a lock per item, so a TU does it only if
        // an earlier one left texts to find.
        let (lookups, mut guess) = {
            let state = self.lock();
            (!state.texts.is_empty(), state.first)
        };
        loop {
            lexer.skip_trivia()?;
            let lo = lexer.pos;
            if let Some((item, next)) =
                guess.and_then(|text| self.recognise(text, src, lo, tokens.len(), &mut names))
            {
                lexer.pos = item.hi as usize;
                items.push(item);
                guess = next;
                continue;
            }
            let first = tokens.len();
            if lo == src.len() {
                lexer.lex_rest(&mut tokens)?;
                break;
            }
            let closed = lexer.lex_item(&mut tokens)?;
            let last = tokens.len() - 1 - usize::from(!closed);
            let mut item = describe(src, &tokens, first, last, closed, &self.hasher, &mut names);
            guess = None;
            if lookups {
                let state = self.lock();
                item.text = state.find(item.hash, &src[item.lo as usize..item.hi as usize]);
                guess = item.text.and_then(|text| state.texts[text].next);
            }
            items.push(item);
            if !closed {
                break;
            }
        }
        Ok((tokens, items, names))
    }

    /// The item at `lo`, taken unlexed if `src` continues there with
    /// exactly the closed text `text`, whose tokens would go at index
    /// `first`; with the text that followed it last time.
    fn recognise(
        &self,
        text: usize,
        src: &str,
        lo: usize,
        first: usize,
        names: &mut Vec<&'a str>,
    ) -> Option<(SplitItem, Option<usize>)> {
        let state = self.lock();
        let known = &state.texts[text];
        if !known.closed || !src.as_bytes()[lo..].starts_with(known.text.as_bytes()) {
            return None;
        }
        let from = names.len();
        names.extend_from_slice(&state.names[known.names.0 as usize..known.names.1 as usize]);
        let lo = lo as u32;
        let item = SplitItem {
            lo,
            hi: lo + known.text.len() as u32,
            head: lo + known.head,
            first,
            last: None,
            hash: 0,
            closed: true,
            names: (from, names.len()),
            text: Some(text),
        };
        Some((item, known.next))
    }

    /// The memo's text for `item`, added if new and linked as the one
    /// that followed `prev` (`None`: the TU's first item), with its
    /// parse under the type-name set `set`, if any.
    fn lookup(
        &self,
        item: &SplitItem,
        text: &'a str,
        names: &[&'a str],
        set: u32,
        prev: Option<usize>,
    ) -> (usize, Option<(usize, Decl)>) {
        let mut state = self.lock();
        let id = match item.text.or_else(|| state.find(item.hash, text)) {
            Some(id) => id,
            None => state.add(item, text, &names[item.names.0..item.names.1]),
        };
        if state.texts[id].closed {
            match prev {
                Some(prev) => state.texts[prev].next = Some(id),
                None => state.first = Some(id),
            }
        }
        let hit = state
            .entry(id, set)
            .map(|entry| (entry, state.entries[entry].decl.clone()));
        (id, hit)
    }

    /// Memoizes the fresh parses in `parsed`, each under its text and the
    /// type-name set `set`, and returns the entries the TU uses. Where
    /// another thread memoized the same key first, its parse replaces
    /// this one.
    fn memoize(&self, parsed: &mut [Parsed], set: u32) -> Vec<usize> {
        let mut state = self.lock();
        let mut used = Vec::with_capacity(parsed.len());
        for item in parsed {
            match item.origin {
                Origin::Shared(entry) => used.push(entry),
                Origin::Fresh(text) => {
                    let entry = state.entry(text, set).unwrap_or_else(|| {
                        let fresh = state.entries.len();
                        let prev = state.texts[text].entry.replace(fresh);
                        state.entries.push(Entry {
                            names: set,
                            decl: std::mem::replace(&mut item.decl, Decl::Class(None)),
                            first_tu: usize::MAX,
                            prev,
                        });
                        fresh
                    });
                    item.decl = state.entries[entry].decl.clone();
                    used.push(entry);
                }
                Origin::InContext => {}
            }
        }
        used
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
                if !self.class_names.insert(class.name.clone()) {
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
            // declared yet; a body replaces an earlier prototype and
            // takes the position of the definition.
            Decl::Function(decl) => {
                let slot = self.functions.len();
                match self.function_slots.get_mut(&decl.name) {
                    None => {
                        self.function_slots.insert(decl.name.clone(), slot);
                    }
                    Some(_) if decl.body.is_none() => return Ok(()),
                    Some(at) => {
                        if self.functions[*at]
                            .as_ref()
                            .is_some_and(|f| f.body.is_some())
                        {
                            return Err(ParseError::new(
                                ParseErrorKind::Duplicate(decl.name.clone()),
                                start,
                            ));
                        }
                        self.functions[std::mem::replace(at, slot)] = None;
                    }
                }
                self.functions.push(Some(Item { base, decl }));
            }
            Decl::OutOfLine(class, decl) => self.out_of_line.push((class, Item { base, decl })),
        }
        Ok(())
    }

    /// Attaches out-of-line method bodies to their in-class declarations;
    /// `src` is the TU's source.
    fn finish(mut self, src: &str) -> Result<TranslationUnit, ParseError> {
        self.tu.functions = self.functions.into_iter().flatten().collect();
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
            // The merged span is computed in absolute terms, and so is
            // its fingerprint, over this TU's own text; the body and
            // parameters stay measured from the definition's own start.
            let class_base = class.base;
            let decl = &mut class.methods[index];
            decl.body = def.body.clone();
            decl.params = def.params.clone();
            decl.body_offset = def.base.wrapping_sub(class_base);
            let merged = decl.span.rebase(class_base).to(span);
            decl.span = merged.rebase(class_base.wrapping_neg());
            decl.fp = fnv1a64(text_of(src, merged));
        }
        Ok(self.tu)
    }
}

struct Parser<'a> {
    src: &'a str,
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
    /// A parser over `tokens`, lexed from `src`, that knows the TU's
    /// type names. The set never changes afterwards.
    fn new(src: &'a str, tokens: Vec<Token<'a>>, type_names: HashSet<&'a str>) -> Self {
        Parser {
            src,
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

    /// Charges one more derivation level (`*`, `&`, `C::*`, `[N]`, or the
    /// function or pointer of a function-pointer declarator) to a type
    /// with `levels` already, on top of the current nesting: each
    /// recursive pass over a type descends one frame per level.
    fn derive(&self, levels: &mut usize) -> Result<(), ParseError> {
        if self.depth + *levels >= MAX_NESTING_DEPTH {
            return Err(ParseError::new(
                ParseErrorKind::NestingTooDeep(MAX_NESTING_DEPTH),
                self.span(),
            ));
        }
        *levels += 1;
        Ok(())
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

    /// The item that starts at the cursor, found after an in-context
    /// parse: it ends where [`ItemEnd`] says, or at the last token before
    /// the end of input. `None` at the end of input.
    fn next_item(&self, hasher: &RandomState, names: &mut Vec<&'a str>) -> Option<SplitItem> {
        if matches!(self.peek(), TokenKind::Eof) {
            return None;
        }
        let mut end = ItemEnd::new(self.peek());
        let last = self.end - 1;
        let (last, closed) = (self.pos..=last)
            .find(|&i| end.at(&self.tokens[i].kind))
            .map_or((last, false), |i| (i, true));
        Some(describe(
            self.src,
            &self.tokens,
            self.pos,
            last,
            closed,
            hasher,
            names,
        ))
    }

    /// Parses `item` on its own tokens, as if the input ended after it,
    /// with spans measured from the item's first byte. An item the split
    /// took unlexed is lexed first, into scratch space after the end of
    /// input. `None` if the parse fails or stops before the item's end.
    fn parse_alone(&mut self, item: &SplitItem) -> Result<Option<Decl>, ParseError> {
        let scratch = self.tokens.len();
        let (first, last) = match item.last {
            Some(last) => (item.first, last),
            None => {
                let mut lexer = Lexer::new(self.src);
                lexer.pos = item.lo as usize;
                while lexer.pos < item.hi as usize {
                    self.tokens.push(lexer.next_token()?);
                }
                // The slot of the stand-in end of input.
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(item.hi, item.hi),
                });
                (scratch, self.tokens.len() - 2)
            }
        };
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
        let whole = self.pos == last + 1;
        self.tokens.truncate(scratch);
        Ok(decl.ok().filter(|_| whole))
    }

    /// Lexes the source again from `item` on, in place of the rest of
    /// the tokens and of the items the split took unlexed.
    fn relex(&mut self, item: &SplitItem) -> Result<(), ParseError> {
        self.tokens.truncate(item.first);
        let mut lexer = Lexer::new(self.src);
        lexer.pos = item.lo as usize;
        lexer.lex_rest(&mut self.tokens)?;
        self.end = self.tokens.len() - 1;
        Ok(())
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
                fp: 0,
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
                    fp: 0,
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
                fp: 0,
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
                        fp: 0,
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
                fp: 0,
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
        let mut levels = 0;
        loop {
            if self.at_punct(Punct::Star) {
                self.derive(&mut levels)?;
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
                self.derive(&mut levels)?;
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
                    self.derive(&mut levels)?;
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
        let mut levels = base.depth();
        // Function pointer declarator: `RET (*name)(params)`, a pointer
        // to a function returning `base`.
        if self.at_punct(Punct::LParen) && self.peek_at(1).is_punct(Punct::Star) {
            self.derive(&mut levels)?;
            self.derive(&mut levels)?;
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
            // The parameter types sit inside the function and the pointer.
            let params = self.nested(|p| p.nested(Self::parse_fn_ptr_params))?;
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
            self.derive(&mut levels)?;
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

    /// The parenthesised parameter types of a function-pointer
    /// declarator.
    fn parse_fn_ptr_params(&mut self) -> Result<Vec<Type>, ParseError> {
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
        Ok(params)
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
    fn free_functions_merge_in_definition_order() {
        // A definition replaces its prototype at the definition's
        // position; a prototype after the definition is dropped.
        let tu =
            parse_ok("int f(); int g() { return 1; } int f() { return g(); } int g(); int h();");
        let order: Vec<(&str, bool)> = tu
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.body.is_some()))
            .collect();
        assert_eq!(order, [("g", true), ("f", true), ("h", false)]);
        // A second definition is a duplicate at its first token.
        let src = "int f(); int f() { return 0; }\nint f() { return 1; }";
        let err = parse(src).unwrap_err();
        assert!(matches!(err.kind(), ParseErrorKind::Duplicate(name) if name == "f"));
        assert_eq!(err.span().lo as usize, src.rfind("int f()").unwrap());
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

#[cfg(test)]
mod split_tests {
    use super::*;

    const HEADER: &str = "class A { public: int x; int get() { return x; } };\nenum E { P, Q };\n";

    #[test]
    fn an_earlier_tus_items_are_taken_unlexed() {
        let a = format!("{HEADER}int main() {{ A a; return a.get(); }}\n");
        let b = format!("// b\n{HEADER}int helper() {{ A a; return a.x; }}\n");
        let memo = DeclMemo::new();
        let (tokens, items, _) = memo.split(&a).expect("split a");
        assert!(
            items.iter().all(|item| item.last.is_some()),
            "nothing known yet"
        );
        memo.parse(0, &a).expect("a parses");
        let (tokens_b, items, names) = memo.split(&b).expect("split b");
        let unlexed: Vec<bool> = items.iter().map(|item| item.last.is_none()).collect();
        assert_eq!(unlexed, [true, true, false]);
        // Only `helper` (and the end of input) was lexed; the header's
        // type names come from the memo.
        assert!(
            tokens_b.len() < tokens.len() / 2,
            "{} tokens",
            tokens_b.len()
        );
        assert_eq!(names, ["A", "E"]);
        let tb = memo.parse(1, &b).expect("b parses");
        assert_eq!(tb.classes[0].base, 5);
    }

    #[test]
    fn a_known_item_under_other_type_names_is_lexed_and_parsed_again() {
        let a = format!("{HEADER}int main() {{ return 0; }}\n");
        let b = format!("{HEADER}class Extra {{ public: int e; }};\n");
        let memo = DeclMemo::new();
        let ta = memo.parse(0, &a).expect("a parses");
        let tb = memo.parse(1, &b).expect("b parses");
        assert!(!Arc::ptr_eq(&ta.classes[0].decl, &tb.classes[0].decl));
        assert_eq!(ta.classes[0].decl, tb.classes[0].decl);
        assert_eq!(memo.decl_counts(), (6, 0));
    }

    #[test]
    fn fingerprints_cover_each_function_and_each_merged_definition() {
        let src = "int A::get() { return x; }\nclass A { public: int x; int get(); };\nint f() { return 1; }\n";
        let tu = parse(src).expect("parses");
        let fp = |span: Span| fnv1a64(src[span.lo as usize..span.hi as usize].as_bytes());
        let class = &tu.classes[0];
        let get = &class.methods[0];
        // The merged span runs from the definition to the declaration.
        let decl_end = src.find("int get();").expect("declaration") + "int get();".len();
        assert_eq!(class.at(get.span), Span::new(0, decl_end as u32));
        assert_eq!(get.fp, fp(class.at(get.span)));
        assert_eq!(
            tu.functions[0].fp,
            fp(tu.functions[0].at(tu.functions[0].span))
        );
    }
}
