//! Shared type prefixes (DESIGN §5k).
//!
//! A TU whose classes and enums all end before its first free function
//! has a *type prefix*: those classes and enums. When it also defines a
//! class, no global, and no out-of-line method body, it has a
//! [`PrefixKey`]: each prefix declaration as the run's
//! [`DeclMemo`](ddm_cppfront::DeclMemo) shares it (one `Arc` per item
//! text and type-name set), with the line and column where it starts.
//! Two TUs with equal keys parsed equal prefixes at equal positions, so
//! the class records the first of them extracts are the ones the second
//! would extract — provided no free function either TU declares is
//! spelled as an identifier in the prefix, since a prefix body can
//! reach nothing else of its TU. [`Prefixes`] is the run's table: the
//! first TU with a key publishes its records, and later TUs with the
//! key take them instead of walking and extracting their classes.

use ddm_cppfront::ast::{ClassDecl, EnumDecl, TranslationUnit};
use ddm_cppfront::lexer::tokenize;
use ddm_cppfront::token::TokenKind;
use ddm_cppfront::SourceMap;
use ddm_hierarchy::{ClassRecord, TuModule};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// One class or enum of a type prefix: the run's shared parse, held so
/// that its address cannot be reused while keys compare by it.
enum Decl {
    Class(Arc<ClassDecl>),
    Enum(Arc<EnumDecl>),
}

impl Decl {
    fn addr(&self) -> *const () {
        match self {
            Decl::Class(c) => Arc::as_ptr(c).cast(),
            Decl::Enum(e) => Arc::as_ptr(e).cast(),
        }
    }
}

/// A TU's type prefix: each class and enum in source order, with the
/// 1-based line and column where it starts. Equal keys mean equal
/// parses (the same `Arc`s) at equal positions.
pub(crate) struct PrefixKey(Vec<(Decl, u32, u32)>);

impl PrefixKey {
    /// The key of `unit`, whose source `map` holds, or `None` when the
    /// TU defines no class, defines a global, gives a method an
    /// out-of-line body, or starts a free function before a class or
    /// enum ends.
    pub(crate) fn of(unit: &TranslationUnit, map: &SourceMap) -> Option<PrefixKey> {
        if unit.classes.is_empty() || !unit.globals.is_empty() {
            return None;
        }
        let first_fn = unit.functions.iter().map(|f| f.at(f.span).lo).min();
        let before_first_fn = |hi: u32| first_fn.is_none_or(|lo| hi <= lo);
        let mut items = Vec::with_capacity(unit.classes.len() + unit.enums.len());
        for class in &unit.classes {
            let span = class.at(class.span);
            if !before_first_fn(span.hi) || class.methods.iter().any(|m| m.body_offset != 0) {
                return None;
            }
            items.push((span.lo, Decl::Class(Arc::clone(&class.decl))));
        }
        for e in &unit.enums {
            let span = e.at(e.span);
            if !before_first_fn(span.hi) {
                return None;
            }
            items.push((span.lo, Decl::Enum(Arc::clone(&e.decl))));
        }
        items.sort_unstable_by_key(|&(lo, _)| lo);
        let items = items
            .into_iter()
            .map(|(lo, decl)| {
                let at = map.lookup(lo);
                (decl, at.line, at.col)
            })
            .collect();
        Some(PrefixKey(items))
    }
}

impl PartialEq for PrefixKey {
    fn eq(&self, other: &PrefixKey) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|((a, al, ac), (b, bl, bc))| a.addr() == b.addr() && (al, ac) == (bl, bc))
    }
}

impl Eq for PrefixKey {}

impl Hash for PrefixKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (decl, line, col) in &self.0 {
            (decl.addr(), line, col).hash(state);
        }
    }
}

/// Every identifier the class and enum items of `unit`, whose text is
/// `source`, spell.
fn identifiers(unit: &TranslationUnit, source: &str) -> HashSet<String> {
    let classes = unit.classes.iter().map(|c| c.at(c.span));
    let enums = unit.enums.iter().map(|e| e.at(e.span));
    let mut idents = HashSet::new();
    for span in classes.chain(enums) {
        let text = &source[span.lo as usize..span.hi as usize];
        for token in tokenize(text).expect("a parsed item lexes on its own") {
            if let TokenKind::Ident(name) = token.kind {
                idents.insert(name.to_string());
            }
        }
    }
    idents
}

/// Whether none of `names` is in `idents`.
fn disjoint<'n>(idents: &HashSet<String>, mut names: impl Iterator<Item = &'n str>) -> bool {
    names.all(|name| !idents.contains(name))
}

/// One key's entry.
struct Entry {
    /// Every identifier the prefix items spell.
    idents: HashSet<String>,
    /// The prefix's class records, once a TU that may share them
    /// published them. A prefix whose walk failed is never published:
    /// the stored error carries a byte span, which TUs with equal lines
    /// and columns can still disagree on.
    records: Option<Vec<Arc<ClassRecord>>>,
}

/// The run's type prefixes, by key.
#[derive(Default)]
pub(crate) struct Prefixes {
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    index: HashMap<PrefixKey, usize>,
    entries: Vec<Entry>,
}

impl Prefixes {
    /// The entry of `key` and its class records, if a TU published them
    /// and `unit` declares no free function their prefix spells.
    pub(crate) fn take(
        &self,
        key: &PrefixKey,
        unit: &TranslationUnit,
    ) -> Option<(usize, Vec<Arc<ClassRecord>>)> {
        let state = self.lock();
        let id = *state.index.get(key)?;
        let entry = &state.entries[id];
        match &entry.records {
            Some(records)
                if disjoint(
                    &entry.idents,
                    unit.functions.iter().map(|f| f.name.as_str()),
                ) =>
            {
                Some((id, records.clone()))
            }
            _ => None,
        }
    }

    /// Publishes the class records of `module`, extracted from `unit`
    /// (whose text is `source`) on the whole-TU path, under `key`, unless
    /// a TU already did or `unit` declares a free function its prefix
    /// spells. Returns the key's entry.
    pub(crate) fn publish(
        &self,
        key: PrefixKey,
        unit: &TranslationUnit,
        source: &str,
        module: &TuModule,
    ) -> usize {
        let known = self.lock().index.contains_key(&key);
        // Lexed outside the lock; entries are never removed.
        let idents = (!known).then(|| identifiers(unit, source));
        let mut state = self.lock();
        let next = state.entries.len();
        let id = *state.index.entry(key).or_insert(next);
        if id == next {
            state.entries.push(Entry {
                idents: idents.expect("lexed when the key was new"),
                records: None,
            });
        }
        let entry = &mut state.entries[id];
        let names = unit.functions.iter().map(|f| f.name.as_str());
        let mut methods = module.classes.iter().flat_map(|c| &c.methods);
        let walked = methods.all(|m| m.summary.is_ok());
        if entry.records.is_none() && walked && disjoint(&entry.idents, names) {
            entry.records = Some(module.classes.clone());
        }
        id
    }

    /// How many of `tus` — each TU's entry, if it has a key, and module,
    /// in input order — take their class records from a TU before them,
    /// had they run in that order: every TU of a shared key that may
    /// share, but the first. The same at every worker count.
    pub(crate) fn shared_tus<'m>(
        &self,
        tus: impl IntoIterator<Item = (Option<usize>, &'m TuModule)>,
    ) -> u64 {
        let state = self.lock();
        let mut published = vec![false; state.entries.len()];
        let mut shared = 0;
        for (id, module) in tus {
            let Some(id) = id else {
                continue;
            };
            let entry = &state.entries[id];
            let names = module.free_fns.iter().map(|f| f.name.as_str());
            if entry.records.is_some() && disjoint(&entry.idents, names) {
                if published[id] {
                    shared += 1;
                } else {
                    published[id] = true;
                }
            }
        }
        shared
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("prefix table poisoned")
    }
}
