//! String interning for the analysis hot paths.
//!
//! The call-graph fixpoint and the dispatch-candidate cache used to key
//! their memo tables by `String`, which meant hashing (and on insert,
//! cloning) a method name for every virtual site replayed — a per-pop
//! allocation cost that dominated once programs reached tens of
//! thousands of functions. An [`Interner`] maps each distinct name to a
//! dense [`Symbol`] (`u32`) once, at model-build time; every later
//! comparison or map key is an integer.
//!
//! Symbols are assigned in first-intern order, so for a given program
//! the numbering is deterministic: [`Program`](crate::Program) interns
//! function names in `FuncId` order, and the linker's reassembled
//! programs re-intern in the same order.

use std::collections::HashMap;
use std::fmt;

/// A dense handle for an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index into its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Deduplicating string arena: each distinct string is stored once and
/// addressed by a [`Symbol`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<String>,
    map: HashMap<String, Symbol>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning its symbol. Interning the same string
    /// twice returns the same symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("interner overflow"));
        self.strings.push(s.to_string());
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// The symbol of an already-interned string, or `None`.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// The string a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Bytes of string data held by the arena (excluding map overhead);
    /// reported as the `callgraph/arena_bytes` metric.
    pub fn arena_bytes(&self) -> usize {
        self.strings.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips_and_dedups() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a, "re-intern returns the same symbol");
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.len(), 2);
        assert_eq!(i.arena_bytes(), "alpha".len() + "beta".len());
    }

    #[test]
    fn lookup_finds_only_interned_strings() {
        let mut i = Interner::new();
        let a = i.intern("present");
        assert_eq!(i.lookup("present"), Some(a));
        assert_eq!(i.lookup("absent"), None);
        assert!(!i.is_empty());
        assert!(Interner::new().is_empty());
    }

    #[test]
    fn symbols_are_assigned_in_first_intern_order() {
        // Determinism contract: the same intern sequence yields the same
        // numbering, so two builds of the same program agree on symbols.
        let names = ["f", "g", "f", "h", "g", "main"];
        let mut one = Interner::new();
        let mut two = Interner::new();
        let syms_one: Vec<Symbol> = names.iter().map(|n| one.intern(n)).collect();
        let syms_two: Vec<Symbol> = names.iter().map(|n| two.intern(n)).collect();
        assert_eq!(syms_one, syms_two);
        let indexes: Vec<usize> = syms_one.iter().map(|s| s.index()).collect();
        assert_eq!(indexes, vec![0, 1, 0, 2, 1, 3]);
    }
}
