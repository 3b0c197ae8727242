//! Source positions, spans, and the source map used for diagnostics.

use std::fmt;
use std::sync::OnceLock;

/// A half-open byte range `[lo, hi)` into a source buffer.
///
/// Spans are attached to every token and AST node so that later phases
/// (type checking, the dead-member analysis, the interpreter) can report
/// precise locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "span lo must not exceed hi");
        Span { lo, hi }
    }

    /// A zero-width span at offset zero, used for synthesized nodes.
    pub fn dummy() -> Self {
        Span { lo: 0, hi: 0 }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The span moved `base` bytes later (modulo 2^32): turns a span
    /// measured from an item's first byte into a range of the whole
    /// source, and `rebase(base.wrapping_neg())` turns it back.
    pub fn rebase(self, base: u32) -> Span {
        Span {
            lo: self.lo.wrapping_add(base),
            hi: self.hi.wrapping_add(base),
        }
    }

    /// Length of the span in bytes.
    pub fn len(self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A (1-based) line/column pair produced by [`SourceMap::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets back to line/column positions for one source file.
#[derive(Debug, Clone)]
pub struct SourceMap {
    name: String,
    src: String,
    /// Byte offset of every line start, scanned on the first lookup.
    line_starts: OnceLock<Vec<u32>>,
}

impl SourceMap {
    /// Builds a source map for `src`, remembering `name` for diagnostics.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        SourceMap {
            name: name.into(),
            src: src.into(),
            line_starts: OnceLock::new(),
        }
    }

    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            let mut starts = vec![0u32];
            for (i, b) in self.src.bytes().enumerate() {
                if b == b'\n' {
                    starts.push(i as u32 + 1);
                }
            }
            starts
        })
    }

    /// The file name given at construction time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The text covered by `span`. Out-of-range spans yield an empty string.
    pub fn snippet(&self, span: Span) -> &str {
        self.src
            .get(span.lo as usize..span.hi as usize)
            .unwrap_or("")
    }

    /// Converts a byte offset into a 1-based line/column pair.
    pub fn lookup(&self, offset: u32) -> LineCol {
        let line_starts = self.line_starts();
        let line_idx = match line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - line_starts[line_idx] + 1,
        }
    }

    /// Number of lines in the file (at least 1, even for empty input).
    pub fn line_count(&self) -> usize {
        self.line_starts().len()
    }

    /// Counts non-blank source lines, the metric used for the paper's
    /// "lines of code" column in Table 1.
    pub fn loc(&self) -> usize {
        self.src.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// A collection of per-TU [`SourceMap`]s: the provenance table of a
/// multi-TU (project-mode) run.
///
/// All spans in a linked program remain byte offsets **into their own
/// translation unit**; a diagnostic is rendered by pairing the span with
/// the TU it came from. `SourceSet` owns the maps, keyed by the position
/// the file was given on the command line (which is also the link
/// order).
#[derive(Debug, Clone, Default)]
pub struct SourceSet {
    maps: Vec<SourceMap>,
}

impl SourceSet {
    /// An empty set.
    pub fn new() -> Self {
        SourceSet::default()
    }

    /// Appends a TU and returns its index.
    pub fn push(&mut self, map: SourceMap) -> usize {
        self.maps.push(map);
        self.maps.len() - 1
    }

    /// The map for TU `index`, if present.
    pub fn get(&self, index: usize) -> Option<&SourceMap> {
        self.maps.get(index)
    }

    /// Number of TUs in the set.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Iterates the maps in TU (command-line) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &SourceMap> {
        self.maps.iter()
    }

    /// Renders `span` of TU `index` as `file:line:col`. Falls back to the
    /// bare span when the TU index is unknown.
    pub fn locate(&self, index: usize, span: Span) -> String {
        match self.get(index) {
            Some(map) => format!("{}:{}", map.name(), map.lookup(span.lo)),
            None => format!("<tu {index}>:{span}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
    }

    #[test]
    fn span_len_and_empty() {
        assert_eq!(Span::new(2, 5).len(), 3);
        assert!(Span::new(4, 4).is_empty());
        assert!(!Span::new(4, 5).is_empty());
    }

    #[test]
    fn lookup_first_line() {
        let map = SourceMap::new("t.cpp", "abc\ndef\n");
        assert_eq!(map.lookup(0), LineCol { line: 1, col: 1 });
        assert_eq!(map.lookup(2), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn lookup_later_lines() {
        let map = SourceMap::new("t.cpp", "abc\ndef\nghi");
        assert_eq!(map.lookup(4), LineCol { line: 2, col: 1 });
        assert_eq!(map.lookup(8), LineCol { line: 3, col: 1 });
        assert_eq!(map.lookup(10), LineCol { line: 3, col: 3 });
    }

    #[test]
    fn lookup_at_newline_belongs_to_current_line() {
        let map = SourceMap::new("t.cpp", "ab\ncd");
        assert_eq!(map.lookup(2), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn snippet_returns_covered_text() {
        let map = SourceMap::new("t.cpp", "hello world");
        assert_eq!(map.snippet(Span::new(6, 11)), "world");
        assert_eq!(map.snippet(Span::new(100, 120)), "");
    }

    #[test]
    fn loc_skips_blank_lines() {
        let map = SourceMap::new("t.cpp", "int x;\n\n  \nint y;\n");
        assert_eq!(map.loc(), 2);
        assert_eq!(map.line_count(), 5);
    }

    #[test]
    fn empty_source_has_one_line() {
        let map = SourceMap::new("t.cpp", "");
        assert_eq!(map.line_count(), 1);
        assert_eq!(map.loc(), 0);
    }

    #[test]
    fn source_set_locates_spans_per_tu() {
        let mut set = SourceSet::new();
        assert!(set.is_empty());
        let a = set.push(SourceMap::new("a.cpp", "int x;\nint y;\n"));
        let b = set.push(SourceMap::new("b.cpp", "int z;\n"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(set.len(), 2);
        assert_eq!(set.locate(0, Span::new(7, 12)), "a.cpp:2:1");
        assert_eq!(set.locate(1, Span::new(4, 5)), "b.cpp:1:5");
        assert_eq!(set.locate(9, Span::new(4, 5)), "<tu 9>:4..5");
        let names: Vec<&str> = set.iter().map(SourceMap::name).collect();
        assert_eq!(names, ["a.cpp", "b.cpp"]);
    }
}
