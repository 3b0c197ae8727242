//! Liveness classification results.

use ddm_hierarchy::{ClassId, FuncId, MemberBitSet, MemberIndex, MemberRef, Program};
use std::collections::BTreeMap;
use std::fmt;

/// Why a data member was classified live. The *first* reason found is
/// recorded (the algorithm is monotone, so any reason suffices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiveReason {
    /// Its value is read in reachable code.
    Read,
    /// Its address is taken (`&e.m`).
    AddressTaken,
    /// A pointer-to-member `&C::m` names it.
    PointerToMember,
    /// An unsafe type cast forced all members of its containing type live.
    UnsafeCast,
    /// A live member of the same union forced it live.
    UnionPropagation,
    /// It is `volatile` and written (the paper's footnote-1 exception).
    VolatileWrite,
    /// A conservative `sizeof` forced it live.
    Sizeof,
}

impl fmt::Display for LiveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LiveReason::Read => "read",
            LiveReason::AddressTaken => "address taken",
            LiveReason::PointerToMember => "pointer-to-member",
            LiveReason::UnsafeCast => "unsafe cast",
            LiveReason::UnionPropagation => "union propagation",
            LiveReason::VolatileWrite => "volatile write",
            LiveReason::Sizeof => "sizeof",
        })
    }
}

/// The provenance of one live mark: which step of the analysis induced
/// it. Like [`LiveReason`], the *first* origin is recorded, so any two
/// scans that fire marks in the same order record identical origins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A direct access (read / address-taken / volatile write /
    /// pointer-to-member) in `func`; `None` means the global
    /// initializers, which run unconditionally before `main`.
    Access {
        /// The accessing function, or `None` for global initializers.
        func: Option<FuncId>,
    },
    /// Swept up by a `MarkAllContainedMembers` expansion (unsafe cast or
    /// conservative `sizeof`) triggered in `func` on `root`; the member
    /// is contained in `root`.
    MarkAll {
        /// The triggering function, or `None` for global initializers.
        func: Option<FuncId>,
        /// The class whose containment closure was expanded.
        root: ClassId,
    },
    /// Livened by the union fixpoint: `via` — the smallest live member
    /// in `root`'s containment closure at the time the rule fired — made
    /// union `root`'s contents live.
    Union {
        /// The union class the rule fired on.
        root: ClassId,
        /// A live member that justified firing the rule.
        via: MemberRef,
    },
}

/// The per-member classification produced by the analysis.
///
/// Every data member of the program is either *live* (with a
/// [`LiveReason`]) or *dead*. Members of library classes are neither: they
/// cannot be classified without the library source (§3.3) and are reported
/// separately.
///
/// # Examples
///
/// ```
/// use ddm_core::{Liveness, LiveReason};
/// use ddm_hierarchy::{ClassId, MemberRef};
///
/// let mut liveness = Liveness::new();
/// let m = MemberRef::new(ClassId::from_index(0), 0);
/// assert!(liveness.is_dead(m)); // everything starts dead (Figure 2, line 3)
/// liveness.mark_live(m, LiveReason::Read);
/// assert_eq!(liveness.reason(m), Some(LiveReason::Read));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    live: BTreeMap<MemberRef, LiveReason>,
    unclassifiable: std::collections::BTreeSet<MemberRef>,
    /// First-wins provenance per live member (see [`Origin`]). Populated
    /// by [`Liveness::mark_live_from`]; like the dense accelerator, it is
    /// excluded from equality — the classification is live/dead/reason.
    origins: BTreeMap<MemberRef, Origin>,
    /// Optional dense accelerator (see [`Liveness::with_member_index`]).
    /// Kept in sync with `live`; not part of the classification itself.
    dense: Option<DenseLive>,
}

/// The dense program-wide live set: a bitset keyed by the member index,
/// answering `is_live`/`mark_live` membership in O(1) so the hot marking
/// path skips the ordered map for repeat accesses.
#[derive(Debug, Clone)]
struct DenseLive {
    index: MemberIndex,
    bits: MemberBitSet,
}

/// Equality is over the *classification* — live members with reasons and
/// the unclassifiable set. The dense accelerator is an implementation
/// detail and never observable: a map-backed and an index-backed
/// `Liveness` that classify identically compare equal.
impl PartialEq for Liveness {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.unclassifiable == other.unclassifiable
    }
}

impl Eq for Liveness {}

impl Liveness {
    /// Creates an empty classification (everything dead), the algorithm's
    /// starting state.
    pub fn new() -> Self {
        Liveness::default()
    }

    /// Creates an empty classification backed by a dense program-wide
    /// member bitset: membership tests and repeat marks become single bit
    /// operations, and only first marks touch the ordered reason map
    /// (which is retained for first-reason-wins reporting).
    pub fn with_member_index(index: MemberIndex) -> Self {
        Liveness {
            live: BTreeMap::new(),
            unclassifiable: std::collections::BTreeSet::new(),
            origins: BTreeMap::new(),
            dense: Some(DenseLive {
                bits: MemberBitSet::with_capacity(index.len()),
                index,
            }),
        }
    }

    /// Marks `member` live for `reason` (keeps the first reason).
    /// Returns true if the member was previously dead.
    pub fn mark_live(&mut self, member: MemberRef, reason: LiveReason) -> bool {
        if let Some(d) = &mut self.dense {
            if let Some(id) = d.index.id_of(member) {
                if !d.bits.insert(id) {
                    return false;
                }
                self.live.insert(member, reason);
                return true;
            }
        }
        match self.live.entry(member) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(reason);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// [`Liveness::mark_live`] with provenance: records `origin` for the
    /// member's *first* mark (the same first-wins rule as the reason).
    pub fn mark_live_from(&mut self, member: MemberRef, reason: LiveReason, origin: Origin) -> bool {
        if self.mark_live(member, reason) {
            self.origins.insert(member, origin);
            true
        } else {
            false
        }
    }

    /// The recorded provenance of a live member, when the marking path
    /// supplied one.
    pub fn origin(&self, member: MemberRef) -> Option<Origin> {
        self.origins.get(&member).copied()
    }

    /// Marks `member` as unclassifiable (library class member).
    pub fn mark_unclassifiable(&mut self, member: MemberRef) {
        self.unclassifiable.insert(member);
    }

    /// Whether `member` was marked live.
    pub fn is_live(&self, member: MemberRef) -> bool {
        if let Some(d) = &self.dense {
            if let Some(id) = d.index.id_of(member) {
                return d.bits.contains(id);
            }
        }
        self.live.contains_key(&member)
    }

    /// Whether `member` is dead (not live and classifiable).
    pub fn is_dead(&self, member: MemberRef) -> bool {
        !self.is_live(member) && !self.unclassifiable.contains(&member)
    }

    /// Whether `member` belongs to a library class (unclassifiable).
    pub fn is_unclassifiable(&self, member: MemberRef) -> bool {
        self.unclassifiable.contains(&member)
    }

    /// The recorded reason for a live member.
    pub fn reason(&self, member: MemberRef) -> Option<LiveReason> {
        self.live.get(&member).copied()
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Iterates over live members with their reasons.
    pub fn live_members(&self) -> impl Iterator<Item = (MemberRef, LiveReason)> + '_ {
        self.live.iter().map(|(&m, &r)| (m, r))
    }

    /// Decomposes the classification into plain sorted lists for
    /// snapshot serialization. Lossless up to the dense accelerator
    /// (re-attachable via [`Liveness::from_parts`]).
    pub fn to_parts(&self) -> LivenessParts {
        LivenessParts {
            live: self.live.iter().map(|(&m, &r)| (m, r)).collect(),
            unclassifiable: self.unclassifiable.iter().copied().collect(),
            origins: self.origins.iter().map(|(&m, &o)| (m, o)).collect(),
        }
    }

    /// Rebuilds a classification from [`Liveness::to_parts`] output,
    /// optionally re-attaching a dense accelerator. The rebuilt value
    /// compares equal to the original and answers [`Liveness::origin`]
    /// identically — everything the debug cross-check and the report
    /// observe.
    pub fn from_parts(parts: &LivenessParts, index: Option<MemberIndex>) -> Liveness {
        let mut l = match index {
            Some(ix) => Liveness::with_member_index(ix),
            None => Liveness::new(),
        };
        for &(m, r) in &parts.live {
            l.mark_live(m, r);
        }
        for &m in &parts.unclassifiable {
            l.mark_unclassifiable(m);
        }
        for &(m, o) in &parts.origins {
            l.origins.insert(m, o);
        }
        l
    }

    /// All dead members of `program`, in declaration order.
    pub fn dead_members<'a>(&'a self, program: &'a Program) -> Vec<MemberRef> {
        let mut out = Vec::new();
        for (cid, class) in program.classes() {
            for idx in 0..class.members.len() {
                let m = MemberRef::new(cid, idx);
                if self.is_dead(m) {
                    out.push(m);
                }
            }
        }
        out
    }
}

/// The serializable decomposition of a [`Liveness`] (sorted lists,
/// deterministic for equal classifications).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessParts {
    /// Live members with their first-wins reasons, ascending.
    pub live: Vec<(MemberRef, LiveReason)>,
    /// Unclassifiable (library) members, ascending.
    pub unclassifiable: Vec<MemberRef>,
    /// Recorded first-wins provenance, ascending by member.
    pub origins: Vec<(MemberRef, Origin)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_hierarchy::ClassId;

    fn mref(c: usize, i: usize) -> MemberRef {
        MemberRef::new(ClassId::from_index(c), i)
    }

    #[test]
    fn first_reason_wins() {
        let mut l = Liveness::new();
        assert!(l.mark_live(mref(0, 0), LiveReason::Read));
        assert!(!l.mark_live(mref(0, 0), LiveReason::UnsafeCast));
        assert_eq!(l.reason(mref(0, 0)), Some(LiveReason::Read));
    }

    #[test]
    fn dead_until_marked() {
        let mut l = Liveness::new();
        assert!(l.is_dead(mref(1, 2)));
        l.mark_live(mref(1, 2), LiveReason::AddressTaken);
        assert!(l.is_live(mref(1, 2)));
        assert!(!l.is_dead(mref(1, 2)));
        assert_eq!(l.live_count(), 1);
    }

    #[test]
    fn unclassifiable_is_neither_live_nor_dead() {
        let mut l = Liveness::new();
        l.mark_unclassifiable(mref(2, 0));
        assert!(!l.is_live(mref(2, 0)));
        assert!(!l.is_dead(mref(2, 0)));
        assert!(l.is_unclassifiable(mref(2, 0)));
    }

    #[test]
    fn dense_backed_liveness_is_indistinguishable_from_map_backed() {
        let tu = ddm_cppfront::parse(
            "class A { public: int a0; int a1; };\n\
             class B { public: int b0; };\n\
             int main() { return 0; }",
        )
        .unwrap();
        let program = Program::build(&tu).unwrap();
        let mut dense = Liveness::with_member_index(MemberIndex::new(&program));
        let mut map = Liveness::new();
        for l in [&mut dense, &mut map] {
            assert!(l.mark_live(mref(0, 0), LiveReason::Read));
            assert!(!l.mark_live(mref(0, 0), LiveReason::Sizeof), "first wins");
            assert!(l.mark_live(mref(1, 0), LiveReason::AddressTaken));
            l.mark_unclassifiable(mref(0, 1));
            // A ref outside the indexed program falls back to the map.
            assert!(l.mark_live(mref(9, 9), LiveReason::UnsafeCast));
            assert!(l.is_live(mref(9, 9)));
        }
        assert_eq!(dense, map, "accelerator must not be observable");
        assert_eq!(dense.reason(mref(0, 0)), Some(LiveReason::Read));
        assert!(dense.is_live(mref(0, 0)));
        assert!(dense.is_dead(mref(0, 1)) == map.is_dead(mref(0, 1)));
        assert_eq!(dense.live_count(), map.live_count());
        assert_eq!(
            dense.live_members().collect::<Vec<_>>(),
            map.live_members().collect::<Vec<_>>()
        );
        assert_eq!(dense.dead_members(&program), map.dead_members(&program));
    }

    #[test]
    fn origin_is_first_wins() {
        let f = FuncId::from_index(3);
        let mut a = Liveness::new();
        assert!(a.mark_live_from(mref(0, 0), LiveReason::Read, Origin::Access { func: Some(f) }));
        assert!(!a.mark_live_from(
            mref(0, 0),
            LiveReason::UnsafeCast,
            Origin::MarkAll {
                func: None,
                root: ClassId::from_index(0)
            }
        ));
        assert_eq!(a.origin(mref(0, 0)), Some(Origin::Access { func: Some(f) }));
        // Plain mark_live records no origin; classification-equality
        // ignores origins either way.
        let mut plain = Liveness::new();
        plain.mark_live(mref(0, 0), LiveReason::Read);
        assert_eq!(plain.origin(mref(0, 0)), None);
        assert_eq!(plain, a);
    }

    #[test]
    fn parts_roundtrip_preserves_classification_and_origins() {
        let f = FuncId::from_index(2);
        let mut l = Liveness::new();
        l.mark_live_from(mref(0, 0), LiveReason::Read, Origin::Access { func: Some(f) });
        l.mark_live(mref(0, 1), LiveReason::Sizeof);
        l.mark_live_from(
            mref(1, 0),
            LiveReason::UnionPropagation,
            Origin::Union {
                root: ClassId::from_index(1),
                via: mref(1, 1),
            },
        );
        l.mark_unclassifiable(mref(3, 0));
        let parts = l.to_parts();
        let back = Liveness::from_parts(&parts, None);
        assert_eq!(back, l);
        assert_eq!(back.to_parts(), parts, "roundtrip is a fixpoint");
        assert_eq!(back.origin(mref(0, 0)), l.origin(mref(0, 0)));
        assert_eq!(back.origin(mref(0, 1)), None);
        assert_eq!(back.origin(mref(1, 0)), l.origin(mref(1, 0)));
        // Dense-backed rebuild is classification-identical too.
        let tu = ddm_cppfront::parse(
            "class A { public: int a0; int a1; };\nclass B { public: int b0; int b1; };\nint main() { return 0; }",
        )
        .unwrap();
        let program = Program::build(&tu).unwrap();
        let dense = Liveness::from_parts(&parts, Some(MemberIndex::new(&program)));
        assert_eq!(dense, l);
        assert!(dense.is_live(mref(0, 0)));
    }

    #[test]
    fn reasons_display() {
        for r in [
            LiveReason::Read,
            LiveReason::AddressTaken,
            LiveReason::PointerToMember,
            LiveReason::UnsafeCast,
            LiveReason::UnionPropagation,
            LiveReason::VolatileWrite,
            LiveReason::Sizeof,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
