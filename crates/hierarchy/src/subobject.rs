//! Subobject trees.
//!
//! A complete object of a most-derived class consists of *subobjects*: the
//! most-derived part, one subobject per non-virtual base embedding (a base
//! embedded twice yields two subobjects), and exactly one shared subobject
//! per virtual base. Both member lookup (C++ dominance/hiding) and object
//! layout are defined over this tree, so it is built once and shared.

use crate::bitset::DenseBitSet;
use crate::ids::ClassId;
use crate::model::Program;
use std::collections::HashMap;

/// Identifies a subobject within one [`SubobjectTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubobjectId(u32);

impl SubobjectId {
    /// Raw index into the tree's node list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One subobject of a complete object.
#[derive(Debug, Clone)]
pub struct Subobject {
    /// The class this subobject is an instance of.
    pub class: ClassId,
    /// Direct base subobjects (shared virtual-base nodes appear as children
    /// of every subobject that inherits them directly).
    pub bases: Vec<SubobjectId>,
    /// True if this node is the shared subobject of a virtual base.
    pub is_virtual_base: bool,
}

/// The subobject decomposition of a complete object of one class.
///
/// # Examples
///
/// ```
/// use ddm_hierarchy::{Program, SubobjectTree};
///
/// let tu = ddm_cppfront::parse(
///     "class Top { public: int t; };\n\
///      class L : public virtual Top { };\n\
///      class R : public virtual Top { };\n\
///      class D : public L, public R { };\n\
///      int main() { D d; return 0; }",
/// ).unwrap();
/// let program = Program::build(&tu).unwrap();
/// let d = program.class_by_name("D").unwrap();
/// let tree = SubobjectTree::build(&program, d);
/// // D, L, R, and ONE shared Top: four subobjects.
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.virtual_bases().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SubobjectTree {
    nodes: Vec<Subobject>,
    virtual_nodes: Vec<(ClassId, SubobjectId)>,
}

impl SubobjectTree {
    /// Builds the subobject tree for a complete object of `class`.
    pub fn build(program: &Program, class: ClassId) -> Self {
        let mut tree = SubobjectTree {
            nodes: Vec::new(),
            virtual_nodes: Vec::new(),
        };
        let mut shared: HashMap<ClassId, SubobjectId> = HashMap::new();
        tree.expand(program, class, false, &mut shared);
        tree
    }

    fn expand(
        &mut self,
        program: &Program,
        class: ClassId,
        is_virtual_base: bool,
        shared: &mut HashMap<ClassId, SubobjectId>,
    ) -> SubobjectId {
        let id = SubobjectId(self.nodes.len() as u32);
        self.nodes.push(Subobject {
            class,
            bases: Vec::new(),
            is_virtual_base,
        });
        if is_virtual_base {
            self.virtual_nodes.push((class, id));
        }
        let bases = program.class(class).bases.clone();
        for b in bases {
            let child = if b.is_virtual {
                match shared.get(&b.id) {
                    Some(&existing) => existing,
                    None => {
                        let node = self.expand(program, b.id, true, shared);
                        shared.insert(b.id, node);
                        node
                    }
                }
            } else {
                self.expand(program, b.id, false, shared)
            };
            self.nodes[id.index()].bases.push(child);
        }
        id
    }

    /// The root (most-derived) subobject.
    pub fn root(&self) -> SubobjectId {
        SubobjectId(0)
    }

    /// The node data for `id`.
    pub fn node(&self, id: SubobjectId) -> &Subobject {
        &self.nodes[id.index()]
    }

    /// All subobjects, root first, in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (SubobjectId, &Subobject)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (SubobjectId(i as u32), n))
    }

    /// Number of subobjects in the complete object.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes (never the case for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The shared virtual-base subobjects, in first-encounter order.
    pub fn virtual_bases(&self) -> &[(ClassId, SubobjectId)] {
        &self.virtual_nodes
    }

    /// True if `base` is reachable from `derived` through base edges
    /// (i.e. `base` is a base subobject of `derived`). A node is not its
    /// own base subobject.
    pub fn is_base_subobject(&self, base: SubobjectId, derived: SubobjectId) -> bool {
        let mut stack = self.nodes[derived.index()].bases.clone();
        let mut seen = vec![false; self.nodes.len()];
        while let Some(n) = stack.pop() {
            if n == base {
                return true;
            }
            if !seen[n.index()] {
                seen[n.index()] = true;
                stack.extend(self.nodes[n.index()].bases.iter().copied());
            }
        }
        false
    }

    /// Every subobject that is a proper base subobject of at least one of
    /// `derived`: one DFS from all their direct bases over a single
    /// visited set, so the cost is linear in the tree however many
    /// sources there are. `proper_bases_of(ds).contains(b)` holds exactly
    /// when `is_base_subobject(b, d)` holds for some `d` in `ds`.
    pub fn proper_bases_of(&self, derived: impl IntoIterator<Item = SubobjectId>) -> DenseBitSet {
        let mut seen = DenseBitSet::with_capacity(self.nodes.len());
        let mut stack: Vec<SubobjectId> = derived
            .into_iter()
            .flat_map(|d| self.nodes[d.index()].bases.iter().copied())
            .collect();
        while let Some(n) = stack.pop() {
            if seen.insert(n.0) {
                stack.extend(self.nodes[n.index()].bases.iter().copied());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn program(src: &str) -> Program {
        Program::build(&parse(src).expect("parse")).expect("sema")
    }

    fn tree_for(p: &Program, name: &str) -> SubobjectTree {
        SubobjectTree::build(p, p.class_by_name(name).unwrap())
    }

    #[test]
    fn single_class_has_one_subobject() {
        let p = program("class A { public: int x; }; int main() { return 0; }");
        let t = tree_for(&p, "A");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.virtual_bases().is_empty());
    }

    #[test]
    fn non_virtual_diamond_duplicates_the_top() {
        let p = program(
            "class Top { public: int t; };\n\
             class L : public Top { public: int l; };\n\
             class R : public Top { public: int r; };\n\
             class D : public L, public R { public: int d; };\n\
             int main() { return 0; }",
        );
        let t = tree_for(&p, "D");
        // D, L, Top, R, Top — two Top subobjects.
        assert_eq!(t.len(), 5);
        let tops = t
            .iter()
            .filter(|(_, n)| p.class(n.class).name == "Top")
            .count();
        assert_eq!(tops, 2);
    }

    #[test]
    fn virtual_diamond_shares_the_top() {
        let p = program(
            "class Top { public: int t; };\n\
             class L : public virtual Top { public: int l; };\n\
             class R : public virtual Top { public: int r; };\n\
             class D : public L, public R { public: int d; };\n\
             int main() { return 0; }",
        );
        let t = tree_for(&p, "D");
        // D, L, Top(shared), R — one Top subobject.
        assert_eq!(t.len(), 4);
        assert_eq!(t.virtual_bases().len(), 1);
        let tops = t
            .iter()
            .filter(|(_, n)| p.class(n.class).name == "Top")
            .count();
        assert_eq!(tops, 1);
        let (_, vtop) = t.virtual_bases()[0];
        assert!(t.node(vtop).is_virtual_base);
    }

    #[test]
    fn base_subobject_reachability() {
        let p = program(
            "class A { }; class B : public A { }; class C : public B { };\n\
             int main() { return 0; }",
        );
        let t = tree_for(&p, "C");
        let root = t.root();
        let b_node = t
            .iter()
            .find(|(_, n)| p.class(n.class).name == "B")
            .unwrap()
            .0;
        let a_node = t
            .iter()
            .find(|(_, n)| p.class(n.class).name == "A")
            .unwrap()
            .0;
        assert!(t.is_base_subobject(b_node, root));
        assert!(t.is_base_subobject(a_node, root));
        assert!(t.is_base_subobject(a_node, b_node));
        assert!(!t.is_base_subobject(root, a_node));
        assert!(!t.is_base_subobject(root, root), "not its own base");
    }

    #[test]
    fn mixed_virtual_and_nonvirtual_inheritance_of_same_base() {
        // One shared virtual Top plus one non-virtual Top embedding.
        let p = program(
            "class Top { public: int t; };\n\
             class L : public virtual Top { };\n\
             class R : public Top { };\n\
             class D : public L, public R { };\n\
             int main() { return 0; }",
        );
        let t = tree_for(&p, "D");
        let tops = t
            .iter()
            .filter(|(_, n)| p.class(n.class).name == "Top")
            .count();
        assert_eq!(tops, 2);
        assert_eq!(t.virtual_bases().len(), 1);
    }

    #[test]
    fn proper_bases_of_matches_pairwise_reachability() {
        let p = program(
            "class Top { }; class L : public virtual Top { };\n\
             class M : public virtual Top { }; class R : public Top { };\n\
             class D : public L, public M, public R { };\n\
             int main() { return 0; }",
        );
        let t = tree_for(&p, "D");
        let ids: Vec<SubobjectId> = t.iter().map(|(id, _)| id).collect();
        // Every subset of sources, including the empty one.
        for mask in 0u32..(1 << ids.len()) {
            let sources: Vec<SubobjectId> = ids
                .iter()
                .copied()
                .filter(|id| mask & (1 << id.index()) != 0)
                .collect();
            let marked = t.proper_bases_of(sources.iter().copied());
            for &b in &ids {
                let expected = sources.iter().any(|&d| t.is_base_subobject(b, d));
                assert_eq!(marked.contains(b.0), expected, "mask {mask:b}, node {b:?}");
            }
        }
        assert!(t.proper_bases_of([]).is_empty());
        assert!(!t.proper_bases_of([t.root()]).contains(t.root().0));
    }
}
