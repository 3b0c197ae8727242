//! Member lookup against the all-pairs hiding filter it replaced.
//!
//! `MemberLookup::member` answers a name the class declares itself
//! without building its subobject tree, returns a lone declaring
//! subobject without a hiding pass, and otherwise hides candidates with
//! one multi-source DFS (`SubobjectTree::proper_bases_of`). The filter it
//! replaced tested every pair of candidates with
//! `SubobjectTree::is_base_subobject`. That filter is restated here as
//! the oracle and compared with `member` on seeded random hierarchies —
//! virtual diamonds, repeated non-virtual bases, and bases inherited both
//! virtually and non-virtually — for every (class, name) pair, payloads
//! included. Two depth-512 chains pin the answers the deep-dispatch
//! workloads depend on.

use dead_data_members::benchmarks::rng::Rng;
use dead_data_members::cppfront::ast::FunctionKind;
use dead_data_members::hierarchy::{
    ClassId, Found, FuncId, LookupError, MemberLookup, MemberRef, Program, SubobjectId,
};
use dead_data_members::prelude::parse;
use std::collections::{BTreeSet, HashMap};

/// Names the random classes declare, as data members or methods.
const NAMES: [&str; 5] = ["a", "b", "f", "g", "h"];

fn program(src: &str) -> Program {
    Program::build(&parse(src).expect("parse")).expect("sema")
}

/// The lookup rule as it stood before the linear-time rewrite: collect
/// every subobject whose class declares `name`, drop each candidate that
/// is a base subobject of another, and reject more than one survivor.
/// Also returns the number of candidates, for coverage accounting.
fn all_pairs_member(
    program: &Program,
    lookup: &MemberLookup<'_>,
    class: ClassId,
    name: &str,
) -> (Result<Found, LookupError>, usize) {
    let tree = lookup.tree(class);
    let mut found: Vec<(SubobjectId, Found)> = Vec::new();
    for (sid, node) in tree.iter() {
        let info = program.class(node.class);
        if let Some(idx) = info.members.iter().position(|m| m.name == name) {
            found.push((sid, Found::Data(MemberRef::new(node.class, idx))));
            continue;
        }
        if let Some(&func) = info.methods.iter().find(|&&f| {
            let fi = program.function(f);
            fi.name == name && fi.kind != FunctionKind::Constructor
        }) {
            found.push((
                sid,
                Found::Method {
                    declaring: node.class,
                    func,
                },
            ));
        }
    }
    let candidates = found.len();
    let class_name = program.class(class).name.clone();
    if found.is_empty() {
        let err = LookupError::NotFound {
            class: class_name,
            name: name.to_string(),
        };
        return (Err(err), candidates);
    }
    let survivors: Vec<&(SubobjectId, Found)> = found
        .iter()
        .filter(|(sid, _)| {
            !found
                .iter()
                .any(|(other, _)| other != sid && tree.is_base_subobject(*sid, *other))
        })
        .collect();
    let result = match survivors.as_slice() {
        [] => unreachable!("hiding cannot remove every candidate"),
        [(_, single)] => Ok(*single),
        many if many.iter().all(|(sid, _)| *sid == many[0].0) => Ok(many[0].1),
        _ => Err(LookupError::Ambiguous {
            class: class_name,
            name: name.to_string(),
        }),
    };
    (result, candidates)
}

/// A random hierarchy of 3–10 classes. Each class has up to three
/// distinct direct bases among the earlier classes, each inherited
/// virtually with probability 0.4, so virtual diamonds, repeated
/// non-virtual bases and mixed virtual/non-virtual inheritance of one
/// base all occur. Every name of [`NAMES`] is declared in a random
/// subset of classes as a data member, a method, an overloaded method,
/// or (rarely) both a data member and a method.
fn random_hierarchy(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let classes = rng.gen_range(3..11);
    let mut src = String::new();
    for i in 0..classes {
        let mut bases: Vec<usize> = Vec::new();
        if i > 0 {
            for _ in 0..rng.gen_range(0..4) {
                let b = rng.gen_range(0..i);
                if !bases.contains(&b) {
                    bases.push(b);
                }
            }
        }
        let base_list: Vec<String> = bases
            .iter()
            .map(|b| {
                let virt = if rng.gen_bool(0.4) { "virtual " } else { "" };
                format!("public {virt}C{b}")
            })
            .collect();
        src.push_str(&format!("class C{i}"));
        if !base_list.is_empty() {
            src.push_str(&format!(" : {}", base_list.join(", ")));
        }
        src.push_str(" {\npublic:\n");
        src.push_str(&format!("    C{i}() {{ }}\n"));
        if rng.gen_bool(0.3) {
            src.push_str(&format!("    virtual ~C{i}() {{ }}\n"));
        }
        for (k, name) in NAMES.iter().enumerate() {
            match rng.gen_range(0..10) {
                0 | 1 => src.push_str(&format!("    int {name};\n")),
                2 => src.push_str(&format!("    int {name}() {{ return {k}; }}\n")),
                3 => src.push_str(&format!("    virtual int {name}() {{ return {k}; }}\n")),
                4 => src.push_str(&format!(
                    "    int {name}() {{ return {k}; }}\n    int {name}(int x) {{ return x; }}\n"
                )),
                5 if rng.gen_bool(0.3) => src.push_str(&format!(
                    "    int {name};\n    int {name}() {{ return {k}; }}\n"
                )),
                _ => {}
            }
        }
        src.push_str("};\n");
    }
    src.push_str("int main() { return 0; }\n");
    src
}

/// Every name worth looking up in `program`: the declared names, every
/// function name (constructors and destructors included, so the
/// constructor filter is exercised), every class name, and one name
/// nothing declares.
fn lookup_names(program: &Program) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = NAMES.iter().map(|n| n.to_string()).collect();
    names.extend(program.functions().map(|(_, f)| f.name.clone()));
    names.extend(program.classes().map(|(_, c)| c.name.clone()));
    names.insert("missing".to_string());
    names
}

#[derive(Default)]
struct Coverage {
    lookups: usize,
    hiding_passes: usize,
    ambiguous: usize,
    not_found: usize,
    constructor_names: usize,
    virtual_diamonds: usize,
    repeated_nonvirtual: usize,
    mixed_virtual: usize,
}

impl Coverage {
    /// Records the shapes the subobject tree of `class` contains.
    fn record_tree(&mut self, lookup: &MemberLookup<'_>, class: ClassId) {
        let tree = lookup.tree(class);
        let mut parents: HashMap<SubobjectId, usize> = HashMap::new();
        let mut kinds: HashMap<ClassId, (usize, usize)> = HashMap::new();
        for (_, node) in tree.iter() {
            for &b in &node.bases {
                *parents.entry(b).or_default() += 1;
            }
            let entry = kinds.entry(node.class).or_default();
            if node.is_virtual_base {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
        if tree
            .virtual_bases()
            .iter()
            .any(|(_, sid)| parents.get(sid).copied().unwrap_or(0) >= 2)
        {
            self.virtual_diamonds += 1;
        }
        if kinds.values().any(|&(_, plain)| plain >= 2) {
            self.repeated_nonvirtual += 1;
        }
        if kinds.values().any(|&(virt, plain)| virt >= 1 && plain >= 1) {
            self.mixed_virtual += 1;
        }
    }
}

#[test]
fn member_matches_the_all_pairs_filter_on_random_hierarchies() {
    let mut cov = Coverage::default();
    for seed in 0..300u64 {
        let src = random_hierarchy(seed);
        let p = program(&src);
        let lookup = MemberLookup::new(&p);
        let names = lookup_names(&p);
        for (class, info) in p.classes() {
            cov.record_tree(&lookup, class);
            for name in &names {
                let got = lookup.member(class, name);
                let (want, candidates) = all_pairs_member(&p, &lookup, class, name);
                assert_eq!(
                    got, want,
                    "seed {seed}: lookup of `{name}` in `{}`\n{src}",
                    info.name
                );
                cov.lookups += 1;
                let declared_by_class = match want {
                    Ok(Found::Data(m)) => m.class == class,
                    Ok(Found::Method { declaring, .. }) => declaring == class,
                    Err(_) => false,
                };
                if candidates >= 2 && !declared_by_class {
                    cov.hiding_passes += 1;
                }
                match &want {
                    Err(LookupError::Ambiguous { .. }) => cov.ambiguous += 1,
                    Err(LookupError::NotFound { .. }) => cov.not_found += 1,
                    Ok(_) => {}
                }
                if p.class_by_name(name).is_some() {
                    cov.constructor_names += 1;
                }
            }
        }
    }
    assert!(cov.lookups > 10_000, "{} lookups", cov.lookups);
    assert!(
        cov.hiding_passes > 500,
        "{} hiding passes",
        cov.hiding_passes
    );
    assert!(cov.ambiguous > 100, "{} ambiguous", cov.ambiguous);
    assert!(cov.not_found > 100, "{} not found", cov.not_found);
    assert!(cov.constructor_names > 100);
    assert!(
        cov.virtual_diamonds > 50,
        "{} virtual diamonds",
        cov.virtual_diamonds
    );
    assert!(
        cov.repeated_nonvirtual > 50,
        "{} repeated bases",
        cov.repeated_nonvirtual
    );
    assert!(
        cov.mixed_virtual > 50,
        "{} mixed inheritance",
        cov.mixed_virtual
    );
}

/// A single-inheritance chain `C0 <- C1 <- … <- C{depth-1}` in which the
/// classes `declares` picks declare `virtual int f()`.
fn chain(depth: usize, declares: impl Fn(usize) -> bool) -> Program {
    let mut src = String::new();
    for i in 0..depth {
        src.push_str(&format!("class C{i}"));
        if i > 0 {
            src.push_str(&format!(" : public C{}", i - 1));
        }
        src.push_str(" {\npublic:\n");
        if declares(i) {
            src.push_str(&format!("    virtual int f() {{ return {i}; }}\n"));
        }
        src.push_str("};\n");
    }
    src.push_str("int main() { return 0; }\n");
    program(&src)
}

fn class_at(p: &Program, depth: usize) -> ClassId {
    p.class_by_name(&format!("C{depth}")).unwrap()
}

fn f_of(p: &Program, depth: usize) -> FuncId {
    let class = class_at(p, depth);
    *p.class(class)
        .methods
        .iter()
        .find(|&&m| p.function(m).name == "f")
        .unwrap()
}

fn method_at(p: &Program, declaring: usize) -> Found {
    Found::Method {
        declaring: class_at(p, declaring),
        func: f_of(p, declaring),
    }
}

#[test]
fn depth_512_chain_where_every_class_overrides() {
    let p = chain(512, |_| true);
    let lookup = MemberLookup::new(&p);
    for depth in [0, 256, 511] {
        assert_eq!(
            lookup.member(class_at(&p, depth), "f"),
            Ok(method_at(&p, depth))
        );
    }
    // Each of the 512 dispatch targets is the class's own declaration,
    // answered without building one subobject tree per class.
    let expected: Vec<(ClassId, FuncId)> =
        (0..512).map(|d| (class_at(&p, d), f_of(&p, d))).collect();
    assert_eq!(*lookup.dispatch_candidates(class_at(&p, 0), "f"), expected);
    let (root_want, _) = all_pairs_member(&p, &lookup, class_at(&p, 0), "f");
    assert_eq!(lookup.member(class_at(&p, 0), "f"), root_want);
}

#[test]
fn depth_512_chain_declaring_only_at_depths_0_and_256() {
    let p = chain(512, |d| d == 0 || d == 256);
    let lookup = MemberLookup::new(&p);
    for (depth, declaring) in [(0, 0), (255, 0), (256, 256), (511, 256)] {
        let class = class_at(&p, depth);
        let got = lookup.member(class, "f");
        assert_eq!(got, Ok(method_at(&p, declaring)), "depth {depth}");
        assert_eq!(
            got,
            all_pairs_member(&p, &lookup, class, "f").0,
            "depth {depth}"
        );
    }
    let expected: Vec<(ClassId, FuncId)> = (0..512)
        .map(|d| (class_at(&p, d), f_of(&p, if d < 256 { 0 } else { 256 })))
        .collect();
    assert_eq!(*lookup.dispatch_candidates(class_at(&p, 0), "f"), expected);
    assert_eq!(
        lookup.member(class_at(&p, 511), "g"),
        Err(LookupError::NotFound {
            class: "C511".to_string(),
            name: "g".to_string(),
        })
    );
}
