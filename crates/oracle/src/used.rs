//! The reference used-class set, off the AST.
//!
//! The paper's Table 1 counts *used classes*: "classes for which a
//! constructor is called in user code". Every body in the program text
//! is walked, reachable or not, and every class it instantiates is
//! used, together with the bases and by-value member classes that
//! instantiation constructs. The product reads the same facts out of
//! its per-function summaries and precomputed containment closures.

use ddm_hierarchy::{
    by_value_class, walk_function, walk_globals, ClassId, EventVisitor, InstantiationEvent,
    MemberLookup, Program, TypeError,
};
use std::collections::HashSet;

/// The used classes of `program`.
///
/// # Errors
///
/// The first [`TypeError`] a walked body produces: functions in id
/// order, then the global initializers.
pub fn used_classes(program: &Program) -> Result<HashSet<ClassId>, TypeError> {
    let lookup = MemberLookup::new(program);
    let mut seeds = Seeds(Vec::new());
    for (fid, f) in program.functions() {
        if f.body.is_some() || !f.inits.is_empty() {
            walk_function(program, &lookup, fid, &mut seeds)?;
        }
    }
    walk_globals(program, &lookup, &mut seeds)?;

    let mut used = HashSet::new();
    let mut stack = seeds.0;
    while let Some(c) = stack.pop() {
        if !used.insert(c) {
            continue;
        }
        let info = program.class(c);
        stack.extend(info.bases.iter().map(|b| b.id));
        stack.extend(
            info.members
                .iter()
                .filter_map(|m| by_value_class(&m.ty))
                .filter_map(|name| program.class_by_name(name)),
        );
    }
    Ok(used)
}

struct Seeds(Vec<ClassId>);

impl EventVisitor for Seeds {
    fn instantiation(&mut self, ev: &InstantiationEvent) {
        self.0.push(ev.class);
    }
}
