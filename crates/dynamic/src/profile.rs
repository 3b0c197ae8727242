//! Heap profiling: the paper's dynamic measurements (Table 2, Figure 4).
//!
//! The profiler replays a [`HeapTrace`] against the
//! [`LayoutEngine`] and a dead-member set,
//! computing:
//!
//! * **object space** — total bytes of all objects created during
//!   execution;
//! * **dead data member space** — bytes of those objects occupied by dead
//!   members;
//! * **high-water mark** — the maximum bytes of simultaneously live
//!   objects;
//! * **high-water mark without dead members** — the same maximum if dead
//!   members were removed from every object. As the paper notes, the two
//!   maxima may occur at *different* execution points, which is why both
//!   are tracked in a single replay rather than derived from each other.

use crate::heap::HeapTrace;
use ddm_core::Liveness;
use ddm_hierarchy::{ClassId, LayoutEngine, MemberRef, Program};
use std::collections::HashMap;

/// The paper's per-benchmark dynamic measurements, in bytes.
///
/// # Examples
///
/// ```
/// use ddm_dynamic::HeapProfile;
///
/// let profile = HeapProfile {
///     object_space: 1000,
///     dead_member_space: 116,
///     high_water_mark: 500,
///     high_water_mark_without_dead: 475,
///     objects_allocated: 10,
/// };
/// assert_eq!(profile.dead_space_percentage(), 11.6); // the paper's maximum
/// assert_eq!(profile.high_water_mark_reduction(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapProfile {
    /// Space occupied by all objects created during execution
    /// (Table 2, "Object Space").
    pub object_space: u64,
    /// Space within those objects occupied by dead data members
    /// (Table 2, "Dead Data Member Space").
    pub dead_member_space: u64,
    /// Maximum space occupied by objects at a single point in time
    /// (Table 2, "High Water Mark").
    pub high_water_mark: u64,
    /// The high-water mark if dead members are eliminated
    /// (Table 2, "High Water Mark w/o dead data members").
    pub high_water_mark_without_dead: u64,
    /// Number of objects allocated.
    pub objects_allocated: u64,
}

impl HeapProfile {
    /// Percentage of object space occupied by dead members (Figure 4's
    /// light-grey bar).
    pub fn dead_space_percentage(&self) -> f64 {
        if self.object_space == 0 {
            return 0.0;
        }
        100.0 * self.dead_member_space as f64 / self.object_space as f64
    }

    /// Percentage reduction of the high-water mark if dead members are
    /// eliminated (Figure 4's dark-grey bar).
    pub fn high_water_mark_reduction(&self) -> f64 {
        if self.high_water_mark == 0 {
            return 0.0;
        }
        100.0 * (self.high_water_mark - self.high_water_mark_without_dead) as f64
            / self.high_water_mark as f64
    }
}

/// Computes a [`HeapProfile`] by replaying `trace` under `liveness`.
///
/// # Examples
///
/// ```
/// use ddm_dynamic::{profile_trace, Interpreter, RunConfig};
/// use ddm_core::ProjectPipeline;
///
/// let src = "class A { public: int live; int dead; };\n\
///            int main() { A* a = new A(); int v = a->live; delete a; return v; }";
/// let run = ProjectPipeline::from_source(src)?;
/// let exec = Interpreter::new(run.program()).run(&RunConfig::default()).unwrap();
/// let profile = profile_trace(run.program(), &exec.trace, run.liveness());
/// assert_eq!(profile.object_space, 8);
/// assert_eq!(profile.dead_member_space, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn profile_trace(program: &Program, trace: &HeapTrace, liveness: &Liveness) -> HeapProfile {
    let layouts = LayoutEngine::new(program);
    let mut size_cache: HashMap<ClassId, (u64, u64)> = HashMap::new();
    let mut sizes = |class: ClassId| -> (u64, u64) {
        *size_cache.entry(class).or_insert_with(|| {
            let layout = layouts.layout(class);
            let total = layout.size as u64;
            let dead = layout.bytes_where(|m: MemberRef| liveness.is_dead(m)) as u64;
            (total, dead)
        })
    };

    let mut profile = HeapProfile::default();
    let mut live_bytes: i64 = 0;
    let mut live_bytes_without_dead: i64 = 0;
    for ev in trace.events() {
        let (total, dead) = sizes(ev.class);
        let signed_total = total as i64 * ev.delta as i64;
        let signed_trimmed = (total - dead) as i64 * ev.delta as i64;
        live_bytes += signed_total;
        live_bytes_without_dead += signed_trimmed;
        if ev.delta > 0 {
            profile.objects_allocated += 1;
            profile.object_space += total;
            profile.dead_member_space += dead;
        }
        profile.high_water_mark = profile.high_water_mark.max(live_bytes.max(0) as u64);
        profile.high_water_mark_without_dead = profile
            .high_water_mark_without_dead
            .max(live_bytes_without_dead.max(0) as u64);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interpreter, RunConfig};
    use ddm_core::ProjectPipeline;

    fn profile(src: &str) -> HeapProfile {
        let run = ProjectPipeline::from_source(src).expect("pipeline");
        let exec = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .expect("run");
        profile_trace(run.program(), &exec.trace, run.liveness())
    }

    #[test]
    fn object_space_accumulates_all_allocations() {
        let p = profile(
            "class A { public: int a1; int a2; };\n\
             int main() {\n\
               for (int i = 0; i < 10; i++) { A* x = new A(); x->a1 = i; delete x; }\n\
               return 0;\n\
             }",
        );
        assert_eq!(p.objects_allocated, 10);
        assert_eq!(p.object_space, 80);
        // a1 written only and a2 untouched: both dead → 8 dead bytes/object.
        assert_eq!(p.dead_member_space, 80);
        // Only one object alive at a time.
        assert_eq!(p.high_water_mark, 8);
        assert_eq!(p.high_water_mark_without_dead, 0);
        assert_eq!(p.high_water_mark_reduction(), 100.0);
    }

    #[test]
    fn high_water_mark_tracks_peak_not_total() {
        let p = profile(
            "class A { public: int v; };\n\
             int main() {\n\
               A* a = new A(); A* b = new A();\n\
               int t = a->v + b->v;\n\
               delete a; delete b;\n\
               A* c = new A(); t += c->v; delete c;\n\
               return t;\n\
             }",
        );
        assert_eq!(p.object_space, 12);
        assert_eq!(p.high_water_mark, 8);
        assert_eq!(p.dead_member_space, 0);
        assert_eq!(p.dead_space_percentage(), 0.0);
    }

    #[test]
    fn allocate_and_hold_makes_hwm_equal_total() {
        // The paper notes several benchmarks "heap-allocate most objects,
        // and do not deallocate them until the end of program execution",
        // making the high-water mark (nearly) identical to total space.
        let p = profile(
            "class A { public: int v; };\n\
             int main() { int t = 0; for (int i = 0; i < 6; i++) { A* x = new A(); t += x->v; } return t; }",
        );
        assert_eq!(p.object_space, 24);
        assert_eq!(p.high_water_mark, 24);
    }

    #[test]
    fn dead_percentage_counts_member_sizes() {
        let p = profile(
            "class Mixed { public: double big_dead; int live; char small_dead; };\n\
             int main() { Mixed* m = new Mixed(); int v = m->live; delete m; return v; }",
        );
        // Layout: big_dead 8 @0, live 4 @8, small_dead 1 @12, pad → 16.
        assert_eq!(p.object_space, 16);
        assert_eq!(p.dead_member_space, 9);
        assert!((p.dead_space_percentage() - 56.25).abs() < 1e-9);
    }

    #[test]
    fn the_two_high_water_marks_can_peak_at_different_times() {
        // Phase 1 allocates many all-dead objects (peak of the raw HWM);
        // phase 2 allocates fewer all-live objects. With dead members
        // removed, phase 2 is the true peak.
        let p = profile(
            "class Dead { public: int d1; int d2; int d3; int d4; };\n\
             class Live { public: int l1; };\n\
             int main() {\n\
               int t = 0;\n\
               { Dead* a = new Dead(); Dead* b = new Dead(); delete a; delete b; }\n\
               Live* x = new Live(); Live* y = new Live();\n\
               t = x->l1 + y->l1;\n\
               delete x; delete y;\n\
               return t;\n\
             }",
        );
        assert_eq!(p.high_water_mark, 32, "raw peak is the Dead phase");
        assert_eq!(
            p.high_water_mark_without_dead, 8,
            "trimmed peak is the Live phase"
        );
    }

    #[test]
    fn stack_and_global_objects_count() {
        let p = profile(
            "class G { public: int g; };\n\
             class S { public: int s; };\n\
             G global_obj;\n\
             int main() { S s; return s.s + global_obj.g; }",
        );
        assert_eq!(p.objects_allocated, 2);
        assert_eq!(p.object_space, 8);
    }

    #[test]
    fn empty_profile_percentages_are_zero() {
        let p = HeapProfile::default();
        assert_eq!(p.dead_space_percentage(), 0.0);
        assert_eq!(p.high_water_mark_reduction(), 0.0);
    }
}
