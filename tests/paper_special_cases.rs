//! Every special case of the paper's algorithm, exercised end-to-end
//! through the public pipeline (§3, §3.2, §3.3, footnotes included).

use dead_data_members::analysis::{AnalysisConfig, ProjectPipeline, SizeofPolicy};
use dead_data_members::callgraph::Algorithm;

fn dead(src: &str) -> Vec<String> {
    ProjectPipeline::from_source(src)
        .expect("pipeline")
        .report()
        .dead_member_names()
}

fn dead_with(src: &str, config: AnalysisConfig) -> Vec<String> {
    ProjectPipeline::with_config(src, config, Algorithm::Rta)
        .expect("pipeline")
        .report()
        .dead_member_names()
}

#[test]
fn write_only_members_are_dead() {
    // The core insight: "the act of storing a value into a data member
    // cannot affect the program's observable behavior by itself".
    assert_eq!(
        dead(
            "class A { public: int w; int r; };\n\
             int main() { A a; a.w = 1; a.w = 2; a.w = a.r; return a.r; }"
        ),
        vec!["A::w"]
    );
}

#[test]
fn footnote1_volatile_members_live_when_written() {
    let d = dead(
        "class Dev { public: volatile int mmio; int plain; };\n\
         int main() { Dev d; d.mmio = 1; d.plain = 1; return 0; }",
    );
    assert_eq!(d, vec!["Dev::plain"], "volatile write keeps mmio live");
}

#[test]
fn footnote3_delete_and_free_arguments_are_exempt() {
    // "A data member whose address is passed to the delete or free system
    // functions does not have to be marked as live" — the destructor
    // pattern the paper highlights.
    let d = dead(
        "class Owner {\n\
         public:\n\
             int* buffer;\n\
             Owner* child;\n\
             Owner() : buffer(nullptr), child(nullptr) { }\n\
             ~Owner() { delete child; free(buffer); }\n\
         };\n\
         int main() { Owner* o = new Owner(); delete o; return 0; }",
    );
    assert!(d.contains(&"Owner::buffer".to_string()), "{d:?}");
    assert!(d.contains(&"Owner::child".to_string()), "{d:?}");
}

#[test]
fn qualified_accesses_resolve_into_the_qualifier() {
    let d = dead(
        "struct Base { int m; };\n\
         struct Derived : public Base { int m; };\n\
         int main() { Derived d; d.m = 1; return d.Base::m; }",
    );
    // Base::m is read through the qualified access; Derived::m only written.
    assert_eq!(d, vec!["Derived::m"]);
}

#[test]
fn pointer_to_member_offsets_liven() {
    // "&Z::m ... we simply assume that any member whose offset is computed
    // may be accessed somewhere in the program."
    let d = dead(
        "class A { public: int taken; int untouched; };\n\
         int main() { int A::* pm = &A::taken; A a; if (false) { return a.*pm; } return 0; }",
    );
    assert_eq!(d, vec!["A::untouched"]);
}

#[test]
fn union_rule_is_all_or_nothing() {
    // One live union member livens everything the union contains.
    let d = dead(
        "union U { int i; float f; };\n\
         int main() { U u; u.i = 1; return u.i; }",
    );
    assert!(d.is_empty(), "{d:?}");
    // Nothing read: everything stays dead.
    let d = dead(
        "union U { int i; float f; };\n\
         int main() { U u; u.i = 1; return 0; }",
    );
    assert_eq!(d, vec!["U::f", "U::i"]);
}

#[test]
fn union_rule_propagates_through_contained_classes() {
    // "A union construct may contain data members whose type is a class
    // ... these classes may contain data members" — all become live.
    let d = dead(
        "struct Pair { int a; int b; };\n\
         union U { Pair p; int raw; };\n\
         int main() { U u; return u.raw; }",
    );
    assert!(
        d.is_empty(),
        "contained Pair members must be livened: {d:?}"
    );
}

#[test]
fn sizeof_policy_matches_section_3_2() {
    let src = "class Blob { public: int a; int b; };\n\
               int main() { Blob blob; blob.a = 1; int n = sizeof(Blob); return n; }";
    // Default: conservative.
    let d = dead_with(src, AnalysisConfig::default());
    assert!(d.is_empty(), "conservative sizeof livens everything: {d:?}");
    // User-verified allocation-only usage: ignorable.
    let d = dead_with(
        src,
        AnalysisConfig {
            sizeof_policy: SizeofPolicy::Ignore,
            ..Default::default()
        },
    );
    assert_eq!(d, vec!["Blob::a", "Blob::b"]);
}

#[test]
fn unsafe_cast_marks_all_contained_members_of_the_source_type() {
    // Cast between unrelated class pointers.
    let d = dead(
        "class From { public: int f1; int f2; };\n\
         class To { public: int t1; };\n\
         int main() { From* p = new From(); To other; To* q = (To*)p; return 0; }",
    );
    assert!(!d.contains(&"From::f1".to_string()), "{d:?}");
    assert!(!d.contains(&"From::f2".to_string()), "{d:?}");
    assert!(d.contains(&"To::t1".to_string()), "{d:?}");
}

#[test]
fn downcast_policy_matches_the_papers_verification_step() {
    // "We have verified that all down-casts in our benchmarks are safe."
    let src = "class S { public: int s1; };\n\
               class T : public S { public: int t1; };\n\
               int main() { S* s = new T(); T* t = (T*)s; return 0; }";
    let conservative = dead_with(src, AnalysisConfig::default());
    assert!(
        !conservative.contains(&"S::s1".to_string()),
        "unverified down-cast livens S's members"
    );
    let verified = dead_with(
        src,
        AnalysisConfig {
            assume_safe_downcasts: true,
            ..Default::default()
        },
    );
    assert!(verified.contains(&"S::s1".to_string()));
}

#[test]
fn dynamic_cast_is_checked_and_safe() {
    let d = dead(
        "class S { public: int s1; };\n\
         class T : public S { public: virtual int f() { return t1; } int t1; };\n\
         int main() { S* s = new T(); T* t = dynamic_cast<T*>(s); return 0; }",
    );
    assert!(d.contains(&"S::s1".to_string()), "{d:?}");
}

#[test]
fn section_3_3_library_callbacks_keep_overrides_reachable() {
    let src = "class LibBase { public: virtual int hook(); int lib_state; };\n\
               class App : public LibBase { public: virtual int hook() { return used_by_hook; } int used_by_hook; };\n\
               int main() { App a; return 0; }";
    // Without library marking: hook is unreachable, its read doesn't count.
    let plain = dead(src);
    assert!(plain.contains(&"App::used_by_hook".to_string()));
    // With LibBase marked as a library class: the override is a root.
    let with_lib = dead_with(
        src,
        AnalysisConfig {
            library_classes: ["LibBase".to_string()].into_iter().collect(),
            ..Default::default()
        },
    );
    assert!(!with_lib.contains(&"App::used_by_hook".to_string()));
    // And LibBase's own members are unclassifiable (not reported dead).
    assert!(!with_lib.contains(&"LibBase::lib_state".to_string()));
}

#[test]
fn reads_in_unreachable_functions_do_not_liven() {
    // "data members that are only accessed from unreachable code are
    // classified as dead".
    let d = dead(
        "class A { public: int m; };\n\
         int ghost_reader(A* a) { return a->m; }\n\
         int main() { A a; a.m = 3; return 0; }",
    );
    assert_eq!(d, vec!["A::m"]);
}

#[test]
fn address_taken_function_makes_its_reads_count() {
    // "if the address of a function f is taken in reachable code, we
    // assume f to be reachable."
    let d = dead(
        "class A { public: int m; };\n\
         A shared;\n\
         int reader() { return shared.m; }\n\
         int main() { int (*fp)() = &reader; return 0; }",
    );
    assert!(!d.contains(&"A::m".to_string()), "{d:?}");
}

#[test]
fn inherited_members_classified_at_their_declaring_class() {
    let d = dead(
        "class Base { public: int used_via_derived; int never; };\n\
         class Derived : public Base { };\n\
         int main() { Derived d; return d.used_via_derived; }",
    );
    assert_eq!(d, vec!["Base::never"]);
}

#[test]
fn virtual_diamond_members_classified_once() {
    let d = dead(
        "class Top { public: int t_used; int t_dead; };\n\
         class L : public virtual Top { };\n\
         class R : public virtual Top { };\n\
         class Join : public L, public R { };\n\
         int main() { Join j; return j.t_used; }",
    );
    assert_eq!(d, vec!["Top::t_dead"]);
}
