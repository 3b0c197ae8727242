//! Seeded random program generator.
//!
//! Produces valid, terminating programs in the analysed C++ subset, used
//! for two purposes:
//!
//! 1. **Property tests** — the generated programs execute deterministically
//!    in the interpreter, so the dynamic member-observation oracle can be
//!    checked against the static analysis for soundness;
//! 2. **Scaling benchmarks** — the paper claims the analysis runs in
//!    `O(N + C×M)` (§3.4); the generator sweeps the number of expressions
//!    `N` and the class/member product `C×M` independently.
//!
//! Generated programs deliberately mix the paper's liveness mechanisms:
//! read fields, write-only fields, fields read only from never-called
//! methods, inheritance chains with virtual dispatch, heap and stack
//! allocation, and `delete`.

use crate::rng::Rng;
use std::fmt::Write as _;

/// Size and shape parameters for one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Number of classes.
    pub classes: usize,
    /// Data members per class.
    pub members_per_class: usize,
    /// Methods per class.
    pub methods_per_class: usize,
    /// Statements per method body.
    pub stmts_per_method: usize,
    /// Objects created (and exercised) in `main`.
    pub objects_in_main: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            classes: 6,
            members_per_class: 4,
            methods_per_class: 3,
            stmts_per_method: 4,
            objects_in_main: 6,
        }
    }
}

/// Generates a program from `config` and `seed`. Equal inputs produce
/// byte-identical output.
///
/// # Examples
///
/// ```
/// use ddm_benchmarks::generator::{generate, GeneratorConfig};
/// let src = generate(&GeneratorConfig::default(), 42);
/// let program = ddm_hierarchy::Program::build(&ddm_cppfront::parse(&src).unwrap()).unwrap();
/// assert!(program.class_count() >= 6);
/// ```
pub fn generate(config: &GeneratorConfig, seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = String::new();
    let _ = writeln!(out, "// generated: seed={seed} config={config:?}");

    let nclasses = config.classes.max(1);
    // Decide the inheritance shape up front: class i may derive from a
    // class with a smaller index (guaranteeing acyclicity).
    let mut base_of: Vec<Option<usize>> = vec![None; nclasses];
    for (i, slot) in base_of.iter_mut().enumerate().skip(1) {
        if rng.gen_bool(0.4) {
            *slot = Some(rng.gen_range(0..i));
        }
    }

    #[allow(clippy::needless_range_loop)]
    for i in 0..nclasses {
        let head = match base_of[i] {
            Some(b) => format!("class K{i} : public K{b} {{"),
            None => format!("class K{i} {{"),
        };
        let _ = writeln!(out, "{head}\npublic:");
        for m in 0..config.members_per_class {
            let _ = writeln!(out, "    int f{i}_{m};");
        }
        // Constructor zero-fills every member (writes never liven).
        let _ = write!(out, "    K{i}()");
        if let Some(b) = base_of[i] {
            let _ = write!(out, " : K{b}()");
        }
        let _ = writeln!(out, " {{");
        for m in 0..config.members_per_class {
            let _ = writeln!(out, "        f{i}_{m} = {};", rng.gen_range(0..100));
        }
        let _ = writeln!(out, "    }}");
        for mth in 0..config.methods_per_class {
            let virt = if rng.gen_bool(0.5) && base_of[i].is_none() {
                "virtual "
            } else {
                ""
            };
            let _ = writeln!(out, "    {virt}int m{mth}() {{");
            let _ = writeln!(out, "        int acc = {};", rng.gen_range(1..10));
            for _ in 0..config.stmts_per_method {
                let target = rng.gen_range(0..config.members_per_class);
                match rng.gen_range(0..5) {
                    // Read a member into the accumulator.
                    0 | 1 => {
                        let _ = writeln!(out, "        acc = acc + f{i}_{target};");
                    }
                    // Pure write from the accumulator (write-only unless
                    // some other statement reads the member).
                    2 => {
                        let _ = writeln!(out, "        f{i}_{target} = acc * 2;");
                    }
                    // Conditional update exercising control flow.
                    3 => {
                        let read = rng.gen_range(0..config.members_per_class);
                        let _ = writeln!(
                            out,
                            "        if (acc > {}) {{ acc = acc - f{i}_{read}; }}",
                            rng.gen_range(5..50)
                        );
                    }
                    // A switch with fallthrough, reading one member.
                    _ => {
                        let read = rng.gen_range(0..config.members_per_class);
                        let _ = writeln!(out, "        switch (acc % 4) {{");
                        let _ = writeln!(out, "        case 0: acc = acc + 1;");
                        let _ = writeln!(out, "        case 1: acc = acc + f{i}_{read}; break;");
                        let _ = writeln!(out, "        default: acc = acc + 2;");
                        let _ = writeln!(out, "        }}");
                    }
                }
            }
            let _ = writeln!(out, "        return acc;\n    }}");
        }
        let _ = writeln!(out, "}};\n");
    }

    // A never-called function that reads one member of every class: those
    // reads must NOT liven anything (unreachable code).
    let _ = writeln!(out, "int never_called() {{");
    let _ = writeln!(out, "    int ghost = 0;");
    for i in 0..nclasses {
        let _ = writeln!(out, "    K{i} g{i};");
        let _ = writeln!(out, "    ghost = ghost + g{i}.f{i}_0;");
    }
    let _ = writeln!(out, "    return ghost;\n}}\n");

    let _ = writeln!(out, "int main() {{");
    let _ = writeln!(out, "    int total = 0;");
    for obj in 0..config.objects_in_main {
        let class = rng.gen_range(0..nclasses);
        if rng.gen_bool(0.5) {
            let _ = writeln!(out, "    K{class} s{obj};");
            if config.methods_per_class > 0 {
                let mth = rng.gen_range(0..config.methods_per_class);
                let _ = writeln!(out, "    total = total + s{obj}.m{mth}();");
            }
            if rng.gen_bool(0.6) {
                let member = rng.gen_range(0..config.members_per_class);
                let _ = writeln!(out, "    total = total + s{obj}.f{class}_{member};");
            }
            if rng.gen_bool(0.4) {
                let member = rng.gen_range(0..config.members_per_class);
                let _ = writeln!(out, "    s{obj}.f{class}_{member} = total;");
            }
        } else {
            let _ = writeln!(out, "    K{class}* h{obj} = new K{class}();");
            if config.methods_per_class > 0 {
                let mth = rng.gen_range(0..config.methods_per_class);
                let _ = writeln!(out, "    total = total + h{obj}->m{mth}();");
            }
            if rng.gen_bool(0.6) {
                let member = rng.gen_range(0..config.members_per_class);
                let _ = writeln!(out, "    total = total + h{obj}->f{class}_{member};");
            }
            if rng.gen_bool(0.7) {
                let _ = writeln!(out, "    delete h{obj};");
            }
        }
    }
    let _ = writeln!(out, "    print_int(total);");
    let _ = writeln!(out, "    return total & 127;\n}}");
    out
}

/// Shape parameters for the large-program scale mode
/// ([`generate_scale`]): a few independent deep virtual hierarchies plus
/// long call ladders that force the call-graph fixpoint through many
/// rounds — the workload the delta worklist engine exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Independent class hierarchies (each a linear chain).
    pub chains: usize,
    /// Classes per chain; every class overrides every virtual method of
    /// its base, so dispatch through the chain root has `depth`
    /// candidate targets.
    pub depth: usize,
    /// Virtual methods declared by each chain root (and overridden at
    /// every depth).
    pub methods_per_class: usize,
    /// Data members per class.
    pub members_per_class: usize,
    /// Call-ladder length per chain: `step{c}_{i}` calls
    /// `step{c}_{i+1}`, so reachability is discovered one rung per
    /// fixpoint round — the old full-sweep engines re-walked the entire
    /// reachable set each of those rounds (quadratic), the delta engine
    /// processes each rung once.
    pub rungs: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            chains: 4,
            depth: 25,
            methods_per_class: 4,
            members_per_class: 3,
            rungs: 250,
        }
    }
}

/// The number of functions [`generate_scale`] emits for `config`:
/// `chains × (depth × methods_per_class + rungs)` plus `main`.
pub fn scale_function_count(config: &ScaleConfig) -> usize {
    config.chains * (config.depth * config.methods_per_class + config.rungs) + 1
}

/// Generates a large program from `config` and `seed` (deterministic,
/// like [`generate`]). Targets the ~10k–50k function range the paper's
/// 31-function suite cannot exercise.
///
/// Each chain `c` is a linear hierarchy `S{c}_0 .. S{c}_{depth-1}` whose
/// every class overrides every virtual method, plus a call ladder
/// `step{c}_0 .. step{c}_{rungs-1}`. Rung `i` instantiates the class at
/// depth `i × (depth-1) / rungs`, dispatches a virtual method through a
/// chain-root pointer, and calls the next rung — so dispatch sites are
/// processed long before the deeper receiver classes exist, exercising
/// the pending-dispatch parking/release machinery at scale, while the
/// ladder stretches the fixpoint over ~`rungs` rounds. The ladder stops
/// short of the deepest class, so (for `depth > 1`) RTA must prune its
/// overrides.
pub fn generate_scale(config: &ScaleConfig, seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let chains = config.chains.max(1);
    let depth = config.depth.max(1);
    let methods = config.methods_per_class.max(1);
    let members = config.members_per_class.max(1);
    let rungs = config.rungs.max(1);

    let mut out = String::with_capacity(scale_function_count(config) * 96);
    let _ = writeln!(out, "// generated (scale): seed={seed} config={config:?}");

    for c in 0..chains {
        for d in 0..depth {
            let head = if d == 0 {
                format!("class S{c}_0 {{")
            } else {
                format!("class S{c}_{d} : public S{c}_{} {{", d - 1)
            };
            let _ = writeln!(out, "{head}\npublic:");
            for j in 0..members {
                let _ = writeln!(out, "    int v{c}_{d}_{j};");
            }
            for m in 0..methods {
                // Each method reads a seed-chosen subset of the class's
                // members; members outside every subset stay dead.
                let r1 = rng.gen_range(0..members);
                let r2 = rng.gen_range(0..members);
                let _ = writeln!(
                    out,
                    "    virtual int get{m}() {{ return v{c}_{d}_{r1} + v{c}_{d}_{r2} + {d}; }}"
                );
            }
            let _ = writeln!(out, "}};");
        }
        let _ = writeln!(out);
    }

    for c in 0..chains {
        for i in 0..rungs {
            // Instantiate progressively deeper classes along the ladder,
            // so earlier rungs' dispatch sites park candidates that later
            // rungs' instantiations release.
            let d = i * (depth - 1) / rungs;
            let m = rng.gen_range(0..methods);
            let _ = writeln!(out, "int step{c}_{i}() {{");
            let _ = writeln!(out, "    S{c}_{d} x;");
            let _ = writeln!(out, "    S{c}_0* p = &x;");
            let _ = writeln!(out, "    int acc = p->get{m}();");
            let _ = writeln!(
                out,
                "    acc = acc + x.v{c}_{d}_{};",
                rng.gen_range(0..members)
            );
            if i + 1 < rungs {
                let _ = writeln!(out, "    return acc + step{c}_{}();", i + 1);
            } else {
                let _ = writeln!(out, "    return acc;");
            }
            let _ = writeln!(out, "}}");
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "int main() {{");
    let _ = writeln!(out, "    int total = 0;");
    for c in 0..chains {
        let _ = writeln!(out, "    total = total + step{c}_0();");
    }
    let _ = writeln!(out, "    return total & 127;\n}}");
    out
}

/// Which adversarial stressor a fuzz case layers on top of the base
/// program ([`generate_fuzz`]). The benign generator exercises the
/// paper's liveness mechanisms on friendly shapes; these shapes target
/// the schedule-sensitive paths the engine-equivalence proofs have so
/// far only seen on benign programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzShape {
    /// The benign base generator only.
    Benign,
    /// Chained nested unions, a union-typed class member, and a
    /// never-instantiated union — stressing the union-propagation
    /// fixpoint and its interaction with containment closures.
    DeepUnions,
    /// Bursts of `reinterpret_cast` / C-style / `static_cast` over the
    /// hierarchy, including pointer-to-integer smuggling — stressing
    /// the `MarkAllContainedMembers` closure and cast classification.
    CastStorm,
    /// Virtual and non-virtual diamond hierarchies with overrides on
    /// every edge and dispatch sites that appear textually before the
    /// joining class is ever instantiated — stressing subobject layout
    /// and the pending-dispatch parking/release schedule.
    Diamonds,
    /// Dead-code-heavy: most functions are unreachable chains that read
    /// members, plus reachable bodies with statically dead branches —
    /// stressing the reachability frontier of the liveness scan.
    DeadCodeHeavy,
    /// Multi-TU only: repeated header copies drift by comments and
    /// blank lines — textual near-misses that must still be
    /// ODR-identical and link cleanly.
    OdrBenignDrift,
    /// Multi-TU only: one header copy differs by a single constant in
    /// one method body — a genuine ODR violation whose diagnostic must
    /// be byte-identical across worker counts and cache states, and
    /// match the reference analysis.
    OdrConflict,
    /// Deep linear inheritance ladders (chains × depth) with an
    /// override on every rung and dispatch sites that run before the
    /// deeper rungs are instantiated — a miniature of the scale
    /// generator's park/release schedule, with the deepest class never
    /// instantiated so RTA must prune its overrides.
    DeepLadder,
}

impl FuzzShape {
    /// Short stable name (CLI `--shapes` values, report keys).
    pub fn name(self) -> &'static str {
        match self {
            FuzzShape::Benign => "benign",
            FuzzShape::DeepUnions => "unions",
            FuzzShape::CastStorm => "casts",
            FuzzShape::Diamonds => "diamonds",
            FuzzShape::DeadCodeHeavy => "deadcode",
            FuzzShape::OdrBenignDrift => "odr",
            FuzzShape::OdrConflict => "odr-conflict",
            FuzzShape::DeepLadder => "ladder",
        }
    }
}

/// Every shape, in a fixed order (sweeps cycle through this).
pub const FUZZ_SHAPES: [FuzzShape; 8] = [
    FuzzShape::Benign,
    FuzzShape::DeepUnions,
    FuzzShape::CastStorm,
    FuzzShape::Diamonds,
    FuzzShape::DeadCodeHeavy,
    FuzzShape::OdrBenignDrift,
    FuzzShape::OdrConflict,
    FuzzShape::DeepLadder,
];

/// Shape parameters for one adversarial fuzz case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Size of the benign substrate (classes, members, methods, ...).
    pub base: GeneratorConfig,
    /// The adversarial stressor layered on top.
    pub shape: FuzzShape,
    /// Translation units; the ODR shapes force at least 2.
    pub tus: usize,
}

/// The placeholder [`generate_fuzz`] substitutes per header copy: the
/// canonical value in every TU, a different one in the conflicting TU
/// of [`FuzzShape::OdrConflict`] cases.
const ODR_HOLE: &str = "@ODR@";

/// Generates a multi-TU project from `config` and `seed` (deterministic:
/// equal inputs produce byte-identical files). Returns `(file, source)`
/// pairs; TU 0 holds `main` plus prototypes for every function defined
/// by the other TUs. With `tus == 1` the whole program lands in one
/// file, so single-TU and project pipelines see the same shapes.
///
/// Generated programs always parse; the `OdrConflict` shape (and
/// nothing else) links with a deliberate ODR violation, so the
/// differential oracle also covers diagnostic determinism.
pub fn generate_fuzz(config: &FuzzConfig, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng::seed_from_u64(seed);
    let base = &config.base;
    let nclasses = base.classes.max(1);
    let members = base.members_per_class.max(1);
    let tus = match config.shape {
        FuzzShape::OdrBenignDrift | FuzzShape::OdrConflict => config.tus.max(2),
        _ => config.tus.max(1),
    };

    // --- Shared header: the benign hierarchy, with the ODR hole in one
    // seed-chosen method body. ---
    let mut base_of: Vec<Option<usize>> = vec![None; nclasses];
    for (i, slot) in base_of.iter_mut().enumerate().skip(1) {
        if rng.gen_bool(0.4) {
            *slot = Some(rng.gen_range(0..i));
        }
    }
    let hole_class = rng.gen_range(0..nclasses);
    let mut header = String::new();
    #[allow(clippy::needless_range_loop)]
    for i in 0..nclasses {
        match base_of[i] {
            Some(b) => {
                let _ = writeln!(header, "class K{i} : public K{b} {{\npublic:");
            }
            None => {
                let _ = writeln!(header, "class K{i} {{\npublic:");
            }
        }
        for m in 0..members {
            let _ = writeln!(header, "    int f{i}_{m};");
        }
        let _ = write!(header, "    K{i}()");
        if let Some(b) = base_of[i] {
            let _ = write!(header, " : K{b}()");
        }
        let _ = writeln!(header, " {{");
        for m in 0..members {
            let _ = writeln!(header, "        f{i}_{m} = {};", rng.gen_range(0..100));
        }
        let _ = writeln!(header, "    }}");
        for mth in 0..base.methods_per_class {
            let virt = if rng.gen_bool(0.5) && base_of[i].is_none() {
                "virtual "
            } else {
                ""
            };
            let _ = writeln!(header, "    {virt}int m{mth}() {{");
            let _ = writeln!(header, "        int acc = {};", rng.gen_range(1..10));
            if i == hole_class && mth == 0 {
                let _ = writeln!(header, "        acc = acc + {ODR_HOLE};");
            }
            for _ in 0..base.stmts_per_method {
                let target = rng.gen_range(0..members);
                match rng.gen_range(0..5) {
                    0 | 1 => {
                        let _ = writeln!(header, "        acc = acc + f{i}_{target};");
                    }
                    2 => {
                        let _ = writeln!(header, "        f{i}_{target} = acc * 2;");
                    }
                    3 => {
                        let read = rng.gen_range(0..members);
                        let _ = writeln!(
                            header,
                            "        if (acc > {}) {{ acc = acc - f{i}_{read}; }}",
                            rng.gen_range(5..50)
                        );
                    }
                    _ => {
                        let read = rng.gen_range(0..members);
                        let _ = writeln!(header, "        switch (acc % 4) {{");
                        let _ = writeln!(header, "        case 0: acc = acc + 1;");
                        let _ =
                            writeln!(header, "        case 1: acc = acc + f{i}_{read}; break;");
                        let _ = writeln!(header, "        default: acc = acc + 2;");
                        let _ = writeln!(header, "        }}");
                    }
                }
            }
            let _ = writeln!(header, "        return acc;\n    }}");
        }
        let _ = writeln!(header, "}};\n");
    }
    header.push_str(&shape_types(config.shape, members, &mut rng));

    // --- Shape-specific free functions: (prototypes, definitions),
    // spread across TUs round-robin. Entry functions are collected so
    // `main` reaches every stressor. ---
    let mut sections: Vec<(String, String)> = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    for t in 0..tus.max(1) {
        let workers = base.methods_per_class.max(1);
        let mut protos = String::new();
        let mut defs = String::new();
        for f in 0..workers {
            let class = rng.gen_range(0..nclasses);
            let _ = writeln!(protos, "int w{t}_{f}();");
            let _ = writeln!(defs, "int w{t}_{f}() {{");
            if rng.gen_bool(0.5) {
                let _ = writeln!(defs, "    K{class} s;");
                let _ = writeln!(defs, "    int acc = s.f{class}_{};", rng.gen_range(0..members));
                if base.methods_per_class > 0 {
                    let _ = writeln!(
                        defs,
                        "    acc = acc + s.m{}();",
                        rng.gen_range(0..base.methods_per_class)
                    );
                }
            } else {
                let _ = writeln!(defs, "    K{class}* h = new K{class}();");
                let _ = writeln!(
                    defs,
                    "    int acc = h->f{class}_{};",
                    rng.gen_range(0..members)
                );
                if rng.gen_bool(0.7) {
                    let _ = writeln!(defs, "    delete h;");
                }
            }
            let _ = writeln!(defs, "    return acc;\n}}");
            entries.push(format!("w{t}_{f}()"));
        }
        sections.push((protos, defs));
    }
    let shape_tu = rng.gen_range(0..tus.max(1));
    {
        let (protos, defs, calls) =
            shape_functions(config.shape, nclasses, members, &base_of, &mut rng);
        sections[shape_tu].0.push_str(&protos);
        sections[shape_tu].1.push_str(&defs);
        entries.extend(calls);
    }

    // --- Assemble the TUs. ---
    let canonical = |h: &str| h.replace(ODR_HOLE, "7");
    let conflicting = |h: &str| h.replace(ODR_HOLE, "8");
    let conflict_tu = if config.shape == FuzzShape::OdrConflict {
        1 + (rng.gen_range(0..tus.max(2) - 1))
    } else {
        usize::MAX
    };
    let mut files = Vec::with_capacity(tus);
    for t in 0..tus {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "// generated (fuzz): seed={seed} shape={} tu={t}/{tus}",
            config.shape.name()
        );
        if config.shape == FuzzShape::OdrBenignDrift && t > 0 {
            // Textual near-miss: comments and blank lines shift every
            // declaration's location without changing its record.
            let _ = writeln!(out, "// odr drift: tu {t} marker {:x}\n", rng.next_u64());
        }
        if t == conflict_tu {
            out.push_str(&conflicting(&header));
        } else {
            out.push_str(&canonical(&header));
        }
        if t == 0 {
            for (p, _) in sections.iter().skip(1) {
                out.push_str(p);
            }
            out.push_str(&sections[0].1);
            let _ = writeln!(out, "int main() {{");
            let _ = writeln!(out, "    int total = 0;");
            for obj in 0..base.objects_in_main {
                let class = rng.gen_range(0..nclasses);
                if rng.gen_bool(0.5) {
                    let _ = writeln!(out, "    K{class} s{obj};");
                    if base.methods_per_class > 0 {
                        let mth = rng.gen_range(0..base.methods_per_class);
                        let _ = writeln!(out, "    total = total + s{obj}.m{mth}();");
                    }
                    if rng.gen_bool(0.6) {
                        let member = rng.gen_range(0..members);
                        let _ =
                            writeln!(out, "    total = total + s{obj}.f{class}_{member};");
                    }
                } else {
                    let _ = writeln!(out, "    K{class}* h{obj} = new K{class}();");
                    if base.methods_per_class > 0 {
                        let mth = rng.gen_range(0..base.methods_per_class);
                        let _ = writeln!(out, "    total = total + h{obj}->m{mth}();");
                    }
                    if rng.gen_bool(0.7) {
                        let _ = writeln!(out, "    delete h{obj};");
                    }
                }
            }
            for call in &entries {
                let _ = writeln!(out, "    total = total + {call};");
            }
            let _ = writeln!(out, "    return total & 127;\n}}");
        } else {
            out.push_str(&sections[t].1);
        }
        files.push((format!("fuzz_tu{t}.cpp"), out));
    }
    files
}

/// Ladder dimensions for [`FuzzShape::DeepLadder`], shared by
/// [`shape_types`] (class emission) and [`shape_functions`] (dispatch
/// helpers), which draw from the RNG at different points and so cannot
/// re-derive matching values from it.
const LADDER_CHAINS: usize = 3;
const LADDER_DEPTH: usize = 7;

/// Shape-specific type declarations appended to the shared header.
fn shape_types(shape: FuzzShape, members: usize, rng: &mut Rng) -> String {
    let mut out = String::new();
    match shape {
        FuzzShape::DeepUnions => {
            let depth = 2 + rng.gen_range(0..3);
            let _ = writeln!(out, "union W0 {{ int w0_a; int w0_b; }};");
            for d in 1..=depth {
                let _ = writeln!(
                    out,
                    "union W{d} {{ W{} inner; int w{d}_a; int w{d}_b; }};",
                    d - 1
                );
            }
            // A class holding the deepest union by value: union
            // propagation must flow through the containment closure.
            let _ = writeln!(out, "class UnionHolder {{\npublic:");
            let _ = writeln!(out, "    W{depth} packed;");
            for m in 0..members {
                let _ = writeln!(out, "    int plain{m};");
            }
            let _ = writeln!(out, "    int peek() {{ return packed.w{depth}_a + plain0; }}");
            let _ = writeln!(out, "}};");
            // Never instantiated: the union rule must not fire on it.
            let _ = writeln!(out, "union WGhost {{ int g_a; int g_b; }};\n");
        }
        FuzzShape::Diamonds => {
            let vm = 1 + rng.gen_range(0..members);
            let emit_class = |out: &mut String, name: &str, bases: &str, pfx: &str, n: usize, body: &str| {
                let _ = writeln!(out, "class {name}{bases} {{\npublic:");
                for m in 0..n {
                    let _ = writeln!(out, "    int {pfx}_m{m};");
                }
                let _ = writeln!(out, "    virtual int poke() {{ return {body}; }}");
                let _ = writeln!(out, "}};");
            };
            // Virtual diamond: one shared VTop subobject.
            emit_class(&mut out, "VTop", "", "vt", vm, "vt_m0");
            emit_class(&mut out, "VL", " : virtual public VTop", "vl", vm, "vl_m0 + vt_m0");
            emit_class(&mut out, "VR", " : virtual public VTop", "vr", vm, "vr_m0 + vt_m0");
            emit_class(
                &mut out,
                "VJ",
                " : public VL, public VR",
                "vj",
                vm,
                "vj_m0 + vl_m0 + vr_m0",
            );
            // Non-virtual diamond: NTop duplicated under NJ; NJ's own
            // override only touches unambiguous members.
            emit_class(&mut out, "NTop", "", "nt", vm, "nt_m0");
            emit_class(&mut out, "NL", " : public NTop", "nl", vm, "nl_m0 + nt_m0");
            emit_class(&mut out, "NR", " : public NTop", "nr", vm, "nr_m0 + nt_m0");
            emit_class(
                &mut out,
                "NJ",
                " : public NL, public NR",
                "nj",
                vm,
                "nj_m0 + nl_m0 + nr_m0",
            );
            out.push('\n');
        }
        FuzzShape::DeepLadder => {
            // Deep linear hierarchies with an override on every rung;
            // sized past the benign substrate so park/release schedules
            // stretch over many fixpoint rounds. The dimensions are
            // fixed (not seed-drawn) because `shape_functions` must
            // name the same classes after unrelated RNG draws.
            for c in 0..LADDER_CHAINS {
                for d in 0..LADDER_DEPTH {
                    if d == 0 {
                        let _ = writeln!(out, "class L{c}_0 {{\npublic:");
                    } else {
                        let _ = writeln!(out, "class L{c}_{d} : public L{c}_{} {{\npublic:", d - 1);
                    }
                    for m in 0..members {
                        let _ = writeln!(out, "    int l{c}_{d}_{m};");
                    }
                    let _ = writeln!(
                        out,
                        "    virtual int rung() {{ return l{c}_{d}_0 + {d}; }}"
                    );
                    let _ = writeln!(out, "}};");
                }
            }
            out.push('\n');
        }
        _ => {}
    }
    out
}

/// Shape-specific free functions: `(prototypes, definitions, entry
/// calls)`. Definitions land in one seed-chosen TU; prototypes let
/// `main` (TU 0) call the entries cross-TU.
fn shape_functions(
    shape: FuzzShape,
    nclasses: usize,
    members: usize,
    base_of: &[Option<usize>],
    rng: &mut Rng,
) -> (String, String, Vec<String>) {
    let mut protos = String::new();
    let mut defs = String::new();
    let mut calls = Vec::new();
    match shape {
        FuzzShape::DeepUnions => {
            let _ = writeln!(protos, "int union_entry();");
            let _ = writeln!(defs, "int union_entry() {{");
            let _ = writeln!(defs, "    UnionHolder uh;");
            let _ = writeln!(defs, "    int acc = uh.peek();");
            let _ = writeln!(defs, "    W0 w;");
            let _ = writeln!(defs, "    acc = acc + w.w0_{};", if rng.gen_bool(0.5) { "a" } else { "b" });
            let _ = writeln!(defs, "    return acc;\n}}");
            calls.push("union_entry()".to_string());
        }
        FuzzShape::CastStorm => {
            // Derived/base pairs for up- and down-casts; fall back to
            // same-class casts when the hierarchy is flat.
            let pairs: Vec<(usize, usize)> = base_of
                .iter()
                .enumerate()
                .filter_map(|(d, b)| b.map(|b| (d, b)))
                .collect();
            let bursts = 3 + rng.gen_range(0..2);
            let style_offset = rng.gen_range(0..3);
            let mut entry = String::new();
            for k in 0..bursts {
                let (d, b) = if pairs.is_empty() {
                    let c = rng.gen_range(0..nclasses);
                    (c, c)
                } else {
                    pairs[rng.gen_range(0..pairs.len())]
                };
                // Cycle the three cast styles (seed-rotated) so every
                // storm exercises reinterpret, C-style down, and
                // static up casts.
                match (k + style_offset) % 3 {
                    0 => {
                        // Pointer smuggled through an integer: unsafe,
                        // fires the contained-members closure.
                        let _ = writeln!(protos, "long cast{k}_addr(K{d}* p);");
                        let _ = writeln!(
                            defs,
                            "long cast{k}_addr(K{d}* p) {{ return reinterpret_cast<long>(p); }}"
                        );
                        let _ = writeln!(entry, "    K{d}* x{k} = new K{d}();");
                        let _ =
                            writeln!(entry, "    acc = acc + (int)cast{k}_addr(x{k});");
                        let _ = writeln!(entry, "    delete x{k};");
                    }
                    1 => {
                        // C-style down-cast, gated by the down-cast
                        // policy at replay time.
                        let _ = writeln!(protos, "K{d}* cast{k}_down(K{b}* p);");
                        let _ = writeln!(
                            defs,
                            "K{d}* cast{k}_down(K{b}* p) {{ return (K{d}*)p; }}"
                        );
                        let _ = writeln!(entry, "    K{d}* y{k} = new K{d}();");
                        let _ = writeln!(
                            entry,
                            "    acc = acc + cast{k}_down(y{k})->f{d}_{};",
                            rng.gen_range(0..members)
                        );
                        let _ = writeln!(entry, "    delete y{k};");
                    }
                    _ => {
                        // Up-cast: always safe, must not widen anything.
                        let _ = writeln!(protos, "K{b}* cast{k}_up(K{d}* p);");
                        let _ = writeln!(
                            defs,
                            "K{b}* cast{k}_up(K{d}* p) {{ return static_cast<K{b}*>(p); }}"
                        );
                        let _ = writeln!(entry, "    K{d}* z{k} = new K{d}();");
                        let _ = writeln!(
                            entry,
                            "    acc = acc + cast{k}_up(z{k})->f{b}_{};",
                            rng.gen_range(0..members)
                        );
                        let _ = writeln!(entry, "    delete z{k};");
                    }
                }
            }
            let _ = writeln!(protos, "int cast_entry();");
            let _ = writeln!(defs, "int cast_entry() {{\n    int acc = 0;");
            defs.push_str(&entry);
            let _ = writeln!(defs, "    return acc;\n}}");
            calls.push("cast_entry()".to_string());
        }
        FuzzShape::Diamonds => {
            // The dispatch helper appears before any VJ/NJ exists, so
            // its candidates are parked and only released when the
            // entry instantiates the joins.
            let _ = writeln!(protos, "int dia_disp(VTop* p);");
            let _ = writeln!(defs, "int dia_disp(VTop* p) {{ return p->poke(); }}");
            let _ = writeln!(protos, "int dia_disp_n(NL* p);");
            let _ = writeln!(defs, "int dia_disp_n(NL* p) {{ return p->poke(); }}");
            let _ = writeln!(protos, "int dia_entry();");
            let _ = writeln!(defs, "int dia_entry() {{");
            let _ = writeln!(defs, "    VJ vj;");
            let _ = writeln!(defs, "    VTop* vt = &vj;");
            let _ = writeln!(defs, "    int acc = dia_disp(vt);");
            let _ = writeln!(defs, "    VL* vl = &vj;");
            let _ = writeln!(defs, "    acc = acc + vl->poke();");
            let _ = writeln!(defs, "    NJ* nj = new NJ();");
            let _ = writeln!(defs, "    NL* nl = nj;");
            let _ = writeln!(defs, "    acc = acc + dia_disp_n(nl);");
            let _ = writeln!(defs, "    delete nj;");
            let _ = writeln!(defs, "    return acc;\n}}");
            calls.push("dia_entry()".to_string());
        }
        FuzzShape::DeadCodeHeavy => {
            // A long never-called chain reading members of every class,
            // plus a reachable body whose branch is statically dead —
            // the flow-insensitive scan must still agree with the
            // reference analysis.
            let chain = 2 * nclasses + rng.gen_range(0..5);
            for k in 0..chain {
                let class = rng.gen_range(0..nclasses);
                let _ = writeln!(defs, "int dead{k}() {{");
                let _ = writeln!(defs, "    K{class} g;");
                if k + 1 < chain {
                    let _ = writeln!(
                        defs,
                        "    return g.f{class}_{} + dead{}();",
                        rng.gen_range(0..members),
                        k + 1
                    );
                } else {
                    let _ = writeln!(defs, "    return g.f{class}_{};", rng.gen_range(0..members));
                }
                let _ = writeln!(defs, "}}");
            }
            let class = rng.gen_range(0..nclasses);
            let _ = writeln!(protos, "int deadcode_entry();");
            let _ = writeln!(defs, "int deadcode_entry() {{");
            let _ = writeln!(defs, "    int acc = 1;");
            let _ = writeln!(defs, "    if (0) {{");
            let _ = writeln!(defs, "        K{class} t;");
            let _ = writeln!(
                defs,
                "        acc = acc + t.f{class}_{};",
                rng.gen_range(0..members)
            );
            let _ = writeln!(defs, "    }}");
            let _ = writeln!(defs, "    return acc;\n}}");
            calls.push("deadcode_entry()".to_string());
        }
        FuzzShape::DeepLadder => {
            // One dispatch helper per chain, called with progressively
            // deeper receivers: the helper's candidate set is parked at
            // every depth the entry has not reached yet, and the
            // deepest rung is never instantiated at all.
            for c in 0..LADDER_CHAINS {
                let _ = writeln!(protos, "int ladder_disp{c}(L{c}_0* p);");
                let _ = writeln!(
                    defs,
                    "int ladder_disp{c}(L{c}_0* p) {{ return p->rung(); }}"
                );
            }
            let _ = writeln!(protos, "int ladder_entry();");
            let _ = writeln!(defs, "int ladder_entry() {{\n    int acc = 0;");
            for c in 0..LADDER_CHAINS {
                // Stop one rung short of the deepest class so its
                // override stays unreachable under RTA.
                let stop = LADDER_DEPTH - 1 - rng.gen_range(0..2).min(LADDER_DEPTH - 2);
                let mut d = 0;
                while d < stop {
                    let _ = writeln!(defs, "    L{c}_{d} x{c}_{d};");
                    let _ = writeln!(
                        defs,
                        "    acc = acc + ladder_disp{c}(&x{c}_{d});"
                    );
                    let _ = writeln!(
                        defs,
                        "    acc = acc + x{c}_{d}.l{c}_{d}_{};",
                        rng.gen_range(0..members)
                    );
                    d += 1 + rng.gen_range(0..2);
                }
            }
            let _ = writeln!(defs, "    return acc;\n}}");
            calls.push("ladder_entry()".to_string());
        }
        FuzzShape::Benign | FuzzShape::OdrBenignDrift | FuzzShape::OdrConflict => {}
    }
    (protos, defs, calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_core::AnalysisPipeline;
    use ddm_dynamic::{Interpreter, RunConfig};

    #[test]
    fn generation_is_deterministic() {
        let c = GeneratorConfig::default();
        assert_eq!(generate(&c, 7), generate(&c, 7));
        assert_ne!(generate(&c, 7), generate(&c, 8));
    }

    #[test]
    fn generated_programs_parse_analyze_and_run() {
        for seed in 0..20 {
            let src = generate(&GeneratorConfig::default(), seed);
            let run = AnalysisPipeline::from_source(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let exec = Interpreter::new(run.program())
                .run(&RunConfig::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert!(exec.steps > 0);
        }
    }

    #[test]
    fn soundness_oracle_on_generated_programs() {
        // Every member observed read (or address-taken) at run time must
        // be classified live by the static analysis.
        for seed in 0..30 {
            let src = generate(&GeneratorConfig::default(), seed);
            let run = AnalysisPipeline::from_source(&src).expect("pipeline");
            let exec = Interpreter::new(run.program())
                .run(&RunConfig::default())
                .expect("run");
            for m in &exec.members_observed {
                assert!(
                    run.liveness().is_live(*m),
                    "seed {seed}: member {m} read at run time but statically dead\n{src}"
                );
            }
        }
    }

    #[test]
    fn scaling_configs_produce_larger_programs() {
        let small = generate(
            &GeneratorConfig {
                classes: 2,
                ..Default::default()
            },
            1,
        );
        let large = generate(
            &GeneratorConfig {
                classes: 30,
                ..Default::default()
            },
            1,
        );
        assert!(large.len() > small.len() * 5);
    }

    #[test]
    fn scale_generation_is_deterministic() {
        let c = ScaleConfig {
            chains: 2,
            depth: 6,
            methods_per_class: 2,
            members_per_class: 2,
            rungs: 12,
        };
        assert_eq!(generate_scale(&c, 3), generate_scale(&c, 3));
        assert_ne!(generate_scale(&c, 3), generate_scale(&c, 4));
    }

    #[test]
    fn scale_programs_analyze_with_predicted_function_count() {
        let c = ScaleConfig {
            chains: 2,
            depth: 8,
            methods_per_class: 3,
            members_per_class: 2,
            rungs: 20,
        };
        let src = generate_scale(&c, 11);
        let run = AnalysisPipeline::from_source(&src)
            .unwrap_or_else(|e| panic!("scale program rejected: {e}"));
        assert_eq!(
            run.program().function_count(),
            scale_function_count(&c),
            "scale_function_count must predict the emitted program"
        );
        // The ladder never instantiates past depth (rungs-1)*depth/rungs,
        // so under RTA the deepest overrides must be pruned while the
        // ladder itself is fully reachable.
        let reachable = run.callgraph().reachable().count();
        assert!(reachable < scale_function_count(&c));
        assert!(reachable > c.chains * c.rungs);
    }

    #[test]
    fn fuzz_generation_is_deterministic_per_shape() {
        for shape in FUZZ_SHAPES {
            let c = FuzzConfig {
                base: GeneratorConfig::default(),
                shape,
                tus: 3,
            };
            assert_eq!(generate_fuzz(&c, 9), generate_fuzz(&c, 9), "{shape:?}");
            assert_ne!(generate_fuzz(&c, 9), generate_fuzz(&c, 10), "{shape:?}");
        }
    }

    #[test]
    fn fuzz_shapes_emit_their_adversarial_constructs() {
        let c = |shape| FuzzConfig {
            base: GeneratorConfig::default(),
            shape,
            tus: 2,
        };
        let text = |shape| -> String {
            generate_fuzz(&c(shape), 17)
                .into_iter()
                .map(|(_, s)| s)
                .collect()
        };
        let unions = text(FuzzShape::DeepUnions);
        assert!(unions.contains("union W") && unions.contains("UnionHolder"));
        let casts = text(FuzzShape::CastStorm);
        assert!(casts.contains("reinterpret_cast<long>"));
        assert!(casts.contains("static_cast<"));
        let diamonds = text(FuzzShape::Diamonds);
        assert!(diamonds.contains(": virtual public VTop"));
        assert!(diamonds.contains("class NJ : public NL, public NR"));
        let dead = text(FuzzShape::DeadCodeHeavy);
        assert!(dead.contains("if (0) {"));
        let ladder = text(FuzzShape::DeepLadder);
        assert!(ladder.contains(&format!(
            "class L0_{} : public L0_{}",
            LADDER_DEPTH - 1,
            LADDER_DEPTH - 2
        )));
        assert!(ladder.contains("ladder_disp0(&x0_0)"));
        assert!(
            !ladder.contains(&format!("L0_{} x", LADDER_DEPTH - 1)),
            "the deepest rung must never be instantiated"
        );
    }

    #[test]
    fn fuzz_odr_shapes_drift_headers_without_or_with_conflict() {
        use ddm_core::{ProjectError, ProjectPipeline};
        use ddm_telemetry::Telemetry;
        let run = |shape| {
            let c = FuzzConfig {
                base: GeneratorConfig::default(),
                shape,
                tus: 1, // forced to 2 by the ODR shapes
            };
            let inputs = generate_fuzz(&c, 23);
            assert!(inputs.len() >= 2, "{shape:?} must emit a multi-TU project");
            // The repeated header must differ textually across TUs —
            // that's the near-miss being tested.
            assert_ne!(inputs[0].1, inputs[1].1);
            ProjectPipeline::run(
                &inputs,
                ddm_core::AnalysisConfig::default(),
                ddm_callgraph::Algorithm::Rta,
                1,
                ddm_core::Engine::Summary,
                None,
                &Telemetry::disabled(),
            )
        };
        assert!(run(FuzzShape::OdrBenignDrift).is_ok());
        match run(FuzzShape::OdrConflict) {
            Err(ProjectError::Link(e)) => {
                assert!(e.to_string().contains("defined differently"), "{e}")
            }
            other => panic!("OdrConflict must fail linking, got {other:?}"),
        }
    }

    #[test]
    fn fuzz_programs_parse_and_analyze_for_every_shape() {
        use ddm_core::ProjectPipeline;
        use ddm_telemetry::Telemetry;
        for shape in FUZZ_SHAPES {
            if shape == FuzzShape::OdrConflict {
                continue;
            }
            for seed in 0..6 {
                let c = FuzzConfig {
                    base: GeneratorConfig {
                        classes: 3 + seed as usize % 3,
                        ..Default::default()
                    },
                    shape,
                    tus: 1 + seed as usize % 3,
                };
                let inputs = generate_fuzz(&c, seed);
                ProjectPipeline::run(
                    &inputs,
                    ddm_core::AnalysisConfig::default(),
                    ddm_callgraph::Algorithm::Rta,
                    1,
                    ddm_core::Engine::Summary,
                    None,
                    &Telemetry::disabled(),
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "{shape:?} seed {seed}: {e}\n{}",
                        inputs
                            .iter()
                            .map(|(f, s)| format!("--- {f}\n{s}"))
                            .collect::<String>()
                    )
                });
            }
        }
    }
}
