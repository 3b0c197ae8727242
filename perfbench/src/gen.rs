//! Seeded inputs and edit scripts.
//!
//! Every input comes from `ddm_benchmarks::generator`; the seed on the
//! command line picks the programs, never their size, so two seeds give
//! the same amount of work with different code. Edits rewrite the
//! generated text at fixed points and are chosen so that they never
//! change the analysis verdict: an edited project has the same dead
//! members and the same deterministic counters as the project it came
//! from, so one cold verdict checks every step of an edit loop.

use ddm_benchmarks::generator::{
    generate_fuzz, generate_scale, FuzzConfig, FuzzShape, GeneratorConfig, ScaleConfig,
};
use ddm_benchmarks::rng::Rng;

/// A project: `(file name, source)` pairs in translation-unit order.
pub type Project = Vec<(String, String)>;

/// The seed the committed expected-verdict file was generated under.
pub const DEFAULT_SEED: u64 = 1;

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps the benchmark's own test pass fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Translation units per generated project.
    pub tus: usize,
    /// Classes in the header every TU of a project re-parses.
    pub header_classes: usize,
    /// Projects in the `cold_project` pool.
    pub cold_projects: usize,
    /// Base chain depths of the `deep_dispatch` pool, one program each.
    pub deep_depths: &'static [usize],
    /// Call-ladder rungs per `deep_dispatch` program.
    pub deep_rungs: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        tus: 24,
        header_classes: 32,
        cold_projects: 14,
        deep_depths: &[64, 96, 128, 160, 192, 224, 256],
        deep_rungs: 48,
    };

    /// Sizes for the test pass: same shapes, a fraction of the work.
    pub const TINY: Sizes = Sizes {
        tus: 4,
        header_classes: 6,
        cold_projects: 7,
        deep_depths: &[8, 12],
        deep_rungs: 6,
    };
}

/// Every fuzz shape except the one built to fail linking.
pub const COLD_SHAPES: [FuzzShape; 7] = [
    FuzzShape::Benign,
    FuzzShape::DeepUnions,
    FuzzShape::CastStorm,
    FuzzShape::Diamonds,
    FuzzShape::DeadCodeHeavy,
    FuzzShape::OdrBenignDrift,
    FuzzShape::DeepLadder,
];

/// A per-input seed drawn from the run seed, so that inputs of one
/// stream (workload) are independent of the others.
fn sub_seed(seed: u64, stream: u64, index: usize) -> u64 {
    let mut rng = Rng::seed_from_u64(seed ^ stream.rotate_left(32) ^ ((index as u64) << 8));
    rng.next_u64()
}

fn fuzz_config(sizes: &Sizes, shape: FuzzShape) -> FuzzConfig {
    FuzzConfig {
        base: GeneratorConfig {
            classes: sizes.header_classes,
            members_per_class: 4,
            methods_per_class: 3,
            stmts_per_method: 4,
            objects_in_main: 8,
        },
        shape,
        tus: sizes.tus,
    }
}

/// The `cold_project` pool: projects cycling through [`COLD_SHAPES`].
pub fn cold_pool(sizes: &Sizes, seed: u64) -> Vec<(String, Project)> {
    (0..sizes.cold_projects)
        .map(|i| {
            let shape = COLD_SHAPES[i % COLD_SHAPES.len()];
            let project = generate_fuzz(&fuzz_config(sizes, shape), sub_seed(seed, 1, i));
            (format!("{i:02}-{}", shape.name()), project)
        })
        .collect()
}

/// The project `edit_loop` and `serve_mixed` edit: benign shape, so
/// every reachable function is declared in TU 0 and appending a leaf
/// function to any TU leaves the reachable functions' ids in place.
pub fn edit_project(sizes: &Sizes, seed: u64) -> Project {
    generate_fuzz(&fuzz_config(sizes, FuzzShape::Benign), sub_seed(seed, 2, 0))
}

/// The `deep_dispatch` pool: one deep-chain program per depth. The seed
/// picks which members each method reads and which method each rung
/// dispatches; the depths are fixed so every seed does the same work.
pub fn deep_pool(sizes: &Sizes, seed: u64) -> Vec<(String, Project)> {
    sizes
        .deep_depths
        .iter()
        .enumerate()
        .map(|(i, &depth)| {
            let config = ScaleConfig {
                chains: 1,
                depth,
                methods_per_class: 2,
                members_per_class: 3,
                rungs: sizes.deep_rungs,
            };
            let source = generate_scale(&config, sub_seed(seed, 3, i + 1));
            (
                format!("{i:02}-depth{depth}"),
                vec![("deep.cpp".to_string(), source)],
            )
        })
        .collect()
}

/// What an edit touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Add an unreachable function to one TU (the fixpoint-replay path).
    Leaf,
    /// Change the body of a reachable worker function in one TU (a
    /// re-solve).
    Body,
    /// Change the shared header in every TU (k = N).
    Header,
}

impl EditKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Leaf => "leaf",
            EditKind::Body => "body",
            EditKind::Header => "header",
        }
    }
}

/// One scripted edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// What changes.
    pub kind: EditKind,
    /// The TU a leaf or body edit touches (header edits touch all).
    pub tu: usize,
}

/// A seeded edit script of `len` edits over `tus` TUs: mostly leaf,
/// body second, a few header edits — unless `header` is false, which
/// leaves header edits out (serve mode rewrites one file per edit).
pub fn edit_script(seed: u64, tus: usize, len: usize, header: bool) -> Vec<Edit> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 4, 0));
    (0..len)
        .map(|_| {
            let roll = rng.gen_range(0..100);
            let kind = match roll {
                0..=69 => EditKind::Leaf,
                70..=94 => EditKind::Body,
                _ if header => EditKind::Header,
                _ => EditKind::Body,
            };
            Edit {
                kind,
                tu: rng.gen_range(0..tus),
            }
        })
        .collect()
}

/// One TU split at its two edit points: the constructor constant of
/// the header class the header edits rewrite, and the `return acc`
/// of the TU's first worker function.
#[derive(Debug, Clone)]
struct TuTemplate {
    name: String,
    head: String,
    ctor_value: String,
    mid: String,
    tail: String,
    body: Option<u64>,
    leaf: Option<u64>,
}

/// A generated project that can be edited in place and re-rendered.
#[derive(Debug, Clone)]
pub struct EditableProject {
    tus: Vec<TuTemplate>,
    header: Option<u64>,
}

impl EditableProject {
    /// Splits `project` at its edit points. `header_class` names the
    /// generated class `K<n>` whose constructor the header edits change;
    /// pick one the program instantiates so the change is reachable.
    ///
    /// # Errors
    ///
    /// When a TU lacks either edit point (not a benign generated
    /// project).
    pub fn new(project: &Project, header_class: usize) -> Result<EditableProject, String> {
        let ctor_marker = format!("\n        f{header_class}_0 = ");
        let tus = project
            .iter()
            .enumerate()
            .map(|(t, (name, source))| {
                let missing = |what: &str| format!("{name}: no {what} edit point");
                let value_at =
                    source.find(&ctor_marker).ok_or_else(|| missing("header"))? + ctor_marker.len();
                let value_end = value_at
                    + source[value_at..]
                        .find(';')
                        .ok_or_else(|| missing("header"))?;
                let worker = source
                    .find(&format!("int w{t}_0() {{\n"))
                    .ok_or_else(|| missing("body"))?;
                let ret = worker
                    + source[worker..]
                        .find("    return acc;")
                        .ok_or_else(|| missing("body"))?
                    + "    return acc".len();
                if ret < value_end {
                    return Err(format!("{name}: body edit point precedes the header"));
                }
                Ok(TuTemplate {
                    name: name.clone(),
                    head: source[..value_at].to_string(),
                    ctor_value: source[value_at..value_end].to_string(),
                    mid: source[value_end..ret].to_string(),
                    tail: source[ret..].to_string(),
                    body: None,
                    leaf: None,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(EditableProject { tus, header: None })
    }

    /// Number of TUs.
    pub fn tu_count(&self) -> usize {
        self.tus.len()
    }

    /// Applies `edit` with the fresh value `k` (every edit of a run uses
    /// a new `k`, so every edited TU has content no cache has seen) and
    /// returns the indices of the TUs it changed.
    pub fn apply(&mut self, edit: Edit, k: u64) -> Vec<usize> {
        match edit.kind {
            EditKind::Leaf => {
                self.tus[edit.tu].leaf = Some(k);
                vec![edit.tu]
            }
            EditKind::Body => {
                self.tus[edit.tu].body = Some(k);
                vec![edit.tu]
            }
            EditKind::Header => {
                self.header = Some(1000 + k);
                (0..self.tus.len()).collect()
            }
        }
    }

    /// The file name of TU `t`.
    pub fn name(&self, t: usize) -> &str {
        &self.tus[t].name
    }

    /// The current source of TU `t`.
    pub fn render(&self, t: usize) -> String {
        let tu = &self.tus[t];
        let mut out = String::with_capacity(tu.head.len() + tu.mid.len() + tu.tail.len() + 64);
        out.push_str(&tu.head);
        match self.header {
            Some(v) => out.push_str(&v.to_string()),
            None => out.push_str(&tu.ctor_value),
        }
        out.push_str(&tu.mid);
        if let Some(k) = tu.body {
            out.push_str(&format!(" + {k}"));
        }
        out.push_str(&tu.tail);
        if let Some(k) = tu.leaf {
            out.push_str(&format!("int leaf_{t}_{k}() {{ return {k}; }}\n"));
        }
        out
    }

    /// The whole current project.
    pub fn project(&self) -> Project {
        (0..self.tus.len())
            .map(|t| (self.tus[t].name.clone(), self.render(t)))
            .collect()
    }
}
