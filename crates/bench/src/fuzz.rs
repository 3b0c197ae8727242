//! Corpus-scale differential fuzzing rig.
//!
//! The product's artifacts are byte-identical across worker counts and
//! cache states, and `ddm-oracle` holds an independent reference
//! analysis — together a ready-made differential-testing oracle. This
//! module sweeps seeded adversarial generator configurations
//! ([`ddm_benchmarks::generator::generate_fuzz`]) through the full
//! oracle matrix:
//!
//! * the product at jobs `{1, 8}`, cacheless;
//! * the reference analysis over the jobs-1 run's linked program,
//!   compared on everything it computes (all but the two worklist
//!   counters);
//! * the product against a persistent cache: cold, warm, and 1-changed
//!   (one TU's content perturbed), each at jobs `{1, 8}`;
//! * a multi-step edit script: three further random single-TU edits
//!   replayed against one warm cache directory, each step compared to
//!   a cacheless run over the same inputs;
//!
//! byte-comparing the rendered report, the `--explain` text of every
//! member, and the deterministic counters. A program the pipeline
//! *rejects* (e.g. the deliberate ODR-conflict shape) must be rejected
//! with the byte-identical diagnostic in every product cell — error
//! determinism is part of the oracle.
//!
//! Any divergence (or panic) is shrunk to a minimal repro: config
//! bisection first (halving every generator knob while the divergence
//! persists), then greedy delta-debugging over the generated TUs at
//! top-level-declaration granularity, and the result is emitted as
//! self-contained `.cpp` files plus the exact `ddm` invocations that
//! disagree.

use ddm_benchmarks::generator::{
    generate_fuzz, FuzzConfig, FuzzShape, GeneratorConfig, FUZZ_SHAPES,
};
use ddm_benchmarks::rng::Rng;
use ddm_callgraph::Algorithm;
use ddm_core::{explain, AnalysisConfig, Engine, ExplainError, ProjectPipeline};
use ddm_hierarchy::Program;
use ddm_telemetry::{Counters, Telemetry};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Explanations compared per cell (every member, capped so pathological
/// configs cannot dominate the sweep).
const EXPLAIN_CAP: usize = 64;

/// One point of the fuzz corpus: a generator configuration, its seed,
/// and the call-graph algorithm the whole matrix runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// Program seed (also selects the shape in [`case_for_seed`]).
    pub seed: u64,
    /// Generator shape and sizes.
    pub config: FuzzConfig,
    /// Call-graph algorithm for every cell of this case's matrix.
    pub algorithm: Algorithm,
}

/// Derives the case for `seed`, cycling shapes through [`FUZZ_SHAPES`].
pub fn case_for_seed(seed: u64) -> FuzzCase {
    case_for_seed_in(seed, &FUZZ_SHAPES)
}

/// Derives the case for `seed` with the shape drawn from `shapes`
/// (round-robin). Sizes and algorithm come from a seed-derived stream,
/// so equal seeds always produce equal cases.
pub fn case_for_seed_in(seed: u64, shapes: &[FuzzShape]) -> FuzzCase {
    assert!(!shapes.is_empty(), "shape list must be non-empty");
    let shape = shapes[(seed % shapes.len() as u64) as usize];
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let config = FuzzConfig {
        base: GeneratorConfig {
            classes: rng.gen_range(2..8),
            members_per_class: rng.gen_range(1..5),
            methods_per_class: rng.gen_range(1..4),
            stmts_per_method: rng.gen_range(0..5),
            objects_in_main: rng.gen_range(1..6),
        },
        shape,
        tus: rng.gen_range(1..4),
    };
    let algorithm = match rng.gen_range(0..4) {
        0 => Algorithm::Rta,
        1 => Algorithm::Pta,
        2 => Algorithm::Cha,
        _ => Algorithm::Everything,
    };
    FuzzCase {
        seed,
        config,
        algorithm,
    }
}

/// The `--callgraph` spelling of `algorithm` (for repro CLI lines).
pub fn algorithm_flag(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Rta => "rta",
        Algorithm::Pta => "pta",
        Algorithm::Cha => "cha",
        Algorithm::Everything => "everything",
    }
}

/// One executed oracle cell: its human label, the equivalent `ddm`
/// invocation, and the canonical artifact text it produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// e.g. `jobs=8 cache=warm`.
    pub label: String,
    /// `ddm <files> --callgraph ... --jobs ...` suffix; empty for the
    /// reference analysis, which has no command line.
    pub cli: String,
    /// Report + explains + counters, or `error: ...` for rejections.
    pub artifact: String,
}

/// A pair of oracle cells that disagreed on the same inputs.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The reference cell (jobs 1, cacheless — or the cacheless
    /// baseline over edited inputs for 1-changed cells).
    pub baseline: CellOutcome,
    /// The disagreeing cell.
    pub other: CellOutcome,
    /// The inputs both cells analysed.
    pub inputs: Vec<(String, String)>,
}

impl Divergence {
    /// First line at which the two artifacts differ, for quick triage.
    pub fn first_difference(&self) -> String {
        let a: Vec<&str> = self.baseline.artifact.lines().collect();
        let b: Vec<&str> = self.other.artifact.lines().collect();
        for i in 0..a.len().max(b.len()) {
            let la = a.get(i).copied().unwrap_or("<eof>");
            let lb = b.get(i).copied().unwrap_or("<eof>");
            if la != lb {
                return format!("line {}: `{la}` vs `{lb}`", i + 1);
            }
        }
        "artifacts differ only in length".to_string()
    }
}

/// The outcome of one case's matrix.
#[derive(Debug)]
pub enum CaseResult {
    /// Every cell agreed byte-for-byte.
    Agree {
        /// The agreed outcome was a rejection (`error: ...`) — true for
        /// the ODR-conflict shape, whose oracle covers diagnostics.
        error_outcome: bool,
    },
    /// Two cells disagreed.
    Diverged(Box<Divergence>),
}

/// Runs one product cell and renders its canonical artifact: the
/// report, the `--explain` text of every member (capped at
/// `EXPLAIN_CAP`), and the deterministic counters — or the error text
/// for rejected programs. Every byte of this artifact is pinned to be
/// identical across worker counts and cache states.
pub fn cell_artifact(
    inputs: &[(String, String)],
    algorithm: Algorithm,
    jobs: usize,
    cache: Option<&Path>,
) -> String {
    product_cell(inputs, algorithm, jobs, cache).0
}

/// [`cell_artifact`], also handing back the run and its counters.
fn product_cell(
    inputs: &[(String, String)],
    algorithm: Algorithm,
    jobs: usize,
    cache: Option<&Path>,
) -> (String, Option<(ProjectPipeline, Counters)>) {
    let telemetry = Telemetry::enabled();
    match ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        algorithm,
        jobs,
        Engine::Summary,
        cache,
        &telemetry,
    ) {
        Ok(p) => {
            let counters = telemetry.counters();
            let program = p.program();
            let text = render_artifact(
                program,
                p.report().to_string(),
                |spec| explain(program, p.callgraph(), p.liveness(), spec),
                &counters,
            );
            (text, Some((p, counters)))
        }
        Err(e) => (format!("error: {e}\n"), None),
    }
}

/// The artifact text of one analysed program: `report`, then the
/// `--explain` text of every member (capped at [`EXPLAIN_CAP`]), then
/// `counters`.
fn render_artifact(
    program: &Program,
    report: String,
    explain: impl Fn(&str) -> Result<String, ExplainError>,
    counters: &Counters,
) -> String {
    let mut out = report;
    let specs = program
        .classes()
        .flat_map(|(_, class)| {
            class
                .members
                .iter()
                .map(move |m| format!("{}::{}", class.name, m.name))
        })
        .take(EXPLAIN_CAP);
    for spec in specs {
        match explain(&spec) {
            Ok(text) => out.push_str(&text),
            Err(e) => {
                let _ = writeln!(out, "explain {spec}: error: {e}");
            }
        }
    }
    let _ = writeln!(out, "counters: {:?}", counters.rows());
    out
}

/// The reference cell over `run`'s linked program, and the product
/// cell it must equal: `run`'s artifact with the two worklist counters
/// the reference cannot compute zeroed.
fn oracle_cells(
    run: &ProjectPipeline,
    counters: &Counters,
    algorithm: Algorithm,
) -> (CellOutcome, CellOutcome) {
    let program = run.program();
    let product = CellOutcome {
        label: "jobs=1 (worklist counters masked)".to_string(),
        cli: cli_for(algorithm, 1, None),
        artifact: render_artifact(
            program,
            run.report().to_string(),
            |spec| explain(program, run.callgraph(), run.liveness(), spec),
            &ddm_oracle::comparable(counters),
        ),
    };
    let artifact = match ddm_oracle::analyze(program, &AnalysisConfig::default(), algorithm) {
        Ok(oracle) => render_artifact(
            program,
            oracle.report(program).to_string(),
            |spec| oracle.explain(program, spec),
            &oracle.counters,
        ),
        Err(e) => format!("error: {e}\n"),
    };
    let oracle = CellOutcome {
        label: "oracle".to_string(),
        cli: String::new(),
        artifact,
    };
    (product, oracle)
}

/// Serial number for scratch cache directories, so concurrent sweep
/// workers (and repeated shrink probes) never share one.
static SCRATCH_SERIAL: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(scratch_root: &Path, tag: &str) -> PathBuf {
    let n = SCRATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
    scratch_root.join(format!("{tag}-{n}"))
}

fn cli_for(algorithm: Algorithm, jobs: usize, cache: Option<&str>) -> String {
    let mut cli = format!("--callgraph {} --jobs {jobs}", algorithm_flag(algorithm));
    if let Some(state) = cache {
        let _ = write!(cli, " --cache-dir <{state} dir>");
    }
    cli
}

/// Runs the oracle matrix over `inputs` and compares every cell to the
/// jobs=1 cacheless baseline, and the reference analysis to that
/// baseline's run; with `full`, also exercises the persistent cache
/// (cold, warm, and 1-changed at jobs 1 and 8, where the 1-changed
/// cells are compared against a cacheless baseline over the same edited
/// inputs), then replays a three-step random single-TU edit script
/// against the jobs=1 directory, comparing every step to its own
/// cacheless baseline. Returns the first divergence found.
///
/// Scratch cache directories are created under `scratch_root` and
/// removed before returning.
pub fn check_inputs(
    inputs: &[(String, String)],
    algorithm: Algorithm,
    scratch_root: &Path,
    full: bool,
) -> Option<Box<Divergence>> {
    let cell = |inputs: &[(String, String)],
                jobs: usize,
                cache: Option<&Path>,
                label: String,
                state: Option<&str>| CellOutcome {
        label,
        cli: cli_for(algorithm, jobs, state),
        artifact: cell_artifact(inputs, algorithm, jobs, cache),
    };
    let run = |jobs: usize, cache: Option<&Path>, state: Option<&str>| {
        let label = match state {
            Some(s) => format!("jobs={jobs} cache={s}"),
            None => format!("jobs={jobs}"),
        };
        cell(inputs, jobs, cache, label, state)
    };
    let (artifact, baseline_run) = product_cell(inputs, algorithm, 1, None);
    let baseline = CellOutcome {
        label: "jobs=1".to_string(),
        cli: cli_for(algorithm, 1, None),
        artifact,
    };
    let diverged = |baseline: CellOutcome, other: CellOutcome, inputs: &[(String, String)]| {
        (other.artifact != baseline.artifact).then(|| {
            Box::new(Divergence {
                baseline,
                other,
                inputs: inputs.to_vec(),
            })
        })
    };
    let check = |other: CellOutcome| diverged(baseline.clone(), other, inputs);

    if let Some(d) = check(run(8, None, None)) {
        return Some(d);
    }
    if let Some((p, counters)) = &baseline_run {
        let (product, oracle) = oracle_cells(p, counters, algorithm);
        if let Some(d) = diverged(product, oracle, inputs) {
            return Some(d);
        }
    }

    if !full {
        return None;
    }

    // Cached cells: each jobs level gets its own directory so both see a
    // genuine cold start; the warm run then replays entirely from cache.
    let mut dirs = Vec::new();
    let mut found = None;
    'matrix: for jobs in [1usize, 8] {
        let dir = fresh_dir(scratch_root, "cache");
        dirs.push(dir.clone());
        for state in ["cold", "warm"] {
            if let Some(d) = check(run(jobs, Some(&dir), Some(state))) {
                found = Some(d);
                break 'matrix;
            }
        }
    }

    // 1-changed: perturb the last TU with an unreachable function, then
    // the cached run over the now-stale directory must match a
    // cacheless run over the same edited inputs.
    let mut edited = inputs.to_vec();
    if let Some(last) = edited.last_mut() {
        last.1.push_str("int fuzz_pad_edit() { return 1; }\n");
    }
    if found.is_none() {
        let edited_baseline = cell(&edited, 1, None, "jobs=1 (edited, cacheless)".into(), None);
        for (jobs, dir) in [1usize, 8].iter().zip(&dirs) {
            let label = format!("jobs={jobs} cache=1-changed");
            let other = cell(&edited, *jobs, Some(dir), label, Some("1-changed"));
            found = diverged(edited_baseline.clone(), other, &edited);
            if found.is_some() {
                break;
            }
        }
    }

    // Multi-step edit script: three further random single-TU edits
    // replayed in sequence against the jobs=1 cache directory (already
    // warm and one edit deep at this point). Every step must be
    // byte-identical to a cacheless run over the same inputs — no state
    // from any earlier edition (summary entries, analysis snapshot) may
    // leak into a later one.
    if found.is_none() {
        let mut rng = Rng::seed_from_u64(
            edited
                .iter()
                .flat_map(|(_, s)| s.as_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                }),
        );
        let dir = &dirs[0];
        let mut current = edited.clone();
        for step in 1..=3usize {
            let t = rng.gen_range(0..current.len());
            let _ = writeln!(
                current[t].1,
                "int fuzz_step{step}_edit() {{ return {step}; }}"
            );
            let label = format!("jobs=1 (edit step {step}, cacheless)");
            let step_baseline = cell(&current, 1, None, label, None);
            let label = format!("jobs=1 cache=edit-step-{step}");
            let other = cell(&current, 1, Some(dir), label, Some("edit script"));
            found = diverged(step_baseline, other, &current);
            if found.is_some() {
                break;
            }
        }
    }

    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    found
}

/// Generates `case`'s program and runs its full matrix.
pub fn run_case(case: &FuzzCase, scratch_root: &Path, full: bool) -> CaseResult {
    let inputs = generate_fuzz(&case.config, case.seed);
    match check_inputs(&inputs, case.algorithm, scratch_root, full) {
        Some(d) => CaseResult::Diverged(d),
        None => CaseResult::Agree {
            error_outcome: cell_artifact(&inputs, case.algorithm, 1, None).starts_with("error:"),
        },
    }
}

// --- Shrinking -----------------------------------------------------------

/// Splits a TU into top-level chunks: classes, unions, enums, free
/// functions, prototypes, globals — each chunk a run of lines that
/// opens at brace depth 0 and closes back to it. Comment and blank
/// lines attach to the chunk that follows them. Concatenating the
/// chunks reproduces the source exactly.
pub fn chunk_top_level(source: &str) -> Vec<String> {
    let mut chunks = Vec::new();
    let mut current = String::new();
    let mut depth: i64 = 0;
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or("");
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        current.push_str(line);
        current.push('\n');
        depth += opens - closes;
        // A chunk closes at depth 0 on a line that carried any code:
        // a `};`/`}` closer, a one-line prototype, or a blank/comment
        // separator flushes only if something real is pending.
        let has_code = !code.trim().is_empty();
        if depth == 0 && has_code {
            chunks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Counts chunks that define a function (contain a body and are not a
/// class/union/enum definition) across all TUs — the "repro is ≤ N
/// functions" metric.
pub fn function_definition_count(inputs: &[(String, String)]) -> usize {
    inputs
        .iter()
        .flat_map(|(_, source)| chunk_top_level(source))
        .filter(|chunk| {
            let first_code = chunk
                .lines()
                .map(|l| l.split("//").next().unwrap_or("").trim())
                .find(|l| !l.is_empty())
                .unwrap_or("");
            !first_code.is_empty()
                && !first_code.starts_with("class ")
                && !first_code.starts_with("struct ")
                && !first_code.starts_with("union ")
                && !first_code.starts_with("enum ")
                && chunk.contains('{')
        })
        .count()
}

/// Greedy delta-debugging over the generated TUs: repeatedly tries
/// dropping whole TUs, then single top-level chunks (never the chunk
/// holding `main`), then single brace-free statement lines — so a call
/// site inside `main` can go first, unblocking the chunk drop of its
/// now-unreferenced callee — keeping every drop under which
/// `interesting` still holds, until a fixpoint. `interesting` must hold
/// for `inputs`.
pub fn shrink_inputs(
    inputs: &[(String, String)],
    interesting: impl Fn(&[(String, String)]) -> bool,
) -> Vec<(String, String)> {
    assert!(
        interesting(inputs),
        "shrink_inputs: the starting inputs must be interesting"
    );
    let mut cur = inputs.to_vec();
    loop {
        let mut progressed = false;

        // Whole-TU drops first — they remove the most at once.
        let mut t = 0;
        while t < cur.len() {
            if cur.len() > 1 && !cur[t].1.contains("int main(") {
                let mut cand = cur.clone();
                cand.remove(t);
                if interesting(&cand) {
                    cur = cand;
                    progressed = true;
                    continue; // same index now names the next TU
                }
            }
            t += 1;
        }

        // Chunk drops, last-to-first so dependents go before their
        // definitions get a chance.
        for t in 0..cur.len() {
            let mut c = chunk_top_level(&cur[t].1).len();
            while c > 0 {
                c -= 1;
                let chunks = chunk_top_level(&cur[t].1);
                let Some(chunk) = chunks.get(c) else { continue };
                if chunk.contains("int main(") {
                    continue;
                }
                let rebuilt: String = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != c)
                    .map(|(_, s)| s.as_str())
                    .collect();
                let mut cand = cur.clone();
                cand[t].1 = rebuilt;
                if interesting(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        // Single-line drops: any line that carries code but no brace can
        // go without changing the chunk structure (statements, member
        // declarations, prototypes).
        for t in 0..cur.len() {
            let mut l = cur[t].1.lines().count();
            while l > 0 {
                l -= 1;
                let lines: Vec<&str> = cur[t].1.lines().collect();
                let Some(line) = lines.get(l) else { continue };
                let code = line.split("//").next().unwrap_or("").trim();
                if code.is_empty() || code.contains('{') || code.contains('}') {
                    continue;
                }
                let rebuilt: String = lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != l)
                    .map(|(_, s)| format!("{s}\n"))
                    .collect();
                let mut cand = cur.clone();
                cand[t].1 = rebuilt;
                if interesting(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

/// Halves one knob toward `min`; returns false when already minimal.
fn shrink_field(v: &mut usize, min: usize) -> bool {
    if *v <= min {
        return false;
    }
    let half = min.max(*v / 2);
    *v = if half == *v { *v - 1 } else { half };
    true
}

/// Config bisection: repeatedly halves every generator knob (TUs,
/// classes, members, methods, statements, objects) toward its floor,
/// keeping each reduction under which `interesting` still holds.
/// `interesting` must hold for `config`.
pub fn shrink_config(
    config: &FuzzConfig,
    interesting: impl Fn(&FuzzConfig) -> bool,
) -> FuzzConfig {
    assert!(
        interesting(config),
        "shrink_config: the starting config must be interesting"
    );
    let mut cur = *config;
    loop {
        let mut progressed = false;
        for knob in 0..6 {
            loop {
                let mut cand = cur;
                let moved = match knob {
                    0 => shrink_field(&mut cand.tus, 1),
                    1 => shrink_field(&mut cand.base.classes, 1),
                    2 => shrink_field(&mut cand.base.members_per_class, 1),
                    3 => shrink_field(&mut cand.base.methods_per_class, 0),
                    4 => shrink_field(&mut cand.base.stmts_per_method, 0),
                    _ => shrink_field(&mut cand.base.objects_in_main, 0),
                };
                if !moved || !interesting(&cand) {
                    break;
                }
                cur = cand;
                progressed = true;
            }
        }
        if !progressed {
            return cur;
        }
    }
}

/// A shrunk divergence: the minimal inputs still showing it, the config
/// bisection's end point, and the original case.
#[derive(Debug)]
pub struct ShrunkRepro {
    /// The original case.
    pub case: FuzzCase,
    /// Minimal generator config still diverging (bisection result).
    pub config: FuzzConfig,
    /// Minimal inputs still diverging (delta-debugging result).
    pub inputs: Vec<(String, String)>,
    /// The divergence the minimal inputs exhibit.
    pub divergence: Box<Divergence>,
}

/// Shrinks a diverging case: config bisection over regenerated
/// programs, then chunk-level delta-debugging over the winning
/// program's TUs. The returned repro is guaranteed to still diverge.
pub fn shrink_divergence(case: &FuzzCase, scratch_root: &Path) -> ShrunkRepro {
    let diverges_cfg = |cfg: &FuzzConfig| {
        let inputs = generate_fuzz(cfg, case.seed);
        check_inputs(&inputs, case.algorithm, scratch_root, true).is_some()
    };
    let config = shrink_config(&case.config, diverges_cfg);
    let inputs = generate_fuzz(&config, case.seed);
    let diverges =
        |inp: &[(String, String)]| check_inputs(inp, case.algorithm, scratch_root, true).is_some();
    let inputs = shrink_inputs(&inputs, diverges);
    let divergence = check_inputs(&inputs, case.algorithm, scratch_root, true)
        .expect("shrunk inputs must still diverge");
    ShrunkRepro {
        case: *case,
        config,
        inputs,
        divergence,
    }
}

impl ShrunkRepro {
    /// Writes the repro under `dir`: one self-contained `.cpp` per TU
    /// (`<stem>.cpp` or `<stem>-tu<N>.cpp`) plus `<stem>.txt` holding
    /// the disagreeing cells, their exact `ddm` invocations, and the
    /// first differing artifact line. Returns the `.txt` path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating `dir` or writing files.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "repro-seed{}-{}",
            self.case.seed,
            self.case.config.shape.name()
        );
        let mut files = Vec::new();
        for (i, (_, source)) in self.inputs.iter().enumerate() {
            let name = if self.inputs.len() == 1 {
                format!("{stem}.cpp")
            } else {
                format!("{stem}-tu{i}.cpp")
            };
            std::fs::write(dir.join(&name), source)?;
            files.push(name);
        }
        let files = files.join(" ");
        let mut note = String::new();
        let _ = writeln!(note, "# differential fuzz repro");
        let _ = writeln!(
            note,
            "# seed={} shape={} algorithm={} (shrunk from {:?})",
            self.case.seed,
            self.case.config.shape.name(),
            algorithm_flag(self.case.algorithm),
            self.case.config,
        );
        let _ = writeln!(note, "# minimal config: {:?}", self.config);
        let _ = writeln!(
            note,
            "# function definitions in repro: {}",
            function_definition_count(&self.inputs)
        );
        let _ = writeln!(note, "# first difference: {}", self.divergence.first_difference());
        let _ = writeln!(note, "# disagreeing cells:");
        for cell in [&self.divergence.baseline, &self.divergence.other] {
            if cell.cli.is_empty() {
                let _ = writeln!(
                    note,
                    "# {}: ddm_oracle::analyze over the linked program",
                    cell.label
                );
            } else {
                let _ = writeln!(note, "ddm {files} {}   # {}", cell.cli, cell.label);
            }
        }
        let path = dir.join(format!("{stem}.txt"));
        std::fs::write(&path, note)?;
        Ok(path)
    }

    /// The repro rendered for a panic message or log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shrunk repro (seed={} shape={} algorithm={}, {} function defs):",
            self.case.seed,
            self.case.config.shape.name(),
            algorithm_flag(self.case.algorithm),
            function_definition_count(&self.inputs)
        );
        let _ = writeln!(
            out,
            "cells: `{}` vs `{}`",
            self.divergence.baseline.label, self.divergence.other.label
        );
        let _ = writeln!(out, "first difference: {}", self.divergence.first_difference());
        for (file, source) in &self.inputs {
            let _ = writeln!(out, "--- {file}\n{source}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_cycle_shapes() {
        assert_eq!(case_for_seed(11), case_for_seed(11));
        let shapes: Vec<FuzzShape> = (0..FUZZ_SHAPES.len() as u64)
            .map(|s| case_for_seed(s).config.shape)
            .collect();
        assert_eq!(shapes, FUZZ_SHAPES.to_vec());
    }

    #[test]
    fn chunking_round_trips_and_isolates_top_level_items() {
        let src = "// header\nclass A {\npublic:\n    int x;\n};\n\nint f();\nint g() {\n    return 1;\n}\nint main() {\n    return g();\n}\n";
        let chunks = chunk_top_level(src);
        assert_eq!(chunks.concat(), src, "chunks must concatenate to the source");
        assert!(chunks.iter().any(|c| c.contains("class A")));
        assert!(chunks.iter().any(|c| c.trim_end().ends_with("int f();")));
        assert_eq!(function_definition_count(&[("a".into(), src.into())]), 2);
    }

    #[test]
    fn shrink_field_halves_toward_the_floor() {
        let mut v = 9;
        assert!(shrink_field(&mut v, 1));
        assert_eq!(v, 4);
        assert!(shrink_field(&mut v, 1));
        assert_eq!(v, 2);
        assert!(shrink_field(&mut v, 1));
        assert_eq!(v, 1);
        assert!(!shrink_field(&mut v, 1));
    }

    #[test]
    fn a_benign_case_passes_its_full_matrix() {
        let scratch = std::env::temp_dir().join(format!("ddm-fuzz-unit-{}", std::process::id()));
        let case = case_for_seed(0);
        assert_eq!(case.config.shape, FuzzShape::Benign);
        match run_case(&case, &scratch, true) {
            CaseResult::Agree { error_outcome } => assert!(!error_outcome),
            CaseResult::Diverged(d) => panic!(
                "benign seed 0 diverged: {} vs {}\n{}",
                d.baseline.label,
                d.other.label,
                d.first_difference()
            ),
        }
        let _ = std::fs::remove_dir_all(scratch);
    }
}
