//! Sharing parsed declarations across the TUs of a run changes no
//! result. A cold run lexes and parses every top-level item text (under
//! one set of type names) once and shares that parse between the TUs
//! that repeat it; each module it publishes must still equal the one the
//! isolated front end (`parse` → `Program::build` →
//! `ProgramSummary::build` → `TuModule::extract`) produces for that TU
//! on its own — line/col, body fingerprints and `TypeError` spans
//! included — and every error must render as it does without sharing.
//! Since both sides take body fingerprints from the parse, each one is
//! also checked against the text its function's span covers.

use ddm_bench::fuzz::case_for_seed_in;
use ddm_benchmarks::generator::{generate_fuzz, FUZZ_SHAPES};
use ddm_callgraph::Algorithm;
use ddm_core::{
    front_end, snapshot_fingerprint, AnalysisConfig, AnalysisSnapshot, Engine, PipelineError,
    ProjectError, ProjectPipeline,
};
use ddm_cppfront::{parse, DeclMemo, ParseError, SourceMap, Span, TranslationUnit};
use ddm_hierarchy::{fnv1a64, link, Program, ProgramSummary, TuModule};
use ddm_telemetry::{Metric, Telemetry};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// Seeds per fuzz shape.
const SEEDS: u64 = 6;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddm-decl-sharing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn inputs(files: &[(&str, String)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(name, src)| (name.to_string(), src.clone()))
        .collect()
}

/// The isolated front end: each TU parsed, modelled, summarized and
/// extracted on its own. `Err` is the rendering a run prints for the
/// first failing TU; `Ok` carries the modules and the rendering of a
/// link failure, if they conflict.
fn isolated(
    inputs: &[(String, String)],
    refine: bool,
) -> Result<(Vec<TuModule>, Option<String>), String> {
    let mut modules = Vec::new();
    let mut programs = Vec::new();
    for (file, source) in inputs {
        let tu_error = |error: PipelineError| {
            ProjectError::Tu {
                file: file.clone(),
                error,
            }
            .to_string()
        };
        let unit = parse(source).map_err(|e| tu_error(e.into()))?;
        let program = Program::build(&unit).map_err(|e| tu_error(e.into()))?;
        let summary = ProgramSummary::build(&program, refine, 1);
        let map = SourceMap::new(file.clone(), source.clone());
        modules.push(TuModule::extract(&unit, &program, &summary, &map));
        programs.push(Some(program));
    }
    let link_error = link(&modules, &programs)
        .err()
        .map(|e| ProjectError::Link(e).to_string());
    Ok((modules, link_error))
}

/// What a cold shared run computes: the module of every TU from the
/// run's front end ([`front_end`], empty when a TU fails it) and, when
/// the run succeeds, as `analysis.snap` publishes it (both must agree).
/// A failing run must publish nothing. Also returns the shared-item
/// counter.
fn shared(
    inputs: &[(String, String)],
    algorithm: Algorithm,
    jobs: usize,
    dir: &Path,
) -> (Result<Vec<TuModule>, String>, Vec<TuModule>, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let config = AnalysisConfig::default();
    let telemetry = Telemetry::enabled();
    let all: Vec<usize> = (0..inputs.len()).collect();
    let hashes: Vec<u64> = inputs.iter().map(|(_, s)| fnv1a64(s.as_bytes())).collect();
    let modules = front_end(inputs, &all, &hashes, algorithm, jobs, &telemetry)
        .map(|tus| tus.into_iter().map(|(module, _, _)| module).collect())
        .unwrap_or_default();
    let run = ProjectPipeline::run(
        inputs,
        config.clone(),
        algorithm,
        jobs,
        Engine::Summary,
        Some(dir),
        &Telemetry::disabled(),
    );
    let published = AnalysisSnapshot::load(dir, &snapshot_fingerprint(&config, algorithm));
    let outcome = match run {
        Ok(_) => Ok(published
            .expect("a successful cold run publishes its snapshot")
            .modules),
        Err(e) => {
            assert_eq!(
                published.err().as_deref(),
                Some("missing"),
                "a failed run published"
            );
            Err(e.to_string())
        }
    };
    let shared = match telemetry.metrics_snapshot().get("frontend/decls_shared") {
        Some(Metric::Counter(n)) => *n,
        other => panic!("frontend/decls_shared is not a counter: {other:?}"),
    };
    let _ = std::fs::remove_dir_all(dir);
    (outcome, modules, shared)
}

/// Asserts that shared runs at `--jobs` 1 and 3 publish the isolated
/// modules and fail exactly as the isolated front end and link do.
/// Returns the shared-item count and the rendering of any later,
/// analysis-phase failure, both equal at the two worker counts.
fn assert_matches_isolated(
    label: &str,
    inputs: &[(String, String)],
    algorithm: Algorithm,
) -> (u64, Option<String>) {
    let expected = isolated(inputs, algorithm == Algorithm::Pta);
    let dir = scratch(label);
    let mut results = Vec::new();
    for jobs in [1, 2, 3] {
        let (outcome, entries, count) = shared(inputs, algorithm, jobs, &dir);
        let late_error = match &expected {
            // A TU that fails its front end stops the run before any
            // module is returned.
            Err(want) => {
                assert_eq!(outcome.as_ref().err(), Some(want), "{label} --jobs {jobs}");
                assert!(
                    entries.is_empty(),
                    "{label} --jobs {jobs}: modules returned"
                );
                None
            }
            // The front end returns every module, so they exist for a
            // link or analysis failure too.
            Ok((modules, link_error)) => {
                assert_eq!(
                    &entries, modules,
                    "{label} --jobs {jobs}: front-end modules differ"
                );
                match (&outcome, link_error) {
                    (Ok(got), None) => {
                        assert_eq!(
                            got, modules,
                            "{label} --jobs {jobs}: snapshot modules differ"
                        );
                        None
                    }
                    (Err(got), Some(want)) => {
                        assert_eq!(got, want, "{label} --jobs {jobs}: link errors differ");
                        None
                    }
                    (Err(got), None) => Some(got.clone()),
                    (Ok(_), Some(want)) => {
                        panic!("{label} --jobs {jobs}: linked, isolated: {want}")
                    }
                }
            }
        };
        results.push((count, late_error));
    }
    assert_eq!(results[0], results[1], "{label}: --jobs 1 and 2 disagree");
    assert_eq!(results[0], results[2], "{label}: --jobs 1 and 3 disagree");
    results.swap_remove(0)
}

/// `files` in reverse order.
fn reversed(files: &[(String, String)]) -> Vec<(String, String)> {
    files.iter().rev().cloned().collect()
}

/// Asserts that one memo shared by `files`, parsed in order and in
/// reverse order, gives each TU the spans and errors of its parse alone.
fn assert_spans_match_alone(label: &str, files: &[(String, String)]) {
    for files in [files.to_vec(), reversed(files)] {
        let memo = DeclMemo::new();
        let shared = dump_files(&files, |i, src| memo.parse(i, src));
        let alone = dump_files(&files, |_, src| parse(src));
        assert_eq!(shared, alone, "{label}: spans differ");
    }
}

/// Asserts that the module fingerprint of every function of `files`
/// (parsed through one memo) is the FNV-1a hash of the text its span
/// covers. Returns how many functions it checked.
fn assert_fingerprints_cover_their_text(label: &str, files: &[(String, String)]) -> usize {
    let memo = DeclMemo::new();
    let mut checked = 0;
    for (i, (file, src)) in files.iter().enumerate() {
        let Ok(unit) = memo.parse(i, src) else {
            continue;
        };
        let Ok(program) = Program::build(&unit) else {
            continue;
        };
        let summary = ProgramSummary::build(&program, false, 1);
        let map = SourceMap::new(file.clone(), src.clone());
        let module = TuModule::extract(&unit, &program, &summary, &map);
        let text_fp = |fid| fnv1a64(map.snippet(program.function(fid).span).as_bytes());
        for (record, (_, class)) in module.classes.iter().zip(program.classes()) {
            assert_eq!(record.methods.len(), class.methods.len());
            for (method, &fid) in record.methods.iter().zip(&class.methods) {
                let name = format!("{label}: {file}: {}::{}", record.name, method.name);
                assert_eq!(method.body_fp, text_fp(fid), "{name}");
                checked += 1;
            }
        }
        let free: Vec<_> = program
            .functions()
            .filter(|(_, f)| f.class.is_none())
            .collect();
        assert_eq!(module.free_fns.len(), free.len());
        for (record, &(fid, _)) in module.free_fns.iter().zip(&free) {
            let name = format!("{label}: {file}: {}", record.name);
            assert_eq!(record.body_fp, text_fp(fid), "{name}");
            checked += 1;
        }
    }
    checked
}

#[test]
fn every_fuzz_shape_publishes_the_isolated_modules() {
    for shape in FUZZ_SHAPES {
        let mut shared_total = 0;
        for seed in 0..SEEDS {
            let mut case = case_for_seed_in(seed, &[shape]);
            case.config.tus = 2 + (seed as usize % 3);
            let files = generate_fuzz(&case.config, seed);
            let label = format!("{}-{seed}", shape.name());
            let (count, late_error) = assert_matches_isolated(&label, &files, case.algorithm);
            assert_eq!(late_error, None, "{label}: analysis failed");
            // In reverse order another TU is parsed first, so other items
            // are the ones taken unlexed.
            let backwards = format!("{label}-reversed");
            let (_, late_error) =
                assert_matches_isolated(&backwards, &reversed(&files), case.algorithm);
            assert_eq!(late_error, None, "{backwards}: analysis failed");
            assert_spans_match_alone(&label, &files);
            assert!(assert_fingerprints_cover_their_text(&label, &files) > 0);
            shared_total += count;
        }
        assert!(
            shared_total > 0,
            "{}: no declaration was shared",
            shape.name()
        );
    }
}

const HEADER: &str = "\
class Base {
public:
    int a;
    int b;
    Base() : a(1), b(2) { }
    virtual int get() { return a; }
};
class Derived : public Base {
public:
    int c;
    int get() { return c + a; }
};
";

#[test]
fn a_header_after_comments_of_different_lengths_is_shared() {
    let files = inputs(&[
        ("a.cpp", format!("// a\n{HEADER}int helper();\nint main() {{ Derived d; return d.get() + helper(); }}\n")),
        ("b.cpp", format!("// a longer comment\n// over two lines\n\n{HEADER}int helper() {{ Base b; return b.b; }}\n")),
        ("c.cpp", format!("/* block */ {HEADER}int seed = 2 + 3;\nint other() {{ return seed; }}\n")),
    ]);
    // Base and Derived are shared by b.cpp and c.cpp.
    assert_eq!(
        assert_matches_isolated("header", &files, Algorithm::Rta),
        (4, None)
    );
}

#[test]
fn a_tail_that_declares_a_class_shares_nothing() {
    let files = inputs(&[
        ("a.cpp", format!("{HEADER}int main() {{ Derived d; return d.get(); }}\n")),
        ("b.cpp", format!("{HEADER}class Extra {{ public: int e; }};\nint use_extra() {{ Extra x; return x.e; }}\n")),
    ]);
    // b.cpp's type names include `Extra`, so its items key differently.
    assert_eq!(
        assert_matches_isolated("extra-class", &files, Algorithm::Rta),
        (0, None)
    );
    let memo = DeclMemo::new();
    let a = memo.parse(0, &files[0].1).expect("a parses");
    let b = memo.parse(1, &files[1].1).expect("b parses");
    assert!(!Arc::ptr_eq(&a.classes[0].decl, &b.classes[0].decl));
    assert_eq!(memo.decl_counts(), (7, 0));
}

#[test]
fn a_class_repeated_in_one_tu_is_reported_at_its_second_copy() {
    let src = format!("// twice\n{HEADER}{HEADER}int main() {{ return 0; }}\n");
    let second = (src.rfind("class Base").expect("two copies") as u32).to_string();
    let err = parse(&src).expect_err("the second copy is a duplicate");
    assert!(
        err.to_string()
            .starts_with(&format!("duplicate definition of `Base` at {second}..")),
        "{err}"
    );
    let files = inputs(&[
        ("ok.cpp", format!("{HEADER}int main() {{ return 0; }}\n")),
        ("twice.cpp", src),
    ]);
    assert_matches_isolated("twice", &files, Algorithm::Rta);
}

#[test]
fn an_out_of_line_definition_in_one_tu_only_keeps_its_own_spans() {
    let class = "class Acc {\npublic:\n    int total;\n    int add(int v);\n};\n";
    let files = inputs(&[
        ("a.cpp", format!("// a\n{class}int Acc::add(int v) {{ total = total + v; return total; }}\nint main() {{ Acc x; return x.add(2); }}\n")),
        ("b.cpp", format!("// bb\n// bb\n{class}int other() {{ Acc y; return y.total; }}\n")),
        ("c.cpp", format!("int Acc::add(int w) {{ return w + missing; }}\n{class}int third() {{ Acc z; return z.add(1); }}\n")),
    ]);
    assert_matches_isolated("out-of-line", &files, Algorithm::Rta);
}

#[test]
fn type_and_parse_errors_render_as_without_sharing() {
    // A type error in a shared method is reported for the TU whose class
    // record the link keeps (the first), at that TU's own offsets.
    let bad_method = HEADER.replace("return c + a;", "return c + zzz;");
    let a = (
        "a.cpp",
        format!("// a\n{bad_method}int main() {{ Derived d; return d.get(); }}\n"),
    );
    let b = (
        "b.cpp",
        format!("// b, longer\n\n{bad_method}int other() {{ return 1; }}\n"),
    );
    for files in [[a.clone(), b.clone()], [b, a]] {
        let (file, src) = &files[0];
        let at = src.find("zzz").expect("the bad identifier") as u32;
        let want = format!(
            "{file}: type error: unknown identifier `zzz` at {at}..{}",
            at + 3
        );
        let (_, late_error) =
            assert_matches_isolated("type-error", &inputs(&files), Algorithm::Rta);
        assert_eq!(late_error, Some(want));
    }
    // Global initializers keep their own offsets too.
    let files = [
        ("a.cpp", format!("{HEADER}int main() {{ return 0; }}\n")),
        ("b.cpp", format!("// b\n{HEADER}int bad = 1 + nothere;\n")),
    ];
    let at = files[1].1.find("nothere").expect("the bad identifier") as u32;
    let want = format!(
        "b.cpp: type error: unknown identifier `nothere` at {at}..{}",
        at + 7
    );
    let (_, late_error) = assert_matches_isolated("global-init", &inputs(&files), Algorithm::Rta);
    assert_eq!(late_error, Some(want));
    let files = inputs(&[
        ("a.cpp", format!("{HEADER}int main() {{ return 0; }}\n")),
        (
            "b.cpp",
            format!("// b\n{HEADER}int broken( {{ return 1; }}\n"),
        ),
    ]);
    assert_matches_isolated("parse-error", &files, Algorithm::Rta);
}

// ---------------------------------------------------------------------
// Recorded outputs of the whole-TU front end
//
// `tests/data/decl_sharing` holds hand-written inputs, most of them
// broken (parse, sema and type errors, out-of-line definitions, deep
// nesting, TUs that repeat one header after comments of different
// lengths), and two recordings made with release 0.16.0, whose parser read
// each TU as one token stream and shared nothing: `errors.txt`, what
// `ddm` printed for 125 command lines, and `spans.txt`, every span of
// each file's program model with the text it covers. Unlike the
// comparisons above, these do not run the new front end on both sides,
// so a wrong item boundary, rebase or out-of-line body offset shows.
// ---------------------------------------------------------------------

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/decl_sharing")
}

/// The `.cpp` files of `dir` in name order, with their text.
fn sources(dir: &Path) -> Vec<(String, String)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read the data directory")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".cpp"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let src = std::fs::read_to_string(dir.join(&name)).expect("read source");
            (name, src)
        })
        .collect()
}

#[test]
fn ddm_prints_what_the_whole_tu_front_end_printed() {
    let dir = data_dir();
    let recorded = std::fs::read_to_string(dir.join("errors.txt")).expect("errors.txt");
    let mut cases = 0;
    // Each case: `### <arguments>`, `exit: <code>`, then the stdout and
    // stderr sections.
    for case in recorded.split("### ").skip(1) {
        let (args, rest) = case.split_once('\n').expect("arguments line");
        let (exit, rest) = rest.split_once('\n').expect("exit line");
        let (stdout, stderr) = rest
            .strip_prefix("--- stdout\n")
            .and_then(|rest| rest.split_once("--- stderr\n"))
            .expect("stdout and stderr sections");
        let out = Command::new(env!("CARGO_BIN_EXE_ddm"))
            .current_dir(&dir)
            .args(args.split(' '))
            .output()
            .expect("run ddm");
        let code = out
            .status
            .code()
            .map_or("signal".to_string(), |c| c.to_string());
        assert_eq!(format!("exit: {code}"), exit, "ddm {args}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            stdout,
            "ddm {args}: stdout"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            stderr,
            "ddm {args}: stderr"
        );
        cases += 1;
    }
    assert_eq!(cases, 125);
}

/// The spans in `debug` (a `{:?}` rendering), in order.
fn spans_in(debug: &str) -> Vec<Span> {
    let number = |s: &str| -> (u32, usize) {
        let digits = s.bytes().take_while(u8::is_ascii_digit).count();
        (s[..digits].parse().expect("span offset"), digits)
    };
    let mut spans = Vec::new();
    let mut rest = debug;
    while let Some(at) = rest.find("Span { lo: ") {
        rest = &rest[at + "Span { lo: ".len()..];
        let (lo, n) = number(rest);
        rest = rest[n..].strip_prefix(", hi: ").expect("span hi");
        let (hi, n) = number(rest);
        rest = &rest[n..];
        spans.push(Span { lo, hi });
    }
    spans
}

/// Every span `program` holds, as a byte range of `src`, one per line
/// with the start of the text it covers.
fn span_dump(src: &str, program: &Program) -> String {
    let mut out = String::new();
    let mut line = |depth: usize, what: &str, span: Span| {
        let text: String = src.get(span.lo as usize..span.hi as usize).map_or_else(
            || "<out of range>".to_string(),
            |s| s.chars().take(24).collect(),
        );
        out.push_str(&format!("{:w$}{what} {span} {text:?}\n", "", w = 2 * depth));
    };
    for (_, class) in program.classes() {
        line(0, &format!("class {}", class.name), class.span);
        for member in &class.members {
            line(1, &format!("member {}", member.name), member.span);
        }
    }
    for (id, function) in program.functions() {
        line(
            0,
            &format!("fn {}", program.func_display_name(id)),
            function.span,
        );
        for param in &function.params {
            line(1, &format!("param {}", param.name), param.span);
        }
        for span in spans_in(&format!("{:?}", function.inits)) {
            line(1, "init", span.rebase(function.base));
        }
        for span in spans_in(&format!("{:?}", function.body)) {
            line(1, "body", span.rebase(function.base));
        }
    }
    for global in program.globals() {
        line(0, &format!("global {}", global.name), global.span);
        for span in spans_in(&format!("{:?}", global.init)) {
            line(1, "init", span.rebase(global.base));
        }
    }
    out
}

/// `spans.txt`'s rendering of `files`: per file, its span dump or the
/// error that stopped it. `parse_tu` parses file number `i`.
fn dump_files<'a>(
    files: &'a [(String, String)],
    mut parse_tu: impl FnMut(usize, &'a str) -> Result<TranslationUnit, ParseError>,
) -> String {
    let mut out = String::new();
    for (i, (name, src)) in files.iter().enumerate() {
        out.push_str(&format!("== {name}\n"));
        match parse_tu(i, src) {
            Err(e) => out.push_str(&format!("parse error: {e}\n")),
            Ok(unit) => match Program::build(&unit) {
                Err(e) => out.push_str(&format!("sema error: {e}\n")),
                Ok(program) => out.push_str(&span_dump(src, &program)),
            },
        }
    }
    out
}

#[test]
fn spans_equal_the_whole_tu_front_ends() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs = [data_dir(), root.join("crates/benchmarks/programs/multi")];
    let groups: Vec<Vec<(String, String)>> = dirs.iter().map(|dir| sources(dir)).collect();
    // Each directory's files share one memo, as the TUs of one run do.
    let mut shared = String::new();
    let mut alone = String::new();
    for files in &groups {
        let memo = DeclMemo::new();
        shared.push_str(&dump_files(files, |i, src| memo.parse(i, src)));
        alone.push_str(&dump_files(files, |_, src| parse(src)));
        assert!(memo.decl_counts().1 > 0, "nothing was shared");
    }
    let recorded = std::fs::read_to_string(data_dir().join("spans.txt")).expect("spans.txt");
    assert_eq!(alone, recorded, "parsed alone");
    assert_eq!(shared, recorded, "parsed with a shared memo");
}

// ---------------------------------------------------------------------
// Items taken unlexed
//
// A TU's item whose text an earlier TU had (and ended with its own `;`
// or `}`) is not lexed again. These cases put such items where the
// split could go wrong: under other type names, glued to the next item,
// next to text that only an earlier TU's end of input ended, right
// before a lexical error, before an item that does not parse on its
// own, repeated in one TU, and around out-of-line definitions.
// ---------------------------------------------------------------------

/// Each edge case: a label and its TUs.
fn edge_cases() -> Vec<(&'static str, Vec<(String, String)>)> {
    let main = "int main() { Derived d; return d.get(); }\n";
    let glued = HEADER.trim_end();
    let class = "class Acc {\npublic:\n    int total;\n    int add(int v);\n};\n";
    let def = "int Acc::add(int v) { total = total + v; return total; }\n";
    vec![
        (
            "other-type-names",
            inputs(&[
                ("a.cpp", format!("{HEADER}{main}")),
                ("b.cpp", format!("{HEADER}class Extra {{ public: int e; }};\nint use_extra() {{ Extra x; return x.e; }}\n")),
                ("c.cpp", format!("// c\n{HEADER}int third() {{ return 3; }}\n")),
            ]),
        ),
        (
            "glued",
            inputs(&[
                ("a.cpp", format!("{HEADER}{main}")),
                ("b.cpp", format!("{glued}int x;int other() {{ return x; }}\n")),
                ("c.cpp", format!("{glued}\nint y = 2;{glued}")),
            ]),
        ),
        (
            "ended-by-end-of-input",
            inputs(&[
                ("a.cpp", "int f() { return 1; }\nint g() { return 2;".to_string()),
                ("b.cpp", "int g() { return 2; }\nint f() { return 1; }\nint main() { return f() + g(); }\n".to_string()),
            ]),
        ),
        (
            "class-ended-by-end-of-input",
            inputs(&[
                ("a.cpp", format!("{HEADER}class Tail {{ public: int t; }}")),
                ("b.cpp", format!("{HEADER}class Tail {{ public: int t; }};\n{main}")),
            ]),
        ),
        ("stray-byte", inputs(&[("a.cpp", format!("{HEADER}{main}")), ("b.cpp", format!("{glued}$ int z;\n"))])),
        ("unterminated-comment", inputs(&[("a.cpp", format!("{HEADER}{main}")), ("b.cpp", format!("{glued}/* never ends\n"))])),
        ("unterminated-string", inputs(&[("a.cpp", format!("{HEADER}{main}")), ("b.cpp", format!("{HEADER}int s() {{ return \"oops; }}\n"))])),
        (
            "parsed-in-context",
            inputs(&[
                ("a.cpp", format!("{HEADER}{main}")),
                ("b.cpp", format!("{HEADER}int broken() {{ return (1; }}\n{HEADER}")),
                ("c.cpp", format!("{HEADER}int after() {{ return 1; }} }}\n")),
            ]),
        ),
        (
            "repeated-class",
            inputs(&[
                ("a.cpp", format!("{HEADER}{main}")),
                ("b.cpp", format!("// twice\n{HEADER}{HEADER}int helper() {{ return 0; }}\n")),
            ]),
        ),
        (
            "out-of-line",
            inputs(&[
                ("a.cpp", format!("// a\n{class}{def}int main() {{ Acc x; return x.add(2); }}\n")),
                ("b.cpp", format!("{def}// before its class\n{class}int other() {{ Acc y; return y.add(1); }}\n")),
                ("c.cpp", format!("{class}\n\n{def}int third() {{ Acc z; return z.total; }}\n")),
            ]),
        ),
    ]
}

#[test]
fn items_taken_unlexed_match_the_isolated_front_end() {
    for (label, files) in edge_cases() {
        assert_matches_isolated(label, &files, Algorithm::Rta);
        assert_matches_isolated(label, &reversed(&files), Algorithm::Rta);
        assert_spans_match_alone(label, &files);
        assert_fingerprints_cover_their_text(label, &files);
    }
}

#[test]
fn text_that_the_end_of_input_ended_is_never_taken_unlexed() {
    // `f`'s text ends a.cpp without its closing brace; b.cpp and c.cpp
    // continue it into a whole definition, which they must share.
    let a = "int f() { return 1;";
    let b = "int f() { return 1; }\nint main() { return f(); }\n";
    let c = "int f() { return 1; }\nint g() { return f(); }\n";
    let memo = DeclMemo::new();
    let err = memo.parse(0, a).expect_err("a.cpp is cut short");
    assert_eq!(err.to_string(), parse(a).expect_err("alone").to_string());
    let tb = memo.parse(1, b).expect("b parses");
    let tc = memo.parse(2, c).expect("c parses");
    assert!(Arc::ptr_eq(&tb.functions[0].decl, &tc.functions[0].decl));
    assert_eq!(memo.decl_counts(), (4, 1));
}

#[test]
fn every_function_fingerprint_covers_its_own_text() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let programs = root.join("crates/benchmarks/programs");
    let mut checked = 0;
    for dir in [programs.clone(), programs.join("multi"), data_dir()] {
        let files = sources(&dir);
        assert!(!files.is_empty(), "{}", dir.display());
        checked += assert_fingerprints_cover_their_text(&dir.to_string_lossy(), &files);
    }
    // One memo per suite program too, as a run of one file has.
    for file in sources(&programs) {
        checked += assert_fingerprints_cover_their_text(&file.0, std::slice::from_ref(&file));
    }
    assert!(checked > 500, "only {checked} functions checked");
}
