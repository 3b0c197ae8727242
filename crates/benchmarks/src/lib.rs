//! # ddm-benchmarks
//!
//! The benchmark suite of the dead-data-member study.
//!
//! The paper evaluates on eleven C++ programs (Table 1): `jikes`, `idl`,
//! `npic`, `lcom`, `taldict`, `ixx`, `simulate`, `sched`, `hotwire`,
//! `deltablue`, and `richards`. The original 1990s sources are
//! unobtainable, so this crate ships subset re-implementations:
//! `richards` and `deltablue` are faithful ports of the published
//! benchmark kernels, and the other nine are synthetic programs that
//! reproduce each original's *structural* properties — class counts,
//! library-usage style, allocation profile, and the mechanisms that
//! create dead members (unused library functionality, write-only
//! bookkeeping fields, abandoned features).
//!
//! [`suite`] returns all eleven with the paper's published numbers
//! attached for side-by-side comparison, and [`generator`] provides a
//! seeded random-program generator used by the property tests and the
//! scaling benchmarks.

pub mod generator;
pub mod rng;

use ddm_core::{AnalysisConfig, ProjectError, ProjectPipeline};
use ddm_cppfront::SourceMap;

/// The paper's published numbers for one benchmark (Table 1, Figure 3,
/// Table 2). `None` marks values the paper reports only graphically or
/// that are illegible in the surviving scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Lines of source code (Table 1).
    pub loc: Option<usize>,
    /// Number of classes (Table 1).
    pub classes: Option<usize>,
    /// Number of used classes (Table 1, bracketed).
    pub used_classes: Option<usize>,
    /// Data members in used classes (Table 1).
    pub members: Option<usize>,
    /// Percentage of dead data members (Figure 3; approximate, read from
    /// the bar chart where the text gives no number).
    pub dead_pct: Option<f64>,
    /// Object space in bytes (Table 2).
    pub object_space: Option<u64>,
    /// Dead-data-member space in bytes (Table 2).
    pub dead_space: Option<u64>,
    /// High-water mark in bytes (Table 2).
    pub high_water_mark: Option<u64>,
    /// High-water mark without dead members (Table 2).
    pub high_water_mark_without_dead: Option<u64>,
}

/// One benchmark program with its metadata.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// The paper's benchmark name.
    pub name: &'static str,
    /// The paper's one-line description.
    pub description: &'static str,
    /// Full source in the analysed C++ subset.
    pub source: &'static str,
    /// The paper's published measurements.
    pub paper: PaperRow,
}

impl Benchmark {
    /// Non-blank source lines (the paper's LOC metric).
    pub fn loc(&self) -> usize {
        SourceMap::new(self.name, self.source).loc()
    }

    /// Runs the full static analysis with the paper's configuration
    /// (down-casts verified safe, `sizeof` ignorable — neither construct
    /// occurs in the suite, so the setting is for parity only).
    ///
    /// # Errors
    ///
    /// Propagates [`ProjectError`]s; the shipped suite always succeeds.
    pub fn analyze(&self) -> Result<ProjectPipeline, ProjectError> {
        ProjectPipeline::with_config(
            self.source,
            AnalysisConfig {
                assume_safe_downcasts: true,
                sizeof_policy: ddm_core::SizeofPolicy::Ignore,
                ..Default::default()
            },
            ddm_callgraph::Algorithm::Rta,
        )
    }
}

const NONE_ROW: PaperRow = PaperRow {
    loc: None,
    classes: None,
    used_classes: None,
    members: None,
    dead_pct: None,
    object_space: None,
    dead_space: None,
    high_water_mark: None,
    high_water_mark_without_dead: None,
};

/// The eleven benchmarks, in the paper's Table 1/2 row order.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "jikes",
            description: "Java source-to-bytecode compiler",
            source: include_str!("../programs/jikes.cpp"),
            paper: PaperRow {
                loc: Some(58_296),
                classes: Some(268),
                used_classes: None,
                members: Some(1052),
                dead_pct: None,
                object_space: Some(2_921_490),
                dead_space: None,
                high_water_mark: Some(2_179_730),
                high_water_mark_without_dead: None,
            },
        },
        Benchmark {
            name: "idl",
            description: "SOM IDL compiler (virtual inheritance heavy)",
            source: include_str!("../programs/idl.cpp"),
            paper: PaperRow {
                dead_pct: Some(8.0),
                object_space: Some(708_249),
                dead_space: Some(15_388),
                high_water_mark: Some(701_273),
                high_water_mark_without_dead: Some(686_886),
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "npic",
            description: "particle-in-cell plasma simulation",
            source: include_str!("../programs/npic.cpp"),
            paper: PaperRow {
                dead_pct: Some(12.0),
                object_space: Some(115_248),
                dead_space: Some(5_616),
                high_water_mark: Some(24_972),
                high_water_mark_without_dead: Some(23_840),
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "lcom",
            description: "compiler for the hardware description language L",
            source: include_str!("../programs/lcom.cpp"),
            paper: PaperRow {
                dead_pct: Some(10.0),
                object_space: Some(2_274_956),
                dead_space: Some(241_435),
                high_water_mark: Some(1_652_828),
                high_water_mark_without_dead: Some(1_491_048),
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "taldict",
            description: "Taligent dictionary benchmark (class library user)",
            source: include_str!("../programs/taldict.cpp"),
            paper: PaperRow {
                dead_pct: Some(27.3),
                object_space: Some(7_080),
                dead_space: Some(36),
                high_water_mark: None, // illegible in the scan (OCR "7,998")
                high_water_mark_without_dead: Some(6_972),
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "ixx",
            description: "IDL-to-C++ translator (Fresco)",
            source: include_str!("../programs/ixx.cpp"),
            paper: PaperRow {
                dead_pct: Some(6.0),
                object_space: Some(551_160),
                dead_space: Some(29_745),
                high_water_mark: Some(299_516),
                high_water_mark_without_dead: Some(269_775),
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "simulate",
            description: "discrete-event simulator (class library user)",
            source: include_str!("../programs/simulate.cpp"),
            paper: PaperRow {
                dead_pct: Some(24.0),
                object_space: Some(64_869),
                dead_space: Some(41),
                high_water_mark: Some(11_586),
                high_water_mark_without_dead: None, // illegible ("11,644")
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "sched",
            description: "RS/6000 instruction scheduler (C-style structs)",
            source: include_str!("../programs/sched.cpp"),
            paper: PaperRow {
                dead_pct: Some(3.0),
                object_space: Some(9_032_676),
                dead_space: Some(1_049_148),
                high_water_mark: Some(9_032_676),
                high_water_mark_without_dead: Some(7_983_528),
                ..NONE_ROW
            },
        },
        Benchmark {
            name: "hotwire",
            description: "scriptable graphical presentation builder",
            source: include_str!("../programs/hotwire.cpp"),
            paper: PaperRow {
                loc: Some(5_355),
                classes: Some(37),
                used_classes: Some(21),
                members: Some(166),
                dead_pct: Some(21.0),
                object_space: Some(10_780),
                dead_space: Some(284),
                high_water_mark: Some(10_780),
                high_water_mark_without_dead: Some(10_496),
            },
        },
        Benchmark {
            name: "deltablue",
            description: "incremental dataflow constraint solver",
            source: include_str!("../programs/deltablue.cpp"),
            paper: PaperRow {
                loc: Some(1_250),
                classes: Some(10),
                used_classes: Some(8),
                members: Some(23),
                dead_pct: Some(0.0),
                object_space: Some(276_364),
                dead_space: Some(0),
                high_water_mark: Some(196_212),
                high_water_mark_without_dead: Some(196_212),
            },
        },
        Benchmark {
            name: "richards",
            description: "simple operating system simulator",
            source: include_str!("../programs/richards.cpp"),
            paper: PaperRow {
                loc: Some(606),
                classes: Some(12),
                used_classes: Some(12),
                members: Some(28),
                dead_pct: Some(0.0),
                object_space: Some(4_889),
                dead_space: Some(0),
                high_water_mark: Some(4_880),
                high_water_mark_without_dead: Some(4_880),
            },
        },
    ]
}

/// Looks up a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    suite().into_iter().find(|b| b.name == name)
}

/// The names of the two trivial benchmarks the paper reports as having
/// no dead data members at all.
pub const TRIVIAL: [&str; 2] = ["deltablue", "richards"];

/// The names of the three benchmarks built on externally-developed class
/// libraries — the paper's highest dead percentages.
pub const LIBRARY_USERS: [&str; 3] = ["taldict", "simulate", "hotwire"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_benchmarks_in_paper_order() {
        let s = suite();
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].name, "jikes");
        assert_eq!(s[10].name, "richards");
    }

    #[test]
    fn every_benchmark_parses_and_analyzes() {
        for b in suite() {
            let run = b.analyze().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(run.report().class_count() > 0, "{}", b.name);
        }
    }

    #[test]
    fn by_name_round_trips() {
        assert!(by_name("richards").is_some());
        assert!(by_name("unknown").is_none());
    }

    #[test]
    fn loc_is_nonzero() {
        for b in suite() {
            assert!(b.loc() > 50, "{} suspiciously small", b.name);
        }
    }

    #[test]
    fn trivial_benchmarks_have_no_dead_members() {
        for name in TRIVIAL {
            let b = by_name(name).unwrap();
            let report = b.analyze().unwrap().report();
            assert_eq!(
                report.dead_members_in_used_classes(),
                0,
                "{name} must have zero dead members, like the paper"
            );
        }
    }

    #[test]
    fn library_users_have_the_highest_dead_percentages() {
        let results: Vec<(String, f64)> = suite()
            .into_iter()
            .map(|b| {
                let pct = b.analyze().unwrap().report().dead_percentage();
                (b.name.to_string(), pct)
            })
            .collect();
        let max_non_library = results
            .iter()
            .filter(|(n, _)| !LIBRARY_USERS.contains(&n.as_str()))
            .map(|(_, p)| *p)
            .fold(0.0f64, f64::max);
        for lib in LIBRARY_USERS {
            let (_, pct) = results.iter().find(|(n, _)| n == lib).unwrap();
            assert!(
                *pct > max_non_library * 0.9,
                "{lib} ({pct:.1}%) should be near the top (max non-library {max_non_library:.1}%)"
            );
        }
    }
}
