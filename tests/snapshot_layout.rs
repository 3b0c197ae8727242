//! Golden layouts of the cache file. Pinned by length and FNV-1a hash:
//! the image of a hand-built `AnalysisSnapshot` that holds every variant
//! of every tagged type, the `multi/` fixture's snapshot at `rta` and at
//! `pta`, and each of its modules sealed as an entry. Each image decodes
//! back to its value. Any change to a persisted layout fails here, so it
//! has to be deliberate and bump `SNAPSHOT_FORMAT_VERSION` or
//! `BINMOD_FORMAT_VERSION`.

use dead_data_members::analysis::{
    config_fingerprint, AnalysisConfig, AnalysisSnapshot, Engine, LiveReason, LivenessParts,
    Origin, ProjectPipeline, SNAPSHOT_FILE,
};
use dead_data_members::callgraph::{Algorithm, CallGraphParts, CgRound, CgSchedule};
use dead_data_members::cppfront::ast::{ClassKind, FnType, FunctionKind, Type, TypeKind};
use dead_data_members::cppfront::Span;
use dead_data_members::hierarchy::{
    decode_entry, encode_entry, fnv1a64, ClassId, ClassRecord, EnumRecord, FreeFnRecord, FuncId,
    GlobalRecord, LookupError, MarkAllCause, MemberAccessKind, MemberRecord, MemberRef,
    MethodRecord, SymCgStep, SymFnSummary, SymFunc, SymLiveStep, SymMember, TuModule, TypeError,
    TypeErrorKind,
};
use dead_data_members::telemetry::{Counters, Histogram, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

/// `(length, fnv1a64)` of an image.
fn digest(image: &[u8]) -> (usize, u64) {
    (image.len(), fnv1a64(image))
}

/// Every `TypeKind`, each qualifier combination, nested through every
/// derived kind.
fn every_type() -> Vec<Type> {
    let q = |kind: TypeKind, is_const: bool, is_volatile: bool| Type {
        kind,
        is_const,
        is_volatile,
    };
    let leaves = vec![
        q(TypeKind::Void, false, false),
        q(TypeKind::Bool, true, false),
        q(TypeKind::Char, false, true),
        q(TypeKind::Short, true, true),
        q(TypeKind::Int, false, false),
        q(TypeKind::Long, false, false),
        q(TypeKind::Float, false, false),
        q(TypeKind::Double, false, false),
        q(TypeKind::Named("Shape".to_string()), true, false),
    ];
    let mut out = leaves.clone();
    out.push(q(
        TypeKind::Pointer(Box::new(leaves[4].clone())),
        true,
        false,
    ));
    out.push(q(
        TypeKind::Reference(Box::new(leaves[8].clone())),
        false,
        false,
    ));
    out.push(q(
        TypeKind::Array(Box::new(leaves[2].clone()), 17),
        false,
        false,
    ));
    out.push(q(
        TypeKind::Function(Box::new(FnType {
            ret: leaves[4].clone(),
            params: vec![leaves[1].clone(), leaves[8].clone().pointer_to()],
        })),
        false,
        false,
    ));
    out.push(q(
        TypeKind::MemberPointer {
            class: "Shape".to_string(),
            pointee: Box::new(leaves[7].clone()),
        },
        false,
        true,
    ));
    out
}

fn every_type_error() -> Vec<TypeError> {
    let kinds = vec![
        TypeErrorKind::UnknownIdent("ghost".to_string()),
        TypeErrorKind::NotAClass("int".to_string()),
        TypeErrorKind::NotAPointer("Shape".to_string()),
        TypeErrorKind::NotCallable("long".to_string()),
        TypeErrorKind::Lookup(LookupError::NotFound {
            class: "Shape".to_string(),
            name: "area".to_string(),
        }),
        TypeErrorKind::Lookup(LookupError::Ambiguous {
            class: "Diamond".to_string(),
            name: "tag".to_string(),
        }),
        TypeErrorKind::ThisOutsideMethod,
        TypeErrorKind::UnknownQualifier("Nowhere".to_string()),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TypeError::from_parts(kind, Span::new(i as u32, 40 + i as u32)))
        .collect()
}

fn every_summary() -> SymFnSummary {
    let method = SymFunc::Method {
        class: "Shape".to_string(),
        index: 2,
    };
    let free = SymFunc::Free("helper".to_string());
    let member = |index| SymMember {
        class: "Shape".to_string(),
        index,
    };
    let mut live_steps: Vec<SymLiveStep> = [
        MemberAccessKind::Read,
        MemberAccessKind::AddressTaken,
        MemberAccessKind::PointerToMember,
        MemberAccessKind::VolatileWrite,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| SymLiveStep::Access {
        member: member(i as u32),
        kind,
    })
    .collect();
    for cause in [
        MarkAllCause::UnsafeCast,
        MarkAllCause::UnsafeDowncast,
        MarkAllCause::Sizeof,
    ] {
        live_steps.push(SymLiveStep::MarkAll {
            class: "Circle".to_string(),
            cause,
        });
    }
    SymFnSummary {
        live_steps,
        cg_steps: vec![
            SymCgStep::Call(free.clone()),
            SymCgStep::VirtualCall {
                decl: method.clone(),
                receiver: "Shape".to_string(),
                refined: None,
            },
            SymCgStep::VirtualCall {
                decl: method.clone(),
                receiver: "Shape".to_string(),
                refined: Some(vec![method.clone(), free.clone()]),
            },
            SymCgStep::FnPointerCall,
            SymCgStep::TakeAddress(method.clone()),
            SymCgStep::Instantiate {
                class: "Circle".to_string(),
                ctor: None,
            },
            SymCgStep::Instantiate {
                class: "Circle".to_string(),
                ctor: Some(method),
            },
            SymCgStep::Delete {
                class: "Shape".to_string(),
            },
        ],
    }
}

/// A module with every record kind, every `ClassKind` and
/// `FunctionKind`, every type, and an `Err` summary of every
/// `TypeErrorKind`.
fn every_module() -> TuModule {
    let types = every_type();
    let errors = every_type_error();
    let class = |name: &str, kind: ClassKind| ClassRecord {
        name: name.to_string(),
        kind,
        bases: vec![("Shape".to_string(), true), ("Base".to_string(), false)],
        members: types
            .iter()
            .enumerate()
            .map(|(i, ty)| MemberRecord {
                name: format!("m{i}"),
                ty: ty.clone(),
                is_volatile: i % 3 == 0,
            })
            .collect(),
        methods: [
            FunctionKind::Free,
            FunctionKind::Method,
            FunctionKind::Constructor,
            FunctionKind::Destructor,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| MethodRecord {
            name: format!("f{i}"),
            kind,
            is_virtual: i % 2 == 1,
            arity: i as u32,
            has_body: i != 0,
            body_fp: 0x0123_4567_89ab_cdef ^ i as u64,
            has_inits: i == 2,
            line: 10 + i as u32,
            col: 5,
            summary: if i == 3 {
                Err(errors[6].clone())
            } else {
                Ok(every_summary())
            },
        })
        .collect(),
        line: 3,
        col: 1,
    };
    TuModule {
        file: "every.cpp".to_string(),
        source_hash: 0xfeed_face_cafe_beef,
        classes: vec![
            Arc::new(class("Shape", ClassKind::Class)),
            Arc::new(class("Circle", ClassKind::Struct)),
            Arc::new(class("Bits", ClassKind::Union)),
        ],
        enums: vec![EnumRecord {
            name: "Mode".to_string(),
            variants: vec![("Off".to_string(), 0), ("Neg".to_string(), -7)],
            line: 1,
            col: 1,
        }],
        globals: types
            .iter()
            .enumerate()
            .map(|(i, ty)| GlobalRecord {
                name: format!("g{i}"),
                ty: ty.clone(),
                line: 40 + i as u32,
                col: 1,
            })
            .collect(),
        free_fns: errors
            .into_iter()
            .enumerate()
            .map(|(i, error)| FreeFnRecord {
                name: format!("bad{i}"),
                arity: 1,
                has_body: true,
                body_fp: i as u64,
                line: 60 + i as u32,
                col: 1,
                summary: Err(error),
            })
            .chain(std::iter::once(FreeFnRecord {
                name: "main".to_string(),
                arity: 0,
                has_body: true,
                body_fp: 99,
                line: 80,
                col: 1,
                summary: Ok(every_summary()),
            }))
            .collect(),
        globals_summary: Ok(every_summary()),
    }
}

/// A snapshot holding every variant of every tagged type, computed
/// under `algorithm`.
fn every_snapshot(algorithm: Algorithm) -> AnalysisSnapshot {
    let module = every_module();
    let mut second = module.clone();
    second.file = "second.cpp".to_string();
    second.source_hash ^= 1;
    // The class table stores a record shared by both modules once.
    second.classes.truncate(2);
    let mut dispatch = Histogram::default();
    for v in [0, 1, 3, 900, u64::MAX] {
        dispatch.record(v);
    }
    // Distinct per-row values pin the row order.
    let counters = Counters {
        reachable_functions: 1000,
        callgraph_edges: 1001,
        instantiated_classes: 1002,
        cg_worklist_pops: 1003,
        cg_ready_drains: 1004,
        scan_reads: 1005,
        scan_address_taken: 1006,
        scan_ptr_to_member: 1007,
        scan_volatile_writes: 1008,
        markall_triggers: 1009,
        markall_classes_expanded: 1010,
        union_rounds: 1011,
        union_classes_livened: 1012,
        members_live: 1013,
        members_dead: 1014,
        members_unclassifiable: 1015,
    };
    let m = |c: usize, i: usize| MemberRef::new(ClassId::from_index(c), i);
    let f = FuncId::from_index;
    let reasons = [
        LiveReason::Read,
        LiveReason::AddressTaken,
        LiveReason::PointerToMember,
        LiveReason::UnsafeCast,
        LiveReason::UnionPropagation,
        LiveReason::VolatileWrite,
        LiveReason::Sizeof,
    ];
    AnalysisSnapshot {
        fingerprint: "golden;algo=every".to_string(),
        source_hashes: vec![module.source_hash, second.source_hash],
        summary_bytes: vec![0, 7],
        modules: vec![module, second],
        reachable_names: vec![(0, "main".to_string()), (4, "Shape::f1".to_string())],
        class_count: 3,
        function_count: 21,
        callgraph: CallGraphParts {
            algorithm,
            reachable: vec![f(0), f(4)],
            instantiated: vec![ClassId::from_index(1)],
            address_taken: vec![f(4)],
            edge_offsets: vec![0, 1, 1, 1, 1, 2],
            edge_targets: vec![f(4), f(0)],
        },
        schedule: CgSchedule {
            rounds: vec![
                CgRound {
                    delta_fns: 1,
                    pops: 2,
                    drains: 0,
                },
                CgRound {
                    delta_fns: 3,
                    pops: 4,
                    drains: 5,
                },
            ],
            pops: 6,
            drains: 5,
            parked: 8,
            dispatch_candidates: dispatch,
            replays: 9,
            interned_symbols: 10,
            arena_bytes: 11,
        },
        liveness: LivenessParts {
            live: reasons
                .iter()
                .enumerate()
                .map(|(i, &r)| (m(i % 3, i), r))
                .collect(),
            unclassifiable: vec![m(2, 0), m(2, 1)],
            origins: vec![
                (m(0, 0), Origin::Access { func: None }),
                (m(0, 1), Origin::Access { func: Some(f(4)) }),
                (
                    m(1, 0),
                    Origin::MarkAll {
                        func: None,
                        root: ClassId::from_index(1),
                    },
                ),
                (
                    m(1, 1),
                    Origin::MarkAll {
                        func: Some(f(0)),
                        root: ClassId::from_index(0),
                    },
                ),
                (
                    m(2, 2),
                    Origin::Union {
                        root: ClassId::from_index(2),
                        via: m(2, 0),
                    },
                ),
            ],
        },
        liveness_counters: counters,
    }
}

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Everything,
    Algorithm::Cha,
    Algorithm::Rta,
    Algorithm::Pta,
];

#[test]
fn a_snapshot_of_every_variant_keeps_its_bytes() {
    let want: [(usize, u64); 4] = [
        (6809, 7169482342593243725),
        (6809, 7511512453978670641),
        (6809, 12952642552772223991),
        (6809, 3577119397469963934),
    ];
    let mut got = Vec::new();
    for algorithm in ALGORITHMS {
        let snap = every_snapshot(algorithm);
        let image = snap.encode();
        let back = AnalysisSnapshot::decode(&image).expect("the golden snapshot decodes");
        assert_eq!(back, snap, "{algorithm:?}");
        got.push(digest(&image));
    }
    assert_eq!(got, want, "golden snapshot images");
}

/// The committed three-TU fixture, read into memory under fixed names.
fn multi_inputs() -> Vec<(String, String)> {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/benchmarks/programs/multi"
    ));
    ["shapes_geom.cpp", "shapes_main.cpp", "shapes_stats.cpp"]
        .into_iter()
        .map(|name| {
            let source = std::fs::read_to_string(dir.join(name)).expect("fixture file");
            (format!("multi/{name}"), source)
        })
        .collect()
}

/// The `analysis.snap` a cold run over `multi/` publishes.
fn multi_snapshot(algorithm: Algorithm) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("ddm-golden-{algorithm:?}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ProjectPipeline::run(
        &multi_inputs(),
        AnalysisConfig::default(),
        algorithm,
        1,
        Engine::Summary,
        Some(&dir),
        &Telemetry::disabled(),
    )
    .expect("multi/ analyses");
    let image = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("published snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    image
}

#[test]
fn the_multi_fixture_snapshot_and_its_entries_keep_their_bytes() {
    let want: [((usize, u64), [(usize, u64); 3]); 2] = [
        (
            (2876, 969774982530122371),
            [
                (833, 16785292729809673771),
                (977, 13851730306676159389),
                (797, 16215525843986245428),
            ],
        ),
        (
            (2876, 15703793593417693867),
            [
                (833, 9911146340345372500),
                (977, 18382655945698103076),
                (797, 817376685505110485),
            ],
        ),
    ];
    let mut got = Vec::new();
    for algorithm in [Algorithm::Rta, Algorithm::Pta] {
        let image = multi_snapshot(algorithm);
        let snap = AnalysisSnapshot::decode(&image).expect("the fixture snapshot decodes");
        assert_eq!(
            snap.encode(),
            image,
            "{algorithm:?}: re-encoding is the identity"
        );
        let fingerprint = config_fingerprint(algorithm);
        let mut entries = [(0, 0); 3];
        assert_eq!(snap.modules.len(), 3);
        for (slot, module) in entries.iter_mut().zip(&snap.modules) {
            let entry = encode_entry(module, &fingerprint);
            assert_eq!(
                decode_entry(&entry, &fingerprint, module.source_hash).as_ref(),
                Ok(module)
            );
            *slot = digest(&entry);
        }
        got.push((digest(&image), entries));
    }
    assert_eq!(got, want, "golden multi/ images");
}
