//! Cache robustness torture: the cache file, `analysis.snap`, must
//! survive crashes mid-write (fault injection via `DDM_CACHE_FAULT`) and
//! two processes sharing one `--cache-dir` — in every case ending with
//! output byte-identical to a cacheless cold run. The atomic
//! temp-then-rename publish protocol guarantees no reader ever sees a
//! torn `analysis.snap`; dangling temps are swept on next open *once
//! they are older than the 60-second age gate* (a younger temp may
//! belong to a live racing writer and must survive), a crash while an
//! edit publishes leaves the previous snapshot to serve the unchanged
//! TUs, and a rejected snapshot (torn, version skew) makes the run
//! recompute every TU. The decoders reject every truncation and bit flip
//! of a real snapshot and of a real module entry, and the structural
//! decoders behind the checksum take any resealed byte mutation, or a
//! type nested past the parser's limit, without panicking.

use dead_data_members::analysis::{
    config_fingerprint, snapshot_fingerprint, AnalysisConfig, AnalysisSnapshot,
};
use dead_data_members::callgraph::Algorithm;
use dead_data_members::cppfront::ast::{Type, TypeKind};
use dead_data_members::hierarchy::binmod::{open, seal};
use dead_data_members::hierarchy::{decode_entry, encode_entry, GlobalRecord, Reject};
use dead_data_members::telemetry::Telemetry;
use std::path::PathBuf;
use std::process::Command;

fn ddm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddm"))
}

/// The committed three-TU fixture project.
fn multi_fixture() -> Vec<PathBuf> {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/benchmarks/programs/multi"
    ));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "expected the multi-TU fixture in {dir:?}");
    files
}

/// Temp cache directory removed on drop, even if the test panics.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ddm-torture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(cache: Option<&PathBuf>, fault: Option<&str>) -> std::process::Output {
    run_files(&multi_fixture(), cache, fault, &[])
}

fn run_files(
    files: &[PathBuf],
    cache: Option<&PathBuf>,
    fault: Option<&str>,
    extra: &[&str],
) -> std::process::Output {
    let mut cmd = ddm();
    cmd.args(files).args(extra);
    if let Some(dir) = cache {
        cmd.arg("--cache-dir").arg(dir);
    }
    match fault {
        Some(f) => cmd.env("DDM_CACHE_FAULT", f),
        None => cmd.env_remove("DDM_CACHE_FAULT"),
    };
    cmd.output().expect("run ddm")
}

/// Rewinds the mtime of every dangling temp in `dir` past the sweeper's
/// 60-second age gate — standing in for a writer that died long ago, so
/// the next open is allowed to sweep what it left behind.
fn age_temps(dir: &PathBuf) {
    let old = std::time::SystemTime::now() - std::time::Duration::from_secs(120);
    for entry in std::fs::read_dir(dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if name.is_some_and(|n| n.contains(".tmp.")) {
            std::fs::File::options()
                .write(true)
                .open(&path)
                .expect("open temp")
                .set_modified(old)
                .expect("age temp");
        }
    }
}

fn cache_files(dir: &PathBuf, pred: impl Fn(&str) -> bool) -> Vec<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| pred(n))
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// Asserts that `fault` aborted a cold run inside the one cache write:
/// no `analysis.snap`, exactly one temp — then that the next run over
/// the same directory, once the temp has aged, sweeps it, recomputes,
/// and prints the cacheless cold report byte for byte.
fn fault_recovers_to_cold(tag: &str, fault: &str) -> Scratch {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new(tag);
    let faulted = run(Some(&scratch.0), Some(fault));
    assert!(!faulted.status.success(), "fault must abort the process");
    assert!(
        cache_files(&scratch.0, |n| n == "analysis.snap").is_empty(),
        "a snapshot was published despite the {fault} fault"
    );
    let temps = cache_files(&scratch.0, |n| n.starts_with("analysis.snap.tmp."));
    assert_eq!(
        temps.len(),
        1,
        "the {fault} fault did not fire inside the write"
    );

    age_temps(&scratch.0);
    let recovered = run(Some(&scratch.0), None);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(
        recovered.stdout, cacheless.stdout,
        "recovery after {fault} must match the cacheless cold report"
    );
    assert_eq!(
        cache_files(&scratch.0, |_| true),
        ["analysis.snap"],
        "the dangling temp was not swept on next open"
    );
    scratch
}

/// Kill-mid-write: the faulted process aborts halfway through writing
/// the snapshot. The half-written bytes must be confined to a temp
/// file — never a published `analysis.snap` — and the next run over the
/// same directory must sweep the temp, recompute, and print the
/// byte-identical report to a cacheless cold run.
#[test]
fn kill_mid_write_leaves_no_torn_entry_and_recovers_to_cold() {
    fault_recovers_to_cold("midwrite", "kill-mid-write");
}

/// Kill-pre-rename: the process aborts after fully writing the temp
/// file but before the atomic rename — nothing may be published, the
/// recovery must be identical to cold, and the republished snapshot
/// must serve a warm run with the same bytes again.
#[test]
fn kill_pre_rename_recovers_byte_identical_to_cold() {
    let scratch = fault_recovers_to_cold("prerename", "kill-pre-rename");
    let cacheless = run(None, None);
    let warm = run(Some(&scratch.0), None);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(warm.stdout, cacheless.stdout);
}

/// Two processes race on one `--cache-dir`: both must succeed with the
/// cacheless report, and the directory must end in a state that serves
/// a warm run with those same bytes.
#[test]
fn concurrent_writers_sharing_one_cache_dir_agree_with_cold() {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new("concurrent");
    for round in 0..3 {
        // Fresh directory each round so both processes genuinely race
        // on cold writes rather than hitting a warm cache.
        let _ = std::fs::remove_dir_all(&scratch.0);
        let spawn = || {
            let mut cmd = ddm();
            for f in multi_fixture() {
                cmd.arg(f);
            }
            cmd.arg("--cache-dir")
                .arg(&scratch.0)
                .env_remove("DDM_CACHE_FAULT")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn ddm")
        };
        let a = spawn();
        let b = spawn();
        let a = a.wait_with_output().expect("wait a");
        let b = b.wait_with_output().expect("wait b");
        assert!(a.status.success(), "round {round} writer A: {a:?}");
        assert!(b.status.success(), "round {round} writer B: {b:?}");
        assert_eq!(a.stdout, cacheless.stdout, "round {round} writer A drifted");
        assert_eq!(b.stdout, cacheless.stdout, "round {round} writer B drifted");
    }

    let warm = run(Some(&scratch.0), None);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(warm.stdout, cacheless.stdout, "warm after race drifted");
}

/// The value of `row` in the `--stats` table a run printed on stderr.
fn stat(out: &std::process::Output, row: &str) -> u64 {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(row)).then(|| words.next()?.parse().ok())?
        })
        .unwrap_or_else(|| panic!("no {row} row in --stats"))
}

/// Kill-mid-write while an edit publishes: the previous snapshot must
/// survive byte for byte, and the recovery run over the edited sources
/// takes the unchanged TUs' modules from it, prints the cacheless
/// report, and publishes the new generation.
#[test]
fn snapshot_kill_mid_write_falls_back_to_summary_cache() {
    let scratch = Scratch::new("snapmid");
    let sources = scratch.0.join("src");
    std::fs::create_dir_all(&sources).expect("mkdir");
    let files: Vec<PathBuf> = multi_fixture()
        .iter()
        .map(|f| {
            let copy = sources.join(f.file_name().expect("file name"));
            std::fs::copy(f, &copy).expect("copy fixture");
            copy
        })
        .collect();
    let cache = scratch.0.join("cache");
    let cold = run_files(&files, Some(&cache), None, &[]);
    assert!(cold.status.success(), "{cold:?}");
    let snap_path = cache.join("analysis.snap");
    let previous = std::fs::read(&snap_path).expect("published snapshot");

    let mut source = std::fs::read_to_string(&files[0]).expect("read TU");
    source.push_str("int torture_pad() { return 7; }\n");
    std::fs::write(&files[0], source).expect("edit TU");
    let cacheless = run_files(&files, None, None, &[]);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let faulted = run_files(&files, Some(&cache), Some("kill-mid-write"), &[]);
    assert!(!faulted.status.success(), "fault must abort the process");
    assert!(
        std::fs::read(&snap_path).expect("previous snapshot") == previous,
        "the faulted write touched the published snapshot"
    );
    assert_eq!(
        cache_files(&cache, |n| n.starts_with("analysis.snap.tmp.")).len(),
        1,
        "the fault did not fire inside the snapshot write"
    );

    age_temps(&cache);
    let recovered = run_files(&files, Some(&cache), None, &["--stats"]);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(
        recovered.stdout, cacheless.stdout,
        "the warm start from the previous snapshot must match the cacheless report"
    );
    assert_eq!(stat(&recovered, "cache/hits"), files.len() as u64 - 1);
    assert_eq!(stat(&recovered, "frontend/tus"), 1);
    assert_eq!(cache_files(&cache, |_| true), ["analysis.snap"]);

    // The recovery run republished a snapshot of the edited sources;
    // prove it is wholly readable and serves the next run.
    let bytes = std::fs::read(&snap_path).expect("republished snapshot");
    assert!(bytes != previous, "the recovery run did not publish");
    AnalysisSnapshot::decode(&bytes).expect("snapshot decodes");
    let warm = run_files(&files, Some(&cache), None, &["--stats"]);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(warm.stdout, cacheless.stdout);
    assert_eq!(stat(&warm, "frontend/tus"), 0);
}

/// Version skew: a snapshot from a different format version is
/// rejected, the run recomputes every TU, prints the byte-identical
/// cacheless report, and republishes a current-version snapshot.
#[test]
fn snapshot_version_skew_recomputes_every_tu() {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new("snapskew");
    let cold = run(Some(&scratch.0), None);
    assert!(cold.status.success(), "{cold:?}");

    let snap_path = scratch.0.join("analysis.snap");
    let mut bytes = std::fs::read(&snap_path).expect("published snapshot");
    // Bump the format version field (bytes 8..12, little-endian) to
    // simulate a snapshot left behind by a newer build.
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    bytes[8..12].copy_from_slice(&(version + 1).to_le_bytes());
    std::fs::write(&snap_path, &bytes).expect("plant skewed snapshot");

    let skewed = run_files(&multi_fixture(), Some(&scratch.0), None, &["--stats"]);
    assert!(skewed.status.success(), "{skewed:?}");
    assert_eq!(
        skewed.stdout, cacheless.stdout,
        "version-skew fallback must match the cacheless report"
    );
    let tus = multi_fixture().len() as u64;
    assert_eq!(stat(&skewed, "cache/invalidations"), tus);
    assert_eq!(stat(&skewed, "frontend/tus"), tus);

    let republished = std::fs::read(&snap_path).expect("republished snapshot");
    AnalysisSnapshot::decode(&republished)
        .expect("skewed snapshot must be replaced by a readable one");
}

/// Two processes race on one `--cache-dir`, both publishing snapshots.
/// Whatever interleaving happens, `analysis.snap` must never be torn:
/// it either decodes cleanly or does not exist, and warm runs agree
/// with the cacheless report.
#[test]
fn concurrent_writers_never_publish_a_torn_snapshot() {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new("snaprace");
    for round in 0..3 {
        let _ = std::fs::remove_dir_all(&scratch.0);
        let spawn = || {
            let mut cmd = ddm();
            for f in multi_fixture() {
                cmd.arg(f);
            }
            cmd.arg("--cache-dir")
                .arg(&scratch.0)
                .env_remove("DDM_CACHE_FAULT")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn ddm")
        };
        let a = spawn().wait_with_output().expect("wait a");
        let b = spawn().wait_with_output().expect("wait b");
        assert!(a.status.success(), "round {round} writer A: {a:?}");
        assert!(b.status.success(), "round {round} writer B: {b:?}");

        let bytes = std::fs::read(scratch.0.join("analysis.snap"))
            .expect("a snapshot must be published after both writers finish");
        AnalysisSnapshot::decode(&bytes)
            .unwrap_or_else(|e| panic!("round {round}: torn snapshot: {e}"));

        let warm = run(Some(&scratch.0), None);
        assert!(warm.status.success(), "{warm:?}");
        assert_eq!(
            warm.stdout, cacheless.stdout,
            "round {round}: warm run after the race drifted"
        );
    }
}

/// A dangling temp file from a dead writer (any PID, any content) is
/// swept the next time the cache is opened — once it is old enough to
/// be past the age gate. Files of the per-TU tier earlier versions
/// wrote are ignored: never read, never deleted.
#[test]
fn stale_temps_from_dead_writers_are_swept_on_open() {
    let scratch = Scratch::new("sweep");
    std::fs::create_dir_all(&scratch.0).expect("mkdir");
    let stale = scratch.0.join("analysis.snap.tmp.99999");
    std::fs::write(&stale, b"DDMSNAP\0half-written").expect("plant stale temp");
    let old_tier = [
        "tu-deadbeefdeadbeef.bin",
        "tu-deadbeefdeadbeef.bin.tmp.99999",
    ];
    for name in old_tier {
        std::fs::write(scratch.0.join(name), b"DDMTU\0\0\0an old entry").expect("plant");
    }
    age_temps(&scratch.0);

    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    assert!(!stale.exists(), "stale temp survived a cache open");
    for name in old_tier {
        assert!(scratch.0.join(name).exists(), "{name} was deleted");
    }
}

/// A *fresh* temp may belong to a racing writer that is still alive and
/// about to rename it into place — a concurrent open must leave it
/// untouched. (Sweeping it used to be a live-process race in long
/// sessions: serve-mode rebuilds probe the cache while one-shot runs
/// publish into the same directory.)
#[test]
fn fresh_temps_from_racing_writers_survive_a_probe() {
    let scratch = Scratch::new("freshtemp");
    std::fs::create_dir_all(&scratch.0).expect("mkdir");
    let fresh = scratch.0.join("analysis.snap.tmp.88888");
    std::fs::write(&fresh, b"DDMSNAP\0mid-write by a live racer").expect("plant fresh temp");

    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    assert!(
        fresh.exists(),
        "a racing writer's fresh temp was swept by the probe"
    );
    // The same temp, once aged past the gate, is swept: the probe above
    // spared it for its age, not for its name.
    age_temps(&scratch.0);
    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    assert!(!fresh.exists(), "an aged temp survived a cache open");
}

/// The decoders, fed truncations and bit flips of a real cache file
/// from the multi-TU fixture, reject each one without panicking: a flip
/// in the version word as version skew, everything else as corrupt (the
/// checksum covers the whole payload). The snapshot gets every
/// truncation and one flip per byte; the module entry sealed from the
/// snapshot's first module (the form `TuModule::to_json` wraps) gets
/// every truncation and every single-bit flip.
#[test]
fn every_truncation_and_bit_flip_of_a_real_entry_is_rejected() {
    let scratch = Scratch::new("mutate");
    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    let snapshot = std::fs::read(scratch.0.join("analysis.snap")).expect("read snapshot");
    let snap = AnalysisSnapshot::decode(&snapshot).expect("the real snapshot decodes");
    let want = |byte: usize| {
        if (8..12).contains(&byte) {
            Reject::VersionSkew
        } else {
            Reject::Corrupt
        }
    };
    for len in 0..snapshot.len() {
        let got = AnalysisSnapshot::decode(&snapshot[..len]).err();
        assert_eq!(
            got.as_deref(),
            Some("corrupt"),
            "snapshot truncated to {len} bytes"
        );
    }
    let mut mutant = snapshot.clone();
    for byte in 0..snapshot.len() {
        let bit = byte % 8;
        mutant[byte] ^= 1 << bit;
        let got = AnalysisSnapshot::decode(&mutant).err();
        let want = want(byte).to_string();
        assert_eq!(
            got.as_deref(),
            Some(want.as_str()),
            "snapshot bit {bit} of byte {byte} flipped"
        );
        mutant[byte] ^= 1 << bit;
    }

    let module = &snap.modules[0];
    let hash = module.source_hash;
    let fingerprint = config_fingerprint(Algorithm::Rta);
    let image = encode_entry(module, &fingerprint);
    assert_eq!(
        decode_entry(&image, &fingerprint, hash).as_ref(),
        Ok(module)
    );
    for len in 0..image.len() {
        let got = decode_entry(&image[..len], &fingerprint, hash).err();
        assert_eq!(got, Some(Reject::Corrupt), "entry truncated to {len} bytes");
    }
    let mut mutant = image.clone();
    for bit in 0..image.len() * 8 {
        mutant[bit / 8] ^= 1 << (bit % 8);
        let got = decode_entry(&mutant, &fingerprint, hash).err();
        assert_eq!(got, Some(want(bit / 8)), "entry bit {bit} flipped");
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
}

/// `image` with its sealed payload replaced by `edit(payload)` and
/// sealed again under the same magic and version, so the checksum
/// passes and the structural decoder sees the edit.
fn reseal(image: &[u8], edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let magic: [u8; 8] = image[..8].try_into().expect("magic");
    let version = u32::from_le_bytes(image[8..12].try_into().expect("version"));
    let payload = open(&magic, version, image).expect("a sealed image");
    seal(&magic, version, &edit(payload))
}

/// Every byte of the real snapshot's payload and of a real module
/// entry's payload, set to two other values and resealed so the
/// checksum passes, reaches the structural decoders: each mutant
/// decodes to a value or to a typed error, and none panics.
#[test]
fn every_resealed_byte_mutation_decodes_or_is_rejected_without_panicking() {
    let scratch = Scratch::new("reseal-mutate");
    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    let snapshot = std::fs::read(scratch.0.join("analysis.snap")).expect("read snapshot");
    let snap = AnalysisSnapshot::decode(&snapshot).expect("the real snapshot decodes");
    let module = &snap.modules[0];
    let fingerprint = config_fingerprint(Algorithm::Rta);
    let entry = encode_entry(module, &fingerprint);
    // The payload follows the 20-byte seal header.
    let mutants = |image: &[u8]| {
        (0..image.len() - 20).flat_map(|byte| [0x01u8, 0xFF].map(|mask| (byte, mask)))
    };
    let mut decoded = 0;
    for (byte, mask) in mutants(&snapshot) {
        let mutant = reseal(&snapshot, |payload| {
            let mut payload = payload.to_vec();
            payload[byte] ^= mask;
            payload
        });
        decoded += usize::from(AnalysisSnapshot::decode(&mutant).is_ok());
    }
    for (byte, mask) in mutants(&entry) {
        let mutant = reseal(&entry, |payload| {
            let mut payload = payload.to_vec();
            payload[byte] ^= mask;
            payload
        });
        let _ = decode_entry(&mutant, &fingerprint, module.source_hash);
    }
    // Some mutants change only a value (a count, a line), not the shape.
    assert!(decoded > 0);
}

/// A resealed payload whose global's type nests a pointer 100,000
/// levels deep, far past anything the parser builds, is `corrupt` to
/// both decoders instead of overflowing their stack, and a run over a
/// cache directory holding it recomputes every TU.
#[test]
fn a_resealed_type_nested_past_the_parser_limit_is_corrupt() {
    const MARKER: &str = "DeepTypeMarker";
    let scratch = Scratch::new("deep-type");
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");
    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    let path = scratch.0.join("analysis.snap");
    let mut snap = AnalysisSnapshot::decode(&std::fs::read(&path).expect("read snapshot"))
        .expect("the real snapshot decodes");
    // A global typed `MARKER`, whose layout (tag 8, no qualifiers, the
    // name) the payload edit replaces by 100,000 pointers to `int`.
    snap.modules[0].globals.push(GlobalRecord {
        name: "deep".to_string(),
        ty: Type::plain(TypeKind::Named(MARKER.to_string())),
        line: 1,
        col: 1,
    });
    let deepen = |payload: &[u8]| {
        let len = (MARKER.len() as u32).to_le_bytes();
        let marker = [&[8u8, 0][..], &len, MARKER.as_bytes()].concat();
        let at = payload
            .windows(marker.len())
            .position(|w| w == marker)
            .expect("the marker type in the payload");
        let mut deep = payload[..at].to_vec();
        deep.extend([9u8, 0].repeat(100_000));
        deep.extend([4u8, 0]);
        deep.extend(&payload[at + marker.len()..]);
        deep
    };

    let image = reseal(&snap.encode(), deepen);
    assert_eq!(AnalysisSnapshot::decode(&image).unwrap_err(), "corrupt");
    std::fs::write(&path, &image).expect("write the deep snapshot");
    let key = snapshot_fingerprint(&AnalysisConfig::default(), Algorithm::Rta);
    assert_eq!(
        AnalysisSnapshot::load(&scratch.0, &key, &Telemetry::disabled()).unwrap_err(),
        "corrupt"
    );
    let recovered = run_files(&multi_fixture(), Some(&scratch.0), None, &["--stats"]);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(recovered.stdout, cacheless.stdout);
    assert_eq!(stat(&recovered, "cache/invalidations"), 3);
    assert_eq!(stat(&recovered, "frontend/tus"), 3);

    let module = &snap.modules[0];
    let fingerprint = config_fingerprint(Algorithm::Rta);
    let entry = reseal(&encode_entry(module, &fingerprint), deepen);
    assert_eq!(
        decode_entry(&entry, &fingerprint, module.source_hash),
        Err(Reject::Corrupt)
    );
}
