//! Cache robustness torture: the persistent TU-summary cache and the
//! analysis snapshot must survive crashes mid-write (fault injection
//! via `DDM_CACHE_FAULT`) and two processes sharing one `--cache-dir`
//! — in every case ending with output byte-identical to a cacheless
//! cold run. The atomic temp-then-rename publish protocol guarantees
//! no reader ever sees a torn `tu-<hash>.bin` or `analysis.snap`;
//! dangling temps are swept on next open *once they are older than the
//! 60-second age gate* (a younger temp may belong to a live racing
//! writer and must survive), and a rejected snapshot (torn, version
//! skew) degrades to a warm start from the per-TU entries alone. The
//! entry decoder itself rejects every truncation and bit flip of a real
//! entry.

use dead_data_members::analysis::config_fingerprint;
use dead_data_members::callgraph::Algorithm;
use dead_data_members::hierarchy::{decode_entry, Reject};
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
    let mut cmd = ddm();
    for f in multi_fixture() {
        cmd.arg(f);
    }
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

/// Kill-mid-write: the faulted process aborts halfway through writing
/// its first cache entry. The half-written bytes must be confined to a
/// temp file — never a published `tu-<hash>.bin` — and the next run
/// over the same directory must sweep the temp, recompute, and print
/// the byte-identical report to a cacheless cold run.
#[test]
fn kill_mid_write_leaves_no_torn_entry_and_recovers_to_cold() {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new("midwrite");
    let faulted = run(Some(&scratch.0), Some("kill-mid-write"));
    assert!(!faulted.status.success(), "fault must abort the process");

    let published = cache_files(&scratch.0, |n| n.starts_with("tu-") && n.ends_with(".bin"));
    assert!(
        published.is_empty(),
        "a torn entry was published: {published:?}"
    );
    let temps = cache_files(&scratch.0, |n| {
        n.starts_with("tu-") && n.contains(".bin.tmp.")
    });
    assert_eq!(
        temps.len(),
        1,
        "the fault did not fire inside one entry write"
    );

    age_temps(&scratch.0);
    let recovered = run(Some(&scratch.0), None);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(
        recovered.stdout, cacheless.stdout,
        "recovery after kill-mid-write must match the cacheless cold report"
    );
    assert!(
        cache_files(&scratch.0, |n| n.contains(".bin.tmp.")).is_empty(),
        "dangling temp files were not swept on next open"
    );
}

/// Kill-pre-rename: the process aborts after fully writing the temp
/// file but before the atomic rename — the published-entry set must be
/// empty, and recovery identical to cold.
#[test]
fn kill_pre_rename_recovers_byte_identical_to_cold() {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new("prerename");
    let faulted = run(Some(&scratch.0), Some("kill-pre-rename"));
    assert!(!faulted.status.success(), "fault must abort the process");
    assert!(
        cache_files(&scratch.0, |n| n.starts_with("tu-") && n.ends_with(".bin")).is_empty(),
        "an entry was published despite aborting before rename"
    );
    let temps = cache_files(&scratch.0, |n| {
        n.starts_with("tu-") && n.contains(".bin.tmp.")
    });
    assert_eq!(
        temps.len(),
        1,
        "the fault did not fire between one entry's write and its rename"
    );

    age_temps(&scratch.0);
    let recovered = run(Some(&scratch.0), None);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(recovered.stdout, cacheless.stdout);
    assert!(
        cache_files(&scratch.0, |n| n.contains(".bin.tmp.")).is_empty(),
        "dangling temp files were not swept"
    );

    // The swept-and-recomputed cache must now serve a warm run with the
    // same bytes again.
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

/// Snapshot kill-mid-write: the process aborts halfway through writing
/// `analysis.snap.tmp.<pid>`. No snapshot may be published, the
/// summary-cache entries written earlier in the same run stay valid,
/// and the next run warm-starts from them with the byte-identical
/// cacheless report before sweeping the dangling snapshot temp.
#[test]
fn snapshot_kill_mid_write_falls_back_to_summary_cache() {
    let cacheless = run(None, None);
    assert!(cacheless.status.success(), "{cacheless:?}");

    let scratch = Scratch::new("snapmid");
    let faulted = run(Some(&scratch.0), Some("snap-kill-mid-write"));
    assert!(!faulted.status.success(), "fault must abort the process");
    assert!(
        cache_files(&scratch.0, |n| n == "analysis.snap").is_empty(),
        "a torn snapshot was published"
    );
    assert!(
        !cache_files(&scratch.0, |n| n.starts_with("analysis.snap.tmp.")).is_empty(),
        "the fault did not fire inside the snapshot write"
    );
    let summaries = cache_files(&scratch.0, |n| n.starts_with("tu-") && n.ends_with(".bin"));
    assert_eq!(
        summaries.len(),
        multi_fixture().len(),
        "summary entries published before the snapshot must survive"
    );

    age_temps(&scratch.0);
    let recovered = run(Some(&scratch.0), None);
    assert!(recovered.status.success(), "{recovered:?}");
    assert_eq!(
        recovered.stdout, cacheless.stdout,
        "summary-cache-only warm start must match the cacheless report"
    );
    assert!(
        cache_files(&scratch.0, |n| n.contains(".tmp.")).is_empty(),
        "dangling snapshot temp was not swept"
    );

    // The recovery run republished a snapshot; prove it is wholly
    // readable and serves the next run.
    let bytes = std::fs::read(scratch.0.join("analysis.snap")).expect("republished snapshot");
    dead_data_members::analysis::AnalysisSnapshot::decode(&bytes).expect("snapshot decodes");
    let warm = run(Some(&scratch.0), None);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(warm.stdout, cacheless.stdout);
}

/// Version skew: a snapshot from a different format version is
/// rejected, the run falls back to the summary cache alone, prints the
/// byte-identical cacheless report, and republishes a current-version
/// snapshot.
#[test]
fn snapshot_version_skew_falls_back_to_summary_cache() {
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

    let skewed = run(Some(&scratch.0), None);
    assert!(skewed.status.success(), "{skewed:?}");
    assert_eq!(
        skewed.stdout, cacheless.stdout,
        "version-skew fallback must match the cacheless report"
    );

    let republished = std::fs::read(&snap_path).expect("republished snapshot");
    dead_data_members::analysis::AnalysisSnapshot::decode(&republished)
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
        dead_data_members::analysis::AnalysisSnapshot::decode(&bytes)
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
/// be past the age gate.
#[test]
fn stale_temps_from_dead_writers_are_swept_on_open() {
    let scratch = Scratch::new("sweep");
    std::fs::create_dir_all(&scratch.0).expect("mkdir");
    let stale = scratch.0.join("tu-deadbeefdeadbeef.bin.tmp.99999");
    std::fs::write(&stale, b"DDMTU\0\0\0half-written").expect("plant stale temp");
    age_temps(&scratch.0);

    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    assert!(!stale.exists(), "stale temp survived a cache open");
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
    let fresh = scratch.0.join("tu-cafecafecafecafe.bin.tmp.88888");
    std::fs::write(&fresh, b"DDMTU\0\0\0mid-write by a live racer").expect("plant fresh temp");

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

/// The entry decoder, fed every truncation and every single-bit flip of
/// a real `tu-*.bin` from the multi-TU fixture, rejects each one
/// without panicking: a flip in the version word as version skew,
/// everything else as corrupt (the checksum covers the whole payload,
/// fingerprint and source hash included).
#[test]
fn every_truncation_and_bit_flip_of_a_real_entry_is_rejected() {
    let scratch = Scratch::new("mutate");
    let out = run(Some(&scratch.0), None);
    assert!(out.status.success(), "{out:?}");
    let mut entries = cache_files(&scratch.0, |n| n.starts_with("tu-") && n.ends_with(".bin"));
    entries.sort();
    let name = entries.first().expect("a published entry");
    let hash = name
        .strip_prefix("tu-")
        .and_then(|n| n.strip_suffix(".bin"))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .expect("entry names carry the source hash");
    let image = std::fs::read(scratch.0.join(name)).expect("read entry");
    let fingerprint = config_fingerprint(Algorithm::Rta);
    let module = decode_entry(&image, &fingerprint, hash).expect("the real entry decodes");
    assert_eq!(module.source_hash, hash);

    for len in 0..image.len() {
        let got = decode_entry(&image[..len], &fingerprint, hash).err();
        assert_eq!(got, Some(Reject::Corrupt), "truncated to {len} bytes");
    }
    let mut mutant = image.clone();
    for bit in 0..image.len() * 8 {
        mutant[bit / 8] ^= 1 << (bit % 8);
        let want = if (8..12).contains(&(bit / 8)) {
            Reject::VersionSkew
        } else {
            Reject::Corrupt
        };
        let got = decode_entry(&mutant, &fingerprint, hash).err();
        assert_eq!(got, Some(want), "bit {bit} flipped");
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
}
