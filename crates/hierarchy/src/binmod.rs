//! Compact binary codec for [`TuModule`]s, and the sealed envelope of
//! the cache file (`analysis.snap`).
//!
//! This is the only serialization of a module. Fields are
//! length-prefixed, integers little-endian and fixed-width, and each
//! enum variant is one tag byte.
//!
//! [`seal`] frames a payload as magic, format version and a word-wise
//! FNV-1a checksum; [`open`] checks all three and names what failed as
//! a [`Reject`]. A module entry ([`encode_entry`]) seals the
//! configuration fingerprint, the source hash and one module;
//! [`decode_entry`] checks, in turn, the envelope, the fingerprint, the
//! hash, the structure, that no bytes trail and [`TuModule::validate`].
//! Entries serve only [`TuModule::to_json`]/[`TuModule::from_json`],
//! which carry one as hex for the repository benchmark's traced
//! replica, and tests; no cache file holds them. The module
//! decoders themselves only defend against structural nonsense
//! (truncation, bad tags, non-UTF-8).
//!
//! Encoding is deterministic: a module encodes to the same bytes on
//! every run (all containers are ordered `Vec`s), which is what lets
//! concurrent writers publish byte-identical files.

use crate::module::{
    ClassRecord, EnumRecord, FreeFnRecord, GlobalRecord, MemberRecord, MethodRecord, SymCgStep,
    SymFnSummary, SymFunc, SymLiveStep, SymMember, SymResult, TuModule,
};
use crate::typewalk::{TypeError, TypeErrorKind};
use crate::LookupError;
use ddm_cppfront::ast::{ClassKind, FnType, FunctionKind, Type, TypeKind};
use ddm_cppfront::Span;
use std::fmt;
use std::sync::Arc;

/// Version of the binary module encoding and of the entry layout.
/// Sealed into every entry and part of the snapshot fingerprint:
/// bumping it invalidates every existing snapshot.
pub const BINMOD_FORMAT_VERSION: u32 = 1;

/// The 8-byte magic at the start of every module entry.
const ENTRY_MAGIC: &[u8; 8] = b"DDMTU\0\0\0";

/// Why a sealed cache file was not used. [`fmt::Display`] renders the
/// reason the flight recorder reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Written by another format version (`version_skew`).
    VersionSkew,
    /// Written under another configuration (`config_fingerprint`).
    ConfigFingerprint,
    /// Keyed by another source text (`source_hash`).
    SourceHash,
    /// Torn, truncated, damaged or structurally invalid (`corrupt`).
    Corrupt,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Reject::VersionSkew => "version_skew",
            Reject::ConfigFingerprint => "config_fingerprint",
            Reject::SourceHash => "source_hash",
            Reject::Corrupt => "corrupt",
        })
    }
}

/// Payload checksum: FNV-1a folded over little-endian 8-byte words
/// with the tail zero-padded and the length mixed in last. Detects the
/// same torn or corrupt writes as byte-wise FNV but reads the payload
/// a word at a time. Part of every sealed format: a change here must
/// bump the version of each.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Frames `payload` as a cache file image: `magic`, `version` (`u32`),
/// the payload checksum (`u64`), then the payload. The inverse of
/// [`open`].
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The payload of a file image written by [`seal`].
///
/// # Errors
///
/// [`Reject::Corrupt`] for a short image, another magic or a checksum
/// mismatch; then [`Reject::VersionSkew`] for another version.
pub fn open<'a>(magic: &[u8; 8], version: u32, image: &'a [u8]) -> Result<&'a [u8], Reject> {
    if image.len() < 20 || &image[..8] != magic {
        return Err(Reject::Corrupt);
    }
    let payload = &image[20..];
    if image[12..20] != checksum(payload).to_le_bytes() {
        return Err(Reject::Corrupt);
    }
    if image[8..12] != version.to_le_bytes() {
        return Err(Reject::VersionSkew);
    }
    Ok(payload)
}

/// Seals one module as an entry: the configuration `fingerprint`, the
/// module's source hash, then [`encode_module`]. The inverse of
/// [`decode_entry`].
pub fn encode_entry(m: &TuModule, fingerprint: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(fingerprint);
    w.put_u64(m.source_hash);
    encode_module(m, &mut w);
    seal(ENTRY_MAGIC, BINMOD_FORMAT_VERSION, w.bytes())
}

/// Reads an entry that must have been written under `fingerprint` for
/// a source hashing to `source_hash`.
///
/// # Errors
///
/// The first failing check, in this order: the envelope ([`open`]),
/// the fingerprint, the source hash, then [`Reject::Corrupt`] for a
/// structural failure, trailing bytes or a module that fails
/// [`TuModule::validate`].
pub fn decode_entry(image: &[u8], fingerprint: &str, source_hash: u64) -> Result<TuModule, Reject> {
    let mut r = ByteReader::new(open(ENTRY_MAGIC, BINMOD_FORMAT_VERSION, image)?);
    if r.get_blob().map_err(|_| Reject::Corrupt)? != fingerprint.as_bytes() {
        return Err(Reject::ConfigFingerprint);
    }
    if r.get_u64().map_err(|_| Reject::Corrupt)? != source_hash {
        return Err(Reject::SourceHash);
    }
    match decode_module(&mut r) {
        Ok(m) if r.is_at_end() && m.source_hash == source_hash && m.validate().is_ok() => Ok(m),
        _ => Err(Reject::Corrupt),
    }
}

// ---------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------

/// Append-only little-endian byte writer (snapshot serialization).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 / 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length (`u32`-prefixed; lengths above
    /// `u32::MAX` cannot occur in practice and would be a bug).
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("collection length fits in u32"));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a raw, length-prefixed byte blob.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked reader over a serialized buffer. Every accessor
/// returns `Err` instead of panicking, so a truncated or corrupt
/// snapshot degrades to "invalidate and recompute".
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {} (wanted {n} more)", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting anything but 0 / 1.
    pub fn get_bool(&mut self) -> Result<bool, String> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool byte {other}")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, String> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a collection length, bounding it by the bytes remaining so
    /// a corrupt length cannot trigger a huge pre-allocation.
    pub fn get_len(&mut self) -> Result<usize, String> {
        let n = self.get_u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(format!("length {n} exceeds remaining payload"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, String> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    /// Reads a raw, length-prefixed byte blob.
    pub fn get_blob(&mut self) -> Result<&'a [u8], String> {
        let n = self.get_len()?;
        self.take(n)
    }
}

// ---------------------------------------------------------------------
// Module encoding
// ---------------------------------------------------------------------

/// Serializes one module into `w`. The inverse of [`decode_module`].
pub fn encode_module(m: &TuModule, w: &mut ByteWriter) {
    w.put_str(&m.file);
    w.put_u64(m.source_hash);
    w.put_len(m.classes.len());
    for c in &m.classes {
        encode_class(c, w);
    }
    encode_module_tail(m, w);
}

/// Serializes a whole module list with cross-TU class-record
/// deduplication: each distinct class record (by encoded bytes) is
/// stored once in a table, and modules reference it by index. Class
/// records come from shared headers, so in a real project almost every
/// TU repeats the same ones — the table typically shrinks the encoding
/// severalfold, which is what makes the analysis snapshot cheap to
/// read and rewrite on every incremental run. The inverse of
/// [`decode_modules`]. Deterministic: the table is in first-appearance
/// order.
pub fn encode_modules(modules: &[TuModule], w: &mut ByteWriter) {
    let mut index: std::collections::HashMap<Vec<u8>, u32> = std::collections::HashMap::new();
    // Records decoded from a snapshot share one `Arc` per distinct
    // class, so a pointer hit skips re-encoding the record just to
    // discover bytes the table already holds. Distinct allocations
    // with equal bytes still merge through `index`.
    let mut by_ptr: std::collections::HashMap<*const ClassRecord, u32> =
        std::collections::HashMap::new();
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    let mut refs: Vec<Vec<u32>> = Vec::with_capacity(modules.len());
    for m in modules {
        let mut ids = Vec::with_capacity(m.classes.len());
        for c in &m.classes {
            if let Some(&id) = by_ptr.get(&Arc::as_ptr(c)) {
                ids.push(id);
                continue;
            }
            let mut cw = ByteWriter::new();
            encode_class(c, &mut cw);
            let blob = cw.into_bytes();
            let next = blobs.len() as u32;
            let id = match index.entry(blob) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    blobs.push(e.key().clone());
                    e.insert(next);
                    next
                }
            };
            by_ptr.insert(Arc::as_ptr(c), id);
            ids.push(id);
        }
        refs.push(ids);
    }
    w.put_len(blobs.len());
    for b in &blobs {
        w.put_blob(b);
    }
    w.put_len(modules.len());
    for (m, ids) in modules.iter().zip(&refs) {
        w.put_str(&m.file);
        w.put_u64(m.source_hash);
        w.put_len(ids.len());
        for &id in ids {
            w.put_u32(id);
        }
        encode_module_tail(m, w);
    }
}

/// Deserializes a module list written by [`encode_modules`].
///
/// # Errors
///
/// Any structural failure, including a class-table index out of range
/// or a table entry with trailing bytes.
pub fn decode_modules(r: &mut ByteReader<'_>) -> Result<Vec<TuModule>, String> {
    let table: Vec<Arc<ClassRecord>> = (0..r.get_len()?)
        .map(|_| {
            let blob = r.get_blob()?;
            let mut cr = ByteReader::new(blob);
            let class = decode_class(&mut cr)?;
            if !cr.is_at_end() {
                return Err("trailing bytes in class-table entry".to_string());
            }
            Ok(Arc::new(class))
        })
        .collect::<Result<_, _>>()?;
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let file = r.get_str()?;
        let source_hash = r.get_u64()?;
        let classes = (0..r.get_len()?)
            .map(|_| {
                let id = r.get_u32()? as usize;
                table
                    .get(id)
                    .cloned()
                    .ok_or_else(|| format!("class-table index {id} out of range"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (enums, globals, free_fns, globals_summary) = decode_module_tail(r)?;
        out.push(TuModule {
            file,
            source_hash,
            classes,
            enums,
            globals,
            free_fns,
            globals_summary,
        });
    }
    Ok(out)
}

/// Everything in a module after the class records.
fn encode_module_tail(m: &TuModule, w: &mut ByteWriter) {
    w.put_len(m.enums.len());
    for e in &m.enums {
        w.put_str(&e.name);
        w.put_len(e.variants.len());
        for (name, value) in &e.variants {
            w.put_str(name);
            w.put_i64(*value);
        }
        w.put_u32(e.line);
        w.put_u32(e.col);
    }
    w.put_len(m.globals.len());
    for g in &m.globals {
        w.put_str(&g.name);
        encode_type(&g.ty, w);
        w.put_u32(g.line);
        w.put_u32(g.col);
    }
    w.put_len(m.free_fns.len());
    for f in &m.free_fns {
        w.put_str(&f.name);
        w.put_u32(f.arity);
        w.put_bool(f.has_body);
        w.put_u64(f.body_fp);
        w.put_u32(f.line);
        w.put_u32(f.col);
        encode_sym_result(&f.summary, w);
    }
    encode_sym_result(&m.globals_summary, w);
}

/// Deserializes one module from `r`.
///
/// # Errors
///
/// Any structural failure (truncation, bad tag, non-UTF-8). Envelope
/// and integrity checks are the container's: [`decode_entry`] or the
/// snapshot.
pub fn decode_module(r: &mut ByteReader<'_>) -> Result<TuModule, String> {
    let file = r.get_str()?;
    let source_hash = r.get_u64()?;
    let classes = (0..r.get_len()?)
        .map(|_| decode_class(r).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let (enums, globals, free_fns, globals_summary) = decode_module_tail(r)?;
    Ok(TuModule {
        file,
        source_hash,
        classes,
        enums,
        globals,
        free_fns,
        globals_summary,
    })
}

type ModuleTail = (
    Vec<EnumRecord>,
    Vec<GlobalRecord>,
    Vec<FreeFnRecord>,
    SymResult,
);

fn decode_module_tail(r: &mut ByteReader<'_>) -> Result<ModuleTail, String> {
    let enums = (0..r.get_len()?)
        .map(|_| {
            let name = r.get_str()?;
            let variants = (0..r.get_len()?)
                .map(|_| Ok::<_, String>((r.get_str()?, r.get_i64()?)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>(EnumRecord {
                name,
                variants,
                line: r.get_u32()?,
                col: r.get_u32()?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let globals = (0..r.get_len()?)
        .map(|_| {
            Ok::<_, String>(GlobalRecord {
                name: r.get_str()?,
                ty: decode_type(r)?,
                line: r.get_u32()?,
                col: r.get_u32()?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let free_fns = (0..r.get_len()?)
        .map(|_| {
            Ok::<_, String>(FreeFnRecord {
                name: r.get_str()?,
                arity: r.get_u32()?,
                has_body: r.get_bool()?,
                body_fp: r.get_u64()?,
                line: r.get_u32()?,
                col: r.get_u32()?,
                summary: decode_sym_result(r)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let globals_summary = decode_sym_result(r)?;
    Ok((enums, globals, free_fns, globals_summary))
}

fn encode_class(c: &ClassRecord, w: &mut ByteWriter) {
    w.put_str(&c.name);
    w.put_u8(match c.kind {
        ClassKind::Class => 0,
        ClassKind::Struct => 1,
        ClassKind::Union => 2,
    });
    w.put_len(c.bases.len());
    for (name, is_virtual) in &c.bases {
        w.put_str(name);
        w.put_bool(*is_virtual);
    }
    w.put_len(c.members.len());
    for m in &c.members {
        w.put_str(&m.name);
        encode_type(&m.ty, w);
        w.put_bool(m.is_volatile);
    }
    w.put_len(c.methods.len());
    for m in &c.methods {
        w.put_str(&m.name);
        w.put_u8(fn_kind_tag(m.kind));
        w.put_bool(m.is_virtual);
        w.put_u32(m.arity);
        w.put_bool(m.has_body);
        w.put_u64(m.body_fp);
        w.put_bool(m.has_inits);
        w.put_u32(m.line);
        w.put_u32(m.col);
        encode_sym_result(&m.summary, w);
    }
    w.put_u32(c.line);
    w.put_u32(c.col);
}

fn decode_class(r: &mut ByteReader<'_>) -> Result<ClassRecord, String> {
    let name = r.get_str()?;
    let kind = match r.get_u8()? {
        0 => ClassKind::Class,
        1 => ClassKind::Struct,
        2 => ClassKind::Union,
        other => return Err(format!("bad class kind tag {other}")),
    };
    let bases = (0..r.get_len()?)
        .map(|_| Ok::<_, String>((r.get_str()?, r.get_bool()?)))
        .collect::<Result<Vec<_>, _>>()?;
    let members = (0..r.get_len()?)
        .map(|_| {
            Ok::<_, String>(MemberRecord {
                name: r.get_str()?,
                ty: decode_type(r)?,
                is_volatile: r.get_bool()?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let methods = (0..r.get_len()?)
        .map(|_| {
            Ok::<_, String>(MethodRecord {
                name: r.get_str()?,
                kind: fn_kind_from_tag(r.get_u8()?)?,
                is_virtual: r.get_bool()?,
                arity: r.get_u32()?,
                has_body: r.get_bool()?,
                body_fp: r.get_u64()?,
                has_inits: r.get_bool()?,
                line: r.get_u32()?,
                col: r.get_u32()?,
                summary: decode_sym_result(r)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ClassRecord {
        name,
        kind,
        bases,
        members,
        methods,
        line: r.get_u32()?,
        col: r.get_u32()?,
    })
}

fn fn_kind_tag(kind: FunctionKind) -> u8 {
    match kind {
        FunctionKind::Free => 0,
        FunctionKind::Method => 1,
        FunctionKind::Constructor => 2,
        FunctionKind::Destructor => 3,
    }
}

fn fn_kind_from_tag(tag: u8) -> Result<FunctionKind, String> {
    match tag {
        0 => Ok(FunctionKind::Free),
        1 => Ok(FunctionKind::Method),
        2 => Ok(FunctionKind::Constructor),
        3 => Ok(FunctionKind::Destructor),
        other => Err(format!("bad function kind tag {other}")),
    }
}

fn encode_type(ty: &Type, w: &mut ByteWriter) {
    let flags = u8::from(ty.is_const) | (u8::from(ty.is_volatile) << 1);
    match &ty.kind {
        TypeKind::Void => w.put_u8(0),
        TypeKind::Bool => w.put_u8(1),
        TypeKind::Char => w.put_u8(2),
        TypeKind::Short => w.put_u8(3),
        TypeKind::Int => w.put_u8(4),
        TypeKind::Long => w.put_u8(5),
        TypeKind::Float => w.put_u8(6),
        TypeKind::Double => w.put_u8(7),
        TypeKind::Named(_) => w.put_u8(8),
        TypeKind::Pointer(_) => w.put_u8(9),
        TypeKind::Reference(_) => w.put_u8(10),
        TypeKind::Array(..) => w.put_u8(11),
        TypeKind::Function(_) => w.put_u8(12),
        TypeKind::MemberPointer { .. } => w.put_u8(13),
    }
    w.put_u8(flags);
    match &ty.kind {
        TypeKind::Named(n) => w.put_str(n),
        TypeKind::Pointer(inner) | TypeKind::Reference(inner) => encode_type(inner, w),
        TypeKind::Array(inner, n) => {
            encode_type(inner, w);
            w.put_u64(*n as u64);
        }
        TypeKind::Function(ft) => {
            encode_type(&ft.ret, w);
            w.put_len(ft.params.len());
            for p in &ft.params {
                encode_type(p, w);
            }
        }
        TypeKind::MemberPointer { class, pointee } => {
            w.put_str(class);
            encode_type(pointee, w);
        }
        _ => {}
    }
}

fn decode_type(r: &mut ByteReader<'_>) -> Result<Type, String> {
    let tag = r.get_u8()?;
    let flags = r.get_u8()?;
    if flags > 3 {
        return Err(format!("bad type qualifier flags {flags}"));
    }
    let kind = match tag {
        0 => TypeKind::Void,
        1 => TypeKind::Bool,
        2 => TypeKind::Char,
        3 => TypeKind::Short,
        4 => TypeKind::Int,
        5 => TypeKind::Long,
        6 => TypeKind::Float,
        7 => TypeKind::Double,
        8 => TypeKind::Named(r.get_str()?),
        9 => TypeKind::Pointer(Box::new(decode_type(r)?)),
        10 => TypeKind::Reference(Box::new(decode_type(r)?)),
        11 => {
            let inner = decode_type(r)?;
            let n = usize::try_from(r.get_u64()?)
                .map_err(|_| "array length out of range".to_string())?;
            TypeKind::Array(Box::new(inner), n)
        }
        12 => {
            let ret = decode_type(r)?;
            let params = (0..r.get_len()?)
                .map(|_| decode_type(r))
                .collect::<Result<Vec<_>, _>>()?;
            TypeKind::Function(Box::new(FnType { ret, params }))
        }
        13 => TypeKind::MemberPointer {
            class: r.get_str()?,
            pointee: Box::new(decode_type(r)?),
        },
        other => return Err(format!("bad type tag {other}")),
    };
    Ok(Type {
        kind,
        is_const: flags & 1 != 0,
        is_volatile: flags & 2 != 0,
    })
}

fn encode_sym_func(f: &SymFunc, w: &mut ByteWriter) {
    match f {
        SymFunc::Free(name) => {
            w.put_u8(0);
            w.put_str(name);
        }
        SymFunc::Method { class, index } => {
            w.put_u8(1);
            w.put_str(class);
            w.put_u32(*index);
        }
    }
}

fn decode_sym_func(r: &mut ByteReader<'_>) -> Result<SymFunc, String> {
    match r.get_u8()? {
        0 => Ok(SymFunc::Free(r.get_str()?)),
        1 => Ok(SymFunc::Method {
            class: r.get_str()?,
            index: r.get_u32()?,
        }),
        other => Err(format!("bad function-ref tag {other}")),
    }
}

fn encode_sym_result(res: &SymResult, w: &mut ByteWriter) {
    match res {
        Ok(summary) => {
            w.put_u8(0);
            w.put_len(summary.live_steps.len());
            for step in &summary.live_steps {
                match step {
                    SymLiveStep::Access { member, kind } => {
                        w.put_u8(0);
                        w.put_str(&member.class);
                        w.put_u32(member.index);
                        w.put_u8(match kind {
                            crate::summary::MemberAccessKind::Read => 0,
                            crate::summary::MemberAccessKind::AddressTaken => 1,
                            crate::summary::MemberAccessKind::PointerToMember => 2,
                            crate::summary::MemberAccessKind::VolatileWrite => 3,
                        });
                    }
                    SymLiveStep::MarkAll { class, cause } => {
                        w.put_u8(1);
                        w.put_str(class);
                        w.put_u8(match cause {
                            crate::summary::MarkAllCause::UnsafeCast => 0,
                            crate::summary::MarkAllCause::UnsafeDowncast => 1,
                            crate::summary::MarkAllCause::Sizeof => 2,
                        });
                    }
                }
            }
            w.put_len(summary.cg_steps.len());
            for step in &summary.cg_steps {
                match step {
                    SymCgStep::Call(f) => {
                        w.put_u8(0);
                        encode_sym_func(f, w);
                    }
                    SymCgStep::VirtualCall {
                        decl,
                        receiver,
                        refined,
                    } => {
                        w.put_u8(1);
                        encode_sym_func(decl, w);
                        w.put_str(receiver);
                        match refined {
                            None => w.put_u8(0),
                            Some(fs) => {
                                w.put_u8(1);
                                w.put_len(fs.len());
                                for f in fs {
                                    encode_sym_func(f, w);
                                }
                            }
                        }
                    }
                    SymCgStep::FnPointerCall => w.put_u8(2),
                    SymCgStep::TakeAddress(f) => {
                        w.put_u8(3);
                        encode_sym_func(f, w);
                    }
                    SymCgStep::Instantiate { class, ctor } => {
                        w.put_u8(4);
                        w.put_str(class);
                        match ctor {
                            None => w.put_u8(0),
                            Some(c) => {
                                w.put_u8(1);
                                encode_sym_func(c, w);
                            }
                        }
                    }
                    SymCgStep::Delete { class } => {
                        w.put_u8(5);
                        w.put_str(class);
                    }
                }
            }
        }
        Err(e) => {
            w.put_u8(1);
            encode_type_error(e, w);
        }
    }
}

fn decode_sym_result(r: &mut ByteReader<'_>) -> Result<SymResult, String> {
    match r.get_u8()? {
        0 => {
            let live_steps = (0..r.get_len()?)
                .map(|_| match r.get_u8()? {
                    0 => {
                        let member = SymMember {
                            class: r.get_str()?,
                            index: r.get_u32()?,
                        };
                        let kind = match r.get_u8()? {
                            0 => crate::summary::MemberAccessKind::Read,
                            1 => crate::summary::MemberAccessKind::AddressTaken,
                            2 => crate::summary::MemberAccessKind::PointerToMember,
                            3 => crate::summary::MemberAccessKind::VolatileWrite,
                            other => return Err(format!("bad access kind tag {other}")),
                        };
                        Ok(SymLiveStep::Access { member, kind })
                    }
                    1 => {
                        let class = r.get_str()?;
                        let cause = match r.get_u8()? {
                            0 => crate::summary::MarkAllCause::UnsafeCast,
                            1 => crate::summary::MarkAllCause::UnsafeDowncast,
                            2 => crate::summary::MarkAllCause::Sizeof,
                            other => return Err(format!("bad mark-all cause tag {other}")),
                        };
                        Ok(SymLiveStep::MarkAll { class, cause })
                    }
                    other => Err(format!("bad live-step tag {other}")),
                })
                .collect::<Result<Vec<_>, String>>()?;
            let cg_steps = (0..r.get_len()?)
                .map(|_| match r.get_u8()? {
                    0 => Ok(SymCgStep::Call(decode_sym_func(r)?)),
                    1 => {
                        let decl = decode_sym_func(r)?;
                        let receiver = r.get_str()?;
                        let refined = match r.get_u8()? {
                            0 => None,
                            1 => Some(
                                (0..r.get_len()?)
                                    .map(|_| decode_sym_func(r))
                                    .collect::<Result<Vec<_>, _>>()?,
                            ),
                            other => return Err(format!("bad refined tag {other}")),
                        };
                        Ok(SymCgStep::VirtualCall {
                            decl,
                            receiver,
                            refined,
                        })
                    }
                    2 => Ok(SymCgStep::FnPointerCall),
                    3 => Ok(SymCgStep::TakeAddress(decode_sym_func(r)?)),
                    4 => {
                        let class = r.get_str()?;
                        let ctor = match r.get_u8()? {
                            0 => None,
                            1 => Some(decode_sym_func(r)?),
                            other => return Err(format!("bad ctor tag {other}")),
                        };
                        Ok(SymCgStep::Instantiate { class, ctor })
                    }
                    5 => Ok(SymCgStep::Delete {
                        class: r.get_str()?,
                    }),
                    other => Err(format!("bad cg-step tag {other}")),
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Ok(SymFnSummary {
                live_steps,
                cg_steps,
            }))
        }
        1 => Ok(Err(decode_type_error(r)?)),
        other => Err(format!("bad summary-result tag {other}")),
    }
}

fn encode_type_error(e: &TypeError, w: &mut ByteWriter) {
    match e.kind() {
        TypeErrorKind::UnknownIdent(n) => {
            w.put_u8(0);
            w.put_str(n);
        }
        TypeErrorKind::NotAClass(t) => {
            w.put_u8(1);
            w.put_str(t);
        }
        TypeErrorKind::NotAPointer(t) => {
            w.put_u8(2);
            w.put_str(t);
        }
        TypeErrorKind::NotCallable(t) => {
            w.put_u8(3);
            w.put_str(t);
        }
        TypeErrorKind::Lookup(LookupError::NotFound { class, name }) => {
            w.put_u8(4);
            w.put_str(class);
            w.put_str(name);
        }
        TypeErrorKind::Lookup(LookupError::Ambiguous { class, name }) => {
            w.put_u8(5);
            w.put_str(class);
            w.put_str(name);
        }
        TypeErrorKind::ThisOutsideMethod => w.put_u8(6),
        TypeErrorKind::UnknownQualifier(q) => {
            w.put_u8(7);
            w.put_str(q);
        }
    }
    let span = e.span();
    w.put_u32(span.lo);
    w.put_u32(span.hi);
}

fn decode_type_error(r: &mut ByteReader<'_>) -> Result<TypeError, String> {
    let kind = match r.get_u8()? {
        0 => TypeErrorKind::UnknownIdent(r.get_str()?),
        1 => TypeErrorKind::NotAClass(r.get_str()?),
        2 => TypeErrorKind::NotAPointer(r.get_str()?),
        3 => TypeErrorKind::NotCallable(r.get_str()?),
        4 => TypeErrorKind::Lookup(LookupError::NotFound {
            class: r.get_str()?,
            name: r.get_str()?,
        }),
        5 => TypeErrorKind::Lookup(LookupError::Ambiguous {
            class: r.get_str()?,
            name: r.get_str()?,
        }),
        6 => TypeErrorKind::ThisOutsideMethod,
        7 => TypeErrorKind::UnknownQualifier(r.get_str()?),
        other => return Err(format!("bad type-error tag {other}")),
    };
    let lo = r.get_u32()?;
    let hi = r.get_u32()?;
    Ok(TypeError::from_parts(kind, Span::new(lo, hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Program;
    use crate::summary::ProgramSummary;
    use ddm_cppfront::{parse, SourceMap};

    const SRC: &str = "\
enum Mode { Off, On };
class Base { public: virtual int get() { return tag; } virtual ~Base() { } int tag; };
class Derived : public Base {
public:
    Derived(int s) : seed(s) { }
    virtual int get() { return seed; }
    int seed;
    volatile int flag;
    Mode mode;
};
int helper();
int spin(Base* b) { return b->get(); }
int main() {
    Derived d(3);
    Base* b = &d;
    int r = spin(b) + helper();
    delete b;
    return r;
}
int helper() { int (*fp)() = helper; return sizeof(Derived) + fp(); }
int fleet = helper();
";

    fn extract(src: &str, refine: bool) -> TuModule {
        let tu = parse(src).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let summary = ProgramSummary::build(&program, refine, 1);
        let map = SourceMap::new("t.cpp", src);
        TuModule::extract(&tu, &program, &summary, &map)
    }

    #[test]
    fn binary_roundtrip_is_identity() {
        for refine in [false, true] {
            let m = extract(SRC, refine);
            let mut w = ByteWriter::new();
            encode_module(&m, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = decode_module(&mut r).expect("decode");
            assert!(r.is_at_end(), "trailing bytes after module");
            assert_eq!(back, m, "refine={refine}");
        }
    }

    #[test]
    fn module_list_roundtrip_dedups_shared_classes() {
        // Three TUs sharing the same header classes, differing only in
        // their free functions — the shape of every real project.
        let header = "class Base {\npublic:\n    Base(int s) : seed(s), pad(0) { }\n    \
                      virtual ~Base() { }\n    virtual int spin() { return seed; }\n    \
                      int seed;\n    int pad;\n};\n";
        let mods: Vec<TuModule> = (0..3)
            .map(|i| {
                let src = format!("{header}int f{i}(Base* b) {{ return b->spin() + {i}; }}");
                let tu = parse(&src).expect("parse");
                let program = Program::build(&tu).expect("sema");
                let summary = ProgramSummary::build(&program, false, 1);
                let map = SourceMap::new(format!("t{i}.cpp"), src);
                TuModule::extract(&tu, &program, &summary, &map)
            })
            .collect();

        let mut w = ByteWriter::new();
        encode_modules(&mods, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_modules(&mut r).expect("decode");
        assert!(r.is_at_end(), "trailing bytes after module list");
        assert_eq!(back, mods);

        // The shared class is stored once, so the list encodes in far
        // less than the sum of its standalone modules.
        let standalone: usize = mods
            .iter()
            .map(|m| {
                let mut w = ByteWriter::new();
                encode_module(m, &mut w);
                w.into_bytes().len()
            })
            .sum();
        assert!(
            bytes.len() < standalone - standalone / 3,
            "dedup saved too little: list {} vs standalone sum {standalone}",
            bytes.len()
        );

        // Deterministic, like the single-module codec.
        let mut w2 = ByteWriter::new();
        encode_modules(&mods, &mut w2);
        assert_eq!(w2.into_bytes(), bytes);

        // A class-table index out of range is a decode error, not a
        // panic (second line of defense behind the envelope checksum).
        let mut broken = bytes.clone();
        let pos = bytes.len() - 1;
        broken[pos] ^= 0x10;
        let _ = decode_modules(&mut ByteReader::new(&broken));
    }

    #[test]
    fn type_errors_roundtrip() {
        let m = extract(
            "class A { public: int x; };\nint main() { A a; return a.ghost; }",
            false,
        );
        assert!(m.free_fns[0].summary.is_err(), "fixture must carry an error");
        let mut w = ByteWriter::new();
        encode_module(&m, &mut w);
        let bytes = w.into_bytes();
        let back = decode_module(&mut ByteReader::new(&bytes)).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = extract(SRC, false);
        let encode = |m: &TuModule| {
            let mut w = ByteWriter::new();
            encode_module(m, &mut w);
            w.into_bytes()
        };
        assert_eq!(encode(&m), encode(&m.clone()));
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let m = extract(SRC, false);
        let mut w = ByteWriter::new();
        encode_module(&m, &mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_module(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        // A single out-of-range enum tag anywhere in the stream fails
        // decoding (the checksum normally catches this first; the codec
        // is the second line of defense).
        let m = extract(SRC, false);
        let mut w = ByteWriter::new();
        encode_module(&m, &mut w);
        let mut bytes = w.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 0xEE;
        assert!(decode_module(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn entries_roundtrip_and_name_each_reject() {
        let m = extract(SRC, false);
        let image = encode_entry(&m, "fp");
        assert_eq!(decode_entry(&image, "fp", m.source_hash), Ok(m.clone()));
        let reject = |image: &[u8], fp: &str, hash: u64| {
            decode_entry(image, fp, hash).unwrap_err().to_string()
        };
        assert_eq!(reject(&image, "other", m.source_hash), "config_fingerprint");
        assert_eq!(reject(&image, "fp", m.source_hash ^ 1), "source_hash");
        assert_eq!(
            reject(&image[..image.len() - 1], "fp", m.source_hash),
            "corrupt"
        );
        let mut skewed = image.clone();
        skewed[8..12].copy_from_slice(&(BINMOD_FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(reject(&skewed, "fp", m.source_hash), "version_skew");
        // A valid seal around trailing bytes is still corrupt.
        let payload = open(ENTRY_MAGIC, BINMOD_FORMAT_VERSION, &image).unwrap();
        let padded = seal(
            ENTRY_MAGIC,
            BINMOD_FORMAT_VERSION,
            &[payload, &[0]].concat(),
        );
        assert_eq!(reject(&padded, "fp", m.source_hash), "corrupt");
    }

    #[test]
    fn reader_bounds_are_checked() {
        let mut r = ByteReader::new(&[1, 0]);
        assert!(r.get_u32().is_err());
        let mut r = ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(r.get_len().is_err(), "oversized length must be rejected");
        let mut r = ByteReader::new(&[7]);
        assert!(r.get_bool().is_err());
    }
}
