//! The binary layouts of the cache, and the sealed envelope of the
//! cache file (`analysis.snap`).
//!
//! Every persisted type has one [`Wire`] layout, a field list
//! ([`wire_record!`](crate::wire_record)) or a tag table
//! ([`wire_enum!`](crate::wire_enum)) from which both its encoder and
//! its decoder are generated. `Type`, `TypeError`, `Histogram` and the
//! class table of [`encode_modules`] are not field lists and are
//! written by hand, each commented with why. Decoders defend against
//! structural nonsense (truncation, bad tags, non-UTF-8) and against
//! depth: a [`Type`] deeper than the parser's [`MAX_NESTING_DEPTH`] is
//! `corrupt`, so no cache file can overflow the stack of a later pass.
//!
//! [`seal`] frames a payload as magic, format version and a word-wise
//! FNV-1a checksum; [`open`] checks all three and names what failed as
//! a [`Reject`]. A module entry ([`encode_entry`]) seals the
//! configuration fingerprint, the source hash and one module;
//! [`decode_entry`] checks, in turn, the envelope, the fingerprint, the
//! hash, the structure, that no bytes trail and [`TuModule::validate`].
//! Entries serve only [`TuModule::to_json`]/[`TuModule::from_json`],
//! which carry one as hex for the repository benchmark's traced
//! replica, and tests; no cache file holds them.
//!
//! Encoding is deterministic: a module encodes to the same bytes on
//! every run (all containers are ordered `Vec`s), which is what lets
//! concurrent writers publish byte-identical files.

use crate::module::{
    ClassRecord, EnumRecord, FreeFnRecord, GlobalRecord, MemberRecord, MethodRecord, SymCgStep,
    SymFnSummary, SymFunc, SymLiveStep, SymMember, TuModule,
};
use crate::summary::{MarkAllCause, MemberAccessKind};
use crate::typewalk::{TypeError, TypeErrorKind};
use crate::{ClassId, FuncId, LookupError, MemberRef};
use ddm_cppfront::ast::{ClassKind, FnType, FunctionKind, Type, TypeKind};
use ddm_cppfront::{Span, MAX_NESTING_DEPTH};
use ddm_telemetry::{Counters, Histogram};
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
/// module's source hash, then the module's [`Wire`] layout. The inverse
/// of [`decode_entry`].
pub fn encode_entry(m: &TuModule, fingerprint: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(fingerprint);
    w.put_u64(m.source_hash);
    m.put(&mut w);
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
    match TuModule::get(&mut r) {
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
// Layouts
// ---------------------------------------------------------------------

/// The one layout of a persisted type: how a value is written to a
/// cache file and read back. Integers are little-endian and
/// fixed-width; a `Vec` is its `u32` length, then its elements; an
/// `Option` is a tag byte (0 `None`, 1 `Some`) before the value, a
/// `Result` a tag byte (0 `Ok`, 1 `Err`), a pair its two halves, and an
/// `Arc` its value.
pub trait Wire: Sized {
    /// Appends the value's bytes to `w`.
    fn put(&self, w: &mut ByteWriter);

    /// Reads a value that [`Wire::put`] wrote.
    ///
    /// # Errors
    ///
    /// Any structural failure: truncation, a bad tag, non-UTF-8 text, a
    /// length beyond the remaining bytes.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String>;
}

macro_rules! wire_primitive {
    ($($ty:ty => $put:ident, $get:ident;)*) => {
        $(
            impl Wire for $ty {
                fn put(&self, w: &mut ByteWriter) {
                    w.$put(*self);
                }
                fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
                    r.$get()
                }
            }
        )*
    };
}

wire_primitive! {
    u8 => put_u8, get_u8;
    bool => put_bool, get_bool;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    i64 => put_i64, get_i64;
}

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(format!("bad Option tag {tag}")),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Ok(v) => {
                w.put_u8(0);
                v.put(w);
            }
            Err(e) => {
                w.put_u8(1);
                e.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        match r.get_u8()? {
            0 => Ok(Ok(T::get(r)?)),
            1 => Ok(Err(E::get(r)?)),
            tag => Err(format!("bad Result tag {tag}")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let a = A::get(r)?;
        Ok((a, B::get(r)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, w: &mut ByteWriter) {
        T::put(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        T::get(r).map(Arc::new)
    }
}

/// Declares records' [`Wire`] layouts: each record's fields, in the
/// order they are written. Both directions name every field without
/// `..`, so a field added to the type and not to its layout does not
/// compile.
///
/// `Record { a, b }` lays out a struct with named fields, `Id(raw)` a
/// tuple struct. A field may name its own codec with
/// `field with put_fn, get_fn`, where `put_fn(&field, &mut ByteWriter)`
/// and `get_fn(&mut ByteReader) -> Result<_, String>`.
#[macro_export]
macro_rules! wire_record {
    () => {};
    ($ty:ident { $($field:ident $(with $put:path, $get:path)?),* $(,)? } $($rest:tt)*) => {
        impl $crate::binmod::Wire for $ty {
            fn put(&self, w: &mut $crate::binmod::ByteWriter) {
                let $ty { $($field),* } = self;
                $($crate::wire_field!(put $field, w $(, $put)?);)*
            }
            fn get(r: &mut $crate::binmod::ByteReader<'_>) -> Result<Self, String> {
                $(let $field = $crate::wire_field!(get r $(, $get)?);)*
                Ok($ty { $($field),* })
            }
        }
        $crate::wire_record! { $($rest)* }
    };
    ($ty:ident ( $($field:ident),* ) $($rest:tt)*) => {
        impl $crate::binmod::Wire for $ty {
            fn put(&self, w: &mut $crate::binmod::ByteWriter) {
                let $ty($($field),*) = self;
                $($crate::binmod::Wire::put($field, w);)*
            }
            fn get(r: &mut $crate::binmod::ByteReader<'_>) -> Result<Self, String> {
                $(let $field = $crate::binmod::Wire::get(r)?;)*
                Ok($ty($($field),*))
            }
        }
        $crate::wire_record! { $($rest)* }
    };
}

/// One field of a [`wire_record!`](crate::wire_record), through its
/// [`Wire`] impl or the codec the record names.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_field {
    (put $field:ident, $w:ident) => {
        $crate::binmod::Wire::put($field, $w)
    };
    (put $field:ident, $w:ident, $put:path) => {
        $put($field, $w)
    };
    (get $r:ident) => {
        $crate::binmod::Wire::get($r)?
    };
    (get $r:ident, $get:path) => {
        $get($r)?
    };
}

/// Declares enums' [`Wire`] layouts as tag tables: each variant's tag
/// byte, then its fields in the listed order. Unit variants are a bare
/// name, tuple variants `Name(a, b)`, struct variants `Name { a, b }`.
/// Every variant must be listed, or `put` does not compile; a tag
/// outside the table is a decode error.
#[macro_export]
macro_rules! wire_enum {
    () => {};
    ($ty:ident { $($tag:literal => $variant:ident $(($($tf:ident),*))? $({$($sf:ident),*})?),* $(,)? } $($rest:tt)*) => {
        impl $crate::binmod::Wire for $ty {
            fn put(&self, w: &mut $crate::binmod::ByteWriter) {
                match self {
                    $($ty::$variant $(($($tf),*))? $({$($sf),*})? => {
                        w.put_u8($tag);
                        $($($crate::binmod::Wire::put($tf, w);)*)?
                        $($($crate::binmod::Wire::put($sf, w);)*)?
                    })*
                }
            }
            fn get(r: &mut $crate::binmod::ByteReader<'_>) -> Result<Self, String> {
                Ok(match r.get_u8()? {
                    $($tag => {
                        $($(let $tf = $crate::binmod::Wire::get(r)?;)*)?
                        $($(let $sf = $crate::binmod::Wire::get(r)?;)*)?
                        $ty::$variant $(($($tf),*))? $({$($sf),*})?
                    })*
                    tag => return Err(format!(concat!("bad ", stringify!($ty), " tag {}"), tag)),
                })
            }
        }
        $crate::wire_enum! { $($rest)* }
    };
}

wire_record! {
    ClassId(raw)
    FuncId(raw)
    MemberRef { class, index }
    Span { lo, hi }
    SymMember { class, index }
    SymFnSummary { live_steps, cg_steps }
    MemberRecord { name, ty, is_volatile }
    MethodRecord {
        name, kind, is_virtual, arity, has_body, body_fp, has_inits, line, col, summary,
    }
    ClassRecord { name, kind, bases, members, methods, line, col }
    EnumRecord { name, variants, line, col }
    GlobalRecord { name, ty, line, col }
    FreeFnRecord { name, arity, has_body, body_fp, line, col, summary }
    TuModule { file, source_hash, classes, enums, globals, free_fns, globals_summary }
}

wire_enum! {
    ClassKind { 0 => Class, 1 => Struct, 2 => Union }
    FunctionKind { 0 => Free, 1 => Method, 2 => Constructor, 3 => Destructor }
    MemberAccessKind { 0 => Read, 1 => AddressTaken, 2 => PointerToMember, 3 => VolatileWrite }
    MarkAllCause { 0 => UnsafeCast, 1 => UnsafeDowncast, 2 => Sizeof }
    SymFunc { 0 => Free(name), 1 => Method { class, index } }
    SymLiveStep { 0 => Access { member, kind }, 1 => MarkAll { class, cause } }
    SymCgStep {
        0 => Call(f),
        1 => VirtualCall { decl, receiver, refined },
        2 => FnPointerCall,
        3 => TakeAddress(f),
        4 => Instantiate { class, ctor },
        5 => Delete { class },
    }
}

/// A `Type` is its kind's tag byte, a qualifier byte (bit 0 `const`,
/// bit 1 `volatile`), then the kind's payload. Written by hand for two
/// reasons: the qualifiers sit between a kind's tag and its payload,
/// and decoding bounds the derivation depth. Each pointer, reference,
/// array, function and member-pointer level counts one, and a type
/// deeper than [`MAX_NESTING_DEPTH`] levels, which the parser never
/// builds, is `corrupt`: every recursive pass over it (resolution,
/// clone, drop, encode) could overflow the stack.
impl Wire for Type {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(match &self.kind {
            TypeKind::Void => 0,
            TypeKind::Bool => 1,
            TypeKind::Char => 2,
            TypeKind::Short => 3,
            TypeKind::Int => 4,
            TypeKind::Long => 5,
            TypeKind::Float => 6,
            TypeKind::Double => 7,
            TypeKind::Named(_) => 8,
            TypeKind::Pointer(_) => 9,
            TypeKind::Reference(_) => 10,
            TypeKind::Array(..) => 11,
            TypeKind::Function(_) => 12,
            TypeKind::MemberPointer { .. } => 13,
        });
        w.put_u8(u8::from(self.is_const) | (u8::from(self.is_volatile) << 1));
        match &self.kind {
            TypeKind::Named(n) => n.put(w),
            TypeKind::Pointer(inner) | TypeKind::Reference(inner) => inner.put(w),
            TypeKind::Array(inner, n) => {
                inner.put(w);
                w.put_u64(*n as u64);
            }
            TypeKind::Function(ft) => {
                ft.ret.put(w);
                ft.params.put(w);
            }
            TypeKind::MemberPointer { class, pointee } => {
                class.put(w);
                pointee.put(w);
            }
            _ => {}
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        get_type(r, MAX_NESTING_DEPTH)
    }
}

/// Reads a type that may derive `levels` more levels.
fn get_type(r: &mut ByteReader<'_>, levels: usize) -> Result<Type, String> {
    let tag = r.get_u8()?;
    let flags = r.get_u8()?;
    if flags > 3 {
        return Err(format!("bad type qualifier flags {flags}"));
    }
    let inner = |r: &mut ByteReader<'_>| match levels.checked_sub(1) {
        Some(levels) => get_type(r, levels),
        None => Err(Reject::Corrupt.to_string()),
    };
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
        9 => TypeKind::Pointer(Box::new(inner(r)?)),
        10 => TypeKind::Reference(Box::new(inner(r)?)),
        11 => {
            let of = inner(r)?;
            let n = usize::try_from(r.get_u64()?)
                .map_err(|_| "array length out of range".to_string())?;
            TypeKind::Array(Box::new(of), n)
        }
        12 => {
            let ret = inner(r)?;
            let n = r.get_len()?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(inner(r)?);
            }
            TypeKind::Function(Box::new(FnType { ret, params }))
        }
        13 => TypeKind::MemberPointer {
            class: r.get_str()?,
            pointee: Box::new(inner(r)?),
        },
        other => return Err(format!("bad type tag {other}")),
    };
    Ok(Type {
        kind,
        is_const: flags & 1 != 0,
        is_volatile: flags & 2 != 0,
    })
}

/// A `TypeError` is its kind's tag and text, then its span. Written by
/// hand because a failed member lookup is flattened into the kind's own
/// tag table: `Lookup(NotFound)` is tag 4 and `Lookup(Ambiguous)` tag 5,
/// each followed by the class and the member name.
impl Wire for TypeError {
    fn put(&self, w: &mut ByteWriter) {
        let (tag, texts): (u8, [Option<&String>; 2]) = match self.kind() {
            TypeErrorKind::UnknownIdent(n) => (0, [Some(n), None]),
            TypeErrorKind::NotAClass(t) => (1, [Some(t), None]),
            TypeErrorKind::NotAPointer(t) => (2, [Some(t), None]),
            TypeErrorKind::NotCallable(t) => (3, [Some(t), None]),
            TypeErrorKind::Lookup(LookupError::NotFound { class, name }) => {
                (4, [Some(class), Some(name)])
            }
            TypeErrorKind::Lookup(LookupError::Ambiguous { class, name }) => {
                (5, [Some(class), Some(name)])
            }
            TypeErrorKind::ThisOutsideMethod => (6, [None, None]),
            TypeErrorKind::UnknownQualifier(q) => (7, [Some(q), None]),
        };
        w.put_u8(tag);
        for text in texts.into_iter().flatten() {
            text.put(w);
        }
        self.span().put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
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
            other => return Err(format!("bad TypeError tag {other}")),
        };
        Ok(TypeError::from_parts(kind, Span::get(r)?))
    }
}

/// A `Histogram` is its non-empty buckets as `(index: u32, count: u64)`
/// pairs, then its count and its sum. Written by hand because the value
/// holds all 65 buckets and the layout only the non-empty ones, and
/// because decoding checks the buckets against the count.
impl Wire for Histogram {
    fn put(&self, w: &mut ByteWriter) {
        let buckets = self.nonzero_buckets();
        w.put_len(buckets.len());
        for (k, c) in buckets {
            w.put_u32(k as u32);
            w.put_u64(c);
        }
        w.put_u64(self.count());
        w.put_u64(self.sum());
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let n = r.get_len()?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let k = r.get_u32()? as usize;
            buckets.push((k, r.get_u64()?));
        }
        let count = r.get_u64()?;
        Histogram::from_parts(&buckets, count, r.get_u64()?)
    }
}

/// `Counters` are the values of [`Counters::rows`] as a `Vec<u64>`; a
/// list of any other length is rejected.
impl Wire for Counters {
    fn put(&self, w: &mut ByteWriter) {
        let rows = self.rows();
        w.put_len(rows.len());
        for (_, v) in rows {
            w.put_u64(v);
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let mut counters = Counters::default();
        let mut rows = counters.rows_mut();
        let n = r.get_len()?;
        if n != rows.len() {
            return Err(format!("counters row count {n}, expected {}", rows.len()));
        }
        for (_, v) in &mut rows {
            **v = r.get_u64()?;
        }
        Ok(counters)
    }
}

// ---------------------------------------------------------------------
// The class table
// ---------------------------------------------------------------------

/// Serializes a whole module list with cross-TU class-record
/// deduplication: each distinct class record (by encoded bytes) is
/// stored once in a table, and modules reference it by index. Class
/// records come from shared headers, so in a real project almost every
/// TU repeats the same ones — the table typically shrinks the encoding
/// severalfold, which is what makes the analysis snapshot cheap to
/// read and rewrite on every incremental run. The inverse of
/// [`decode_modules`]. Deterministic: the table is in first-appearance
/// order.
///
/// Written by hand, beside the [`TuModule`] layout it follows field for
/// field: each module's classes are `u32` table indices here, and the
/// table is deduplicated by bytes and by `Arc` pointer.
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
            c.put(&mut cw);
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
        m.file.put(w);
        m.source_hash.put(w);
        ids.put(w);
        m.enums.put(w);
        m.globals.put(w);
        m.free_fns.put(w);
        m.globals_summary.put(w);
    }
}

/// Deserializes a module list written by [`encode_modules`].
///
/// # Errors
///
/// Any structural failure, including a class-table index out of range
/// or a table entry with trailing bytes.
pub fn decode_modules(r: &mut ByteReader<'_>) -> Result<Vec<TuModule>, String> {
    let n = r.get_len()?;
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        let mut cr = ByteReader::new(r.get_blob()?);
        let class = ClassRecord::get(&mut cr)?;
        if !cr.is_at_end() {
            return Err("trailing bytes in class-table entry".to_string());
        }
        table.push(Arc::new(class));
    }
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let file = String::get(r)?;
        let source_hash = u64::get(r)?;
        let n = r.get_len()?;
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()? as usize;
            let class = table
                .get(id)
                .ok_or_else(|| format!("class-table index {id} out of range"))?;
            classes.push(Arc::clone(class));
        }
        out.push(TuModule {
            file,
            source_hash,
            classes,
            enums: Wire::get(r)?,
            globals: Wire::get(r)?,
            free_fns: Wire::get(r)?,
            globals_summary: Wire::get(r)?,
        });
    }
    Ok(out)
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

    fn encode(m: &TuModule) -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn binary_roundtrip_is_identity() {
        for refine in [false, true] {
            let m = extract(SRC, refine);
            let bytes = encode(&m);
            let mut r = ByteReader::new(&bytes);
            let back = TuModule::get(&mut r).expect("decode");
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
        let standalone: usize = mods.iter().map(|m| encode(m).len()).sum();
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
        let bytes = encode(&m);
        let back = TuModule::get(&mut ByteReader::new(&bytes)).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = extract(SRC, false);
        assert_eq!(encode(&m), encode(&m.clone()));
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let bytes = encode(&extract(SRC, false));
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TuModule::get(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        // A single out-of-range enum tag anywhere in the stream fails
        // decoding (the checksum normally catches this first; the codec
        // is the second line of defense).
        let mut bytes = encode(&extract(SRC, false));
        let last = bytes.len() - 1;
        bytes[last] = 0xEE;
        assert!(TuModule::get(&mut ByteReader::new(&bytes)).is_err());
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
