//! Versioned binary snapshot codec.
//!
//! Checkpoint/restore has to be bit-exact and dependency-free, so the
//! format is hand-rolled: little-endian fixed-width integers, `f64` as raw
//! IEEE-754 bits, length-prefixed collections, and an outer envelope of
//!
//! ```text
//! magic (8 B) | version (u32) | payload_len (u64) | xxh64(payload) | payload
//! ```
//!
//! Every read is bounds-checked and returns a typed [`SnapError`] — a
//! corrupt, truncated, or version-mismatched snapshot must never panic,
//! only fail loudly so callers can fall back to restart-from-scratch.
//!
//! Every checkpointed type implements one trait, [`Snap`]: `save` appends
//! its bytes, `load` overwrites its state in place. A struct whose image
//! is "its fields in order" states that layout exactly once, in a
//! [`snap_fields!`](crate::snap_fields) field list; the macro generates
//! both directions from it, and both destructure the struct exhaustively,
//! so a field added to the struct does not compile until it is either
//! listed or named in the list of fields rebuilt from configuration.
//! Value checks (every [`SnapError::Corrupt`] a restore can raise beyond
//! the codec's own) live in one per-type function that runs after the
//! fields load.
//!
//! Loading is in place because a restore targets a testbed freshly built
//! from the identical configuration: topology and run constants are
//! already there and are not in the image. Containers resize to the
//! image's lengths using [`Snap::blank`]; types without a blank value are
//! *shape-fixed* (built only from configuration), so a container of them
//! must already have the image's length or the restore fails typed.
//!
//! A few codecs are not a field list and are written by hand, each as one
//! `Snap` impl:
//!
//! - the timing wheel and the reference heap: pending events in pop
//!   order, so slab addresses and tier placement never leak into the
//!   image;
//! - `SampleRing`: the retained samples oldest first, refilled in place
//!   so the ring keeps its prebuilt capacity;
//! - `Histogram`: sparse `(bucket, count)` pairs for the few non-zero
//!   buckets;
//! - the tagged enums: a tag byte plus the variant's payload.
//!
//! Debug builds re-save every restored simulation and compare it with the
//! input ([`check_resave`]), so a lossy `load` fails typed instead of
//! diverging silently. The envelope version is bumped whenever any type's
//! layout changes.

use crate::time::{SimDuration, SimTime};
use core::convert::identity;
use core::fmt;
use std::collections::{BTreeMap, VecDeque};

/// Magic bytes opening every snapshot envelope.
pub const SNAP_MAGIC: [u8; 8] = *b"HCCSNAP\0";

/// Current snapshot format version. Bump on any layout change; old
/// versions are rejected, never migrated (a checkpoint is a cache of
/// re-runnable work, not an archive).
pub const SNAP_VERSION: u32 = 3;

/// Envelope header size: magic + version + payload length + checksum.
pub const SNAP_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Typed decode failure. All malformed-input paths land here — no decode
/// path is allowed to panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the field being read.
    Eof,
    /// The envelope does not start with `SNAP_MAGIC`.
    BadMagic,
    /// The envelope's format version is not the one this build writes.
    BadVersion {
        /// Version found in the envelope header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The envelope header promises more payload bytes than are present.
    Truncated,
    /// The payload checksum does not match the header.
    Checksum,
    /// A field decoded to a value that cannot be valid state.
    Corrupt(&'static str),
    /// The live state cannot be checkpointed right now (e.g. an enabled
    /// observability layer holds unbounded history the format excludes).
    /// A save-side refusal, not a decode failure.
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot ended mid-field"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format v{found} (this build reads v{expected})")
            }
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Checksum => write!(f, "snapshot checksum mismatch"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Unsupported(what) => write!(f, "cannot checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash — the digest primitive for configuration
/// fingerprints and the test suite's metric comparisons.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// XXH64 with seed 0 — the envelope checksum. Four independent lanes
/// consume 32 bytes per step, so a large image hashes an order of
/// magnitude faster than byte-serial FNV-1a.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(h: u64, acc: u64) -> u64 {
        (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
    }
    let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = round(*acc, u64_at(lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for word in words {
        h = (h ^ round(0, u64_at(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h = (h ^ (word as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The checkpoint codec: one impl per checkpointed type.
///
/// `load` must consume exactly the bytes `save` wrote and leave the value
/// so that saving it again writes them back unchanged — restores check
/// that in debug builds (see [`check_resave`]).
pub trait Snap {
    /// Append this value's checkpointed state.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrite this value's checkpointed state from `r`. On error the
    /// value may be partially overwritten; callers discard it.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;

    /// A fresh value for a growing container to load into. `None` (the
    /// default) marks a shape-fixed type: one built only from
    /// configuration, whose containers must keep their prebuilt length.
    fn blank() -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// A lower bound on the encoded size: the allocation guard applied to
    /// every length prefix of a container of this type.
    fn min_bytes() -> usize
    where
        Self: Sized,
    {
        1
    }
}

/// Decode one fresh value of a blank-able type.
pub fn decode<T: Snap>(r: &mut SnapReader<'_>) -> Result<T, SnapError> {
    let mut v = T::blank().ok_or(SnapError::Corrupt("shape-fixed value in a growing slot"))?;
    v.load(r)?;
    Ok(v)
}

/// `min_bytes` of a field, named by an accessor (used by `snap_fields!`,
/// which knows field names but not their types).
#[doc(hidden)]
pub fn field_min_bytes<S, T: Snap>(_field: fn(&S) -> &T) -> usize {
    T::min_bytes()
}

/// Debug-build restore check: the state rebuilt from `payload` must save
/// back to exactly `payload`. A mismatch means some type's `load` dropped
/// or altered state its `save` wrote — a resume that would silently
/// diverge — and is reported as [`SnapError::Corrupt`]. Release builds
/// skip the re-save.
pub fn check_resave(payload: &[u8], resave: impl FnOnce() -> Vec<u8>) -> Result<(), SnapError> {
    if cfg!(debug_assertions) && resave() != payload {
        return Err(SnapError::Corrupt(
            "restored state does not re-save identically",
        ));
    }
    Ok(())
}

/// Implement [`Snap`] for a struct from one list of its fields.
///
/// ```text
/// snap_fields!(Type { field, field, ... }
///     skip { field, ... }      // optional: rebuilt from configuration
///     blank { expr }           // optional: fresh value for growing containers
///     check { path });         // optional: fn(&mut Type) -> Result<(), SnapError>
/// snap_fields!(impl[T: Snap] Generic<T> { ... });
/// ```
///
/// Listed fields are saved and loaded in order with their own `Snap`
/// impls. Both directions destructure the struct exhaustively, so a new
/// field fails to compile until it is listed or skipped. The `check`
/// function runs after every field has loaded: it rejects values that
/// cannot be valid state and may recompute derived caches.
///
/// ```compile_fail,E0027
/// struct Counter { hits: u64, misses: u64 }
/// // `misses` is neither listed nor skipped: does not compile.
/// hostcc_sim::snap_fields!(Counter { hits });
/// ```
///
/// ```
/// struct Counter { hits: u64, misses: u64 }
/// hostcc_sim::snap_fields!(Counter { hits, misses });
/// ```
#[macro_export]
macro_rules! snap_fields {
    (impl[$($gen:tt)*] $ty:ty { $($f:tt),* $(,)? }
        $(skip { $($s:tt),* $(,)? })?
        $(blank { $blank:expr })?
        $(check { $check:path })?
    ) => {
        impl<$($gen)*> $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                let Self { $($f: _,)* $($($s: _,)*)? } = self;
                $($crate::Snap::save(&self.$f, w);)*
            }

            fn load(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::SnapError> {
                let Self { $($f: _,)* $($($s: _,)*)? } = self;
                $($crate::Snap::load(&mut self.$f, r)?;)*
                $($check(self)?;)?
                ::core::result::Result::Ok(())
            }

            $(fn blank() -> ::core::option::Option<Self> {
                ::core::option::Option::Some($blank)
            })?

            fn min_bytes() -> usize {
                0 $(+ $crate::snap_field_min_bytes::<Self, _>(|s| &s.$f))*
            }
        }
    };
    ($ty:ty { $($f:tt),* $(,)? }
        $(skip { $($s:tt),* $(,)? })?
        $(blank { $blank:expr })?
        $(check { $check:path })?
    ) => {
        $crate::snap_fields!(impl[] $ty { $($f),* }
            $(skip { $($s),* })?
            $(blank { $blank })?
            $(check { $check })?);
    };
}

/// Scalars: written through one writer/reader primitive, converted by
/// `to`/`from` (identity for the primitives themselves).
macro_rules! snap_scalar {
    ($($t:ty: $w:ident, $to:expr, $from:expr, $bytes:expr;)*) => {$(
        impl Snap for $t {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$w($to(*self));
            }
            #[inline]
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = $from(r.$w()?);
                Ok(())
            }
            fn blank() -> Option<Self> {
                Some(Default::default())
            }
            fn min_bytes() -> usize {
                $bytes
            }
        }
    )*};
}

snap_scalar! {
    u8: u8, identity, identity, 1;
    u32: u32, identity, identity, 4;
    u64: u64, identity, identity, 8;
    u128: u128, identity, identity, 16;
    usize: usize, identity, identity, 8;
    f64: f64, identity, identity, 8;
    bool: bool, identity, identity, 1;
    SimTime: u64, SimTime::as_nanos, SimTime::from_nanos, 8;
    SimDuration: u64, SimDuration::as_nanos, SimDuration::from_nanos, 8;
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let s = r.str()?;
        self.clear();
        self.push_str(s);
        Ok(())
    }
    fn blank() -> Option<Self> {
        Some(String::new())
    }
    fn min_bytes() -> usize {
        8
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    /// Loads into an existing value in place. A shape-fixed value can be
    /// neither created nor dropped by a restore.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        const MISMATCH: SnapError = SnapError::Corrupt("optional shape-fixed value mismatch");
        match (r.bool()?, self.as_mut()) {
            (true, Some(v)) => v.load(r)?,
            (true, None) => *self = Some(decode(r).map_err(|_| MISMATCH)?),
            (false, Some(_)) if T::blank().is_none() => return Err(MISMATCH),
            (false, _) => *self = None,
        }
        Ok(())
    }
    fn blank() -> Option<Self> {
        Some(None)
    }
}

impl<T: Snap + ?Sized> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load(r)
    }
    fn min_bytes() -> usize {
        0
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for v in self {
            v.load(r)?;
        }
        Ok(())
    }
    fn blank() -> Option<Self> {
        let v: Vec<T> = (0..N).map(|_| T::blank()).collect::<Option<_>>()?;
        v.try_into().ok()
    }
    fn min_bytes() -> usize {
        N * T::min_bytes()
    }
}

/// Resize a container about to be loaded to `n` elements: truncate or
/// grow with blanks, or refuse when the element type is shape-fixed.
fn resize_for_load<T: Snap>(
    len: usize,
    n: usize,
    truncate: impl FnOnce(usize),
    mut push: impl FnMut(T),
) -> Result<(), SnapError> {
    if n == len {
        return Ok(());
    }
    if T::blank().is_none() {
        return Err(SnapError::Corrupt("shape-fixed container length mismatch"));
    }
    truncate(n);
    for _ in len..n {
        push(T::blank().ok_or(SnapError::Corrupt("blank value missing"))?);
    }
    Ok(())
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len(T::min_bytes())?;
        let len = self.len();
        let mut grown = Vec::new();
        resize_for_load(len, n, |n| self.truncate(n), |v| grown.push(v))?;
        self.append(&mut grown);
        for v in self.iter_mut() {
            v.load(r)?;
        }
        Ok(())
    }
    fn blank() -> Option<Self> {
        Some(Vec::new())
    }
    fn min_bytes() -> usize {
        8
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len(T::min_bytes())?;
        let len = self.len();
        let mut grown = VecDeque::new();
        resize_for_load(len, n, |n| self.truncate(n), |v| grown.push_back(v))?;
        self.append(&mut grown);
        for v in self.iter_mut() {
            v.load(r)?;
        }
        Ok(())
    }
    fn blank() -> Option<Self> {
        Some(VecDeque::new())
    }
    fn min_bytes() -> usize {
        8
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len(K::min_bytes() + V::min_bytes())?;
        self.clear();
        for _ in 0..n {
            let k = decode(r)?;
            let v = decode(r)?;
            if self.insert(k, v).is_some() {
                return Err(SnapError::Corrupt("duplicate map key"));
            }
        }
        Ok(())
    }
    fn blank() -> Option<Self> {
        Some(BTreeMap::new())
    }
    fn min_bytes() -> usize {
        8
    }
}

macro_rules! snap_tuple {
    ($($n:tt: $t:ident),*) => {
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$n.save(w);)*
            }
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                $(self.$n.load(r)?;)*
                Ok(())
            }
            fn blank() -> Option<Self> {
                Some(($($t::blank()?,)*))
            }
            fn min_bytes() -> usize {
                0 $(+ $t::min_bytes())*
            }
        }
    };
}

snap_tuple!(0: A, 1: B);
snap_tuple!(0: A, 1: B, 2: C);

/// Append-only snapshot payload writer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// The raw payload (no envelope).
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Wrap the payload in the versioned, checksummed envelope.
    pub fn into_envelope(self) -> Vec<u8> {
        let payload = self.buf;
        let mut out = Vec::with_capacity(SNAP_HEADER_LEN + payload.len());
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&xxh64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u128`.
    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its raw IEEE-754 bits (bit-exact round trip,
    /// including NaN payloads and signed zeros).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked snapshot payload reader.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over a raw payload (no envelope).
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Validate an envelope (magic, version, length, checksum) and return
    /// a reader positioned at the start of its payload.
    pub fn open(data: &'a [u8]) -> Result<Self, SnapError> {
        if data.len() < SNAP_HEADER_LEN {
            // Too short even for the header: distinguish "not a snapshot
            // at all" from "snapshot cut off mid-header".
            if data.len() >= 8 && data[..8] != SNAP_MAGIC {
                return Err(SnapError::BadMagic);
            }
            return Err(SnapError::Truncated);
        }
        if data[..8] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(data[20..28].try_into().expect("8 bytes"));
        let payload = &data[SNAP_HEADER_LEN..];
        if (payload.len() as u64) < payload_len {
            return Err(SnapError::Truncated);
        }
        if (payload.len() as u64) > payload_len {
            return Err(SnapError::Corrupt("trailing bytes after payload"));
        }
        if xxh64(payload) != checksum {
            return Err(SnapError::Checksum);
        }
        Ok(SnapReader::new(payload))
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless every payload byte was consumed — a decode that leaves
    /// trailing bytes read a different layout than the writer wrote.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("unconsumed payload bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 B")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 B")))
    }

    /// Read a little-endian `u128`.
    pub(crate) fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 B"),
        ))
    }

    /// Read a `u64` written as a `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Read a collection length, bounded so a corrupt length cannot drive
    /// an enormous allocation: each element needs at least `min_elem_bytes`
    /// payload bytes, so any honest length fits in what remains.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Corrupt("length exceeds payload"));
        }
        Ok(n)
    }

    /// Read an `f64` from raw bits.
    pub(crate) fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; anything but 0/1 is corruption.
    pub(crate) fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool out of range")),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + fmt::Debug>(v: &T, fresh: &mut T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        fresh.load(&mut r).unwrap();
        r.finish().unwrap();
        payload
    }

    #[test]
    fn scalar_round_trip() {
        type All = (
            (u8, u32, u64),
            (u128, f64, f64),
            (bool, SimTime, SimDuration),
        );
        let v: All = (
            (7, 0xDEAD_BEEF, u64::MAX),
            (u128::MAX - 5, -0.0, f64::NAN),
            (true, SimTime::from_nanos(123), SimDuration::from_nanos(456)),
        );
        let mut back = All::blank().unwrap();
        round_trip(&v, &mut back);
        assert_eq!(back.0, v.0);
        assert_eq!(back.1 .0, v.1 .0);
        assert_eq!(back.1 .1.to_bits(), (-0.0f64).to_bits());
        assert!(back.1 .2.is_nan());
        assert_eq!(back.2, v.2);

        let s = (String::from("héllo"), (Some(9u64), None::<u64>));
        let mut back = <(String, (Option<u64>, Option<u64>))>::blank().unwrap();
        back.1 .1 = Some(3); // a present value the image says is absent
        round_trip(&s, &mut back);
        assert_eq!(back, s);

        let c = (
            vec![1u64, 2, 3],
            VecDeque::from(vec![(1u32, true)]),
            [4u64; 3],
        );
        let mut back = (vec![9u64; 7], VecDeque::new(), [0u64; 3]);
        round_trip(&c, &mut back);
        assert_eq!(back, c);

        let m: BTreeMap<String, u64> = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        let mut back = BTreeMap::new();
        round_trip(&m, &mut back);
        assert_eq!(back, m);
    }

    #[test]
    fn envelope_round_trip_and_rejections() {
        let mut w = SnapWriter::new();
        w.u64(0x1234_5678_9ABC_DEF0);
        let env = w.into_envelope();
        // Clean round trip.
        let mut r = SnapReader::open(&env).unwrap();
        assert_eq!(r.u64().unwrap(), 0x1234_5678_9ABC_DEF0);
        r.finish().unwrap();
        // Bad magic.
        let mut bad = env.clone();
        bad[0] ^= 0xFF;
        assert_eq!(SnapReader::open(&bad).unwrap_err(), SnapError::BadMagic);
        // Version mismatch.
        let mut bad = env.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert!(matches!(
            SnapReader::open(&bad),
            Err(SnapError::BadVersion { .. })
        ));
        // Truncation at every prefix length: typed error, never a panic.
        for cut in 0..env.len() {
            assert!(SnapReader::open(&env[..cut]).is_err(), "cut={cut}");
        }
        // Any single flipped payload bit trips the checksum.
        let mut bad = env.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(SnapReader::open(&bad).unwrap_err(), SnapError::Checksum);
        // Trailing garbage is rejected too.
        let mut bad = env.clone();
        bad.push(0);
        assert!(SnapReader::open(&bad).is_err());
    }

    #[test]
    fn reads_past_end_are_typed_errors() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(SnapError::Eof));
        let mut r = SnapReader::new(&[]);
        assert_eq!(r.u8(), Err(SnapError::Eof));
        // A huge claimed length must not allocate.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2);
        let payload = w.into_payload();
        let mut v: Vec<u64> = Vec::new();
        assert!(matches!(
            v.load(&mut SnapReader::new(&payload)),
            Err(SnapError::Corrupt(_))
        ));
        // Out-of-range bools and duplicate map keys are corruption.
        let mut flag = false;
        assert!(matches!(
            flag.load(&mut SnapReader::new(&[2])),
            Err(SnapError::Corrupt(_))
        ));
        let mut w = SnapWriter::new();
        w.usize(2);
        for _ in 0..2 {
            w.u32(1);
            w.u32(5);
        }
        let payload = w.into_payload();
        let mut m: BTreeMap<u32, u32> = BTreeMap::new();
        assert_eq!(
            m.load(&mut SnapReader::new(&payload)),
            Err(SnapError::Corrupt("duplicate map key"))
        );
    }

    /// A type built only from configuration: containers of it keep their
    /// prebuilt shape.
    #[derive(Debug, PartialEq)]
    struct Port {
        id: u32,
        sent: u64,
    }
    snap_fields!(Port { sent } skip { id });

    #[test]
    fn shape_fixed_containers_refuse_to_resize() {
        let two = vec![Port { id: 0, sent: 5 }, Port { id: 1, sent: 6 }];
        let mut back = vec![Port { id: 0, sent: 0 }, Port { id: 1, sent: 0 }];
        round_trip(&two, &mut back);
        assert_eq!(back, two);

        let mut w = SnapWriter::new();
        two.save(&mut w);
        let payload = w.into_payload();
        let mut three: Vec<Port> = (0..3).map(|id| Port { id, sent: 0 }).collect();
        assert!(matches!(
            three.load(&mut SnapReader::new(&payload)),
            Err(SnapError::Corrupt(_))
        ));
        let mut w = SnapWriter::new();
        None::<Port>.save(&mut w);
        let payload = w.into_payload();
        let mut attached = Some(Port { id: 0, sent: 0 });
        assert!(attached.load(&mut SnapReader::new(&payload)).is_err());
    }

    /// A deliberately lossy codec: `load` forgets what `save` wrote.
    #[derive(Debug)]
    struct Lossy {
        kept: u64,
        dropped: u64,
    }

    impl Snap for Lossy {
        fn save(&self, w: &mut SnapWriter) {
            self.kept.save(w);
            self.dropped.save(w);
        }
        fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.kept.load(r)?;
            let _ = r.u64()?;
            Ok(())
        }
    }

    #[test]
    fn resave_check_catches_lossy_loads() {
        let saved = Lossy {
            kept: 1,
            dropped: 2,
        };
        let mut w = SnapWriter::new();
        saved.save(&mut w);
        let payload = w.into_payload();
        let mut restored = Lossy {
            kept: 0,
            dropped: 0,
        };
        restored.load(&mut SnapReader::new(&payload)).unwrap();
        let resave = || {
            let mut w = SnapWriter::new();
            restored.save(&mut w);
            w.into_payload()
        };
        let verdict = check_resave(&payload, resave);
        if cfg!(debug_assertions) {
            assert!(matches!(verdict, Err(SnapError::Corrupt(_))));
        } else {
            assert_eq!(verdict, Ok(()));
        }
        // A faithful codec passes.
        let mut w = SnapWriter::new();
        (1u64, 2u64).save(&mut w);
        let payload = w.into_payload();
        let mut back = (0u64, 0u64);
        back.load(&mut SnapReader::new(&payload)).unwrap();
        assert_eq!(
            check_resave(&payload, || {
                let mut w = SnapWriter::new();
                back.save(&mut w);
                w.into_payload()
            }),
            Ok(())
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so test digests never drift.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"hostcc"), fnv1a_64(b"hostcc"));
        assert_ne!(fnv1a_64(b"hostcc"), fnv1a_64(b"hostcd"));
    }

    #[test]
    fn xxh64_matches_known_answers() {
        // Reference XXH64 values, seed 0.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
        // Lengths that exercise every tail path after the 32-byte stripes.
        let ramp = |n: usize| (0..n).map(|i| (i * 7 + 3) as u8).collect::<Vec<_>>();
        for (n, want) in [
            (31, 0xA2AA_5F33_CC4A_6119),
            (32, 0x23C3_C17E_F790_FD97),
            (33, 0x50A7_CFC7_BA58_8784),
            (63, 0x5E3E_54B4_31C7_493C),
            (100, 0xA61F_8D4C_170F_E531),
            (4099, 0x6243_E90A_DE85_2967),
        ] {
            assert_eq!(xxh64(&ramp(n)), want, "length {n}");
        }
    }
}
