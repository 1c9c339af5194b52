//! Deterministic binary snapshot encoding.
//!
//! The warm-state cache needs every piece of mutable simulator
//! state serialized so a restored simulator is *bit-for-bit* equivalent to
//! one that ran warm-up live. JSON would work but is slow and bulky for
//! multi-megabyte L2P maps, so this crate provides a minimal fixed-width
//! little-endian binary codec:
//!
//! - [`Snap`]: encode/decode for primitives, tuples, arrays and the
//!   standard containers used by the simulator (`Vec`, `VecDeque`,
//!   `Option`, `String`).
//! - [`snap_struct!`] / [`snap_enum!`]: field-by-field impl macros invoked
//!   *inside* the defining crate (they need access to private fields).
//! - [`frame`]: a self-describing outer frame (`magic ‖ version ‖ len ‖
//!   xxh64 ‖ payload`) so a corrupt, truncated or stale snapshot file or
//!   fabric message is rejected instead of silently restored.
//! - [`fnv1a`]: the repo-wide content hash behind warm-up cache keys and
//!   cell seeds. Frames use the word-at-a-time [`frame::hash`] instead.
//!
//! Determinism rules: every integer is fixed-width little-endian, `usize`
//! travels as `u64`, `f64` as its IEEE-754 bit pattern, and containers are
//! length-prefixed. There is no varint, no alignment and no padding — the
//! byte stream is a pure function of the value, which is what makes
//! snapshot bytes usable as cache-key material.

use std::collections::VecDeque;

/// Decode failure: the byte stream does not describe a value of the
/// requested type (truncated, bad tag, bad frame, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(pub String);

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode error: {}", self.0)
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// Shorthand constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        SnapError(msg.into())
    }
}

/// Append-only encode sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Bytes reserved at the front for a frame header (see
    /// [`Writer::framed`]); 0 for a plain writer.
    header: usize,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer that reserves room for a frame header in front of
    /// the payload and for `capacity` payload bytes, so
    /// [`frame::seal_writer`] seals it without copying the payload.
    /// Reserved capacity the payload never reaches is never touched.
    pub fn framed(capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(frame::HEADER_LEN + capacity);
        buf.resize(frame::HEADER_LEN, 0);
        Writer {
            buf,
            header: frame::HEADER_LEN,
        }
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Finish, yielding the encoded payload.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..self.header);
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.header
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Take the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        // `n <= remaining` implies `pos + n <= len`, so the arithmetic
        // cannot overflow; keeping the hot path to one compare lets the
        // per-field calls in big decode loops inline away.
        if n <= self.buf.len() - self.pos {
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        } else {
            Err(self.truncated(n))
        }
    }

    #[cold]
    fn truncated(&self, n: usize) -> SnapError {
        SnapError::new(format!(
            "truncated: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len() - self.pos
        ))
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was fully consumed (catches layout drift
    /// between the encoder and decoder).
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::new(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }
}

/// Deterministic binary encode/decode.
pub trait Snap: Sized {
    /// Append this value's canonical byte form.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError>;

    /// Encode a whole slice of values. Containers route through this so
    /// primitive element types can override it with a bulk byte copy;
    /// the byte form is identical to element-by-element encoding.
    fn encode_slice(slice: &[Self], w: &mut Writer) {
        for v in slice {
            v.encode(w);
        }
    }

    /// Decode `len` values. The bulk counterpart of [`Snap::encode_slice`];
    /// overrides must consume exactly the bytes element-wise decoding
    /// would.
    fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        // Bound the pre-allocation by what the stream could possibly hold
        // (1 byte per element minimum) so a corrupt length cannot OOM.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Convenience: encode to a fresh buffer.
    fn to_snap_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decode a value that must span the whole buffer.
    fn from_snap_bytes(buf: &[u8]) -> Result<Self, SnapError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! snap_int {
    ($($ty:ty),*) => {
        $(
            impl Snap for $ty {
                // `#[inline]` matters here: the workspace builds without LTO,
                // so without it these one-liners stay as cross-crate calls in
                // the multi-megabyte snapshot loops of ida-ftl/ida-ssd.
                #[inline]
                fn encode(&self, w: &mut Writer) {
                    w.bytes(&self.to_le_bytes());
                }
                #[inline]
                fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                    let b = r.take(std::mem::size_of::<$ty>())?;
                    Ok(<$ty>::from_le_bytes(b.try_into().expect("sized take")))
                }
                // Bulk forms: the little-endian byte layout of a run of
                // integers IS the element-wise encoding, so the whole
                // slice is written into one resized span, with no
                // per-value append.
                fn encode_slice(slice: &[Self], w: &mut Writer) {
                    const W: usize = std::mem::size_of::<$ty>();
                    let start = w.buf.len();
                    w.buf.resize(start + W * slice.len(), 0);
                    for (out, v) in w.buf[start..].chunks_exact_mut(W).zip(slice) {
                        out.copy_from_slice(&v.to_le_bytes());
                    }
                }
                fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
                    const W: usize = std::mem::size_of::<$ty>();
                    let bytes = len
                        .checked_mul(W)
                        .ok_or_else(|| SnapError::new(format!("vec length overflow: {len}")))?;
                    let b = r.take(bytes)?;
                    Ok(b.chunks_exact(W)
                        .map(|c| <$ty>::from_le_bytes(c.try_into().expect("sized chunk")))
                        .collect())
                }
            }
        )*
    };
}

snap_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Snap for usize {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("usize overflow: {v}")))
    }
}

impl Snap for bool {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        (*self as u8).encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("bad bool byte {b}"))),
        }
    }
    fn encode_slice(slice: &[Self], w: &mut Writer) {
        w.buf.reserve(slice.len());
        w.buf.extend(slice.iter().map(|&v| v as u8));
    }
    fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        let b = r.take(len)?;
        // Branch-free check first (it vectorizes); find the culprit only
        // on failure.
        if b.iter().fold(0, |any, &x| any | x) > 1 {
            let bad = b.iter().find(|&&x| x > 1).expect("found above");
            return Err(SnapError::new(format!("bad bool byte {bad}")));
        }
        Ok(b.iter().map(|&x| x == 1).collect())
    }
}

impl Snap for f64 {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        self.to_bits().encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Snap for String {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        let b = r.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|e| SnapError::new(format!("bad utf-8: {e}")))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => 0u8.encode(w),
            Some(v) => {
                1u8.encode(w);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(SnapError::new(format!("bad option tag {b}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        T::decode_vec(len, r)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        let (head, tail) = self.as_slices();
        T::encode_slice(head, w);
        T::encode_slice(tail, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self, w: &mut Writer) {
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        T::decode_vec(N, r)?
            .try_into()
            .map_err(|_| SnapError::new("array length mismatch"))
    }
}

macro_rules! snap_tuple {
    ($($name:ident),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $( $name.encode(w); )+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

snap_tuple!(A);
snap_tuple!(A, B);
snap_tuple!(A, B, C);
snap_tuple!(A, B, C, D);

/// Implement [`Snap`] for a struct field-by-field, in declaration order.
/// Must be invoked in the struct's own module (it reads private fields).
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                $( $crate::Snap::encode(&self.$field, w); )*
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Snap::decode(r)? ),* })
            }
        }
    };
}

/// Implement [`Snap`] for a unit-variant enum with explicit `u8` tags.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty { $($idx:literal => $variant:path),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                let tag: u8 = match self {
                    $( $variant => $idx, )*
                };
                $crate::Snap::encode(&tag, w);
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                match <u8 as $crate::Snap>::decode(r)? {
                    $( $idx => Ok($variant), )*
                    tag => Err($crate::SnapError::new(format!(
                        concat!("bad ", stringify!($ty), " tag {}"),
                        tag
                    ))),
                }
            }
        }
    };
}

/// FNV-1a 64-bit over `bytes` — the repo's standard content hash behind
/// warm-up cache keys and cell seeds, which must never move.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Self-describing outer frame: `IDASNAP1 ‖ version:u32 ‖ len:u64 ‖
/// hash:u64 ‖ payload`, where `hash` is [`frame::hash`] (XXH64) of the
/// payload. Warm-cache images, CLI snapshot files and fabric messages
/// always travel framed so truncation and corruption are detected before
/// decode.
pub mod frame {
    use super::{SnapError, Writer};
    use std::io::Read;

    /// Frame magic, also the file signature of `.snap` snapshot files.
    pub const MAGIC: &[u8; 8] = b"IDASNAP1";
    /// Current payload-layout version. Bump whenever any `Snap` impl's
    /// field order or the frame hash changes; a snapshot file of another
    /// version is then rejected, not misdecoded. Version 2: dense FTL page
    /// tables and the XXH64 frame hash.
    pub const VERSION: u32 = 2;
    /// Frame header length in bytes.
    pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

    /// Decoded frame metadata (for `idasim snapshot inspect`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Meta {
        /// Layout version recorded in the header.
        pub version: u32,
        /// Payload length in bytes.
        pub payload_len: u64,
        /// [`hash`] of the payload.
        pub hash: u64,
    }

    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;

    #[inline]
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }

    #[inline]
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().expect("8-byte lane"))
    }

    /// XXH64 (seed 0) of `bytes`: the frame content hash. It consumes
    /// 32-byte stripes in four independent 8-byte lanes, so it runs at
    /// memory speed where byte-serial [`super::fnv1a`] does not.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut stripes = bytes.chunks_exact(32);
        let mut h = if bytes.len() >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
            for stripe in &mut stripes {
                for (i, lane) in v.iter_mut().enumerate() {
                    *lane = round(*lane, word(&stripe[8 * i..]));
                }
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(bytes.len() as u64);
        let mut rest = stripes.remainder();
        while rest.len() >= 8 {
            h = (h ^ round(0, word(rest)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let half = u32::from_le_bytes(rest[..4].try_into().expect("4-byte tail"));
            h = (h ^ u64::from(half).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// Check a header's magic and version and read its declared length and
    /// hash.
    fn parse_header(h: &[u8]) -> Result<Meta, SnapError> {
        if &h[..8] != MAGIC {
            return Err(SnapError::new("bad frame magic"));
        }
        let field = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("sized"));
        let version = u32::from_le_bytes(h[8..12].try_into().expect("sized"));
        if version != VERSION {
            return Err(SnapError::new(format!(
                "frame version {version}, expected {VERSION}"
            )));
        }
        Ok(Meta {
            version,
            payload_len: field(12),
            hash: field(20),
        })
    }

    /// Wrap `payload` in a verified frame.
    pub fn seal(payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::framed(payload.len());
        w.bytes(payload);
        seal_writer(w)
    }

    /// [`seal`] the payload a [`Writer::framed`] writer holds, in place:
    /// the header goes into the room reserved for it and the payload is
    /// never copied.
    ///
    /// # Panics
    ///
    /// Panics if `w` was not made by [`Writer::framed`].
    pub fn seal_writer(w: Writer) -> Vec<u8> {
        assert_eq!(w.header, HEADER_LEN, "seal_writer needs a Writer::framed");
        let mut buf = w.buf;
        let (head, payload) = buf.split_at_mut(HEADER_LEN);
        head[..8].copy_from_slice(MAGIC);
        head[8..12].copy_from_slice(&VERSION.to_le_bytes());
        head[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        head[20..].copy_from_slice(&hash(payload).to_le_bytes());
        buf
    }

    /// Parse and verify a frame, returning its metadata and payload.
    pub fn open(buf: &[u8]) -> Result<(Meta, &[u8]), SnapError> {
        if buf.len() < HEADER_LEN {
            return Err(SnapError::new("frame shorter than header"));
        }
        let meta = parse_header(buf)?;
        let payload = &buf[HEADER_LEN..];
        if payload.len() as u64 != meta.payload_len {
            return Err(SnapError::new(format!(
                "frame declares {} payload bytes, carries {}",
                meta.payload_len,
                payload.len()
            )));
        }
        if hash(payload) != meta.hash {
            return Err(SnapError::new("frame hash mismatch (corrupt payload)"));
        }
        Ok((meta, payload))
    }

    /// Largest payload a *streamed* frame may declare (64 MiB): the most
    /// a peer that keeps sending can make the reader buffer for one
    /// frame. Legitimate streamed frames — fabric messages: a group of
    /// cells, one cell's result payload — are kilobytes.
    pub const MAX_STREAM_PAYLOAD: u64 = 64 << 20;

    fn invalid(msg: impl Into<String>) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, SnapError::new(msg))
    }

    /// Write `payload` to `w` as one sealed frame and flush it.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
        w.write_all(&seal(payload))?;
        w.flush()
    }

    /// Read and verify one sealed frame from a byte stream.
    ///
    /// Returns `Ok(None)` on clean end-of-stream at a frame boundary
    /// (the peer closed between messages). A stream that ends *inside* a
    /// frame, or carries a bad magic/version/length/hash, is an
    /// `InvalidData` error — never a panic, never an unbounded
    /// allocation: lengths above [`MAX_STREAM_PAYLOAD`] are rejected
    /// outright, and the payload buffer grows only with the bytes that
    /// actually arrive, whatever length the header declares.
    ///
    /// # Errors
    ///
    /// The reader's I/O errors, plus `InvalidData` for structurally
    /// invalid frames.
    pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(invalid("stream closed mid-frame header")),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let meta = parse_header(&header).map_err(|e| invalid(e.0))?;
        let payload_len = meta.payload_len;
        if payload_len > MAX_STREAM_PAYLOAD {
            return Err(invalid(format!(
                "frame declares {payload_len} payload bytes, over the \
                 {MAX_STREAM_PAYLOAD}-byte stream limit"
            )));
        }
        let mut payload = Vec::new();
        r.take(payload_len).read_to_end(&mut payload)?;
        if payload.len() as u64 != payload_len {
            return Err(invalid(format!(
                "stream closed mid-frame payload ({} of {payload_len} bytes)",
                payload.len()
            )));
        }
        if hash(&payload) != meta.hash {
            return Err(invalid("frame hash mismatch (corrupt payload)"));
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_snap_bytes();
        assert_eq!(T::from_snap_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX - 7);
        round_trip(u128::MAX / 3);
        round_trip(-42i64);
        round_trip(true);
        round_trip(false);
        round_trip(1.6180339887f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(usize::MAX / 2);
        round_trip(String::from("warm-up cache κλειδί"));
    }

    #[test]
    fn nan_bit_pattern_preserved() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = v.to_snap_bytes();
        assert_eq!(f64::from_snap_bytes(&bytes).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(vec![0u8, 9]));
        round_trip(Option::<u32>::None);
        round_trip(VecDeque::from([7u64, 8, 9]));
        round_trip([1u64, 2, 3]);
        round_trip((1u32, 2u64, true));
        round_trip(vec![Some((1u32, false)), None]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = vec![(1u64, Some(2u32)), (3, None)];
        assert_eq!(a.to_snap_bytes(), a.to_snap_bytes());
    }

    #[test]
    fn truncated_stream_errors() {
        let bytes = 0xABCDu64.to_snap_bytes();
        assert!(u64::from_snap_bytes(&bytes[..7]).is_err());
        // Trailing bytes also rejected by from_snap_bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(u64::from_snap_bytes(&long).is_err());
    }

    #[test]
    fn corrupt_length_does_not_allocate_wildly() {
        // A Vec claiming u64::MAX elements must error, not OOM.
        let mut w = Writer::new();
        u64::MAX.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(Vec::<u8>::from_snap_bytes(&bytes).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: Vec<bool>,
    }
    snap_struct!(Demo { a, b });

    #[derive(Debug, PartialEq)]
    enum Mode {
        Off,
        On,
    }
    snap_enum!(Mode { 0 => Mode::Off, 1 => Mode::On });

    #[test]
    fn macros_round_trip() {
        round_trip(Demo {
            a: 5,
            b: vec![true, false],
        });
        round_trip(Mode::Off);
        round_trip(Mode::On);
        assert!(Mode::from_snap_bytes(&[9]).is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frame_hash_matches_xxh64_reference_vectors() {
        assert_eq!(frame::hash(b""), 0xef46_db37_51d8_e999);
        assert_eq!(frame::hash(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(frame::hash(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
        assert_eq!(
            frame::hash(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn bulk_integer_encoding_equals_element_wise() {
        let values: Vec<u32> = (0..37).map(|i| i * 0x0101_0407).collect();
        let mut bulk = Writer::new();
        u32::encode_slice(&values, &mut bulk);
        let mut each = Writer::new();
        for v in &values {
            v.encode(&mut each);
        }
        assert_eq!(bulk.into_bytes(), each.into_bytes());
    }

    #[test]
    fn sealing_a_framed_writer_in_place_equals_seal() {
        for n in [0usize, 5, 64, 1000] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
            // Under-, exactly- and over-sized reservations alike.
            for capacity in [0, n, 2 * n + 3] {
                let mut w = Writer::framed(capacity);
                w.bytes(&payload);
                assert_eq!(w.len(), n);
                assert_eq!(frame::seal_writer(w), frame::seal(&payload));
            }
            let mut framed = Writer::framed(n);
            framed.bytes(&payload);
            assert_eq!(framed.into_bytes(), payload);
        }
    }

    #[test]
    fn stream_frames_round_trip_and_signal_clean_eof() {
        let mut stream = Vec::new();
        frame::write_frame(&mut stream, b"first").unwrap();
        frame::write_frame(&mut stream, b"").unwrap();
        frame::write_frame(&mut stream, b"third message").unwrap();
        let mut r = std::io::Cursor::new(stream);
        assert_eq!(frame::read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(frame::read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            frame::read_frame(&mut r).unwrap().unwrap(),
            b"third message"
        );
        // Clean EOF at a frame boundary is None, repeatedly.
        assert!(frame::read_frame(&mut r).unwrap().is_none());
        assert!(frame::read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn stream_reader_rejects_torn_and_corrupt_frames() {
        let mut whole = Vec::new();
        frame::write_frame(&mut whole, b"payload bytes").unwrap();
        // Torn header.
        let mut r = std::io::Cursor::new(whole[..frame::HEADER_LEN / 2].to_vec());
        assert!(frame::read_frame(&mut r).is_err());
        // Torn payload.
        let mut r = std::io::Cursor::new(whole[..whole.len() - 3].to_vec());
        assert!(frame::read_frame(&mut r).is_err());
        // Flipped payload bit.
        let mut bad = whole.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(frame::read_frame(&mut std::io::Cursor::new(bad)).is_err());
        // Version skew.
        let mut vers = whole.clone();
        vers[8] ^= 0xFF;
        assert!(frame::read_frame(&mut std::io::Cursor::new(vers)).is_err());
        // Bad magic.
        let mut magic = whole.clone();
        magic[0] = b'Z';
        assert!(frame::read_frame(&mut std::io::Cursor::new(magic)).is_err());
        // A corrupt length field errors without trying to allocate it.
        let mut huge = whole;
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(frame::read_frame(&mut std::io::Cursor::new(huge)).is_err());
    }

    /// A reader that records the largest buffer it is offered.
    struct Offered {
        bytes: Vec<u8>,
        pos: usize,
        largest: usize,
    }

    impl std::io::Read for Offered {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn stream_reader_buffers_only_the_bytes_that_arrive() {
        // A header declaring the largest allowed payload, then 1 KiB.
        let mut bytes = frame::seal(&[]);
        bytes[12..20].copy_from_slice(&frame::MAX_STREAM_PAYLOAD.to_le_bytes());
        bytes.extend_from_slice(&[0xA5; 1024]);
        let mut r = Offered {
            bytes,
            pos: 0,
            largest: 0,
        };
        let err = frame::read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("mid-frame payload (1024 of"),
            "{err}"
        );
        assert_eq!(r.pos, r.bytes.len(), "every byte was read");
        assert!(
            r.largest <= 4 * r.pos,
            "offered a {}-byte buffer for {} bytes delivered",
            r.largest,
            r.pos
        );
    }

    #[test]
    fn frame_round_trip_and_rejects_corruption() {
        let payload = b"hello snapshot".to_vec();
        let framed = frame::seal(&payload);
        let (meta, got) = frame::open(&framed).unwrap();
        assert_eq!(got, payload.as_slice());
        assert_eq!(meta.payload_len, payload.len() as u64);
        assert_eq!(meta.version, frame::VERSION);

        // Flip one payload byte: hash mismatch.
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(frame::open(&bad).is_err());
        // Truncate: length mismatch.
        assert!(frame::open(&framed[..framed.len() - 1]).is_err());
        // Bad magic.
        let mut nomagic = framed.clone();
        nomagic[0] = b'X';
        assert!(frame::open(&nomagic).is_err());
        // Wrong version.
        let mut vers = framed;
        vers[8] ^= 0xFF;
        assert!(frame::open(&vers).is_err());
    }
}
