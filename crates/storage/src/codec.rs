//! The binary codec: one trait, one layout macro, one frame.
//!
//! Everything this workspace turns into bytes — WAL records, checkpoint
//! snapshots, socket messages and control frames — goes through [`Wire`].
//! The codec is written here, once: the primitives and containers are
//! implemented by hand below, and every struct and enum declares its layout
//! next to its definition with [`wire_layout!`](crate::wire_layout), which
//! takes the field names once and generates both directions.
//!
//! The layout rules, which every encoding follows:
//!
//! * integers are little-endian at their declared width; `usize` travels as
//!   `u64`; `bool` is one byte, `0` or `1`;
//! * a struct is its fields in layout order, nothing between them;
//! * an enum is one tag byte — explicit in the layout, never reused — then
//!   the variant's fields;
//! * `Option` is a `bool` then the value; `Vec`/slices are a `u32` count
//!   then the elements; tuples are their members;
//! * decoding never panics: a truncated buffer, an unknown tag, a byte that
//!   is not a canonical `bool`, or a count larger than the bytes that remain
//!   (checked before allocating) yields `None`, which the recovery scan
//!   treats as a torn tail and the socket reader as a corrupt frame;
//! * [`Wire::from_bytes`] rejects trailing bytes, so an accepted encoding is
//!   the only encoding of its value.
//!
//! On a device or a socket a payload travels inside one frame,
//! `[len u32][crc32 u32][payload]`; [`frame_header`], [`frame_len`] and
//! [`frame_matches`] are the only code that knows that shape.

use std::borrow::Cow;

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3), eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append-only encoder.
#[derive(Default)]
pub struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder that will not reallocate below `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc { buf: Vec::with_capacity(bytes) }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    #[inline]
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// A `u32` count, then each item: what `Vec<T>` and `Cow<[T]>` encode
    /// to, for callers that hold only a borrowed slice.
    pub fn slice<T: Wire>(&mut self, items: &[T]) -> &mut Self {
        self.u32(items.len() as u32);
        for item in items {
            item.encode_into(self);
        }
        self
    }

    /// Bytes as they are: no length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Panic-free decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Only `0` and `1` are booleans: [`Enc::bool`] writes nothing else, so
    /// any other byte is corruption, not a second spelling of `true`.
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    #[inline]
    pub fn usize(&mut self) -> Option<usize> {
        self.u64().map(|v| v as usize)
    }
}

/// A value with a byte layout.
///
/// `encode_into` appends to an [`Enc`]; `decode_from` reads the same bytes
/// back from a [`Dec`] and returns `None` — never panics — on anything
/// `encode_into` could not have written.
pub trait Wire: Sized {
    /// Appends this value's encoding.
    fn encode_into(&self, e: &mut Enc);
    /// Decodes one value, consuming exactly what `encode_into` produced.
    fn decode_from(d: &mut Dec<'_>) -> Option<Self>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(128);
        self.encode_into(&mut e);
        e.finish()
    }

    /// Decodes from a buffer, requiring it to be fully consumed.
    fn from_bytes(buf: &[u8]) -> Option<Self> {
        let mut d = Dec::new(buf);
        let v = Self::decode_from(&mut d)?;
        d.is_empty().then_some(v)
    }
}

// The primitives: `Enc` and `Dec` name their methods after the types.
macro_rules! wire_primitives {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode_into(&self, e: &mut Enc) {
                e.$t(*self);
            }
            #[inline]
            fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
                d.$t()
            }
        }
    )*};
}
wire_primitives!(u8, u32, u64, usize, bool);

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode_into(&self, e: &mut Enc) {
        e.slice(self);
    }
    fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
        let len = d.u32()? as usize;
        // Each element consumes at least one byte, so a count beyond the
        // remaining buffer is garbage — reject it before allocating.
        if len > d.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_from(d)?);
        }
        Some(out)
    }
}

/// The same bytes as a `Vec`: a length, then the elements.
impl<T: Wire> Wire for Box<[T]> {
    #[inline]
    fn encode_into(&self, e: &mut Enc) {
        e.slice(self);
    }
    #[inline]
    fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
        Vec::decode_from(d).map(Vec::into_boxed_slice)
    }
}

/// A slice borrowed while encoding (a checkpoint streams a node's state
/// without cloning it), owned once decoded.
impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    #[inline]
    fn encode_into(&self, e: &mut Enc) {
        e.slice(self);
    }
    #[inline]
    fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
        Vec::decode_from(d).map(Cow::Owned)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode_into(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.encode_into(e);
        }
    }
    #[inline]
    fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
        Some(if d.bool()? { Some(T::decode_from(d)?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn encode_into(&self, e: &mut Enc) {
        self.0.encode_into(e);
        self.1.encode_into(e);
    }
    #[inline]
    fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::decode_from(d)?, B::decode_from(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn encode_into(&self, e: &mut Enc) {
        self.0.encode_into(e);
        self.1.encode_into(e);
        self.2.encode_into(e);
    }
    #[inline]
    fn decode_from(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::decode_from(d)?, B::decode_from(d)?, C::decode_from(d)?))
    }
}

/// Declares a type's byte layout and implements [`Wire`] for it, both
/// directions from one field list. Field types are not repeated: decoding
/// infers them from the type's definition, and a field missing from the list
/// fails to compile.
///
/// ```
/// # use regular_storage::{codec::Wire, wire_layout};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, y: u64 }
/// #[derive(Debug, PartialEq)]
/// struct Id(u32);
/// #[derive(Debug, PartialEq)]
/// enum Shape<T> { Dot, At(Point), Tagged { id: Id, what: T } }
///
/// wire_layout! { struct Point { x, y } }
/// wire_layout! { struct Id(id) }
/// wire_layout! { enum Shape<T> { 0 => Dot, 1 => At(p), 2 => Tagged { id, what } } }
///
/// let shape = Shape::Tagged { id: Id(7), what: true };
/// assert_eq!(shape.to_bytes(), [2, 7, 0, 0, 0, 1]);
/// assert_eq!(Shape::from_bytes(&[2, 7, 0, 0, 0, 1]), Some(shape));
/// assert_eq!(Shape::<bool>::TAGS, [0, 1, 2]);
/// ```
///
/// A struct is its fields in the order listed (which need not be the order
/// of definition). An enum is the variant's tag byte, then its fields; tags
/// are written out because they are the format — reordering variants must
/// not change bytes already on a device — and the generated `TAGS` constant
/// lists them so a test can demand a sample of every variant. One type or
/// lifetime parameter is accepted (`enum Frame<M>`, `struct Snap<'a>`); a
/// type parameter is bounded by `Wire`.
#[macro_export]
macro_rules! wire_layout {
    (struct $name:ident $(<$lt:lifetime>)? { $($f:ident),* $(,)? }) => {
        impl $(<$lt>)? $crate::codec::Wire for $name $(<$lt>)? {
            #[inline]
            fn encode_into(&self, e: &mut $crate::codec::Enc) {
                let Self { $($f),* } = self;
                $($crate::codec::Wire::encode_into($f, e);)*
            }
            #[inline]
            fn decode_from(d: &mut $crate::codec::Dec<'_>) -> Option<Self> {
                Some(Self { $($f: $crate::codec::Wire::decode_from(d)?),* })
            }
        }
    };
    (struct $name:ident($($f:ident),*)) => {
        impl $crate::codec::Wire for $name {
            #[inline]
            fn encode_into(&self, e: &mut $crate::codec::Enc) {
                let Self($($f),*) = self;
                $($crate::codec::Wire::encode_into($f, e);)*
            }
            #[inline]
            fn decode_from(d: &mut $crate::codec::Dec<'_>) -> Option<Self> {
                Some(Self($($crate::wire_layout!(@decode d $f)),*))
            }
        }
    };
    (enum $name:ident $(<$g:ident>)? {
        $($tag:literal => $v:ident $({ $($f:ident),* $(,)? })? $(($($t:ident),*))?),* $(,)?
    }) => {
        impl<$($g)?> $name<$($g)?> {
            /// Every variant's tag byte, in layout order.
            pub const TAGS: &'static [u8] = &[$($tag),*];
        }
        impl<$($g: $crate::codec::Wire)?> $crate::codec::Wire for $name<$($g)?> {
            fn encode_into(&self, e: &mut $crate::codec::Enc) {
                match self {$(
                    Self::$v $({ $($f),* })? $(($($t),*))? => {
                        e.u8($tag);
                        $($($crate::codec::Wire::encode_into($f, e);)*)?
                        $($($crate::codec::Wire::encode_into($t, e);)*)?
                    }
                )*}
            }
            fn decode_from(d: &mut $crate::codec::Dec<'_>) -> Option<Self> {
                Some(match d.u8()? {
                    $($tag => Self::$v
                        $({ $($f: $crate::codec::Wire::decode_from(d)?),* })?
                        $(($($crate::wire_layout!(@decode d $t)),*))?,)*
                    _ => return None,
                })
            }
        }
    };
    // One decoded positional field; the binder only counts it.
    (@decode $d:ident $binder:ident) => {
        $crate::codec::Wire::decode_from($d)?
    };
}

/// Bytes of frame header before a payload: `[len u32][crc32 u32]`.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one frame's payload. Records and messages are a few
/// hundred bytes; a length field beyond this is corruption.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// The header that frames `payload`: its length and checksum.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// The payload length `header` announces, `None` when it is beyond
/// [`MAX_FRAME_LEN`] — a corrupted header, not something to allocate for.
pub fn frame_len(header: &[u8; FRAME_HEADER]) -> Option<usize> {
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    (len <= MAX_FRAME_LEN).then_some(len)
}

/// Is `payload` the intact payload `header` was written for?
pub fn frame_matches(header: &[u8; FRAME_HEADER], payload: &[u8]) -> bool {
    frame_len(header) == Some(payload.len()) && header[4..] == crc32(payload).to_le_bytes()
}

/// Test support for layout tables: every `(value, golden hex)` sample must
/// encode to exactly its golden bytes (the format is pinned, not merely
/// self-consistent), decode back to itself, and decode to `None` from every
/// strict prefix; and every tag in `tags` (an enum's generated `TAGS`) must
/// open some sample, so a variant added without a sample fails.
pub fn check_layout<T: Wire + PartialEq + std::fmt::Debug>(tags: &[u8], samples: &[(T, &str)]) {
    for (value, golden) in samples {
        let bytes = value.to_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, *golden, "the bytes of {value:?} changed");
        assert_eq!(T::from_bytes(&bytes).as_ref(), Some(value), "round trip of {value:?}");
        for cut in 0..bytes.len() {
            assert_eq!(T::from_bytes(&bytes[..cut]), None, "{value:?} cut at {cut} decoded");
        }
    }
    for tag in tags {
        let sampled = samples.iter().any(|(value, _)| value.to_bytes()[0] == *tag);
        assert!(sampled, "no sample for the variant with tag {tag}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step CRC the sliced one replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_crc32_equals_bytewise_at_every_length_and_alignment() {
        // A backing buffer whose start is 8-aligned, so `align` really is the
        // slice's address modulo 8.
        let words: Vec<u64> = (0..520u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let base = bytes.as_ptr() as usize % 8;
        for align in 0..8 {
            let start = (8 + align - base) % 8;
            for len in 0..=4099 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} align {align}");
            }
        }
    }

    #[test]
    fn primitives_and_containers_pin_their_bytes() {
        type Sample = ((u8, bool, u32), (u64, Option<usize>, Vec<u8>));
        let sample: Sample = ((7, true, 0xDEAD_BEEF), (u64::MAX, Some(3), b"hello".to_vec()));
        let golden = "0701efbeaddeffffffffffffffff0103000000000000000500000068656c6c6f";
        check_layout(&[], &[(sample, golden)]);
        check_layout(&[], &[(Cow::Borrowed(&[(1u64, false)][..]), "01000000010000000000000000")]);
        assert_eq!(<(u8, u8)>::from_bytes(&[1, 2, 3]), None, "trailing byte");
    }

    #[test]
    fn only_zero_and_one_are_booleans() {
        assert_eq!(bool::from_bytes(&[0]), Some(false));
        assert_eq!(bool::from_bytes(&[1]), Some(true));
        for byte in 2..=u8::MAX {
            assert_eq!(bool::from_bytes(&[byte]), None, "{byte} decoded as a bool");
            assert_eq!(Option::<u8>::from_bytes(&[byte, 9]), None, "{byte} decoded as Some");
        }
    }

    #[test]
    fn a_count_beyond_the_buffer_is_rejected_before_allocating() {
        let hostile = u32::MAX.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(&hostile), None);
        assert_eq!(Cow::<[u8]>::from_bytes(&hostile), None);
    }

    #[test]
    fn frames_verify_their_length_and_checksum() {
        let header = frame_header(b"payload");
        assert_eq!(frame_len(&header), Some(7));
        assert!(frame_matches(&header, b"payload"));
        assert!(!frame_matches(&header, b"paylaod"));
        assert!(!frame_matches(&header, b"payload!"));
        let mut absurd = header;
        absurd[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(frame_len(&absurd), None);
    }
}
