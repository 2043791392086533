//! The workspace's one binary codec: every wire message and every
//! persisted image is written and read through [`Wire`].
//!
//! The layout is little-endian fixed-width integers (`usize` as `u64`),
//! `f64` as [`f64::to_bits`] (bit-exact round trips — determinism forbids
//! any text-float detour), length-prefixed strings and sequences, and
//! one-byte tags for enums, options and results. The trait lives here,
//! beside [`crate::StableFingerprint`], and follows the same pattern:
//! each crate implements it for its own types in its own `wire` module,
//! so a type's layout sits next to the type. [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum_unit!`](crate::wire_enum_unit) generate the common shapes, whose encode and
//! decode halves pair up by construction.
//!
//! Framing and checksums live a layer up ([`crate::persist`] frames, the
//! memo-cache image); decoding here assumes a checksum-validated payload
//! and still returns `None` on any structural mismatch. No decoder
//! preallocates from a count it has not bounded by the bytes left.

use std::collections::BTreeMap;

/// A cursor over an encoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Bytes not yet consumed — the bound a decoder checks a count
    /// against before it allocates for it.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once the whole payload was consumed — decoders require this
    /// so trailing garbage can't hide in a valid-looking message.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Symmetric binary encoding. `decode` must accept exactly what `encode`
/// produced (a bit-exact round trip) and reject everything else with
/// `None`.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(1).and_then(|b| b.first()).copied()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::try_from(u64::decode(r)?).ok()
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        String::from_utf8(r.take(len)?.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        // No speculative preallocation from the wire length: a corrupt
        // count fails on the first short `take`, not in the allocator.
        let mut items = Vec::new();
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Some(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            map.insert(k, v);
        }
        Some(map)
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(Ok(T::decode(r)?)),
            1 => Some(Err(E::decode(r)?)),
            _ => None,
        }
    }
}

/// Implements [`Wire`] for a struct with all-[`Wire`] fields, encoded in
/// the listed order.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                #[allow(unused_imports)] // already in scope at some call sites
                use $crate::wire::Wire as _;
                $(self.$field.encode(out);)+
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                Some(Self { $($field: $crate::wire::Wire::decode(r)?),+ })
            }
        }
    };
}

/// Implements [`Wire`] for a fieldless enum as a one-byte tag.
#[macro_export]
macro_rules! wire_enum_unit {
    ($ty:ty { $($tag:literal => $variant:path),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self { $($variant => out.push($tag)),+ }
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($tag => Some($variant),)+
                    _ => None,
                }
            }
        }
    };
}

wire_struct!(crate::CacheStats {
    hits,
    misses,
    inserts,
    evictions,
});

/// Encodes one value to a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes one value, requiring the payload to be fully consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.is_exhausted().then_some(value)
}
