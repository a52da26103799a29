//! Fixed-layout wire encoding for typed messages.
//!
//! Simnet messages are byte vectors; this module provides the little-endian
//! codec that turns records into bytes and back. It is deliberately a plain
//! hand-rolled format (no serde): the message hot path of the SSSP kernel
//! encodes billions of 16-byte relaxation records, and a fixed-layout codec
//! keeps that a couple of `to_le_bytes` stores — the same reasoning the
//! Performance Book applies to serialization-heavy inner loops.

/// A type with a fixed-size little-endian wire layout.
pub trait Wire: Sized {
    /// Encoded size in bytes (constant per type).
    const SIZE: usize;

    /// Append the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Decode from `buf[*pos..]`, advancing `*pos`. `None` if truncated.
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self>;

    /// Append the encodings of `items` to `out`: record by record, unless
    /// the type knows better (a run of bytes is one copy).
    fn write_slice(items: &[Self], out: &mut Vec<u8>) {
        for it in items {
            it.write(out);
        }
    }

    /// Decode `buf`, a whole number of records, to the last byte.
    fn read_slice(buf: &[u8]) -> Option<Vec<Self>> {
        let mut out = Vec::with_capacity(buf.len() / Self::SIZE.max(1));
        let mut pos = 0;
        while pos < buf.len() {
            out.push(Self::read(buf, &mut pos)?);
        }
        Some(out)
    }
}

macro_rules! wire_prim {
    ($t:ty) => {
        impl Wire for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
                let end = pos.checked_add(Self::SIZE)?;
                let bytes = buf.get(*pos..end)?;
                *pos = end;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    };
}

wire_prim!(u16);
wire_prim!(u32);
wire_prim!(u64);
wire_prim!(i32);
wire_prim!(i64);
wire_prim!(f32);
wire_prim!(f64);

/// A byte is its own encoding, so a slice of them moves as one copy: the
/// compressed update blocks and the grouped exchange's bundles are `Vec<u8>`
/// payloads, megabytes a superstep.
impl Wire for u8 {
    const SIZE: usize = 1;

    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    #[inline]
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        Some(b)
    }

    fn write_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn read_slice(buf: &[u8]) -> Option<Vec<u8>> {
        Some(buf.to_vec())
    }
}

impl Wire for () {
    const SIZE: usize = 0;

    #[inline]
    fn write(&self, _out: &mut Vec<u8>) {}

    #[inline]
    fn read(_buf: &[u8], _pos: &mut usize) -> Option<Self> {
        Some(())
    }
}

impl Wire for bool {
    const SIZE: usize = 1;

    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    #[inline]
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        Some(b != 0)
    }
}

/// A tuple is its fields back to back.
macro_rules! wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const SIZE: usize = 0 $(+ $t::SIZE)+;

            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                $(self.$i.write(out);)+
            }

            #[inline]
            fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
                Some(($($t::read(buf, pos)?,)+))
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);
wire_tuple!(A.0, B.1, C.2, D.3);
wire_tuple!(A.0, B.1, C.2, D.3, E.4);

/// Encode a slice of records into a fresh byte buffer.
pub fn encode_slice<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(items.len() * T::SIZE);
    T::write_slice(items, &mut out);
    out
}

/// Why a payload failed to decode as a vector of records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Payload length in bytes.
    pub len: usize,
    /// Wire size of the requested record type.
    pub elem_size: usize,
}

/// Decode a whole buffer of records, reporting the payload length and
/// record size on failure so callers can surface a diagnosable transport
/// error (see [`TransportError::Decode`]) instead of silently truncating.
///
/// [`TransportError::Decode`]: crate::transport::TransportError::Decode
pub fn decode_vec_checked<T: Wire>(buf: &[u8]) -> Result<Vec<T>, DecodeError> {
    decode_vec(buf).ok_or(DecodeError {
        len: buf.len(),
        elem_size: T::SIZE,
    })
}

/// Decode a whole buffer of records. `None` if the length is not a multiple
/// of the record size or a record is malformed.
pub fn decode_vec<T: Wire>(buf: &[u8]) -> Option<Vec<T>> {
    if T::SIZE == 0 {
        return if buf.is_empty() {
            Some(Vec::new())
        } else {
            None
        };
    }
    if !buf.len().is_multiple_of(T::SIZE) {
        return None;
    }
    T::read_slice(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        42u64.write(&mut buf);
        (-7i64).write(&mut buf);
        1.5f32.write(&mut buf);
        true.write(&mut buf);
        let mut pos = 0;
        assert_eq!(u64::read(&buf, &mut pos), Some(42));
        assert_eq!(i64::read(&buf, &mut pos), Some(-7));
        assert_eq!(f32::read(&buf, &mut pos), Some(1.5));
        assert_eq!(bool::read(&buf, &mut pos), Some(true));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn tuples_roundtrip() {
        let rec = (3u64, 0.5f32, 9u32);
        let buf = encode_slice(&[rec]);
        assert_eq!(buf.len(), <(u64, f32, u32)>::SIZE);
        assert_eq!(decode_vec::<(u64, f32, u32)>(&buf), Some(vec![rec]));
    }

    #[test]
    fn slice_roundtrip() {
        let recs: Vec<(u32, u32)> = (0..100).map(|i| (i, i * 2)).collect();
        let buf = encode_slice(&recs);
        assert_eq!(decode_vec::<(u32, u32)>(&buf), Some(recs));
    }

    #[test]
    fn byte_slices_roundtrip_as_one_copy() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(encode_slice(&bytes), bytes);
        assert_eq!(decode_vec::<u8>(&bytes), Some(bytes.clone()));
        assert_eq!(decode_vec::<u8>(&[]), Some(Vec::new()));
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = encode_slice(&[7u64]);
        assert_eq!(decode_vec::<u64>(&buf[..7]), None);
        let mut pos = 0;
        assert_eq!(u64::read(&buf[..7], &mut pos), None);
    }

    #[test]
    fn checked_decode_reports_sizes() {
        let buf = encode_slice(&[7u64]);
        assert_eq!(decode_vec_checked::<u64>(&buf), Ok(vec![7]));
        assert_eq!(
            decode_vec_checked::<u64>(&buf[..7]),
            Err(DecodeError {
                len: 7,
                elem_size: 8
            })
        );
    }

    #[test]
    fn unit_type() {
        let buf = encode_slice::<()>(&[(), ()]);
        assert!(buf.is_empty());
        assert_eq!(decode_vec::<()>(&buf), Some(vec![]));
        assert_eq!(decode_vec::<()>(&[1u8]), None);
    }
}
