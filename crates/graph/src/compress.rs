//! Adjacency and integer compression codecs.
//!
//! At 140 trillion edges the CSR target array dominates memory and network
//! traffic, so the paper's system family compresses adjacency with
//! delta + variable-length encoding (sorted neighbor lists have small gaps on
//! a scrambled Kronecker graph's dense blocks). The same varint primitives
//! are reused by the SSSP message codec for the payload-compression
//! optimization ablated in experiment T3/F6.

use crate::types::VertexId;

/// Append `v` to `out` as LEB128 (7 bits per byte, MSB = continuation).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `buf[*pos..]`, advancing `*pos`.
///
/// Returns `None` on truncated input or overlong (> 10 byte) encodings.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encode a *sorted* neighbor list as gap-coded varints: first id absolute,
/// then successive gaps. Panics in debug builds if the list is unsorted.
pub fn encode_adjacency(sorted: &[VertexId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sorted.len() + 4);
    write_varint(&mut out, sorted.len() as u64);
    let mut prev = 0u64;
    for (i, &v) in sorted.iter().enumerate() {
        if i == 0 {
            write_varint(&mut out, v);
        } else {
            debug_assert!(v >= prev, "adjacency must be sorted");
            write_varint(&mut out, v - prev);
        }
        prev = v;
    }
    out
}

/// Inverse of [`encode_adjacency`]. Returns `None` on malformed input.
pub fn decode_adjacency(buf: &[u8]) -> Option<Vec<VertexId>> {
    let mut pos = 0;
    let len = read_varint(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(len);
    let mut prev = 0u64;
    for i in 0..len {
        let d = read_varint(buf, &mut pos)?;
        let v = if i == 0 { d } else { prev.checked_add(d)? };
        out.push(v);
        prev = v;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges_of_ranges() {
        let cases = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn varint_rejects_overlong() {
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn adjacency_roundtrip() {
        let adj: Vec<u64> = vec![3, 7, 8, 100, 1_000_000, 1_000_001];
        let enc = encode_adjacency(&adj);
        assert_eq!(decode_adjacency(&enc), Some(adj));
    }

    #[test]
    fn adjacency_empty() {
        let enc = encode_adjacency(&[]);
        assert_eq!(decode_adjacency(&enc), Some(vec![]));
    }

    #[test]
    fn gap_coding_beats_raw_on_clustered_ids() {
        let adj: Vec<u64> = (1000..2000).collect();
        let enc = encode_adjacency(&adj);
        assert!(
            enc.len() < adj.len() * 8 / 4,
            "expected ≥4x ratio, got {} bytes",
            enc.len()
        );
    }
}
