//! LEB128 varints: the integer primitive of the workspace's one gap+varint
//! coder, `g500_sssp::codec`.
//!
//! At 140 trillion edges id lists dominate network traffic, so the paper's
//! system family ships sorted ids as gaps in a variable-length code (sorted
//! targets have small gaps on a scrambled Kronecker graph's dense blocks).
//! The SSSP message codec does that with these two functions, for the
//! payload-compression optimization ablated in experiments T3/F6.

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
    fn gap_coding_beats_raw_on_clustered_ids() {
        // what the update codec relies on: a sorted, clustered id list's
        // gaps each fit one varint byte
        let adj: Vec<u64> = (1000..2000).collect();
        let mut enc = Vec::new();
        write_varint(&mut enc, adj[0]);
        for w in adj.windows(2) {
            write_varint(&mut enc, w[1] - w[0]);
        }
        assert!(
            enc.len() < adj.len() * 8 / 4,
            "expected ≥4x ratio, got {} bytes",
            enc.len()
        );
    }
}
