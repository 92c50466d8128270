//! Compact binary encoding of interval traces.
//!
//! Simulated masking traces are expensive to produce (minutes of detailed
//! timing simulation); this module lets benchmark harnesses cache them on
//! disk. The format is deliberately simple: a magic/version header, a
//! segment count, then `(u64 length, f64 vulnerability)` pairs, all
//! little-endian.

use serr_types::SerrError;

use crate::{IntervalTrace, Segment};

const MAGIC: &[u8; 4] = b"SERT";
const VERSION: u8 = 1;
const HEADER_LEN: usize = 4 + 1 + 8;
const SEGMENT_LEN: usize = 8 + 8;

/// Serializes an [`IntervalTrace`] to the compact binary format.
///
/// ```
/// use serr_trace::{decode_interval_trace, encode_interval_trace, IntervalTrace};
/// let t = IntervalTrace::busy_idle(10, 20).unwrap();
/// let bytes = encode_interval_trace(&t);
/// assert_eq!(decode_interval_trace(&bytes).unwrap(), t);
/// ```
#[must_use]
pub fn encode_interval_trace(trace: &IntervalTrace) -> Vec<u8> {
    let segs: Vec<Segment> = trace.segments().collect();
    let mut buf = Vec::with_capacity(HEADER_LEN + segs.len() * SEGMENT_LEN);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(segs.len() as u64).to_le_bytes());
    for s in segs {
        buf.extend_from_slice(&s.len.to_le_bytes());
        buf.extend_from_slice(&s.vulnerability.to_le_bytes());
    }
    buf
}

/// Deserializes a trace produced by [`encode_interval_trace`].
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] on a bad magic, unsupported version,
/// truncated input, or invalid segment contents.
pub fn decode_interval_trace(bytes: &[u8]) -> Result<IntervalTrace, SerrError> {
    if bytes.len() < HEADER_LEN {
        return Err(SerrError::invalid_trace("encoded trace truncated before header"));
    }
    let (header, body) = bytes.split_at(HEADER_LEN);
    if &header[..4] != MAGIC {
        return Err(SerrError::invalid_trace("bad magic in encoded trace"));
    }
    let version = header[4];
    if version != VERSION {
        return Err(SerrError::invalid_trace(format!("unsupported trace version {version}")));
    }
    let count = u64::from_le_bytes(le8(&header[5..]));
    let need = (count as usize)
        .checked_mul(SEGMENT_LEN)
        .ok_or_else(|| SerrError::invalid_trace("segment count overflows"))?;
    if body.len() != need {
        return Err(SerrError::invalid_trace(format!(
            "expected {need} bytes of segments, found {}",
            body.len()
        )));
    }
    let mut segments = Vec::with_capacity(count as usize);
    for pair in body.chunks_exact(SEGMENT_LEN) {
        let len = u64::from_le_bytes(le8(&pair[..8]));
        segments.push(Segment::new(len, f64::from_le_bytes(le8(&pair[8..])))?);
    }
    IntervalTrace::from_segments(segments)
}

/// The first eight bytes of `b`, which the callers have length-checked.
fn le8(b: &[u8]) -> [u8; 8] {
    b[..8].try_into().expect("caller checked the length")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let t = IntervalTrace::busy_idle(100, 50).unwrap();
        let enc = encode_interval_trace(&t);
        assert_eq!(decode_interval_trace(&enc).unwrap(), t);
    }

    /// Pins the on-disk image the trace cache stores, so a layout change
    /// that still round-trips cannot silently invalidate existing entries.
    #[test]
    fn busy_idle_encodes_to_the_pinned_byte_image() {
        let t = IntervalTrace::busy_idle(10, 20).unwrap();
        #[rustfmt::skip]
        let expected: [u8; 45] = [
            b'S', b'E', b'R', b'T', 1,             // magic, version
            2, 0, 0, 0, 0, 0, 0, 0,                // segment count
            10, 0, 0, 0, 0, 0, 0, 0,               // len 10
            0, 0, 0, 0, 0, 0, 0xf0, 0x3f,          // vulnerability 1.0
            20, 0, 0, 0, 0, 0, 0, 0,               // len 20
            0, 0, 0, 0, 0, 0, 0, 0,                // vulnerability 0.0
        ];
        assert_eq!(encode_interval_trace(&t)[..], expected[..]);
    }

    #[test]
    fn roundtrip_fractional_levels() {
        let levels: Vec<f64> = (0..257).map(|i| (i % 17) as f64 / 16.0).collect();
        let t = IntervalTrace::from_levels(&levels).unwrap();
        let enc = encode_interval_trace(&t);
        let dec = decode_interval_trace(&enc).unwrap();
        assert_eq!(dec, t);
    }

    #[test]
    fn rejects_corruption() {
        let t = IntervalTrace::busy_idle(4, 4).unwrap();
        let enc = encode_interval_trace(&t);

        // Truncated.
        assert!(decode_interval_trace(&enc[..enc.len() - 1]).is_err());
        assert!(decode_interval_trace(&enc[..5]).is_err());
        assert!(decode_interval_trace(&[]).is_err());

        // Bad magic.
        let mut bad = enc.clone();
        bad[0] = b'X';
        assert!(decode_interval_trace(&bad).is_err());

        // Bad version.
        let mut bad = enc.clone();
        bad[4] = 99;
        assert!(decode_interval_trace(&bad).is_err());

        // Vulnerability out of range.
        let mut bad = enc;
        let vuln_offset = 4 + 1 + 8 + 8;
        bad[vuln_offset..vuln_offset + 8].copy_from_slice(&2.0f64.to_le_bytes());
        assert!(decode_interval_trace(&bad).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = IntervalTrace::busy_idle(4, 4).unwrap();
        let mut enc = encode_interval_trace(&t);
        enc.push(0);
        assert!(decode_interval_trace(&enc).is_err());
    }
}
