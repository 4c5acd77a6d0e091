//! ompSZp stream format.
//!
//! ```text
//! Header (little-endian):
//!   magic   "OSZP"          4 B
//!   version u32             = 1
//!   n       u64             element count (f32)
//!   eb      f64             absolute error bound
//!   blk     u32             block length (default 32)
//!   ngroups u32             thread-group count (block-cyclic ownership)
//!   offs    (ngroups+1)*u64 byte offsets of group payloads in body
//! Body: per group, the records of blocks t, t+T, t+2T, … in order:
//!   marker  u8              0xFF = zero block elided; else code length c
//!   if marker != 0xFF:
//!     outlier i32           first quantization integer of the block
//!     if c > 0:
//!       signs  ceil(L/8) B  LSB-first sign bitmap of the deltas
//!       planes c*ceil(L/8)  bit-shuffled magnitude planes
//! ```

use fzlight::header::Layout;
use fzlight::stream::Stream;

/// Marker byte for an elided all-zero block.
pub(crate) const ZERO_BLOCK: u8 = 0xFF;

/// ompSZp's layout: thread groups that own whole blocks block-cyclically, so
/// a stream holds at most one group per block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oszp;

impl Layout for Oszp {
    const MAGIC: [u8; 4] = *b"OSZP";
    fn max_parts(n: u64, block_len: u32) -> u64 {
        n.div_ceil(block_len as u64)
    }
}

/// An owned ompSZp compressed stream (wire representation in memory): the
/// container and header parser of `fzlight` under ompSZp's magic, and a
/// distinct type, so it cannot reach the homomorphic operators.
pub type OszpStream = Stream<Oszp>;

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::header::{Fzl, Header};
    use fzlight::Error;

    /// The hostile-header table, over both stream families: every row is a
    /// header the one shared parser must refuse with a typed error.
    fn hostile_headers<L: Layout>(foreign_magic: [u8; 4]) {
        let valid = Header { n: 64, eb: 1e-4, block_len: 32, nchunks: 2 };
        let bytes = |h: &Header, table: &[u64]| {
            let mut buf = Vec::new();
            h.write_to::<L>(table.iter().copied(), &mut buf);
            buf
        };
        let buf = bytes(&valid, &[0, 9, 20]);
        let start = Header::serialized_len(2);
        assert_eq!(Header::parse::<L>(&buf).unwrap(), (valid, start..start + 20));

        let corrupt = |buf: &[u8]| matches!(Header::parse::<L>(buf), Err(Error::Corrupt(_)));
        let poked = |at: usize, with: &[u8]| {
            let mut bad = buf.clone();
            bad[at..at + with.len()].copy_from_slice(with);
            bad
        };
        assert!(corrupt(&poked(0, &foreign_magic)), "the other family's magic");
        assert!(corrupt(&poked(4, &9u32.to_le_bytes())), "unknown version");
        assert!(corrupt(&poked(16, &0f64.to_le_bytes())), "zero error bound");
        assert!(corrupt(&poked(16, &f64::NAN.to_le_bytes())), "NaN error bound");
        assert!(corrupt(&poked(24, &0u32.to_le_bytes())), "zero block length");
        assert!(corrupt(&poked(24, &65u32.to_le_bytes())), "block length over the maximum");
        assert!(corrupt(&poked(28, &0u32.to_le_bytes())), "elements but no chunks");
        assert!(corrupt(&bytes(&valid, &[1, 9, 20])));
        assert!(corrupt(&bytes(&valid, &[0, 30, 20])));
        // a body no address space holds: refused, never wrapped round into a
        // small length or an overflow panic
        let huge = bytes(&Header { nchunks: 1, ..valid }, &[0, u64::MAX]);
        assert!(corrupt(&huge), "last offset u64::MAX");
        assert!(matches!(Stream::<L>::from_bytes(huge), Err(Error::Corrupt(_))));
        // more parts than the layout can fill, with the table to match: the
        // count is refused before anything is sized from it
        let parts = L::max_parts(valid.n, valid.block_len) as u32 + 1;
        let crowded = Header { nchunks: parts, ..valid };
        assert!(corrupt(&bytes(&crowded, &vec![0; parts as usize + 1])));
        // 2^40 elements over a 5-byte body (an fZ-light outlier and one
        // constant block): every block record takes a byte, so the element
        // count is refused before a decoder sizes its output from it
        let mut vast = bytes(&Header { n: 1 << 40, nchunks: 1, ..valid }, &[0, 5]);
        vast.extend_from_slice(&[0, 0, 0, 0, 0]);
        assert_eq!(vast.len(), 53);
        assert!(corrupt(&vast), "more elements than the body holds");
        assert!(matches!(Stream::<L>::from_bytes(vast), Err(Error::Corrupt(_))));
        for cut in 0..buf.len() {
            let got = Header::parse::<L>(&buf[..cut]);
            assert!(matches!(got, Err(Error::Truncated { .. })), "cut {cut}: {got:?}");
        }
    }

    #[test]
    fn the_shared_parser_refuses_hostile_headers_under_both_magics() {
        hostile_headers::<Fzl>(Oszp::MAGIC);
        hostile_headers::<Oszp>(Fzl::MAGIC);
    }

    #[test]
    fn stream_rejects_trailing_and_truncated() {
        let s = OszpStream::from_chunks(64, 1e-4, 32, [[ZERO_BLOCK], [ZERO_BLOCK]]);
        let mut longer = s.as_bytes().to_vec();
        longer.push(7);
        assert!(matches!(OszpStream::from_bytes(longer), Err(Error::Corrupt(_))));
        let shorter = s.as_bytes()[..s.compressed_size() - 1].to_vec();
        assert!(matches!(OszpStream::from_bytes(shorter), Err(Error::Truncated { .. })));
    }
}
