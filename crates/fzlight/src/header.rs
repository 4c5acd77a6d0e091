//! Stream header: parameters plus the per-chunk offset table that enables
//! parallel decompression and chunk-aligned homomorphic operation. One
//! header format serves every stream family of the workspace; a [`Layout`]
//! tells them apart. The table is validated where it lies in the stream's
//! bytes and never copied out of them.

use crate::error::{Error, Result};
use std::ops::Range;

/// Stream format version.
const VERSION: u32 = 1;

/// What tells one stream family from another on the wire.
pub trait Layout {
    /// Stream magic bytes.
    const MAGIC: [u8; 4];
    /// The most independently decodable parts a stream of `n` elements can
    /// be cut into; a header that claims more is corrupt.
    fn max_parts(n: u64, block_len: u32) -> u64;
}

/// fZ-light's layout: contiguous thread-chunks of at least one element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fzl;

impl Layout for Fzl {
    const MAGIC: [u8; 4] = *b"FZL1";
    fn max_parts(n: u64, _block_len: u32) -> u64 {
        n
    }
}

/// A stream's parameters, as parsed from the front of its bytes.
///
/// The per-chunk offset table that follows them on the wire (`nchunks + 1`
/// little-endian `u64`s: chunk `i` occupies body bytes `table[i]..table[i +
/// 1]`, an empty stream stores the single terminator `[0]`) stays in the
/// stream's bytes: [`Header::parse`] validates it in place and
/// [`crate::stream::Stream::chunk_payload`] reads the two entries a chunk
/// needs. So a header is `Copy`, and parsing one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Element count of the original `f32` data.
    pub n: u64,
    /// Resolved *absolute* error bound baked into quantization.
    pub eb: f64,
    /// Small-block length.
    pub block_len: u32,
    /// Count of independently decodable parts: fZ-light's thread-chunks,
    /// ompSZp's thread groups.
    pub nchunks: u32,
}

/// Fixed-size prefix before the offset table, in bytes.
pub(crate) const FIXED: usize = 4 + 4 + 8 + 8 + 4 + 4;

/// Entry `i` of the offset table of the header at the front of `bytes`.
pub(crate) fn table_entry(bytes: &[u8], i: usize) -> u64 {
    let at = FIXED + 8 * i;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Set entry `i` of the offset table of the header at the front of `bytes`.
pub(crate) fn set_table_entry(bytes: &mut [u8], i: usize, offset: u64) {
    let at = FIXED + 8 * i;
    bytes[at..at + 8].copy_from_slice(&offset.to_le_bytes());
}

impl Header {
    /// Serialized header size for a given chunk count.
    pub fn serialized_len(nchunks: usize) -> usize {
        FIXED + (nchunks + 1) * 8
    }

    /// Append the serialized header to `out`: the parameters, then `table`,
    /// the `nchunks + 1` body offsets.
    pub fn write_to<L: Layout>(&self, table: impl IntoIterator<Item = u64>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.params::<L>());
        table.into_iter().for_each(|o| out.extend_from_slice(&o.to_le_bytes()));
    }

    /// The serialized parameters: the header up to its offset table.
    pub(crate) fn params<L: Layout>(&self) -> [u8; FIXED] {
        let mut p = [0; FIXED];
        p[0..4].copy_from_slice(&L::MAGIC);
        p[4..8].copy_from_slice(&VERSION.to_le_bytes());
        p[8..16].copy_from_slice(&self.n.to_le_bytes());
        p[16..24].copy_from_slice(&self.eb.to_le_bytes());
        p[24..28].copy_from_slice(&self.block_len.to_le_bytes());
        p[28..32].copy_from_slice(&self.nchunks.to_le_bytes());
        p
    }

    /// Parse a header from the front of `bytes` and validate its offset table
    /// where it lies; returns the header and the byte range the body must
    /// occupy (`bytes` may end before it: that is for the caller to check).
    pub fn parse<L: Layout>(bytes: &[u8]) -> Result<(Header, Range<usize>)> {
        if bytes.len() < FIXED {
            return Err(Error::Truncated { need: FIXED, have: bytes.len() });
        }
        if bytes[0..4] != L::MAGIC {
            return Err(Error::Corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(Error::Corrupt("unsupported version"));
        }
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let eb = f64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let block_len = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        let nchunks = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        if !(eb.is_finite() && eb > 0.0) {
            return Err(Error::Corrupt("non-positive error bound"));
        }
        if block_len == 0 || block_len as usize > crate::config::MAX_BLOCK_LEN {
            return Err(Error::Corrupt("invalid block length"));
        }
        if n > 0 && nchunks == 0 {
            return Err(Error::Corrupt("non-empty stream with zero chunks"));
        }
        if nchunks as u64 > L::max_parts(n, block_len) {
            return Err(Error::Corrupt("more chunks than the elements can fill"));
        }
        let body_start = Header::serialized_len(nchunks as usize);
        if bytes.len() < body_start {
            return Err(Error::Truncated { need: body_start, have: bytes.len() });
        }
        if table_entry(bytes, 0) != 0 {
            return Err(Error::Corrupt("first offset must be zero"));
        }
        let mut body_len = 0;
        for i in 1..=nchunks as usize {
            let end = table_entry(bytes, i);
            if end < body_len {
                return Err(Error::Corrupt("offsets not monotone"));
            }
            body_len = end;
        }
        // every block record is at least one byte in both layouts, so the
        // element count is refused before anything is sized from it
        if n > body_len.saturating_mul(block_len as u64) {
            return Err(Error::Corrupt("more elements than the body can hold"));
        }
        let body_end = usize::try_from(body_len)
            .ok()
            .and_then(|len| body_start.checked_add(len))
            .ok_or(Error::Corrupt("body length overflows the address space"))?;
        Ok((Header { n, eb, block_len, nchunks }, body_start..body_end))
    }

    /// Check that two headers describe homomorphically compatible streams:
    /// same element count, error bound, block length and chunk layout.
    pub fn check_compatible(&self, other: &Header) -> Result<()> {
        if self.n != other.n {
            return Err(Error::Mismatch("element counts differ"));
        }
        if self.eb.to_bits() != other.eb.to_bits() {
            return Err(Error::Mismatch("error bounds differ"));
        }
        if self.block_len != other.block_len {
            return Err(Error::Mismatch("block lengths differ"));
        }
        if self.nchunks != other.nchunks {
            return Err(Error::Mismatch("chunk counts differ"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: Header = Header { n: 100, eb: 1e-4, block_len: 32, nchunks: 2 };

    fn written(h: &Header, table: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        h.write_to::<Fzl>(table.iter().copied(), &mut buf);
        buf
    }

    #[test]
    fn roundtrip() {
        let buf = written(&SAMPLE, &[0, 40, 77]);
        assert_eq!(buf.len(), Header::serialized_len(2));
        let (h2, body) = Header::parse::<Fzl>(&buf).unwrap();
        assert_eq!(h2, SAMPLE);
        assert_eq!(body, buf.len()..buf.len() + 77);
        assert_eq!([1, 2].map(|i| table_entry(&buf, i)), [40, 77]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = written(&SAMPLE, &[0, 40, 77]);
        buf[0] = b'X';
        assert!(matches!(Header::parse::<Fzl>(&buf), Err(Error::Corrupt("bad magic"))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = written(&SAMPLE, &[0, 40, 77]);
        buf[4] = 9;
        assert!(Header::parse::<Fzl>(&buf).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let buf = written(&SAMPLE, &[0, 40, 77]);
        for cut in 0..buf.len() {
            assert!(Header::parse::<Fzl>(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_monotone_offsets_rejected() {
        assert!(Header::parse::<Fzl>(&written(&SAMPLE, &[0, 50, 40])).is_err());
    }

    #[test]
    fn nonzero_first_offset_rejected() {
        assert!(Header::parse::<Fzl>(&written(&SAMPLE, &[1, 50, 60])).is_err());
    }

    #[test]
    fn compatibility_checks() {
        let a = SAMPLE;
        let mut b = SAMPLE;
        assert!(a.check_compatible(&b).is_ok());
        b.eb = 2e-4;
        assert!(a.check_compatible(&b).is_err());
        b = SAMPLE;
        b.nchunks = 3;
        assert!(a.check_compatible(&b).is_err());
        b = SAMPLE;
        b.n = 99;
        assert!(a.check_compatible(&b).is_err());
        b = SAMPLE;
        b.block_len = 16;
        assert!(a.check_compatible(&b).is_err());
    }

    #[test]
    fn more_chunks_than_elements_rejected() {
        let h = Header { n: 1, ..SAMPLE };
        assert!(Header::parse::<Fzl>(&written(&h, &[0, 1, 2])).is_err());
    }
}
