//! Stream header: parameters plus the per-chunk offset table that enables
//! parallel decompression and chunk-aligned homomorphic operation. One
//! header format serves every stream family of the workspace; a [`Layout`]
//! tells them apart.

use crate::error::{Error, Result};

/// Stream format version.
pub const VERSION: u32 = 1;

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

/// Parsed stream header.
#[derive(Debug, Clone, PartialEq)]
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
    /// `nchunks + 1` byte offsets into the body; chunk `i` occupies
    /// `offsets[i]..offsets[i+1]`. An empty stream (`n == 0`, `nchunks == 0`)
    /// stores the single terminator `[0]`.
    pub offsets: Vec<u64>,
}

/// Fixed-size prefix before the offset table, in bytes.
const FIXED: usize = 4 + 4 + 8 + 8 + 4 + 4;

impl Header {
    /// Serialized header size for a given chunk count.
    pub fn serialized_len(nchunks: usize) -> usize {
        FIXED + (nchunks + 1) * 8
    }

    /// Total body (payload) length in bytes.
    pub fn body_len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Byte range of chunk `i` within the body.
    pub fn chunk_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Append the serialized header to `out`.
    pub fn write_to<L: Layout>(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&L::MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&self.block_len.to_le_bytes());
        out.extend_from_slice(&self.nchunks.to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
    }

    /// Parse a header from the front of `bytes`; returns the header and the
    /// byte offset where the body starts.
    pub fn parse<L: Layout>(bytes: &[u8]) -> Result<(Header, usize)> {
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
        let need = Header::serialized_len(nchunks as usize);
        if bytes.len() < need {
            return Err(Error::Truncated { need, have: bytes.len() });
        }
        let offsets: Vec<u64> = bytes[FIXED..need]
            .chunks_exact(8)
            .map(|o| u64::from_le_bytes(o.try_into().unwrap()))
            .collect();
        if offsets[0] != 0 {
            return Err(Error::Corrupt("first offset must be zero"));
        }
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(Error::Corrupt("offsets not monotone"));
        }
        Ok((Header { n, eb, block_len, nchunks, offsets }, need))
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

    fn sample() -> Header {
        Header { n: 100, eb: 1e-4, block_len: 32, nchunks: 2, offsets: vec![0, 40, 77] }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = Vec::new();
        h.write_to::<Fzl>(&mut buf);
        assert_eq!(buf.len(), Header::serialized_len(2));
        let (h2, body) = Header::parse::<Fzl>(&buf).unwrap();
        assert_eq!(h, h2);
        assert_eq!(body, buf.len());
        assert_eq!(h2.body_len(), 77);
        assert_eq!(h2.chunk_range(1), 40..77);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample().write_to::<Fzl>(&mut buf);
        buf[0] = b'X';
        assert!(matches!(Header::parse::<Fzl>(&buf), Err(Error::Corrupt("bad magic"))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        sample().write_to::<Fzl>(&mut buf);
        buf[4] = 9;
        assert!(Header::parse::<Fzl>(&buf).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        sample().write_to::<Fzl>(&mut buf);
        for cut in 0..buf.len() {
            assert!(Header::parse::<Fzl>(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_monotone_offsets_rejected() {
        let mut h = sample();
        h.offsets = vec![0, 50, 40];
        let mut buf = Vec::new();
        h.write_to::<Fzl>(&mut buf);
        assert!(Header::parse::<Fzl>(&buf).is_err());
    }

    #[test]
    fn nonzero_first_offset_rejected() {
        let mut h = sample();
        h.offsets = vec![1, 50, 60];
        let mut buf = Vec::new();
        h.write_to::<Fzl>(&mut buf);
        assert!(Header::parse::<Fzl>(&buf).is_err());
    }

    #[test]
    fn compatibility_checks() {
        let a = sample();
        let mut b = sample();
        assert!(a.check_compatible(&b).is_ok());
        b.eb = 2e-4;
        assert!(a.check_compatible(&b).is_err());
        b = sample();
        b.nchunks = 3;
        assert!(a.check_compatible(&b).is_err());
        b = sample();
        b.n = 99;
        assert!(a.check_compatible(&b).is_err());
        b = sample();
        b.block_len = 16;
        assert!(a.check_compatible(&b).is_err());
    }

    #[test]
    fn more_chunks_than_elements_rejected() {
        let h = Header { n: 1, eb: 1e-4, block_len: 32, nchunks: 2, offsets: vec![0, 1, 2] };
        let mut buf = Vec::new();
        h.write_to::<Fzl>(&mut buf);
        assert!(Header::parse::<Fzl>(&buf).is_err());
    }
}
