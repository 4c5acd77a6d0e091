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

use fzlight::error::{Error, Result};

/// Marker byte for an elided all-zero block.
pub const ZERO_BLOCK: u8 = 0xFF;
/// Stream magic bytes.
pub const MAGIC: [u8; 4] = *b"OSZP";
/// Stream format version.
pub const VERSION: u32 = 1;

const FIXED: usize = 4 + 4 + 8 + 8 + 4 + 4;

/// Parsed ompSZp header.
#[derive(Debug, Clone, PartialEq)]
pub struct OszpHeader {
    /// Element count of the original data.
    pub n: u64,
    /// Absolute error bound.
    pub eb: f64,
    /// Block length.
    pub block_len: u32,
    /// Thread-group count.
    pub ngroups: u32,
    /// `ngroups + 1` byte offsets into the body.
    pub offsets: Vec<u64>,
}

impl OszpHeader {
    /// Serialized header size for a given group count.
    pub fn serialized_len(ngroups: usize) -> usize {
        FIXED + (ngroups + 1) * 8
    }

    /// Total body length in bytes.
    pub fn body_len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Append the serialized header to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&self.block_len.to_le_bytes());
        out.extend_from_slice(&self.ngroups.to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
    }

    /// Parse a header from the front of `bytes`; returns the header and the
    /// body start offset.
    pub fn parse(bytes: &[u8]) -> Result<(OszpHeader, usize)> {
        if bytes.len() < FIXED {
            return Err(Error::Truncated { need: FIXED, have: bytes.len() });
        }
        if bytes[0..4] != MAGIC {
            return Err(Error::Corrupt("bad magic"));
        }
        if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION {
            return Err(Error::Corrupt("unsupported version"));
        }
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let eb = f64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let block_len = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        let ngroups = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        if !(eb.is_finite() && eb > 0.0) {
            return Err(Error::Corrupt("non-positive error bound"));
        }
        if block_len == 0 || block_len as usize > fzlight::config::MAX_BLOCK_LEN {
            return Err(Error::Corrupt("invalid block length"));
        }
        if n > 0 && ngroups == 0 {
            return Err(Error::Corrupt("non-empty stream with zero groups"));
        }
        let need = FIXED + (ngroups as usize + 1) * 8;
        if bytes.len() < need {
            return Err(Error::Truncated { need, have: bytes.len() });
        }
        let mut offsets = Vec::with_capacity(ngroups as usize + 1);
        let mut prev = 0u64;
        for k in 0..=ngroups as usize {
            let at = FIXED + k * 8;
            let o = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            if (k == 0 && o != 0) || o < prev {
                return Err(Error::Corrupt("bad offset table"));
            }
            prev = o;
            offsets.push(o);
        }
        Ok((OszpHeader { n, eb, block_len, ngroups, offsets }, need))
    }
}

/// An owned ompSZp compressed stream (wire representation in memory).
#[derive(Debug, Clone, PartialEq)]
pub struct OszpStream {
    bytes: Vec<u8>,
    header: OszpHeader,
    body_start: usize,
}

impl OszpStream {
    /// Assemble a stream from a header and its body.
    pub fn from_parts(header: OszpHeader, body: &[u8]) -> Self {
        debug_assert_eq!(header.body_len(), body.len());
        let body_start = OszpHeader::serialized_len(header.ngroups as usize);
        let mut bytes = Vec::with_capacity(body_start + body.len());
        header.write_to(&mut bytes);
        bytes.extend_from_slice(body);
        OszpStream { bytes, header, body_start }
    }

    /// Parse a stream from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let (header, body_start) = OszpHeader::parse(&bytes)?;
        let need = body_start + header.body_len();
        if bytes.len() < need {
            return Err(Error::Truncated { need, have: bytes.len() });
        }
        if bytes.len() > need {
            return Err(Error::Corrupt("trailing bytes after body"));
        }
        Ok(OszpStream { bytes, header, body_start })
    }

    /// Full wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Parsed header.
    pub fn header(&self) -> &OszpHeader {
        &self.header
    }

    /// Element count.
    pub fn n(&self) -> usize {
        self.header.n as usize
    }

    /// Payload of thread group `g`.
    pub fn group_payload(&self, g: usize) -> &[u8] {
        let r = self.header.offsets[g] as usize..self.header.offsets[g + 1] as usize;
        &self.bytes[self.body_start + r.start..self.body_start + r.end]
    }

    /// Total compressed size (header + body).
    pub fn compressed_size(&self) -> usize {
        self.bytes.len()
    }

    /// Compression ratio `original / compressed`.
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        (self.n() * 4) as f64 / self.compressed_size() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_rejections() {
        let h = OszpHeader { n: 64, eb: 1e-4, block_len: 32, ngroups: 2, offsets: vec![0, 9, 20] };
        let mut buf = Vec::new();
        h.write_to(&mut buf);
        let (h2, start) = OszpHeader::parse(&buf).unwrap();
        assert_eq!(h, h2);
        assert_eq!(start, OszpHeader::serialized_len(2));

        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(OszpHeader::parse(&bad).is_err());
        for cut in 0..buf.len() {
            assert!(OszpHeader::parse(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn stream_rejects_trailing_and_truncated() {
        let h = OszpHeader { n: 0, eb: 1e-4, block_len: 32, ngroups: 0, offsets: vec![0] };
        let s = OszpStream::from_parts(h, &[]);
        let mut b = s.as_bytes().to_vec();
        b.push(7);
        assert!(OszpStream::from_bytes(b).is_err());
    }
}
