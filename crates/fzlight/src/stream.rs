//! Owned compressed stream: serialized header + body, ready to be sent over a
//! wire or operated on homomorphically.

use crate::error::{Error, Result};
use crate::header::{Fzl, Header, Layout};
use std::marker::PhantomData;

/// An owned, self-describing compressed stream of the family `L`.
///
/// The in-memory representation is exactly the wire representation
/// ([`Stream::as_bytes`]), so sending a stream through a communication layer
/// and re-materializing it on the other side ([`Stream::from_bytes`]) costs
/// one header parse and no copies of the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream<L> {
    bytes: Vec<u8>,
    header: Header,
    body_start: usize,
    layout: PhantomData<L>,
}

/// An fZ-light stream — the only family the homomorphic operators accept.
pub type CompressedStream = Stream<Fzl>;

impl<L: Layout> Stream<L> {
    /// Assemble a stream from its chunk payloads, in chunk order: the offset
    /// table is their running length, and header and payloads are written
    /// straight into the wire buffer.
    ///
    /// Used by the compressors and by the homomorphic operators.
    pub fn from_chunks(n: usize, eb: f64, block_len: usize, chunks: &[Vec<u8>]) -> Self {
        let mut offsets = Vec::with_capacity(chunks.len() + 1);
        offsets.push(0u64);
        offsets.extend(chunks.iter().scan(0u64, |end, c| {
            *end += c.len() as u64;
            Some(*end)
        }));
        let nchunks = chunks.len() as u32;
        let header = Header { n: n as u64, eb, block_len: block_len as u32, nchunks, offsets };
        let body_start = Header::serialized_len(chunks.len());
        let mut bytes = Vec::with_capacity(body_start + header.body_len());
        header.write_to::<L>(&mut bytes);
        debug_assert_eq!(bytes.len(), body_start);
        chunks.iter().for_each(|c| bytes.extend_from_slice(c));
        Stream { bytes, header, body_start, layout: PhantomData }
    }

    /// Parse a stream from raw bytes (e.g. received from the network).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let (header, body_start) = Header::parse::<L>(&bytes)?;
        let need = body_start + header.body_len();
        if bytes.len() < need {
            return Err(Error::Truncated { need, have: bytes.len() });
        }
        if bytes.len() > need {
            return Err(Error::Corrupt("trailing bytes after body"));
        }
        Ok(Stream { bytes, header, body_start, layout: PhantomData })
    }

    /// The full wire representation (header + body).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the stream, yielding the wire bytes without copying.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Element count of the original data.
    pub fn n(&self) -> usize {
        self.header.n as usize
    }

    /// Resolved absolute error bound.
    pub fn eb(&self) -> f64 {
        self.header.eb
    }

    /// Chunk count (fZ-light thread-chunks, ompSZp thread groups).
    pub fn nchunks(&self) -> usize {
        self.header.nchunks as usize
    }

    /// Small-block length.
    pub fn block_len(&self) -> usize {
        self.header.block_len as usize
    }

    /// Payload bytes of chunk `i`.
    pub fn chunk_payload(&self, i: usize) -> &[u8] {
        let r = self.header.chunk_range(i);
        &self.bytes[self.body_start + r.start..self.body_start + r.end]
    }

    /// Total compressed size in bytes (header + body), i.e. what travels on
    /// the wire.
    pub fn compressed_size(&self) -> usize {
        self.bytes.len()
    }

    /// Original (uncompressed) size in bytes.
    pub fn original_size(&self) -> usize {
        self.n() * std::mem::size_of::<f32>()
    }

    /// Compression ratio `original / compressed`.
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        self.original_size() as f64 / self.compressed_size() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, Config, ErrorBound};

    fn sample_stream() -> CompressedStream {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).cos()).collect();
        compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(3)).unwrap()
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let s = sample_stream();
        let s2 = CompressedStream::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(s, s2);
        assert_eq!(s.header(), s2.header());
    }

    #[test]
    fn chunk_payloads_tile_the_body() {
        let s = sample_stream();
        let total: usize = (0..s.nchunks()).map(|i| s.chunk_payload(i).len()).sum();
        assert_eq!(total, s.header().body_len());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_stream().into_bytes();
        bytes.push(0);
        assert!(matches!(
            CompressedStream::from_bytes(bytes),
            Err(Error::Corrupt("trailing bytes after body"))
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let bytes = sample_stream().into_bytes();
        let cut = bytes.len() - 3;
        assert!(CompressedStream::from_bytes(bytes[..cut].to_vec()).is_err());
    }

    #[test]
    fn ratio_reports_sensible_value() {
        let s = sample_stream();
        assert!(s.ratio() > 1.0);
        assert_eq!(s.original_size(), 5000 * 4);
    }
}
