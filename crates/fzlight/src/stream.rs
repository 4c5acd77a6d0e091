//! Owned compressed stream: serialized header + body, ready to be sent over a
//! wire or operated on homomorphically.

use crate::error::{Error, Result};
use crate::header::{table_entry, Fzl, Header, Layout};
use std::marker::PhantomData;

/// An owned, self-describing compressed stream of the family `L`.
///
/// The in-memory representation is exactly the wire representation
/// ([`Stream::as_bytes`]), so sending a stream through a communication layer
/// and re-materializing it on the other side ([`Stream::from_bytes`]) costs
/// one header parse, no copy of the body and no allocation: the offset table
/// is validated and read where it lies in the bytes.
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
    /// Assemble a stream from its chunk payloads, in chunk order, into one
    /// buffer of exactly the stream's size: header, an offset table of their
    /// running lengths, then the payloads, each copied once.
    ///
    /// Used by the compressors and by the homomorphic operators.
    pub fn from_chunks<I>(n: usize, eb: f64, block_len: usize, chunks: I) -> Self
    where
        I: IntoIterator<IntoIter: Clone, Item: AsRef<[u8]>>,
    {
        let chunks = chunks.into_iter();
        let lens = chunks.clone().map(|c| c.as_ref().len());
        let (nchunks, body_len) = lens.clone().fold((0, 0), |(k, len), l| (k + 1, len + l));
        let header =
            Header { n: n as u64, eb, block_len: block_len as u32, nchunks: nchunks as u32 };
        let body_start = Header::serialized_len(nchunks);
        let mut bytes = Vec::with_capacity(body_start + body_len);
        let ends = lens.scan(0u64, |end, l| {
            *end += l as u64;
            Some(*end)
        });
        header.write_to::<L>(std::iter::once(0).chain(ends), &mut bytes);
        debug_assert_eq!(bytes.len(), body_start);
        chunks.for_each(|c| bytes.extend_from_slice(c.as_ref()));
        Stream { bytes, header, body_start, layout: PhantomData }
    }

    /// Parse a stream from raw bytes (e.g. received from the network).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let (header, body) = Header::parse::<L>(&bytes)?;
        if bytes.len() < body.end {
            return Err(Error::Truncated { need: body.end, have: bytes.len() });
        }
        if bytes.len() > body.end {
            return Err(Error::Corrupt("trailing bytes after body"));
        }
        Ok(Stream { bytes, header, body_start: body.start, layout: PhantomData })
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

    /// Payload bytes of chunk `i`, as entries `i` and `i + 1` of the offset
    /// table delimit them.
    pub fn chunk_payload(&self, i: usize) -> &[u8] {
        assert!(i < self.nchunks(), "chunk {i} of a {}-chunk stream", self.nchunks());
        let [start, end] = [i, i + 1].map(|k| table_entry(&self.bytes, k) as usize);
        &self.bytes[self.body_start..][start..end]
    }

    /// Body (all chunk payloads) length in bytes.
    pub fn body_len(&self) -> usize {
        self.bytes.len() - self.body_start
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
        assert_eq!(total, s.body_len());
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
