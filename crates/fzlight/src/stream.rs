//! Owned compressed stream: serialized header + body, ready to be sent over a
//! wire or operated on homomorphically.
//!
//! Every stream a producer returns is built by [`Stream::assemble`] in the
//! buffer it is returned in: the header's bytes are reserved first, chunk
//! kernels that run on the calling thread append their payloads straight
//! behind them, and the header goes in last. Only chunks run on worker
//! threads are copied, once, after the join.

use crate::chunk::{fork_join, workers};
use crate::error::{Error, Result};
use crate::header::{set_table_entry, table_entry, Fzl, Header, Layout, FIXED};
use std::marker::PhantomData;

/// The most unused capacity a returned stream keeps; a buffer with more is
/// shrunk, so a long-lived stream does not hold its producer's estimate.
const SLACK: usize = 4096;

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
    /// Assemble a stream from ready chunk payloads, in chunk order: each is
    /// copied once, behind the header, into a buffer of exactly the stream's
    /// size.
    pub fn from_chunks<I>(n: usize, eb: f64, block_len: usize, chunks: I) -> Self
    where
        I: IntoIterator<IntoIter: ExactSizeIterator + Clone, Item: AsRef<[u8]> + Send>,
    {
        let copy = |_, chunk: I::Item, out: &mut Vec<u8>| {
            out.extend_from_slice(chunk.as_ref());
            Ok(())
        };
        let len = |_, chunk: &I::Item| chunk.as_ref().len();
        let built = Self::assemble_on(true, n, eb, block_len, chunks.into_iter(), len, copy);
        built.map(|(stream, ())| stream).expect("copying a payload cannot fail")
    }

    /// Build a stream of one chunk per job in the buffer it is returned in;
    /// every compressor and homomorphic operator returns one made here.
    ///
    /// `run(i, job, out)` appends chunk `i`'s payload to `out`, and
    /// `estimate(i, &job)` guesses its length. When [`fork_join`] would run
    /// the jobs on the calling thread (one job, or a one-core host), the
    /// buffer reserves the header and every estimate at once, `out` is the
    /// stream itself, and each chunk's end enters the offset table as the
    /// chunk closes: one allocation when the estimates hold, and no copy.
    /// Jobs run on workers write buffers of their own, appended in chunk
    /// order after the join. The header's parameters are written last.
    ///
    /// A failing job fails the call with no stream: the first error in
    /// chunk order, whatever ran in parallel. What the jobs return is
    /// collected, in chunk order, into `C` (`()` keeps nothing). The stream
    /// keeps at most 4 KiB of unused capacity.
    pub fn assemble<J, R, C>(
        n: usize,
        eb: f64,
        block_len: usize,
        jobs: impl IntoIterator<Item = J, IntoIter: ExactSizeIterator + Clone>,
        estimate: impl Fn(usize, &J) -> usize + Sync,
        run: impl Fn(usize, J, &mut Vec<u8>) -> Result<R> + Sync,
    ) -> Result<(Self, C)>
    where
        J: Send,
        R: Send,
        C: FromIterator<R>,
    {
        let jobs = jobs.into_iter();
        let in_place = workers(jobs.len()) == 1;
        Self::assemble_on(in_place, n, eb, block_len, jobs, estimate, run)
    }

    /// [`Stream::assemble`], every job on the calling thread and straight
    /// into the stream when `in_place`, else on [`fork_join`]'s workers.
    fn assemble_on<J, R, C>(
        in_place: bool,
        n: usize,
        eb: f64,
        block_len: usize,
        jobs: impl ExactSizeIterator<Item = J> + Clone,
        estimate: impl Fn(usize, &J) -> usize + Sync,
        run: impl Fn(usize, J, &mut Vec<u8>) -> Result<R> + Sync,
    ) -> Result<(Self, C)>
    where
        J: Send,
        R: Send,
        C: FromIterator<R>,
    {
        let nchunks = jobs.len();
        let body_start = Header::serialized_len(nchunks);
        let mut bytes = Vec::new();
        let open = |bytes: &mut Vec<u8>, body_len: usize| {
            bytes.reserve_exact(body_start + body_len);
            bytes.resize(body_start, 0);
        };
        let close = |bytes: &mut Vec<u8>, i: usize| {
            let end = bytes.len() - body_start;
            set_table_entry(bytes, i + 1, end as u64);
        };
        let done = if in_place {
            open(&mut bytes, jobs.clone().enumerate().map(|(i, job)| estimate(i, &job)).sum());
            let chunks = jobs.enumerate().map(|(i, job)| {
                let done = run(i, job, &mut bytes)?;
                close(&mut bytes, i);
                Ok(done)
            });
            chunks.collect::<Result<C>>()?
        } else {
            let parts: Result<Vec<(Vec<u8>, R)>> = fork_join(jobs, |i, job| {
                let mut out = Vec::with_capacity(estimate(i, &job));
                run(i, job, &mut out).map(|done| (out, done))
            });
            let parts = parts?;
            open(&mut bytes, parts.iter().map(|(part, _)| part.len()).sum());
            let chunks = parts.into_iter().enumerate().map(|(i, (part, done))| {
                bytes.extend_from_slice(&part);
                close(&mut bytes, i);
                done
            });
            chunks.collect()
        };
        let header =
            Header { n: n as u64, eb, block_len: block_len as u32, nchunks: nchunks as u32 };
        bytes[..FIXED].copy_from_slice(&header.params::<L>());
        if bytes.capacity() - bytes.len() > SLACK {
            bytes.shrink_to_fit();
        }
        Ok((Stream { bytes, header, body_start, layout: PhantomData }, done))
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
    fn original_size(&self) -> usize {
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
    fn assembly_on_the_calling_thread_and_on_workers_agrees() {
        let payloads: [&[u8]; 3] = [&[1, 2], &[], &[3, 4, 5]];
        let copy = |i, p: &[u8], out: &mut Vec<u8>| {
            out.extend_from_slice(p);
            Ok(i)
        };
        // the second and the third job fail: the second's error is the call's
        let failing = |i, p: &[u8], out: &mut Vec<u8>| {
            if i > 0 {
                return Err(Error::HomomorphicOverflow { chunk: i });
            }
            out.extend_from_slice(p);
            Ok(())
        };
        let wire = CompressedStream::from_chunks(3, 1e-3, 32, payloads).into_bytes();
        // estimates exact, short (the stream grows) and long (slack kept)
        for estimate in [|_, p: &&[u8]| p.len(), |_, _: &&[u8]| 0, |_, _: &&[u8]| 1000] {
            for in_place in [true, false] {
                let jobs = payloads.into_iter();
                let built = Stream::assemble_on(in_place, 3, 1e-3, 32, jobs, estimate, copy);
                let (s, order): (CompressedStream, Vec<usize>) = built.unwrap();
                assert_eq!(s.as_bytes(), wire, "in place: {in_place}");
                assert_eq!([0, 1, 2].map(|i| s.chunk_payload(i)), payloads);
                assert_eq!(order, [0, 1, 2]);
                let jobs = payloads.into_iter();
                let built = Stream::assemble_on(in_place, 3, 1e-3, 32, jobs, estimate, failing);
                let got: Result<(CompressedStream, ())> = built;
                assert_eq!(got, Err(Error::HomomorphicOverflow { chunk: 1 }));
            }
        }
        assert_eq!(CompressedStream::from_bytes(wire.clone()).unwrap().into_bytes(), wire);
    }

    #[test]
    fn ratio_reports_sensible_value() {
        let s = sample_stream();
        assert!(s.ratio() > 1.0);
        assert_eq!(s.original_size(), 5000 * 4);
    }
}
