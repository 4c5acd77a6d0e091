//! Parallel ompSZp decompression: each thread group walks its own record
//! sequence and scatters values into its block-cyclically owned output
//! blocks.

use crate::bitshuffle;
use crate::format::{OszpStream, ZERO_BLOCK};
use fzlight::chunk::{deal, fork_join};
use fzlight::config::MAX_BLOCK_LEN;
use fzlight::error::{Error, Result};

/// Decompress a stream into a freshly allocated vector.
pub fn decompress(stream: &OszpStream) -> Result<Vec<f32>> {
    let mut out = vec![0f32; stream.n()];
    decompress_into(stream, &mut out)?;
    Ok(out)
}

/// Decompress into a caller-provided buffer of exactly `stream.n()` elements.
pub fn decompress_into(stream: &OszpStream, out: &mut [f32]) -> Result<()> {
    if out.len() != stream.n() {
        return Err(Error::Mismatch("output buffer length != stream element count"));
    }
    let two_eb = 2.0 * stream.eb();
    // group `t` is dealt output blocks `t, t+T, t+2T, …`, the order its
    // records are stored in
    let owned = deal(out.chunks_mut(stream.block_len()), stream.nchunks());
    fork_join(owned, |t, blocks| {
        let payload = stream.chunk_payload(t);
        let mut pos = 0usize;
        let mut mags = [0u32; MAX_BLOCK_LEN];
        for dst in blocks {
            pos += decode_record(&payload[pos..], two_eb, &mut mags, dst)?;
        }
        if pos != payload.len() {
            return Err(Error::Corrupt("group payload longer than its blocks"));
        }
        Ok(())
    })
}

/// Decode one block record into `dst`; returns bytes consumed.
fn decode_record(
    input: &[u8],
    two_eb: f64,
    mags: &mut [u32; MAX_BLOCK_LEN],
    dst: &mut [f32],
) -> Result<usize> {
    let len = dst.len();
    let Some(&marker) = input.first() else {
        return Err(Error::Truncated { need: 1, have: 0 });
    };
    if marker == ZERO_BLOCK {
        dst.fill(0.0);
        return Ok(1);
    }
    let c = marker;
    if c > 32 {
        return Err(Error::Corrupt("code length > 32"));
    }
    let sb = bitshuffle::plane_bytes(len);
    let body = if c == 0 { 0 } else { sb + bitshuffle::planes_size(c, len) };
    let total = 1 + 4 + body;
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    let outlier = i32::from_le_bytes(input[1..5].try_into().unwrap()) as i64;
    let mut q = outlier;
    if c == 0 {
        // constant (but non-zero) block: every delta is zero
        let v = (q as f64 * two_eb) as f32;
        dst.fill(v);
        return Ok(total);
    }
    let mut pos = 5usize;
    let mut signs = 0u64;
    for b in 0..sb {
        signs |= (input[pos + b] as u64) << (8 * b);
    }
    pos += sb;
    bitshuffle::decode_planes(&input[pos..], c, &mut mags[..len])?;
    for (k, o) in dst.iter_mut().enumerate() {
        if k > 0 {
            let m = mags[k] as i64;
            q += if (signs >> k) & 1 == 1 { -m } else { m };
        }
        *o = (q as f64 * two_eb) as f32;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::{Config, ErrorBound};

    #[test]
    fn wrong_output_length_rejected() {
        let data = vec![1.0f32; 64];
        let s = crate::compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let mut out = vec![0f32; 63];
        assert!(decompress_into(&s, &mut out).is_err());
    }

    #[test]
    fn constant_nonzero_block_roundtrips() {
        let data = vec![7.25f32; 96];
        let s = crate::compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let out = decompress(&s).unwrap();
        for v in out {
            assert!((v - 7.25).abs() <= 2e-3);
        }
    }

    #[test]
    fn corrupt_marker_detected() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
        let s = crate::compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let ngroups = s.nchunks();
        let mut bytes = s.as_bytes().to_vec();
        let body_start = fzlight::Header::serialized_len(ngroups);
        bytes[body_start] = 40; // invalid code length (not 0xFF, > 32)
        let bad = OszpStream::from_bytes(bytes).unwrap();
        assert!(decompress(&bad).is_err());
    }
}
