//! The ring data path's allocation budget, as counts: message buffers
//! circulate (a folded arrival's bytes carry the next send, the accumulator
//! just forwarded takes the next fold), so the number of message-sized
//! allocations a rank makes does not depend on the ring's size. A counting
//! global allocator around whole simulated runs pins that; it fails on a
//! ring that allocates per step (four more per rank added to an allreduce
//! ring: a pack and an unpack buffer in each phase). A per-thread count does
//! the same for one ring chunk's codec calls, and a per-thread largest
//! allocation bounds ompSZp's intermediate. A stream's unused capacity is
//! bounded too, so a long-lived operand does not hold its producer's
//! estimate.

use fzlight::{compress, CompressedStream, Config, ErrorBound};
use hzccl::{collectives, CollectiveOpts, Resilience};
use netsim::{ComputeTiming, SimBuilder, SimEngine, ThroughputModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Allocations of at least `LARGE_FROM` bytes, and all bytes allocated.
static LARGE: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);

thread_local! {
    /// This thread's allocations: how many, and the largest.
    static MINE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(size: usize) {
    BYTES.fetch_add(size, Relaxed);
    if size >= LARGE_FROM.load(Relaxed) {
        LARGE.fetch_add(1, Relaxed);
    }
    // a const-initialised `Cell` has no destructor: this never allocates
    let _ = MINE.try_with(|mine| {
        let (calls, largest) = mine.get();
        mine.set((calls + 1, largest.max(size)));
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics and
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide: one measured run at a time.
static GATE: Mutex<()> = Mutex::new(());

/// 1 MiB of exactly representable values per rank.
const ELEMS: usize = 1 << 18;

/// One mpi allreduce over `nranks`, inputs prepared outside the window:
/// `(allocations of at least one ring chunk, bytes allocated)` per rank —
/// harness included (a fiber stack and the result vector each count once).
fn allreduce_budget(nranks: usize, opts: &CollectiveOpts) -> (usize, usize) {
    let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let inputs: Vec<Vec<f32>> = (0..nranks)
        .map(|r| (0..ELEMS).map(|i| ((i % 1024) * (r + 1)) as f32 * 0.25).collect())
        .collect();
    let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
    let cluster = SimBuilder::new(nranks).timing(timing).engine(SimEngine::Events);
    LARGE_FROM.store(ELEMS / nranks * 4, Relaxed);
    let (large, bytes) = (LARGE.load(Relaxed), BYTES.load(Relaxed));
    let report = cluster
        .run(|comm| collectives::allreduce(comm, &inputs[comm.rank()], opts).expect("allreduce"))
        .expect_clean();
    let (large, bytes) = (LARGE.load(Relaxed) - large, BYTES.load(Relaxed) - bytes);
    LARGE_FROM.store(usize::MAX, Relaxed);
    let want: Vec<f32> =
        (0..ELEMS).map(|i| inputs.iter().map(|input| input[i]).sum::<f32>()).collect();
    assert!(report.outcomes.iter().all(|o| o.value == want), "exact sums, bit for bit");
    (large / nranks, bytes / nranks)
}

#[test]
fn a_raw_ring_allocates_a_constant_number_of_message_buffers() {
    let (large4, bytes4) = allreduce_budget(4, &CollectiveOpts::mpi());
    let (large8, bytes8) = allreduce_budget(8, &CollectiveOpts::mpi());
    assert_eq!(large4, large8, "chunk-sized allocations per rank must not grow with the ring");
    assert!(large4 <= 8, "{large4} chunk-sized allocations per rank");
    for bytes in [bytes4, bytes8] {
        assert!(bytes <= 4 * ELEMS * 4, "{bytes} B allocated per rank for a 1 MiB input");
    }
}

/// Under the framed transport the sender builds one frame per hop while it
/// keeps the payload for a retransmit; the receiver strips the header in
/// place and the payload's buffer carries on round the ring.
#[test]
fn a_framed_ring_allocates_one_frame_per_hop() {
    let (plain, _) = allreduce_budget(8, &CollectiveOpts::mpi());
    let framed = CollectiveOpts::mpi().with_resilience(Resilience::default());
    for nranks in [4, 8] {
        let (large, _) = allreduce_budget(nranks, &framed);
        let hops = 2 * (nranks - 1);
        assert!(large <= plain + hops, "{large} chunk-sized allocations over {hops} hops");
    }
}

/// Calls `per_call` times after its warm-up call.
const CALLS: usize = 100;

/// Allocations per call of `f` on this thread, over `CALLS` calls after one
/// warm-up call, and the largest of them in bytes.
fn per_call(mut f: impl FnMut()) -> (usize, usize) {
    f();
    MINE.with(|mine| mine.set((0, 0)));
    for _ in 0..CALLS {
        f();
    }
    let (calls, largest) = MINE.with(Cell::get);
    assert_eq!(calls % CALLS, 0, "{calls} allocations over {CALLS} calls");
    (calls / CALLS, largest)
}

/// One `ar_manyranks` ring chunk, compressed: 64 elements, one thread-chunk
/// of two blocks, both through pipeline ④ when summed. Smooth, like that
/// workload's chunks, so its compressed payload fits the stream's first
/// capacity; one that outgrows it pays one more allocation, the stream's
/// growth.
fn ring_chunk() -> (Vec<f32>, CompressedStream, CompressedStream) {
    let a: Vec<f32> = (0..64).map(|i| (i as f32 * 0.01).sin()).collect();
    let b: Vec<f32> = a.iter().map(|v| v * 1.001).collect();
    let cfg = Config::new(ErrorBound::Abs(1e-4));
    let (ca, cb) = (compress(&a, &cfg).unwrap(), compress(&b, &cfg).unwrap());
    (a, ca, cb)
}

/// A homomorphic sum of two one-chunk, 64-element streams — one
/// `ar_manyranks` ring chunk — allocates its result, which the kernel writes
/// in place, and no per-call working arena: nothing of 4 KiB or more, and a
/// pinned count. The sum runs on the calling thread (one chunk is one job),
/// so this thread's allocations are all of it.
#[test]
fn a_ring_chunk_homomorphic_sum_allocates_no_arena() {
    let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (_, a, b) = ring_chunk();
    let (_, st) = hzdyn::homomorphic_sum_with_stats(&a, &b).unwrap();
    assert_eq!(st.p4, 2, "both blocks through pipeline 4");
    let (allocs, largest) =
        per_call(|| drop(black_box(hzdyn::homomorphic_sum(black_box(&a), &b).unwrap())));
    assert!(largest < 4096, "a {largest} B allocation in a 64-element sum");
    // the stream, nothing else
    assert_eq!(allocs, 1, "allocations per 64-element sum");
}

/// The same chunk's other codec calls allocate what they return, nothing
/// else: no chunk buffer, no span, split, offset-table or re-collected
/// result `Vec`, and a parse that reads the offset table where it lies.
#[test]
fn ring_chunk_codec_calls_allocate_only_what_they_return() {
    let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (values, stream, _) = ring_chunk();
    let (allocs, _) = per_call(|| {
        drop(black_box(fzlight::compress_resolved(black_box(&values), 1e-4, 32, 1).unwrap()))
    });
    assert_eq!(allocs, 1, "allocations per 64-element compress: the stream");
    let mut out = vec![0f32; 64];
    let (allocs, _) = per_call(|| fzlight::decompress_into(black_box(&stream), &mut out).unwrap());
    assert_eq!(allocs, 0, "allocations per 64-element decompress_into");
    let mut wires = vec![stream.as_bytes().to_vec(); CALLS + 1].into_iter();
    let (allocs, _) = per_call(|| {
        let wire = wires.next().unwrap();
        drop(black_box(CompressedStream::from_bytes(black_box(wire)).unwrap()))
    });
    assert_eq!(allocs, 0, "allocations per CompressedStream::from_bytes of a given buffer");
}

/// ompSZp's intermediate between its two passes is the quantizer's `i32`s,
/// each thread group holding its own blocks': a one-group compress of a
/// 1 MiB field allocates nothing wider than four bytes per element (and a
/// last block's slack), where an eight-byte delta array would be twice
/// that. A ring chunk's compress makes a pinned number of allocations: per
/// group its integers and its codes, the `Vec` of groups, the stream.
#[test]
fn ompszp_compress_holds_four_bytes_per_element() {
    let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let cfg = Config::new(ErrorBound::Abs(1e-4));
    let field: Vec<f32> = (0..ELEMS).map(|i| (i as f32 * 1e-3).sin()).collect();
    let (_, largest) =
        per_call(|| drop(black_box(ompszp::compress(black_box(&field), &cfg).unwrap())));
    let bound = 4 * ELEMS + 4 * cfg.block_len;
    assert!(largest <= bound, "a {largest} B allocation in a {ELEMS}-element compress");
    let (values, _, _) = ring_chunk();
    let (allocs, _) =
        per_call(|| drop(black_box(ompszp::compress(black_box(&values), &cfg).unwrap())));
    assert_eq!(allocs, 4, "allocations per 64-element ompSZp compress");
}

/// A returned stream holds at most 4 KiB it does not use: compress reserves
/// a byte per element and a homomorphic sum its operands' length plus room
/// to widen, and a smooth 1 Mi-element field needs far less than either.
#[test]
fn streams_keep_at_most_four_kib_of_slack() {
    let field: Vec<f32> = (0..1 << 20).map(|i| (i as f32 * 1e-3).sin()).collect();
    let cfg = Config::new(ErrorBound::Abs(1e-4));
    let slack = |stream: CompressedStream| {
        let bytes = stream.into_bytes();
        bytes.capacity() - bytes.len()
    };
    let a = compress(&field, &cfg).unwrap();
    assert!(a.compressed_size() < field.len() / 2, "{} B", a.compressed_size());
    let sum = hzdyn::homomorphic_sum(&a, &a).unwrap();
    // `into_bytes` hands over the buffer itself; a clone would be exact
    for (what, stream) in [("compress", a), ("homomorphic sum", sum)] {
        let unused = slack(stream);
        assert!(unused <= 4096, "{unused} B unused after a 1 Mi-element {what}");
    }
}
