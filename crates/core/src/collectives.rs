//! The unified collectives front-end: one options builder, five verbs,
//! every flavour — all of them instantiations of the one ring schedule in
//! `crate::ring`.
//!
//! | verb | signature | non-root behaviour |
//! |---|---|---|
//! | [`allreduce`] | `(&mut Comm, &[f32], &CollectiveOpts) -> Result<Vec<f32>>` | n/a |
//! | [`reduce_scatter`] | same | n/a (returns the own chunk) |
//! | [`reduce`] | same (`opts.root`) | returns `Ok(vec![])` |
//! | [`bcast`] | same (`opts.root`) | returns the full vector |
//! | [`allgather`] | `(&mut Comm, own chunk, total_len, &CollectiveOpts)` | n/a |
//!
//! The first four are one ring dispatch (`run`) at a fixed [`tuner::Op`];
//! [`run_recoverable`] is its crash-recovering twin, the entry point of
//! callers that hold the collective as a value (a CLI flag, a bench sweep).
//!
//! Conventions:
//!
//! * **Every rank passes a full-length buffer to [`bcast`]** (MPI
//!   semantics); non-root contents are ignored — the buffer length *is*
//!   the total length.
//! * **Input-dependent panics became typed errors**: fewer elements than
//!   ranks is [`Error::TooFewElements`], an out-of-range root is
//!   [`Error::InvalidRoot`].
//! * **Pipelining is an option, not an API fork**:
//!   [`CollectiveOpts::with_segments`] selects the segmented pipelined
//!   schedule of the same ring (see `pipeline.rs`); `1` (the default)
//!   is the paper's phase-serial ring. Results are bit-identical either way. Under
//!   [`Variant::Auto`] the tuner-agreed plan's segment count overrides this
//!   knob.
//!
//! ```
//! use hzccl::collectives::{self, CollectiveOpts};
//! use netsim::SimBuilder;
//!
//! let opts = CollectiveOpts::hz(1e-4).with_segments(4);
//! let report = SimBuilder::new(4)
//!     .run(move |comm| {
//!         let data: Vec<f32> = (0..256).map(|i| (i + comm.rank()) as f32 * 0.1).collect();
//!         collectives::allreduce(comm, &data, &opts).unwrap()
//!     })
//!     .expect_clean();
//! assert!(report.outcomes.iter().all(|o| o.value == report.outcomes[0].value));
//! ```

use crate::auto;
use crate::config::{CollectiveConfig, Mode, Variant};
use crate::labels;
use crate::membership::View;
use crate::resilient::Resilience;
use crate::ring::{self, Over, Verb};
use netsim::{Comm, Topology};
use std::fmt;
use tuner::{Engine, Op};

/// What can go wrong in a collective call.
#[derive(Debug)]
pub enum Error {
    /// A compressor/decompressor failure bubbled up from the flavour.
    Compression(fzlight::Error),
    /// Ring collectives need at least one element per rank.
    TooFewElements {
        /// Elements in the caller's buffer.
        elems: usize,
        /// Ranks in the communicator.
        nranks: usize,
    },
    /// The rooted collective named a rank outside the communicator.
    InvalidRoot {
        /// The requested root.
        root: usize,
        /// Ranks in the communicator.
        nranks: usize,
    },
    /// The attached [`Topology`] describes a different rank count than the
    /// communicator has.
    TopologyMismatch {
        /// Ranks the topology describes (`nodes * ppn`).
        topology: usize,
        /// Ranks in the communicator.
        nranks: usize,
    },
    /// The recovery layer ran out of membership epochs: more repairs than
    /// the 8-bit epoch tag field can number.
    TooManyEpochs {
        /// The epoch cap that was exhausted (`MAX_EPOCH`, 255).
        epochs: u32,
    },
    /// The requested [`RecoveryPolicy`] cannot run under these options —
    /// the combination is refused with a typed error instead of being
    /// silently downgraded.
    RecoveryUnsupported {
        /// The flavour that cannot recover.
        variant: Variant,
        /// Why the combination is refused.
        reason: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compression(e) => write!(f, "compression error: {e}"),
            Error::TooFewElements { elems, nranks } => write!(
                f,
                "ring collectives need at least one element per rank \
                 (elems={elems}, nranks={nranks})"
            ),
            Error::InvalidRoot { root, nranks } => {
                write!(f, "root rank {root} is outside the communicator (nranks={nranks})")
            }
            Error::TopologyMismatch { topology, nranks } => {
                write!(f, "topology describes {topology} ranks but the communicator has {nranks}")
            }
            Error::TooManyEpochs { epochs } => {
                write!(f, "recovery exhausted all {epochs} membership epochs")
            }
            Error::RecoveryUnsupported { variant, reason } => {
                write!(f, "{variant:?} cannot run this recovery policy: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compression(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fzlight::Error> for Error {
    fn from(e: fzlight::Error) -> Error {
        Error::Compression(e)
    }
}

/// Result alias of this module.
pub type Result<T> = std::result::Result<T, Error>;

/// What a collective does when a rank dies mid-flight (ULFM-style
/// semantics, selected per call via [`CollectiveOpts::with_recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Today's behaviour: a peer crash panics the observing rank (the
    /// simulator reports a [`netsim::RankPanic`] cascade). The
    /// only policy the plain verbs accept.
    #[default]
    FailFast,
    /// Survivors agree on the dead, splice them out of the ring under a
    /// new epoch, and deliver the **sum over survivors**: exact for `mpi`,
    /// error-bounded for the compressed flavours.
    Shrink,
    /// [`RecoveryPolicy::Shrink`], then rescale by `n0 / survivors` — the
    /// survivor *mean* times the launch size, the right estimator when
    /// every rank contributes a same-scale shard (gradient averaging).
    ShrinkRescale,
}

/// What a recoverable collective delivered: the value plus exactly whose
/// contributions are in it.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult {
    /// The reduced vector (see [`RecoveryPolicy`] for its semantics).
    pub value: Vec<f32>,
    /// Sorted launch ranks whose inputs the value aggregates. The full
    /// communicator on a fault-free run.
    pub contributors: Vec<usize>,
    /// The membership epoch that committed: 0 when nothing died, +1 per
    /// mid-flight repair.
    pub epoch: u32,
}

/// Options of one collective call: flavour, error bound, thread mode,
/// pipeline segment count, and (for rooted verbs) the root rank.
///
/// Construct with a flavour constructor ([`CollectiveOpts::mpi`],
/// [`CollectiveOpts::ccoll`], [`CollectiveOpts::hz`],
/// [`CollectiveOpts::auto`]) and refine with the `with_*` builders.
#[derive(Debug, Clone)]
pub struct CollectiveOpts {
    variant: Variant,
    eb: f64,
    mode: Mode,
    segments: usize,
    root: usize,
    resilience: Option<Resilience>,
    topology: Option<Topology>,
    recovery: RecoveryPolicy,
}

impl CollectiveOpts {
    /// Parse-driven constructor (CLI): flavour by [`Variant`].
    pub fn for_variant(variant: Variant, eb: f64) -> CollectiveOpts {
        CollectiveOpts {
            variant,
            eb,
            mode: Mode::SingleThread,
            segments: 1,
            root: 0,
            resilience: None,
            topology: None,
            recovery: RecoveryPolicy::FailFast,
        }
    }

    /// Plain MPI (no compression). The error bound is irrelevant and kept
    /// at 0 for cache-key purposes.
    pub fn mpi() -> CollectiveOpts {
        CollectiveOpts::for_variant(Variant::Mpi, 0.0)
    }

    /// C-Coll's DOC workflow at absolute error bound `eb`.
    pub fn ccoll(eb: f64) -> CollectiveOpts {
        CollectiveOpts::for_variant(Variant::CColl, eb)
    }

    /// hZCCL's homomorphic workflow at absolute error bound `eb`.
    pub fn hz(eb: f64) -> CollectiveOpts {
        CollectiveOpts::for_variant(Variant::Hzccl, eb)
    }

    /// Let the tuner pick per call ([`crate::auto`]) with the
    /// paper-calibrated [`Engine`]; a caller holding its own engine hands it
    /// to [`auto::run`] directly.
    pub fn auto(eb: f64) -> CollectiveOpts {
        CollectiveOpts::for_variant(Variant::Auto, eb)
    }

    /// Single- or multi-thread compression/reduction mode.
    pub fn with_mode(mut self, mode: Mode) -> CollectiveOpts {
        self.mode = mode;
        self
    }

    /// Pipeline segment count per ring step. `1` (default) is the
    /// phase-serial schedule; larger counts overlap per-segment compute
    /// with the wire, clamped to [`crate::pipeline::MAX_SEGMENTS`] and the
    /// chunk's block count. `0` is treated as `1`.
    pub fn with_segments(mut self, segments: usize) -> CollectiveOpts {
        self.segments = segments.max(1);
        self
    }

    /// Root rank of the rooted verbs ([`reduce`], [`bcast`]); default 0.
    pub fn with_root(mut self, root: usize) -> CollectiveOpts {
        self.root = root;
        self
    }

    /// Route every hop through the resilient transport
    /// ([`Resilience`]): checksummed frames, NACK/retransmit, and
    /// graceful degradation to raw f32 after `max_retries` — on the flat
    /// ring, on both tiers of the hierarchical schedule, and (resending
    /// instead of degrading) under the shrinking recovery policies. Forces
    /// one segment per step (a framed hop is one joint exchange and cannot
    /// interleave segments). Composes with every flavour, [`Variant::Auto`]
    /// included — the tuner picks the plan and the chosen flavour runs it
    /// over the resilient transport.
    pub fn with_resilience(mut self, res: Resilience) -> CollectiveOpts {
        self.resilience = Some(res);
        self
    }

    /// What to do when a rank dies mid-collective (default
    /// [`RecoveryPolicy::FailFast`]). The shrinking policies are only
    /// honoured by the recoverable verbs ([`allreduce_recoverable`],
    /// [`reduce_scatter_recoverable`]) — the plain verbs return
    /// [`Error::RecoveryUnsupported`] rather than silently discarding the
    /// request, because their `Vec<f32>` shape cannot say *whose* data the
    /// sum contains.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> CollectiveOpts {
        self.recovery = recovery;
        self
    }

    /// Attach a two-tier fabric shape: [`allreduce`] runs the hierarchical
    /// schedule (`hierarchy.rs`) when the topology is genuinely
    /// two-level (`nodes > 1 && ppn > 1`) — intra-node reduce-scatter,
    /// compressed inter-node ring, intra-node allgather. Under
    /// [`Variant::Auto`] the tuner decides between the flat and the
    /// hierarchical plan from its two-tier cost model. The other verbs keep
    /// their flat schedules. `topology.nranks()` must equal the
    /// communicator size at call time or the verb returns
    /// [`Error::TopologyMismatch`]. Pair with
    /// [`netsim::SimBuilder::topology`] so the simulated fabric matches
    /// the schedule's assumptions.
    pub fn with_topology(mut self, topology: Topology) -> CollectiveOpts {
        self.topology = Some(topology);
        self
    }

    /// The flavour this call dispatches to.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The crash-recovery policy of this call.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The topology to run a hierarchical schedule over: `Ok(Some(_))` when
    /// one is attached, matches the communicator, and is genuinely
    /// two-level; `Ok(None)` when flat is the right answer (no topology, or
    /// a degenerate one with a single node or a single rank per node).
    fn hier_topology(&self, comm: &Comm) -> Result<Option<Topology>> {
        let Some(topo) = self.topology else { return Ok(None) };
        if topo.nranks() != comm.size() {
            return Err(Error::TopologyMismatch { topology: topo.nranks(), nranks: comm.size() });
        }
        Ok((topo.nodes > 1 && topo.ppn > 1).then_some(topo))
    }

    /// The per-flavour config these options imply: the static flavours
    /// compress at [`fzlight::DEFAULT_BLOCK_LEN`], an auto plan at its own.
    fn cfg(&self) -> CollectiveConfig {
        CollectiveConfig { res: self.resilience, ..CollectiveConfig::new(self.eb, self.mode) }
    }
}

fn check_elems(comm: &Comm, elems: usize) -> Result<()> {
    let nranks = comm.size();
    if elems < nranks {
        return Err(Error::TooFewElements { elems, nranks });
    }
    Ok(())
}

fn check_root(comm: &Comm, root: usize) -> Result<()> {
    let nranks = comm.size();
    if root >= nranks {
        return Err(Error::InvalidRoot { root, nranks });
    }
    Ok(())
}

/// The plain verbs cannot express partial results, so they refuse the
/// shrinking policies instead of silently discarding them.
fn check_fail_fast(opts: &CollectiveOpts) -> Result<()> {
    if opts.recovery != RecoveryPolicy::FailFast {
        return Err(Error::RecoveryUnsupported {
            variant: opts.variant,
            reason: "plain verbs return a bare Vec<f32> and cannot say whose data survived; \
                     call allreduce_recoverable / reduce_scatter_recoverable instead",
        });
    }
    Ok(())
}

/// The argument checks every plain verb shares; yields the topology to run
/// a hierarchical schedule over, if any.
fn check(
    comm: &Comm,
    elems: usize,
    opts: &CollectiveOpts,
    root: Option<usize>,
) -> Result<Option<Topology>> {
    check_elems(comm, elems)?;
    check_fail_fast(opts)?;
    if let Some(root) = root {
        check_root(comm, root)?;
    }
    opts.hier_topology(comm)
}

/// Run `op` as the options say — the one entry point under the four verb
/// functions below, for callers that hold the collective as a value
/// ([`tuner::Op`]): [`Variant::Auto`] asks the tuner ([`auto::run`]), a
/// static flavour runs its ring. Rooted ops use `opts.root`; every rank
/// passes a full-length buffer.
fn run(comm: &mut Comm, op: Op, data: &[f32], opts: &CollectiveOpts) -> Result<Vec<f32>> {
    let root = matches!(op, Op::Reduce | Op::Bcast).then_some(opts.root);
    // only Allreduce has a hierarchical schedule
    let topo = check(comm, data.len(), opts, root)?.filter(|_| op == Op::Allreduce);
    let (cfg, topo) = (opts.cfg(), topo.as_ref());
    match opts.variant {
        Variant::Auto => {
            Ok(auto::run(comm, op, opts.root, data, &cfg, &Engine::paper(), topo)?.value)
        }
        v => {
            let verb = Verb::of(op, opts.root, data.len());
            let over = topo.map_or(Over::Flat, Over::Tiers);
            ring::run(comm, verb, v.flavor(), data, &cfg, opts.segments, over)
        }
    }
}

/// `Allreduce(sum)`: every rank contributes `data`, every rank receives the
/// (error-bounded, for compressed flavours) element-wise sum.
///
/// On a genuinely two-level [`CollectiveOpts::with_topology`] fabric the
/// static flavours take the hierarchical schedule; Auto lets the tuner
/// weigh it against the flat plans from the two-tier cost model.
pub fn allreduce(comm: &mut Comm, data: &[f32], opts: &CollectiveOpts) -> Result<Vec<f32>> {
    run(comm, Op::Allreduce, data, opts)
}

/// `Reduce_scatter(sum)`: every rank receives its own reduced node chunk
/// (chunk layout [`crate::chunks::node_chunks`]).
pub fn reduce_scatter(comm: &mut Comm, data: &[f32], opts: &CollectiveOpts) -> Result<Vec<f32>> {
    run(comm, Op::ReduceScatter, data, opts)
}

/// `Reduce(sum)` to `opts.root`: the root receives the full sum, every
/// other rank receives `Ok(vec![])`.
pub fn reduce(comm: &mut Comm, data: &[f32], opts: &CollectiveOpts) -> Result<Vec<f32>> {
    run(comm, Op::Reduce, data, opts)
}

/// Long-message `Bcast` from `opts.root`: **every rank passes a full-length
/// buffer** (MPI semantics — the length is the broadcast size; non-root
/// contents are ignored) and receives the root's vector back.
pub fn bcast(comm: &mut Comm, data: &[f32], opts: &CollectiveOpts) -> Result<Vec<f32>> {
    run(comm, Op::Bcast, data, opts)
}

/// Ring `Allgather`: rank `r` contributes `own` — node chunk `r`
/// ([`crate::chunks::node_chunks`]) of a `total_len`-element vector — and
/// every rank receives the concatenation. Compressed flavours compress the
/// own chunk once and forward it compressed, so every *other* rank sees it
/// within the error bound. The tuner does not plan this verb:
/// [`Variant::Auto`] runs its hZCCL prior.
///
/// Panics if `own` is not exactly this rank's chunk.
pub fn allgather(
    comm: &mut Comm,
    own: &[f32],
    total_len: usize,
    opts: &CollectiveOpts,
) -> Result<Vec<f32>> {
    check(comm, total_len, opts, None)?;
    let (verb, flavor) = (Verb::Allgather { total_len }, opts.variant.flavor());
    ring::run(comm, verb, flavor, own, &opts.cfg(), opts.segments, Over::Flat)
}

/// The verbs' ring dispatch with crash recovery — the one entry point under
/// [`allreduce_recoverable`] and [`reduce_scatter_recoverable`]: a rank
/// dying mid-flight is handled per `opts.recovery()` and the result says
/// whose data it aggregates. Under [`RecoveryPolicy::FailFast`] every op is
/// the plain verb with the full communicator stamped on; the shrinking
/// policies exist for `Allreduce` and `Reduce_scatter` only.
pub fn run_recoverable(
    comm: &mut Comm,
    op: Op,
    data: &[f32],
    opts: &CollectiveOpts,
) -> Result<PartialResult> {
    check_elems(comm, data.len())?;
    if opts.recovery == RecoveryPolicy::FailFast {
        // fail-fast recoverable calls are the plain verbs with the full
        // communicator stamped on — bit-identical schedules and traffic
        let value = run(comm, op, data, opts)?;
        return Ok(PartialResult { value, contributors: (0..comm.size()).collect(), epoch: 0 });
    }
    // what the shrinking policies refuse, and why
    let refused = match op {
        Op::Reduce | Op::Bcast => {
            Some("only allreduce and reduce_scatter have a survivable schedule")
        }
        _ if opts.variant == Variant::Auto => Some(
            "the tuner plans against a fixed membership, and a plan agreed at launch is \
             meaningless after a repair; pick a static flavour for the shrinking policies",
        ),
        _ if opts.hier_topology(comm)?.is_some() => Some(
            "a view over node leaders would need its own agreement protocol: the \
             hierarchical two-tier schedule is not survivable; detach the topology",
        ),
        _ => None,
    };
    if let Some(reason) = refused {
        return Err(Error::RecoveryUnsupported { variant: opts.variant, reason });
    }
    let mut view = View::initial(comm.size());
    let verb = Verb::of(op, opts.root, data.len());
    let (flavor, over) = (opts.variant.flavor(), Over::Survivors(&mut view));
    let mut value = ring::run(comm, verb, flavor, data, &opts.cfg(), 1, over)?;
    if opts.recovery == RecoveryPolicy::ShrinkRescale {
        let scale = comm.size() as f32 / view.len() as f32;
        let bytes = value.len() * 4;
        comm.compute(labels::REC_RESCALE, bytes, || {
            for v in value.iter_mut() {
                *v *= scale;
            }
        });
    }
    Ok(PartialResult { value, contributors: view.members, epoch: view.epoch })
}

/// `Allreduce(sum)` with crash recovery: like [`allreduce`], but a rank
/// dying mid-flight is handled per `opts.recovery()` instead of cascading
/// panics, and the result says exactly whose data it aggregates.
///
/// Under [`RecoveryPolicy::Shrink`] / [`RecoveryPolicy::ShrinkRescale`]
/// the survivors run the epoch-numbered self-healing ring
/// (`crate::survivable`): an attempt that observes a death tears down
/// in-band, all survivors agree on the new membership, and the collective
/// re-runs over the shrunk ring. A fault-free run commits at epoch 0 through
/// the same ring loops as the plain verb, in their decode-on-arrival order
/// (the pipelined schedule's) and with the own chunk round-tripped through
/// the wire codec like everyone else's copy — so `mpi` is bit-identical to
/// the plain verb, and the compressed flavours agree bitwise across ranks
/// but may differ from the plain verb by one quantization. Requires a static
/// flavour ([`Variant::Auto`] and attached topologies return
/// [`Error::RecoveryUnsupported`]).
pub fn allreduce_recoverable(
    comm: &mut Comm,
    data: &[f32],
    opts: &CollectiveOpts,
) -> Result<PartialResult> {
    run_recoverable(comm, Op::Allreduce, data, opts)
}

/// `Reduce_scatter(sum)` with crash recovery (see [`allreduce_recoverable`]).
///
/// The delivered value is this rank's contiguous owned region **under the
/// committed membership**: at epoch 0 exactly the
/// [`crate::chunks::node_chunks`] chunk, after a repair the survivor's
/// whole segment group (dead ranks' segments are redistributed, so regions
/// grow — consult [`PartialResult::contributors`] and the epoch to map
/// regions back to elements).
pub fn reduce_scatter_recoverable(
    comm: &mut Comm,
    data: &[f32],
    opts: &CollectiveOpts,
) -> Result<PartialResult> {
    run_recoverable(comm, Op::ReduceScatter, data, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::node_chunks;
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
    }

    fn field(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.01).sin() * (rank + 1) as f32).collect()
    }

    fn direct_sum(nranks: usize, n: usize) -> Vec<f32> {
        let mut acc = vec![0f32; n];
        for r in 0..nranks {
            for (a, b) in acc.iter_mut().zip(field(r, n)) {
                *a += b;
            }
        }
        acc
    }

    fn fields(nranks: usize, n: usize) -> Vec<Vec<f32>> {
        (0..nranks).map(|r| field(r, n)).collect()
    }

    /// The bound of `op` over `fields` in `opts`' flavour
    /// (`crate::error_bounds`). These verbs do not return Auto's plan, so
    /// Auto takes its widest candidate's: C-Coll's ring.
    fn tol(op: Op, opts: &CollectiveOpts, fields: &[Vec<f32>]) -> f64 {
        let flavor = match opts.variant() {
            Variant::Auto => tuner::Flavor::CColl,
            v => v.flavor(),
        };
        let call = crate::error_bounds::ring(op, flavor, fields.len());
        crate::error_bounds::tolerance(&call, opts.eb, fields)
    }

    fn all_opts() -> Vec<CollectiveOpts> {
        vec![
            CollectiveOpts::mpi(),
            CollectiveOpts::ccoll(1e-4),
            CollectiveOpts::hz(1e-4),
            CollectiveOpts::auto(1e-4),
        ]
    }

    #[test]
    fn allreduce_is_correct_for_every_variant_and_segment_count() {
        let n = 2000;
        let nranks = 4;
        let expect = direct_sum(nranks, n);
        for opts in all_opts() {
            for segments in [1usize, 4] {
                let opts = opts.clone().with_segments(segments);
                let cluster = SimBuilder::new(nranks).timing(modeled());
                let outcomes = cluster
                    .run(|comm| {
                        let data = field(comm.rank(), n);
                        allreduce(comm, &data, &opts).expect("allreduce")
                    })
                    .expect_clean()
                    .outcomes;
                let tol = tol(Op::Allreduce, &opts, &fields(nranks, n));
                for o in &outcomes {
                    // C-Coll's Allgather keeps the own chunk raw (no
                    // quantization roundtrip), so its ranks agree only
                    // within the error bound, not bitwise
                    if opts.variant() != Variant::CColl {
                        assert_eq!(o.value, outcomes[0].value, "{:?}", opts.variant());
                    }
                    for (a, b) in o.value.iter().zip(&expect) {
                        assert!(
                            ((a - b).abs() as f64) <= tol,
                            "{:?} segments={segments}: {a} vs {b}",
                            opts.variant()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_returns_empty_on_non_roots_for_every_variant() {
        let n = 1200;
        let nranks = 4;
        let root = 2;
        let expect = direct_sum(nranks, n);
        for opts in all_opts() {
            let opts = opts.with_root(root);
            let cluster = SimBuilder::new(nranks).timing(modeled());
            let outcomes = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    reduce(comm, &data, &opts).expect("reduce")
                })
                .expect_clean()
                .outcomes;
            let tol = tol(Op::Reduce, &opts, &fields(nranks, n));
            for (r, o) in outcomes.iter().enumerate() {
                if r == root {
                    assert_eq!(o.value.len(), n, "{:?}", opts.variant());
                    for (a, b) in o.value.iter().zip(&expect) {
                        let v = opts.variant();
                        assert!(((a - b).abs() as f64) <= tol, "{v:?}: {a} vs {b}");
                    }
                } else {
                    assert!(o.value.is_empty(), "{:?}: non-root must get vec![]", opts.variant());
                }
            }
        }
    }

    #[test]
    fn bcast_takes_full_length_buffers_everywhere() {
        let n = 900;
        let nranks = 3;
        let root = 1;
        let base = field(root, n);
        for opts in all_opts() {
            let opts = opts.with_root(root);
            let cluster = SimBuilder::new(nranks).timing(modeled());
            let outcomes = cluster
                .run(|comm| {
                    // non-roots pass garbage of the right length — MPI semantics
                    let data = if comm.rank() == root { base.clone() } else { vec![f32::NAN; n] };
                    bcast(comm, &data, &opts).expect("bcast")
                })
                .expect_clean()
                .outcomes;
            let tol = tol(Op::Bcast, &opts, std::slice::from_ref(&base));
            for o in &outcomes {
                for (a, b) in o.value.iter().zip(&base) {
                    let v = opts.variant();
                    assert!(((a - b).abs() as f64) <= tol, "{v:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_returns_the_own_chunk() {
        let n = 1000;
        let nranks = 4;
        let expect = direct_sum(nranks, n);
        let chunks = node_chunks(n, nranks);
        for opts in [CollectiveOpts::mpi(), CollectiveOpts::hz(1e-4).with_segments(2)] {
            let cluster = SimBuilder::new(nranks).timing(modeled());
            let outcomes = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    reduce_scatter(comm, &data, &opts).expect("rs")
                })
                .expect_clean()
                .outcomes;
            let tol = tol(Op::ReduceScatter, &opts, &fields(nranks, n));
            for (r, o) in outcomes.iter().enumerate() {
                assert_eq!(o.value.len(), chunks[r].len());
                for (a, b) in o.value.iter().zip(&expect[chunks[r].clone()]) {
                    assert!(((a - b).abs() as f64) <= tol, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn undersized_input_is_a_typed_error_not_a_panic() {
        let cluster = SimBuilder::new(4).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let opts = CollectiveOpts::hz(1e-4);
                allreduce(comm, &[1.0, 2.0], &opts).map_err(|e| e.to_string())
            })
            .expect_clean()
            .outcomes;
        for o in outcomes {
            let msg = o.value.expect_err("2 elements over 4 ranks must fail");
            assert!(msg.contains("elems=2"), "{msg}");
            assert!(msg.contains("nranks=4"), "{msg}");
        }
    }

    #[test]
    fn out_of_range_root_is_a_typed_error() {
        let cluster = SimBuilder::new(2).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let opts = CollectiveOpts::mpi().with_root(7);
                let data = vec![1.0f32; 16];
                (
                    matches!(reduce(comm, &data, &opts), Err(Error::InvalidRoot { root: 7, .. })),
                    matches!(bcast(comm, &data, &opts), Err(Error::InvalidRoot { root: 7, .. })),
                )
            })
            .expect_clean()
            .outcomes;
        for o in outcomes {
            assert_eq!(o.value, (true, true));
        }
    }

    #[test]
    fn builder_roundtrip() {
        let opts =
            CollectiveOpts::hz(1e-3).with_segments(8).with_mode(Mode::MultiThread(18)).with_root(3);
        assert_eq!(opts.variant(), Variant::Hzccl);
        assert_eq!(opts.segments, 8);
        assert_eq!(opts.mode, Mode::MultiThread(18));
        assert_eq!(opts.root, 3);
        // zero segments degrades to the serial schedule
        assert_eq!(CollectiveOpts::mpi().with_segments(0).segments, 1);
    }

    #[test]
    fn errors_display_and_chain() {
        let e = Error::TooFewElements { elems: 3, nranks: 8 };
        assert!(e.to_string().contains("elems=3"));
        let e = Error::InvalidRoot { root: 9, nranks: 4 };
        assert!(e.to_string().contains("root rank 9"));
        use std::error::Error as _;
        assert!(e.source().is_none());
    }
}
