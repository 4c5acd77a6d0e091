//! Execution engines behind [`crate::SimBuilder`]: the per-rank harness
//! shared by both, the thread engine (one OS thread per rank) and the event
//! engine (fibers under a cooperative virtual-time scheduler).

pub(crate) mod events;
pub(crate) mod fiber;
pub(crate) mod threads;

use crate::comm::Comm;
use crate::sim::{RankOutcome, RankPanic};
use crate::trace::RankTrace;

/// What one rank's execution produced: its outcome plus its flight-recorder
/// trace (when tracing is on), or the panic that killed it.
pub(crate) type RankFate<R> = Result<(RankOutcome<R>, Option<RankTrace>), RankPanic>;

/// Engine-level result of a run, in rank order, before aggregation into a
/// [`crate::RunReport`].
pub(crate) struct RawRun<R> {
    pub fates: Vec<Result<RankOutcome<R>, RankPanic>>,
    pub traces: Vec<RankTrace>,
}

/// The per-rank harness both engines run: execute the closure, catch a
/// panic, and — before reporting it — poison every peer's inbox so blocked
/// receivers cascade instead of deadlocking.
pub(crate) fn execute_rank<F, R>(comm: &mut Comm, f: &F) -> RankFate<R>
where
    F: Fn(&mut Comm) -> R + Sync,
    R: Send,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm))) {
        Ok(value) => {
            let outcome = RankOutcome {
                rank: comm.rank(),
                value,
                elapsed: comm.elapsed(),
                breakdown: comm.breakdown(),
            };
            Ok((outcome, comm.take_trace()))
        }
        Err(payload) => {
            comm.broadcast_crash_notice();
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&'static str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "(non-string panic payload)".to_string());
            Err(RankPanic { rank: comm.rank(), message, trace: comm.take_trace() })
        }
    }
}

/// Split per-rank fates into the engine-neutral [`RawRun`].
pub(crate) fn collect<R>(fates: impl IntoIterator<Item = RankFate<R>>) -> RawRun<R> {
    let mut out = RawRun { fates: Vec::new(), traces: Vec::new() };
    for fate in fates {
        match fate {
            Ok((outcome, trace)) => {
                out.traces.extend(trace);
                out.fates.push(Ok(outcome));
            }
            Err(p) => out.fates.push(Err(p)),
        }
    }
    out
}
