//! The event engine: every rank is a cooperatively-scheduled fiber on one
//! OS thread, and "time" is the same per-rank virtual clock the thread
//! engine uses.
//!
//! ## Why this is bit-compatible with the thread engine
//!
//! The simulation is a deterministic dataflow: each rank's clock, breakdown
//! and trace depend only on its own program order and on the `arrival`
//! stamps of the messages it *matches* — and matching (the pending-map +
//! per-`(from, tag)` FIFO in [`Comm`]) is independent of the order in which
//! messages from different senders reach the inbox. So any scheduler that
//! (a) preserves each rank's program order and (b) delivers each sender's
//! messages in send order produces identical results. OS threads satisfy
//! (a)+(b) by accident of `mpsc` FIFOs; this engine satisfies them by
//! construction, with a run-until-blocked schedule instead of a global
//! wall-clock race.
//!
//! ## Task states and scheduling
//!
//! Each rank fiber is `Ready`, `Running`, `Blocked` (its inbox is empty and
//! it needs a message) or `Done`. The scheduler drains a ready deque seeded
//! in rank order; a running fiber yields only when its inbox runs dry, and a
//! send to a blocked rank re-readies it. A blocked rank can therefore run
//! arbitrarily far "ahead" or "behind" its peers in virtual time — virtual
//! time is per-rank and only synchronises through message arrivals, exactly
//! as with one thread per rank.
//!
//! ## Deadlock and crashes
//!
//! If the ready deque empties while fibers are still blocked, no message can
//! ever arrive for them (virtual deadlock). The scheduler then poisons the
//! simulation and resumes each blocked fiber so its receive fails with the
//! same "sender ranks hung up" panic the thread engine's closed channel
//! would raise — the failure surfaces as per-rank [`RankPanic`]s, never as a
//! hang. Rank panics themselves are caught at the fiber boundary; the dying
//! rank broadcasts a crash notice that wakes and cascades through blocked
//! peers, mirroring the thread engine's poison-pill protocol.

use super::fiber::{self, Fiber, FiberStart};
use super::{execute_rank, RankFate, RawRun};
use crate::comm::{Comm, Endpoint, Message, MsgStatus};
use crate::sim::SimBuilder;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Running,
    Blocked,
    Done,
}

/// State shared between the scheduler and every rank fiber. Single-threaded
/// by construction (fibers all run on the scheduler's OS thread), so plain
/// `Cell`/`RefCell` interior mutability suffices; no borrow is ever held
/// across a context switch.
pub(crate) struct EventShared {
    sched_sp: Cell<*mut u8>,
    task_sps: Vec<Cell<*mut u8>>,
    status: Vec<Cell<Status>>,
    ready: RefCell<VecDeque<usize>>,
    inboxes: RefCell<Vec<VecDeque<Message>>>,
    /// Set on virtual deadlock; blocked fibers then fail their receives.
    poisoned: Cell<bool>,
}

impl EventShared {
    fn new(n: usize) -> EventShared {
        EventShared {
            sched_sp: Cell::new(std::ptr::null_mut()),
            task_sps: (0..n).map(|_| Cell::new(std::ptr::null_mut())).collect(),
            status: (0..n).map(|_| Cell::new(Status::Ready)).collect(),
            ready: RefCell::new(VecDeque::with_capacity(n)),
            inboxes: RefCell::new((0..n).map(|_| VecDeque::new()).collect()),
            poisoned: Cell::new(false),
        }
    }
}

/// A rank's handle onto the shared scheduler state: the event-engine
/// counterpart of the thread engine's `mpsc` sender/receiver pair.
pub(crate) struct EventEndpoint {
    shared: Rc<EventShared>,
    rank: usize,
}

impl EventEndpoint {
    /// Enqueue `msg` on `to`'s inbox, waking it if it is blocked.
    ///
    /// Panics if `to` already finished — the thread engine's send to a
    /// dropped receiver raises the same "receiver rank hung up", just
    /// non-deterministically (only when the receiver's thread happens to
    /// have exited first).
    pub(crate) fn deliver(&self, to: usize, msg: Message) {
        self.deliver_checked(to, msg, false);
    }

    /// [`EventEndpoint::deliver`] with an explicit leniency flag: in
    /// survivable mode a send to a finished (usually crashed) rank is
    /// silently discarded — the thread engine's `let _ = tx.send(..)` to a
    /// dropped receiver — instead of asserting. The dead rank never reads
    /// its inbox again, so dropping and enqueueing are observationally
    /// identical; dropping just mirrors the thread engine exactly.
    pub(crate) fn deliver_checked(&self, to: usize, msg: Message, lenient: bool) {
        if self.shared.status[to].get() == Status::Done {
            assert!(lenient, "receiver rank hung up: rank {to} already finished");
            return;
        }
        self.shared.inboxes.borrow_mut()[to].push_back(msg);
        if self.shared.status[to].get() == Status::Blocked {
            self.shared.status[to].set(Status::Ready);
            self.shared.ready.borrow_mut().push_back(to);
        }
    }

    /// Next inbox message, yielding to the scheduler while the inbox is
    /// empty. Panics once the simulation is poisoned (virtual deadlock) —
    /// the event-engine analogue of the thread engine's hung-up channel.
    pub(crate) fn recv_next(&self) -> Message {
        loop {
            if let Some(m) = self.shared.inboxes.borrow_mut()[self.rank].pop_front() {
                return m;
            }
            assert!(
                !self.shared.poisoned.get(),
                "sender ranks hung up: rank {} blocked on recv with no message in flight",
                self.rank
            );
            self.shared.status[self.rank].set(Status::Blocked);
            self.yield_to_scheduler();
        }
    }

    /// Poison every unfinished peer's inbox with a crash notice (see
    /// [`Comm::broadcast_crash_notice`]).
    pub(crate) fn crash_broadcast(&self, clock: f64) {
        for to in 0..self.shared.task_sps.len() {
            // a finished peer no longer needs the notice
            if to == self.rank || self.shared.status[to].get() == Status::Done {
                continue;
            }
            self.deliver(
                to,
                Message {
                    from: self.rank,
                    tag: 0,
                    payload: Vec::new(),
                    arrival: clock,
                    status: MsgStatus::CrashNotice,
                },
            );
        }
    }

    fn yield_to_scheduler(&self) {
        // SAFETY: this runs on rank `self.rank`'s fiber, which the scheduler
        // entered through the `switch` in `run` below. That switch saved the
        // scheduler's stack pointer into `sched_sp`, which is therefore a live
        // continuation on the OS thread's own stack; this one saves the
        // fiber's into `task_sps[rank]`, where the scheduler's next resume of
        // this rank loads it, and its stack is the `Fiber` `run` keeps alive
        // until every fiber is done. No `RefCell` borrow is held: the caller
        // `recv_next` dropped its `inboxes` borrow at the end of the `if let`,
        // and `status` is a `Cell`.
        unsafe {
            fiber::switch(self.shared.task_sps[self.rank].as_ptr(), self.shared.sched_sp.as_ptr())
        }
    }
}

/// Run `f` on every rank as a fiber under the cooperative scheduler.
pub(crate) fn run<F, R>(b: &SimBuilder, f: &F) -> RawRun<R>
where
    F: Fn(&mut Comm) -> R + Sync,
    R: Send,
{
    let n = b.nprocs;
    let shared = Rc::new(EventShared::new(n));
    let results: Rc<RefCell<Vec<Option<RankFate<R>>>>> =
        Rc::new(RefCell::new((0..n).map(|_| None).collect()));

    let mut fibers = Vec::with_capacity(n);
    for rank in 0..n {
        let shared2 = Rc::clone(&shared);
        let results2 = Rc::clone(&results);
        let faults = b.faults.clone();
        let (net, timing, topology, trace) = (b.net, b.timing, b.topology, b.trace);
        let body = move || {
            let endpoint = Endpoint::Events(EventEndpoint { shared: Rc::clone(&shared2), rank });
            let mut comm = Comm::for_rank(rank, n, net, timing, trace, topology, faults, endpoint);
            let fate = execute_rank(&mut comm, f);
            drop(comm); // release the endpoint's shared handle eagerly
            results2.borrow_mut()[rank] = Some(fate);
            shared2.status[rank].set(Status::Done);
        };
        // SAFETY: lifetime erasure only. Every fiber body runs to completion
        // before this function returns on every non-panicking path, so the
        // borrows the closure captures (`f`, the shared state) outlive it.
        // On the panicking path (scheduler invariant breach) unfinished
        // fibers are never resumed again.
        let body: Box<dyn FnOnce()> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + '_>, Box<dyn FnOnce()>>(Box::new(body))
        };
        let start = FiberStart {
            body,
            save: shared.task_sps[rank].as_ptr(),
            load: shared.sched_sp.as_ptr(),
        };
        fibers.push(Fiber::spawn(b.stack_bytes, start, &shared.task_sps[rank]));
        shared.ready.borrow_mut().push_back(rank);
    }

    loop {
        let next = shared.ready.borrow_mut().pop_front();
        match next {
            Some(r) => {
                shared.status[r].set(Status::Running);
                // SAFETY: this saves the scheduler's stack pointer into
                // `sched_sp`, where rank `r` loads it when it yields or
                // finishes (`yield_to_scheduler`, `FiberStart::load`), and
                // loads `task_sps[r]`: either the initial frame
                // `Fiber::spawn` laid out or the continuation `r` saved when
                // it last yielded. `r` came off the ready deque, so it is not
                // `Done` and its stack in `fibers` is live. No `RefCell`
                // borrow is held: the `ready` borrow that popped `r` ended
                // with its statement.
                unsafe { fiber::switch(shared.sched_sp.as_ptr(), shared.task_sps[r].as_ptr()) };
            }
            None => {
                let blocked: Vec<usize> =
                    (0..n).filter(|&r| shared.status[r].get() != Status::Done).collect();
                if blocked.is_empty() {
                    break;
                }
                // Virtual deadlock: no in-flight message can ever wake these
                // ranks. Poison the run and resume each one so it fails its
                // receive (and cascades) instead of hanging the process.
                shared.poisoned.set(true);
                let mut ready = shared.ready.borrow_mut();
                for r in blocked {
                    shared.status[r].set(Status::Ready);
                    ready.push_back(r);
                }
            }
        }
    }

    for (rank, fb) in fibers.iter().enumerate() {
        assert!(
            fb.canary_intact(),
            "rank {rank} overflowed its {} B fiber stack; raise SimBuilder::stack_bytes",
            fb.stack_bytes()
        );
    }
    drop(fibers);

    let results = Rc::try_unwrap(results)
        .unwrap_or_else(|_| unreachable!("all fibers finished"))
        .into_inner();
    super::collect(results.into_iter().map(|slot| slot.expect("every rank recorded a fate")))
}
