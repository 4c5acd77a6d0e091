//! Stackful fibers: the context-switch layer under the event engine.
//!
//! A fiber is a saved callee-saved register set plus a heap-allocated stack.
//! The scheduler resumes a fiber with [`switch`]; the fiber yields back the
//! same way. Because a switch is an ordinary function call from the
//! compiler's point of view, only the registers the platform ABI requires a
//! callee to preserve need saving — callee-saved general-purpose registers
//! on x86-64 (SysV), plus the low halves of `v8`–`v15` on aarch64 (AAPCS64).
//! That keeps a switch at a handful of moves (~20 ns), which is what makes
//! simulations with tens of millions of rank suspensions tractable.
//!
//! Floating-point *control* state (rounding mode, exception masks) is not
//! saved: nothing in this workspace alters it, so every fiber sees the
//! process-default state.
//!
//! Supported on x86-64 and aarch64; [`SUPPORTED`] is `false` elsewhere and
//! the event engine falls back to the thread engine (identical results, no
//! scale win).

use std::cell::Cell;

/// Whether this target has a fiber backend.
pub(crate) const SUPPORTED: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

/// Everything a fiber needs on first entry, boxed and passed through the
/// initial register frame.
pub(crate) struct FiberStart {
    /// Runs the rank to completion. Must not unwind — the rank harness
    /// catches panics before they reach the fiber trampoline.
    pub body: Box<dyn FnOnce()>,
    /// Slot this fiber's stack pointer is saved into when it yields.
    pub save: *mut *mut u8,
    /// Slot holding the scheduler's saved stack pointer.
    pub load: *mut *mut u8,
}

/// First Rust frame on a fresh fiber stack, reached via the architecture
/// trampoline. Never returns: after `body` completes, the fiber parks by
/// yielding to the scheduler forever (a correct scheduler never resumes a
/// finished fiber; a buggy resume just bounces straight back).
unsafe extern "C" fn fiber_entry(arg: *mut FiberStart) -> ! {
    // SAFETY: `arg` is the pointer `Box::into_raw` returned in
    // `Fiber::spawn`, a live `FiberStart` allocation nothing else owns or
    // frees. It reaches here only through the initial frame `arch::prepare`
    // laid out, and the first `switch` into that frame replaces it with a
    // saved continuation, so this entry runs once per fiber and the box is
    // taken back exactly once.
    let FiberStart { body, save, load } = *unsafe { Box::from_raw(arg) };
    body();
    loop {
        // SAFETY: `save` and `load` are the fiber's and the scheduler's
        // stack-pointer slots, `Cell`s in the event engine's shared state,
        // which its run loop holds (an `Rc`) until every fiber is done; a
        // fiber only runs inside that loop. `load` holds the scheduler's
        // continuation, saved on the OS thread's stack by the `switch` that
        // resumed this fiber and live while the loop waits for it. This
        // fiber's own stack, which `save` records, is the `Fiber` allocation
        // the loop keeps until it returns.
        unsafe { switch(save, load) };
    }
}

/// Magic word written at the low end of every fiber stack; checked on
/// teardown as a best-effort overflow detector.
const STACK_CANARY: u64 = 0x68_7a_73_69_6d_5f_66_62; // "hzsim_fb"

/// An allocated, possibly-suspended fiber. Holds only the stack memory; the
/// saved stack pointer lives in the scheduler's slot so yields need no
/// access to this struct.
pub(crate) struct Fiber {
    stack: Vec<u8>,
    size: usize,
}

impl Fiber {
    /// Allocate a stack and arrange for the first [`switch`] through `sp` to
    /// enter `start.body`. The stack is only *reserved* here — pages are
    /// committed lazily by the OS as the fiber actually touches them, so
    /// thousands of lightly-used fibers stay cheap.
    pub(crate) fn spawn(stack_bytes: usize, start: FiberStart, sp: &Cell<*mut u8>) -> Fiber {
        let size = stack_bytes.max(64 * 1024);
        let mut stack: Vec<u8> = Vec::with_capacity(size);
        let base = stack.as_mut_ptr();
        // SAFETY: `base` is the start of `stack`'s heap allocation of at
        // least `size` (≥ 64 KiB) bytes, live for as long as the returned
        // `Fiber` owns it: moving the `Fiber` moves only the `Vec`'s header,
        // and nothing pushes to it, so it never reallocates. The canary takes
        // its first 8 bytes, an unaligned write into spare capacity.
        // `base.add(size)` is one past the end of those `size` bytes, so
        // `prepare`'s frame (at most 176 bytes below it) lies inside the
        // allocation, far above the canary. `arg` is a fresh box, handed to
        // the frame and reclaimed once, by `fiber_entry`.
        unsafe {
            (base as *mut u64).write_unaligned(STACK_CANARY);
            let arg = Box::into_raw(Box::new(start));
            sp.set(arch::prepare(base.add(size), arg));
        }
        Fiber { stack, size }
    }

    /// Whether the overflow canary at the stack base survived the run.
    pub(crate) fn canary_intact(&self) -> bool {
        // SAFETY: the stack's allocation is at least 64 KiB and lives as long
        // as `self`; its first 8 bytes were written with the canary in
        // `spawn`, so they are initialized. A fiber that overflowed may have
        // overwritten them, but any bit pattern is a valid `u64`: the read is
        // defined, and only its value says whether the canary survived.
        unsafe { (self.stack.as_ptr() as *const u64).read_unaligned() == STACK_CANARY }
    }

    /// Configured stack size in bytes.
    pub(crate) fn stack_bytes(&self) -> usize {
        self.size
    }
}

/// Save the current continuation into `*save`, then resume the one in
/// `*load`.
///
/// # Safety
/// `*load` must hold a stack pointer produced by [`arch::prepare`] or by a
/// previous `switch` save, and the stack it points into must still be live.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) use arch::switch;

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::FiberStart;

    /// See the module docs: saves the SysV callee-saved GP registers on the
    /// current stack, parks the stack pointer in `*save`, and resumes from
    /// `*load`.
    #[unsafe(naked)]
    pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut *mut u8) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First instruction pointer of a fresh fiber: moves the `FiberStart`
    /// pointer (parked in `r12` by [`prepare`]) into the argument register
    /// and calls [`super::fiber_entry`], which never returns.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym super::fiber_entry,
        )
    }

    /// Lay out the initial frame [`switch`] restores: six callee-saved
    /// slots (with `arg` in the `r12` slot) and the trampoline as the
    /// return address, positioned so the trampoline is entered with
    /// `rsp % 16 == 0` (its `call` then establishes standard SysV entry
    /// alignment for Rust code).
    ///
    /// # Safety
    /// `stack_top` must be the one-past-the-end pointer of a live allocation
    /// with at least 120 usable bytes below it.
    pub(crate) unsafe fn prepare(stack_top: *mut u8, arg: *mut FiberStart) -> *mut u8 {
        // SAFETY: rounding `stack_top` down to a multiple of 16 moves it at
        // most 15 bytes lower, and the frame is the 56 bytes (seven `u64`
        // slots) below that, so every write lands in `[stack_top - 71,
        // stack_top)`: inside the 120 bytes the contract guarantees, which
        // also keeps `sub` and `add` within the allocation. `top` is
        // 16-aligned, so `sp = top - 56` and each slot `sp + 8 * i` is
        // 8-aligned, as `write` requires.
        unsafe {
            let top = ((stack_top as usize) & !15) as *mut u8;
            let sp = top.sub(7 * 8); // ≡ 8 (mod 16)
            let q = sp as *mut u64;
            q.add(0).write(0); // r15
            q.add(1).write(0); // r14
            q.add(2).write(0); // r13
            q.add(3).write(arg as u64); // r12
            q.add(4).write(0); // rbx
            q.add(5).write(0); // rbp
            q.add(6).write(trampoline as *const () as usize as u64); // ret target
            sp
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::FiberStart;

    /// See the module docs: saves the AAPCS64 callee-saved registers
    /// (x19–x28, fp, lr, d8–d15) on the current stack, parks the stack
    /// pointer in `*save`, and resumes from `*load`.
    #[unsafe(naked)]
    pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut *mut u8) {
        core::arch::naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x9, sp",
            "str x9, [x0]",
            "ldr x9, [x1]",
            "mov sp, x9",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    /// First instruction pointer of a fresh fiber: moves the `FiberStart`
    /// pointer (parked in `x19` by [`prepare`]) into the argument register
    /// and calls [`super::fiber_entry`], which never returns.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov x0, x19",
            "bl {entry}",
            "brk #1",
            entry = sym super::fiber_entry,
        )
    }

    /// Lay out the initial 160-byte frame [`switch`] restores: `arg` in the
    /// `x19` slot, the trampoline in the `x30` (link register) slot, zeros
    /// elsewhere. The restored `sp` is the 16-aligned stack top, as AAPCS64
    /// requires.
    ///
    /// # Safety
    /// `stack_top` must be the one-past-the-end pointer of a live allocation
    /// with at least 176 usable bytes below it.
    pub(crate) unsafe fn prepare(stack_top: *mut u8, arg: *mut FiberStart) -> *mut u8 {
        // SAFETY: rounding `stack_top` down to a multiple of 16 moves it at
        // most 15 bytes lower, and the frame is the 160 bytes (twenty `u64`
        // slots) below that, so every write lands in `[stack_top - 175,
        // stack_top)`: inside the 176 bytes the contract guarantees, which
        // also keeps `sub` and `add` within the allocation. `top` is
        // 16-aligned, so `sp = top - 160` and each slot `sp + 8 * i` is
        // 8-aligned, as `write` requires.
        unsafe {
            let top = ((stack_top as usize) & !15) as *mut u8;
            let sp = top.sub(160);
            let q = sp as *mut u64;
            for i in 0..20 {
                q.add(i).write(0);
            }
            q.add(0).write(arg as u64); // x19
            q.add(11).write(trampoline as *const () as usize as u64); // x30 (lr)
            sp
        }
    }
}

// On unsupported targets the event engine never calls into this module
// (`SUPPORTED` gates it), but the types above must still compile.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) unsafe fn switch(_save: *mut *mut u8, _load: *mut *mut u8) {
    unreachable!("fiber backend is not supported on this architecture")
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod arch {
    use super::FiberStart;
    pub(crate) unsafe fn prepare(_stack_top: *mut u8, _arg: *mut FiberStart) -> *mut u8 {
        unreachable!("fiber backend is not supported on this architecture")
    }
}

#[cfg(all(test, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// Ping-pong between the test "scheduler" and one fiber through raw
    /// switches: exercises prepare/trampoline/entry and the final park.
    #[test]
    fn fiber_runs_yields_and_finishes() {
        let sched_sp = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let task_sp = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let log = Rc::new(Cell::new(0u32));

        let (s2, t2, l2) = (Rc::clone(&sched_sp), Rc::clone(&task_sp), Rc::clone(&log));
        let body = move || {
            l2.set(l2.get() + 1);
            unsafe { switch(t2.as_ptr(), s2.as_ptr()) }; // yield once
            l2.set(l2.get() + 10);
        };
        let start =
            FiberStart { body: Box::new(body), save: task_sp.as_ptr(), load: sched_sp.as_ptr() };
        let fb = Fiber::spawn(128 * 1024, start, &task_sp);

        unsafe { switch(sched_sp.as_ptr(), task_sp.as_ptr()) };
        assert_eq!(log.get(), 1, "fiber ran to its first yield");
        unsafe { switch(sched_sp.as_ptr(), task_sp.as_ptr()) };
        assert_eq!(log.get(), 11, "fiber resumed and finished");
        assert!(fb.canary_intact());
        assert!(fb.stack_bytes() >= 128 * 1024);
    }

    /// A deep-ish call chain on the fiber stack must not clobber the canary.
    #[test]
    fn fiber_stack_hosts_real_frames() {
        fn burn(depth: usize, acc: u64) -> u64 {
            let local = [acc; 16];
            if depth == 0 {
                local.iter().sum()
            } else {
                burn(depth - 1, acc + 1) + local[0]
            }
        }
        let sched_sp = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let task_sp = Rc::new(Cell::new(std::ptr::null_mut::<u8>()));
        let out = Rc::new(Cell::new(0u64));
        let o2 = Rc::clone(&out);
        let start = FiberStart {
            body: Box::new(move || o2.set(burn(100, 1))),
            save: task_sp.as_ptr(),
            load: sched_sp.as_ptr(),
        };
        let fb = Fiber::spawn(256 * 1024, start, &task_sp);
        unsafe { switch(sched_sp.as_ptr(), task_sp.as_ptr()) };
        assert!(out.get() > 0);
        assert!(fb.canary_intact());
    }
}
