//! Rotates the measuring thread over the CPUs it may run on.
//!
//! On a small shared machine each core's speed drifts with what its
//! neighbours do, by tens of percent over seconds, and the drift of one
//! core is only partly shared by the other. A single-threaded run that
//! the scheduler leaves on one core measures that core alone; moving
//! the thread to the next allowed core every `SLICE` makes every run
//! sample all of them for equal time.

use std::time::{Duration, Instant};

const SLICE: Duration = Duration::from_millis(250);

/// Words in a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &[u64; MASK_WORDS]) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread. A failure leaves the affinity as
    // it was, which only costs the rotation.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

/// Restores the thread's original affinity when dropped.
pub struct Rotor {
    original: [u64; MASK_WORDS],
    cpus: Vec<usize>,
    next: usize,
    since: Instant,
}

impl Rotor {
    /// `None` when the thread may run on fewer than two CPUs.
    pub fn new() -> Option<Rotor> {
        let original = get()?;
        let cpus: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let mut rotor = Rotor {
            original,
            cpus,
            next: 0,
            since: Instant::now(),
        };
        if rotor.cpus.len() < 2 {
            return None;
        }
        rotor.step();
        Some(rotor)
    }

    fn step(&mut self) {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set(&mask);
        self.since = Instant::now();
    }

    /// Moves to the next CPU once the current slice is over.
    pub fn tick(&mut self) {
        if self.since.elapsed() >= SLICE {
            self.step();
        }
    }
}

impl Drop for Rotor {
    fn drop(&mut self) {
        set(&self.original);
    }
}
