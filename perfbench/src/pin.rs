//! Thread placement. On a two-CPU machine the scheduler may put the
//! client and the server worker on one CPU for a while and on two for
//! another, and a round trip costs differently in each case; giving each
//! its own CPU makes every run measure the same arrangement.

use std::mem::size_of;
use std::sync::OnceLock;

/// Index (for [`cpu`]) of the CPU that runs the program's own work: not
/// the first, which takes most device interrupts. On a 2-vCPU VM the
/// program ran up to a third slower, and far less steadily, on CPU 0.
pub const QUIET: usize = 1;

/// Words of a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<[u64; MASK_WORDS]>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of::<[u64; MASK_WORDS]>(), mask.as_ptr()) == 0 }
}

/// The `i`-th CPU of those the process started with, wrapping around;
/// `None` on a single CPU, where there is nothing to separate.
pub fn cpu(i: usize) -> Option<usize> {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    let cpus = CPUS.get_or_init(allowed_cpus);
    (cpus.len() >= 2).then(|| cpus[i % cpus.len()])
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_calling_thread_can_be_pinned() {
        std::thread::spawn(|| {
            let cpus = super::allowed_cpus();
            assert!(!cpus.is_empty());
            assert!(super::pin_to(cpus[0]));
            assert_eq!(super::allowed_cpus(), vec![cpus[0]]);
        })
        .join()
        .unwrap();
    }
}
