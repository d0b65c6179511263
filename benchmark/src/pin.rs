//! Pins the process to one CPU.
//!
//! A closed-loop client and the daemon's one worker take turns: while one
//! runs the other waits on the socket. Left to the scheduler, the two
//! threads sometimes share a CPU (a wake-up is a context switch) and
//! sometimes sit on different ones (a wake-up is an inter-processor
//! interrupt to a halted virtual CPU, several times dearer on a VM), and
//! which it is can last a whole run: on this host the median schedule read
//! measured 13 µs or 44 µs depending on nothing the code did. Pinned to one
//! CPU the threads alternate on it, an op costs the CPU time of both sides
//! plus two context switches, and the other CPU is left to the host's own
//! interrupts. The simulator workload is one thread and merely stops
//! migrating.
//!
//! Tried and dropped: moving between the CPUs to dodge the host's slow
//! spells, either by timing a spin kernel on every CPU before each pass and
//! taking the fastest, or by replaying the passes on the CPUs in rotation so
//! that the per-op minimum keeps whichever was quiet. The spells are the
//! machine's, not a CPU's: an allocate-fill-free kernel alternated between
//! this host's two CPUs for 300 s read 17-23 ms on both, its 10 s medians
//! correlated at r = 0.77, and the minimum over both CPUs varied as much
//! (cv 0.074) as either alone (0.068, 0.073).

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it is allowed on. Returns that CPU, or `None`
/// where affinity cannot be set (not Linux, or the call failed) — the run
/// then proceeds unpinned and says so.
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly the size passed and
        // names a CPU the kernel just reported as allowed.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin() -> Option<usize> {
        None
    }
}
