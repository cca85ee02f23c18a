//! Process-level measurements: CPU time, peak RSS, CPU affinity.

use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `cpu_set_t` of glibc: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// User and system CPU seconds of the whole process so far (every
/// thread, live or joined).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    /// User CPU seconds.
    pub user: f64,
    /// System CPU seconds.
    pub sys: f64,
}

impl Cpu {
    /// Reads the process's CPU usage.
    pub fn now() -> Cpu {
        let mut u = Rusage::default();
        // SAFETY: `u` is a valid, writable `struct rusage`; RUSAGE_SELF = 0.
        let rc = unsafe { getrusage(0, &mut u) };
        if rc != 0 {
            return Cpu::default();
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Cpu {
            user: secs(&u.utime),
            sys: secs(&u.stime),
        }
    }

    /// User + system seconds.
    pub fn total(self) -> f64 {
        self.user + self.sys
    }

    /// CPU used since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// A wall clock plus process CPU usage, started together.
pub struct Stopwatch {
    wall: Instant,
    cpu: Cpu,
}

impl Stopwatch {
    /// Starts measuring.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: Cpu::now(),
            wall: Instant::now(),
        }
    }

    /// Wall seconds and CPU usage since the start.
    pub fn stop(&self) -> (f64, Cpu) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, Cpu::now().since(self.cpu))
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPUs the calling thread may run on. Threads it spawns inherit
/// its mask, so a pin must be undone with [`Affinity::restore`] before
/// the driver starts its task threads.
pub struct Affinity {
    mask: CpuSet,
}

impl Affinity {
    /// The calling thread's mask, or `None` where it cannot be read.
    pub fn current() -> Option<Affinity> {
        let mut mask = CpuSet::default();
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(Affinity { mask })
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.mask.len() * 64)
            .filter(|&c| self.mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Moves the calling thread onto `cpu` alone.
    pub fn pin(cpu: usize) -> bool {
        let mut mask = CpuSet::default();
        mask[cpu / 64] |= 1 << (cpu % 64);
        set(&mask)
    }

    /// Gives the calling thread this mask back.
    pub fn restore(&self) -> bool {
        set(&self.mask)
    }
}

fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_moves_the_thread_and_restore_undoes_it() {
        let all = Affinity::current().expect("readable mask");
        let cpus = all.cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        assert!(Affinity::pin(last));
        assert_eq!(Affinity::current().unwrap().cpus(), vec![last]);
        assert!(all.restore());
        assert_eq!(Affinity::current().unwrap().cpus(), cpus);
    }
}
