//! CPU placement: the load generator gets a core of its own.
//!
//! On a small host the generator's threads and the topology's threads
//! otherwise share every core, so the generator steals time from the
//! system it measures and the scheduler's placement of a dozen threads
//! on a few cores changes from run to run. The run pins the topology to
//! all allowed CPUs but the last, and the load threads to the last;
//! threads inherit their creator's mask, so pinning the main thread
//! before the servers start places every server thread. The reactor's
//! default shard count follows the mask (`available_parallelism`).
//!
//! The process and thread CPU clocks here split a point's CPU time
//! between the topology and the load threads.

use std::io;

/// `cpu_set_t` as 1024 bits.
type CpuSet = [u64; 16];

mod sys {
    use std::os::raw::{c_int, c_void};

    /// `CLOCK_PROCESS_CPUTIME_ID`.
    pub const CLOCK_PROCESS: c_int = 2;
    /// `CLOCK_THREAD_CPUTIME_ID`.
    pub const CLOCK_THREAD: c_int = 3;

    /// `struct timespec`.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: std::os::raw::c_long,
        pub tv_nsec: std::os::raw::c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_void) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_void) -> c_int;
    }
}

fn cpu_clock(clock: std::os::raw::c_int) -> std::time::Duration {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid-out local for the
    // whole call, and both clock ids are valid on every Linux kernel.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return std::time::Duration::ZERO;
    }
    std::time::Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// CPU time consumed by every thread of this process, live or exited.
#[must_use]
pub fn process_cpu() -> std::time::Duration {
    cpu_clock(sys::CLOCK_PROCESS)
}

/// CPU time consumed by the calling thread.
#[must_use]
pub fn thread_cpu() -> std::time::Duration {
    cpu_clock(sys::CLOCK_THREAD)
}

/// CPUs this thread may run on.
///
/// # Errors
///
/// When the kernel refuses the query.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe {
        sys::sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr().cast())
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|&cpu| set[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect())
}

/// Restrict the calling thread (and threads it creates later) to `cpus`.
///
/// # Errors
///
/// When the kernel refuses the mask.
pub fn pin(cpus: &[usize]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set[cpu / 64] |= 1u64 << (cpu % 64);
    }
    // SAFETY: `set` is a live buffer of exactly the size passed, only
    // read by the kernel, and pid 0 names the calling thread.
    let rc =
        unsafe { sys::sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr().cast()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The split of the allowed CPUs between the topology and the load
/// generator; `None` on a single CPU, where both share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// CPUs for the servers, the monitor and the audit writer.
    pub topology: Vec<usize>,
    /// CPUs for the load threads.
    pub load: Vec<usize>,
}

impl Placement {
    /// Split `allowed`: the last CPU for load, the rest for the topology.
    #[must_use]
    pub fn split(allowed: &[usize]) -> Option<Placement> {
        let (&last, rest) = allowed.split_last()?;
        (!rest.is_empty()).then(|| Placement {
            topology: rest.to_vec(),
            load: vec![last],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_cpu_goes_to_the_load_generator() {
        assert_eq!(Placement::split(&[0]), None);
        assert_eq!(Placement::split(&[]), None);
        assert_eq!(
            Placement::split(&[0, 1]),
            Some(Placement {
                topology: vec![0],
                load: vec![1]
            })
        );
        assert_eq!(Placement::split(&[2, 3, 5]).map(|p| p.load), Some(vec![5]));
    }
}
