//! Process control the standard library does not expose: CPU affinity
//! and the resource usage of a reaped child. Direct FFI into libc, as
//! `isel-service`'s `mmap.rs` does — the build has no `libc` crate.

use std::process::Child;

mod ffi {
    use std::os::raw::{c_int, c_long};

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: [c_long; 2],
        pub ru_stime: [c_long; 2],
        pub ru_maxrss: c_long,
        pub rest: [c_long; 13],
    }

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, ru: *mut Rusage) -> c_int;
    }
}

/// Words in the affinity mask: room for 1024 CPUs, the kernel default.
const MASK_WORDS: usize = 16;

/// Pin the calling process to the highest CPU in its allowed mask.
/// Child processes and threads started afterwards inherit the pin.
/// Returns the CPU, or `None` when the mask could not be read or set
/// (the caller prints `pinned=false` and carries on).
pub fn pin_to_highest_cpu() -> Option<u32> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { ffi::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = highest_set_bit(&mask)?;
    let mut one = [0u64; MASK_WORDS];
    one[(cpu / 64) as usize] = 1u64 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes that the call only
    // reads.
    (unsafe { ffi::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

fn highest_set_bit(mask: &[u64]) -> Option<u32> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i as u32 * 64 + 63 - w.leading_zeros())
}

/// Peak resident set of the calling process so far, KiB (`VmHWM`).
///
/// A child's `ru_maxrss` is never below this at the moment of the
/// spawn — the kernel carries the spawning address space's peak over
/// the `exec` — so the harness checks its own peak stays under what it
/// reports for the children.
pub fn own_peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// How a reaped child ended and what it used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exit {
    /// Exit code; `None` when a signal killed the child.
    pub code: Option<i32>,
    /// Peak resident set of the child *and* every descendant it waited
    /// for (Linux reports the maximum of both), KiB.
    pub max_rss_kib: u64,
}

impl Exit {
    /// Whether the child exited with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Wait for `child` and return its exit status with its resource usage.
///
/// Reaps the process through `wait4`, so `child.wait()` must not be
/// called afterwards; the handle is consumed to make that impossible.
///
/// # Errors
///
/// Returns the OS error when `wait4` fails.
pub fn wait_with_usage(child: Child) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = ffi::Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live and writable for the call,
        // and `pid` is our own unreaped child.
        let got = unsafe { ffi::wait4(pid, &mut status, 0, &mut ru) };
        if got == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The pid is reaped; dropping the handle only closes its pipes.
    drop(child);
    let signalled = status & 0x7f != 0;
    Ok(Exit {
        code: (!signalled).then_some((status >> 8) & 0xff),
        max_rss_kib: ru.ru_maxrss.max(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn highest_bit_spans_words() {
        assert_eq!(highest_set_bit(&[0, 0]), None);
        assert_eq!(highest_set_bit(&[0b1011, 0]), Some(3));
        assert_eq!(highest_set_bit(&[1, 1 << 5]), Some(69));
    }

    #[test]
    fn own_peak_is_readable_and_plausible() {
        let kib = own_peak_rss_kib().expect("/proc/self/status has VmHWM");
        assert!((100..100_000_000).contains(&kib), "{kib} KiB");
    }

    #[test]
    fn reaped_children_report_code_and_memory() {
        let ok = wait_with_usage(Command::new("true").spawn().unwrap()).unwrap();
        assert!(ok.success());
        assert!(ok.max_rss_kib > 0);
        let bad = wait_with_usage(Command::new("false").spawn().unwrap()).unwrap();
        assert_eq!(bad.code, Some(1));
        assert!(!bad.success());
    }
}
