//! The three libc calls the harness needs and `std` does not expose:
//! `wait4` (reap a child *with* its resource usage — CPU of the child
//! and every descendant it waited for, and the largest resident set in
//! that tree), `getrusage` (the same for this process, used by the
//! in-process workload) and `kill` on a process group (so a timed-out
//! coordinator takes its workers and their singletons with it).
//!
//! `std` already links libc, so the symbols resolve without a crate.
//! Layouts are the Linux 64-bit ABI; the crate refuses to build
//! elsewhere rather than read garbage.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("esse-perf reads rusage through the Linux 64-bit ABI");

/// `struct rusage` (Linux, LP64): two `timeval`s then 14 longs, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn getrusage(who: i32, rusage: *mut RawRusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const RUSAGE_SELF: i32 = 0;
const SIGKILL: i32 = 9;

/// CPU time and peak resident set of a process tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Largest resident set of any process in the tree, KiB.
    pub max_rss_kb: i64,
}

impl From<&RawRusage> for Usage {
    fn from(r: &RawRusage) -> Usage {
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage { cpu_s: secs(r.utime) + secs(r.stime), max_rss_kb: r.maxrss_kb }
    }
}

/// Non-blocking reap of child `pid`. `Ok(None)` while it is still
/// running; `Ok(Some((exit_code, usage)))` once it has ended (a signal
/// death reports `-signal`).
pub fn try_reap(pid: u32) -> std::io::Result<Option<(i32, Usage)>> {
    let mut status = 0i32;
    let mut ru = RawRusage::default();
    // SAFETY: `status` and `ru` are live, writable and of the layout
    // wait4 expects on this ABI (checked by the cfg above); `pid` is a
    // child of this process that std has not waited for.
    let got = unsafe { wait4(pid as i32, &mut status, WNOHANG, &mut ru) };
    match got {
        0 => Ok(None),
        -1 => Err(std::io::Error::last_os_error()),
        _ => {
            let signal = status & 0x7f;
            let code = if signal == 0 { (status >> 8) & 0xff } else { -signal };
            Ok(Some((code, Usage::from(&ru))))
        }
    }
}

/// Resource usage of this process so far.
pub fn self_usage() -> Usage {
    let mut ru = RawRusage::default();
    // SAFETY: `ru` is live, writable and laid out as getrusage expects.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    Usage::from(&ru)
}

/// SIGKILL every process in the group led by `pgid` (children are
/// spawned as group leaders, so this is the child and its descendants).
pub fn kill_group(pgid: u32) {
    // SAFETY: plain syscall, no memory is passed. A vanished group
    // yields ESRCH, which is the outcome wanted anyway.
    unsafe { kill(-(pgid as i32), SIGKILL) };
}
