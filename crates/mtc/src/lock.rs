//! Advisory working-directory lock for the coordinator.
//!
//! Two `esse_master` processes appending to the same `run.journal`
//! would interleave frames and corrupt the run. [`WorkdirLock`] makes
//! that a startup error instead: the coordinator creates `master.lock`
//! with `O_CREAT | O_EXCL` (atomic on every filesystem the pool
//! supports), writes its PID into it, and removes it on drop.
//!
//! A coordinator that was SIGKILLed leaves its lock behind; that must
//! not brick the workdir, because the kill–resume harness does exactly
//! this in a loop. Breaking a stale lock safely is the subtle part:
//! two `--resume` invocations racing after a crash must resolve to
//! *exactly one* live coordinator. The naive protocol (read PID, see
//! it dead, `unlink`, re-create) has a hole — breaker B can sample the
//! dead PID, breaker A can break and re-create a *fresh live* lock,
//! and B's unlink then destroys A's lock, leaving two masters.
//!
//! The protocol here never unlinks the lock path based on a stale
//! read. A breaker *steals* the lock by atomically renaming it to a
//! shared break-marker (`master.lock.breaking`) — only one breaker can
//! win the rename — and then re-checks the PID it actually captured:
//!
//! * dead (or garbled): the steal was legitimate; the marker is
//!   unlinked and everyone races on the ordinary `O_EXCL` create.
//! * alive: the breaker grabbed a lock that was re-created under it;
//!   it renames the marker straight back and reports `Held`.
//!
//! The give-back rename can clobber a third process's just-created
//! lock, so `O_EXCL` creation alone is no longer proof of ownership:
//! after creating, the winner waits out any in-flight break marker and
//! confirms the lock file still carries its own PID (the "PID
//! liveness re-check under the lock"). A creator that finds another
//! live PID in its own lock file lost the race and reports `Held`.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Lock file name inside a working directory.
pub const LOCK_FILE: &str = "master.lock";

/// In-flight break marker: a stale lock is renamed here while the
/// breaker decides whether the steal was legitimate. While this file
/// exists, `O_EXCL` creation of `master.lock` is not yet ownership.
pub const BREAK_MARKER: &str = "master.lock.breaking";

/// How long a break marker may sit before it is presumed orphaned (its
/// breaker died mid-break) and recovered by whoever is waiting on it.
const MARKER_ORPHAN_AFTER: Duration = Duration::from_millis(500);

/// A held advisory lock; released on drop.
#[derive(Debug)]
pub struct WorkdirLock {
    path: PathBuf,
}

/// Why the lock could not be acquired.
#[derive(Debug)]
pub enum LockError {
    /// Another live process (PID inside) holds the lock.
    Held {
        /// PID recorded in the lock file, if readable.
        pid: Option<u32>,
    },
    /// Filesystem error while acquiring.
    Io(io::Error),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Held { pid: Some(pid) } => {
                write!(f, "workdir is locked by a running master (pid {pid})")
            }
            LockError::Held { pid: None } => write!(f, "workdir is locked by another master"),
            LockError::Io(e) => write!(f, "lock I/O error: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

impl From<io::Error> for LockError {
    fn from(e: io::Error) -> LockError {
        LockError::Io(e)
    }
}

/// Is the process with this PID still alive?
///
/// On Linux the answer comes from `/proc/PID/stat` and needs no signal
/// permission. An unreaped zombie still has an entry but is dead for our
/// purposes (it will never coordinate its workdir again), so the state
/// field right of the comm field decides. Elsewhere we conservatively
/// assume the process is alive (a human can remove a lock by hand).
pub fn process_alive(pid: u32) -> bool {
    if !cfg!(target_os = "linux") {
        return true;
    }
    match fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => {
            let state = stat.rsplit(')').next().and_then(|rest| rest.trim().chars().next());
            !matches!(state, Some('Z' | 'X') | None)
        }
        Err(_) => false,
    }
}

/// Read the PID recorded in a lock (or marker) file, if readable.
fn read_pid(path: &Path) -> Option<u32> {
    fs::read_to_string(path).ok().and_then(|s| s.trim().parse::<u32>().ok())
}

impl WorkdirLock {
    /// Acquire the lock inside `workdir`, breaking stale ones (holder
    /// PID no longer alive) as needed. Exactly one of any number of
    /// concurrent acquirers wins; every loser gets
    /// [`LockError::Held`].
    pub fn acquire(workdir: impl AsRef<Path>) -> Result<WorkdirLock, LockError> {
        let path = workdir.as_ref().join(LOCK_FILE);
        let marker = workdir.as_ref().join(BREAK_MARKER);
        let mut last_seen: Option<u32> = None;
        // Bounded retries: every iteration either decides or observes
        // another process making progress; the bound only guards
        // against pathological filesystem behavior.
        for _ in 0..64 {
            match Self::try_create(&path) {
                Ok(lock) => {
                    // O_EXCL success is provisional: a breaker may
                    // rename an older live lock back over ours.
                    match Self::confirm_ownership(&path, &marker) {
                        Confirm::Owned => return Ok(lock),
                        Confirm::Lost { pid } => {
                            // Our lock file no longer carries our PID;
                            // do NOT let Drop unlink the winner's file.
                            std::mem::forget(lock);
                            return Err(LockError::Held { pid });
                        }
                        Confirm::Retry => {
                            std::mem::forget(lock);
                            continue;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let pid = read_pid(&path);
                    last_seen = pid.or(last_seen);
                    let stale = match pid {
                        Some(pid) => pid != std::process::id() && !process_alive(pid),
                        // Unreadable/garbled lock: a concurrent writer
                        // mid-create, or true garbage. Retry; repeated
                        // garbage is treated as stale by the steal
                        // path below (rename + re-read decides).
                        None => true,
                    };
                    if !stale {
                        return Err(LockError::Held { pid });
                    }
                    // Steal the stale lock atomically. Only one
                    // breaker wins the rename; the marker now holds
                    // whatever the path held at the instant of the
                    // steal, which is what we re-verify.
                    match fs::rename(&path, &marker) {
                        Ok(()) => match read_pid(&marker) {
                            Some(p) if p != std::process::id() && process_alive(p) => {
                                // We stole a lock that was re-created
                                // fresh under us: give it straight
                                // back (any creator we clobber will
                                // fail its own ownership confirm).
                                let _ = fs::rename(&marker, &path);
                                return Err(LockError::Held { pid: Some(p) });
                            }
                            _ => {
                                // Genuinely stale (or garbled): the
                                // steal stands. Race on O_EXCL.
                                let _ = fs::remove_file(&marker);
                            }
                        },
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {
                            // Another breaker got there first.
                        }
                        Err(e) => return Err(LockError::Io(e)),
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(LockError::Held { pid: last_seen })
    }

    fn try_create(path: &Path) -> io::Result<WorkdirLock> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        writeln!(file, "{}", std::process::id())?;
        file.sync_all()?;
        Ok(WorkdirLock { path: path.to_path_buf() })
    }

    /// After a successful `O_EXCL` create: wait out any in-flight
    /// break marker, then confirm the lock file still names us.
    fn confirm_ownership(path: &Path, marker: &Path) -> Confirm {
        let t0 = Instant::now();
        loop {
            if marker.exists() {
                if t0.elapsed() > MARKER_ORPHAN_AFTER {
                    // The breaker died mid-break. Recover on its
                    // behalf: a live stolen PID is given back (it is
                    // the rightful older holder — even over our own
                    // fresh file), a dead one is discarded.
                    match read_pid(marker) {
                        Some(p) if p != std::process::id() && process_alive(p) => {
                            let _ = fs::rename(marker, path);
                        }
                        _ => {
                            let _ = fs::remove_file(marker);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            // No break in flight: the file's content is the verdict.
            return match read_pid(path) {
                Some(p) if p == std::process::id() => Confirm::Owned,
                Some(p) if process_alive(p) => Confirm::Lost { pid: Some(p) },
                // Our file was displaced by something dead or
                // unreadable — go around again.
                _ => Confirm::Retry,
            };
        }
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome of the post-create ownership confirmation.
enum Confirm {
    Owned,
    Lost { pid: Option<u32> },
    Retry,
}

impl Drop for WorkdirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esse-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn exclusive_within_and_released_on_drop() {
        let dir = tmpdir("excl");
        let lock = WorkdirLock::acquire(&dir).unwrap();
        // Second acquisition sees our own live PID and refuses.
        match WorkdirLock::acquire(&dir) {
            Err(LockError::Held { pid }) => assert_eq!(pid, Some(std::process::id())),
            other => panic!("expected Held, got {other:?}"),
        }
        drop(lock);
        // Released: a fresh acquire succeeds.
        let relock = WorkdirLock::acquire(&dir).unwrap();
        assert!(relock.path().exists());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_lock_is_broken() {
        let dir = tmpdir("stale");
        // A PID that cannot be running: beyond default pid_max.
        fs::write(dir.join(LOCK_FILE), "4194304999\n").unwrap();
        let lock = WorkdirLock::acquire(&dir).expect("stale lock must be broken");
        let pid: u32 = fs::read_to_string(lock.path()).unwrap().trim().parse().unwrap();
        assert_eq!(pid, std::process::id());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn an_exited_but_unreaped_holder_is_dead() {
        let dir = tmpdir("zombie");
        let mut child = std::process::Command::new("true").spawn().unwrap();
        // Exited, not reaped: a zombie whose `/proc` entry remains.
        let stat = format!("/proc/{}/stat", child.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fs::read_to_string(&stat).is_ok_and(|s| s.contains(") Z")) {
            assert!(Instant::now() < deadline, "the child never exited");
            std::thread::sleep(Duration::from_millis(5));
        }
        fs::write(dir.join(LOCK_FILE), format!("{}\n", child.id())).unwrap();
        let lock = WorkdirLock::acquire(&dir).expect("a zombie's lock must be broken");
        assert_eq!(read_pid(lock.path()), Some(std::process::id()));
        child.wait().unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn liveness_of_self_and_of_an_impossible_pid() {
        assert!(process_alive(std::process::id()));
        assert!(!process_alive(4_194_304_999u32));
    }

    #[test]
    fn garbled_lock_is_broken() {
        let dir = tmpdir("garbled");
        fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        WorkdirLock::acquire(&dir).expect("garbled lock must be treated as stale");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn orphaned_break_marker_with_dead_pid_is_recovered() {
        let dir = tmpdir("orphan-dead");
        // A breaker died after stealing a genuinely stale lock: the
        // marker holds a dead PID and nobody will come back for it.
        fs::write(dir.join(BREAK_MARKER), "4194304999\n").unwrap();
        let lock = WorkdirLock::acquire(&dir).expect("acquire must recover the orphaned marker");
        assert_eq!(read_pid(lock.path()), Some(std::process::id()));
        assert!(!dir.join(BREAK_MARKER).exists());
    }

    #[test]
    fn orphaned_break_marker_with_live_pid_is_given_back() {
        let dir = tmpdir("orphan-live");
        // A breaker died after stealing a *live* lock (the re-created
        // fresh one): recovery must reinstate the live holder, and we
        // must lose to it.
        // PID 1 is a live foreign process on any Linux box.
        fs::write(dir.join(BREAK_MARKER), "1\n").unwrap();
        match WorkdirLock::acquire(&dir) {
            Err(LockError::Held { pid }) => assert_eq!(pid, Some(1)),
            other => panic!("expected Held by pid 1, got {other:?}"),
        }
        assert_eq!(read_pid(&dir.join(LOCK_FILE)), Some(1));
        assert!(!dir.join(BREAK_MARKER).exists());
    }
}
