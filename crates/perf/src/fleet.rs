//! Child-process hygiene: every process the harness starts is its own
//! process-group leader, is reaped with its resource usage, and is
//! SIGKILLed — group and all — if the harness times out, fails or
//! panics while it is still running. No `esse_worker` outlives a run.

use crate::sys::{self, Usage};
use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The harness only waits while a timed run is live; this is how often
/// it looks.
const POLL: Duration = Duration::from_millis(2);

struct Member {
    what: &'static str,
    pid: u32,
    /// Exit code, usage and when the exit was observed.
    done: Option<(i32, Usage, Instant)>,
}

/// The processes of one run. Dropping it kills whatever is left.
#[derive(Default)]
pub struct Fleet {
    members: Vec<Member>,
}

/// CPU and memory of a finished fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetUsage {
    /// User + system CPU of every process and its reaped descendants.
    pub cpu_s: f64,
    /// Largest resident set of any single process, KiB.
    pub max_rss_kb: i64,
    /// When the first process spawned (the coordinator) was seen to
    /// have exited.
    pub leader_ended: Instant,
}

impl Fleet {
    /// Start `cmd` as a group leader with stdout+stderr appended to
    /// `log`. Returns the pid.
    pub fn spawn(
        &mut self,
        what: &'static str,
        cmd: &mut Command,
        log: &Path,
    ) -> Result<u32, String> {
        let out = File::options()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| format!("dup log handle: {e}"))?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn {what} ({:?}): {e}", cmd.get_program()))?;
        // The std handle is dropped unwaited on purpose: the pid is
        // reaped through wait4 so its rusage is not lost.
        let pid = child.id();
        self.members.push(Member { what, pid, done: None });
        Ok(pid)
    }

    /// Reap whatever has ended; true when nothing is left running.
    fn poll(&mut self) -> Result<bool, String> {
        for m in self.members.iter_mut().filter(|m| m.done.is_none()) {
            m.done = sys::try_reap(m.pid)
                .map_err(|e| format!("wait4 {}: {e}", m.what))?
                .map(|(code, usage)| (code, usage, Instant::now()));
        }
        Ok(self.members.iter().all(|m| m.done.is_some()))
    }

    /// Has the first process spawned (the coordinator) ended?
    pub fn leader_ended(&mut self) -> Result<bool, String> {
        self.poll()?;
        Ok(self.members.first().is_some_and(|m| m.done.is_some()))
    }

    /// Wait until every process has ended or `deadline` passes, calling
    /// `tick` on every poll. Any non-zero exit is an error.
    pub fn wait(
        &mut self,
        deadline: Instant,
        mut tick: impl FnMut(),
    ) -> Result<FleetUsage, String> {
        while !self.poll()? {
            if Instant::now() >= deadline {
                return Err("timed out; fleet killed".into());
            }
            tick();
            std::thread::sleep(POLL);
        }
        let done = |m: &Member| m.done.expect("poll reported everyone reaped");
        let leader = self.members.first().ok_or("empty fleet")?;
        let mut total = FleetUsage { cpu_s: 0.0, max_rss_kb: 0, leader_ended: done(leader).2 };
        for m in &self.members {
            let (code, usage, _) = done(m);
            if code != 0 {
                return Err(format!("{} (pid {}) exited with {code}", m.what, m.pid));
            }
            total.cpu_s += usage.cpu_s;
            total.max_rss_kb = total.max_rss_kb.max(usage.max_rss_kb);
        }
        Ok(total)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for m in self.members.iter().filter(|m| m.done.is_none()) {
            sys::kill_group(m.pid);
        }
        // Reap the leaders so no zombie is left either; errors here
        // mean the child is already gone.
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) && !self.poll().unwrap_or(true) {
            std::thread::sleep(POLL);
        }
    }
}

/// `utime + stime` of a live process in seconds and its resident-set
/// high-water mark in KiB, from `/proc` (ticks are 1/100 s on Linux).
pub fn proc_sample(pid: u32) -> Option<(f64, i64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let hwm = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<i64>().ok())?;
    Some((ticks as f64 / 100.0, hwm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaps_usage_and_reports_nonzero_exit() {
        let dir = std::env::temp_dir().join(format!("esse-perf-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("log");
        let mut fleet = Fleet::default();
        fleet.spawn("true", &mut Command::new("true"), &log).unwrap();
        let usage = fleet.wait(Instant::now() + Duration::from_secs(10), || {}).unwrap();
        assert!(usage.max_rss_kb > 0);

        let mut fleet = Fleet::default();
        fleet.spawn("false", &mut Command::new("false"), &log).unwrap();
        let err = fleet.wait(Instant::now() + Duration::from_secs(10), || {}).unwrap_err();
        assert!(err.contains("exited with 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timeout_kills_the_whole_group() {
        let dir = std::env::temp_dir().join(format!("esse-perf-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut fleet = Fleet::default();
        // A shell that forks a grandchild: both must die with the group.
        let pid = fleet
            .spawn("sh", Command::new("sh").args(["-c", "sleep 60 & wait"]), &dir.join("log"))
            .unwrap();
        let err = fleet.wait(Instant::now() + Duration::from_millis(200), || {}).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(proc_sample(pid).is_some(), "still alive until the fleet is dropped");
        drop(fleet);
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "leader reaped");
        let orphans = std::fs::read_dir("/proc")
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
            .filter(|p| {
                // A killed grandchild may linger as a zombie until init
                // reaps it; only a live member of the group is an orphan.
                std::fs::read_to_string(format!("/proc/{p}/stat")).ok().is_some_and(|s| {
                    let mut f = s.rsplit_once(')').map_or("", |x| x.1).split_whitespace();
                    f.next() != Some("Z") && f.nth(1) == Some(pid.to_string().as_str())
                })
            })
            .count();
        assert_eq!(orphans, 0, "no process left in the killed group");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
