//! Run-directory checks shared by the `crash_recovery` and
//! `worker_chaos` harnesses (included into each bin with `#[path]`).

use esse_mtc::journal::{Journal, JournalRecord};
use esse_mtc::rundir;
use std::collections::HashSet;
use std::path::Path;

/// Deterministic stream for kill schedules and offsets.
pub fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The no-rerun invariant: walking the journal in order, a member may
/// only complete again after an intervening quarantine record. Returns
/// the number of records.
pub fn assert_no_reruns(journal: &Path) -> Result<usize, String> {
    let replay = Journal::replay(journal).map_err(|e| format!("replay {journal:?}: {e}"))?;
    let mut completed: HashSet<u64> = HashSet::new();
    for rec in &replay.records {
        match rec {
            JournalRecord::MemberCompleted { member, .. } if !completed.insert(*member) => {
                return Err(format!(
                    "member {member} recorded MemberCompleted twice without quarantine \
                     — a completed member was re-run or its result ingested twice"
                ));
            }
            JournalRecord::MemberQuarantined { member, .. } => {
                completed.remove(member);
            }
            _ => {}
        }
    }
    Ok(replay.records.len())
}

/// The posterior bytes a run left in `workdir`.
pub fn read_posterior(workdir: &Path) -> Result<Vec<u8>, String> {
    let path = workdir.join(rundir::POSTERIOR);
    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
}
