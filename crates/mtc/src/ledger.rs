//! The per-member ledger: one perturbation index's fate, tracked the
//! same way by every coordinator.
//!
//! Paper §4.2 tracks dependencies "using separate (per perturbation
//! index) files containing the error codes of the singleton scripts".
//! [`MemberLedger`] is the rules over that bookkeeping and nothing
//! else: attempts and requeues consumed, which budget a lost attempt is
//! charged to, how long a failed member is held back, whether it was
//! ever quarantined, whether its fate is decided. It does no I/O and
//! owns no clock, thread, recorder or journal — time is a [`Duration`]
//! on the caller's run clock — so [`crate::coordinator`] asks it the
//! same questions over a fleet or a crew, and a test can drive any event
//! sequence through it directly.
//!
//! A member's attempts either [`complete`](MemberLedger::complete) it or
//! are [`lose`](MemberLedger::lose)d. Every loss — a failed exit code, a
//! quarantined payload, an expired lease or task timeout — gets one
//! answer, a [`Loss`].

use crate::fault::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Duration;

/// The budget the loss of an attempt is charged to. The caller names it
/// per event; the ledger never asks who is calling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// [`RetryPolicy::max_attempts`]: the attempt ran and came back
    /// bad. The member is lost once the charges reach the budget;
    /// until then it is reissued after the policy's backoff.
    Attempts,
    /// The requeue budget: the attempt was taken from the member (an
    /// expired lease, a payload the master quarantined), so it is
    /// reissued at once and lost only when the charges *exceed* the
    /// budget — worker kills must never flip a member to failed.
    Requeues,
}

/// The ledger's answer to the loss of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Nothing to do and nothing charged: the fate is already decided.
    Covered,
    /// Issue the member again once `after` has passed (zero under
    /// [`Budget::Requeues`]); until then [`MemberLedger::seedable`]
    /// holds it back.
    Reissue {
        /// Backoff from now.
        after: Duration,
    },
    /// The budget is spent: the member is permanently failed, and the
    /// `code` handed to [`MemberLedger::lose`] is what the journal
    /// records for it.
    Lost {
        /// The journalled `MemberFailed` code.
        code: i32,
    },
}

/// A decided fate; set once, never changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Result accepted, after this many attempts.
    Completed(u32),
    /// Permanently failed.
    Failed,
    /// No longer wanted: cancelled unrun, or its result came too late.
    Abandoned,
}

/// One member's entry. An index never mentioned reads as the default:
/// undecided, nothing consumed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Charges against [`Budget::Attempts`].
    pub attempts: u32,
    /// Charges against [`Budget::Requeues`].
    pub requeues: u32,
    /// Backoff hold: not seedable before this time on the run clock.
    pub ready_at: Duration,
    /// A payload of the member was quarantined at least once.
    pub quarantined: bool,
    /// `None` while undecided.
    pub fate: Option<Fate>,
}

impl Member {
    /// Attempts a completed member took.
    pub fn completed(&self) -> Option<u32> {
        match self.fate {
            Some(Fate::Completed(attempts)) => Some(attempts),
            _ => None,
        }
    }

    /// Quarantined once, then healed: a later attempt completed it.
    pub fn replaced(&self) -> bool {
        self.quarantined && self.completed().is_some()
    }
}

/// Per-member lifecycle state of one run.
#[derive(Debug)]
pub struct MemberLedger {
    retry: RetryPolicy,
    requeue_budget: u32,
    /// Backoff jitter stream; advanced only when a reissue is held.
    rng: StdRng,
    members: BTreeMap<u64, Member>,
    closed: bool,
}

impl MemberLedger {
    /// A ledger charging [`Budget::Attempts`] against
    /// `retry.max_attempts` and [`Budget::Requeues`] against
    /// `requeue_budget`, with backoff jitter seeded by `jitter_seed`.
    pub fn new(retry: RetryPolicy, requeue_budget: u32, jitter_seed: u64) -> MemberLedger {
        let rng = StdRng::seed_from_u64(jitter_seed);
        let members = BTreeMap::new();
        MemberLedger { retry, requeue_budget, rng, members, closed: false }
    }

    /// Member `m`'s entry as it stands.
    pub fn member(&self, m: u64) -> Member {
        self.members.get(&m).copied().unwrap_or_default()
    }

    fn entry(&mut self, m: u64) -> &mut Member {
        self.members.entry(m).or_default()
    }

    /// Decide `m`'s fate; a fate already decided stands.
    pub fn decide(&mut self, m: u64, fate: Fate) {
        self.entry(m).fate.get_or_insert(fate);
    }

    /// The member's result was accepted. Returns the attempts it took:
    /// the charged ones plus the one that succeeded.
    pub fn complete(&mut self, m: u64) -> u32 {
        let attempts = self.entry(m).attempts + 1;
        self.decide(m, Fate::Completed(attempts));
        attempts
    }

    /// Record that a payload of `m` was quarantined.
    pub fn mark_quarantined(&mut self, m: u64) {
        self.entry(m).quarantined = true;
    }

    /// Stop reissuing: from here on every charged loss is final and
    /// nothing is seedable (the run converged or hit its deadline).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// An attempt of `m` was lost; charge `budget` and answer what
    /// happens to the member. `code` is what the journal records if
    /// this loss turns out to be the member's last.
    pub fn lose(&mut self, m: u64, budget: Budget, code: i32, now: Duration) -> Loss {
        let e = self.members.entry(m).or_default();
        if e.fate.is_some() {
            return Loss::Covered;
        }
        let spent = match budget {
            Budget::Attempts => {
                e.attempts += 1;
                e.attempts >= self.retry.max_attempts
            }
            Budget::Requeues => {
                e.requeues += 1;
                e.requeues > self.requeue_budget
            }
        };
        if spent || self.closed {
            e.fate = Some(Fate::Failed);
            return Loss::Lost { code };
        }
        let after = match budget {
            Budget::Attempts => self.retry.backoff_delay(e.attempts, &mut self.rng),
            Budget::Requeues => Duration::ZERO,
        };
        e.ready_at = now + after;
        Loss::Reissue { after }
    }

    /// Fate settled: completed, permanently failed or abandoned.
    pub fn decided(&self, m: u64) -> bool {
        self.member(m).fate.is_some()
    }

    /// Completed member ids, ascending.
    pub fn completed_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.members.iter().filter(|(_, e)| e.completed().is_some()).map(|(&m, _)| m)
    }

    /// Completed member ids inside the contiguous decided prefix from
    /// member 0, ascending — the only ids an order-independent SVD
    /// checkpoint may consume.
    pub fn prefix_eligible(&self) -> Vec<u64> {
        let prefix = (0u64..).take_while(|&m| self.decided(m));
        prefix.filter(|&m| self.member(m).completed().is_some()).collect()
    }

    /// Undecided members below `target`, held back or not.
    pub fn parked(&self, target: u64) -> impl Iterator<Item = u64> + '_ {
        (0..target).filter(|&m| !self.decided(m))
    }

    /// The [`parked`](Self::parked) members whose backoff hold has
    /// passed at `now`: issue these (the caller skips those it has out).
    /// Empty once [`close`](Self::close)d.
    pub fn seedable(&self, target: u64, now: Duration) -> Vec<u64> {
        let target = if self.closed { 0 } else { target };
        self.parked(target).filter(|&m| self.member(m).ready_at <= now).collect()
    }

    /// Members whose entry satisfies `pred`: the permanently failed,
    /// the ever-quarantined, the [`replaced`](Member::replaced).
    pub fn count(&self, pred: impl Fn(&Member) -> bool) -> usize {
        self.members.values().filter(|e| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{CODE_LEASE_BUDGET as LEASE, CODE_QUARANTINE_BUDGET as QUARANTINE};
    use rand::Rng;
    use std::collections::BTreeSet;
    use Budget::{Attempts, Requeues};
    use Loss::{Covered, Lost, Reissue};

    const MS: Duration = Duration::from_millis(1);
    /// An exit code of a failed attempt.
    const EXIT: i32 = 3;

    /// `max_attempts` attempts, 2 ms backoff doubling, no jitter.
    fn ledger(max_attempts: u32, requeue_budget: u32) -> MemberLedger {
        MemberLedger::new(RetryPolicy::retries(max_attempts), requeue_budget, 7)
    }

    /// One event in the life of member 0, with what it must answer.
    #[derive(Clone, Copy)]
    enum Ev {
        /// The clock reads this many milliseconds from here on.
        At(u32),
        /// An attempt lands and is lost to this budget under this code.
        Lose(Budget, i32, Loss),
        /// An attempt lands clean; expect this attempt count.
        Complete(u32),
        Close,
        /// `seedable(1, now)` lists the member, or not.
        Seedable(bool),
        /// Charges so far: `(attempts, requeues)`.
        Charged(u32, u32),
    }
    use Ev::*;

    const fn after(ms: u32) -> Loss {
        Reissue { after: Duration::from_millis(ms as u64) }
    }

    /// `(what, max_attempts, requeue_budget, script)`.
    const CASES: &[(&str, u32, u32, &[Ev])] = &[
        (
            "failures are retried with backoff until max_attempts; a decided member stays decided",
            3,
            0,
            &[
                Lose(Attempts, EXIT, after(2)),
                Lose(Attempts, EXIT, after(4)),
                Lose(Attempts, EXIT, Lost { code: EXIT }),
                Charged(3, 0),
                Seedable(false),
                Lose(Attempts, EXIT, Covered),
                Charged(3, 0),
            ],
        ),
        (
            "retries disabled: the first failure is the last",
            1,
            0,
            &[Lose(Attempts, EXIT, Lost { code: EXIT })],
        ),
        (
            "a quarantine charged to attempts (in process) finds no budget",
            1,
            2,
            &[Lose(Attempts, QUARANTINE, Lost { code: QUARANTINE })],
        ),
        (
            "a quarantine charged to requeues (the master) is replaced at once, lost only \
             past the budget, and leaves the attempts whole",
            1,
            2,
            &[
                Lose(Requeues, QUARANTINE, after(0)),
                Seedable(true),
                Lose(Requeues, QUARANTINE, after(0)),
                Lose(Requeues, QUARANTINE, Lost { code: QUARANTINE }),
                Charged(0, 3),
            ],
        ),
        (
            "lease expiries never touch the attempt budget",
            2,
            16,
            &[
                Lose(Requeues, LEASE, after(0)),
                Lose(Requeues, LEASE, after(0)),
                Charged(0, 2),
                Lose(Attempts, EXIT, after(2)),
                Complete(2),
                Charged(1, 2),
            ],
        ),
        (
            "a held member is seedable at its time and not before",
            3,
            0,
            &[
                Seedable(true),
                At(10),
                Lose(Attempts, EXIT, after(2)),
                At(11),
                Seedable(false),
                At(12),
                Seedable(true),
                Complete(2),
                Seedable(false),
            ],
        ),
        (
            "a decided member's late losses are covered and charge nothing",
            3,
            0,
            &[
                Lose(Attempts, EXIT, after(2)),
                Complete(2),
                Lose(Attempts, EXIT, Covered),
                Charged(1, 0),
            ],
        ),
        (
            "a closed ledger reissues nothing",
            5,
            0,
            &[Close, Lose(Attempts, EXIT, Lost { code: EXIT }), Seedable(false)],
        ),
    ];

    #[test]
    fn event_sequences_get_the_expected_answers_and_charges() {
        for (what, max_attempts, requeue_budget, script) in CASES {
            let mut l = ledger(*max_attempts, *requeue_budget);
            let mut now = Duration::ZERO;
            for (step, ev) in script.iter().enumerate() {
                let at = format!("{what}: step {step}");
                match *ev {
                    At(ms) => now = ms * MS,
                    Lose(budget, code, want) => {
                        assert_eq!(l.lose(0, budget, code, now), want, "{at}");
                    }
                    Complete(attempts) => {
                        assert_eq!(l.complete(0), attempts, "{at}");
                        assert_eq!(l.member(0).completed(), Some(attempts), "{at}");
                    }
                    Close => l.close(),
                    Seedable(want) => assert_eq!(l.seedable(1, now) == [0], want, "{at}"),
                    Charged(attempts, requeues) => {
                        let e = l.member(0);
                        assert_eq!((e.attempts, e.requeues), (attempts, requeues), "{at}")
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_eligible_stops_at_the_first_undecided_member() {
        let mut l = ledger(1, 0);
        for m in [0, 1, 2, 4, 5] {
            l.mark_quarantined(m);
        }
        l.complete(0);
        assert_eq!(l.lose(1, Attempts, EXIT, Duration::ZERO), Lost { code: EXIT });
        l.complete(2);
        l.complete(4);
        l.decide(5, Fate::Abandoned);
        assert_eq!(l.prefix_eligible(), [0, 2], "member 3 is undecided");
        assert_eq!(l.completed_ids().collect::<Vec<_>>(), [0, 2, 4]);
        l.decide(3, Fate::Completed(7));
        assert_eq!(l.prefix_eligible(), [0, 2, 3, 4], "5 is decided but not completed");
        assert_eq!(l.member(3).completed(), Some(7));
        let replaced = l.count(Member::replaced);
        assert_eq!((l.count(|e| e.quarantined), replaced), (5, 3));
        assert_eq!(l.count(|e| e.fate == Some(Fate::Failed)), 1);
    }

    #[test]
    fn random_event_sequences_keep_the_ledger_invariants() {
        const MEMBERS: u64 = 12;
        // Reissue, Covered and Lost answers seen, and completions.
        let mut reached = [0usize; 4];
        for seed in 0..64u64 {
            let (max_attempts, requeue_budget) = (1 + (seed % 4) as u32, (seed % 3) as u32);
            let mut l = ledger(max_attempts, requeue_budget);
            let mut rng = StdRng::seed_from_u64(seed);
            // Per member: the fate first seen.
            let mut seen: Vec<Option<Fate>> = vec![None; MEMBERS as usize];
            let (mut completed, mut failed) = (BTreeSet::new(), BTreeSet::new());
            for step in 0..400u32 {
                let (now, at) = (step * MS, format!("seed {seed} step {step}"));
                let m = rng.gen_range(0..MEMBERS);
                let was = l.member(m);
                match rng.gen_range(0..8usize) {
                    0 | 1 => {
                        for s in l.seedable(MEMBERS, now) {
                            let e = l.member(s);
                            assert!(e.fate.is_none() && e.ready_at <= now, "{at}");
                        }
                    }
                    2 | 3 if was.fate.is_none() => {
                        l.complete(m);
                        completed.insert(m);
                        reached[3] += 1;
                    }
                    4 | 5 => {
                        let budget = if rng.gen::<bool>() { Attempts } else { Requeues };
                        match l.lose(m, budget, EXIT, now) {
                            Covered => {
                                assert!(was.fate.is_some(), "{at}");
                                reached[1] += 1;
                            }
                            Lost { code } => {
                                assert_eq!(code, EXIT);
                                failed.insert(m);
                                reached[2] += 1;
                            }
                            Reissue { after } => {
                                let e = l.member(m);
                                let within = match budget {
                                    Attempts => e.attempts < max_attempts,
                                    Requeues => e.requeues <= requeue_budget,
                                };
                                assert!(within, "{at}: reissued past {budget:?}");
                                assert_eq!(after.is_zero(), budget == Requeues);
                                let ready = now + after;
                                assert!(l.seedable(MEMBERS, ready).contains(&m));
                                let early = l.seedable(MEMBERS, ready.saturating_sub(MS));
                                assert!(
                                    after.is_zero() || !early.contains(&m),
                                    "{at}: held too briefly"
                                );
                                reached[0] += 1;
                            }
                        }
                    }
                    6 if rng.gen::<f64>() < 0.1 => l.decide(m, Fate::Abandoned),
                    _ => {}
                }
                // No member is both completed and failed.
                assert!(completed.is_disjoint(&failed), "{at}");
                assert_eq!(l.completed_ids().collect::<BTreeSet<_>>(), completed, "{at}");
                assert_eq!(l.count(|e| e.fate == Some(Fate::Failed)), failed.len(), "{at}");
                for (m, fate) in seen.iter_mut().enumerate() {
                    let e = l.member(m as u64);
                    // `decided` never reverts and a fate never changes.
                    assert!(fate.is_none() || *fate == e.fate, "{at}: member {m}");
                    *fate = e.fate;
                    // Charges never exceed the budget they went to.
                    assert!(e.attempts <= max_attempts, "{at}: member {m}");
                    assert!(e.requeues <= requeue_budget + 1, "{at}: member {m}");
                }
                // Ascending, and it stops at the first undecided id.
                let frontier = (0..).find(|&m| !l.decided(m)).expect("unbounded ids");
                let want: Vec<u64> = completed.range(..frontier).copied().collect();
                assert_eq!(l.prefix_eligible(), want, "{at}: frontier {frontier}");
            }
        }
        assert!(reached.iter().all(|&n| n > 50), "the walk is too tame: {reached:?}");
    }
}
