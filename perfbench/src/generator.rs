//! The single generator thread: submissions on schedule (an open loop),
//! the leader crash cycles, the snapshots of every counter at the edges of
//! the measured window, and the closed-loop capacity phase that follows.

use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use abcast_net::TcpSnapshot;
use abcast_storage::StorageSnapshot;
use abcast_types::ProcessId;

use crate::probe::LAYERS;
use crate::procfs::{self, ThreadSnapshot};
use crate::workload::{
    Crashes, Deployment, Payloads, Rng, Workload, CATCHUP_TIMEOUT, DOWN, DRAIN_TIMEOUT, N, SETTLE,
    WARMUP,
};

const LEADER: ProcessId = ProcessId::new(0);
/// A process that is never crashed: its delivery count paces the cycles.
const WITNESS: ProcessId = ProcessId::new(1);
/// How long the leader may take to deliver its own pending submissions
/// before a crash.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);
/// The generator wakes at least this often to advance the crash cycle.
const MAX_NAP: Duration = Duration::from_millis(2);
/// A run whose resident memory passes this is stopped as failed.
const RSS_LIMIT_MB: u64 = 2048;
/// Length of the capacity phase, and the submissions each process keeps
/// outstanding in it, as with the paper's blocking `WaitForAgreed` client.
pub const CAPACITY_TIME: Duration = Duration::from_secs(3);
pub const CAPACITY_DEPTH: u64 = 16;

/// One submission handed to `TcpRuntime::client_request`.
#[derive(Clone, Copy, Debug)]
pub struct Submission {
    pub tag: u64,
    pub to: ProcessId,
    /// When it was due, µs on the generator clock.
    pub due_us: f64,
    pub sent_us: f64,
}

/// One crash–recover cycle of the leader.  Times in µs on the generator
/// clock.
#[derive(Clone, Debug)]
pub struct Cycle {
    pub crash_us: f64,
    pub recover_us: f64,
    pub caught_up_us: f64,
    /// First ballot a survivor coordinated after the crash (traced runs).
    pub takeover_us: Option<f64>,
    pub replayed_rounds: u64,
    pub state_transfers_applied: u64,
    pub recovery_lookup_ns: u64,
    /// Self time of every layer at the recovering process from recover
    /// until caught up (traced runs).
    pub recovery_work_ns: u64,
}

/// Every counter, read at one instant.
pub struct Snapshot {
    pub at_us: f64,
    /// `VmHWM` so far, in KiB.
    pub peak_rss_kb: u64,
    pub threads: ThreadSnapshot,
    pub io_write_bytes: u64,
    pub steal_ticks: u64,
    pub tcp: TcpSnapshot,
    pub storage: StorageSnapshot,
    pub layers: Vec<[u64; LAYERS.len()]>,
    /// Per process: thread CPU in decode and the typed handlers, in the
    /// bench bookkeeping after them, and in the runtime loop between
    /// callbacks (traced runs).
    pub handler_cpu: Vec<u64>,
    pub bench_cpu: Vec<u64>,
    pub loop_cpu: Vec<u64>,
    /// Per process: gossip frames, gossip bytes, consensus frames, nacks,
    /// fd frames.
    pub frames: Vec<[u64; 5]>,
    /// Rounds completed by each process's live incarnation.
    pub rounds: Vec<u64>,
    pub commit_samples: Vec<usize>,
    pub unordered_samples: Vec<usize>,
}

impl Snapshot {
    pub fn take(d: &Deployment) -> Result<Snapshot, String> {
        let procs = &d.shared.procs;
        Ok(Snapshot {
            at_us: d.shared.now_ns() as f64 / 1e3,
            peak_rss_kb: procfs::vm_hwm_kb()?,
            threads: ThreadSnapshot::take()?,
            io_write_bytes: procfs::io_write_bytes()?,
            steal_ticks: procfs::steal_ticks()?,
            tcp: d.runtime.tcp_metrics().snapshot(),
            storage: d.storage_snapshot(),
            layers: procs.iter().map(|p| p.layer_totals()).collect(),
            handler_cpu: procs.iter().map(|p| p.handler_cpu()).collect(),
            bench_cpu: procs.iter().map(|p| p.bench_cpu()).collect(),
            loop_cpu: procs.iter().map(|p| p.loop_cpu()).collect(),
            frames: procs
                .iter()
                .map(|p| {
                    let f = &p.frames;
                    [&f.gossip, &f.gossip_bytes, &f.consensus, &f.nacks, &f.fd]
                        .map(|c| c.load(Relaxed))
                })
                .collect(),
            rounds: procs
                .iter()
                .map(|p| p.rounds_completed.load(Relaxed))
                .collect(),
            commit_samples: procs.iter().map(|p| p.commit_samples().len()).collect(),
            unordered_samples: procs.iter().map(|p| p.unordered_samples().len()).collect(),
        })
    }
}

/// The closed-loop capacity phase.  Times in µs on the generator clock.
pub struct Capacity {
    /// Messages every process delivered during the phase.
    pub msgs: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// The same rate over each whole second of the phase, in msgs/s.
    pub slices: Vec<f64>,
}

pub struct Generated {
    pub subs: Vec<Submission>,
    pub cycles: Vec<Cycle>,
    pub w0: Snapshot,
    pub w1: Snapshot,
    pub capacity: Capacity,
}

enum Phase {
    /// Waiting for the witness to deliver `crash_at` messages.
    Idle {
        crash_at: Option<u64>,
    },
    Quiescing {
        since_us: f64,
    },
    Down {
        crash_us: f64,
    },
    CatchingUp {
        crash_us: f64,
        recover_us: f64,
        layers: u64,
        lookups: u64,
    },
    Settling {
        until_us: f64,
    },
}

/// Runs the workload on `d` for the warm-up, the crash cycles, the
/// measured window of `seconds` and the capacity phase, then returns what
/// was submitted.
pub fn drive(d: &Deployment, w: &Workload, seed: u64, seconds: f64) -> Result<Generated, String> {
    let shared = &d.shared;
    let now_us = || shared.now_ns() as f64 / 1e3;
    let mut rng = Rng::new(seed);
    let payloads = Payloads::new(w.payload, &mut rng);
    let rr_offset = rng.next_u64() as usize % N;

    // The window opens after the warm-up or, when the crash cycles come
    // first, once the witness has delivered `crash_step` messages past the
    // last of them.  Crashes start at fixed delivery counts, so each cycle
    // finds the same history in every run.
    let start = now_us();
    let warm = start + WARMUP.as_secs_f64() * 1e6;
    let mut w0_at = (w.crashes != Crashes::Before).then_some(warm);
    let mut open_at: Option<u64> = None;
    let mut w0: Option<Snapshot> = None;
    let mut w1: Option<Snapshot> = None;
    let mut cap: Option<Capacity> = None;

    let mut subs: Vec<Submission> = Vec::new();
    let mut submitted = [0u64; N];
    let mut routable = [true; N];
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut phase = Phase::Idle {
        crash_at: (w.crashes != Crashes::After).then_some(w.crash_step),
    };
    let mut last_crash_at = 0;
    let mut next_due = start;
    let period = 1e6 / w.rate;
    let leader = shared.probe(LEADER);
    let witness = shared.probe(WITNESS);

    let mut rss_checked = start;
    loop {
        let now = now_us();
        if now - rss_checked > 1e6 {
            // An overloaded deployment grows its queues without bound; stop
            // before it takes the machine's memory with it.
            rss_checked = now;
            let rss_mb = procfs::vm_rss_kb()? / 1024;
            if rss_mb > RSS_LIMIT_MB {
                return Err(format!(
                    "resident memory reached {rss_mb} MB (limit {RSS_LIMIT_MB} MB)"
                ));
            }
        }
        let delivered = witness.total_delivered.load(Relaxed);
        if w0_at.is_none() && open_at.is_some_and(|c| delivered >= c) {
            w0_at = Some(now);
        }
        let w1_at = w0_at.map_or(f64::MAX, |at| at + seconds * 1e6);
        if w0.is_none() && w0_at.is_some_and(|at| now >= at) {
            w0 = Some(Snapshot::take(d)?);
        }
        if w0.is_some() && w1.is_none() && now >= w1_at {
            w1 = Some(Snapshot::take(d)?);
            if w.crashes == Crashes::After {
                // The capacity phase runs on the cluster the window saw,
                // before any crash; the open loop resumes after it.
                cap = Some(capacity(d, &payloads, &mut subs, &mut submitted));
                next_due = now_us();
                phase = Phase::Idle {
                    crash_at: Some(witness.total_delivered.load(Relaxed)),
                };
            }
        }
        let may_crash = match w.crashes {
            Crashes::Before => now >= warm,
            Crashes::Within => now >= warm && now < w1_at,
            Crashes::After => w1.is_some(),
        };

        // --- the crash cycle ---
        phase = match phase {
            Phase::Idle { crash_at: Some(c) } if may_crash && delivered >= c => {
                routable[LEADER.index()] = false;
                last_crash_at = delivered;
                Phase::Quiescing { since_us: now }
            }
            Phase::Quiescing { since_us } => {
                if leader.completed.load(Relaxed) >= submitted[LEADER.index()] {
                    d.runtime.crash(LEADER);
                    shared.note_crash(LEADER, shared.now_ns());
                    Phase::Down { crash_us: now }
                } else if now - since_us > QUIESCE_TIMEOUT.as_secs_f64() * 1e6 {
                    return Err(
                        "the leader did not deliver its own submissions before the crash".into(),
                    );
                } else {
                    Phase::Quiescing { since_us }
                }
            }
            Phase::Down { crash_us } if now - crash_us >= DOWN.as_secs_f64() * 1e6 => {
                let target = shared
                    .procs
                    .iter()
                    .filter(|p| p.me != LEADER)
                    .map(|p| p.total_delivered.load(Relaxed))
                    .max()
                    .unwrap_or(0);
                let layers = leader.layer_totals().iter().sum();
                let lookups = leader.recovery_lookup_ns.load(Relaxed);
                leader.arm_catchup(target);
                let recover_us = now_us();
                d.runtime.recover(LEADER);
                Phase::CatchingUp {
                    crash_us,
                    recover_us,
                    layers,
                    lookups,
                }
            }
            Phase::CatchingUp {
                crash_us,
                recover_us,
                layers,
                lookups,
            } => match leader.caught_up_ns() {
                Some(t) => {
                    cycles.push(Cycle {
                        crash_us,
                        recover_us,
                        caught_up_us: t as f64 / 1e3,
                        takeover_us: shared.takeover_ns().map(|t| t as f64 / 1e3),
                        replayed_rounds: leader.replayed_rounds.load(Relaxed),
                        state_transfers_applied: leader.state_transfers_applied.load(Relaxed),
                        recovery_lookup_ns: leader.recovery_lookup_ns.load(Relaxed) - lookups,
                        recovery_work_ns: leader.layer_totals().iter().sum::<u64>() - layers,
                    });
                    routable[LEADER.index()] = true;
                    Phase::Settling {
                        until_us: now + SETTLE.as_secs_f64() * 1e6,
                    }
                }
                None if now - recover_us > CATCHUP_TIMEOUT.as_secs_f64() * 1e6 => {
                    return Err("the recovered leader did not catch up".into());
                }
                None => Phase::CatchingUp {
                    crash_us,
                    recover_us,
                    layers,
                    lookups,
                },
            },
            Phase::Settling { until_us } if now >= until_us => {
                let next = last_crash_at + w.crash_step;
                match w.crashes {
                    Crashes::Within => Phase::Idle {
                        crash_at: Some(next),
                    },
                    _ if cycles.len() < w.cycles => Phase::Idle {
                        crash_at: Some(next),
                    },
                    Crashes::Before => {
                        open_at = Some(next);
                        Phase::Idle { crash_at: None }
                    }
                    Crashes::After => Phase::Idle { crash_at: None },
                }
            }
            other => other,
        };

        let finished = match phase {
            Phase::Idle { crash_at: None } => true,
            Phase::Idle { .. } => w.crashes == Crashes::Within,
            _ => false,
        };
        if w1.is_some() && finished {
            break;
        }

        // --- submissions, on schedule ---
        while next_due <= now {
            // Round-robin by schedule slot; a slot whose process is not
            // routable goes to the next one that is.
            let slot = (subs.len() + rr_offset) % N;
            let to = (0..N)
                .map(|k| (slot + k) % N)
                .find(|&i| routable[i])
                .map(|i| ProcessId::new(i as u32))
                .expect("at most one process is ever down");
            submit(d, &payloads, &mut subs, &mut submitted, to, next_due);
            next_due += period;
        }
        let nap = (next_due - now_us()).clamp(0.0, MAX_NAP.as_secs_f64() * 1e6);
        std::thread::sleep(Duration::from_micros(nap as u64));
    }

    let (Some(w0), Some(w1)) = (w0, w1) else {
        return Err("the measured window never closed".into());
    };
    let capacity = match cap {
        Some(c) => c,
        None => capacity(d, &payloads, &mut subs, &mut submitted),
    };
    Ok(Generated {
        subs,
        cycles,
        w0,
        w1,
        capacity,
    })
}

/// The capacity phase, right after the window (before the crash cycles
/// that follow it) or after the last crash cycle: from an idle cluster,
/// keeps `CAPACITY_DEPTH` submissions outstanding at every process for
/// `CAPACITY_TIME`, and counts what every process delivered meanwhile.
/// Waits park on `Activity`.
fn capacity(
    d: &Deployment,
    payloads: &Payloads,
    subs: &mut Vec<Submission>,
    submitted: &mut [u64; N],
) -> Capacity {
    let shared = &d.shared;
    let now_us = || shared.now_ns() as f64 / 1e3;
    let delivered = |s: &crate::probe::Shared| -> Vec<u64> {
        s.procs
            .iter()
            .map(|p| p.total_delivered.load(Relaxed))
            .collect()
    };
    // Every earlier submission, and the set-up probe, delivered first.  One
    // that never arrives is counted as failed by the checks after the run;
    // the phase then counts from where each process stands.
    let before = subs.len() as u64 + 1;
    d.wait_until(DRAIN_TIMEOUT, |s| delivered(s).iter().all(|&n| n >= before));
    let fewest = |base: &[u64]| -> u64 {
        delivered(shared)
            .iter()
            .zip(base)
            .map(|(n, b)| n - b)
            .min()
            .unwrap_or(0)
    };
    let base = delivered(shared);
    let activity = d.runtime.activity();
    let start = Instant::now();
    let start_us = now_us();
    let mut slices = Vec::new();
    let mut slice = (start_us, base.clone());
    loop {
        let seen = activity.epoch();
        for (i, probe) in shared.procs.iter().enumerate() {
            let to = ProcessId::new(i as u32);
            while submitted[i] - probe.completed.load(Relaxed) < CAPACITY_DEPTH {
                submit(d, payloads, subs, submitted, to, now_us());
            }
        }
        let now = now_us();
        if now - slice.0 >= 1e6 {
            slices.push(fewest(&slice.1) as f64 / ((now - slice.0) / 1e6));
            slice = (now, delivered(shared));
        }
        let left = CAPACITY_TIME.saturating_sub(start.elapsed());
        if left.is_zero() {
            break;
        }
        activity.wait_past(seen, left.min(Duration::from_millis(50)));
    }
    Capacity {
        msgs: fewest(&base),
        start_us,
        end_us: now_us(),
        slices,
    }
}

/// Hands the next submission to `to`'s worker without waiting for it.
fn submit(
    d: &Deployment,
    payloads: &Payloads,
    subs: &mut Vec<Submission>,
    submitted: &mut [u64; N],
    to: ProcessId,
    due_us: f64,
) {
    let tag = subs.len() as u64;
    d.runtime.client_request(to, payloads.make(tag));
    submitted[to.index()] += 1;
    let sent_us = d.shared.now_ns() as f64 / 1e3;
    subs.push(Submission {
        tag,
        to,
        due_us,
        sent_us,
    });
}
