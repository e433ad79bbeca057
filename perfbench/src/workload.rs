//! The workloads and the single generator thread that drives them.
//!
//! Every workload deploys N = 3 processes of the shipped stack:
//! `TcpRuntime` over loopback TCP, each process on its own on-disk
//! `WalStorage::open` (default group window and segment size), running
//! `ClusterConfig::basic(3)` or `ClusterConfig::alternative(3)` unchanged.
//! Every workload also runs crash cycles of the Ω leader p0 under its own
//! load: before, within or after the measured window (see [`Crashes`]).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use abcast_core::ClusterConfig;
use abcast_net::{LinkPolicy, TcpConfig, TcpRuntime};
use abcast_storage::{SharedStorage, StorageRegistry, StorageSnapshot, WalStorage};
use abcast_types::ProcessId;

use crate::probe::{BenchActor, Shared, TimedStorage};
use crate::stats::ClockMap;

pub const N: usize = 3;
/// Cluster start-ups timed per run (the last one is the one measured).
pub const SETUPS: usize = 21;
pub const WARMUP: Duration = Duration::from_secs(1);
/// Crash cycles: the leader stays down this long, then the run waits for
/// catch-up and lets the cluster settle before the next crash.
pub const DOWN: Duration = Duration::from_millis(400);
pub const SETTLE: Duration = Duration::from_millis(300);
pub const CATCHUP_TIMEOUT: Duration = Duration::from_secs(20);
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Tags of the set-up probe messages (generator tags count up from 0).
const SETUP_TAG: u64 = 1 << 63;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Basic,
    Alternative,
}

/// Where the leader crash cycles fall relative to the measured window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crashes {
    /// `Workload::cycles` cycles before it: the basic variant's replay cost grows
    /// with history, so recovery is measured while history is short.
    Before,
    /// Throughout it: the crash-recovery path is what is measured.
    Within,
    /// `Workload::cycles` cycles after it, so they cannot disturb it.
    After,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub variant: Variant,
    /// Uniform one-way delay added on every ordered pair, in ms.
    pub delay_ms: Option<(u64, u64)>,
    pub payload: usize,
    /// Open-loop submissions per second, round-robin over the processes.
    pub rate: f64,
    pub crashes: Crashes,
    /// Messages delivered between the starts of two crash cycles.
    pub crash_step: u64,
    /// Crash cycles before or after the window (unused with
    /// `Crashes::Within`, where the window sets the count).
    pub cycles: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady-1k",
        variant: Variant::Alternative,
        delay_ms: None,
        payload: 1024,
        rate: 200.0,
        crashes: Crashes::After,
        crash_step: 300,
        cycles: 6,
    },
    Workload {
        name: "history-64",
        variant: Variant::Basic,
        delay_ms: None,
        payload: 64,
        rate: 200.0,
        crashes: Crashes::Before,
        crash_step: 300,
        cycles: 10,
    },
    Workload {
        name: "wan-open",
        variant: Variant::Alternative,
        delay_ms: Some((2, 5)),
        payload: 64,
        rate: 400.0,
        crashes: Crashes::After,
        crash_step: 400,
        cycles: 6,
    },
    Workload {
        name: "leader-crash",
        variant: Variant::Alternative,
        delay_ms: None,
        payload: 64,
        rate: 400.0,
        crashes: Crashes::Within,
        crash_step: 480,
        cycles: 0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let config = match self.variant {
            Variant::Basic => ClusterConfig::basic(N),
            Variant::Alternative => ClusterConfig::alternative(N),
        };
        config.with_seed(seed)
    }

    pub fn describe(&self) -> String {
        let load = format!("open loop {} msgs/s round-robin", self.rate);
        let link = match self.delay_ms {
            Some((lo, hi)) => format!("LinkPolicy::delayed({lo} ms, {hi} ms)"),
            None => "loopback direct".into(),
        };
        let step = self.crash_step;
        let crashes = match self.crashes {
            Crashes::Within => {
                format!("a leader crash every {step} delivered messages in the window")
            }
            Crashes::Before => format!(
                "{} leader crashes before the window, one every {step} delivered messages",
                self.cycles
            ),
            Crashes::After => format!(
                "{} leader crashes after the window, one every {step} delivered messages",
                self.cycles
            ),
        };
        format!(
            "{:?} variant, N={N}, {link}, {} B payloads, {load}, {crashes} (down {} ms, settle {} ms), then a {} s closed loop with {} outstanding per process",
            self.variant,
            self.payload,
            DOWN.as_millis(),
            SETTLE.as_millis(),
            crate::generator::CAPACITY_TIME.as_secs(),
            crate::generator::CAPACITY_DEPTH
        )
    }
}

/// splitmix64: the seeded source of every input the benchmark makes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Payloads: an 8-byte generator tag, then seeded bytes.
pub struct Payloads {
    body: Vec<u8>,
    size: usize,
}

impl Payloads {
    pub fn new(size: usize, rng: &mut Rng) -> Payloads {
        let body = (0..size + 4096).map(|_| rng.next_u64() as u8).collect();
        Payloads { body, size }
    }

    pub fn make(&self, tag: u64) -> Bytes {
        let start = (tag.wrapping_mul(0x9E37) % 4096) as usize;
        let mut p = Vec::with_capacity(self.size);
        p.extend_from_slice(&tag.to_le_bytes());
        p.extend_from_slice(&self.body[start..start + self.size - 8]);
        Bytes::from(p)
    }
}

/// One live deployment.
pub struct Deployment {
    pub runtime: TcpRuntime<BenchActor>,
    pub shared: Arc<Shared>,
    pub stores: Vec<SharedStorage>,
    pub dir: PathBuf,
}

impl Deployment {
    /// Opens a WAL per process under `dir` and starts the cluster.
    pub fn start(
        w: &Workload,
        seed: u64,
        dir: &Path,
        shared: &Arc<Shared>,
    ) -> Result<Deployment, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut stores = Vec::with_capacity(N);
        let mut registry = Vec::with_capacity(N);
        for i in 0..N {
            let wal = WalStorage::open(dir.join(format!("p{i}.wal")))
                .map_err(|e| format!("WalStorage::open: {e}"))?;
            let wal: SharedStorage = Arc::new(wal);
            let probe = Arc::clone(shared.probe(ProcessId::new(i as u32)));
            registry.push(Arc::new(TimedStorage::new(Arc::clone(&wal), probe)) as SharedStorage);
            stores.push(wal);
        }
        let mut tcp = TcpConfig::default().with_seed(seed);
        if let Some((lo, hi)) = w.delay_ms {
            tcp = tcp.with_link(LinkPolicy::delayed(
                Duration::from_millis(lo),
                Duration::from_millis(hi),
            ));
        }
        let factory = shared.factory(w.cluster_config(seed).framed_factory());
        let runtime = TcpRuntime::start(N, StorageRegistry::new(registry), tcp, factory)
            .map_err(|e| format!("TcpRuntime::start: {e}"))?;
        Ok(Deployment {
            runtime,
            shared: Arc::clone(shared),
            stores,
            dir: dir.to_path_buf(),
        })
    }

    pub fn storage_snapshot(&self) -> StorageSnapshot {
        self.stores
            .iter()
            .map(|s| s.metrics().snapshot())
            .fold(StorageSnapshot::default(), |acc, s| acc.plus(&s))
    }

    /// Parks on `Activity` until `done` holds or `timeout` passes.
    pub fn wait_until(&self, timeout: Duration, done: impl Fn(&Shared) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let activity = self.runtime.activity();
        loop {
            let seen = activity.epoch();
            if done(&self.shared) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            activity.wait_past(seen, left.min(Duration::from_millis(50)));
        }
    }

    /// Maps each worker's clock onto the generator clock: the narrowest of
    /// five `invoke` brackets per process.
    pub fn clock_maps(&self) -> Result<Vec<ClockMap>, String> {
        let shared = &self.shared;
        (0..N)
            .map(|i| {
                let p = ProcessId::new(i as u32);
                let mut best: Option<ClockMap> = None;
                for _ in 0..5 {
                    let before = shared.now_ns() as f64 / 1e3;
                    let worker = self
                        .runtime
                        .invoke(p, |_actor, ctx| ctx.now().as_micros())
                        .ok_or_else(|| format!("{p} is down during the clock bracket"))?;
                    let after = shared.now_ns() as f64 / 1e3;
                    let map = ClockMap::from_bracket(before, worker as f64, after);
                    if best.is_none_or(|b| map.width_us() < b.width_us()) {
                        best = Some(map);
                    }
                }
                best.ok_or_else(|| "no clock bracket".into())
            })
            .collect()
    }

    pub fn shutdown(self) {
        self.runtime.shutdown();
        drop(self.stores);
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Starts `SETUPS` deployments in turn, timing each from WAL open until a
/// first message is delivered at every process, and keeps the last one.
pub fn set_up(
    w: &Workload,
    seed: u64,
    work: &Path,
    traced: bool,
    epoch: Instant,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let shared = Shared::new(N, traced, epoch);
        let start = Instant::now();
        let d = Deployment::start(w, seed, &work.join(format!("setup-{i}")), &shared)?;
        d.runtime
            .client_request(ProcessId::new(0), setup_payload(i as u64, w.payload));
        let ready = d.wait_until(Duration::from_secs(30), |s| {
            s.procs.iter().all(|p| p.total_delivered.load(Relaxed) >= 1)
        });
        times.push(start.elapsed().as_secs_f64());
        if !ready {
            d.shutdown();
            return Err("cluster did not deliver its first message within 30 s".into());
        }
        if i + 1 == SETUPS {
            return Ok((d, times));
        }
        d.shutdown();
    }
    unreachable!("SETUPS is at least one")
}

fn setup_payload(i: u64, size: usize) -> Bytes {
    let mut p = vec![0u8; size.max(8)];
    p[..8].copy_from_slice(&(SETUP_TAG | i).to_le_bytes());
    Bytes::from(p)
}

/// `true` for tags of set-up probe messages.
pub fn is_setup_tag(tag: u64) -> bool {
    tag & SETUP_TAG != 0
}
