//! Measurement from outside the program, at its public boundaries.
//!
//! * [`BenchActor`] wraps the shipped `FramedActor<AtomicBroadcast>` and is
//!   what `TcpRuntime::start` deploys.  In every run it copies new entries
//!   of the protocol's `delivery_log` into crash-surviving bench state
//!   after each handler (that is how latency, completion and catch-up are
//!   observed without polling).  In a traced run it also decodes frames
//!   itself and calls the typed `AtomicBroadcast` handlers through
//!   [`TracingCtx`], timing decode, each handler's self time, and every
//!   typed `send`/`multisend` (encode plus hand-off to the poller).
//! * [`TimedStorage`] decorates each process's `WalStorage`, passed in
//!   through `StorageRegistry::new`, and times `commit_batch` and the
//!   recovering process's `load`/`load_log` calls.  `TcpRuntime::crash`
//!   drops only the actor, so the same `WalStorage` serves the recovery
//!   from its in-memory index: those calls are lookups, not disk reads
//!   or a log replay.
//!
//! Self time of a handler is its wall time minus the storage calls and
//! sends made inside it (the "leaf" time, accumulated per process while
//! the handler runs).  Counters are per process and written only by that
//! process's worker thread, so relaxed atomics and uncontended mutexes
//! suffice; the accept times and the leader-change stamp are shared by
//! all workers behind their own mutex or compare-and-swap.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bytes::Bytes;

use abcast_consensus::{ConsensusMsg, InstanceMsg, CONSENSUS_TICK};
use abcast_core::{AbcastMsg, AtomicBroadcast, FramedAbcast, CHECKPOINT_TIMER, GOSSIP_TIMER};
use abcast_net::{decode_frame, encode_frame, Actor, ActorContext, TimerId};
use abcast_storage::{SharedStorage, StableStorage, StorageKey, StorageMetrics, WriteBatch};
use abcast_types::{MsgId, ProcessId, ProcessSet, Result, Round, SimDuration, SimTime};

use crate::procfs::thread_cpu_ns;
use crate::workload::is_setup_tag;

/// Timer identities the protocol delegates to its consensus substrate
/// start here (`abcast_core::protocol`'s private `CONSENSUS_TIMER_BASE`).
const CONSENSUS_TIMER_BASE: u64 = 16;

/// Spans kept per process; older ones are overwritten (a ring).
const SPAN_RING: usize = 100_000;

/// Where a handler's or a call's time is booked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Decode,
    Gossip,
    State,
    Broadcast,
    CoreTimer,
    Consensus,
    Fd,
    Start,
    Storage,
    Send,
}

pub const LAYERS: [Layer; 10] = [
    Layer::Decode,
    Layer::Gossip,
    Layer::State,
    Layer::Broadcast,
    Layer::CoreTimer,
    Layer::Consensus,
    Layer::Fd,
    Layer::Start,
    Layer::Storage,
    Layer::Send,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Decode => "codec.decode",
            Layer::Gossip => "core.gossip",
            Layer::State => "core.state_transfer",
            Layer::Broadcast => "core.broadcast",
            Layer::CoreTimer => "core.timer",
            Layer::Consensus => "consensus",
            Layer::Fd => "fd",
            Layer::Start => "core.start",
            Layer::Storage => "storage",
            Layer::Send => "codec.send",
        }
    }

    fn of_msg(msg: &AbcastMsg) -> Layer {
        match msg {
            AbcastMsg::Gossip { .. } => Layer::Gossip,
            AbcastMsg::State { .. } | AbcastMsg::StateSuffix { .. } => Layer::State,
            AbcastMsg::Consensus(ConsensusMsg::Fd(_)) => Layer::Fd,
            AbcastMsg::Consensus(ConsensusMsg::Instance { .. }) => Layer::Consensus,
        }
    }

    fn of_timer(timer: TimerId) -> Layer {
        if timer == GOSSIP_TIMER || timer == CHECKPOINT_TIMER {
            Layer::CoreTimer
        } else if timer.raw() == CONSENSUS_TIMER_BASE + CONSENSUS_TICK.raw() {
            Layer::Consensus
        } else {
            Layer::Fd
        }
    }
}

/// One recorded interval.  `parent` indexes the enclosing handler span in
/// the same process's ring (`u32::MAX` for handler spans).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub msg: Option<MsgId>,
}

/// Crash-surviving log of one process, kept by the bench.
#[derive(Default)]
pub struct ProcLog {
    /// Incarnations built so far (1 after the first start).
    pub incarnation: u32,
    /// `(generator tag, assigned id)` of every accepted submission.
    pub broadcasts: Vec<(u64, MsgId)>,
    /// `(incarnation, worker µs, id)` in delivery order.
    pub deliveries: Vec<(u32, u64, MsgId)>,
    /// Own generator submissions not yet delivered locally (the crash
    /// cycle waits for none before crashing this process).  The set-up
    /// probe is left out: the generator does not count it as submitted.
    own_pending: HashSet<MsgId>,
}

/// Bench-side state of one process.
pub struct Probe {
    pub me: ProcessId,
    traced: bool,
    epoch: Instant,
    log: Mutex<ProcLog>,
    /// `AgreedQueue::total_delivered` after the last handler.
    pub total_delivered: AtomicU64,
    /// Own generator submissions delivered locally: with the generator's
    /// count of submissions to this process, the number still pending.
    pub completed: AtomicU64,
    catchup_target: AtomicU64,
    caught_up_ns: AtomicU64,
    /// Set from `recover()` until caught up: loads are booked as
    /// recovery lookups.
    recovering: AtomicBool,
    pub recovery_lookup_ns: AtomicU64,
    /// `ProtocolMetrics` fields after the last handler of the live
    /// incarnation (read without a round trip to the worker).
    pub rounds_completed: AtomicU64,
    pub replayed_rounds: AtomicU64,
    pub state_transfers_applied: AtomicU64,
    // --- traced accounting ---
    layer_ns: [AtomicU64; LAYERS.len()],
    /// Thread CPU time spent in decode and in the typed handlers, storage
    /// and sends inside them included.
    handler_cpu_ns: AtomicU64,
    /// Thread CPU time of this wrapper's own bookkeeping after each
    /// handler (copying the delivery log out).
    bench_cpu_ns: AtomicU64,
    /// Thread CPU time between two callbacks: the runtime's event loop
    /// (channel wait and wake-up, timer scan, `Activity` bump), plus
    /// actor construction on recovery.
    loop_cpu_ns: AtomicU64,
    /// Thread CPU clock when the last callback returned (0 before the
    /// first).
    last_exit_cpu: AtomicU64,
    leaf_ns: AtomicU64,
    handler_span: AtomicU64,
    pub frames: FrameCounts,
    commit_us: Mutex<Vec<u32>>,
    unordered_len: Mutex<Vec<u32>>,
    spans: Mutex<(Vec<Span>, usize)>,
}

/// Typed frames sent by one process, by kind (traced runs only).
#[derive(Default)]
pub struct FrameCounts {
    pub gossip: AtomicU64,
    pub gossip_bytes: AtomicU64,
    pub consensus: AtomicU64,
    pub nacks: AtomicU64,
    pub fd: AtomicU64,
}

impl Probe {
    fn new(me: ProcessId, traced: bool, epoch: Instant) -> Probe {
        Probe {
            me,
            traced,
            epoch,
            log: Mutex::new(ProcLog::default()),
            total_delivered: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            catchup_target: AtomicU64::new(u64::MAX),
            caught_up_ns: AtomicU64::new(0),
            recovering: AtomicBool::new(false),
            recovery_lookup_ns: AtomicU64::new(0),
            rounds_completed: AtomicU64::new(0),
            replayed_rounds: AtomicU64::new(0),
            state_transfers_applied: AtomicU64::new(0),
            layer_ns: Default::default(),
            handler_cpu_ns: AtomicU64::new(0),
            bench_cpu_ns: AtomicU64::new(0),
            loop_cpu_ns: AtomicU64::new(0),
            last_exit_cpu: AtomicU64::new(0),
            leaf_ns: AtomicU64::new(0),
            handler_span: AtomicU64::new(u64::from(u32::MAX)),
            frames: FrameCounts::default(),
            commit_us: Mutex::new(Vec::new()),
            unordered_len: Mutex::new(Vec::new()),
            spans: Mutex::new((Vec::new(), 0)),
        }
    }

    pub fn log(&self) -> MutexGuard<'_, ProcLog> {
        self.log
            .lock()
            .expect("probe log poisoned by a panicking worker")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Arms catch-up detection: the next handler after which this process
    /// has delivered `target` messages stamps the catch-up time.
    pub fn arm_catchup(&self, target: u64) {
        self.caught_up_ns.store(0, Relaxed);
        self.recovering.store(true, Relaxed);
        self.catchup_target.store(target, Relaxed);
    }

    /// Catch-up time (ns since the run epoch) once reached.
    pub fn caught_up_ns(&self) -> Option<u64> {
        match self.caught_up_ns.load(Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// Cumulative self time per layer, in ns.
    pub fn layer_totals(&self) -> [u64; LAYERS.len()] {
        std::array::from_fn(|i| self.layer_ns[i].load(Relaxed))
    }

    /// Cumulative thread CPU time in decode and the typed handlers, in ns.
    pub fn handler_cpu(&self) -> u64 {
        self.handler_cpu_ns.load(Relaxed)
    }

    /// Cumulative thread CPU time of the bench bookkeeping, in ns.
    pub fn bench_cpu(&self) -> u64 {
        self.bench_cpu_ns.load(Relaxed)
    }

    /// Cumulative thread CPU time of the runtime loop between callbacks,
    /// in ns.
    pub fn loop_cpu(&self) -> u64 {
        self.loop_cpu_ns.load(Relaxed)
    }

    fn book(&self, layer: Layer, ns: u64) {
        self.layer_ns[layer as usize].fetch_add(ns, Relaxed);
    }

    pub fn commit_samples(&self) -> Vec<u32> {
        self.commit_us
            .lock()
            .expect("commit samples poisoned")
            .clone()
    }

    pub fn unordered_samples(&self) -> Vec<u32> {
        self.unordered_len
            .lock()
            .expect("unordered samples poisoned")
            .clone()
    }

    /// Spans in recording order (oldest first).
    pub fn spans(&self) -> Vec<Span> {
        let guard = self.spans.lock().expect("span ring poisoned");
        let (ring, next) = &*guard;
        if ring.len() < SPAN_RING {
            ring.clone()
        } else {
            ring[*next..]
                .iter()
                .chain(&ring[..*next])
                .copied()
                .collect()
        }
    }

    fn record_span(&self, span: Span) -> u32 {
        let mut guard = self.spans.lock().expect("span ring poisoned");
        let (ring, next) = &mut *guard;
        let at = if ring.len() < SPAN_RING {
            ring.push(span);
            ring.len() - 1
        } else {
            let at = *next;
            ring[at] = span;
            *next = (at + 1) % SPAN_RING;
            at
        };
        at as u32
    }

    /// Times a leaf call (storage or send) inside the current handler.
    fn leaf<R>(&self, layer: Layer, msg: Option<MsgId>, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        let ns = end - start;
        self.leaf_ns.fetch_add(ns, Relaxed);
        self.book(layer, ns);
        let parent = self.handler_span.load(Relaxed) as u32;
        self.record_span(Span {
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            msg,
        });
        (r, ns)
    }
}

/// Bench state shared by the whole deployment.
pub struct Shared {
    pub procs: Vec<Arc<Probe>>,
    pub traced: bool,
    epoch: Instant,
    /// First time an `AcceptRequest` carried each message (ns).
    accepts: Mutex<HashMap<MsgId, u64>>,
    /// Crash instant of the current cycle (ns, 0 = none armed) and the
    /// first ballot a survivor coordinated after it.
    crashed: Mutex<Option<(ProcessId, u64)>>,
    takeover_ns: AtomicU64,
}

impl Shared {
    pub fn new(n: usize, traced: bool, epoch: Instant) -> Arc<Shared> {
        Arc::new(Shared {
            procs: (0..n)
                .map(|i| Arc::new(Probe::new(ProcessId::new(i as u32), traced, epoch)))
                .collect(),
            traced,
            epoch,
            accepts: Mutex::new(HashMap::new()),
            crashed: Mutex::new(None),
            takeover_ns: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn probe(&self, p: ProcessId) -> &Arc<Probe> {
        &self.procs[p.index()]
    }

    /// Starts leader-change detection for a crash of `p` at `at_ns`.
    pub fn note_crash(&self, p: ProcessId, at_ns: u64) {
        self.takeover_ns.store(0, Relaxed);
        *self.crashed.lock().expect("crash state poisoned") = Some((p, at_ns));
    }

    /// First ballot coordinated by a survivor since the last crash.
    pub fn takeover_ns(&self) -> Option<u64> {
        match self.takeover_ns.load(Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    pub fn accept_times(&self) -> HashMap<MsgId, u64> {
        self.accepts.lock().expect("accept times poisoned").clone()
    }

    /// The actor factory `TcpRuntime::start` runs at start and at every
    /// recovery: the shipped framed actor inside the bench wrapper.
    pub fn factory(
        self: &Arc<Shared>,
        framed: impl Fn(ProcessId, SharedStorage) -> FramedAbcast + Send + Sync + 'static,
    ) -> impl Fn(ProcessId, SharedStorage) -> BenchActor + Send + Sync + 'static {
        let shared = Arc::clone(self);
        move |p, storage| {
            let probe = Arc::clone(shared.probe(p));
            let incarnation = {
                let mut log = probe.log();
                log.incarnation += 1;
                log.incarnation
            };
            BenchActor {
                inner: framed(p, storage),
                shared: Arc::clone(&shared),
                probe,
                incarnation,
                seen: 0,
                decode_failures: 0,
            }
        }
    }
}

/// The deployed actor: the shipped framed protocol plus bench bookkeeping.
pub struct BenchActor {
    inner: FramedAbcast,
    shared: Arc<Shared>,
    probe: Arc<Probe>,
    incarnation: u32,
    /// Delivery-log entries already copied out.
    seen: usize,
    /// Frames the traced path failed to decode (dropped, as
    /// `FramedActor` does).
    decode_failures: u64,
}

impl BenchActor {
    /// The typed protocol instance.
    pub fn protocol(&self) -> &AtomicBroadcast {
        self.inner.inner()
    }

    /// Frames that failed to decode, on either path.  Zero in a healthy
    /// run.
    pub fn decode_failures(&self) -> u64 {
        self.inner.decode_failures() + self.decode_failures
    }

    /// Runs a typed handler with timing: wall time minus leaf time is
    /// booked as `layer`'s self time.  `msg_of` names the message the
    /// handler's span is about, once its result is known.
    fn traced<R>(
        &mut self,
        layer: Layer,
        ctx: &mut dyn ActorContext<Bytes>,
        f: impl FnOnce(&mut AtomicBroadcast, &mut dyn ActorContext<AbcastMsg>) -> R,
        msg_of: fn(&R) -> Option<MsgId>,
    ) -> R {
        let probe = Arc::clone(&self.probe);
        let cpu = thread_cpu_ns();
        let start = probe.now_ns();
        let slot = probe.record_span(Span {
            layer,
            start_ns: start,
            end_ns: start,
            parent: u32::MAX,
            msg: None,
        });
        probe.handler_span.store(u64::from(slot), Relaxed);
        probe.leaf_ns.store(0, Relaxed);
        let r = {
            let mut tctx = TracingCtx {
                outer: ctx,
                shared: &self.shared,
                probe: &probe,
            };
            f(self.inner.inner_mut(), &mut tctx)
        };
        let end = probe.now_ns();
        probe
            .handler_cpu_ns
            .fetch_add(thread_cpu_ns() - cpu, Relaxed);
        let leaf = probe.leaf_ns.swap(0, Relaxed);
        probe.book(layer, (end - start).saturating_sub(leaf));
        probe.handler_span.store(u64::from(u32::MAX), Relaxed);
        if let Some(span) = probe
            .spans
            .lock()
            .expect("span ring poisoned")
            .0
            .get_mut(slot as usize)
        {
            span.end_ns = end;
            span.msg = msg_of(&r);
        }
        r
    }

    /// At the start of every callback of a traced run: books the thread
    /// CPU spent since the previous callback returned to the runtime loop.
    fn enter(&self) {
        if !self.shared.traced {
            return;
        }
        let last = self.probe.last_exit_cpu.load(Relaxed);
        if last != 0 {
            self.probe
                .loop_cpu_ns
                .fetch_add(thread_cpu_ns().saturating_sub(last), Relaxed);
        }
    }

    /// Copies new delivery-log entries out and updates completion and
    /// catch-up state.  Runs after every handler, traced or not; a traced
    /// run books its CPU time as bench bookkeeping.
    fn after_handler(&mut self, timer: Option<TimerId>) {
        if self.shared.traced {
            let cpu = thread_cpu_ns();
            self.copy_out(timer);
            let exit = thread_cpu_ns();
            self.probe.bench_cpu_ns.fetch_add(exit - cpu, Relaxed);
            self.probe.last_exit_cpu.store(exit, Relaxed);
        } else {
            self.copy_out(timer);
        }
    }

    fn copy_out(&mut self, timer: Option<TimerId>) {
        let ab = self.inner.inner();
        let log = ab.delivery_log();
        if log.len() < self.seen {
            self.seen = 0;
        }
        if log.len() > self.seen {
            let me = self.probe.me;
            let mut completed = 0;
            let mut plog = self.probe.log();
            for &(at, id) in &log[self.seen..] {
                plog.deliveries.push((self.incarnation, at.as_micros(), id));
                if id.sender == me && plog.own_pending.remove(&id) {
                    completed += 1;
                }
            }
            drop(plog);
            self.probe.completed.fetch_add(completed, Relaxed);
            self.seen = log.len();
        }
        let total = ab.agreed().total_delivered();
        self.probe.total_delivered.store(total, Relaxed);
        let metrics = ab.metrics();
        self.probe
            .rounds_completed
            .store(metrics.rounds_completed, Relaxed);
        self.probe
            .replayed_rounds
            .store(metrics.replayed_rounds_on_recovery, Relaxed);
        self.probe
            .state_transfers_applied
            .store(metrics.state_transfers_applied, Relaxed);
        if total >= self.probe.catchup_target.load(Relaxed) {
            self.probe.catchup_target.store(u64::MAX, Relaxed);
            self.probe.recovering.store(false, Relaxed);
            self.probe
                .caught_up_ns
                .store(self.probe.now_ns().max(1), Relaxed);
        }
        if self.shared.traced && timer == Some(GOSSIP_TIMER) {
            let len = ab.unordered_len() as u32;
            self.probe
                .unordered_len
                .lock()
                .expect("unordered samples poisoned")
                .push(len);
        }
    }
}

/// Reads the generator tag at the head of a payload.
pub fn payload_tag(payload: &[u8]) -> u64 {
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&payload[..8]);
    u64::from_le_bytes(tag)
}

impl Actor for BenchActor {
    type Msg = Bytes;

    fn on_start(&mut self, ctx: &mut dyn ActorContext<Bytes>) {
        self.enter();
        if self.shared.traced {
            self.traced(Layer::Start, ctx, |ab, ctx| ab.on_start(ctx), |_| None);
        } else {
            self.inner.on_start(ctx);
        }
        self.after_handler(None);
    }

    fn on_message(&mut self, from: ProcessId, frame: Bytes, ctx: &mut dyn ActorContext<Bytes>) {
        self.enter();
        if self.shared.traced {
            let cpu = thread_cpu_ns();
            let start = self.probe.now_ns();
            let decoded = decode_frame::<AbcastMsg>(&frame);
            let end = self.probe.now_ns();
            self.probe
                .handler_cpu_ns
                .fetch_add(thread_cpu_ns() - cpu, Relaxed);
            self.probe.book(Layer::Decode, end - start);
            self.probe.record_span(Span {
                layer: Layer::Decode,
                start_ns: start,
                end_ns: end,
                parent: u32::MAX,
                msg: None,
            });
            match decoded {
                Ok(msg) => {
                    let layer = Layer::of_msg(&msg);
                    self.traced(
                        layer,
                        ctx,
                        |ab, ctx| ab.on_message(from, msg, ctx),
                        |_| None,
                    );
                }
                Err(_) => self.decode_failures += 1,
            }
        } else {
            self.inner.on_message(from, frame, ctx);
        }
        self.after_handler(None);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<Bytes>) {
        self.enter();
        if self.shared.traced {
            let layer = Layer::of_timer(timer);
            self.traced(layer, ctx, |ab, ctx| ab.on_timer(timer, ctx), |_| None);
        } else {
            self.inner.on_timer(timer, ctx);
        }
        self.after_handler(Some(timer));
    }

    fn on_client_request(&mut self, payload: Bytes, ctx: &mut dyn ActorContext<Bytes>) {
        self.enter();
        let tag = payload_tag(&payload);
        let id = if self.shared.traced {
            let broadcast = |ab: &mut AtomicBroadcast, ctx: &mut dyn ActorContext<AbcastMsg>| {
                ab.a_broadcast(payload, ctx)
            };
            self.traced(Layer::Broadcast, ctx, broadcast, |id| Some(*id))
        } else {
            self.inner
                .with_inner_ctx(ctx, |ab, ctx| ab.a_broadcast(payload, ctx))
        };
        if !self.inner.inner().is_halted() {
            let mut log = self.probe.log();
            log.broadcasts.push((tag, id));
            if !is_setup_tag(tag) {
                log.own_pending.insert(id);
            }
        }
        self.after_handler(None);
    }
}

/// The typed context a traced handler runs against: frames every message
/// exactly as `FramedActor` does (`encode_frame`, timers unchanged) and
/// times each send.
struct TracingCtx<'a> {
    outer: &'a mut dyn ActorContext<Bytes>,
    shared: &'a Shared,
    probe: &'a Probe,
}

impl TracingCtx<'_> {
    /// Counts the typed message by kind before it is framed.
    fn observe(&self, msg: &AbcastMsg, copies: u64) {
        let frames = &self.probe.frames;
        match msg {
            AbcastMsg::Gossip { .. } => {
                frames.gossip.fetch_add(copies, Relaxed);
            }
            AbcastMsg::Consensus(ConsensusMsg::Fd(_)) => {
                frames.fd.fetch_add(copies, Relaxed);
            }
            AbcastMsg::Consensus(ConsensusMsg::Instance { msg, .. }) => {
                frames.consensus.fetch_add(copies, Relaxed);
                match msg {
                    InstanceMsg::Nack { .. } => {
                        frames.nacks.fetch_add(copies, Relaxed);
                    }
                    InstanceMsg::Prepare { ballot } | InstanceMsg::AcceptRequest { ballot, .. } => {
                        self.note_ballot(ballot.coordinator);
                    }
                    _ => {}
                }
                if let InstanceMsg::AcceptRequest { value, .. } = msg {
                    let now = self.probe.now_ns();
                    let mut accepts = self.shared.accepts.lock().expect("accept times poisoned");
                    for m in value {
                        accepts.entry(m.id()).or_insert(now);
                    }
                }
            }
            AbcastMsg::State { .. } | AbcastMsg::StateSuffix { .. } => {}
        }
    }

    /// A survivor coordinating a ballot after the armed crash is the
    /// leader change.
    fn note_ballot(&self, coordinator: ProcessId) {
        let me = self.probe.me;
        if coordinator != me || self.shared.takeover_ns.load(Relaxed) != 0 {
            return;
        }
        let crashed = *self.shared.crashed.lock().expect("crash state poisoned");
        if let Some((down, at)) = crashed {
            let now = self.probe.now_ns();
            if down != me && now > at {
                let _ = self
                    .shared
                    .takeover_ns
                    .compare_exchange(0, now, Relaxed, Relaxed);
            }
        }
    }
}

impl ActorContext<AbcastMsg> for TracingCtx<'_> {
    fn me(&self) -> ProcessId {
        self.outer.me()
    }

    fn processes(&self) -> &ProcessSet {
        self.outer.processes()
    }

    fn now(&self) -> SimTime {
        self.outer.now()
    }

    fn send(&mut self, to: ProcessId, msg: AbcastMsg) {
        self.observe(&msg, 1);
        let is_gossip = msg.is_gossip();
        let outer = &mut *self.outer;
        let (len, _) = self.probe.leaf(Layer::Send, None, || {
            let frame = encode_frame(&msg);
            let len = frame.len() as u64;
            outer.send(to, frame);
            len
        });
        if is_gossip {
            self.probe.frames.gossip_bytes.fetch_add(len, Relaxed);
        }
    }

    fn multisend(&mut self, msg: AbcastMsg) {
        let copies = self.outer.processes().len() as u64;
        self.observe(&msg, copies);
        let is_gossip = msg.is_gossip();
        let outer = &mut *self.outer;
        let (len, _) = self.probe.leaf(Layer::Send, None, || {
            let frame = encode_frame(&msg);
            let len = frame.len() as u64;
            outer.multisend(frame);
            len
        });
        if is_gossip {
            self.probe
                .frames
                .gossip_bytes
                .fetch_add(len * copies, Relaxed);
        }
    }

    fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.outer.set_timer(timer, delay);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.outer.cancel_timer(timer);
    }

    fn storage(&self) -> &SharedStorage {
        self.outer.storage()
    }

    fn random_u64(&mut self) -> u64 {
        self.outer.random_u64()
    }
}

/// `StableStorage` decorator: times commits (traced runs) and recovery
/// lookups (every run) around the shipped backend.
pub struct TimedStorage {
    inner: SharedStorage,
    probe: Arc<Probe>,
}

impl TimedStorage {
    pub fn new(inner: SharedStorage, probe: Arc<Probe>) -> TimedStorage {
        TimedStorage { inner, probe }
    }

    fn read<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.probe.traced && !self.probe.recovering.load(Relaxed) {
            return f();
        }
        let (r, ns) = self.probe.leaf(Layer::Storage, None, f);
        if self.probe.recovering.load(Relaxed) {
            self.probe.recovery_lookup_ns.fetch_add(ns, Relaxed);
        }
        r
    }

    fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.probe.traced {
            self.probe.leaf(Layer::Storage, None, f).0
        } else {
            f()
        }
    }
}

impl StableStorage for TimedStorage {
    fn store(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        self.write(|| self.inner.store(key, value))
    }

    fn load(&self, key: &StorageKey) -> Result<Option<Bytes>> {
        self.read(|| self.inner.load(key))
    }

    fn append(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        self.write(|| self.inner.append(key, value))
    }

    fn load_log(&self, key: &StorageKey) -> Result<Vec<Bytes>> {
        self.read(|| self.inner.load_log(key))
    }

    fn remove(&self, key: &StorageKey) -> Result<()> {
        self.write(|| self.inner.remove(key))
    }

    fn commit_batch(&self, batch: WriteBatch) -> Result<()> {
        if !self.probe.traced {
            return self.inner.commit_batch(batch);
        }
        let (r, ns) = self
            .probe
            .leaf(Layer::Storage, None, || self.inner.commit_batch(batch));
        let us = u32::try_from(ns / 1_000).unwrap_or(u32::MAX);
        self.probe
            .commit_us
            .lock()
            .expect("commit samples poisoned")
            .push(us);
        r
    }

    fn keys(&self) -> Result<Vec<StorageKey>> {
        self.inner.keys()
    }

    fn note_checkpoint(&self, round: Round) {
        self.inner.note_checkpoint(round);
    }

    fn metrics(&self) -> &StorageMetrics {
        self.inner.metrics()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
}
