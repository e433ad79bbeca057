//! A single consensus instance for the crash-recovery model.
//!
//! Each broadcast round `k` of the atomic broadcast protocol runs one
//! instance of Uniform Consensus (Section 3.4: Termination for good
//! processes, Uniform Validity, Uniform Agreement).  The implementation is
//! a ballot-based single-decree protocol (the Synod protocol) hardened for
//! crash-recovery:
//!
//! * the *proposal*, the acceptor's *promise*, its *accepted value* and the
//!   learned *decision* are written to stable storage before they take
//!   effect, so a crash can never un-promise or un-accept anything
//!   (Uniform Agreement survives crashes);
//! * `propose` is idempotent: re-proposing after a recovery keeps the value
//!   that was logged first (property P4 of the paper);
//! * ballots embed their coordinator, coordinators are chosen by the Ω
//!   output of the failure detector, and every message is retransmitted
//!   periodically, so the instance terminates once a majority of processes
//!   stay up long enough and the detector stabilises;
//! * undecided participants periodically `Query` their peers, and anyone
//!   who knows the decision answers it, so decisions propagate to
//!   recovering processes over the fair-lossy links.  Only the coordinator
//!   that decides announces the decision to everyone; a process that
//!   learns it from a `Decided` message stays quiet.
//!
//! # The ballot-0 fast path
//!
//! Ballots are ordered by `(number, coordinator)`, and
//! [`Ballot::next_for`] never issues attempt number 0, so
//! [`Ballot::initial`] — `(0, p0)` — is the lowest ballot there is and
//! only process p0 ever coordinates it.  Phase 1 exists to learn which
//! value a *lower* ballot may already have chosen; below `b0` there is
//! nothing to learn, so any value is safe for `b0` (Lamport, *Paxos Made
//! Simple*, 2001; Mencius runs each instance's default coordinator the
//! same way).  p0 therefore skips Phase 1 on an instance whose acceptor
//! has promised, accepted and observed nothing: in the step that starts
//! the ballot it logs its proposal, the promise `b0` and
//! `accepted = (b0, proposal)` under one barrier, counts itself as
//! accepted, and multisends `AcceptRequest(b0, proposal)`.
//!
//! What keeps this safe across crashes is that `b0` is tied to exactly
//! one value: the proposal is logged once and never changes (property
//! P4), and the logged promise `b0` is the watermark that stops a
//! recovered p0 from taking the fast path again — it starts a Phase-1
//! ballot above `b0` instead, and that ballot's Phase 1 finds `(b0, v)`
//! wherever it was accepted.  If the step's commit fails, no message of
//! the step leaves the process, so an unlogged `b0` was never seen.  A
//! `Nack` (some acceptor promised a higher ballot), recovered `b0` state,
//! a crash-stop instance (nothing is logged) and every coordinator other
//! than p0 use the two-phase path.

use std::collections::{BTreeMap, BTreeSet};

use abcast_net::ActorContext;
use abcast_storage::{keys, SharedStorage, TypedStorageExt, WriteBatch};
use abcast_types::codec::{Decode, Encode};
use abcast_types::{Ballot, ProcessId, Result, Round};

use crate::message::InstanceMsg;

/// Marker trait for values a consensus instance can agree on.
///
/// Blanket-implemented for every type with the required bounds, so callers
/// never implement it manually.
pub trait ConsensusValue:
    Clone + Eq + std::fmt::Debug + Encode + Decode + Send + 'static
{
}

impl<T> ConsensusValue for T where
    T: Clone + Eq + std::fmt::Debug + Encode + Decode + Send + 'static
{
}

/// Leader-side phase of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not currently driving a ballot.
    Idle,
    /// Waiting for a majority of promises for `current_ballot`.
    Preparing,
    /// Waiting for a majority of accepts for `current_ballot`.
    Accepting,
}

/// One crash-recovery consensus instance.
#[derive(Debug)]
pub struct ConsensusInstance<V> {
    instance: Round,
    persist: bool,

    // --- state mirrored on stable storage (when `persist` is true) ---
    proposal: Option<V>,          // xanalyze:twin(consensus_proposal)
    promised: Option<Ballot>,     // xanalyze:twin(consensus_promised)
    accepted: Option<(Ballot, V)>, // xanalyze:twin(consensus_accepted)
    decision: Option<V>,          // xanalyze:twin(consensus_decided)

    // --- volatile leader-side state ---
    phase: Phase,
    current_ballot: Option<Ballot>,
    promises: BTreeMap<ProcessId, Option<(Ballot, V)>>,
    accepts: BTreeSet<ProcessId>,
    chosen: Option<V>,
    highest_ballot_number: u64,
}

impl<V: ConsensusValue> ConsensusInstance<V> {
    /// Creates a fresh instance with no persistent state yet.
    pub fn new(instance: Round, persist: bool) -> Self {
        ConsensusInstance {
            instance,
            persist,
            proposal: None,
            promised: None,
            accepted: None,
            decision: None,
            phase: Phase::Idle,
            current_ballot: None,
            promises: BTreeMap::new(),
            accepts: BTreeSet::new(),
            chosen: None,
            highest_ballot_number: 0,
        }
    }

    /// Rebuilds an instance from stable storage after a crash.
    pub fn recover(instance: Round, persist: bool, storage: &SharedStorage) -> Result<Self> {
        let mut me = ConsensusInstance::new(instance, persist);
        me.proposal = storage.load_value(&keys::consensus_proposal(instance))?;
        me.promised = storage.load_value(&keys::consensus_promised(instance))?;
        me.accepted = storage.load_value(&keys::consensus_accepted(instance))?;
        me.decision = storage.load_value(&keys::consensus_decided(instance))?;
        me.highest_ballot_number = me.promised.map(|b| b.number).unwrap_or(0);
        Ok(me)
    }

    /// The instance number.
    pub fn instance(&self) -> Round {
        self.instance
    }

    /// The value this process proposed, if it has proposed.
    pub fn proposal(&self) -> Option<&V> {
        self.proposal.as_ref()
    }

    /// `true` if this process has proposed a value to this instance.
    pub fn has_proposal(&self) -> bool {
        self.proposal.is_some()
    }

    /// The decided value, if this process has learned it.
    pub fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }

    /// `true` once the decision is known locally.
    pub fn is_decided(&self) -> bool {
        self.decision.is_some()
    }

    /// Proposes `value`.  The first proposal is logged to stable storage
    /// *before* any message is sent (the log operation the paper counts);
    /// proposing again — e.g. after a recovery — keeps the logged value and
    /// ignores the new one, making the primitive idempotent (property P4).
    ///
    /// The Ω leader starts its ballot in the same step (the ballot-0 fast
    /// path when it is open, see the module documentation); the driver
    /// tick remains as the retransmission fallback.  Its Prepare or
    /// AcceptRequest already draws the decision from any peer that knows
    /// it.  Any other process eagerly asks whether the instance is already
    /// decided: a recovering process re-proposing to an old instance learns
    /// the outcome in one round trip instead of waiting for its Query tick.
    pub fn propose(
        &mut self,
        value: V,
        is_leader: bool,
        ctx: &mut dyn ActorContext<InstanceMsg<V>>,
    ) {
        let mut log = WriteBatch::new();
        if self.proposal.is_none() {
            if self.persist {
                log.store_value(&keys::consensus_proposal(self.instance), &value);
            }
            self.proposal = Some(value);
        }
        if self.decision.is_none() && is_leader {
            self.drive(log, ctx);
            return;
        }
        self.commit(log, ctx);
        if self.decision.is_none() {
            ctx.multisend(InstanceMsg::Query);
        }
    }

    /// Handles one message of this instance.  Returns the decided value if
    /// this message is what decided (or taught us) it.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: InstanceMsg<V>,
        ctx: &mut dyn ActorContext<InstanceMsg<V>>,
    ) -> Option<V> {
        match msg {
            InstanceMsg::Prepare { ballot } => {
                self.observe_ballot(ballot);
                if self.promised.is_none_or(|p| ballot >= p) {
                    // A repeated Prepare (a retransmission, or the
                    // coordinator's own copy after its synchronous
                    // self-promise) changes nothing and logs nothing.
                    if self.promised != Some(ballot) {
                        self.promised = Some(ballot);
                        self.persist_acceptor(WriteBatch::new(), ctx);
                    }
                    ctx.send(
                        from,
                        InstanceMsg::Promise {
                            ballot,
                            accepted: self.accepted.clone(),
                        },
                    );
                } else if let Some(promised) = self.promised {
                    ctx.send(from, InstanceMsg::Nack { ballot, promised });
                }
                self.answer_if_decided(from, ctx);
                None
            }
            InstanceMsg::AcceptRequest { ballot, value } => {
                self.observe_ballot(ballot);
                if self.promised.is_none_or(|p| ballot >= p) {
                    let repeated = self.promised == Some(ballot)
                        && matches!(&self.accepted, Some((b, v)) if *b == ballot && *v == value);
                    if !repeated {
                        self.promised = Some(ballot);
                        self.accepted = Some((ballot, value));
                        self.persist_acceptor(WriteBatch::new(), ctx);
                    }
                    ctx.send(from, InstanceMsg::Accepted { ballot });
                } else if let Some(promised) = self.promised {
                    ctx.send(from, InstanceMsg::Nack { ballot, promised });
                }
                self.answer_if_decided(from, ctx);
                None
            }
            InstanceMsg::Promise { ballot, accepted } => {
                if self.phase == Phase::Preparing && self.current_ballot == Some(ballot) {
                    self.promises.insert(from, accepted);
                    if self.promises.len() >= ctx.processes().majority() {
                        let inherited = self
                            .promises
                            .values()
                            .flatten()
                            .max_by_key(|(b, _)| *b)
                            .map(|(_, v)| v.clone());
                        let value = inherited.or_else(|| self.proposal.clone());
                        if let Some(value) = value {
                            self.chosen = Some(value.clone());
                            self.phase = Phase::Accepting;
                            self.accepts.clear();
                            ctx.multisend(InstanceMsg::AcceptRequest { ballot, value });
                        }
                    }
                }
                None
            }
            InstanceMsg::Accepted { ballot } => {
                if self.phase == Phase::Accepting && self.current_ballot == Some(ballot) {
                    self.accepts.insert(from);
                    if self.accepts.len() >= ctx.processes().majority() {
                        let value = self.chosen.clone().expect("accepting implies a chosen value");
                        return self.learn(value, true, ctx);
                    }
                }
                None
            }
            InstanceMsg::Nack { ballot, promised } => {
                self.observe_ballot(promised);
                if self.current_ballot == Some(ballot) && self.phase != Phase::Idle {
                    // Our ballot lost; back off and let the next tick start
                    // a higher one.
                    self.phase = Phase::Idle;
                    self.current_ballot = None;
                    self.promises.clear();
                    self.accepts.clear();
                }
                None
            }
            InstanceMsg::Decided { value } => self.learn(value, false, ctx),
            InstanceMsg::Query => {
                self.answer_if_decided(from, ctx);
                None
            }
        }
    }

    /// Periodic driver: retransmits, starts or restarts ballots when this
    /// process is the leader, and queries for missing decisions.  Returns a
    /// newly learned decision, if any (never produced here, but kept
    /// symmetric with [`ConsensusInstance::on_message`] for the caller).
    pub fn tick(
        &mut self,
        is_leader: bool,
        ctx: &mut dyn ActorContext<InstanceMsg<V>>,
    ) -> Option<V> {
        if self.decision.is_some() {
            return None;
        }
        if !self.has_proposal() {
            return None;
        }
        if is_leader {
            self.drive(WriteBatch::new(), ctx);
        } else {
            // Not the leader: stop driving (a new leader will), but keep
            // asking whether a decision exists so we eventually learn it
            // over the fair-lossy links.
            ctx.multisend(InstanceMsg::Query);
        }
        None
    }

    // ------------------------------------------------------------------

    fn observe_ballot(&mut self, ballot: Ballot) {
        if ballot.number > self.highest_ballot_number {
            self.highest_ballot_number = ballot.number;
        }
    }

    /// Leader-side driver: starts a ballot when none is running (committing
    /// `log`, the caller's pending records, in the same batch), otherwise
    /// retransmits the current phase.
    fn drive(&mut self, log: WriteBatch, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        match self.phase {
            Phase::Idle => self.start_ballot(log, ctx),
            Phase::Preparing => {
                self.commit(log, ctx);
                if let Some(ballot) = self.current_ballot {
                    ctx.multisend(InstanceMsg::Prepare { ballot });
                }
            }
            Phase::Accepting => {
                self.commit(log, ctx);
                if let (Some(ballot), Some(value)) = (self.current_ballot, self.chosen.clone()) {
                    ctx.multisend(InstanceMsg::AcceptRequest { ballot, value });
                }
            }
        }
    }

    /// `true` while p0 may run `b0` without Phase 1: a logged instance
    /// whose acceptor has promised, accepted and observed nothing (see the
    /// module documentation).
    fn fast_path_open(&self, me: ProcessId) -> bool {
        self.persist
            && me == Ballot::initial().coordinator
            && self.promised.is_none()
            && self.accepted.is_none()
            && self.highest_ballot_number == 0
    }

    /// Starts a new ballot coordinated by this process: `b0` without
    /// Phase 1 when the fast path is open, otherwise a Phase-1 ballot above
    /// every ballot observed so far.
    fn start_ballot(&mut self, log: WriteBatch, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        let me = ctx.me();
        self.promises.clear();
        self.accepts.clear();
        if self.fast_path_open(me) {
            let ballot = Ballot::initial();
            let value = self.proposal.clone().expect("only a proposer starts ballots");
            self.promised = Some(ballot);
            self.accepted = Some((ballot, value.clone()));
            self.persist_acceptor(log, ctx);
            self.current_ballot = Some(ballot);
            self.chosen = Some(value.clone());
            self.phase = Phase::Accepting;
            self.accepts.insert(me);
            ctx.multisend(InstanceMsg::AcceptRequest { ballot, value });
            return;
        }
        let ballot = Ballot::new(self.highest_ballot_number, ProcessId::new(0))
            .next_for(me, ctx.processes().len());
        self.observe_ballot(ballot);
        // Promise the ballot to ourselves synchronously — logged *before*
        // the Prepare leaves — instead of waiting for the multisend's lossy
        // self-delivery.  The persisted promise doubles as the
        // coordinator's issued-ballot watermark: without it, a coordinator
        // that crashes between issuing `Prepare` and receiving its own copy
        // recovers with a stale `highest_ballot_number`, reissues the
        // *same* ballot number around a possibly different value, and stale
        // value-less `Accepted` acks from the previous incarnation then
        // count toward the new value's majority — two decisions for one
        // instance.
        self.promised = Some(ballot);
        self.persist_acceptor(log, ctx);
        self.current_ballot = Some(ballot);
        self.phase = Phase::Preparing;
        self.promises.insert(me, self.accepted.clone());
        ctx.multisend(InstanceMsg::Prepare { ballot });
    }

    /// Logs the acceptor state (promise and accepted value) together with
    /// `log`, the caller's other records for this step.
    fn persist_acceptor(&self, mut log: WriteBatch, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        // The promise and the accepted value take effect together, so they
        // are committed under a single durability barrier instead of two.
        if self.persist {
            if let Some(promised) = self.promised {
                log.store_value(&keys::consensus_promised(self.instance), &promised);
            }
            if let Some(accepted) = &self.accepted {
                log.store_value(&keys::consensus_accepted(self.instance), accepted);
            }
        }
        self.commit(log, ctx);
    }

    fn commit(&self, log: WriteBatch, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        if !log.is_empty() {
            let _ = ctx.storage().commit_batch(log); // xlint:allow(B2) — staged view: this merges into the step batch; the single barrier is still paid in StepContext::finish
        }
    }

    fn answer_if_decided(&self, to: ProcessId, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        if let Some(value) = &self.decision {
            ctx.send(to, InstanceMsg::Decided { value: value.clone() });
        }
    }

    /// Records the decision.  `announce` is set only for the coordinator
    /// that decided: it multisends the decision once, and peers that miss
    /// it learn it by `Query` (or from the answer to a later ballot).  A
    /// process that learned from a `Decided` message does not repeat it.
    fn learn(
        &mut self,
        value: V,
        announce: bool,
        ctx: &mut dyn ActorContext<InstanceMsg<V>>,
    ) -> Option<V> {
        if let Some(existing) = &self.decision {
            debug_assert_eq!(
                existing, &value,
                "uniform agreement violated: two different decisions for {:?}",
                self.instance
            );
            return None;
        }
        if self.persist {
            let _ = ctx
                .storage()
                .store_value(&keys::consensus_decided(self.instance), &value);
        }
        self.decision = Some(value.clone());
        self.phase = Phase::Idle;
        if announce {
            ctx.multisend(InstanceMsg::Decided { value: value.clone() });
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_net::testkit::ScriptedContext;
    use abcast_types::SimDuration;

    type Ctx = ScriptedContext<InstanceMsg<u64>>;

    fn ctx_for(me: u32, n: usize) -> Ctx {
        ScriptedContext::new(ProcessId::new(me), n)
    }

    fn k() -> Round {
        Round::new(0)
    }

    fn b(n: u64, coord: u32) -> Ballot {
        Ballot::new(n, ProcessId::new(coord))
    }

    fn prepare_ballot(ctx: &Ctx) -> Ballot {
        match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        }
    }

    #[test]
    fn propose_logs_once_and_is_idempotent() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(42, false, &mut ctx);
        inst.propose(99, false, &mut ctx); // ignored: already proposed
        assert_eq!(inst.proposal(), Some(&42));

        // The proposal reached stable storage exactly once.
        let stored: Option<u64> = ctx
            .storage()
            .load_value(&keys::consensus_proposal(k()))
            .unwrap();
        assert_eq!(stored, Some(42));
        assert_eq!(ctx.storage().metrics().snapshot().store_ops, 1);
    }

    #[test]
    fn recovery_restores_proposal_promise_accept_and_decision() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(7, false, &mut ctx);
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(1, 1) }, &mut ctx);
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::AcceptRequest { ballot: b(1, 1), value: 7 },
            &mut ctx,
        );
        inst.on_message(ProcessId::new(1), InstanceMsg::Decided { value: 7 }, &mut ctx);

        let recovered: ConsensusInstance<u64> =
            ConsensusInstance::recover(k(), true, &ctx.storage_handle()).unwrap();
        assert_eq!(recovered.proposal(), Some(&7));
        assert_eq!(recovered.decision(), Some(&7));
        assert!(recovered.is_decided());
    }

    #[test]
    fn acceptor_promises_and_reports_previous_accept() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);

        // First ballot: promise with no prior accept.
        inst.on_message(ProcessId::new(0), InstanceMsg::Prepare { ballot: b(3, 0) }, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((p, InstanceMsg::Promise { ballot, accepted: None })) if *p == ProcessId::new(0) && *ballot == b(3, 0)
        ));

        // Accept a value under that ballot.
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::AcceptRequest { ballot: b(3, 0), value: 11 },
            &mut ctx,
        );

        // A later ballot's prepare gets the accepted value echoed back.
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(4, 1) }, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((p, InstanceMsg::Promise { ballot, accepted: Some((ab, 11)) }))
                if *p == ProcessId::new(1) && *ballot == b(4, 1) && *ab == b(3, 0)
        ));
    }

    #[test]
    fn accepting_persists_promise_and_value_under_one_barrier() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        let before = ctx.storage().metrics().snapshot();
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::AcceptRequest { ballot: b(1, 0), value: 11 },
            &mut ctx,
        );
        let delta = ctx.storage().metrics().snapshot().since(&before);
        assert_eq!(delta.store_ops, 2, "promise and accepted value are both logged");
        assert_eq!(delta.sync_ops, 1, "but they share one durability barrier");
    }

    #[test]
    fn acceptor_rejects_stale_ballots_with_nack() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(5, 1) }, &mut ctx);
        ctx.clear_effects();

        inst.on_message(ProcessId::new(0), InstanceMsg::Prepare { ballot: b(2, 0) }, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((_, InstanceMsg::Nack { ballot, promised })) if *ballot == b(2, 0) && *promised == b(5, 1)
        ));

        ctx.clear_effects();
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::AcceptRequest { ballot: b(2, 0), value: 9 },
            &mut ctx,
        );
        assert!(matches!(
            ctx.sent.last(),
            Some((_, InstanceMsg::Nack { .. }))
        ));
    }

    #[test]
    fn leader_runs_both_phases_and_decides_with_a_majority() {
        // p1 coordinates: only p0 has a ballot-0 fast path, so this is the
        // full two-phase flow.
        let n = 3;
        let me = ProcessId::new(1);
        let mut ctx = ctx_for(1, n);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(5, false, &mut ctx);
        ctx.clear_effects();

        // Tick as leader: starts Prepare with a ballot coordinated by p1.
        inst.tick(true, &mut ctx);
        let ballot = prepare_ballot(&ctx);
        assert_eq!(ballot.coordinator, me);

        // Majority of promises (self + p2) moves to the accept phase.
        inst.on_message(me, InstanceMsg::Promise { ballot, accepted: None }, &mut ctx);
        inst.on_message(
            ProcessId::new(2),
            InstanceMsg::Promise { ballot, accepted: None },
            &mut ctx,
        );
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::AcceptRequest { value: 5, .. })
        ));

        // Majority of accepts decides and announces.
        let decided_by_first = inst.on_message(me, InstanceMsg::Accepted { ballot }, &mut ctx);
        assert_eq!(decided_by_first, None);
        let decided =
            inst.on_message(ProcessId::new(2), InstanceMsg::Accepted { ballot }, &mut ctx);
        assert_eq!(decided, Some(5));
        assert_eq!(inst.decision(), Some(&5));
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::Decided { value: 5 })
        ));
    }

    #[test]
    fn leader_adopts_the_highest_previously_accepted_value() {
        let n = 5;
        let mut ctx = ctx_for(1, n);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(100, true, &mut ctx);
        let ballot = prepare_ballot(&ctx);
        ctx.clear_effects();

        // Promises report two different previously accepted values; the one
        // with the highest ballot must win (here: 55 at ballot 4).
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::Promise { ballot, accepted: Some((b(2, 2), 33)) },
            &mut ctx,
        );
        inst.on_message(
            ProcessId::new(2),
            InstanceMsg::Promise { ballot, accepted: Some((b(4, 4), 55)) },
            &mut ctx,
        );
        inst.on_message(ProcessId::new(3), InstanceMsg::Promise { ballot, accepted: None }, &mut ctx);
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::AcceptRequest { value: 55, .. })
        ));
    }

    #[test]
    fn nack_makes_the_leader_retry_with_a_higher_ballot() {
        let mut ctx = ctx_for(1, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(1, true, &mut ctx);
        let first_ballot = prepare_ballot(&ctx);
        inst.on_message(
            ProcessId::new(2),
            InstanceMsg::Nack { ballot: first_ballot, promised: b(10, 2) },
            &mut ctx,
        );
        ctx.clear_effects();
        inst.tick(true, &mut ctx);
        let second_ballot = prepare_ballot(&ctx);
        assert!(second_ballot.number > 10);
        assert_eq!(second_ballot.coordinator, ProcessId::new(1));
    }

    #[test]
    fn decision_is_answered_to_queries_and_never_changes() {
        let mut ctx = ctx_for(1, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        let learned =
            inst.on_message(ProcessId::new(0), InstanceMsg::Decided { value: 8 }, &mut ctx);
        assert_eq!(learned, Some(8));
        // Learning the same decision again returns None (not "newly decided").
        let again =
            inst.on_message(ProcessId::new(2), InstanceMsg::Decided { value: 8 }, &mut ctx);
        assert_eq!(again, None);

        ctx.clear_effects();
        inst.on_message(ProcessId::new(2), InstanceMsg::Query, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((p, InstanceMsg::Decided { value: 8 })) if *p == ProcessId::new(2)
        ));
    }

    #[test]
    fn non_leader_queries_instead_of_driving() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(4, false, &mut ctx);
        assert!(matches!(ctx.multisent.last(), Some(InstanceMsg::Query)));
        ctx.clear_effects();
        inst.tick(false, &mut ctx);
        assert!(matches!(ctx.multisent.last(), Some(InstanceMsg::Query)));
        // A decided instance stays quiet on ticks.
        inst.on_message(ProcessId::new(0), InstanceMsg::Decided { value: 4 }, &mut ctx);
        ctx.clear_effects();
        inst.tick(false, &mut ctx);
        inst.tick(true, &mut ctx);
        assert!(ctx.multisent.is_empty() && ctx.sent.is_empty());
    }

    #[test]
    fn crash_stop_mode_never_touches_storage() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), false);
        inst.propose(3, true, &mut ctx);
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(1, 1) }, &mut ctx);
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::AcceptRequest { ballot: b(1, 1), value: 3 },
            &mut ctx,
        );
        inst.on_message(ProcessId::new(1), InstanceMsg::Decided { value: 3 }, &mut ctx);
        assert_eq!(ctx.storage().metrics().write_ops(), 0);
    }

    #[test]
    fn issued_ballot_survives_recovery_and_is_never_reissued() {
        // Fuzz regression (sim_fuzz seed 88 family): a coordinator that
        // crashed between multisending `Prepare` and receiving its own
        // (fair-lossy) copy used to recover with a stale ballot watermark
        // and reissue the *same* ballot number, letting stale `Accepted`
        // acks from its previous incarnation count toward a different
        // value's majority.  The synchronous self-promise at issuance is
        // the durable watermark; recovery must start strictly above it.
        // (p1 coordinates: p0's ballot-0 fast path has its own test.)
        let mut ctx = ctx_for(1, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(1, true, &mut ctx);
        let first = prepare_ballot(&ctx);

        // Crash now: no copy of the Prepare was ever delivered back, so
        // the persisted self-promise is the only trace of the ballot.
        let mut recovered: ConsensusInstance<u64> =
            ConsensusInstance::recover(k(), true, &ctx.storage_handle()).unwrap();
        assert_eq!(recovered.proposal(), Some(&1));
        ctx.clear_effects();
        recovered.tick(true, &mut ctx);
        let second = prepare_ballot(&ctx);
        assert!(
            second.number > first.number,
            "recovered coordinator reissued ballot {first:?} (got {second:?})"
        );
    }

    #[test]
    fn ticks_retransmit_the_current_phase() {
        let mut ctx = ctx_for(1, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(2, true, &mut ctx);
        ctx.advance(SimDuration::from_millis(40));
        ctx.clear_effects();
        // Still preparing: the prepare is re-multisent.
        inst.tick(true, &mut ctx);
        assert!(matches!(ctx.multisent.last(), Some(InstanceMsg::Prepare { .. })));
    }

    #[test]
    fn p0_skips_phase_one_at_ballot_zero_and_logs_under_one_barrier() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(5, true, &mut ctx);

        // One AcceptRequest at b0, no Prepare, and no eager Query: the
        // AcceptRequest already draws any known decision.
        assert_eq!(
            ctx.multisent,
            vec![InstanceMsg::AcceptRequest { ballot: Ballot::initial(), value: 5 }]
        );
        assert!(ctx.sent.is_empty());
        // Proposal, promise and accepted value commit in one batch.
        let snap = ctx.storage().metrics().snapshot();
        assert_eq!(snap.store_ops, 3);
        assert_eq!(snap.sync_ops, 1);
        let storage = ctx.storage_handle();
        let promised: Option<Ballot> =
            storage.load_value(&keys::consensus_promised(k())).unwrap();
        let accepted: Option<(Ballot, u64)> =
            storage.load_value(&keys::consensus_accepted(k())).unwrap();
        assert_eq!(promised, Some(Ballot::initial()));
        assert_eq!(accepted, Some((Ballot::initial(), 5)));

        // p0 counts itself: one more Accepted is a majority of three.
        ctx.clear_effects();
        let decided = inst.on_message(
            ProcessId::new(2),
            InstanceMsg::Accepted { ballot: Ballot::initial() },
            &mut ctx,
        );
        assert_eq!(decided, Some(5));
        assert_eq!(ctx.multisent, vec![InstanceMsg::Decided { value: 5 }]);
    }

    #[test]
    fn own_accept_request_copy_logs_nothing_more() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(5, true, &mut ctx);
        let before = ctx.storage().metrics().snapshot();
        ctx.clear_effects();
        let me = ProcessId::new(0);
        inst.on_message(
            me,
            InstanceMsg::AcceptRequest { ballot: Ballot::initial(), value: 5 },
            &mut ctx,
        );
        let delta = ctx.storage().metrics().snapshot().since(&before);
        assert_eq!(delta.store_ops, 0, "the state on disk is already (b0, 5)");
        assert_eq!(ctx.sent, vec![(me, InstanceMsg::Accepted { ballot: Ballot::initial() })]);
    }

    #[test]
    fn recovered_p0_with_ballot_zero_state_runs_phase_one_and_never_reissues_it() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(1, true, &mut ctx);
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::AcceptRequest { ballot, .. }) if *ballot == Ballot::initial()
        ));

        // Crash right after the AcceptRequest(b0) left.  The recovered
        // coordinator re-proposes a different value (P4 keeps the logged
        // one) and must use a Phase-1 ballot above b0.
        let mut recovered: ConsensusInstance<u64> =
            ConsensusInstance::recover(k(), true, &ctx.storage_handle()).unwrap();
        ctx.clear_effects();
        recovered.propose(9, true, &mut ctx);
        let ballot = prepare_ballot(&ctx);
        assert!(ballot > Ballot::initial());
        assert_eq!(ballot.coordinator, ProcessId::new(0));
        for _ in 0..3 {
            recovered.tick(true, &mut ctx);
        }
        assert!(
            ctx.multisent
                .iter()
                .all(|m| !matches!(m, InstanceMsg::AcceptRequest { ballot, .. } if *ballot == Ballot::initial())),
            "b0 was re-issued: {:?}",
            ctx.multisent
        );

        // Its own promise reports (b0, 1), so Phase 2 carries the logged 1.
        ctx.clear_effects();
        recovered.on_message(
            ProcessId::new(1),
            InstanceMsg::Promise { ballot, accepted: None },
            &mut ctx,
        );
        assert_eq!(ctx.multisent, vec![InstanceMsg::AcceptRequest { ballot, value: 1 }]);
    }

    #[test]
    fn nack_on_ballot_zero_falls_back_to_phase_one() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(1, true, &mut ctx);
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::Nack { ballot: Ballot::initial(), promised: b(4, 1) },
            &mut ctx,
        );
        ctx.clear_effects();
        inst.tick(true, &mut ctx);
        let ballot = prepare_ballot(&ctx);
        assert!(ballot.number > 4);
        assert_eq!(ballot.coordinator, ProcessId::new(0));
    }

    #[test]
    fn p0_that_already_promised_another_ballot_runs_phase_one() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(1, 1) }, &mut ctx);
        ctx.clear_effects();
        inst.propose(2, true, &mut ctx);
        assert!(prepare_ballot(&ctx) > b(1, 1));
    }

    #[test]
    fn other_coordinators_and_crash_stop_always_run_phase_one() {
        for me in 1..3 {
            let mut ctx = ctx_for(me, 3);
            let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
            inst.propose(3, true, &mut ctx);
            assert_eq!(ctx.multisent.len(), 1, "{:?}", ctx.multisent);
            assert_eq!(prepare_ballot(&ctx).coordinator, ProcessId::new(me));
        }
        // A crash-stop instance logs nothing, so nothing binds b0 to one
        // value: p0 runs Phase 1 too.
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), false);
        inst.propose(3, true, &mut ctx);
        assert!(prepare_ballot(&ctx) > Ballot::initial());
    }

    #[test]
    fn a_learner_of_a_decided_message_sends_nothing() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k(), true);
        inst.propose(6, false, &mut ctx);
        ctx.clear_effects();
        let learned =
            inst.on_message(ProcessId::new(0), InstanceMsg::Decided { value: 6 }, &mut ctx);
        assert_eq!(learned, Some(6));
        assert!(ctx.sent.is_empty() && ctx.multisent.is_empty());
    }
}
