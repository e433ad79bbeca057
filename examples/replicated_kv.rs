//! A replicated key-value store with quorum reads.
//!
//! ```text
//! cargo run --example replicated_kv
//! ```
//!
//! Five replicas run the [`KvStore`] state machine on top of the atomic
//! broadcast protocol (writes are totally ordered), while reads use the
//! weighted-voting machinery of Section 6.3: a read quorum of replicas is
//! consulted and the freshest copy wins, so reads stay correct even when
//! some replicas lag behind or are down.

use crash_recovery_abcast::replication::quorum::{
    combine_read_replies, QuorumConfig, QuorumReadOutcome, ReadReply,
};
use crash_recovery_abcast::{
    ConsensusConfig, KvCommand, KvStore, ProcessId, ProtocolConfig, Replica, SimConfig,
    SimDuration, SimTime, Simulation,
};

type KvReplica = Replica<KvStore>;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Performs a quorum read of `key` by asking every *up* replica and
/// combining the replies under `config`.
fn quorum_read(
    sim: &Simulation<KvReplica>,
    config: &QuorumConfig,
    key: &str,
) -> QuorumReadOutcome<Option<String>> {
    let replies: Vec<ReadReply<Option<String>>> = sim
        .processes()
        .iter()
        .filter_map(|q| {
            sim.actor(q).map(|replica| ReadReply {
                replica: q,
                version: replica.broadcast().agreed().total_delivered(),
                value: replica.state().get(key).map(str::to_string),
            })
        })
        .collect();
    combine_read_replies(config, &replies)
}

fn main() {
    let n = 5;
    let mut sim = Simulation::new(SimConfig::lan(n).with_seed(11), |_p, _s| {
        KvReplica::new(ProtocolConfig::alternative(), ConsensusConfig::crash_recovery())
    });
    let quorums = QuorumConfig::uniform_majority(n);

    // Write through the broadcast: every replica applies the same updates
    // in the same order.
    let mut ids = Vec::new();
    for i in 0..20u32 {
        let writer = p(i % n as u32);
        let cmd = KvCommand::put(format!("user:{}", i % 7), format!("value-{i}"));
        if let Some(id) = sim.with_actor_mut(writer, |r, ctx| r.submit(&cmd, ctx)) {
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(20));
    }

    // Crash two replicas; a majority keeps serving.
    sim.crash_now(p(3));
    sim.crash_now(p(4));
    let cmd = KvCommand::put("user:0", "written-during-outage");
    ids.extend(sim.with_actor_mut(p(0), |r, ctx| r.submit(&cmd, ctx)));
    sim.run_for(SimDuration::from_secs(2));

    match quorum_read(&sim, &quorums, "user:0") {
        QuorumReadOutcome::Value { version, value } => {
            println!("quorum read during outage: user:0 = {value:?} (version {version})");
            assert_eq!(value.as_deref(), Some("written-during-outage"));
        }
        QuorumReadOutcome::InsufficientQuorum { weight, needed } => {
            panic!("read quorum lost: {weight} < {needed}")
        }
    }

    // Recover the crashed replicas; they catch up and converge.
    sim.recover_now(p(3));
    sim.recover_now(p(4));
    let caught_up = sim.run_until(SimTime::from_micros(40_000_000), |sim| {
        sim.processes().iter().all(|q| {
            sim.actor(q)
                .map(|r| ids.iter().all(|id| r.has_executed(*id)))
                .unwrap_or(false)
        })
    });
    assert!(caught_up, "recovered replicas did not catch up");

    let reference = sim.actor(p(0)).unwrap().state().clone();
    for q in sim.processes().iter() {
        assert_eq!(sim.actor(q).unwrap().state(), &reference, "{q} diverged");
    }
    println!("all {n} replicas converged to {} keys:", reference.len());
    for (key, value) in reference.iter() {
        println!("  {key} = {value}");
    }

    // Read-one/write-all also works once everyone is caught up.
    let rowa = QuorumConfig::read_one_write_all(n);
    if let QuorumReadOutcome::Value { value, .. } = quorum_read(&sim, &rowa, "user:3") {
        println!("ROWA read of user:3 = {value:?}");
    }
}
