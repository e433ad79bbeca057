//! Simulator regression tests for the leader fast path: a non-leader's
//! new message is pushed straight to the Ω leader, p0 decides at ballot 0
//! without Phase 1, and any other coordinator still runs Phase 1.

use crash_recovery_abcast::core::{Cluster, ClusterConfig};
use crash_recovery_abcast::storage::{keys, TypedStorageExt};
use crash_recovery_abcast::types::{Ballot, Round};
use crash_recovery_abcast::{LinkConfig, ProcessId, ProtocolConfig, SimDuration};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A reliable 1 ms link and a gossip period far beyond every deadline
/// below, so the gossip task never carries a message in these tests.
fn cluster_without_gossip() -> Cluster {
    Cluster::new(
        ClusterConfig::alternative(3)
            .with_seed(7)
            .with_link(LinkConfig::reliable())
            .with_protocol(ProtocolConfig::alternative().with_gossip_period(SimDuration::from_secs(10))),
    )
}

fn promised(cluster: &Cluster, at: ProcessId, k: u64) -> Option<Ballot> {
    cluster
        .sim()
        .storage_for(at)
        .load_value(&keys::consensus_promised(Round::new(k)))
        .unwrap()
}

#[test]
fn a_non_leader_message_reaches_everyone_within_a_few_link_delays() {
    let mut cluster = cluster_without_gossip();
    cluster.run_for(SimDuration::from_millis(5));
    let id = cluster.broadcast(p(1), b"pushed".to_vec()).unwrap();
    // Push to p0 (1 ms), AcceptRequest at b0 (1 ms), Accepted (1 ms),
    // Decided (1 ms): four link delays.  A ten-second gossip period and
    // a 40 ms consensus retransmit tick could not make this deadline.
    let everyone = [p(0), p(1), p(2)];
    let deadline = cluster.now() + SimDuration::from_millis(6);
    assert!(
        cluster.run_until_delivered(&everyone, &[id], deadline),
        "the push to the leader did not carry the message"
    );
    cluster.assert_properties();
    // p0 decided round 0 at b0: its acceptors hold that promise.
    for at in everyone {
        assert_eq!(promised(&cluster, at, 0), Some(Ballot::initial()), "{at}");
    }
}

#[test]
fn with_p0_crashed_p1_still_decides_through_phase_one() {
    let mut cluster = cluster_without_gossip();
    cluster.run_for(SimDuration::from_millis(5));
    cluster.sim_mut().crash_now(p(0));
    // Let the failure detectors suspect p0, so p1 becomes the Ω leader.
    cluster.run_for(SimDuration::from_millis(200));
    let ids: Vec<_> = [p(1), p(2)]
        .into_iter()
        .map(|at| cluster.broadcast(at, format!("from {at}").into_bytes()).unwrap())
        .collect();
    let deadline = cluster.now() + SimDuration::from_secs(2);
    assert!(
        cluster.run_until_delivered(&[p(1), p(2)], &ids, deadline),
        "p1 did not decide without p0"
    );
    cluster.assert_properties();
    let ballot = promised(&cluster, p(1), 0).expect("p1 promised a ballot for round 0");
    assert_eq!(ballot.coordinator, p(1));
    assert!(ballot > Ballot::initial(), "p1 never takes the ballot-0 fast path");
}
