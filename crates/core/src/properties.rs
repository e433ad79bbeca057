//! Checkers for the four properties that define Atomic Broadcast in the
//! crash-recovery model (Section 2.2).
//!
//! Tests and experiments collect the delivery sequences of all processes
//! (and the multiset of broadcast messages) after a run and feed them to
//! these functions:
//!
//! * **Validity** — no spurious messages: everything delivered was
//!   broadcast;
//! * **Integrity** — no message appears twice in any sequence;
//! * **Total Order** — the sequences are pairwise prefix-related;
//! * **Termination** — every message required to be delivered (broadcast by
//!   a good process, or delivered by anyone) is delivered by every good
//!   process.

use std::collections::BTreeSet;

use abcast_types::{AppMessage, MsgId};

use crate::queues::AgreedQueue;

/// A violation found by one of the property checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which property was violated.
    pub property: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    fn new(property: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            property,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated: {}", self.property, self.detail)
    }
}

/// Integrity: a message appears at most once in a delivery sequence.
pub fn check_integrity(sequence: &[AppMessage]) -> Result<(), Violation> {
    let mut seen = BTreeSet::new();
    for m in sequence {
        if !seen.insert(m.id()) {
            return Err(Violation::new(
                "Integrity",
                format!("message {} delivered more than once", m.id()),
            ));
        }
    }
    Ok(())
}

/// Validity: every delivered message was A-broadcast by some process.
pub fn check_validity(
    sequence: &[AppMessage],
    broadcast: &BTreeSet<MsgId>,
) -> Result<(), Violation> {
    for m in sequence {
        if !broadcast.contains(&m.id()) {
            return Err(Violation::new(
                "Validity",
                format!("message {} was delivered but never broadcast", m.id()),
            ));
        }
    }
    Ok(())
}

/// Total Order over explicit sequences: for every pair, one is a prefix of
/// the other.
pub fn check_total_order(sequences: &[Vec<AppMessage>]) -> Result<(), Violation> {
    for (i, a) in sequences.iter().enumerate() {
        for (j, b) in sequences.iter().enumerate().skip(i + 1) {
            let shorter = a.len().min(b.len());
            for position in 0..shorter {
                if a[position].id() != b[position].id() {
                    return Err(Violation::new(
                        "Total Order",
                        format!(
                            "sequences of process {i} and process {j} diverge at position \
                             {position}: {} vs {}",
                            a[position].id(),
                            b[position].id()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Total Order in the presence of application checkpoints: delivery
/// sequences may start with a checkpoint instead of explicit messages, so
/// the prefix relation is checked on *identities in delivery order*, where
/// a process whose sequence was compacted (or adopted through a state
/// transfer) is allowed to be missing an arbitrary prefix, but never to
/// reorder, interleave or skip a message another process delivered inside
/// the same span.
///
/// Compaction folds per-sender gap-free prefixes, not a delivery-order
/// prefix, so a compacted queue can also lose messages from the *middle*
/// of its explicit window: delivering `[p3#0, p3#2, p1#0]` and compacting
/// keeps only `p3#2` explicit.  When comparing two windows, identities the
/// other queue's checkpoint covers are therefore left out first — the
/// other queue delivered them, but its explicit window no longer says
/// where.
pub fn check_total_order_compacted(queues: &[&AgreedQueue]) -> Result<(), Violation> {
    // Build, for every process, the ordered list of explicit identities.
    // Each is a contiguous *window* of the one true delivery order: the
    // prefix may have been compacted into a checkpoint (or adopted through
    // a state transfer), the tail may simply not have been delivered yet.
    let explicit: Vec<Vec<MsgId>> = queues
        .iter()
        .map(|q| q.messages().iter().map(AppMessage::id).collect())
        .collect();
    // Two windows of the same total order must agree exactly on their
    // overlap: restricted to the identities both contain, the enclosing
    // slices (first common to last common, *everything in between
    // included*) must be identical — same elements, same order, no gaps.
    // Disjoint windows carry no ordering evidence and are skipped.
    for (i, a_all) in explicit.iter().enumerate() {
        for (j, b_all) in explicit.iter().enumerate().skip(i + 1) {
            let a: Vec<MsgId> = a_all
                .iter()
                .filter(|id| !queues[j].checkpoint().vc.contains(**id))
                .copied()
                .collect();
            let b: Vec<MsgId> = b_all
                .iter()
                .filter(|id| !queues[i].checkpoint().vc.contains(**id))
                .copied()
                .collect();
            let in_b: BTreeSet<&MsgId> = b.iter().collect();
            let common: Vec<usize> = (0..a.len()).filter(|k| in_b.contains(&a[*k])).collect();
            let (Some(&a_first), Some(&a_last)) = (common.first(), common.last()) else {
                continue;
            };
            let in_common: BTreeSet<&MsgId> = common.iter().map(|k| &a[*k]).collect();
            let b_first = b.iter().position(|id| in_common.contains(id)).expect("nonempty");
            let b_last = b.iter().rposition(|id| in_common.contains(id)).expect("nonempty");
            let slice_a = &a[a_first..=a_last];
            let slice_b = &b[b_first..=b_last];
            if slice_a != slice_b {
                let offset = slice_a
                    .iter()
                    .zip(slice_b.iter())
                    .position(|(x, y)| x != y)
                    .unwrap_or(slice_a.len().min(slice_b.len()));
                return Err(Violation::new(
                    "Total Order",
                    format!(
                        "processes {i} and {j} disagree on their overlapping deliveries at \
                         overlap offset {offset}: {:?} vs {:?}",
                        slice_a.get(offset),
                        slice_b.get(offset)
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Termination: every identity in `must_deliver` appears in the delivery
/// sequence of every good process.
pub fn check_termination(
    good_sequences: &[(usize, &AgreedQueue)],
    must_deliver: &BTreeSet<MsgId>,
) -> Result<(), Violation> {
    for (process, queue) in good_sequences {
        for id in must_deliver {
            if !queue.contains(*id) {
                return Err(Violation::new(
                    "Termination",
                    format!("good process {process} never delivered {id}"),
                ));
            }
        }
    }
    Ok(())
}

/// Runs every checker over a full run outcome and returns all violations.
pub fn check_all(
    queues: &[&AgreedQueue],
    good: &[usize],
    broadcast: &BTreeSet<MsgId>,
    must_deliver: &BTreeSet<MsgId>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for q in queues {
        if let Err(v) = check_integrity(q.messages()) {
            violations.push(v);
        }
        if let Err(v) = check_validity(q.messages(), broadcast) {
            violations.push(v);
        }
    }
    if let Err(v) = check_total_order_compacted(queues) {
        violations.push(v);
    }
    let good_queues: Vec<(usize, &AgreedQueue)> = good
        .iter()
        .filter_map(|i| queues.get(*i).map(|q| (*i, *q)))
        .collect();
    if let Err(v) = check_termination(&good_queues, must_deliver) {
        violations.push(v);
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_types::{Payload, ProcessId};

    fn msg(sender: u32, seq: u64) -> AppMessage {
        AppMessage::from_parts(ProcessId::new(sender), seq, vec![])
    }

    fn ids(messages: &[AppMessage]) -> BTreeSet<MsgId> {
        messages.iter().map(AppMessage::id).collect()
    }

    #[test]
    fn integrity_detects_duplicates() {
        assert!(check_integrity(&[msg(0, 0), msg(1, 0)]).is_ok());
        let err = check_integrity(&[msg(0, 0), msg(0, 0)]).unwrap_err();
        assert_eq!(err.property, "Integrity");
        assert!(err.to_string().contains("p0#0"));
    }

    #[test]
    fn validity_detects_spurious_messages() {
        let broadcast = ids(&[msg(0, 0)]);
        assert!(check_validity(&[msg(0, 0)], &broadcast).is_ok());
        let err = check_validity(&[msg(9, 9)], &broadcast).unwrap_err();
        assert_eq!(err.property, "Validity");
    }

    #[test]
    fn total_order_accepts_prefixes_and_rejects_divergence() {
        let a = vec![msg(0, 0), msg(1, 0), msg(1, 1)];
        let b = vec![msg(0, 0), msg(1, 0)];
        let c: Vec<AppMessage> = vec![];
        assert!(check_total_order(&[a.clone(), b.clone(), c]).is_ok());

        let diverging = vec![msg(0, 0), msg(1, 1)];
        let err = check_total_order(&[a, diverging]).unwrap_err();
        assert_eq!(err.property, "Total Order");
        assert!(err.detail.contains("position 1"));
    }

    #[test]
    fn compacted_total_order_allows_missing_prefixes_only() {
        let mut full = AgreedQueue::new();
        full.append_batch(&[msg(0, 0), msg(0, 1), msg(1, 0), msg(1, 1)]);

        let mut compacted = AgreedQueue::new();
        compacted.append_batch(&[msg(0, 0), msg(0, 1), msg(1, 0), msg(1, 1)]);
        compacted.compact(Payload::new());
        compacted.append_batch(&[]);

        let mut suffix_only = AgreedQueue::new();
        suffix_only.append_batch(&[msg(0, 0), msg(0, 1)]);
        suffix_only.compact(Payload::new());
        // After compaction it delivers the rest explicitly.
        suffix_only.append_batch(&[msg(1, 0), msg(1, 1)]);

        assert!(check_total_order_compacted(&[&full, &compacted, &suffix_only]).is_ok());

        let mut reordered = AgreedQueue::new();
        reordered.append_batch(&[msg(1, 1)]);
        reordered.append_batch(&[msg(1, 0)]);
        let err = check_total_order_compacted(&[&full, &reordered]).unwrap_err();
        assert_eq!(err.property, "Total Order");
    }

    #[test]
    fn lagging_window_behind_a_compacted_reference_is_not_a_violation() {
        // Found by sim_fuzz seed 144: the process with the *longest*
        // explicit sequence had compacted p0#0 into its checkpoint, while
        // a lagging recovering process held only p0#0 explicitly.  The two
        // windows overlap on nothing contradictory, so this must pass.
        let mut compacted_leader = AgreedQueue::new();
        compacted_leader.append_batch(&[msg(0, 0)]);
        compacted_leader.compact(Payload::new());
        compacted_leader.append_batch(&[msg(0, 1), msg(0, 2), msg(1, 0), msg(1, 1)]);

        let mut lagging = AgreedQueue::new();
        lagging.append_batch(&[msg(0, 0)]);
        assert!(check_total_order_compacted(&[&compacted_leader, &lagging]).is_ok());

        // But a gap *inside* the shared span is still caught: a window
        // that skips p0#2 between p0#1 and p1#0 disagrees with the leader.
        let mut gapped = AgreedQueue::new();
        gapped.append_batch(&[msg(0, 1)]);
        gapped.append_batch(&[msg(1, 0)]);
        let err = check_total_order_compacted(&[&compacted_leader, &gapped]).unwrap_err();
        assert_eq!(err.property, "Total Order");
    }

    #[test]
    fn a_hole_compacted_out_of_the_middle_is_not_a_violation() {
        // Found by a sim_fuzz campaign: both processes deliver
        // [p3#0, p3#2, p1#0, p3#1]; B compacts after the third message.
        // Compaction folds gap-free per-sender prefixes (p3#0, p1#0), so
        // B keeps [p3#2, p3#1] explicit — the same order, with p1#0
        // covered by B's checkpoint rather than missing.
        let order = [msg(3, 0), msg(3, 2), msg(1, 0), msg(3, 1)];
        let mut a = AgreedQueue::new();
        a.append_in_order(&order);
        let mut b = AgreedQueue::new();
        b.append_in_order(&order[..3]);
        b.compact(Payload::new());
        b.append_in_order(&order[3..]);
        let explicit: Vec<MsgId> = b.messages().iter().map(AppMessage::id).collect();
        assert_eq!(explicit, vec![msg(3, 2).id(), msg(3, 1).id()]);
        assert!(check_total_order_compacted(&[&a, &b]).is_ok());
        assert!(check_total_order_compacted(&[&b, &a]).is_ok());

        // A real reordering next to the hole is still caught.
        let mut swapped = AgreedQueue::new();
        swapped.append_in_order(&[msg(3, 0), msg(3, 1), msg(1, 0), msg(3, 2)]);
        let err = check_total_order_compacted(&[&swapped, &b]).unwrap_err();
        assert_eq!(err.property, "Total Order");
    }

    #[test]
    fn termination_requires_good_processes_to_deliver_everything() {
        let mut q0 = AgreedQueue::new();
        q0.append_batch(&[msg(0, 0), msg(1, 0)]);
        let mut q1 = AgreedQueue::new();
        q1.append_batch(&[msg(0, 0)]);

        let must = ids(&[msg(0, 0), msg(1, 0)]);
        assert!(check_termination(&[(0, &q0)], &must).is_ok());
        let err = check_termination(&[(0, &q0), (1, &q1)], &must).unwrap_err();
        assert_eq!(err.property, "Termination");
        assert!(err.detail.contains("process 1"));
    }

    #[test]
    fn check_all_aggregates_violations() {
        let mut good_queue = AgreedQueue::new();
        good_queue.append_batch(&[msg(0, 0)]);
        let broadcast = ids(&[msg(0, 0)]);
        let must = ids(&[msg(0, 0)]);
        let violations = check_all(&[&good_queue], &[0], &broadcast, &must);
        assert!(violations.is_empty(), "{violations:?}");

        // A spurious, duplicated message triggers several violations.
        let mut bad_queue = AgreedQueue::new();
        bad_queue.append_batch(&[msg(7, 7)]);
        let violations = check_all(&[&bad_queue], &[0], &broadcast, &must);
        assert!(violations.iter().any(|v| v.property == "Validity"));
        assert!(violations.iter().any(|v| v.property == "Termination"));
    }
}
