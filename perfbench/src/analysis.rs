//! After a run: the output checks (Integrity, Validity and Total Order
//! with `abcast_core::properties`, delivery of every accepted message) and
//! the end-to-end and per-layer metrics.

use std::collections::{BTreeSet, HashMap};

use abcast_core::{
    check_integrity, check_total_order, check_total_order_compacted, check_validity,
};
use abcast_core::{AgreedQueue, Violation};
use abcast_types::{AppMessage, MsgId, ProcessId};

use crate::generator::{Cycle, Generated};
use crate::probe::{Layer, Span, LAYERS};
use crate::procfs::{self, GroupCpu};
use crate::stats::{self, max_gap, minimum, percentile, trimmed_mean, ClockMap, MIN_BEYOND};
use crate::workload::{is_setup_tag, N};

/// Thread CPU booked to the layers (decode and the typed handlers, the
/// bench bookkeeping, the runtime loop between callbacks) must come
/// within this share of the worker threads' schedstat CPU, on either side.
pub const ACCOUNTING_BOUND: f64 = 0.25;

/// Everything collected from one finished run.
pub struct RunData {
    pub traced: bool,
    pub setup_s: Vec<f64>,
    pub gen: Generated,
    pub maps: Vec<ClockMap>,
    pub maps_end: Vec<ClockMap>,
    /// Per process: accepted `(tag, id)` and `(incarnation, worker µs, id)`.
    pub broadcasts: Vec<Vec<(u64, MsgId)>>,
    pub deliveries: Vec<Vec<(u32, u64, MsgId)>>,
    pub final_agreed: Vec<AgreedQueue>,
    /// Per process: accepted ids the final incarnation does not report
    /// delivered by `is_delivered`.
    pub undelivered: Vec<BTreeSet<MsgId>>,
    pub decode_failures: u64,
    pub generator_comm: String,
    pub accept_ns: HashMap<MsgId, u64>,
    pub commit_us: Vec<Vec<u32>>,
    pub unordered_len: Vec<Vec<u32>>,
    pub spans: Vec<Vec<Span>>,
    pub wal_fs: String,
}

/// A metric value with its unit and, for distributions, sample count.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn ms(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

pub struct Analysis {
    pub violations: Vec<Violation>,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub end_to_end: Vec<Metric>,
    /// Printed beside `end_to_end`, absent from the JSON result.
    pub ungated: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

/// A quantile of a distribution that carries no bound (per-layer figures,
/// notes): no sample-count rule, 0 when there are no samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    percentile(sorted, q, 0).unwrap_or(0.0)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn analyze(r: &RunData) -> Analysis {
    let mut a = Analysis {
        violations: Vec::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        ungated: Vec::new(),
        per_layer: Vec::new(),
        notes: Vec::new(),
    };
    check_outputs(r, &mut a);
    if !a.violations.is_empty() {
        return a;
    }
    measure(r, &mut a);
    a
}

/// The delivery sequence of every incarnation of every process.
fn incarnations(r: &RunData) -> Vec<Vec<Vec<MsgId>>> {
    r.deliveries
        .iter()
        .map(|log| {
            let mut incs: Vec<Vec<MsgId>> = Vec::new();
            let mut current = None;
            for &(inc, _, id) in log {
                if current != Some(inc) {
                    incs.push(Vec::new());
                    current = Some(inc);
                }
                incs.last_mut().expect("pushed above").push(id);
            }
            incs
        })
        .collect()
}

fn as_messages(ids: &[MsgId]) -> Vec<AppMessage> {
    ids.iter()
        .map(|&id| AppMessage::new(id, Vec::new()))
        .collect()
}

fn check_outputs(r: &RunData, a: &mut Analysis) {
    let broadcast: BTreeSet<MsgId> = r.broadcasts.iter().flatten().map(|&(_, id)| id).collect();
    let incs = incarnations(r);
    // Integrity and Validity, per incarnation.
    for seqs in &incs {
        for seq in seqs {
            let msgs = as_messages(seq);
            a.violations.extend(check_integrity(&msgs).err());
            a.violations.extend(check_validity(&msgs, &broadcast).err());
        }
    }
    // Total Order: first incarnations start from the first message, so
    // they must be pairwise prefix-related ...
    let firsts: Vec<Vec<AppMessage>> = incs
        .iter()
        .filter_map(|seqs| seqs.first())
        .map(|s| as_messages(s))
        .collect();
    a.violations.extend(check_total_order(&firsts).err());
    // ... later incarnations restart from replay or a checkpoint and skip
    // what state transfers installed, so each must follow the order of the
    // longest sequence ...
    let reference: Vec<MsgId> = incs
        .iter()
        .flatten()
        .max_by_key(|s| s.len())
        .cloned()
        .unwrap_or_default();
    for (p, seqs) in incs.iter().enumerate() {
        for (k, seq) in seqs.iter().enumerate().skip(1) {
            if !stats::in_reference_order(seq, &reference) {
                a.violations.push(Violation {
                    property: "Total Order",
                    detail: format!(
                        "incarnation {} of p{p} departs from the delivery order",
                        k + 1
                    ),
                });
            }
        }
    }
    // ... and the final queues, compaction included, must agree.
    let queues: Vec<&AgreedQueue> = r.final_agreed.iter().collect();
    a.violations
        .extend(check_total_order_compacted(&queues).err());

    // Delivery: every accepted submission must reach every process.
    let tag_to_id: HashMap<u64, MsgId> = r.broadcasts.iter().flatten().copied().collect();
    let subs = &r.gen.subs;
    a.attempted = subs.len();
    let mut examples = Vec::new();
    for s in subs {
        let id = tag_to_id.get(&s.tag);
        if id.is_some_and(|id| r.undelivered.iter().all(|u| !u.contains(id))) {
            continue;
        }
        a.failed += 1;
        if examples.len() == 5 {
            continue;
        }
        examples.push(match id {
            None => format!("submission {} to {} was refused", s.tag, s.to),
            Some(id) => {
                let missing_at: Vec<String> = (0..N)
                    .filter(|&p| r.undelivered[p].contains(id))
                    .map(|p| format!("p{p}"))
                    .collect();
                // Incarnations that delivered it before losing it.
                let seen: Vec<String> = r
                    .deliveries
                    .iter()
                    .enumerate()
                    .flat_map(|(p, log)| {
                        log.iter()
                            .filter(|&&(_, _, d)| d == *id)
                            .map(move |&(inc, _, _)| format!("p{p}/{inc}"))
                    })
                    .collect();
                format!(
                    "{id} (submission {} to {}, due at {:.3} s) missing at {}, delivered by incarnations [{}]",
                    s.tag,
                    s.to,
                    s.due_us / 1e6,
                    missing_at.join(" "),
                    seen.join(" ")
                )
            }
        });
    }
    if !examples.is_empty() {
        let crashes: Vec<String> = r
            .gen
            .cycles
            .iter()
            .map(|c| format!("{:.3}-{:.3}", c.crash_us / 1e6, c.recover_us / 1e6))
            .collect();
        a.notes.push(format!(
            "{} failed submissions, e.g. {}; leader down (s): {}",
            a.failed,
            examples.join("; "),
            crashes.join(" ")
        ));
    }
    if r.decode_failures > 0 {
        a.problems
            .push(format!("{} frames failed to decode", r.decode_failures));
    }
}

/// First delivery time of each id at each process, on the generator clock.
fn delivery_times(r: &RunData) -> Vec<HashMap<MsgId, f64>> {
    r.deliveries
        .iter()
        .zip(&r.maps)
        .map(|(log, map)| {
            let mut first = HashMap::with_capacity(log.len());
            for &(_, wus, id) in log {
                first.entry(id).or_insert_with(|| map.map(wus as f64));
            }
            first
        })
        .collect()
}

fn per_msg(x: f64, msgs: f64) -> f64 {
    x / msgs.max(1.0)
}

fn measure(r: &RunData, a: &mut Analysis) {
    let g = &r.gen;
    let (w0, w1) = (&g.w0, &g.w1);
    let window_s = (w1.at_us - w0.at_us) / 1e6;
    let tag_to_id: HashMap<u64, MsgId> = r.broadcasts.iter().flatten().copied().collect();
    let times = delivery_times(r);
    let measured: Vec<_> = g
        .subs
        .iter()
        .filter(|s| s.due_us >= w0.at_us && s.due_us < w1.at_us && !is_setup_tag(s.tag))
        .collect();
    let msgs = measured.len() as f64;

    // Latency from the due time to delivery at the sender.
    let mut lat = Vec::with_capacity(measured.len());
    let mut unsampled = 0;
    let mut first_due = f64::MAX;
    let mut last_delivery: f64 = 0.0;
    let mut delivered_everywhere = 0usize;
    for s in &measured {
        first_due = first_due.min(s.due_us);
        let Some(id) = tag_to_id.get(&s.tag) else {
            continue;
        };
        match times[s.to.index()].get(id) {
            Some(t) => lat.push((t - s.due_us) / 1e3),
            None => unsampled += 1,
        }
        if r.undelivered.iter().all(|u| !u.contains(id)) {
            delivered_everywhere += 1;
        }
        for t in &times {
            if let Some(&t) = t.get(id) {
                last_delivery = last_delivery.max(t);
            }
        }
    }
    let lat = sorted(lat);
    let n_lat = lat.len();
    let pct = |q: f64, name: &str, problems: &mut Vec<String>| {
        percentile(&lat, q, MIN_BEYOND).unwrap_or_else(|| {
            problems.push(format!("{name}: {n_lat} latency samples do not support it"));
            f64::NAN
        })
    };
    let p50 = pct(0.5, "latency_p50_ms", &mut a.problems);
    let p90 = pct(0.9, "latency_p90_ms", &mut a.problems);
    if unsampled > 0 {
        a.notes.push(format!(
            "{unsampled} measured messages were adopted by their sender through a state transfer, so they carry no latency sample"
        ));
    }
    let lateness = sorted(
        measured
            .iter()
            .map(|s| (s.sent_us - s.due_us) / 1e3)
            .collect(),
    );

    let generator = |name: &str| name == r.generator_comm;
    let all_cpu = w1.threads.since(&w0.threads, |n| !generator(n));
    let workers = w1.threads.since(&w0.threads, procfs::is_worker);
    let poller = w1.threads.since(&w0.threads, procfs::is_poller);
    let compactor = w1.threads.since(&w0.threads, procfs::is_compactor);
    let gen_cpu = w1.threads.since(&w0.threads, generator);
    if workers.run_ns == 0 || poller.run_ns == 0 || all_cpu.run_ns == 0 {
        a.problems
            .push("schedstat reads zero for the program's threads".into());
    }
    if w1.threads.count(procfs::is_worker) != N {
        a.problems
            .push("could not find every abcast-tcp-p* worker thread by name".into());
    }

    let cycles = &g.cycles;
    let cyc =
        |f: &dyn Fn(&Cycle) -> Option<f64>| -> Vec<f64> { cycles.iter().filter_map(f).collect() };
    let catchup = cyc(&|c| Some((c.caught_up_us - c.recover_us) / 1e3));
    let stall = cyc(&|c| Some(stall_of(c, &times)));
    if cycles.is_empty() {
        a.problems.push("no crash cycle completed".into());
    }

    let throughput = delivered_everywhere as f64 / ((last_delivery - first_due) / 1e6);
    let cap = &g.capacity;
    let capacity = cap.msgs as f64 / ((cap.end_us - cap.start_us) / 1e6);
    a.end_to_end = vec![
        ms("latency_p90_ms", p90, "ms", n_lat),
        m(
            "cpu_us_per_msg",
            per_msg(all_cpu.run_ns as f64 / 1e3, msgs),
            "us",
        ),
        m("peak_rss_mb", w1.peak_rss_kb as f64 / 1024.0, "MB"),
        ms(
            "catchup_ms",
            trimmed_mean(&catchup).unwrap_or(f64::NAN),
            "ms",
            catchup.len(),
        ),
        ms(
            "stall_ms",
            trimmed_mean(&stall).unwrap_or(f64::NAN),
            "ms",
            stall.len(),
        ),
        ms(
            "setup_s",
            minimum(&r.setup_s).unwrap_or(f64::NAN),
            "s",
            r.setup_s.len(),
        ),
    ];
    // Printed with the end-to-end metrics but not gated: their
    // run-to-run spread on a shared host exceeds any bound the benchmark
    // may set (capacity, p50), they restate the open loop's fixed rate
    // (throughput), or they are zero in a healthy run (failed_ratio).
    // Tail percentiles appear only with ten samples beyond them.
    a.ungated = vec![
        ms("capacity_msgs_s", capacity, "msgs/s", cap.msgs as usize),
        m("throughput_msgs_s", throughput, "msgs/s"),
        ms("latency_p50_ms", p50, "ms", n_lat),
        m(
            "failed_ratio",
            a.failed as f64 / a.attempted.max(1) as f64,
            "fraction",
        ),
    ];
    for (q, name) in [(0.99, "latency_p99_ms"), (0.999, "latency_p999_ms")] {
        match percentile(&lat, q, MIN_BEYOND) {
            Some(v) => a.ungated.push(ms(name, v, "ms", n_lat)),
            None => a.notes.push(format!(
                "{name} not reported: {n_lat} samples leave fewer than 10 beyond it"
            )),
        }
    }
    a.notes.push(format!(
        "generator lateness p50 {:.3} ms, p99 {:.3} ms (n={}); generator CPU {:.1} us/msg",
        quantile(&lateness, 0.5),
        quantile(&lateness, 0.99),
        lateness.len(),
        per_msg(gen_cpu.run_ns as f64 / 1e3, msgs)
    ));
    let widths: Vec<String> = r
        .maps
        .iter()
        .map(|c| format!("{:.0}", c.width_us()))
        .collect();
    let drifts: Vec<String> = r
        .maps
        .iter()
        .zip(&r.maps_end)
        .map(|(a, b)| format!("{:.0}", a.drift_us(b)))
        .collect();
    a.notes.push(format!(
        "clock map bracket width {} us, drift over the run {} us (p0..p{})",
        widths.join("/"),
        drifts.join("/"),
        N - 1
    ));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    a.notes.push(format!(
        "{cpus} CPUs; hypervisor steal during the window {:.1}% of machine CPU",
        (w1.steal_ticks - w0.steal_ticks) as f64 / (window_s * 100.0 * cpus) * 100.0
    ));
    let setups: Vec<String> = r
        .setup_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    a.notes
        .push(format!("set-up times {} ms", setups.join(" ")));
    let catchups: Vec<String> = catchup.iter().map(|c| format!("{c:.1}")).collect();
    let stalls: Vec<String> = stall.iter().map(|c| format!("{c:.1}")).collect();
    a.notes.push(format!(
        "catch-up per cycle {} ms; stall per cycle {} ms",
        catchups.join(" "),
        stalls.join(" ")
    ));
    a.notes.push(format!(
        "capacity phase: {} messages delivered everywhere in {:.3} s; per second {}",
        cap.msgs,
        (cap.end_us - cap.start_us) / 1e6,
        cap.slices
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    a.notes.push(format!(
        "window {window_s:.2} s, {} measured messages, {} crash cycles, WAL on {}",
        measured.len(),
        cycles.len(),
        r.wal_fs
    ));

    // --- per-layer metrics ---
    let sum_layer = |layer: Layer| -> f64 {
        (0..N)
            .map(|p| (w1.layers[p][layer as usize] - w0.layers[p][layer as usize]) as f64)
            .sum()
    };
    let sum_frames = |k: usize| -> f64 {
        (0..N)
            .map(|p| (w1.frames[p][k] - w0.frames[p][k]) as f64)
            .sum()
    };
    let storage = w1.storage.since(&w0.storage);
    let tcp = w1.tcp.since(&w0.tcp);
    // Rounds at a process that is never crashed.
    let rounds = (w1.rounds[1] - w0.rounds[1]) as f64;
    let commits = sorted(
        (0..N)
            .flat_map(|p| r.commit_us[p][w0.commit_samples[p]..w1.commit_samples[p]].iter())
            .map(|&us| us as f64)
            .collect(),
    );
    let unordered = sorted(
        (0..N)
            .flat_map(|p| {
                r.unordered_len[p][w0.unordered_samples[p]..w1.unordered_samples[p]].iter()
            })
            .map(|&n| n as f64)
            .collect(),
    );
    let cpu_per_msg = |g: GroupCpu| per_msg(g.run_ns as f64 / 1e3, msgs);
    let wait_per_msg = |g: GroupCpu| per_msg(g.wait_ns as f64 / 1e3, msgs);
    let (to_accept, accept_to_deliver) = stages(r, &measured, &tag_to_id, &times);
    let leader_change = cyc(&|c| {
        c.takeover_us
            .filter(|&t| t > c.crash_us)
            .map(|t| (t - c.crash_us) / 1e3)
    });
    if r.traced && leader_change.is_empty() {
        a.problems
            .push("no survivor coordinated a ballot after any crash".into());
    }
    let agreed_explicit = r
        .final_agreed
        .iter()
        .map(|q| q.explicit_len())
        .max()
        .unwrap_or(0);
    let us = |layer| per_msg(sum_layer(layer) / 1e3, msgs);
    a.per_layer = vec![
        ms(
            "storage.commit_us_p50",
            quantile(&commits, 0.5),
            "us",
            commits.len(),
        ),
        ms(
            "storage.commit_us_p99",
            quantile(&commits, 0.99),
            "us",
            commits.len(),
        ),
        m(
            "storage.fsyncs_per_msg",
            per_msg(storage.sync_ops as f64, msgs),
            "fsyncs/msg",
        ),
        m(
            "storage.commits_per_msg",
            per_msg(storage.batch_commits as f64, msgs),
            "commits/msg",
        ),
        m(
            "storage.bytes_per_msg",
            per_msg(storage.bytes_written as f64, msgs),
            "B/msg",
        ),
        m(
            "storage.compactor_cpu_us_per_msg",
            cpu_per_msg(compactor),
            "us/msg",
        ),
        m(
            "storage.compactor_wait_us_per_msg",
            wait_per_msg(compactor),
            "us/msg",
        ),
        m(
            "storage.disk_write_kb_per_msg",
            per_msg(
                (w1.io_write_bytes - w0.io_write_bytes) as f64 / 1024.0,
                msgs,
            ),
            "KiB/msg",
        ),
        ms(
            "storage.recovery_lookup_ms",
            trimmed_mean(&cyc(&|c| Some(c.recovery_lookup_ns as f64 / 1e6))).unwrap_or(0.0),
            "ms",
            cycles.len(),
        ),
        m("net.poller_cpu_us_per_msg", cpu_per_msg(poller), "us/msg"),
        m("net.poller_wait_us_per_msg", wait_per_msg(poller), "us/msg"),
        m(
            "net.frames_per_msg",
            per_msg(tcp.frames_sent as f64, msgs),
            "frames/msg",
        ),
        m(
            "net.bytes_per_msg",
            per_msg(tcp.bytes_sent as f64, msgs),
            "B/msg",
        ),
        m("net.frames_dropped", tcp.frames_dropped as f64, "count"),
        m("worker.cpu_us_per_msg", cpu_per_msg(workers), "us/msg"),
        m("worker.wait_us_per_msg", wait_per_msg(workers), "us/msg"),
        m("codec.decode_us_per_msg", us(Layer::Decode), "us/msg"),
        m("codec.send_us_per_msg", us(Layer::Send), "us/msg"),
        m("core.gossip_us_per_msg", us(Layer::Gossip), "us/msg"),
        m("core.timer_us_per_msg", us(Layer::CoreTimer), "us/msg"),
        m("core.broadcast_us_per_msg", us(Layer::Broadcast), "us/msg"),
        m(
            "core.gossip_bytes_per_msg",
            per_msg(sum_frames(1), msgs),
            "B/msg",
        ),
        m("core.msgs_per_round", msgs / rounds.max(1.0), "msgs/round"),
        m("core.agreed_explicit_len", agreed_explicit as f64, "count"),
        ms(
            "core.unordered_len_p99",
            quantile(&unordered, 0.99),
            "count",
            unordered.len(),
        ),
        ms(
            "core.recovery_us",
            trimmed_mean(&cyc(&|c| Some(c.recovery_work_ns as f64 / 1e3))).unwrap_or(0.0),
            "us",
            cycles.len(),
        ),
        m(
            "core.replayed_rounds",
            trimmed_mean(&cyc(&|c| Some(c.replayed_rounds as f64))).unwrap_or(0.0),
            "count",
        ),
        m(
            "core.state_transfers_applied",
            trimmed_mean(&cyc(&|c| Some(c.state_transfers_applied as f64))).unwrap_or(0.0),
            "count",
        ),
        m("consensus.us_per_msg", us(Layer::Consensus), "us/msg"),
        m(
            "consensus.frames_per_round",
            sum_frames(2) / rounds.max(1.0),
            "frames/round",
        ),
        m(
            "consensus.nacks_per_round",
            sum_frames(3) / rounds.max(1.0),
            "nacks/round",
        ),
        ms(
            "consensus.leader_change_ms",
            trimmed_mean(&leader_change).unwrap_or(0.0),
            "ms",
            leader_change.len(),
        ),
        m("fd.us_per_s", sum_layer(Layer::Fd) / 1e3 / window_s, "us/s"),
        m("fd.frames_per_s", sum_frames(4) / window_s, "frames/s"),
        ms(
            "stage.submit_to_accept_ms_p50",
            quantile(&to_accept, 0.5),
            "ms",
            to_accept.len(),
        ),
        ms(
            "stage.submit_to_accept_ms_p99",
            quantile(&to_accept, 0.99),
            "ms",
            to_accept.len(),
        ),
        ms(
            "stage.accept_to_deliver_ms_p50",
            quantile(&accept_to_deliver, 0.5),
            "ms",
            accept_to_deliver.len(),
        ),
        ms(
            "stage.accept_to_deliver_ms_p99",
            quantile(&accept_to_deliver, 0.99),
            "ms",
            accept_to_deliver.len(),
        ),
    ];

    if r.traced {
        // Layer accounting, CPU against CPU: the thread CPU clock, read at
        // the wrappers' boundaries, splits each worker's time into decode
        // plus the typed handlers (whose self times, storage and send calls
        // make up the layers), the bench bookkeeping after them, and the
        // runtime loop between callbacks.  Their sum must match the worker
        // threads' schedstat run time.  Wall-clock layer times would also
        // count fsync and run-queue waits, which are off the CPU.
        let delta = |f: fn(&crate::generator::Snapshot) -> &Vec<u64>| -> f64 {
            (0..N).map(|p| (f(w1)[p] - f(w0)[p]) as f64).sum()
        };
        let handled = delta(|s| &s.handler_cpu);
        let bench = delta(|s| &s.bench_cpu);
        let runtime = delta(|s| &s.loop_cpu);
        let worker_cpu = workers.run_ns as f64;
        let coverage = (handled + bench + runtime) / worker_cpu;
        a.per_layer.push(m(
            "worker.loop_us_per_msg",
            per_msg(runtime / 1e3, msgs),
            "us/msg",
        ));
        a.per_layer
            .push(m("trace.layer_coverage", coverage, "ratio"));
        let wall: f64 = LAYERS.iter().map(|&l| sum_layer(l)).sum();
        a.notes.push(format!(
            "layer accounting: worker CPU {:.1} ms = handlers {:.1} ms ({:.0}%) + runtime loop {:.1} ms + bench bookkeeping {:.1} ms: coverage {coverage:.3}, allowed 1 ± {ACCOUNTING_BOUND}; handler wall time {:.1} ms, storage {:.1} ms of it",
            worker_cpu / 1e6,
            handled / 1e6,
            handled / worker_cpu * 100.0,
            runtime / 1e6,
            bench / 1e6,
            wall / 1e6,
            sum_layer(Layer::Storage) / 1e6
        ));
        if (coverage - 1.0).abs() > ACCOUNTING_BOUND {
            a.problems.push(format!(
                "the layers' thread CPU is {coverage:.3} of the worker threads' schedstat CPU, outside 1 ± {ACCOUNTING_BOUND}"
            ));
        }
    }
}

/// Longest gap between deliveries at any survivor from the crash until
/// the recovered process caught up, in ms.
fn stall_of(c: &Cycle, times: &[HashMap<MsgId, f64>]) -> f64 {
    let leader = ProcessId::new(0).index();
    let mut worst: f64 = 0.0;
    for (p, t) in times.iter().enumerate() {
        if p == leader {
            continue;
        }
        let all = sorted(t.values().copied().collect());
        let before = all
            .iter()
            .rev()
            .find(|&&x| x <= c.crash_us)
            .copied()
            .unwrap_or(c.crash_us);
        worst = worst.max(max_gap(&all, before, c.caught_up_us));
    }
    worst / 1e3
}

/// Per measured message: due → first `AcceptRequest` carrying it, and
/// that → delivery at the sender, in ms.
fn stages(
    r: &RunData,
    measured: &[&crate::generator::Submission],
    tag_to_id: &HashMap<u64, MsgId>,
    times: &[HashMap<MsgId, f64>],
) -> (Vec<f64>, Vec<f64>) {
    let mut to_accept = Vec::new();
    let mut to_deliver = Vec::new();
    for s in measured {
        let Some(id) = tag_to_id.get(&s.tag) else {
            continue;
        };
        let Some(&accept_ns) = r.accept_ns.get(id) else {
            continue;
        };
        let accept_us = accept_ns as f64 / 1e3;
        to_accept.push((accept_us - s.due_us) / 1e3);
        if let Some(t) = times[s.to.index()].get(id) {
            to_deliver.push((t - accept_us) / 1e3);
        }
    }
    (sorted(to_accept), sorted(to_deliver))
}
