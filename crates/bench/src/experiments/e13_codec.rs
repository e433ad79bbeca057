//! E13 — Zero-copy payload path: payload copies per delivered message,
//! eager-copy baseline vs `Bytes`-backed codec, plus an E12 throughput
//! re-measure.
//!
//! PR 2 amortized the durability barriers and PR 3 overlapped the rounds;
//! the next hot cost is memory traffic: the pre-refactor code copied every
//! payload at each layer boundary — gossip set → wire frame → consensus
//! proposal → WAL record → agreed queue → delta checkpoint — as owned
//! `Vec<u8>`s.  The refactor threads refcounted `Bytes` views end to end:
//! frames decode as slices of the received buffer, storage loads hand out
//! slices of the read buffer, and WAL record groups go to the `writev`
//! syscall without flattening.
//!
//! This experiment proves the refactor on both axes:
//!
//! * **equivalent** — the same seeded workload runs in
//!   [`CopyMode::Eager`] (every boundary copies, the pre-refactor
//!   ownership discipline, kept behind the mode switch) and in
//!   [`CopyMode::ZeroCopy`]; delivery order and the persisted
//!   `(k, Agreed)` delta records must be byte-for-byte identical;
//! * **cheaper** — the thread-local [`copymeter`] counts every payload
//!   memcpy in each mode; the acceptance criterion is ≥ 2× fewer copies
//!   per delivered message on the zero-copy path;
//! * **no throughput regression** — the E12 pipeline sweep re-runs over the
//!   framed wire and its `W = 4` delivered msgs/s must be no worse than
//!   the committed `BENCH_pipeline.json` baseline.
//!
//! The `exp_codec` binary emits `BENCH_codec.json` so the repository
//! carries the copy-cost baseline.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use abcast_core::{Cluster, ClusterConfig};
use abcast_net::LinkConfig;
use abcast_storage::{keys, StorageRegistry};
use abcast_types::copymeter::{self, CopyMode};
use abcast_types::{BatchingPolicy, MsgId, ProtocolConfig, SimDuration};

use crate::experiments::e12_pipeline::{self, PipelineRow};
use crate::report::{fmt_f64, Table};
use crate::workload::drive_load;

/// Processes in every measured cluster.
const PROCESSES: usize = 3;
/// Messages proposed to one consensus instance.
const MAX_BATCH: usize = 4;
/// Pipeline depth of the copy-accounting runs (the E12 sweet spot).
const PIPELINE_DEPTH: u64 = 4;
/// Payload size of the copy-accounting workload.
const PAYLOAD_BYTES: usize = 32;
/// Group-commit window of the WAL backend used by the runs.
const WAL_GROUP_WINDOW: usize = 8;

/// One measured copy-ownership mode.
#[derive(Clone, Debug)]
pub struct CopyRow {
    /// Ownership discipline label (`eager-copy` or `zero-copy`).
    pub mode: &'static str,
    /// Messages delivered at every process.
    pub messages: usize,
    /// Payload memcpys across the whole run (all processes).
    pub payload_copies: u64,
    /// Bytes those memcpys moved.
    pub bytes_copied: u64,
    /// The headline metric: payload copies per delivered message
    /// (denominator: `messages × processes`, each message is delivered
    /// everywhere).
    pub copies_per_delivered_msg: f64,
    /// Delivered messages per virtual second, for reference.
    pub throughput_msgs_per_sec: f64,
}

/// Everything one mode's run produced: the measured row plus the outputs
/// the equivalence check compares across modes.
pub struct ModeRun {
    /// The measured counters.
    pub row: CopyRow,
    /// Delivery order at each process.
    pub orders: Vec<Vec<MsgId>>,
    /// Persisted `(k, Agreed)` delta records of each process, raw bytes.
    pub delta_records: Vec<Vec<Vec<u8>>>,
}

fn latency_link() -> LinkConfig {
    LinkConfig::lan().with_delay(SimDuration::from_millis(2), SimDuration::from_millis(5))
}

fn temp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "abcast-e13-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Runs the copy-accounting workload under one ownership mode.
///
/// The cluster speaks byte frames over a latency-dominated link, orders
/// through pipelined consensus (`W = 4`), and persists into a WAL-backed
/// registry — so the count covers all five layers the refactor touches.
pub fn run_mode(quick: bool, mode: CopyMode) -> ModeRun {
    let messages = if quick { 24 } else { 96 };
    let label = match mode {
        CopyMode::Eager => "eager-copy",
        CopyMode::ZeroCopy => "zero-copy",
    };
    let base = temp_base(label);
    let _ = fs::remove_dir_all(&base);
    let registry = StorageRegistry::wal_in(&base, PROCESSES, WAL_GROUP_WINDOW)
        .expect("wal registry opens");

    copymeter::set_mode(mode);
    let config = ClusterConfig::basic(PROCESSES)
        .with_seed(1301)
        .with_link(latency_link())
        .with_protocol(
            ProtocolConfig::alternative()
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: MAX_BATCH })
                .with_pipeline_depth(PIPELINE_DEPTH),
        );
    let mut cluster = Cluster::with_registry(config, registry.clone());
    let before = copymeter::snapshot();
    let result = drive_load(
        &mut cluster,
        messages,
        PAYLOAD_BYTES,
        SimDuration::from_micros(500),
        SimDuration::from_secs(60),
    );
    let copies = copymeter::snapshot().since(&before);
    copymeter::set_mode(CopyMode::ZeroCopy);
    assert!(result.all_delivered, "E13 load must complete ({label})");
    assert_eq!(cluster.decode_failures(), 0, "no frame may fail to decode");

    let orders: Vec<Vec<MsgId>> = cluster
        .processes()
        .iter()
        .map(|p| {
            cluster
                .delivered(p)
                .iter()
                .map(|m| m.id())
                .collect()
        })
        .collect();
    let delta_records: Vec<Vec<Vec<u8>>> = cluster
        .processes()
        .iter()
        .map(|p| {
            registry
                .storage_for(p)
                .expect("registry covers every process")
                .load_log(&keys::agreed_delta())
                .expect("delta log readable")
                .iter()
                .map(|record| record.to_vec())
                .collect()
        })
        .collect();
    drop(cluster);
    let _ = fs::remove_dir_all(&base);

    ModeRun {
        row: CopyRow {
            mode: label,
            messages,
            payload_copies: copies.payload_copies,
            bytes_copied: copies.bytes_copied,
            copies_per_delivered_msg: copies.payload_copies as f64
                / (messages as f64 * PROCESSES as f64),
            throughput_msgs_per_sec: result.throughput_msgs_per_sec,
        },
        orders,
        delta_records,
    }
}

/// Runs both modes, asserts their runs are byte-for-byte equivalent, and
/// returns the copy rows (eager first) plus the re-measured E12 sweep.
pub fn run_rows(quick: bool) -> (Vec<CopyRow>, Vec<PipelineRow>) {
    let eager = run_mode(quick, CopyMode::Eager);
    let zero = run_mode(quick, CopyMode::ZeroCopy);
    assert_eq!(
        eager.orders, zero.orders,
        "eager and zero-copy runs must deliver the identical sequence"
    );
    assert_eq!(
        eager.delta_records, zero.delta_records,
        "persisted delta records must be byte-for-byte identical across modes"
    );
    let pipeline = e12_pipeline::run_rows(quick);
    (vec![eager.row, zero.row], pipeline)
}

/// `copies-per-message(eager) / copies-per-message(zero-copy)`.
pub fn copy_reduction_factor(rows: &[CopyRow]) -> Option<f64> {
    let per_msg = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode)
            .map(|r| r.copies_per_delivered_msg)
    };
    match (per_msg("eager-copy"), per_msg("zero-copy")) {
        (Some(eager), Some(zero)) if zero > 0.0 => Some(eager / zero),
        _ => None,
    }
}

/// Runs the experiment and renders its table.
pub fn run(quick: bool) -> Table {
    let (copy_rows, pipeline_rows) = run_rows(quick);
    table_from_rows(&copy_rows, &pipeline_rows)
}

/// Renders measured rows as the E13 report table.
pub fn table_from_rows(copy_rows: &[CopyRow], pipeline_rows: &[PipelineRow]) -> Table {
    let mut table = Table::new(
        "E13",
        "zero-copy payload path: payload memcpys per delivered message",
        &[
            "mode",
            "messages",
            "payload copies",
            "bytes copied",
            "copies / delivered msg",
            "delivered msgs/s",
        ],
    );
    for row in copy_rows {
        table.push_row(vec![
            row.mode.to_string(),
            row.messages.to_string(),
            row.payload_copies.to_string(),
            row.bytes_copied.to_string(),
            fmt_f64(row.copies_per_delivered_msg),
            fmt_f64(row.throughput_msgs_per_sec),
        ]);
    }
    if let Some(factor) = copy_reduction_factor(copy_rows) {
        table.note(format!(
            "zero-copy performs {factor:.1}x fewer payload memcpys per delivered message \
             than the eager (pre-refactor) ownership discipline"
        ));
    }
    if let Some(w4) = pipeline_rows
        .iter()
        .find(|r| r.variant == "alternative" && r.depth == 4)
    {
        table.note(format!(
            "E12 re-measured over the framed wire: W = 4 delivers {} msgs/s \
             (baseline BENCH_pipeline.json: 1521.0 at W = 4, full mode)",
            fmt_f64(w4.throughput_msgs_per_sec)
        ));
    }
    table.note(
        "both modes run the identical seeded workload; delivery order and the persisted \
         (k, Agreed) delta records are asserted byte-for-byte equal before reporting",
    );
    table
}

/// Serializes the measurements as the `BENCH_codec.json` baseline.
pub fn to_json(copy_rows: &[CopyRow], pipeline_rows: &[PipelineRow], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"E13\",");
    let _ = writeln!(
        out,
        "  \"title\": \"payload copies per delivered message, eager vs zero-copy, plus the E12 re-measure\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"processes\": {PROCESSES},");
    let _ = writeln!(out, "  \"max_batch\": {MAX_BATCH},");
    let _ = writeln!(out, "  \"pipeline_depth\": {PIPELINE_DEPTH},");
    let _ = writeln!(out, "  \"payload_bytes\": {PAYLOAD_BYTES},");
    let _ = writeln!(
        out,
        "  \"copy_reduction_factor\": {},",
        fmt_f64(copy_reduction_factor(copy_rows).unwrap_or(0.0))
    );
    out.push_str("  \"copy_rows\": [\n");
    for (i, row) in copy_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"mode\": \"{}\", \"messages\": {}, \"payload_copies\": {}, \
             \"bytes_copied\": {}, \"copies_per_delivered_msg\": {}, \
             \"throughput_msgs_per_sec\": {}}}",
            row.mode,
            row.messages,
            row.payload_copies,
            row.bytes_copied,
            fmt_f64(row.copies_per_delivered_msg),
            fmt_f64(row.throughput_msgs_per_sec),
        );
        out.push_str(if i + 1 < copy_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"pipeline_rows\": [\n");
    for (i, row) in pipeline_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"variant\": \"{}\", \"pipeline_depth\": {}, \"messages\": {}, \
             \"throughput_msgs_per_sec\": {}, \"mean_latency_ms\": {}, \
             \"syncs_per_msg_per_proc\": {}}}",
            row.variant,
            row.depth,
            row.messages,
            fmt_f64(row.throughput_msgs_per_sec),
            fmt_f64(row.mean_latency_ms),
            fmt_f64(row.syncs_per_msg_per_proc),
        );
        out.push_str(if i + 1 < pipeline_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_copy_halves_payload_copies_and_preserves_the_run_bit_for_bit() {
        // `run_rows` already asserts the cross-mode equivalence (delivery
        // order and delta records byte-for-byte); here we additionally pin
        // the acceptance criterion on the copy counts.
        let (copy_rows, pipeline_rows) = run_rows(true);
        assert_eq!(copy_rows.len(), 2);
        let factor = copy_reduction_factor(&copy_rows).expect("both modes measured");
        assert!(
            factor >= 2.0,
            "acceptance criterion: the zero-copy path must perform ≥2x fewer payload \
             copies per delivered message (measured {factor:.2}x, rows: {copy_rows:?})"
        );
        // The E12 re-measure still shows the pipeline speedup — delivered
        // msgs/s at W = 4 has not regressed behind the refactor.
        let speedup = e12_pipeline::speedup(&pipeline_rows, "alternative", 4)
            .expect("pipeline sweep re-measured");
        assert!(
            speedup >= 1.5,
            "W = 4 throughput must stay ≥1.5x over W = 1 (measured {speedup:.2}x)"
        );
        let table = table_from_rows(&copy_rows, &pipeline_rows);
        assert_eq!(table.len(), 2);
        let json = to_json(&copy_rows, &pipeline_rows, true);
        assert!(json.contains("\"experiment\": \"E13\""));
        assert_eq!(json.matches("\"mode\"").count(), 2);
        assert!(json.matches("\"pipeline_depth\":").count() >= 4);
    }
}
