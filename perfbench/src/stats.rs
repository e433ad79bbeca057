//! Pure helpers: percentiles with the sample-count rule, the set-up
//! minimum, the schedstat parser, the worker-clock mapping, the
//! delivery-gap scan, the cycle summary and the delivery-order check.
//! Everything here is deterministic and unit-tested; the rest of the
//! benchmark only feeds it measurements.

/// Samples that must lie strictly beyond a gated percentile before it is
/// reported: a p99.9 needs at least 10 000 samples.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by nearest rank, or `None`
/// when it is empty or fewer than `min_beyond` samples lie beyond the
/// quantile.  Gated latencies pass [`MIN_BEYOND`]; per-layer
/// distributions, which carry no bound, pass 0.
pub fn percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let beyond = ((n as f64) * (1.0 - q)).floor() as usize;
    if beyond < min_beyond {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The smallest of `values`, or `None` when empty.  Summarizes the
/// repeated set-ups: a start-up has a floor that only the program sets,
/// while other tenants of the host can only add to it.
pub fn minimum(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// The mean of `values` without the lowest and the highest (both kept
/// when fewer than three), or `None` when empty.  Summarizes crash cycles:
/// robust to one stuck cycle like a median, but it uses every other
/// cycle, which matters when cycles see growing history.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// One thread's `/proc/<pid>/task/<tid>/schedstat` line: nanoseconds on
/// CPU, nanoseconds runnable but waiting on a run queue, and timeslices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

impl SchedStat {
    /// `self − earlier`, saturating (a counter never runs backwards, but a
    /// thread id can be reused).
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

/// Parses a schedstat line (`"<run_ns> <wait_ns> <slices>"`).
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let run_ns = fields.next()?.ok()?;
    let wait_ns = fields.next()?.ok()?;
    let slices = fields.next()?.ok()?;
    Some(SchedStat {
        run_ns,
        wait_ns,
        slices,
    })
}

/// Maps one worker's clock (the `ctx.now()` stamps of its delivery log,
/// microseconds since that worker started) onto the generator's clock
/// (microseconds since the run epoch).
///
/// Built from an `invoke` bracket: the generator reads its clock
/// (`before`), has the worker read `ctx.now()` (`worker`), and reads its
/// clock again (`after`).  The worker's reading happened somewhere inside
/// the bracket, so mapping it onto the bracket's midpoint is off by at
/// most half the bracket width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockMap {
    offset_us: f64,
    width_us: f64,
}

impl ClockMap {
    pub fn from_bracket(before_us: f64, worker_us: f64, after_us: f64) -> ClockMap {
        ClockMap {
            offset_us: (before_us + after_us) / 2.0 - worker_us,
            width_us: after_us - before_us,
        }
    }

    /// The generator-clock time of worker time `worker_us`.
    pub fn map(&self, worker_us: f64) -> f64 {
        worker_us + self.offset_us
    }

    /// Bracket width: twice the worst-case mapping error.
    pub fn width_us(&self) -> f64 {
        self.width_us
    }

    /// How far another bracket of the same worker disagrees with this one
    /// (clock drift plus both brackets' error).
    pub fn drift_us(&self, later: &ClockMap) -> f64 {
        (later.offset_us - self.offset_us).abs()
    }
}

/// The longest gap between consecutive delivery times in `[from, to]`,
/// counting `from` itself as the last delivery seen before the window
/// (pass the last delivery before the window as `from` when known) and
/// `to` as the end of it.  `times` must be sorted.
pub fn max_gap(times: &[f64], from: f64, to: f64) -> f64 {
    let mut last = from;
    let mut gap: f64 = 0.0;
    for &t in times.iter().filter(|&&t| t > from && t <= to) {
        gap = gap.max(t - last);
        last = t;
    }
    gap.max(to - last)
}

/// `true` when every element of `seq` occurs in `reference` and in the
/// same relative order.  A recovered incarnation's delivery sequence must
/// pass: it restarts from a checkpoint or replay and skips whatever a
/// state transfer installed, but may never reorder.
pub fn in_reference_order<T: Eq + std::hash::Hash>(seq: &[T], reference: &[T]) -> bool {
    let position: std::collections::HashMap<&T, usize> =
        reference.iter().enumerate().map(|(i, x)| (x, i)).collect();
    let mut last = None;
    for x in seq {
        match position.get(x) {
            Some(&i) if last.is_none_or(|l| i > l) => last = Some(i),
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has 9 beyond it: not reported.
        assert_eq!(percentile(&ramp(999), 0.99, MIN_BEYOND), None);
        // p99 of 1000 samples has 10 beyond it: the 990th value.
        assert_eq!(percentile(&ramp(1000), 0.99, MIN_BEYOND), Some(990.0));
        assert_eq!(percentile(&ramp(9_999), 0.999, MIN_BEYOND), None);
        assert_eq!(percentile(&ramp(10_000), 0.999, MIN_BEYOND), Some(9_990.0));
        assert_eq!(percentile(&ramp(20), 0.5, MIN_BEYOND), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5, MIN_BEYOND), None);
        assert_eq!(percentile(&[], 0.5, MIN_BEYOND), None);
    }

    #[test]
    fn percentile_without_the_rule_takes_any_sample() {
        assert_eq!(percentile(&ramp(999), 0.99, 0), Some(990.0));
        assert_eq!(percentile(&ramp(3), 0.99, 0), Some(3.0));
        assert_eq!(percentile(&[7.0], 0.5, 0), Some(7.0));
        assert_eq!(percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn minimum_ignores_order() {
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(minimum(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 0.0]), Some(2.0));
        assert_eq!(trimmed_mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(trimmed_mean(&[]), None);
    }

    #[test]
    fn schedstat_line_parses_and_subtracts() {
        let s = parse_schedstat("123456 7890 42\n").unwrap();
        assert_eq!(
            s,
            SchedStat {
                run_ns: 123_456,
                wait_ns: 7_890,
                slices: 42
            }
        );
        let earlier = SchedStat {
            run_ns: 100_000,
            wait_ns: 8_000,
            slices: 40,
        };
        assert_eq!(
            s.since(&earlier),
            SchedStat {
                run_ns: 23_456,
                wait_ns: 0,
                slices: 2
            }
        );
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn clock_map_uses_the_bracket_midpoint() {
        // The generator saw 1000..1040 µs while the worker read 200 µs.
        let m = ClockMap::from_bracket(1_000.0, 200.0, 1_040.0);
        assert_eq!(m.map(200.0), 1_020.0);
        assert_eq!(m.map(250.0), 1_070.0);
        assert_eq!(m.width_us(), 40.0);
        let later = ClockMap::from_bracket(5_000.0, 4_180.0, 5_010.0);
        assert_eq!(m.drift_us(&later), 5.0);
    }

    #[test]
    fn max_gap_counts_the_window_edges() {
        let times = [1.0, 2.0, 10.0, 11.0, 30.0];
        // Window (2, 20]: gaps 2→10, 10→11, 11→20.
        assert_eq!(max_gap(&times, 2.0, 20.0), 9.0);
        // Nothing delivered inside: the whole window is one gap.
        assert_eq!(max_gap(&times, 12.0, 20.0), 8.0);
    }

    #[test]
    fn recovered_sequences_keep_the_reference_order() {
        let reference = [1, 2, 3, 4, 5];
        assert!(in_reference_order(&[2, 3, 4], &reference));
        assert!(in_reference_order(&[1, 2, 3, 4, 5], &reference));
        assert!(in_reference_order::<i32>(&[], &reference));
        // A gap (installed by a state transfer) is allowed ...
        assert!(in_reference_order(&[2, 4], &reference));
        // ... a reordering, a repeat or a stranger is not.
        assert!(!in_reference_order(&[4, 2], &reference));
        assert!(!in_reference_order(&[2, 2], &reference));
        assert!(!in_reference_order(&[4, 5, 6], &reference));
    }
}
