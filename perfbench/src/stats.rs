//! Order statistics and op accounting over recorded histories.

use contrarian_types::{ClientId, HistoryEvent};
use std::collections::BTreeMap;

/// Percentiles the tail report may choose from, highest first.
const TAIL_LADDER: &[f64] = &[99.999, 99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// The 1-based nearest rank of the `p`-th percentile of `n` samples:
/// ⌈p/100 · n⌉, with the product's rounding error (99.9 % of 10 000 is
/// 9990.000000000002 in floating point) kept out of the ceiling.
fn rank(n: u64, p: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    ((p / 100.0 * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as u64
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len() as u64, p) as usize - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: u64, p: f64) -> u64 {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency distribution measured in several independent slices: the
/// reported p50/p99 are the medians of the per-slice values, which keeps
/// one noisy slice from moving a run's figure.
#[derive(Clone, Debug, Default)]
pub struct SlicedLatency {
    /// Per-slice (p50, p90, p99), in ns, for slices with at least one
    /// sample.
    pub per_slice: Vec<[u64; 3]>,
    /// Smallest per-slice sample count.
    pub min_slice_n: u64,
    /// Every sample of every slice, ascending (ns).
    pub all: Vec<u64>,
}

impl SlicedLatency {
    pub fn from_slices(slices: Vec<Vec<u64>>) -> Self {
        let mut all = Vec::new();
        let mut per_slice = Vec::new();
        let mut min_slice_n = u64::MAX;
        for mut b in slices {
            min_slice_n = min_slice_n.min(b.len() as u64);
            if b.is_empty() {
                continue;
            }
            b.sort_unstable();
            per_slice.push([50.0, 90.0, 99.0].map(|p| percentile(&b, p)));
            all.extend(b);
        }
        all.sort_unstable();
        SlicedLatency {
            per_slice,
            min_slice_n,
            all,
        }
    }

    pub fn n(&self) -> u64 {
        self.all.len() as u64
    }

    /// Median over slices of the per-slice p50, in µs.
    pub fn p50_us(&self) -> f64 {
        self.median_us(0)
    }

    /// Median over slices of the per-slice p90, in µs.
    pub fn p90_us(&self) -> f64 {
        self.median_us(1)
    }

    /// Median over slices of the per-slice p99, in µs.
    pub fn p99_us(&self) -> f64 {
        self.median_us(2)
    }

    fn median_us(&self, i: usize) -> f64 {
        let v: Vec<f64> = self.per_slice.iter().map(|s| s[i] as f64 / 1e3).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Whether every slice's p99 had enough samples beyond it.
    pub fn p99_supported(&self) -> bool {
        !self.per_slice.is_empty() && beyond(self.min_slice_n, 99.0) >= MIN_BEYOND
    }

    /// The whole window's highest supported percentile: `(p, value µs,
    /// samples beyond)`.
    pub fn tail(&self) -> Option<(f64, f64, u64)> {
        let n = self.n();
        let p = tail_percentile(n)?;
        Some((p, percentile(&self.all, p) as f64 / 1e3, beyond(n, p)))
    }
}

/// Ops issued and ops lost, counted from a recorded history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    pub completed: u64,
    /// Holes in the per-client sequence numbers.
    pub gaps: u64,
    /// Clients that stopped completing ops.
    pub stalled: u64,
}

/// Counts lost ops from a history streamed through [`OpCounter::feed`].
///
/// Every client numbers its ROTs and its PUTs densely from 0, so an op
/// that was issued and never completed leaves a hole below the highest
/// recorded number of its kind. The one op a closed-loop client holds in
/// flight has no number above it; if it is lost the client completes
/// nothing more, so a client whose last completion precedes `stall_from`
/// counts one lost op. Memory is per client, not per event.
#[derive(Default)]
pub struct OpCounter {
    clients: BTreeMap<ClientId, Seen>,
}

#[derive(Default)]
struct Seen {
    rots: SeqRun,
    puts: SeqRun,
    last_end: u64,
}

/// How many numbers of one kind a client completed, and the highest.
#[derive(Default)]
struct SeqRun {
    n: u64,
    next: u64,
}

impl SeqRun {
    fn add(&mut self, seq: u32) {
        self.n += 1;
        self.next = self.next.max(seq as u64 + 1);
    }

    /// Numbers below the highest that never completed (a duplicate
    /// completion counts as a fault too).
    fn holes(&self) -> u64 {
        self.next.abs_diff(self.n)
    }
}

impl OpCounter {
    pub fn feed(&mut self, events: &[HistoryEvent]) {
        for ev in events {
            let s = self.clients.entry(ev.client()).or_default();
            s.last_end = s.last_end.max(ev.t_end());
            match ev {
                HistoryEvent::RotDone { tx, .. } => s.rots.add(tx.seq),
                HistoryEvent::PutDone { seq, .. } => s.puts.add(*seq),
            }
        }
    }

    pub fn finish(&self, stall_from: u64) -> OpCount {
        let mut out = OpCount::default();
        for s in self.clients.values() {
            out.completed += s.rots.n + s.puts.n;
            out.gaps += s.rots.holes() + s.puts.holes();
            if s.last_end < stall_from {
                out.stalled += 1;
            }
        }
        out
    }
}

impl OpCount {
    pub fn failed(&self) -> u64 {
        self.gaps + self.stalled
    }

    pub fn attempted(&self) -> u64 {
        self.completed + self.failed()
    }

    /// Lost ops over issued ops.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted() as f64
        }
    }

    pub fn absorb(&mut self, other: OpCount) {
        self.completed += other.completed;
        self.gaps += other.gaps;
        self.stalled += other.stalled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{DcId, Key, TxId, VersionId};

    fn count(history: &[HistoryEvent], stall_from: u64) -> OpCount {
        let mut c = OpCounter::default();
        c.feed(history);
        c.finish(stall_from)
    }

    fn rot(client: u16, seq: u32, t_end: u64) -> HistoryEvent {
        HistoryEvent::RotDone {
            client: ClientId::new(DcId(0), client),
            tx: TxId::new(ClientId::new(DcId(0), client), seq),
            t_start: t_end - 1,
            t_end,
            pairs: Vec::new(),
            values: Vec::new(),
        }
    }

    fn put(client: u16, seq: u32, t_end: u64) -> HistoryEvent {
        HistoryEvent::PutDone {
            client: ClientId::new(DcId(0), client),
            seq,
            t_start: t_end - 1,
            t_end,
            key: Key(1),
            vid: VersionId::new(t_end, DcId(0)),
        }
    }

    #[test]
    fn dense_sequences_count_no_failures() {
        let h = vec![rot(0, 0, 10), put(0, 0, 20), rot(0, 1, 30), rot(1, 0, 35)];
        let c = count(&h, 5);
        assert_eq!(
            c,
            OpCount {
                completed: 4,
                gaps: 0,
                stalled: 0
            }
        );
        assert_eq!(c.failed_frac(), 0.0);
    }

    #[test]
    fn holes_in_either_sequence_count_as_lost_ops() {
        // ROT 1 and PUTs 1..=2 of client 0 never completed.
        let h = vec![rot(0, 0, 10), rot(0, 2, 30), put(0, 0, 12), put(0, 3, 40)];
        let c = count(&h, 0);
        assert_eq!(c.gaps, 3);
        assert_eq!(c.attempted(), 7);
        assert!((c.failed_frac() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn a_client_that_stops_completing_lost_its_in_flight_op() {
        let h = vec![rot(0, 0, 10), rot(0, 1, 100), rot(1, 0, 10)];
        let c = count(&h, 50);
        assert_eq!((c.gaps, c.stalled), (0, 1));
        assert_eq!(c.failed(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn sliced_latency_reports_the_median_slice() {
        // Three slices; the middle one is slow.
        let slices = vec![vec![100; 1000], vec![900; 1000], vec![200; 1000]];
        let s = SlicedLatency::from_slices(slices);
        assert_eq!(s.per_slice, vec![[100; 3], [900; 3], [200; 3]]);
        assert_eq!((s.p50_us(), s.p90_us(), s.p99_us()), (0.2, 0.2, 0.2));
        assert_eq!(s.n(), 3000);
        assert!(s.p99_supported());
        let (p, _, n_beyond) = s.tail().unwrap();
        assert_eq!((p, n_beyond), (99.0, 30));
        assert!(!SlicedLatency::from_slices(vec![vec![1; 999]]).p99_supported());
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
