//! The TCP phase: one closed-loop client against a 1-DC × 4-partition
//! cluster on the epoll reactor over loopback.
//!
//! The cluster is built several times (each build timed) and the
//! last one is measured in one-second slices; the run reports medians over
//! slices. On a shared virtual machine the host's CPU steal moves
//! wall-clock latency far more than anything in the program does, so a
//! slice during which the host stole more than a set share of CPU time is
//! measured again, up to a cap; at the cap the least-disturbed slices are
//! used. Every op of the run, inside a used slice or not, is checked.

use crate::manifest;
use crate::stats::{median, OpCount, OpCounter, SlicedLatency};
use crate::trace::Tracer;
use contrarian_harness::CausalChecker;
use contrarian_net::{NetCluster, NetKind};
use contrarian_protocol::{build_net_cluster_on, ProtoNode, ProtocolSpec};
use contrarian_runtime::Metrics;
use contrarian_types::{ClusterConfig, HistoryEvent};
use contrarian_workload::WorkloadSpec;
use std::time::{Duration, Instant};

/// Closed-loop clients driving the cluster.
const CLIENTS: u16 = 1;
/// Run time before the first measured slice.
const WARMUP: Duration = Duration::from_millis(500);
/// Wait after issuing stops for the in-flight op to complete.
const DRAIN: Duration = Duration::from_millis(100);
/// Longest wait for the first completed op.
const FIRST_OP_TIMEOUT: Duration = Duration::from_secs(10);

/// How much to measure, and which slices to report.
pub struct Plan {
    /// Cluster builds timed; the last cluster built is measured.
    pub setups: usize,
    /// Slices the reported medians are taken over.
    pub slices: usize,
    /// Most slices to measure while looking for quiet ones.
    pub max_slices: usize,
    pub slice: Duration,
    /// A slice is quiet when the host stole at most this share of CPU
    /// time during it.
    pub quiet_steal: f64,
}

/// One measured slice.
pub struct Slice {
    /// Cluster-clock bounds, ns.
    pub from: u64,
    pub to: u64,
    /// Share of CPU time the host stole during the slice.
    pub steal: f64,
    pub ops: u64,
    /// Whether the reported medians include this slice.
    pub used: bool,
}

impl Slice {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / ((self.to - self.from) as f64 / 1e9)
    }
}

#[derive(Default)]
pub struct TcpOutcome {
    /// Build durations, seconds.
    pub setups: Vec<f64>,
    /// Every slice measured, in order.
    pub slices: Vec<Slice>,
    /// Latencies of the used slices, one slice each.
    pub rot: SlicedLatency,
    pub put: SlicedLatency,
    /// Ops completed inside all measured slices.
    pub window_ops: u64,
    /// Frames and bytes written to sockets inside the measured slices.
    pub frames: u64,
    pub bytes: u64,
    pub sockets: u64,
    /// The runtime's metrics, enabled over the measured slices.
    pub metrics: Metrics,
    pub count: OpCount,
    pub violations: Vec<String>,
}

impl TcpOutcome {
    /// Median over the used slices of their ops per second.
    pub fn ops_per_s(&self) -> f64 {
        let v: Vec<f64> = self.used().map(Slice::ops_per_s).collect();
        median(&v)
    }

    pub fn used(&self) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(|s| s.used)
    }
}

/// The TCP phase's cluster: the small test cluster tuned for wall-clock
/// runtimes.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::small().for_wall_clock()
}

fn build<P: ProtocolSpec>(wl: &WorkloadSpec, seed: u64) -> NetCluster<ProtoNode<P>> {
    build_net_cluster_on::<P>(&cluster_config(), wl, CLIENTS, seed, true, NetKind::Reactor)
}

pub fn run<P: ProtocolSpec>(
    wl: &WorkloadSpec,
    seed: u64,
    plan: &Plan,
    tracer: &mut Tracer,
) -> Result<TcpOutcome, String> {
    let mut out = TcpOutcome::default();
    let open = tracer.begin("tcp.setup");
    let mut cluster = None;
    for i in 0..plan.setups {
        let t0 = Instant::now();
        let c = build::<P>(wl, seed);
        out.setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < plan.setups {
            c.stop_issuing();
            drop(c.shutdown());
        } else {
            cluster = Some(c);
        }
    }
    let cluster = cluster.expect("at least one set-up");
    tracer.end(open);

    let open = tracer.begin("tcp.warmup");
    let mut cursor = 0;
    let served = cluster
        .handle()
        .wait_for_history(&mut cursor, FIRST_OP_TIMEOUT, |_| true);
    if served.is_none() {
        cluster.stop_issuing();
        drop(cluster.shutdown());
        return Err(format!(
            "the TCP cluster completed no op within {FIRST_OP_TIMEOUT:?}"
        ));
    }
    std::thread::sleep(WARMUP);
    tracer.end(open);

    let open = tracer.begin("tcp.measure");
    cluster.set_measuring(true);
    let mut check = Checked::default();
    let quiet = |slices: &[Slice]| {
        slices
            .iter()
            .filter(|s| s.steal <= plan.quiet_steal)
            .count()
    };
    while quiet(&out.slices) < plan.slices && out.slices.len() < plan.max_slices {
        let slice = tracer.begin("tcp.slice");
        let (frames0, bytes0) = cluster.wire_stats();
        let ticks0 = manifest::cpu_ticks();
        let from = cluster.now();
        std::thread::sleep(plan.slice);
        let to = cluster.now();
        let ticks1 = manifest::cpu_ticks();
        let (frames1, bytes1) = cluster.wire_stats();
        tracer.end(slice);
        out.frames += frames1 - frames0;
        out.bytes += bytes1 - bytes0;
        out.slices.push(Slice {
            from,
            to,
            steal: manifest::steal_share(ticks0, ticks1),
            ops: 0,
            used: false,
        });
        // Between slices, outside every measured window: the history
        // recorded so far goes to the checker, so memory stays flat
        // however many slices the run needs.
        let events = tracer.span("tcp.history.drain", || cluster.drain_history());
        check.feed(tracer, &events);
    }
    cluster.set_measuring(false);
    tracer.end(open);

    let open = tracer.begin("tcp.shutdown");
    cluster.stop_issuing();
    std::thread::sleep(DRAIN);
    out.sockets = cluster.io_stats().sockets;
    let mut events = tracer.span("tcp.history.drain", || cluster.drain_history());
    let (_, metrics, rest) = cluster.shutdown();
    events.extend(rest);
    tracer.end(open);
    check.feed(tracer, &events);

    let mut order: Vec<usize> = (0..out.slices.len()).collect();
    order.sort_by(|&a, &b| out.slices[a].steal.total_cmp(&out.slices[b].steal));
    for &i in order.iter().take(plan.slices) {
        out.slices[i].used = true;
    }
    let (rots, puts) = slice_latencies(&check.samples, &mut out.slices);
    out.rot = SlicedLatency::from_slices(rots);
    out.put = SlicedLatency::from_slices(puts);
    out.window_ops = out.slices.iter().map(|s| s.ops).sum();
    out.metrics = metrics;
    let last = out.slices.last().map_or(0, |s| s.to);
    let first = out.slices.first().map_or(0, |s| s.from);
    out.count = check.counter.finish(last - (last - first) / 4);
    out.violations = check.ck.report().violations;
    Ok(out)
}

/// The streamed check of the TCP history, and what the latency
/// statistics keep of each op.
#[derive(Default)]
struct Checked {
    ck: CausalChecker,
    counter: OpCounter,
    /// `(t_end, latency ns, is_rot)` of every op, in recording order.
    samples: Vec<(u64, u64, bool)>,
}

impl Checked {
    fn feed(&mut self, tracer: &mut Tracer, events: &[HistoryEvent]) {
        tracer.span("tcp.checker.feed", || {
            for ev in events {
                self.ck.feed(ev);
            }
        });
        self.counter.feed(events);
        self.samples.extend(events.iter().map(|ev| match ev {
            HistoryEvent::RotDone { t_start, t_end, .. } => (*t_end, t_end - t_start, true),
            HistoryEvent::PutDone { t_start, t_end, .. } => (*t_end, t_end - t_start, false),
        }));
    }
}

/// Counts each slice's completed ops and returns the ROT and PUT
/// latencies (ns) of the used slices, one list per slice.
fn slice_latencies(
    samples: &[(u64, u64, bool)],
    slices: &mut [Slice],
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let mut rots = vec![Vec::new(); slices.len()];
    let mut puts = vec![Vec::new(); slices.len()];
    for &(t_end, lat, is_rot) in samples {
        // Slices are in time order; ops completing between two slices
        // belong to neither.
        let i = slices.partition_point(|s| s.to <= t_end);
        if i < slices.len() && slices[i].from <= t_end {
            slices[i].ops += 1;
            if is_rot {
                rots[i].push(lat);
            } else {
                puts[i].push(lat);
            }
        }
    }
    let keep = |v: Vec<Vec<u64>>| -> Vec<Vec<u64>> {
        v.into_iter()
            .zip(slices.iter())
            .filter(|(_, s)| s.used)
            .map(|(l, _)| l)
            .collect()
    };
    (keep(rots), keep(puts))
}
