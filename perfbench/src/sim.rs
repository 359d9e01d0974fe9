//! The checked-simulation phase: 2 DCs × 16 partitions with 32
//! closed-loop virtual clients per DC on the calendar engine, the history
//! streamed into the causal checker as it is produced.
//!
//! A phase is several rounds of one simulated second each, every round a
//! fresh cluster on its own seed derived from the run's seed; throughput
//! is the median over rounds. One second stays inside the paper
//! platform's 1 s version-retention window (see `LAYERS.md`). A round
//! the host disturbed runs a second time, as TCP slices are re-measured.

use crate::manifest;
use crate::stats::{median, OpCount, OpCounter};
use crate::trace::Tracer;
use contrarian_harness::CausalChecker;
use contrarian_protocol::{build_cluster_with, ClusterParams, ProtoNode, ProtocolSpec};
use contrarian_runtime::{CostModel, Metrics};
use contrarian_sim::sim::Sim;
use contrarian_sim::SchedKind;
use contrarian_types::{ClusterConfig, HistoryEvent};
use contrarian_workload::WorkloadSpec;
use std::time::Instant;

pub const DCS: u8 = 2;
pub const PARTITIONS: u16 = 16;
pub const CLIENTS_PER_DC: u16 = 32;
/// Run calls the simulated window is cut into; the history is drained
/// into the checker after each.
const SLICES: u64 = 20;
/// One checker gc pass per this many fed events.
const GC_EVERY: usize = 100_000;
/// Virtual time allowed for in-flight ops to finish once issuing stops.
const QUIESCE_NS: u64 = 5_000_000_000;
/// Simulated time per round.
pub const ROUND_NS: u64 = 1_000_000_000;

pub struct SimOutcome {
    /// Build + start durations, seconds.
    pub setups: Vec<f64>,
    /// Ops completed per wall second, one per round (warm-up and drain
    /// included, checker included).
    pub round_ops_per_s: Vec<f64>,
    /// Share of CPU time the host stole during each round.
    pub round_steal: Vec<f64>,
    /// Ops completed (history events) over all rounds.
    pub ops: u64,
    /// Events processed over all rounds.
    pub events: u64,
    /// The simulator's metrics over all rounds, enabled after warm-up.
    pub metrics: Metrics,
    pub count: OpCount,
    pub violations: Vec<String>,
    /// Exact counters that differed between two tries of one round.
    pub drift: Vec<String>,
    pub peak_live_versions: usize,
    /// Counters that are a pure function of (workload, seed, rounds),
    /// per round: any difference between two runs is a determinism
    /// failure.
    pub exact: Vec<(String, u64)>,
}

impl SimOutcome {
    /// Median over rounds of simulated ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.round_ops_per_s)
    }
}

/// The simulated cluster: the paper's platform, two DCs of 16 partitions.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::paper_default()
        .with_dcs(DCS)
        .with_partitions(PARTITIONS)
}

fn build<P: ProtocolSpec>(wl: &WorkloadSpec, seed: u64) -> Sim<ProtoNode<P>> {
    let params = ClusterParams {
        cfg: cluster_config(),
        cost: CostModel::calibrated(),
        workload: wl.clone(),
        clients_per_dc: CLIENTS_PER_DC,
        seed,
    };
    let mut sim = build_cluster_with::<P>(&params, SchedKind::Calendar);
    sim.set_recording(true);
    sim.start();
    sim
}

/// Streams drained history into the checker, with periodic gc.
struct Feeder {
    ck: CausalChecker,
    since_gc: usize,
    peak_live: usize,
}

impl Feeder {
    fn feed(&mut self, tracer: &mut Tracer, events: &[HistoryEvent]) {
        tracer.span("sim.checker.feed", || {
            for ev in events {
                self.ck.feed(ev);
            }
        });
        self.since_gc += events.len();
        if self.since_gc >= GC_EVERY {
            self.gc(tracer);
        }
    }

    fn gc(&mut self, tracer: &mut Tracer) {
        self.since_gc = 0;
        self.peak_live = self.peak_live.max(self.ck.residency().live_versions);
        let sessions = DCS as usize * CLIENTS_PER_DC as usize;
        tracer.span("sim.checker.gc", || self.ck.gc(sessions));
    }
}

/// One simulated round's results.
struct Round {
    ops_per_s: f64,
    /// Share of CPU time the host stole during the round.
    steal: f64,
    events: u64,
    metrics: Metrics,
    count: OpCount,
    violations: Vec<String>,
    peak_live: usize,
    exact: Vec<(String, u64)>,
}

/// Runs `rounds` rounds; the first builds its cluster `setups` times,
/// timing each build and keeping the last. The first round during
/// which the host stole more than `quiet_steal` of the CPU runs once more
/// on the same seed (one rerun per phase bounds the run time): the
/// less-disturbed try gives its throughput, and the two tries' exact
/// counters must agree.
pub fn run<P: ProtocolSpec>(
    wl: &WorkloadSpec,
    seed: u64,
    rounds: usize,
    setups: usize,
    quiet_steal: f64,
    tracer: &mut Tracer,
) -> SimOutcome {
    let mut out = SimOutcome {
        setups: Vec::new(),
        round_ops_per_s: Vec::new(),
        round_steal: Vec::new(),
        ops: 0,
        events: 0,
        metrics: Metrics::new(),
        count: OpCount::default(),
        violations: Vec::new(),
        drift: Vec::new(),
        peak_live_versions: 0,
        exact: Vec::new(),
    };
    let mut rerun_left = true;
    for round in 0..rounds {
        // Distinct, reproducible seeds per round.
        let round_seed = seed.wrapping_mul(1_000_003).wrapping_add(round as u64);
        let builds = if round == 0 { setups.max(1) } else { 1 };
        let mut r = build_and_run::<P>(wl, round_seed, round, builds, tracer, &mut out);
        if r.steal > quiet_steal && rerun_left {
            rerun_left = false;
            let again = build_and_run::<P>(wl, round_seed, round, 1, tracer, &mut out);
            out.drift.extend(manifest::diff_counters(
                &manifest::counter_lines(&r.exact),
                &manifest::counter_lines(&again.exact),
            ));
            out.violations.extend(again.violations);
            if again.steal < r.steal {
                r.ops_per_s = again.ops_per_s;
                r.steal = again.steal;
            }
        }
        out.round_ops_per_s.push(r.ops_per_s);
        out.round_steal.push(r.steal);
        out.events += r.events;
        out.ops += r.count.completed;
        out.metrics.absorb(&r.metrics);
        out.count.absorb(r.count);
        out.violations.extend(r.violations);
        out.peak_live_versions = out.peak_live_versions.max(r.peak_live);
        out.exact.extend(r.exact);
    }
    out
}

/// Builds the round's cluster `builds` times (timing each, keeping the
/// last) and runs it.
fn build_and_run<P: ProtocolSpec>(
    wl: &WorkloadSpec,
    seed: u64,
    round: usize,
    builds: usize,
    tracer: &mut Tracer,
    out: &mut SimOutcome,
) -> Round {
    let open = tracer.begin("sim.setup");
    let mut sim = None;
    for _ in 0..builds {
        let t0 = Instant::now();
        let s = build::<P>(wl, seed);
        out.setups.push(t0.elapsed().as_secs_f64());
        sim = Some(s);
    }
    let sim = sim.expect("at least one build");
    tracer.end(open);
    run_round::<P>(sim, round, tracer)
}

/// Simulates [`ROUND_NS`] of closed-loop load: the first tenth is
/// warm-up, metrics cover the rest, and in-flight ops drain once issuing
/// stops.
fn run_round<P: ProtocolSpec>(
    mut sim: Sim<ProtoNode<P>>,
    round: usize,
    tracer: &mut Tracer,
) -> Round {
    let open = tracer.begin("sim.measure");
    let wall0 = Instant::now();
    let ticks0 = manifest::cpu_ticks();
    let mut feeder = Feeder {
        ck: CausalChecker::new(),
        since_gc: 0,
        peak_live: 0,
    };
    let mut counter = OpCounter::default();
    let mut step = |sim: &mut Sim<ProtoNode<P>>, tracer: &mut Tracer, until: Option<u64>| {
        tracer.span("sim.run_until", || match until {
            Some(t) => sim.run_until(t),
            None => sim.run_to_quiescence(ROUND_NS + QUIESCE_NS),
        });
        let events = tracer.span("sim.history.drain", || sim.drain_history());
        counter.feed(&events);
        feeder.feed(tracer, &events);
    };
    let warm = ROUND_NS / 10;
    let slice = ((ROUND_NS - warm) / SLICES).max(1);
    step(&mut sim, tracer, Some(warm));
    sim.metrics_mut().enabled = true;
    let mut t = warm;
    while t < ROUND_NS {
        t = (t + slice).min(ROUND_NS);
        step(&mut sim, tracer, Some(t));
    }
    sim.metrics_mut().enabled = false;
    sim.set_stopped(true);
    step(&mut sim, tracer, None);
    feeder.gc(tracer);
    let report = tracer.span("sim.checker.report", || feeder.ck.report());
    let wall_s = wall0.elapsed().as_secs_f64();
    let steal = manifest::steal_share(ticks0, manifest::cpu_ticks());
    tracer.end(open);

    let count = counter.finish(ROUND_NS - (ROUND_NS - warm) / 4);
    let events = sim.events_processed();
    let m = sim.metrics().clone();
    let exact = [
        ("sim.events", events),
        ("history.len", count.completed),
        ("sim.msgs", m.msgs),
        ("sim.bytes", m.bytes),
        ("sim.rots_done", m.rots_done),
        ("sim.puts_done", m.puts_done),
        ("protocol.vis_p99_ns", m.vis_staleness.percentile(99.0)),
        ("protocol.blocked_ops", m.block_ns.count()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .chain(m.counters.iter().map(|(k, v)| (k.to_string(), *v)))
    .map(|(k, v)| (format!("r{round}.{k}"), v))
    .collect();
    Round {
        ops_per_s: count.completed as f64 / wall_s,
        steal,
        events,
        metrics: m,
        count,
        violations: report.violations,
        peak_live: feeder.peak_live,
        exact,
    }
}
