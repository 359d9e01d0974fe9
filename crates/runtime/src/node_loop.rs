//! The node runner shared by every live (wall-clock) runtime.
//!
//! [`LiveNode`] is one node as the live runtimes run it: the actor, its
//! RNG, its metrics sink, and the `ActorCtx` the state machine sees.
//! [`run_node`] wraps it in a thread-per-node event loop — an input
//! channel plus a timer deadline queue — which `contrarian-transport`'s
//! `LiveCluster` (in-process channels) and `contrarian-net`'s `threads`
//! engine use; they differ only in how a sent message reaches its
//! destination, so each provides an [`Outbound`] and a [`RunShared`] (the
//! cluster-wide flags and history sink) and gets the whole loop.
//! `contrarian-net`'s reactor engine drives [`LiveNode`] directly from its
//! reactor threads instead.

use crate::actor::{Actor, ActorCtx, TimerKind};
use crate::history::HistorySink;
use crate::metrics::Metrics;
use contrarian_types::{Addr, HistoryEvent};
use crossbeam::channel::Receiver;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One item on a node's input channel.
pub enum Input<M> {
    /// A delivered message.
    Msg { from: Addr, msg: M },
    /// Orderly shutdown of the node thread.
    Stop,
}

/// How a live runtime moves one message from a node to a destination.
///
/// `LiveCluster` pushes onto the destination's input channel;
/// `NetCluster`'s `threads` engine encodes the message and hands it to the
/// sending node's writer thread.
pub trait Outbound<M> {
    fn deliver(&mut self, from: Addr, to: Addr, msg: M);
}

/// Cluster-wide run state every live runtime shares: the clock origin, the
/// stop/measure flags, and the waitable history sink.
///
/// Metrics are *not* here: every node accumulates its own [`Metrics`]
/// and hands it back when the run ends — the measurement hot path takes
/// no lock. History is only ever touched when `recording` is set
/// (functional runs), through a [`HistorySink`] whose condition variable
/// lets waiters sleep instead of poll.
pub struct RunShared {
    pub start: Instant,
    pub stopped: AtomicBool,
    pub measuring: AtomicBool,
    pub history: HistorySink,
    pub recording: bool,
}

impl RunShared {
    pub fn new(recording: bool) -> Self {
        RunShared {
            start: Instant::now(),
            stopped: AtomicBool::new(false),
            measuring: AtomicBool::new(false),
            history: HistorySink::new(),
            recording,
        }
    }

    /// Wall-clock nanoseconds since the run started.
    pub fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// One event a live runtime hands to a node's handlers.
pub enum NodeEvent<M> {
    Start,
    Msg { from: Addr, msg: M },
    Timer(TimerKind),
}

/// A node as every live runtime runs it: the actor plus its RNG and
/// metrics sink. The runtime decides *where* handlers run (a node thread
/// in [`run_node`], a reactor thread in `contrarian-net`); this type is
/// what runs them.
pub struct LiveNode<A: Actor> {
    addr: Addr,
    actor: A,
    rng: SmallRng,
    /// All handler effects accumulate here and the whole sink is handed
    /// back at the end of the run — no shared lock on this path.
    metrics: Metrics,
}

impl<A: Actor> LiveNode<A> {
    pub fn new(addr: Addr, actor: A, seed: u64) -> Self {
        LiveNode {
            addr,
            actor,
            rng: SmallRng::seed_from_u64(seed),
            metrics: Metrics::new(),
        }
    }

    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Runs the handler for `ev`. Messages it sends are appended to
    /// `sent`, timers it arms (delay in ns) to `timers`; the caller moves
    /// them.
    pub fn handle(
        &mut self,
        shared: &RunShared,
        ev: NodeEvent<A::Msg>,
        sent: &mut Vec<(Addr, A::Msg)>,
        timers: &mut Vec<(u64, TimerKind)>,
    ) {
        self.metrics.enabled = shared.measuring.load(Ordering::Relaxed);
        let mut ctx = LiveCtx {
            addr: self.addr,
            shared,
            rng: &mut self.rng,
            out: sent,
            new_timers: timers,
            metrics: &mut self.metrics,
        };
        match ev {
            NodeEvent::Start => self.actor.on_start(&mut ctx),
            NodeEvent::Msg { from, msg } => self.actor.on_message(&mut ctx, from, msg),
            NodeEvent::Timer(kind) => self.actor.on_timer(&mut ctx, kind),
        }
    }

    pub fn into_parts(self) -> (A, Metrics) {
        (self.actor, self.metrics)
    }
}

/// The per-node event loop: drains the input channel and fires due timers
/// until a [`Input::Stop`] arrives (or every sender disconnects). Returns
/// the actor and the thread-local metrics sink.
pub fn run_node<A: Actor>(
    addr: Addr,
    actor: A,
    rx: Receiver<Input<A::Msg>>,
    mut out: impl Outbound<A::Msg>,
    shared: &RunShared,
    seed: u64,
) -> (A, Metrics) {
    let mut node = LiveNode::new(addr, actor, seed);
    // Timer queue: (deadline, seq, kind, arg); BinaryHeap is a max-heap so
    // store reversed deadlines.
    let mut timers: BinaryHeap<std::cmp::Reverse<(Instant, u64, u16, u64)>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let mut sent = Vec::new();
    let mut armed = Vec::new();

    macro_rules! dispatch {
        ($ev:expr) => {{
            node.handle(shared, $ev, &mut sent, &mut armed);
            for (to, msg) in sent.drain(..) {
                out.deliver(addr, to, msg);
            }
            for (delay_ns, kind) in armed.drain(..) {
                timer_seq += 1;
                let deadline = Instant::now() + Duration::from_nanos(delay_ns);
                timers.push(std::cmp::Reverse((deadline, timer_seq, kind.kind, kind.a)));
            }
        }};
    }

    dispatch!(NodeEvent::Start);

    loop {
        // Fire due timers.
        let now = Instant::now();
        while let Some(std::cmp::Reverse((deadline, _, kind, a))) = timers.peek().copied() {
            if deadline > now {
                break;
            }
            timers.pop();
            dispatch!(NodeEvent::Timer(TimerKind::with_arg(kind, a)));
        }
        // Wait for the next input or timer deadline.
        let wait = timers
            .peek()
            .map(|std::cmp::Reverse((d, ..))| d.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(5));
        match rx.recv_timeout(wait.min(Duration::from_millis(5))) {
            Ok(Input::Msg { from, msg }) => dispatch!(NodeEvent::Msg { from, msg }),
            Ok(Input::Stop) => break,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    node.into_parts()
}

struct LiveCtx<'a, M> {
    addr: Addr,
    shared: &'a RunShared,
    rng: &'a mut SmallRng,
    out: &'a mut Vec<(Addr, M)>,
    new_timers: &'a mut Vec<(u64, TimerKind)>,
    /// The node's metrics sink.
    metrics: &'a mut Metrics,
}

impl<'a, M> ActorCtx<M> for LiveCtx<'a, M> {
    fn now(&self) -> u64 {
        self.shared.now()
    }

    fn self_addr(&self) -> Addr {
        self.addr
    }

    fn send(&mut self, to: Addr, msg: M) {
        self.out.push((to, msg));
    }

    fn set_timer(&mut self, delay_ns: u64, kind: TimerKind) {
        self.new_timers.push((delay_ns, kind));
    }

    fn charge(&mut self, _ns: u64) {
        // Real time: CPU is charged by actually spending it.
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    fn record(&mut self, ev: HistoryEvent) {
        if self.shared.recording {
            self.shared.history.append(ev);
        }
    }

    fn recording(&self) -> bool {
        self.shared.recording
    }

    fn stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }
}

/// Derives a per-node RNG seed from the cluster seed and the address.
/// Shared by the live runtimes so they draw identical workload streams
/// for the same cluster seed.
pub fn node_seed(seed: u64, addr: Addr) -> u64 {
    seed ^ (addr.dc.0 as u64) << 32
        ^ (addr.idx as u64) << 8
        ^ matches!(addr.kind, contrarian_types::NodeKind::Client) as u64
}
