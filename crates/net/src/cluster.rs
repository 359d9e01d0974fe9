//! The TCP cluster facade: one API, two engines.
//!
//! [`NetCluster`] is what the builders and the harness talk to. Behind it
//! sit two interchangeable socket engines:
//!
//! * [`reactor`](crate::reactor) (the default): a fixed pool of event-loop
//!   threads driving nonblocking sockets through epoll, one multiplexed
//!   connection per peer pair. The nodes themselves run on those threads:
//!   each reactor decodes an inbound frame and calls the actor's handler
//!   inline, so one frame costs one thread wake-up;
//! * [`threads`](crate::threads) (`CONTRARIAN_NET=threads`): the original
//!   thread-per-connection engine — a thread per node on
//!   [`contrarian_runtime::node_loop::run_node`], a writer thread per
//!   node, a reader thread per accepted socket — kept as the baseline the
//!   reactor is measured against.
//!
//! Both engines share a `ClusterCore`: the run flags and history sink
//! ([`RunShared`]), the way in for externally injected messages, and the
//! wire counters. The engine choice only changes how an encoded frame
//! crosses the process and which thread runs the handlers.

use crate::reactor::{ReactorCluster, ReactorShared};
use crate::threads::ThreadsCluster;
use contrarian_runtime::actor::Actor;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_loop::{Input, RunShared};
use contrarian_runtime::Runtime;
use contrarian_types::codec::Wire;
use contrarian_types::{Addr, HistoryEvent, Op};
use crossbeam::channel::Sender;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Capacity of each node's input channel (`threads` engine) and of each
/// reactor's inject queue. Bounded so a stalled node exerts backpressure
/// instead of ballooning memory.
pub(crate) const CHANNEL_CAP: usize = 64 * 1024;

/// Which socket engine drives the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetKind {
    /// Event-driven reactor pool (the default).
    Reactor,
    /// Thread-per-connection baseline.
    Threads,
}

impl NetKind {
    /// Parses `CONTRARIAN_NET`. Unset defaults to the reactor; an unknown
    /// value is a hard error — a silently wrong fallback would make an
    /// engine comparison measure the reactor against itself.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("reactor") => Ok(NetKind::Reactor),
            Some("threads") => Ok(NetKind::Threads),
            Some(other) => Err(format!(
                "CONTRARIAN_NET must be `reactor` or `threads` (or unset), got `{other}`"
            )),
        }
    }

    pub fn from_env() -> Self {
        let value = contrarian_runtime::env::var(contrarian_runtime::env::NET);
        Self::parse(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Frames/bytes/sockets actually put on the wire, updated by whichever
/// threads do the socket writes. Relaxed atomics off the latency path.
/// Hello handshake frames are *not* counted — the totals mean protocol
/// traffic, comparable across engines.
#[derive(Default)]
pub struct WireStats {
    frames: AtomicU64,
    bytes: AtomicU64,
    sockets: AtomicU64,
}

impl WireStats {
    pub fn on_frames(&self, frames: u64, bytes: u64) {
        if frames == 0 && bytes == 0 {
            return;
        }
        self.frames.fetch_add(frames, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one socket endpoint coming up (a completed connect or an
    /// accept) — the engines' footprint metric.
    pub fn on_socket(&self) {
        self.sockets.fetch_add(1, Ordering::Relaxed);
    }

    pub fn frames_bytes(&self) -> (u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    pub fn sockets(&self) -> u64 {
        self.sockets.load(Ordering::Relaxed)
    }
}

/// How an externally injected message reaches its node.
pub(crate) enum Ingress<M> {
    /// `threads` engine: each node's input channel.
    Inbox(HashMap<Addr, Sender<Input<M>>>),
    /// Reactor engine: the inject queue of the reactor running the node.
    Reactor(HashMap<Addr, Arc<ReactorShared<M>>>),
}

/// State both engines share: run flags + history, the way in for injected
/// messages, and the wire counters.
pub(crate) struct ClusterCore<M> {
    pub(crate) run: RunShared,
    pub(crate) ingress: Ingress<M>,
    pub(crate) wire: WireStats,
}

impl<M> ClusterCore<M> {
    pub(crate) fn new(recording: bool, ingress: Ingress<M>) -> Self {
        ClusterCore {
            run: RunShared::new(recording),
            ingress,
            wire: WireStats::default(),
        }
    }

    /// Hands `msg` from `from` to node `to`, blocking while its queue is
    /// full. External injection bypasses the sockets (it is not cluster
    /// traffic). Returns `false` if `to` is not a node of this cluster.
    pub(crate) fn inject(&self, from: Addr, to: Addr, msg: M) -> bool {
        match &self.ingress {
            Ingress::Inbox(inbox) => inbox.get(&to).map(|tx| {
                let _ = tx.send(Input::Msg { from, msg });
            }),
            Ingress::Reactor(reactors) => reactors.get(&to).map(|r| r.inject(from, to, msg)),
        }
        .is_some()
    }
}

/// I/O footprint and work counters of the running engine, for the
/// `net_perf` comparison and for checking where a hop's time goes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetIoStats {
    /// Threads that do socket I/O. The reactor engine runs its nodes on
    /// these same threads (it has no others); the `threads` engine counts
    /// its writer, accept and reader threads, not its node threads.
    pub transport_threads: usize,
    /// Socket endpoints established so far (connects + accepts).
    pub sockets: u64,
    /// Bytes written to reactor wake pipes: one per injection from another
    /// thread that found the reactor's queue idle. Frames between nodes
    /// never write one. Always 0 on the `threads` engine.
    pub wake_writes: u64,
    /// Inbound frames a reactor decoded and handed to a node's handler on
    /// its own thread (0 on the `threads` engine).
    pub inline_dispatches: u64,
    /// Times a node's dispatch paused because one of its outbound rings
    /// reached [`crate::conn::RING_HIGH`].
    pub backpressure_pauses: u64,
    /// Connections closed because the peer sent bytes that are not a valid
    /// frame stream: a corrupt or oversize frame or hello, a hello for a
    /// node that does not listen there, a frame claiming another sender,
    /// or an end of stream inside a frame.
    pub peer_errors: u64,
}

/// Re-raises a panic from a joined I/O thread on the shutting-down thread.
pub(crate) fn resume_panic<T>(r: std::thread::Result<T>) {
    if let Err(payload) = r {
        std::panic::resume_unwind(payload);
    }
}

enum Engine<A: Actor> {
    Threads(ThreadsCluster<A>),
    Reactor(ReactorCluster<A>),
}

/// A running TCP cluster: every message between nodes crosses a loopback
/// socket through whichever engine [`NetKind`] selected.
pub struct NetCluster<A: Actor> {
    core: Arc<ClusterCore<A::Msg>>,
    engine: Engine<A>,
    addrs: Vec<Addr>,
}

/// A handle for injecting messages from outside the cluster (facade role).
pub struct NetHandle<M> {
    core: Arc<ClusterCore<M>>,
}

impl<M: Send + 'static> NetHandle<M> {
    pub fn send(&self, from: Addr, to: Addr, msg: M) {
        self.core.inject(from, to, msg);
    }

    /// Blocks until some history event satisfies `pred` (see
    /// [`contrarian_runtime::HistorySink::wait_for`]).
    pub fn wait_for_history<F>(
        &self,
        cursor: &mut usize,
        timeout: Duration,
        pred: F,
    ) -> Option<HistoryEvent>
    where
        F: FnMut(&HistoryEvent) -> bool,
    {
        self.core.run.history.wait_for(cursor, timeout, pred)
    }
}

impl<A> NetCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    /// Starts the cluster on the engine `CONTRARIAN_NET` selects.
    pub fn start(nodes: Vec<(Addr, A)>, recording: bool, seed: u64) -> Self {
        Self::start_with(nodes, recording, seed, NetKind::from_env())
    }

    /// Starts the cluster on an explicit engine (tests and the `net_perf`
    /// bench compare both in one process).
    pub fn start_with(nodes: Vec<(Addr, A)>, recording: bool, seed: u64, kind: NetKind) -> Self {
        let addrs: Vec<Addr> = nodes.iter().map(|(a, _)| *a).collect();
        let (core, engine) = match kind {
            NetKind::Threads => {
                let t = ThreadsCluster::start(nodes, recording, seed);
                (t.core(), Engine::Threads(t))
            }
            NetKind::Reactor => {
                let r = ReactorCluster::start(nodes, recording, seed);
                (r.core(), Engine::Reactor(r))
            }
        };
        NetCluster {
            core,
            engine,
            addrs,
        }
    }

    pub fn handle(&self) -> NetHandle<A::Msg> {
        NetHandle {
            core: self.core.clone(),
        }
    }

    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Wall-clock nanoseconds since the cluster started.
    pub fn now(&self) -> u64 {
        self.core.run.now()
    }

    /// Sends an operation to a client node. External injection bypasses the
    /// sockets (it is not cluster traffic), exactly as on the other
    /// runtimes.
    pub fn inject_op(&self, client: Addr, op: Op) {
        self.core.inject(client, client, A::inject(op));
    }

    /// Turns measurement on or off (sampled before every handler runs).
    pub fn set_measuring(&self, on: bool) {
        self.core.run.measuring.store(on, Ordering::SeqCst);
    }

    /// Signals closed-loop clients to stop issuing new operations.
    pub fn stop_issuing(&self) {
        self.core.run.stopped.store(true, Ordering::SeqCst);
    }

    /// Drains the history recorded since the last drain, releasing it
    /// from the shared sink (see
    /// [`contrarian_runtime::HistorySink::drain`]). Lets a streaming
    /// consumer check long runs without the sink holding the whole log.
    pub fn drain_history(&self) -> Vec<HistoryEvent> {
        self.core.run.history.drain()
    }

    /// `(frames, bytes)` successfully written to sockets so far (hello
    /// handshakes excluded).
    pub fn wire_stats(&self) -> (u64, u64) {
        self.core.wire.frames_bytes()
    }

    /// Where `node` listens: the address a process outside the cluster
    /// would dial to reach it.
    pub fn endpoint(&self, node: Addr) -> Option<SocketAddr> {
        match &self.engine {
            Engine::Threads(t) => t.endpoint(node),
            Engine::Reactor(r) => r.endpoint(node),
        }
    }

    /// The engine's current I/O footprint and work counters.
    pub fn io_stats(&self) -> NetIoStats {
        match &self.engine {
            Engine::Threads(t) => t.io_stats(),
            Engine::Reactor(r) => r.io_stats(),
        }
    }

    /// Stops every node, tears down the sockets, and returns the final
    /// actors, merged metrics and history. Socket-level totals are folded
    /// into the metrics as `net.frames_sent` / `net.bytes_sent`.
    pub fn shutdown(self) -> (Vec<(Addr, A)>, Metrics, Vec<HistoryEvent>) {
        let (actors, mut metrics) = match self.engine {
            Engine::Threads(t) => t.shutdown(),
            Engine::Reactor(r) => r.shutdown(),
        };
        let (frames, bytes) = self.core.wire.frames_bytes();
        metrics.enabled = true;
        metrics.add("net.frames_sent", frames);
        metrics.add("net.bytes_sent", bytes);
        metrics.enabled = false;
        let history = self.core.run.history.take();
        (actors, metrics, history)
    }
}

impl<A> Runtime<A> for NetCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    fn now(&self) -> u64 {
        NetCluster::now(self)
    }

    fn send(&mut self, from: Addr, to: Addr, msg: A::Msg) {
        // Same contract as the other runtimes: an unknown destination is a
        // driver bug, not a droppable message.
        if !self.core.inject(from, to, msg) {
            panic!("unknown addr {to}");
        }
    }

    fn stop_issuing(&mut self) {
        NetCluster::stop_issuing(self);
    }

    fn addrs(&self) -> Vec<Addr> {
        self.addrs.clone()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use contrarian_runtime::actor::{ActorCtx, TimerKind};
    use contrarian_runtime::cost::{MsgClass, SimMessage};
    use contrarian_types::codec::{CodecError, Reader};
    use contrarian_types::{DcId, PartitionId};
    use std::time::Instant;

    #[test]
    fn net_kind_parses_and_rejects() {
        assert_eq!(NetKind::parse(None).unwrap(), NetKind::Reactor);
        assert_eq!(NetKind::parse(Some("reactor")).unwrap(), NetKind::Reactor);
        assert_eq!(NetKind::parse(Some("threads")).unwrap(), NetKind::Threads);
        let err = NetKind::parse(Some("uring")).unwrap_err();
        assert!(err.contains("reactor") && err.contains("uring"));
    }

    /// A ping-pong actor: servers echo, clients count echoes.
    pub(crate) struct Echo {
        pub(crate) pongs: u64,
        pub(crate) peer: Option<Addr>,
    }

    #[derive(Clone, PartialEq, Debug)]
    pub(crate) struct Ping(pub(crate) u32);

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            32
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    impl Wire for Ping {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Ping(u32::decode(r)?))
        }
    }

    impl Actor for Echo {
        type Msg = Ping;

        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Ping(0));
            }
        }

        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
            if ctx.self_addr().is_server() {
                ctx.send(from, Ping(msg.0 + 1));
            } else {
                self.pongs += 1;
                if msg.0 < 99 {
                    ctx.send(from, Ping(msg.0 + 1));
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}

        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    fn ping_pong_on(kind: NetKind) {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            ),
        ];
        let cluster = NetCluster::start_with(nodes, false, 1, kind);
        // 100 round trips over loopback finish in well under a second.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (frames, _) = cluster.wire_stats();
            if frames >= 100 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (actors, metrics, _) = cluster.shutdown();
        let pongs = actors
            .iter()
            .find(|(a, _)| *a == client)
            .map(|(_, e)| e.pongs)
            .unwrap();
        assert_eq!(pongs, 50, "pings 0,2,..,98 produce 50 pongs");
        assert!(metrics.counter("net.frames_sent") >= 100);
        assert!(metrics.counter("net.bytes_sent") > 0);
    }

    #[test]
    fn ping_pong_over_real_sockets_threads() {
        ping_pong_on(NetKind::Threads);
    }

    #[test]
    fn ping_pong_over_real_sockets_reactor() {
        ping_pong_on(NetKind::Reactor);
    }

    /// The ping-pong exchange has a known wire footprint: pings 0..=99,
    /// one frame each — 4-byte length prefix, 4-byte sender `Addr`,
    /// 4-byte `u32` payload. Both engines must report exactly that, and
    /// the totals must survive the shutdown drain (folded into
    /// `net.frames_sent`/`net.bytes_sent`).
    fn exact_wire_counters_on(kind: NetKind) {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            ),
        ];
        let cluster = NetCluster::start_with(nodes, false, 7, kind);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.wire_stats().0 < 100 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The exchange is self-limiting: after frame 100 nothing else may
        // hit the wire.
        std::thread::sleep(Duration::from_millis(50));
        let (frames, bytes) = cluster.wire_stats();
        assert_eq!(frames, 100, "one frame per ping 0..=99");
        assert_eq!(bytes, 100 * 12, "prefix(4) + Addr(4) + payload(4)");
        assert!(cluster.io_stats().sockets >= 1);
        let (_, metrics, _) = cluster.shutdown();
        assert_eq!(metrics.counter("net.frames_sent"), 100);
        assert_eq!(metrics.counter("net.bytes_sent"), 1200);
    }

    #[test]
    fn exact_wire_counters_threads() {
        exact_wire_counters_on(NetKind::Threads);
    }

    #[test]
    fn exact_wire_counters_reactor() {
        exact_wire_counters_on(NetKind::Reactor);
    }

    /// Client bursts 200 pings at start; server records receive order.
    struct Burst {
        got: Vec<u32>,
    }
    impl Actor for Burst {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            if !ctx.self_addr().is_server() {
                for i in 0..200 {
                    ctx.send(Addr::server(DcId(0), PartitionId(0)), Ping(i));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, msg: Ping) {
            self.got.push(msg.0);
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    fn fifo_on(kind: NetKind) {
        let server = Addr::server(DcId(0), PartitionId(0));
        let nodes = vec![
            (server, Burst { got: vec![] }),
            (Addr::client(DcId(0), 0), Burst { got: vec![] }),
        ];
        let cluster = NetCluster::start_with(nodes, false, 2, kind);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.wire_stats().0 < 200 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        let (actors, ..) = cluster.shutdown();
        let got = &actors.iter().find(|(a, _)| *a == server).unwrap().1.got;
        assert_eq!(*got, (0..200).collect::<Vec<_>>(), "TCP link must be FIFO");
    }

    #[test]
    fn fifo_is_preserved_per_link_threads() {
        fifo_on(NetKind::Threads);
    }

    #[test]
    fn fifo_is_preserved_per_link_reactor() {
        fifo_on(NetKind::Reactor);
    }

    fn injection_on(kind: NetKind) {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: None, // idle until injected
                },
            ),
        ];
        let mut cluster = NetCluster::start_with(nodes, false, 3, kind);
        Runtime::send(&mut cluster, client, client, Ping(500));
        std::thread::sleep(Duration::from_millis(100));
        let (actors, ..) = cluster.shutdown();
        let pongs = actors.iter().find(|(a, _)| *a == client).unwrap().1.pongs;
        assert_eq!(pongs, 1, "injected ping counted, no further round trips");
    }

    #[test]
    fn injection_reaches_clients_threads() {
        injection_on(NetKind::Threads);
    }

    #[test]
    fn injection_reaches_clients_reactor() {
        injection_on(NetKind::Reactor);
    }
}
