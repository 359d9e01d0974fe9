//! The event-driven reactor engine: a fixed pool of event-loop threads
//! that drive every socket in the cluster *and* run the nodes.
//!
//! Where the `threads` engine spends one OS thread per node, one writer
//! thread per node and one reader thread per accepted socket, this engine
//! runs `CONTRARIAN_NET_THREADS` reactor threads (default: the machine's
//! `available_parallelism`, capped at the node count) and nothing else.
//! Node `i` lives on reactor `i % pool`, the reactor that owns its
//! listener; that thread calls the node's `on_start`, `on_message` and
//! `on_timer` itself. Readiness comes from the [`Poller`].
//!
//! ## Connections
//!
//! One TCP connection per **peer pair**, not per directed link: frames
//! already carry `(from, msg)`, so demultiplexing inbound traffic is free,
//! and the acceptor learns who is on the other end from the
//! [`Hello`](crate::conn::Hello) frame that opens every dialed connection.
//! When node B first replies to node A, B's route table finds the
//! accepted connection A dialed and reuses it (first insertion wins, which
//! pins each directed link to exactly one socket and preserves per-link
//! FIFO). A simultaneous-dial race can briefly produce two sockets for a
//! pair; each side then keeps writing on its own dial, which is correct,
//! merely not minimal.
//!
//! Each end of a connection belongs to exactly one local node: the node
//! that dialed it, or the node whose listener accepted it. That node's
//! reactor owns the socket, so all of a node's sockets, its route table
//! and its timers live on one thread and need no locks.
//!
//! ## Data flow
//!
//! A frame crosses one thread boundary per hop. As soon as the
//! [`FrameAssembler`] yields a frame, the receiving reactor decodes it and
//! runs the owning node's handler inline. Every message the handler sends
//! is encoded straight onto the [`OutRing`] of the node's connection to
//! the destination (dialing one on this thread if none is live), and the
//! reactor drains the rings it touched with vectored writes once the
//! dispatch batch is done. The kernel's socket wake-up of the peer's
//! reactor is the only hand-off: no inject queue, no wake pipe, no inbox
//! channel on the path. Actor timers sit on the reactor's timer heap.
//!
//! The reactor never blocks on a ring. When one of a node's rings reaches
//! [`RING_HIGH`](crate::conn::RING_HIGH), the reactor pauses that node: it
//! stops reading the node's sockets (so TCP flow control pushes back on
//! whoever is sending to it), queues its due timers and injected messages,
//! and resumes it once the ring drains below half. Each pause is counted
//! ([`NetIoStats::backpressure_pauses`]).
//!
//! Messages injected from outside the cluster (`inject_op`,
//! `NetHandle::send`, `Runtime::send`) and the shutdown request enter
//! through the reactor's bounded inject queue plus its wake pipe — the
//! only cross-thread path left, and the only source of wake-pipe writes
//! ([`NetIoStats::wake_writes`]).
//!
//! Nothing a peer sends can panic a reactor: a corrupt frame or hello, a
//! hello for a node that does not listen there, a frame claiming another
//! sender, or an end of stream inside a frame closes that one connection
//! and bumps [`NetIoStats::peer_errors`].
//!
//! ## Reconnects
//!
//! A refused dial is retried on the reactor's timer heap with the same
//! exponential schedule the `threads` engine sleeps through (2 ms doubling
//! to 250 ms, ten attempts) — but scheduled, so one unreachable peer never
//! stalls the other connections sharing the reactor.

use crate::addrbook::{AddressBook, StaticBook};
use crate::cluster::{ClusterCore, Ingress, NetIoStats, CHANNEL_CAP};
use crate::conn::{decode_hello, hello_frame, OutRing};
use crate::sys::{self, Event, Poller, PollerKind};
use contrarian_runtime::actor::{Actor, TimerKind};
use contrarian_runtime::frame::FrameAssembler;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_loop::{node_seed, LiveNode, NodeEvent};
use contrarian_types::codec::{from_bytes, Wire};
use contrarian_types::Addr;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the wake pipe on every reactor.
const WAKE_TOKEN: u64 = u64::MAX;

/// Dial attempts before a peer is declared unreachable (same budget as the
/// `threads` engine's `connect_with_backoff`).
const MAX_DIAL_ATTEMPTS: u32 = 10;

/// How long shutdown waits for outbound rings to drain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Socket reads one connection gets per turn before the reactor moves on
/// to its other connections (the rest waits on the ready list).
const READS_PER_TURN: usize = 16;

/// Backoff delay after the `attempts`-th consecutive dial failure:
/// 2 ms doubling, capped at 250 ms — the schedule the `threads` engine
/// sleeps through, here scheduled on the reactor's timer heap.
fn backoff_delay(attempts: u32) -> Duration {
    Duration::from_millis((2u64 << attempts.saturating_sub(1).min(16)).min(250))
}

/// Parses `CONTRARIAN_NET_THREADS`: the reactor pool size. Unset defaults
/// to `available_parallelism`; a non-positive or non-numeric value is a
/// hard error.
fn parse_pool(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
        Some(v) => {
            v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                format!("CONTRARIAN_NET_THREADS must be a positive integer, got `{v}`")
            })
        }
    }
}

pub(crate) fn pool_size() -> usize {
    let value = contrarian_runtime::env::var(contrarian_runtime::env::NET_THREADS);
    parse_pool(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Work counters of one reactor, read by [`ReactorCluster::io_stats`].
#[derive(Default)]
struct Counters {
    wake_writes: AtomicU64,
    dispatches: AtomicU64,
    pauses: AtomicU64,
    peer_errors: AtomicU64,
}

/// The cross-thread face of one reactor: its bounded inject queue, its
/// wake pipe, and its counters.
pub(crate) struct ReactorShared<M> {
    /// `(to, from, msg)` injected from outside the cluster.
    injects: Sender<(Addr, Addr, M)>,
    wake_tx: UnixStream,
    /// Coalesces wake bytes: set by the first producer after the reactor
    /// last drained the pipe.
    wake_armed: AtomicBool,
    /// Shutdown requested: stop the nodes, drain the rings, exit.
    stop: AtomicBool,
    counters: Counters,
}

impl<M> ReactorShared<M> {
    /// Queues a message for node `to` on this reactor, blocking while the
    /// queue is full. Dropped if the reactor already exited.
    pub(crate) fn inject(&self, from: Addr, to: Addr, msg: M) {
        if self.injects.send((to, from, msg)).is_ok() {
            self.wake();
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn wake(&self) {
        if !self.wake_armed.swap(true, Ordering::SeqCst) {
            self.counters.wake_writes.fetch_add(1, Ordering::Relaxed);
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

/// Why a connection is being closed.
enum Close {
    /// The peer closed cleanly between frames.
    Eof,
    Io(io::Error),
    /// The peer sent something that is not a valid frame stream.
    Peer(String),
}

impl From<io::Error> for Close {
    fn from(e: io::Error) -> Self {
        Close::Io(e)
    }
}

struct Dial {
    peer: SocketAddr,
    attempts: u32,
}

enum ConnState {
    /// Nonblocking connect in flight; waiting for writability.
    Connecting,
    /// Dial refused; waiting for the backoff timer.
    Backoff,
    Established,
}

/// One end of a connection, owned by the reactor of its local node.
struct Conn {
    stream: Option<TcpStream>,
    state: ConnState,
    ring: OutRing,
    assembler: FrameAssembler,
    /// Armed by a writability edge, disarmed by a short write.
    can_write: bool,
    /// Armed by a readability edge, disarmed by `WouldBlock`.
    readable: bool,
    /// The local node (index into [`Reactor::nodes`]) this end belongs to:
    /// inbound frames are for it, outbound frames are from it.
    owner: usize,
    /// The node at the other end (`None` on an accepted connection until
    /// its hello arrives).
    peer: Option<Addr>,
    /// Whether the owner's route to `peer` points at this connection.
    routed: bool,
    /// Dial/redial info (outbound connections only).
    dial: Option<Dial>,
    /// Wire-stat bytes to not count once the hello frame drains.
    hello_debit: u64,
    /// Already on the reactor's dirty list.
    flush_queued: bool,
    /// The ring is over budget and holds its owner paused.
    over: bool,
}

enum Entry {
    Listener { node: usize, listener: TcpListener },
    Conn(Conn),
}

struct Slot {
    gen: u32,
    entry: Option<Entry>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// A node as its reactor runs it.
struct Node<A: Actor> {
    live: LiveNode<A>,
    /// `peer → connection token`. First insertion wins, so every directed
    /// link sticks to one socket (FIFO); dead entries are replaced on the
    /// next send.
    routes: HashMap<Addr, u64>,
    /// How many of its rings are over budget; dispatch pauses while > 0.
    over: u32,
    /// Timers that came due and messages injected while paused, in
    /// arrival order.
    backlog: VecDeque<NodeEvent<A::Msg>>,
}

impl<A: Actor> Node<A> {
    /// Paused, or still owing backlog from a pause: new timers and
    /// injections queue behind it to keep their order.
    fn backlogged(&self) -> bool {
        self.over > 0 || !self.backlog.is_empty()
    }
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum DueKind {
    /// Retry the dial of the connection behind this token.
    Redial(u64),
    /// Fire an actor timer on node `.0`.
    Actor(usize, TimerKind),
}

/// One entry of the reactor's timer heap, ordered by deadline, then by
/// arming order (`seq` is unique, so `what` never decides).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    when: Instant,
    seq: u64,
    what: DueKind,
}

/// Mutable access to the connection in slot `idx`, if it holds one.
fn conn_mut(slots: &mut [Slot], idx: usize) -> Option<&mut Conn> {
    match slots.get_mut(idx).and_then(|s| s.entry.as_mut()) {
        Some(Entry::Conn(c)) => Some(c),
        _ => None,
    }
}

/// One reactor thread's world: poller, slab, nodes, timers, inject queue.
struct Reactor<A: Actor> {
    core: Arc<ClusterCore<A::Msg>>,
    book: Arc<dyn AddressBook>,
    shared: Arc<ReactorShared<A::Msg>>,
    injects: Receiver<(Addr, Addr, A::Msg)>,
    wake_rx: UnixStream,
    poller: Poller,
    slots: Vec<Slot>,
    free: Vec<usize>,
    nodes: Vec<Node<A>>,
    node_index: HashMap<Addr, usize>,
    timers: BinaryHeap<Reverse<Due>>,
    timer_seq: u64,
    /// Connections with queued output, flushed after each dispatch batch.
    dirty: Vec<u64>,
    /// Connections to read on the next turn (new, resumed, or cut off by
    /// [`READS_PER_TURN`]).
    ready: Vec<u64>,
    /// Nodes whose last over-budget ring drained: their backlog runs on
    /// the next turn.
    resumed: Vec<usize>,
    /// Backlog entries across all nodes; the inject queue is left alone
    /// (so its producers block) while this is at capacity.
    held: usize,
    /// The inject queue may hold messages the reactor left there.
    injects_pending: bool,
    /// Reused handler output buffers.
    sent: Vec<(Addr, A::Msg)>,
    armed: Vec<(u64, TimerKind)>,
    read_buf: Box<[u8]>,
    shutting_down: bool,
    drain_deadline: Option<Instant>,
}

impl<A> Reactor<A>
where
    A: Actor,
    A::Msg: Wire,
{
    fn new(
        core: Arc<ClusterCore<A::Msg>>,
        book: Arc<dyn AddressBook>,
        shared: Arc<ReactorShared<A::Msg>>,
        injects: Receiver<(Addr, Addr, A::Msg)>,
        wake_rx: UnixStream,
        nodes: Vec<(Addr, A, TcpListener)>,
        seed: u64,
    ) -> Self {
        let mut r = Reactor {
            core,
            book,
            shared,
            injects,
            wake_rx,
            poller: Poller::new(PollerKind::from_env()).expect("create poller"),
            slots: Vec::new(),
            free: Vec::new(),
            nodes: Vec::new(),
            node_index: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            dirty: Vec::new(),
            ready: Vec::new(),
            resumed: Vec::new(),
            held: 0,
            injects_pending: false,
            sent: Vec::new(),
            armed: Vec::new(),
            read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
            shutting_down: false,
            drain_deadline: None,
        };
        r.poller
            .register(r.wake_rx.as_raw_fd(), WAKE_TOKEN)
            .expect("register wake pipe");
        for (addr, actor, listener) in nodes {
            let n = r.nodes.len();
            r.node_index.insert(addr, n);
            r.nodes.push(Node {
                live: LiveNode::new(addr, actor, node_seed(seed, addr)),
                routes: HashMap::new(),
                over: 0,
                backlog: VecDeque::new(),
            });
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            let fd = listener.as_raw_fd();
            let token = r.alloc(Entry::Listener { node: n, listener });
            r.poller.register(fd, token).expect("register listener");
        }
        r
    }

    fn alloc(&mut self, entry: Entry) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                entry: None,
            });
            self.slots.len() - 1
        });
        self.slots[idx].entry = Some(entry);
        token_of(self.slots[idx].gen, idx)
    }

    /// Resolves a token to its slot index, rejecting stale generations
    /// (a timer or route for a connection that already died).
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        (idx < self.slots.len() && self.slots[idx].gen == gen && self.slots[idx].entry.is_some())
            .then_some(idx)
    }

    fn token(&self, idx: usize) -> u64 {
        token_of(self.slots[idx].gen, idx)
    }

    fn quiet(&self) -> bool {
        self.shutting_down || self.core.run.stopped.load(Ordering::SeqCst)
    }

    fn run(mut self) -> Vec<(Addr, A, Metrics)> {
        for n in 0..self.nodes.len() {
            self.dispatch(n, NodeEvent::Start);
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.fire_timers();
            self.run_ready();
            self.flush();
            if !self.shutting_down && self.shared.stop.load(Ordering::SeqCst) {
                self.begin_shutdown();
            }
            if self.shutting_down {
                let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if expired || !self.pending_output() {
                    break;
                }
            }
            let busy = !self.ready.is_empty()
                || !self.resumed.is_empty()
                || (self.injects_pending && self.held < CHANNEL_CAP);
            let mut timeout = if busy {
                Duration::ZERO
            } else if self.shutting_down {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(100)
            };
            if let Some(Reverse(due)) = self.timers.peek() {
                timeout = timeout.min(due.when.saturating_duration_since(Instant::now()));
            }
            events.clear();
            self.poller
                .wait(&mut events, Some(timeout))
                .expect("poller wait");
            for ev in events.drain(..) {
                if ev.token == WAKE_TOKEN {
                    self.drain_wake();
                    self.take_injects();
                } else {
                    self.handle_event(ev);
                }
            }
        }
        self.nodes
            .into_iter()
            .map(|n| {
                let addr = n.live.addr();
                let (actor, metrics) = n.live.into_parts();
                (addr, actor, metrics)
            })
            .collect()
    }

    /// Stops every node on this reactor: no more handlers run, backlogs
    /// are dropped, and the loop only drains what is already queued.
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        for node in &mut self.nodes {
            node.backlog.clear();
        }
        self.held = 0;
    }

    /// Anything still owed to the wire? (Connections mid-dial are not
    /// counted: their queued frames are undeliverable pre-stop traffic.)
    fn pending_output(&self) -> bool {
        self.slots.iter().any(|s| {
            matches!(
                &s.entry,
                Some(Entry::Conn(c))
                    if matches!(c.state, ConnState::Established)
                        && c.stream.is_some()
                        && !c.ring.is_empty()
            )
        })
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Order matters: disarm *after* draining and *before* taking the
        // inject queue, so a producer that enqueues after our take either
        // sees the armed flag cleared (and writes a fresh wake byte) or
        // its inject is already in the batch we take.
        self.shared.wake_armed.store(false, Ordering::SeqCst);
    }

    /// Delivers queued injections, leaving the rest in the queue while the
    /// backlogs are at capacity.
    fn take_injects(&mut self) {
        self.injects_pending = false;
        while self.held < CHANNEL_CAP {
            let Ok((to, from, msg)) = self.injects.try_recv() else {
                return;
            };
            if self.shutting_down {
                continue; // the node has stopped
            }
            let Some(&n) = self.node_index.get(&to) else {
                continue;
            };
            self.deliver(n, NodeEvent::Msg { from, msg });
        }
        self.injects_pending = true;
    }

    /// Runs one handler of node `n` and moves what it produced: timers
    /// onto the heap, sends onto the connection rings.
    fn dispatch(&mut self, n: usize, ev: NodeEvent<A::Msg>) {
        let mut sent = std::mem::take(&mut self.sent);
        let mut armed = std::mem::take(&mut self.armed);
        self.nodes[n]
            .live
            .handle(&self.core.run, ev, &mut sent, &mut armed);
        if !armed.is_empty() {
            let now = Instant::now();
            for (delay_ns, kind) in armed.drain(..) {
                self.timer_seq += 1;
                self.timers.push(Reverse(Due {
                    when: now + Duration::from_nanos(delay_ns),
                    seq: self.timer_seq,
                    what: DueKind::Actor(n, kind),
                }));
            }
        }
        for (to, msg) in sent.drain(..) {
            self.send(n, to, msg);
        }
        self.sent = sent;
        self.armed = armed;
    }

    /// Encodes `msg` from node `n` straight onto its connection to `to`,
    /// dialing one if no live route exists.
    fn send(&mut self, n: usize, to: Addr, msg: A::Msg) {
        // The frame: u32 LE payload length, then `(from, msg)`.
        let mut frame = Vec::with_capacity(64);
        frame.extend_from_slice(&[0; 4]);
        self.nodes[n].live.addr().encode(&mut frame);
        msg.encode(&mut frame);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());

        let routed = self.nodes[n].routes.get(&to).copied();
        let idx = match routed.and_then(|t| self.resolve(t)) {
            Some(idx) => idx,
            None => self.open(n, to),
        };
        let token = self.token(idx);
        let Some(conn) = conn_mut(&mut self.slots, idx) else {
            return; // the fresh dial died at once (shutting down)
        };
        conn.ring.push(frame);
        if !conn.flush_queued {
            conn.flush_queued = true;
            self.dirty.push(token);
        }
        if !conn.over && conn.ring.over_budget() {
            conn.over = true;
            self.pause(n);
        }
    }

    /// Opens node `n`'s connection to `to` and makes it the route.
    fn open(&mut self, n: usize, to: Addr) -> usize {
        let me = self.nodes[n].live.addr();
        let peer = self
            .book
            .lookup(to)
            .unwrap_or_else(|| panic!("no endpoint for {to} in the address book"));
        let hello = hello_frame(me, to);
        let hello_debit = hello.len() as u64;
        let mut ring = OutRing::default();
        ring.push(hello);
        let token = self.alloc(Entry::Conn(Conn {
            stream: None,
            state: ConnState::Backoff,
            ring,
            assembler: FrameAssembler::new(),
            can_write: false,
            readable: false,
            owner: n,
            peer: Some(to),
            routed: true,
            dial: Some(Dial { peer, attempts: 0 }),
            hello_debit,
            flush_queued: false,
            over: false,
        }));
        self.nodes[n].routes.insert(to, token);
        let idx = (token & 0xffff_ffff) as usize;
        self.dial(idx);
        idx
    }

    /// One more of node `n`'s rings is over budget.
    fn pause(&mut self, n: usize) {
        self.nodes[n].over += 1;
        if self.nodes[n].over == 1 {
            self.shared.counters.pauses.fetch_add(1, Ordering::Relaxed);
            self.set_node_reads(n, false);
        }
    }

    /// One of node `n`'s over-budget rings drained or died.
    fn unpause(&mut self, n: usize) {
        self.nodes[n].over -= 1;
        if self.nodes[n].over == 0 {
            self.set_node_reads(n, true);
            self.resumed.push(n);
        }
    }

    /// Read interest on every socket of node `n` (matters for the
    /// level-triggered poll backend only).
    fn set_node_reads(&mut self, n: usize, on: bool) {
        for slot in &self.slots {
            if let Some(Entry::Conn(c)) = &slot.entry {
                if c.owner == n {
                    if let Some(s) = &c.stream {
                        self.poller.set_read_interest(s.as_raw_fd(), on);
                    }
                }
            }
        }
    }

    /// Dispatches a timer or an injected message to node `n`, or queues
    /// it on the node's backlog while the node is paused.
    fn deliver(&mut self, n: usize, ev: NodeEvent<A::Msg>) {
        if self.nodes[n].backlogged() {
            self.nodes[n].backlog.push_back(ev);
            self.held += 1;
        } else {
            self.dispatch(n, ev);
        }
    }

    /// Runs a resumed node's backlog in arrival order, then queues its
    /// sockets for reading.
    fn resume(&mut self, n: usize) {
        while self.nodes[n].over == 0 {
            let Some(ev) = self.nodes[n].backlog.pop_front() else {
                break;
            };
            self.held -= 1;
            self.dispatch(n, ev);
        }
        if self.nodes[n].over == 0 {
            for (idx, slot) in self.slots.iter().enumerate() {
                if matches!(&slot.entry, Some(Entry::Conn(c)) if c.owner == n) {
                    self.ready.push(token_of(slot.gen, idx));
                }
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while self.timers.peek().is_some_and(|Reverse(d)| d.when <= now) {
            let Reverse(due) = self.timers.pop().expect("peeked");
            match due.what {
                DueKind::Redial(token) => {
                    if let Some(idx) = self.resolve(token) {
                        self.dial(idx);
                    }
                }
                DueKind::Actor(n, kind) => {
                    if !self.shutting_down {
                        self.deliver(n, NodeEvent::Timer(kind));
                    }
                }
            }
        }
    }

    /// One turn over the work queued outside the poller: resumed nodes,
    /// connections with unread input, and injections left in the queue.
    fn run_ready(&mut self) {
        for n in std::mem::take(&mut self.resumed) {
            if !self.shutting_down && self.nodes[n].over == 0 {
                self.resume(n);
            }
        }
        for token in std::mem::take(&mut self.ready) {
            if let Some(idx) = self.resolve(token) {
                if let Err(close) = self.service_read(idx) {
                    self.kill(idx, close);
                }
            }
        }
        if self.injects_pending && self.held < CHANNEL_CAP {
            self.take_injects();
        }
    }

    /// Drains every ring the batch touched.
    fn flush(&mut self) {
        while let Some(token) = self.dirty.pop() {
            let Some(idx) = self.resolve(token) else {
                continue;
            };
            if let Some(conn) = conn_mut(&mut self.slots, idx) {
                conn.flush_queued = false;
            }
            if let Err(close) = self.drain_ring(idx) {
                self.kill(idx, close);
            }
        }
    }

    fn kill(&mut self, idx: usize, close: Close) {
        let Some(Entry::Conn(conn)) = self.slots[idx].entry.take() else {
            return;
        };
        let me = self.nodes[conn.owner].live.addr();
        let label = match conn.peer {
            Some(p) => format!("{me} <-> {p}"),
            None => format!("into {me} (before its hello)"),
        };
        match close {
            Close::Eof => {}
            Close::Io(e) => {
                if !self.quiet() {
                    eprintln!("net: link {label} died mid-run: {e}");
                }
            }
            Close::Peer(why) => {
                self.shared
                    .counters
                    .peer_errors
                    .fetch_add(1, Ordering::Relaxed);
                if !self.quiet() {
                    eprintln!("net: closing link {label}: {why}");
                }
            }
        }
        let token = self.token(idx);
        if let (true, Some(p)) = (conn.routed, conn.peer) {
            let routes = &mut self.nodes[conn.owner].routes;
            if routes.get(&p) == Some(&token) {
                routes.remove(&p);
            }
        }
        if let Some(s) = &conn.stream {
            self.poller.deregister(s.as_raw_fd());
        }
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(idx);
        if conn.over {
            // Its queued frames are lost with the link; the node goes on.
            self.unpause(conn.owner);
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let Some(idx) = self.resolve(ev.token) else {
            return;
        };
        if matches!(self.slots[idx].entry, Some(Entry::Listener { .. })) {
            if ev.readable || ev.error {
                self.accept_all(idx);
            }
            return;
        }
        if let Err(close) = self.conn_event(idx, ev) {
            self.kill(idx, close);
        }
    }

    fn conn_event(&mut self, idx: usize, ev: Event) -> Result<(), Close> {
        let Some(conn) = conn_mut(&mut self.slots, idx) else {
            return Ok(());
        };
        if matches!(conn.state, ConnState::Connecting) && (ev.writable || ev.error) {
            let fd = conn
                .stream
                .as_ref()
                .expect("connecting has a stream")
                .as_raw_fd();
            match sys::take_socket_error(fd) {
                Ok(()) => self.establish(idx),
                Err(e) => {
                    self.poller.deregister(fd);
                    conn.stream = None;
                    self.dial_failed(idx, e);
                    return Ok(());
                }
            }
        }
        let Some(conn) = conn_mut(&mut self.slots, idx) else {
            return Ok(());
        };
        if matches!(conn.state, ConnState::Established) {
            if ev.writable {
                conn.can_write = true;
                self.drain_ring(idx)?;
            }
            if ev.readable || ev.error {
                if let Some(conn) = conn_mut(&mut self.slots, idx) {
                    conn.readable = true;
                }
                self.service_read(idx)?;
            }
        }
        Ok(())
    }

    fn accept_all(&mut self, idx: usize) {
        let Some(Entry::Listener { node, listener }) = &self.slots[idx].entry else {
            return;
        };
        let node = *node;
        let mut accepted = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _)) => accepted.push(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.shutting_down {
                        break;
                    }
                    panic!("accept on {}: {e}", self.nodes[node].live.addr());
                }
            }
        }
        for stream in accepted {
            stream.set_nonblocking(true).expect("accepted nonblocking");
            stream
                .set_nodelay(true)
                .expect("TCP_NODELAY must be settable");
            self.core.wire.on_socket();
            let fd = stream.as_raw_fd();
            let token = self.alloc(Entry::Conn(Conn {
                stream: Some(stream),
                state: ConnState::Established,
                ring: OutRing::default(),
                assembler: FrameAssembler::new(),
                can_write: true,
                readable: true,
                owner: node,
                peer: None, // learned from the hello
                routed: false,
                dial: None,
                hello_debit: 0,
                flush_queued: false,
                over: false,
            }));
            if let Err(e) = self.poller.register(fd, token) {
                panic!("register accepted socket: {e}");
            }
            if self.nodes[node].over > 0 {
                self.poller.set_read_interest(fd, false);
            }
            // The socket may already hold the hello.
            self.ready.push(token);
        }
    }

    /// Starts (or retries) the nonblocking connect of the connection in
    /// slot `idx`.
    fn dial(&mut self, idx: usize) {
        let token = self.token(idx);
        let Some(conn) = conn_mut(&mut self.slots, idx) else {
            return;
        };
        if !matches!(conn.state, ConnState::Backoff) {
            return;
        }
        let peer = conn.dial.as_ref().expect("dial info").peer;
        let err = match sys::connect_nonblocking(peer) {
            Ok((stream, done)) => {
                let fd = stream.as_raw_fd();
                match self.poller.register(fd, token) {
                    Ok(()) => {
                        conn.stream = Some(stream);
                        if done {
                            self.establish(idx);
                        } else {
                            conn.state = ConnState::Connecting;
                            self.poller.set_write_interest(fd, true);
                        }
                        return;
                    }
                    Err(e) => e,
                }
            }
            Err(e) => e,
        };
        self.dial_failed(idx, err);
    }

    fn dial_failed(&mut self, idx: usize, err: io::Error) {
        if self.shutting_down {
            self.kill(idx, Close::Eof);
            return;
        }
        let token = self.token(idx);
        let Some(conn) = conn_mut(&mut self.slots, idx) else {
            return;
        };
        let d = conn.dial.as_mut().expect("dial info");
        d.attempts += 1;
        if d.attempts >= MAX_DIAL_ATTEMPTS {
            panic!(
                "connect {} -> {:?} ({}): {err} (after {} attempts)",
                self.nodes[conn.owner].live.addr(),
                conn.peer,
                d.peer,
                d.attempts
            );
        }
        conn.state = ConnState::Backoff;
        let when = Instant::now() + backoff_delay(d.attempts);
        self.timer_seq += 1;
        self.timers.push(Reverse(Due {
            when,
            seq: self.timer_seq,
            what: DueKind::Redial(token),
        }));
    }

    /// The connect completed: queue the ring (hello first) for the next
    /// flush and the socket for reading.
    fn establish(&mut self, idx: usize) {
        let token = self.token(idx);
        let paused = {
            let Some(conn) = conn_mut(&mut self.slots, idx) else {
                return;
            };
            conn.state = ConnState::Established;
            conn.can_write = true;
            conn.readable = true;
            conn.flush_queued = true;
            self.nodes[conn.owner].over > 0
        };
        if paused {
            if let Some(s) = conn_mut(&mut self.slots, idx).and_then(|c| c.stream.as_ref()) {
                self.poller.set_read_interest(s.as_raw_fd(), false);
            }
        }
        self.core.wire.on_socket();
        self.dirty.push(token);
        self.ready.push(token);
    }

    /// Writes as much of the ring as the socket accepts, vectored, books
    /// the wire stats (minus the hello handshake), and resumes the owner
    /// once an over-budget ring drains below half.
    fn drain_ring(&mut self, idx: usize) -> Result<(), Close> {
        let Some(conn) = conn_mut(&mut self.slots, idx) else {
            return Ok(());
        };
        if !matches!(conn.state, ConnState::Established) || !conn.can_write {
            return Ok(());
        }
        let Some(stream) = conn.stream.as_mut() else {
            return Ok(());
        };
        let fd = stream.as_raw_fd();
        let mut out = conn.ring.drain_to(stream)?;
        if out.frames > 0 && conn.hello_debit > 0 {
            // The hello is always the first frame out; once a full frame
            // has drained it is gone.
            out.frames -= 1;
            out.bytes = out.bytes.saturating_sub(conn.hello_debit);
            conn.hello_debit = 0;
        }
        self.core.wire.on_frames(out.frames, out.bytes);
        if out.would_block {
            conn.can_write = false;
        }
        self.poller.set_write_interest(fd, out.would_block);
        if conn.over && conn.ring.below_resume_mark() {
            conn.over = false;
            let owner = conn.owner;
            self.unpause(owner);
        }
        Ok(())
    }

    /// Dispatches the frames buffered on connection `idx` and reads more,
    /// until the socket runs dry, its owner pauses, or the turn's read
    /// budget is spent.
    fn service_read(&mut self, idx: usize) -> Result<(), Close> {
        let mut reads = 0;
        loop {
            let token = self.token(idx);
            let quiet = self.quiet();
            let Some(conn) = conn_mut(&mut self.slots, idx) else {
                return Ok(());
            };
            if self.shutting_down {
                // The nodes have stopped; discard input so the peers'
                // final drains complete.
                conn.assembler = FrameAssembler::new();
            } else if self.nodes[conn.owner].over > 0 {
                return Ok(()); // paused: resume re-queues this socket
            } else {
                match conn.assembler.next_frame() {
                    Ok(Some(payload)) => {
                        self.on_frame(idx, payload)?;
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => return Err(Close::Peer(e.to_string())),
                }
            }
            if !conn.readable {
                return Ok(());
            }
            if reads == READS_PER_TURN {
                self.ready.push(token);
                return Ok(());
            }
            reads += 1;
            let stream = conn.stream.as_mut().expect("established has a stream");
            match stream.read(&mut self.read_buf) {
                Ok(0) if conn.assembler.is_mid_frame() && !quiet => {
                    return Err(Close::Peer("stream ended mid-frame".to_string()));
                }
                Ok(0) => return Err(Close::Eof),
                Ok(n) => conn.assembler.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Close::Io(e)),
            }
        }
    }

    /// One reassembled inbound frame: the hello (on an accepted
    /// connection's first frame), or a `(from, msg)` the owner's handler
    /// runs right here.
    fn on_frame(&mut self, idx: usize, payload: Vec<u8>) -> Result<(), Close> {
        let token = self.token(idx);
        let conn = conn_mut(&mut self.slots, idx).expect("frame from a live connection");
        let owner = conn.owner;
        let me = self.nodes[owner].live.addr();
        let Some(peer) = conn.peer else {
            let h = decode_hello(&payload).map_err(|e| Close::Peer(format!("bad hello: {e}")))?;
            if h.to != me {
                return Err(Close::Peer(format!(
                    "hello for {} on the listener of {me}",
                    h.to
                )));
            }
            conn.peer = Some(h.from);
            // Route replies over this connection unless a live route
            // exists (first wins).
            let live = self.nodes[owner]
                .routes
                .get(&h.from)
                .is_some_and(|&t| t != token && self.resolve(t).is_some());
            if !live {
                self.nodes[owner].routes.insert(h.from, token);
                if let Some(conn) = conn_mut(&mut self.slots, idx) {
                    conn.routed = true;
                }
            }
            return Ok(());
        };
        let (from, msg) = from_bytes::<(Addr, A::Msg)>(&payload)
            .map_err(|e| Close::Peer(format!("corrupt frame: {e}")))?;
        if from != peer {
            return Err(Close::Peer(format!(
                "frame from {from} on the link to {peer}"
            )));
        }
        self.shared
            .counters
            .dispatches
            .fetch_add(1, Ordering::Relaxed);
        self.dispatch(owner, NodeEvent::Msg { from, msg });
        Ok(())
    }
}

/// The reactor engine, running: every node on one of the reactor threads
/// that also drive all socket I/O.
pub struct ReactorCluster<A: Actor> {
    core: Arc<ClusterCore<A::Msg>>,
    reactors: Vec<Arc<ReactorShared<A::Msg>>>,
    threads: Vec<JoinHandle<Vec<(Addr, A, Metrics)>>>,
    addrs: Vec<Addr>,
    book: Arc<dyn AddressBook>,
}

impl<A> ReactorCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    /// Binds one loopback listener per node (assembling the loopback
    /// [`StaticBook`]) and starts the pool sized by
    /// `CONTRARIAN_NET_THREADS`.
    pub(crate) fn start(nodes: Vec<(Addr, A)>, recording: bool, seed: u64) -> Self {
        let mut book = StaticBook::default();
        let mut placed = Vec::with_capacity(nodes.len());
        for (addr, actor) in nodes {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            book.insert(addr, l.local_addr().expect("listener has local addr"));
            placed.push((addr, actor, l));
        }
        Self::start_on(placed, Arc::new(book), pool_size(), recording, seed)
    }

    /// Runs each node on reactor `i % pool` (the pool capped at the node
    /// count), listening on its own listener; `book` resolves every
    /// address a node may send to.
    pub(crate) fn start_on(
        nodes: Vec<(Addr, A, TcpListener)>,
        book: Arc<dyn AddressBook>,
        pool: usize,
        recording: bool,
        seed: u64,
    ) -> Self {
        let pool = pool.min(nodes.len()).max(1);
        let mut reactors = Vec::with_capacity(pool);
        let mut ends = Vec::with_capacity(pool);
        for _ in 0..pool {
            let (tx, rx) = bounded(CHANNEL_CAP);
            let (wake_tx, wake_rx) = UnixStream::pair().expect("wake pipe");
            wake_tx.set_nonblocking(true).expect("wake tx nonblocking");
            wake_rx.set_nonblocking(true).expect("wake rx nonblocking");
            reactors.push(Arc::new(ReactorShared {
                injects: tx,
                wake_tx,
                wake_armed: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                counters: Counters::default(),
            }));
            ends.push((rx, wake_rx));
        }
        let mut per: Vec<Vec<(Addr, A, TcpListener)>> = (0..pool).map(|_| Vec::new()).collect();
        let mut ingress = HashMap::new();
        let mut addrs = Vec::with_capacity(nodes.len());
        for (i, (addr, actor, listener)) in nodes.into_iter().enumerate() {
            ingress.insert(addr, reactors[i % pool].clone());
            addrs.push(addr);
            per[i % pool].push((addr, actor, listener));
        }
        let core = Arc::new(ClusterCore::new(recording, Ingress::Reactor(ingress)));
        let mut threads = Vec::with_capacity(pool);
        for (rid, ((injects, wake_rx), nodes)) in ends.into_iter().zip(per).enumerate() {
            let core = core.clone();
            let book = book.clone();
            let shared = reactors[rid].clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cnet-reactor-{rid}"))
                    .spawn(move || {
                        Reactor::new(core, book, shared, injects, wake_rx, nodes, seed).run()
                    })
                    .expect("spawn reactor thread"),
            );
        }
        ReactorCluster {
            core,
            reactors,
            threads,
            addrs,
            book,
        }
    }

    pub(crate) fn core(&self) -> Arc<ClusterCore<A::Msg>> {
        self.core.clone()
    }

    pub(crate) fn endpoint(&self, node: Addr) -> Option<SocketAddr> {
        self.book.lookup(node)
    }

    pub(crate) fn io_stats(&self) -> NetIoStats {
        let sum = |f: fn(&Counters) -> &AtomicU64| -> u64 {
            self.reactors
                .iter()
                .map(|r| f(&r.counters).load(Ordering::Relaxed))
                .sum()
        };
        NetIoStats {
            transport_threads: self.threads.len(),
            sockets: self.core.wire.sockets(),
            wake_writes: sum(|c| &c.wake_writes),
            inline_dispatches: sum(|c| &c.dispatches),
            backpressure_pauses: sum(|c| &c.pauses),
            peer_errors: sum(|c| &c.peer_errors),
        }
    }

    /// Stops every node, drains and tears down the sockets; returns the
    /// final actors and their merged metrics. A reactor that panicked
    /// mid-run (an unreachable peer) fails the shutdown here.
    pub(crate) fn shutdown(self) -> (Vec<(Addr, A)>, Metrics) {
        self.core.run.stopped.store(true, Ordering::SeqCst);
        for r in &self.reactors {
            r.shutdown();
        }
        let mut done = HashMap::new();
        for t in self.threads {
            match t.join() {
                Ok(nodes) => done.extend(nodes.into_iter().map(|(a, actor, m)| (a, (actor, m)))),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        let mut actors = Vec::with_capacity(self.addrs.len());
        let mut metrics = Metrics::new();
        for addr in self.addrs {
            let (actor, local) = done.remove(&addr).expect("every node comes back");
            metrics.absorb(&local);
            actors.push((addr, actor));
        }
        (actors, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{Echo, Ping};
    use crate::cluster::{NetCluster, NetKind};
    use crate::conn::RING_HIGH;
    use contrarian_runtime::actor::ActorCtx;
    use contrarian_runtime::cost::{MsgClass, SimMessage};
    use contrarian_runtime::frame::encode_frame;
    use contrarian_types::codec::{CodecError, Reader};
    use contrarian_types::{DcId, Op, PartitionId};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn pool_parse_defaults_and_rejects() {
        assert!(parse_pool(None).unwrap() >= 1);
        assert_eq!(parse_pool(Some("3")).unwrap(), 3);
        assert!(parse_pool(Some("0")).is_err());
        assert!(parse_pool(Some("many")).is_err());
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        assert_eq!(backoff_delay(1), Duration::from_millis(2));
        assert_eq!(backoff_delay(2), Duration::from_millis(4));
        assert_eq!(backoff_delay(7), Duration::from_millis(128));
        assert_eq!(backoff_delay(8), Duration::from_millis(250));
        assert_eq!(backoff_delay(40), Duration::from_millis(250));
    }

    /// Polls `cond` every 2 ms until it holds or `secs` pass.
    fn wait_until(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !cond() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Both directions of a chatty pair must share one socket: the dialer
    /// counts one endpoint at establish, the acceptor one at accept, and
    /// the reply path reuses the accepted connection via its hello.
    #[test]
    fn peer_pair_shares_one_multiplexed_socket() {
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
        let cluster = NetCluster::start_with(nodes, false, 11, NetKind::Reactor);
        assert!(wait_until(10, || cluster.wire_stats().0 >= 100));
        let stats = cluster.io_stats();
        assert_eq!(
            stats.sockets, 2,
            "one dial + one accept: the reply path must reuse the dialed socket"
        );
        assert_eq!(stats.transport_threads, pool_size().min(2));
        let (actors, ..) = cluster.shutdown();
        assert_eq!(
            actors.iter().find(|(a, _)| *a == client).unwrap().1.pongs,
            50
        );
    }

    /// The probe message: a padded blob (flooding) or a counted ball
    /// (rallies).
    #[derive(Clone, Debug, PartialEq)]
    enum Probe {
        Blob { seq: u64, len: u32 },
        Ball(u32),
    }

    impl SimMessage for Probe {
        fn wire_size(&self) -> usize {
            16
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    impl Wire for Probe {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Probe::Blob { seq, len } => {
                    0u8.encode(out);
                    seq.encode(out);
                    len.encode(out);
                    out.resize(out.len() + *len as usize, 0xb1);
                }
                Probe::Ball(n) => {
                    1u8.encode(out);
                    n.encode(out);
                }
            }
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            match u8::decode(r)? {
                0 => {
                    let seq = u64::decode(r)?;
                    let len = u32::decode(r)?;
                    r.take(len as usize)?;
                    Ok(Probe::Blob { seq, len })
                }
                1 => Ok(Probe::Ball(u32::decode(r)?)),
                tag => Err(CodecError::BadTag { what: "probe", tag }),
            }
        }
    }

    enum Role {
        /// Sends `total` blobs to `to`, a burst per zero-delay timer.
        Flood {
            to: Addr,
            total: u64,
            sent: Arc<AtomicU64>,
        },
        /// Echoes every message back to its sender.
        Echo,
        /// An injected `Ball(n)` starts `n` round trips with `peer`.
        Rally { peer: Addr, done: Arc<AtomicU64> },
        /// Arms one timer at start and records when it fired, and where.
        Alarm {
            armed_at: u64,
            fired: Arc<Mutex<Option<(u64, String)>>>,
        },
    }

    /// Blobs per flood burst.
    const BURST: u64 = 64;

    impl Actor for Role {
        type Msg = Probe;

        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Probe>) {
            match self {
                Role::Flood { .. } => ctx.set_timer(0, TimerKind::new(1)),
                Role::Alarm { armed_at, .. } => {
                    *armed_at = ctx.now();
                    ctx.set_timer(30_000_000, TimerKind::new(2));
                }
                Role::Echo | Role::Rally { .. } => {}
            }
        }

        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Probe>, from: Addr, msg: Probe) {
            match self {
                Role::Echo => ctx.send(from, msg),
                Role::Rally { peer, done } => {
                    let Probe::Ball(n) = msg else { return };
                    if from == ctx.self_addr() {
                        ctx.send(*peer, Probe::Ball(n));
                        return;
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    if n > 1 {
                        ctx.send(*peer, Probe::Ball(n - 1));
                    }
                }
                Role::Flood { .. } | Role::Alarm { .. } => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Probe>, _kind: TimerKind) {
            match self {
                Role::Flood { to, total, sent } => {
                    let mut n = sent.load(Ordering::SeqCst);
                    let end = (n + BURST).min(*total);
                    while n < end {
                        ctx.send(
                            *to,
                            Probe::Blob {
                                seq: n,
                                len: 16 * 1024,
                            },
                        );
                        n += 1;
                    }
                    sent.store(n, Ordering::SeqCst);
                    if n < *total {
                        ctx.set_timer(0, TimerKind::new(1));
                    }
                }
                Role::Alarm { fired, .. } => {
                    let thread = std::thread::current().name().unwrap_or("").to_string();
                    *fired.lock().unwrap() = Some((ctx.now(), thread));
                }
                Role::Echo | Role::Rally { .. } => {}
            }
        }

        fn inject(_op: Op) -> Probe {
            Probe::Ball(1)
        }
    }

    fn listener() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let at = l.local_addr().unwrap();
        (l, at)
    }

    /// Starts `nodes` on one reactor with a loopback listener each; `book`
    /// gets their endpoints on top of whatever external peers it holds.
    fn one_reactor<A>(nodes: Vec<(Addr, A)>, mut book: StaticBook) -> ReactorCluster<A>
    where
        A: Actor + Send + 'static,
        A::Msg: Wire,
    {
        let placed = nodes
            .into_iter()
            .map(|(addr, actor)| {
                let (l, at) = listener();
                book.insert(addr, at);
                (addr, actor, l)
            })
            .collect();
        ReactorCluster::start_on(placed, Arc::new(book), 1, false, 1)
    }

    /// Reads length-prefixed frames off a test-side (std, blocking)
    /// socket until `want` payloads arrived.
    fn read_payloads(stream: &mut TcpStream, want: usize) -> Vec<Vec<u8>> {
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        while got.len() < want {
            let n = stream.read(&mut buf).expect("read from reactor socket");
            assert!(n > 0, "reactor closed the link early");
            asm.extend(&buf[..n]);
            loop {
                match asm.next_frame() {
                    Ok(Some(p)) => got.push(p),
                    Ok(None) => break,
                    Err(e) => panic!("bad frame from reactor: {e}"),
                }
            }
        }
        got
    }

    /// Sends a fixed list of pings from `on_start`.
    struct Sends(Vec<(Addr, u32)>);

    impl Actor for Sends {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            for (to, n) in self.0.drain(..) {
                ctx.send(to, Ping(n));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, _msg: Ping) {}
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    /// A dead peer must back off on the reactor's timers — while it does,
    /// other connections on the same (single) reactor keep flowing, and
    /// once the listener appears the queued frames arrive.
    #[test]
    fn dial_backoff_is_scheduled_not_slept() {
        let me = Addr::client(DcId(0), 0);
        let dead = Addr::server(DcId(0), PartitionId(0));
        let live = Addr::server(DcId(0), PartitionId(1));
        // Reserve a port for `dead`, then free it.
        let (l, dead_at) = listener();
        drop(l);
        let (live_l, live_at) = listener();

        let mut book = StaticBook::default();
        book.insert(dead, dead_at);
        book.insert(live, live_at);
        // Queue to the dead peer first: a sleeping backoff would stall the
        // transport ~¾ s; the reactor schedules it instead.
        let cluster = one_reactor(vec![(me, Sends(vec![(dead, 7), (live, 1)]))], book);

        // The live link delivers while the dead one is backing off.
        let (mut s, _) = live_l.accept().expect("live link accepted");
        let payloads = read_payloads(&mut s, 2);
        let hello = decode_hello(&payloads[0]).expect("first frame is the hello");
        assert_eq!((hello.from, hello.to), (me, live));
        let (from, msg) = from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap();
        assert_eq!((from, msg), (me, Ping(1)));

        // Now bring the dead listener up; the scheduled redial reaches it.
        // (The port can be lost to another process between the probe and
        // here — in that case the redial coverage is forfeited, same
        // caveat as the threads engine's late-listener test.)
        if let Ok(dl) = TcpListener::bind(dead_at) {
            let (mut s, _) = dl.accept().expect("redial reached the late listener");
            let payloads = read_payloads(&mut s, 2);
            assert_eq!(
                from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap(),
                (me, Ping(7)),
                "frames queued during backoff arrive after the reconnect"
            );
        }
        cluster.shutdown();
    }

    /// The claim of the engine in one counter: frames between nodes are
    /// dispatched on the reactor that reads them, so however many round
    /// trips a two-node echo makes, no wake pipe is ever written.
    #[test]
    fn echo_round_trips_write_no_wake_pipe() {
        for rounds in [10u32, 400] {
            let server = Addr::server(DcId(0), PartitionId(0));
            let client = Addr::client(DcId(0), 0);
            let done = Arc::new(AtomicU64::new(0));
            let rally = Role::Rally {
                peer: server,
                done: done.clone(),
            };
            let cluster = NetCluster::start_with(
                vec![(server, Role::Echo), (client, rally)],
                false,
                5,
                NetKind::Reactor,
            );
            let before = cluster.io_stats();
            cluster.handle().send(client, client, Probe::Ball(rounds));
            assert!(wait_until(10, || cluster.io_stats().inline_dispatches
                >= 2 * rounds as u64));
            let after = cluster.io_stats();
            assert_eq!(done.load(Ordering::SeqCst), rounds as u64);
            assert_eq!(
                after.inline_dispatches - before.inline_dispatches,
                2 * rounds as u64,
                "every frame dispatched once, on the reactor that read it"
            );
            assert_eq!(
                after.wake_writes - before.wake_writes,
                1,
                "{rounds} round trips: the one injection wakes its reactor, no frame does"
            );
            assert_eq!(cluster.wire_stats().0, 2 * rounds as u64);
            cluster.shutdown();
        }
    }

    /// Actor timers live on the reactor's heap: they fire on the reactor
    /// thread, not before their delay and not long after.
    #[test]
    fn actor_timer_fires_on_the_reactor() {
        let node = Addr::server(DcId(0), PartitionId(0));
        let fired = Arc::new(Mutex::new(None));
        let alarm = Role::Alarm {
            armed_at: 0,
            fired: fired.clone(),
        };
        let cluster = NetCluster::start_with(vec![(node, alarm)], false, 3, NetKind::Reactor);
        assert!(wait_until(5, || fired.lock().unwrap().is_some()));
        let (actors, ..) = cluster.shutdown();
        let Role::Alarm { armed_at, .. } = &actors[0].1 else {
            unreachable!()
        };
        let (at, thread) = fired.lock().unwrap().clone().unwrap();
        let late_ms = (at - *armed_at) as f64 / 1e6 - 30.0;
        assert!(
            (0.0..250.0).contains(&late_ms),
            "30 ms timer fired {late_ms:.2} ms late"
        );
        assert!(thread.starts_with("cnet-reactor-"), "fired on `{thread}`");
    }

    /// A sender floods a peer that stops reading. Its ring crosses the
    /// budget and the reactor pauses the sender instead of blocking: the
    /// queue stops growing, another pair on the same reactor keeps
    /// rallying, and once the peer reads again every frame arrives in
    /// order — including the ones still queued when shutdown began.
    #[test]
    fn flood_into_a_stalled_peer_pauses_the_sender_not_the_reactor() {
        const TOTAL: u64 = 2048; // 32 MiB of 16 KiB blobs
        let flood = Addr::client(DcId(0), 0);
        let rally = Addr::client(DcId(0), 1);
        let echo = Addr::server(DcId(0), PartitionId(0));
        let sink = Addr::server(DcId(1), PartitionId(0));
        let (sink_l, sink_at) = listener();
        let mut book = StaticBook::default();
        book.insert(sink, sink_at);
        let sent = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let cluster = one_reactor(
            vec![
                (
                    flood,
                    Role::Flood {
                        to: sink,
                        total: TOTAL,
                        sent: sent.clone(),
                    },
                ),
                (
                    rally,
                    Role::Rally {
                        peer: echo,
                        done: done.clone(),
                    },
                ),
                (echo, Role::Echo),
            ],
            book,
        );
        let (mut sink_s, _) = sink_l.accept().expect("flooder dials the sink");

        // The sink reads nothing: the flooder must pause, then stall.
        assert!(wait_until(20, || cluster.io_stats().backpressure_pauses >= 1));
        let mut last = u64::MAX;
        assert!(wait_until(20, || {
            let now = sent.load(Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(50));
            std::mem::replace(&mut last, now) == now
        }));
        let stalled = sent.load(Ordering::SeqCst);
        assert!(stalled < TOTAL, "the flood must stall before it ends");
        let frame_len = 4 + 4 + 1 + 8 + 4 + 16 * 1024;
        let queued = (stalled - cluster.core.wire.frames_bytes().0) as usize * frame_len;
        assert!(
            queued <= RING_HIGH + BURST as usize * frame_len,
            "{queued} bytes queued: the ring must stay near its budget"
        );

        // The reactor is not blocked: the other pair still rallies.
        cluster.core.inject(rally, rally, Probe::Ball(200));
        assert!(wait_until(10, || done.load(Ordering::SeqCst) == 200));
        assert_eq!(sent.load(Ordering::SeqCst), stalled, "still paused");

        // The sink reads again: every blob arrives, in order.
        let reader = std::thread::spawn(move || {
            let mut asm = FrameAssembler::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut next = 0u64;
            let mut hello = false;
            loop {
                let n = sink_s.read(&mut buf).expect("sink read");
                if n == 0 {
                    assert!(!asm.is_mid_frame(), "shutdown cut a frame");
                    return next;
                }
                asm.extend(&buf[..n]);
                while let Some(p) = asm.next_frame().expect("valid frames") {
                    if !hello {
                        hello = decode_hello(&p).is_ok();
                        assert!(hello, "the hello comes first");
                        continue;
                    }
                    let (from, msg) = from_bytes::<(Addr, Probe)>(&p).expect("blob");
                    assert_eq!(from, flood);
                    assert_eq!(
                        msg,
                        Probe::Blob {
                            seq: next,
                            len: 16 * 1024
                        }
                    );
                    next += 1;
                }
            }
        });
        assert!(wait_until(20, || sent.load(Ordering::SeqCst) == TOTAL));
        let pauses = cluster.io_stats().backpressure_pauses;
        // Shutdown drains whatever the ring still holds, then closes.
        cluster.shutdown();
        assert_eq!(reader.join().unwrap(), TOTAL, "per-link FIFO, nothing lost");
        assert!(pauses >= 1);
    }

    /// Writes `bytes` to `at` on a fresh connection and closes it.
    fn hostile(at: SocketAddr, bytes: &[u8]) {
        let mut s = TcpStream::connect(at).expect("reach the listener");
        s.write_all(bytes).expect("hostile write");
    }

    /// Every way a peer can break the frame stream closes that one
    /// connection and is counted; the cluster keeps serving.
    #[test]
    fn hostile_peers_close_only_their_own_connection() {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let stranger = Addr::client(DcId(3), 9);
        let done = Arc::new(AtomicU64::new(0));
        let cluster = one_reactor(
            vec![
                (server, Role::Echo),
                (
                    client,
                    Role::Rally {
                        peer: server,
                        done: done.clone(),
                    },
                ),
            ],
            StaticBook::default(),
        );
        let at = cluster.endpoint(server).unwrap();
        let hello = hello_frame(stranger, server);
        let with_hello = |tail: &[u8]| [&hello[..], tail].concat();
        let mut spoofed = Vec::new();
        client.encode(&mut spoofed);
        Probe::Ball(1).encode(&mut spoofed);
        let cases: Vec<Vec<u8>> = vec![
            u32::MAX.to_le_bytes().to_vec(),       // oversize length prefix
            encode_frame(b"not a hello at all"),   // bad hello
            hello_frame(client, client),           // hello for another node
            with_hello(&encode_frame(&[0xee; 3])), // corrupt frame
            with_hello(&encode_frame(&spoofed)),   // frame from a third node
            with_hello(&[100, 0, 0, 0, 1, 2, 3]),  // stream ends mid-frame
        ];
        for bytes in &cases {
            hostile(at, bytes);
        }
        assert!(wait_until(10, || cluster.io_stats().peer_errors == cases.len() as u64));
        cluster.core.inject(client, client, Probe::Ball(50));
        assert!(wait_until(10, || done.load(Ordering::SeqCst) == 50));
        cluster.shutdown();
    }
}
