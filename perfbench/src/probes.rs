//! The hop ladder: small timed probes that split one operation's latency
//! into hops, codec work, frame reassembly and server handler time.
//!
//! * An echo between two nodes, over a [`NetCluster`] (reactor, loopback
//!   sockets) and over the in-process [`LiveCluster`] (channels, no
//!   sockets): the cost of one round trip with and without the wire.
//! * The workload's own message mix, captured by driving one client and
//!   every server by hand through a [`ScriptCtx`]: per-message encode,
//!   decode and frame-reassembly time, per-op server handler time, and
//!   the number of hops on a ROT's critical path.

use crate::stats::{median, percentile};
use contrarian_net::{NetCluster, NetKind};
use contrarian_protocol::{Node, ProtoNode, ProtocolSpec};
use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
use contrarian_runtime::cost::{MsgClass, SimMessage};
use contrarian_runtime::{encode_frame, FrameAssembler, ScriptCtx};
use contrarian_transport::LiveCluster;
use contrarian_types::codec::{from_bytes, to_bytes, CodecError, Reader};
use contrarian_types::{Addr, ClusterConfig, DcId, HistoryEvent, Op, PartitionId, Wire};
use contrarian_workload::{ClientDriver, OpSource, WorkloadSpec, Zipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round trips timed per echo probe.
const ECHO_ROUND_TRIPS: u64 = 4_000;
/// Longest an echo probe may take.
const ECHO_TIMEOUT: Duration = Duration::from_secs(30);
/// Ops completed in the scripted drive.
const DRIVE_OPS: usize = 3_000;
/// Virtual time that passes per delivered message in the scripted drive
/// (about one frame's share of an op at loopback speed), so periodic
/// server timers interleave with op traffic at a realistic rate.
const DRIVE_STEP_NS: u64 = 15_000;
/// Repetitions of each codec/frame timing; the median is reported.
const REPEATS: usize = 7;
/// Bytes handed to the frame assembler per call, like one socket read.
const READ_CHUNK: usize = 16 * 1024;

/// A timestamped ping; the server echoes it back unchanged.
#[derive(Clone, Debug)]
pub struct Ping(u64);

impl SimMessage for Ping {
    fn wire_size(&self) -> usize {
        8
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
        Ok(Ping(u64::decode(r)?))
    }
}

/// Echo server, or a client that keeps one ping in flight and records
/// every round trip.
pub struct Echo {
    peer: Option<Addr>,
    rtts: Vec<u64>,
    done: Arc<AtomicU64>,
}

impl Actor for Echo {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
        if let Some(peer) = self.peer {
            let now = ctx.now();
            ctx.send(peer, Ping(now));
        }
    }

    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
        if self.peer.is_none() {
            ctx.send(from, msg);
            return;
        }
        let now = ctx.now();
        self.rtts.push(now - msg.0);
        self.done.store(self.rtts.len() as u64, Ordering::Relaxed);
        if (self.rtts.len() as u64) < ECHO_ROUND_TRIPS {
            ctx.send(from, Ping(now));
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}

    fn inject(_op: Op) -> Ping {
        Ping(0)
    }
}

fn echo_nodes(done: &Arc<AtomicU64>) -> (Vec<(Addr, Echo)>, Addr) {
    let server = Addr::server(DcId(0), PartitionId(0));
    let client = Addr::client(DcId(0), 0);
    let node = |peer| Echo {
        peer,
        rtts: Vec::new(),
        done: done.clone(),
    };
    (
        vec![(server, node(None)), (client, node(Some(server)))],
        client,
    )
}

fn wait_for(done: &AtomicU64) -> Result<(), String> {
    let deadline = Instant::now() + ECHO_TIMEOUT;
    while done.load(Ordering::Relaxed) < ECHO_ROUND_TRIPS {
        if Instant::now() > deadline {
            return Err(format!("echo probe stalled after {ECHO_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Median round trip of the echo's second half (the first half warms the
/// path), in µs.
fn rtt_p50_us(actors: Vec<(Addr, Echo)>, client: Addr) -> f64 {
    let mut rtts = actors
        .into_iter()
        .find(|(a, _)| *a == client)
        .map(|(_, e)| e.rtts)
        .unwrap_or_default();
    let mut tail = rtts.split_off(rtts.len() / 2);
    tail.sort_unstable();
    percentile(&tail, 50.0) as f64 / 1e3
}

/// Echo round trip over loopback TCP (reactor engine), p50 µs.
pub fn tcp_rtt_p50_us(seed: u64) -> Result<f64, String> {
    let done = Arc::new(AtomicU64::new(0));
    let (nodes, client) = echo_nodes(&done);
    let cluster = NetCluster::start_with(nodes, false, seed, NetKind::Reactor);
    let waited = wait_for(&done);
    cluster.stop_issuing();
    let (actors, _, _) = cluster.shutdown();
    waited.map(|()| rtt_p50_us(actors, client))
}

/// Echo round trip over the in-process transport, p50 µs.
pub fn inproc_rtt_p50_us(seed: u64) -> Result<f64, String> {
    let done = Arc::new(AtomicU64::new(0));
    let (nodes, client) = echo_nodes(&done);
    let cluster = LiveCluster::start(nodes, false, seed);
    let waited = wait_for(&done);
    cluster.stop_issuing();
    let (actors, _, _) = cluster.shutdown();
    waited.map(|()| rtt_p50_us(actors, client))
}

/// What the scripted drive measured.
#[derive(Clone, Debug, Default)]
pub struct Drive {
    /// Every delivered message, encoded.
    pub mix: Vec<Vec<u8>>,
    pub rots: u64,
    pub puts: u64,
    /// Server `on_message` time caused by each kind of op, ns.
    pub rot_handler_ns: u64,
    pub put_handler_ns: u64,
    /// Sum over ROTs of the hop count of the message that completed it.
    pub rot_hops: u64,
}

impl Drive {
    pub fn handler_rot_ns(&self) -> f64 {
        self.rot_handler_ns as f64 / self.rots.max(1) as f64
    }

    pub fn handler_put_ns(&self) -> f64 {
        self.put_handler_ns as f64 / self.puts.max(1) as f64
    }

    pub fn hops_per_rot(&self) -> f64 {
        self.rot_hops as f64 / self.rots.max(1) as f64
    }
}

/// A message in flight in the scripted drive. `hops` counts the messages
/// on the causal chain from the client's request (0 for timer traffic).
struct InFlight<M> {
    from: Addr,
    to: Addr,
    msg: M,
    hops: u64,
}

/// Drives one closed-loop client and every server of `cfg` by hand until
/// `DRIVE_OPS` ops complete, delivering messages in FIFO order and firing
/// timers as virtual time passes.
pub fn drive<P: ProtocolSpec>(cfg: &ClusterConfig, wl: &WorkloadSpec, seed: u64) -> Drive {
    let cfg = P::normalize(cfg.clone());
    let mut init = SmallRng::seed_from_u64(seed);
    let mut nodes: BTreeMap<Addr, ProtoNode<P>> = BTreeMap::new();
    for dc in 0..cfg.n_dcs {
        for part in 0..cfg.n_partitions {
            let addr = Addr::server(DcId(dc), PartitionId(part));
            nodes.insert(addr, Node::Server(P::server(addr, &cfg, &mut init)));
        }
    }
    let client = Addr::client(DcId(0), 0);
    let zipf = Arc::new(Zipf::new(cfg.keys_per_partition, wl.zipf_theta));
    let driver = ClientDriver::new(wl.clone(), zipf, cfg.n_partitions);
    nodes.insert(
        client,
        Node::Client(P::client(client, &cfg, OpSource::closed(driver))),
    );

    let mut ctx: ScriptCtx<P::Msg> = ScriptCtx::new(client);
    ctx.rng = SmallRng::seed_from_u64(seed);
    let mut queue: VecDeque<InFlight<P::Msg>> = VecDeque::new();
    // (fire_at, arming order, node, kind)
    let mut timers: Vec<(u64, u64, Addr, TimerKind)> = Vec::new();
    let mut armed = 0u64;
    let mut collect = |ctx: &mut ScriptCtx<P::Msg>,
                       queue: &mut VecDeque<InFlight<P::Msg>>,
                       timers: &mut Vec<(u64, u64, Addr, TimerKind)>,
                       hops: u64| {
        let at = ctx.addr;
        // A client's send opens a causal chain; a server extends the
        // chain of the message it is handling; timer work belongs to none.
        let hops = match (at.is_server(), hops) {
            (false, _) => 1,
            (true, 0) => 0,
            (true, h) => h + 1,
        };
        for (to, msg) in ctx.drain_sent() {
            queue.push_back(InFlight {
                from: at,
                to,
                msg,
                hops,
            });
        }
        for (t, kind) in ctx.timers.drain(..) {
            timers.push((t, armed, at, kind));
            armed += 1;
        }
    };
    for (&addr, node) in nodes.iter_mut() {
        ctx.at(addr, 0);
        node.on_start(&mut ctx);
        collect(&mut ctx, &mut queue, &mut timers, 0);
    }

    let mut out = Drive::default();
    let mut now = 0u64;
    let mut op_ns = 0u64;
    while out.rots + out.puts < DRIVE_OPS as u64 {
        // Fire every timer due by now; with nothing to deliver, jump to
        // the next one.
        let next_timer = timers.iter().map(|t| (t.0, t.1)).min();
        let due = match (next_timer, queue.is_empty()) {
            (Some((t, _)), false) if t <= now => next_timer,
            (Some(_), true) => next_timer,
            _ => None,
        };
        if let Some(key) = due {
            let i = timers
                .iter()
                .position(|t| (t.0, t.1) == key)
                .expect("timer present");
            let (t, _, addr, kind) = timers.swap_remove(i);
            now = now.max(t);
            ctx.at(addr, now);
            nodes
                .get_mut(&addr)
                .expect("timer node")
                .on_timer(&mut ctx, kind);
            collect(&mut ctx, &mut queue, &mut timers, 0);
            continue;
        }
        let Some(m) = queue.pop_front() else {
            break; // nothing in flight and no timer armed
        };
        now += DRIVE_STEP_NS;
        out.mix.push(to_bytes(&m.msg));
        let history_before = ctx.history.len();
        ctx.at(m.to, now);
        let node = nodes.get_mut(&m.to).expect("message to a known node");
        let t0 = Instant::now();
        node.on_message(&mut ctx, m.from, m.msg);
        let took = t0.elapsed().as_nanos() as u64;
        if m.to.is_server() && m.hops > 0 {
            op_ns += took;
        }
        for ev in &ctx.history[history_before..] {
            match ev {
                HistoryEvent::RotDone { .. } => {
                    out.rots += 1;
                    out.rot_handler_ns += op_ns;
                    out.rot_hops += m.hops;
                }
                HistoryEvent::PutDone { .. } => {
                    out.puts += 1;
                    out.put_handler_ns += op_ns;
                }
            }
            op_ns = 0;
        }
        collect(&mut ctx, &mut queue, &mut timers, m.hops);
    }
    out
}

/// Per-message encode, decode and frame-reassembly time over a captured
/// mix, ns: `(encode, decode, assemble)`, each the median of
/// [`REPEATS`] passes.
pub fn codec_ns<P: ProtocolSpec>(mix: &[Vec<u8>]) -> Result<(f64, f64, f64), String> {
    let n = mix.len().max(1) as f64;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut asm = Vec::new();
    let stream: Vec<u8> = mix.iter().flat_map(|m| encode_frame(m)).collect();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let msgs: Vec<P::Msg> = mix
            .iter()
            .map(|b| from_bytes::<P::Msg>(std::hint::black_box(b)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("captured message failed to decode: {e}"))?;
        dec.push(t0.elapsed().as_nanos() as f64 / n);

        let t0 = Instant::now();
        let mut bytes = 0usize;
        for m in &msgs {
            bytes += std::hint::black_box(to_bytes(m)).len();
        }
        enc.push(t0.elapsed().as_nanos() as f64 / n);
        std::hint::black_box(bytes);

        let t0 = Instant::now();
        let mut fa = FrameAssembler::new();
        let mut frames = 0usize;
        for chunk in stream.chunks(READ_CHUNK) {
            fa.extend(chunk);
            while let Some(f) = fa.next_frame().map_err(|e| format!("{e:?}"))? {
                std::hint::black_box(&f);
                frames += 1;
            }
        }
        asm.push(t0.elapsed().as_nanos() as f64 / n);
        if frames != mix.len() {
            return Err(format!(
                "frame assembler returned {frames} of {} frames",
                mix.len()
            ));
        }
    }
    Ok((median(&enc), median(&dec), median(&asm)))
}
