//! The TCP runtime runs the same state machines as the simulator and the
//! in-process transport; these tests push real bytes through loopback
//! sockets and re-check causal consistency on the resulting histories
//! with the same checker used for simulated runs.

use contrarian::harness::check_causal;
use contrarian::protocol::build_net_cluster;
use contrarian::types::{ClusterConfig, HistoryEvent, Key, Op};
use contrarian::workload::WorkloadSpec;
use std::time::Duration;

fn net_config() -> (ClusterConfig, WorkloadSpec) {
    (
        ClusterConfig::small().for_wall_clock(),
        WorkloadSpec::paper_default().with_rot_size(2),
    )
}

#[test]
fn tcp_contrarian_cluster_is_causally_consistent() {
    let (cfg, wl) = net_config();
    let cluster =
        build_net_cluster::<contrarian::core_protocol::Contrarian>(&cfg, &wl, 4, 111, true);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, metrics, history) = cluster.shutdown();
    assert!(
        history.len() > 50,
        "little progress over sockets: {}",
        history.len()
    );
    assert!(metrics.counter("net.frames_sent") > 0);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn tcp_okapi_cluster_is_causally_consistent() {
    let (cfg, wl) = net_config();
    let cluster = build_net_cluster::<contrarian::okapi::Okapi>(&cfg, &wl, 4, 113, true);
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let (_, _, history) = cluster.shutdown();
    assert!(history.len() > 50);
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}

#[test]
fn tcp_interactive_injection_round_trips() {
    use contrarian::clock::PhysicalClockModel;
    use contrarian::net::NetCluster;
    use contrarian::types::{Addr, DcId, PartitionId};
    use contrarian::workload::OpSource;

    let (cfg, _) = net_config();
    let mut nodes = Vec::new();
    for p in 0..cfg.n_partitions {
        let addr = Addr::server(DcId(0), PartitionId(p));
        nodes.push((
            addr,
            contrarian::core_protocol::Node::Server(contrarian::core_protocol::Server::new(
                addr,
                cfg.clone(),
                PhysicalClockModel::perfect(),
            )),
        ));
    }
    let client = Addr::client(DcId(0), 0);
    let (source, _q) = OpSource::queue();
    nodes.push((
        client,
        contrarian::core_protocol::Node::Client(contrarian::core_protocol::Client::new(
            client,
            cfg.clone(),
            source,
        )),
    ));

    let cluster = NetCluster::start(nodes, true, 17);
    let handle = cluster.handle();
    let mut cursor = 0;

    cluster.inject_op(client, Op::Put(Key(2), "sockets".into()));
    let put = handle.wait_for_history(&mut cursor, Duration::from_secs(5), |ev| {
        matches!(ev, HistoryEvent::PutDone { .. })
    });
    assert!(put.is_some(), "PUT did not complete over TCP");

    cluster.inject_op(client, Op::Rot(vec![Key(2)]));
    let rot = handle.wait_for_history(&mut cursor, Duration::from_secs(5), |ev| {
        matches!(ev, HistoryEvent::RotDone { .. })
    });
    match rot {
        Some(HistoryEvent::RotDone { values, .. }) => {
            assert_eq!(values[0].as_deref(), Some(&b"sockets"[..]));
        }
        other => panic!("ROT did not complete over TCP: {other:?}"),
    }
    cluster.shutdown();
}

/// A peer writing garbage at a server's listener mid-run costs that one
/// connection, never the process: the reactor closes and counts it, the
/// cluster keeps completing operations, and the history stays causal.
#[test]
fn tcp_garbage_from_a_peer_closes_only_its_connection() {
    use contrarian::net::NetKind;
    use contrarian::protocol::build_net_cluster_on;
    use contrarian::types::{Addr, DcId, PartitionId};
    use std::io::Write;

    let (cfg, wl) = net_config();
    let cluster = build_net_cluster_on::<contrarian::core_protocol::Contrarian>(
        &cfg,
        &wl,
        4,
        117,
        true,
        NetKind::Reactor,
    );
    std::thread::sleep(Duration::from_millis(100));
    let at = cluster
        .endpoint(Addr::server(DcId(0), PartitionId(0)))
        .expect("server listens");
    for garbage in [&b"\xff\xff\xff\xffjunk"[..], b"\x08\x00\x00\x00garbage!"] {
        let mut s = std::net::TcpStream::connect(at).expect("reach the listener");
        s.write_all(garbage).expect("write garbage");
    }
    let after = cluster.now();
    std::thread::sleep(Duration::from_millis(300));
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(100));
    let peer_errors = cluster.io_stats().peer_errors;
    let (_, _, history) = cluster.shutdown();
    assert!(peer_errors >= 1, "garbage must be counted: {peer_errors}");
    let later = history
        .iter()
        .filter(|ev| match ev {
            HistoryEvent::RotDone { t_start, .. } | HistoryEvent::PutDone { t_start, .. } => {
                *t_start > after
            }
        })
        .count();
    assert!(later > 20, "only {later} ops after the garbage");
    let report = check_causal(&history);
    assert!(report.ok(), "{:?}", report.violations.first());
}
