//! The runtime's *work* checked against the model, not only its final rates:
//! on the `bneck node` chain instance, the packets a cluster transmits per
//! session must stay within a fixed factor of what the simulator transmits
//! on the same instance with every session joined at time zero, and each
//! session must be notified of its rate about once.
//!
//! The overlap of concurrent joins is what keeps B-Neck's message count
//! linear; a runtime that processes joins one at a time re-probes every
//! session already bottlenecked on a shared trunk and does O(n) packets per
//! join (~70× the simulator at 3k sessions). These bounds catch that.

use bneck_core::{BneckConfig, BneckSimulation};
use bneck_node::cluster::{build_cluster_topology, run_cluster, ClusterSpec, ClusterTransport};
use bneck_sim::SimTime;
use std::time::Duration;

/// Runtime packets per session may be at most this multiple of the
/// simulator's. Set from the overlapping receive loop (worst case seen:
/// 1.27×); never loosen it.
const MAX_PACKET_FACTOR: f64 = 2.0;

/// `API.Rate` events per session may be at most this many.
const MAX_RATE_EVENTS_PER_SESSION: f64 = 2.0;

fn chain(sessions: usize, nodes: usize, transport: ClusterTransport) -> ClusterSpec {
    ClusterSpec {
        nodes,
        routers: 8,
        sessions,
        long_every: 10,
        transport,
        recovery: None,
        settle: Duration::from_millis(2),
        timeout: Duration::from_secs(120),
    }
}

/// The simulator's packets per session on the chain instance, every session
/// joined at [`SimTime::ZERO`].
fn simulator_packets_per_session(sessions: usize) -> f64 {
    let (network, plan) = build_cluster_topology(&chain(sessions, 1, ClusterTransport::Channel));
    let mut sim = BneckSimulation::new(&network, BneckConfig::default());
    for (session, path, limit) in plan {
        sim.join_with_path(SimTime::ZERO, session, path, limit)
            .expect("fresh session on a fresh host pair");
    }
    let report = sim.run_to_quiescence();
    assert!(report.quiescent);
    report.packets_sent as f64 / sessions as f64
}

fn assert_work_tracks_simulator(sessions: usize, transport: ClusterTransport) {
    let model = simulator_packets_per_session(sessions);
    for nodes in [1, 2, 4] {
        let report = run_cluster(chain(sessions, nodes, transport)).expect("cluster run");
        assert_eq!(report.mismatches, 0, "{report}");
        let packets = report.packets as f64 / sessions as f64;
        assert!(
            packets <= MAX_PACKET_FACTOR * model,
            "{nodes} node(s): {packets:.2} packets/session against the simulator's \
             {model:.2} (bound {MAX_PACKET_FACTOR}×)\n{report}"
        );
        let rate_events = report.rate_events as f64 / sessions as f64;
        assert!(
            rate_events <= MAX_RATE_EVENTS_PER_SESSION,
            "{nodes} node(s): {rate_events:.2} rate events/session\n{report}"
        );
    }
}

#[test]
fn channel_cluster_work_tracks_the_simulator_at_1k_sessions() {
    assert_work_tracks_simulator(1000, ClusterTransport::Channel);
}

#[test]
fn channel_cluster_work_tracks_the_simulator_at_3k_sessions() {
    assert_work_tracks_simulator(3000, ClusterTransport::Channel);
}

#[test]
fn tcp_cluster_work_tracks_the_simulator_at_1k_sessions() {
    assert_work_tracks_simulator(1000, ClusterTransport::Tcp);
}

#[test]
fn tcp_cluster_work_tracks_the_simulator_at_3k_sessions() {
    assert_work_tracks_simulator(3000, ClusterTransport::Tcp);
}
