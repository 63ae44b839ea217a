//! The workloads. Each runs one closed batch — every API call injected
//! up front, then wait for quiescence (simulator) or measured silence
//! (runtime) — and checks every session against the centralized oracle.

use crate::tap::{replay_codec, ApiTimes, TapTotals, TapTransport, TimedTarget, FRAME_KINDS};
use crate::trace::Tracer;
use bneck_core::{BneckConfig, BneckSimulation, PacketKind, PacketStats, RateEvent};
use bneck_maxmin::{
    compare_allocations, Allocation, CentralizedBneck, SessionSet, SolverWorkspace, Tolerance,
};
use bneck_net::{Delay, Network};
use bneck_node::cluster::build_cluster_topology;
use bneck_node::{
    channel_mesh, ClusterPlan, ClusterSpec, ClusterTransport, NodeConfig, NodeRuntime, Transport,
};
use bneck_sim::SimTime;
use bneck_workload::{
    Experiment1Config, Experiment2Config, LimitPolicy, NetworkScenario, Schedule,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sessions joining in `join-storm`.
const JOIN_STORM_SESSIONS: usize = 20_000;
/// Initial sessions of `churn`, and sessions affected per churn phase.
const CHURN_INITIAL: usize = 5_000;
const CHURN_PER_PHASE: usize = 1_000;
/// Hosts of the `churn` network: the paper's 2.2 hosts per initial session.
const CHURN_HOSTS: usize = 11_000;
/// The `node-chain` cluster.
const CHAIN_NODES: usize = 2;
const CHAIN_ROUTERS: usize = 8;
const CHAIN_SESSIONS: usize = 3_000;
const CHAIN_LONG_EVERY: usize = 10;
const CHAIN_SETTLE: Duration = Duration::from_millis(2);
const CHAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The oracle tolerance the repository's simulator runners use.
fn sim_tolerance() -> Tolerance {
    Tolerance::new(1e-6, 10.0)
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Sessions checked against the oracle plus rejected API calls.
    pub attempted: u64,
    /// Oracle mismatches, rejected calls and transport failures; every
    /// session of a phase that never went quiescent or silent.
    pub failed: u64,
    /// Whether a perturbed allocation was counted as failed.
    pub gate_bites: bool,
    /// Metrics by name.
    pub values: Vec<(String, f64)>,
}

impl Report {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }
}

/// Counts oracle mismatches of `allocation` over `sessions`.
fn mismatches(
    sessions: &SessionSet,
    allocation: &Allocation,
    oracle: &Allocation,
    tol: Tolerance,
) -> u64 {
    compare_allocations(sessions, allocation, oracle, tol).map_or_else(|v| v.len() as u64, |()| 0)
}

/// The correctness gate's self-test: perturbing one correct rate must turn
/// exactly one session into a failure.
fn gate_bites(
    sessions: &SessionSet,
    allocation: &Allocation,
    oracle: &Allocation,
    tol: Tolerance,
) -> bool {
    let Some(first) = sessions.iter().next() else {
        return false;
    };
    let Some(rate) = allocation.rate(first.id()) else {
        return false;
    };
    let mut perturbed = allocation.clone();
    perturbed.set(first.id(), rate * 1.5 + 1e3);
    mismatches(sessions, &perturbed, oracle, tol)
        == mismatches(sessions, allocation, oracle, tol) + 1
}

fn packet_key(kind: PacketKind) -> &'static str {
    match kind {
        PacketKind::Join => "join",
        PacketKind::Probe => "probe",
        PacketKind::Response => "response",
        PacketKind::Update => "update",
        PacketKind::Bottleneck => "bottleneck",
        PacketKind::SetBottleneck => "set_bottleneck",
        PacketKind::Leave => "leave",
    }
}

fn set_packets(report: &mut Report, prefix: &str, counts: &[u64; 7]) {
    for kind in PacketKind::ALL {
        report.set(
            format!("{prefix}.{}", packet_key(kind)),
            counts[kind.index()] as f64,
        );
    }
}

fn packet_counts(stats: &PacketStats) -> [u64; 7] {
    let mut counts = [0; 7];
    for (kind, count) in stats.iter() {
        counts[kind.index()] += count;
    }
    counts
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The phase totals every workload reports.
fn set_phase_times(report: &mut Report, tr: &Tracer) {
    let setup = tr.total("setup").as_secs_f64();
    let converge = tr.total("converge").as_secs_f64();
    let check = tr.total("check").as_secs_f64();
    report.set("setup_s", setup);
    report.set("converge_s", converge);
    report.set("total_s", setup + converge + check);
}

/// Running totals of the simulator workloads.
struct SimRun<'n> {
    network: &'n Network,
    sim: BneckSimulation<'n>,
    workspace: SolverWorkspace,
    notifications: Arc<AtomicU64>,
    api: ApiTimes,
    accepted: u64,
    events: u64,
    quiescence: Delay,
    report: Report,
}

impl<'n> SimRun<'n> {
    fn new(network: &'n Network, tr: &mut Tracer) -> Self {
        let mut sim = tr.span("core.new", || {
            BneckSimulation::new(network, BneckConfig::default())
        });
        let notifications = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&notifications);
        sim.subscribe(move |_: &RateEvent| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        SimRun {
            network,
            sim,
            workspace: SolverWorkspace::new(),
            notifications,
            api: ApiTimes::default(),
            accepted: 0,
            events: 0,
            quiescence: Delay::ZERO,
            report: Report {
                gate_bites: true,
                ..Report::default()
            },
        }
    }

    /// Applies `schedule`, runs to quiescence and checks every active
    /// session against the oracle.
    fn phase(&mut self, schedule: &Schedule, start: SimTime, tr: &mut Tracer) {
        tr.phase("converge");
        let sim = &mut self.sim;
        let applied = if tr.layers() {
            let mut timed = TimedTarget::new(sim, &mut self.api);
            tr.span("core.apply", || schedule.apply(&mut timed))
        } else {
            tr.span("core.apply", || schedule.apply(sim))
        };
        let run = tr.span("sim.run", || sim.run_to_quiescence());
        tr.end_phase();

        tr.phase("check");
        let (sessions, allocation) =
            tr.span("core.snapshot", || (sim.session_set(), sim.allocation()));
        let workspace = &mut self.workspace;
        let oracle = tr.span("maxmin.solve", || {
            CentralizedBneck::new(self.network, &sessions).solve_in(workspace)
        });
        let wrong = tr.span("maxmin.compare", || {
            mismatches(&sessions, &allocation, &oracle, sim_tolerance())
        });
        tr.end_phase();

        let checked = sessions.len() as u64;
        let rejected = applied.rejected as u64;
        self.report.attempted += checked + rejected;
        self.report.failed += rejected + if run.quiescent { wrong } else { checked };
        if wrong == 0 && checked > 0 {
            self.report.gate_bites &= gate_bites(&sessions, &allocation, &oracle, sim_tolerance());
        }
        self.accepted += applied.accepted() as u64;
        self.events += run.events_processed;
        self.quiescence = self.quiescence + run.quiescent_at.saturating_since(start);
    }

    fn finish(mut self, tr: &Tracer, schedule_events: usize) -> Report {
        let report = &mut self.report;
        set_phase_times(report, tr);
        let stats = *self.sim.packet_stats();
        let ops = self.accepted.max(1) as f64;
        let notifications = self.notifications.load(Ordering::Relaxed);
        report.set("packets_per_session", stats.total() as f64 / ops);
        report.set("notifications_per_session", notifications as f64 / ops);
        report.set("sim_quiescence_ms", self.quiescence.as_nanos() as f64 / 1e6);
        report.set("ops", self.accepted as f64);
        report.set("notifications", notifications as f64);
        report.set("sim.events", self.events as f64);
        report.set("workload.schedule_events", schedule_events as f64);
        set_packets(report, "core.packets", &packet_counts(&stats));
        report.set("core.join_us", self.api.join.mean_us());
        report.set("core.leave_us", self.api.leave.mean_us());
        report.set("core.change_us", self.api.change.mean_us());
        report.set("core.rejected", self.api.rejected as f64);
        self.report
    }
}

/// `join-storm`: the paper's Figure 5 path at 20k sessions.
pub fn join_storm(seed: u64, tr: &mut Tracer) -> Report {
    let config = Experiment1Config {
        seed,
        ..Experiment1Config::paper_scale(JOIN_STORM_SESSIONS)
    };
    tr.phase("setup");
    let network = tr.span("net.build", || config.scenario.build());
    let schedule = tr.span("workload.plan", || config.schedule(&network));
    let mut run = SimRun::new(&network, tr);
    tr.end_phase();
    run.phase(&schedule, SimTime::ZERO, tr);
    run.finish(tr, schedule.len())
}

/// `churn`: Experiment 2's five phases, oracle check after each.
pub fn churn(seed: u64, tr: &mut Tracer) -> Report {
    let config = Experiment2Config {
        scenario: NetworkScenario::medium_lan(CHURN_HOSTS),
        initial_sessions: CHURN_INITIAL,
        churn: CHURN_PER_PHASE,
        change_window: Delay::from_millis(1),
        limits: LimitPolicy::Unlimited,
        seed,
    };
    tr.phase("setup");
    let network = tr.span("net.build", || config.scenario.build());
    let mut planner = config.planner(&network);
    let mut run = SimRun::new(&network, tr);
    tr.end_phase();
    let mut schedule_events = 0;
    for spec in config.phases() {
        let now = run.sim.now();
        let start = if now == SimTime::ZERO {
            SimTime::ZERO
        } else {
            now + Delay::from_millis(1)
        };
        tr.phase("setup");
        let schedule = tr.span("workload.plan", || {
            planner.phase(
                start,
                config.change_window,
                spec.joins,
                spec.leaves,
                spec.changes,
                config.limits,
            )
        });
        tr.end_phase();
        schedule_events += schedule.len();
        run.phase(&schedule, start, tr);
    }
    run.finish(tr, schedule_events)
}

/// A seeded permutation of `0..n` (splitmix64 Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `node-chain`: the node runtime on the cluster demo's chain, joins issued
/// in a seeded order, then measured silence.
pub fn node_chain(seed: u64, tr: &mut Tracer) -> Report {
    let spec = ClusterSpec {
        nodes: CHAIN_NODES,
        routers: CHAIN_ROUTERS,
        sessions: CHAIN_SESSIONS,
        long_every: CHAIN_LONG_EVERY,
        transport: ClusterTransport::Channel,
        recovery: None,
        settle: CHAIN_SETTLE,
        timeout: CHAIN_TIMEOUT,
    };
    let tap = Arc::new(Mutex::new(TapTotals::default()));
    tr.phase("setup");
    let (network, sessions) = tr.span("net.build", || build_cluster_topology(&spec));
    let plan = tr.span("node.plan", || {
        ClusterPlan::new(&network, &sessions, spec.nodes, Tolerance::default())
    });
    let order = permutation(plan.slot_count(), seed);
    let traced = tr.layers();
    tr.enter("node.spawn");
    let endpoints: Vec<Box<dyn Transport>> = channel_mesh(spec.nodes + 1)
        .into_iter()
        .map(|e| -> Box<dyn Transport> {
            if traced {
                Box::new(TapTransport::new(e, Arc::clone(&tap)))
            } else {
                Box::new(e)
            }
        })
        .collect();
    let mut runtime = NodeRuntime::spawn(plan, endpoints, NodeConfig::default());
    tr.exit();
    tr.end_phase();

    tr.phase("converge");
    tr.span("node.join_calls", || {
        for &slot in &order {
            runtime.join(slot);
        }
    });
    tr.enter("node.await_silence");
    let silence = runtime.await_silence(spec.settle, spec.timeout);
    tr.exit();
    tr.end_phase();
    let frames_at_silence = runtime.frames_sent();

    tr.phase("check");
    let (session_set, rates) = tr.span("core.snapshot", || {
        (runtime.plan().session_set(), runtime.rates())
    });
    let mut workspace = SolverWorkspace::new();
    let oracle = tr.span("maxmin.solve", || {
        CentralizedBneck::new(&network, &session_set).solve_in(&mut workspace)
    });
    let tolerance = Tolerance::new(1e-6, 1.0);
    let wrong = tr.span("maxmin.compare", || {
        mismatches(&session_set, &rates, &oracle, tolerance)
    });
    let notifications: usize = (0..spec.nodes).map(|n| runtime.drain_events(n).len()).sum();
    let outcomes = tr.span("node.shutdown", || runtime.shutdown());
    tr.end_phase();

    let mut report = Report::default();
    let checked = session_set.len() as u64;
    let transport_failures: u64 = outcomes
        .iter()
        .map(|o| o.decode_errors + o.transport_errors)
        .sum();
    report.attempted = checked;
    report.failed = transport_failures + if silence.is_ok() { wrong } else { checked };
    report.gate_bites = wrong > 0 || gate_bites(&session_set, &rates, &oracle, tolerance);

    set_phase_times(&mut report, tr);
    let mut counts = [0u64; 7];
    for outcome in &outcomes {
        for (c, n) in counts.iter_mut().zip(packet_counts(&outcome.stats)) {
            *c += n;
        }
    }
    let packets: u64 = counts.iter().sum();
    let ops = order.len() as f64;
    report.set("packets_per_session", packets as f64 / ops);
    report.set("notifications_per_session", notifications as f64 / ops);
    report.set("ops", ops);
    report.set("notifications", notifications as f64);
    set_packets(&mut report, "core.packets", &counts);
    set_packets(&mut report, "node.packets", &counts);
    let per_node = outcomes.iter().map(|o| o.stats.total());
    report.set(
        "node.packets_max_node",
        per_node.clone().max().unwrap_or(0) as f64,
    );
    report.set("node.packets_min_node", per_node.min().unwrap_or(0) as f64);
    // Frames the nodes put on the wire: everything sent minus the API calls.
    let wire_packets = frames_at_silence.saturating_sub(order.len() as u64);
    report.set(
        "node.local_deliveries",
        packets.saturating_sub(wire_packets) as f64,
    );
    report.set(
        "node.silence_latency_s",
        silence.map_or(0.0, |latency| latency.as_secs_f64()),
    );

    if tr.layers() {
        let tap = std::mem::take(&mut *tap.lock().expect("tap totals lock"));
        report.set("transport.frames", tap.frames_sent as f64);
        report.set("transport.bytes", tap.bytes_sent as f64);
        report.set("transport.send_s", tap.send_time.as_secs_f64());
        report.set("transport.frames_recv", tap.frames_recv as f64);
        let replay = replay_codec(&tap.captured);
        report.failed += replay.decode_errors;
        for (kind, count) in FRAME_KINDS.iter().zip(replay.frames_by_kind) {
            report.set(format!("codec.frames.{kind}"), count as f64);
        }
        report.set("codec.decode_ns_per_frame", replay.decode_ns_per_frame);
        report.set("codec.encode_ns_per_frame", replay.encode_ns_per_frame);
    }
    report
}
