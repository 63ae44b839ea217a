//! The multi-node runtime: B-Neck's task handlers hosted on real threads
//! over a [`Transport`], with the simulator completely out of the loop.
//!
//! The design reuses the repository's existing layers unchanged:
//!
//! * the pure task handlers ([`SourceNode`], [`DestinationNode`],
//!   [`RouterLink`]) run exactly as they do under the simulation harness —
//!   they consume packets and emit [`Action`]s into an [`ActionBuffer`];
//! * task placement comes from [`WorldPartition`], the same topology-aware
//!   partition the sharded engine uses: routers split into contiguous rank
//!   blocks, hosts inherit their router's node, the `RouterLink` task of
//!   link `e` lives on the node of `src(e)`. With that placement only
//!   router→router trunk hops ever cross a node boundary;
//! * the config-gated recovery layer ([`RecoveryState`]) provides per-lane
//!   sequencing, acks and retransmission over transports that may lose or
//!   reorder — on reliable loopback it is off by default, because each lane
//!   has a single sending thread and both transports preserve per-connection
//!   FIFO, which implies the per-lane FIFO the paper assumes.
//!
//! ## Quiescence without a simulator
//!
//! The simulator detects quiescence by an empty event queue; a real cluster
//! has no such oracle. The runtime uses the classic counting argument
//! instead: a global `sent` counter is incremented *before* a frame is
//! handed to the transport and a global `received` counter *after* the
//! receiver has fully processed it (cascaded local deliveries included).
//!
//! A worker runs one loop over one FIFO of pending local deliveries, and its
//! transport inbox is just another source for that FIFO: before every
//! dispatch it decodes each blob already waiting into the queue, and it
//! blocks on the transport only when the queue is empty. Concurrent joins
//! and probe cycles therefore overlap on a node as they do in the simulator,
//! instead of each arriving frame's whole cascade running before the next
//! frame is read. Blobs are credited to `received` in bulk, by the number
//! taken in since the queue was last empty, and only at the moment it
//! empties: an empty queue means every cascade those blobs started has
//! finished, each action having been dispatched locally or sent as a new
//! frame already counted in `sent`. A blob that fails to decode is credited
//! like any other.
//!
//! The coordinator reads `received` first, then `sent`: since
//! `received ≤ sent` always, reading `received = r` and then `sent = s`
//! with `r == s` proves every frame sent up to that point was fully
//! processed — and since nodes only act on arriving frames, no new frame
//! can appear. With recovery enabled, a third counter of unacked frames
//! must also be zero, or a retransmission timer could fire after the
//! counters match. [`NodeRuntime::await_silence`] additionally re-reads the
//! counters after a settle delay, making the silence *measurable* rather
//! than merely inferred.

use crate::codec::{self, NodeTarget, WireFrame};
use crate::transport::Transport;
use bneck_core::destination::DestinationNode;
use bneck_core::router_link::RouterLink;
use bneck_core::source::SourceNode;
use bneck_core::{
    Action, ActionBuffer, Lane, PacketStats, PendingFrame, RateCause, RateEvent, RateEvents,
    RecoveryConfig, RecoveryState, RecoveryStats, SubscriberSet, WorldPartition,
};
use bneck_maxmin::{Allocation, Rate, RateLimit, Session, SessionId, SessionSet, Tolerance};
use bneck_net::{LinkId, Network, Path};
use bneck_sim::SimTime;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The wall clock. The node runtime is real-time code — retransmission
/// timers, silence latency and event timestamps are wall-clock quantities —
/// so this is the one sanctioned call site in the crate.
fn wall_now() -> Instant {
    #[allow(clippy::disallowed_methods)]
    // xlint: allow(DET002, reason = "the node runtime runs on wall-clock time by design; timers and latency reports are real-time quantities")
    Instant::now()
}

/// Tunables of a node worker.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// The recovery layer's tunables, or `None` to run bare (the default:
    /// both bundled transports are reliable and FIFO per lane).
    pub recovery: Option<RecoveryConfig>,
    /// How long a worker blocks waiting for a frame before checking its
    /// retransmission timers and shutdown flag.
    pub poll: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            recovery: None,
            poll: Duration::from_micros(500),
        }
    }
}

/// Per-slot placement and path data, fixed for the lifetime of the cluster.
#[derive(Debug, Clone)]
struct SlotPlan {
    session: SessionId,
    path: Path,
    limit: RateLimit,
    source_owner: u16,
    dest_owner: u16,
}

/// The immutable cluster layout every node shares: which node owns which
/// task, each session slot's path, per-link capacities and reverse links.
///
/// Built once from a [`Network`] and a session list; the runtime never
/// changes membership placement after spawn (sessions may join, change and
/// leave, but their slots and paths are fixed — the arena's slot-reuse
/// machinery is a simulator-only concern).
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    nodes: usize,
    tolerance: Tolerance,
    link_owner: Vec<u16>,
    link_capacity: Vec<Rate>,
    reverse: Vec<Option<LinkId>>,
    slots: Vec<SlotPlan>,
    slot_of: HashMap<SessionId, u32>,
}

impl ClusterPlan {
    /// Lays out `sessions` over `network` on `nodes` nodes.
    ///
    /// Each session is `(id, path, demand limit)`; session ids must be
    /// unique. Placement follows [`WorldPartition`] with `nodes` shards.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero, exceeds `u16::MAX`, the network has no
    /// routers, or a session id repeats.
    pub fn new(
        network: &Network,
        sessions: &[(SessionId, Path, RateLimit)],
        nodes: usize,
        tolerance: Tolerance,
    ) -> Self {
        assert!(nodes >= 1 && nodes <= u16::MAX as usize, "node count range");
        // packet_bits only affects the partition's lookahead matrix, which
        // the runtime does not use; any positive value works.
        let mut partition = WorldPartition::new(network, 256, nodes);
        let mut slots = Vec::with_capacity(sessions.len());
        let mut slot_of = HashMap::with_capacity(sessions.len());
        for (slot, (session, path, limit)) in sessions.iter().enumerate() {
            partition.note_join(slot as u32, path);
            let previous = slot_of.insert(*session, slot as u32);
            assert!(previous.is_none(), "duplicate session id {session:?}");
            slots.push(SlotPlan {
                session: *session,
                path: path.clone(),
                limit: *limit,
                source_owner: partition.source_shard(slot as u32) as u16,
                dest_owner: partition.dest_shard(slot as u32) as u16,
            });
        }
        ClusterPlan {
            nodes,
            tolerance,
            link_owner: (0..network.link_count())
                .map(|l| partition.link_shard(LinkId(l as u32)) as u16)
                .collect(),
            link_capacity: network.links().map(|l| l.capacity().as_bps()).collect(),
            reverse: (0..network.link_count())
                .map(|l| network.reverse_link(LinkId(l as u32)))
                .collect(),
            slots,
            slot_of,
        }
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of session slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The session occupying `slot`.
    pub fn session(&self, slot: u32) -> SessionId {
        self.slots[slot as usize].session
    }

    /// The slot of `session`, if it is part of the plan.
    pub fn slot_of(&self, session: SessionId) -> Option<u32> {
        self.slot_of.get(&session).copied()
    }

    /// The node hosting `slot`'s source task.
    pub fn source_owner(&self, slot: u32) -> usize {
        self.slots[slot as usize].source_owner as usize
    }

    /// The demand limit of `slot`'s session.
    pub fn limit(&self, slot: u32) -> RateLimit {
        self.slots[slot as usize].limit
    }

    /// The sessions as a [`SessionSet`], for feeding the centralized oracle.
    pub fn session_set(&self) -> SessionSet {
        self.slots
            .iter()
            .map(|s| Session::new(s.session, s.path.clone(), s.limit))
            .collect()
    }

    fn links(&self, slot: u32) -> &[LinkId] {
        self.slots[slot as usize].path.links()
    }

    fn owner_of(&self, target: NodeTarget) -> usize {
        match target {
            NodeTarget::Source(slot) => self.slots[slot as usize].source_owner as usize,
            NodeTarget::Destination(slot) => self.slots[slot as usize].dest_owner as usize,
            NodeTarget::Link { link, .. } => self.link_owner[link.index()] as usize,
        }
    }
}

/// Counters shared by every worker and the coordinator. `sent` / `received`
/// implement the silence-detection argument described in the module docs;
/// `notified` holds each slot's latest `API.Rate` as `f64` bits (NaN until
/// first notified), so the coordinator can read final rates without a
/// message exchange.
struct Shared {
    sent: AtomicU64,
    received: AtomicU64,
    unacked: AtomicU64,
    notified: Vec<AtomicU64>,
}

/// What a node reports when it exits.
#[derive(Debug)]
pub struct NodeOutcome {
    /// The node's index.
    pub node: usize,
    /// Protocol packets this node transmitted, by kind.
    pub stats: PacketStats,
    /// Recovery-layer counters, when recovery was enabled.
    pub recovery: Option<RecoveryStats>,
    /// Frames that failed to decode (hostile or corrupt input; always zero
    /// in a healthy cluster).
    pub decode_errors: u64,
    /// Transport send failures (peer torn down mid-send).
    pub transport_errors: u64,
}

/// A pending retransmission check: at `due`, resend `(lane, seq)` if it is
/// still unacked. The RTO is constant, so push order equals due order and a
/// queue suffices — no timer wheel needed.
struct Retransmit {
    due: Instant,
    lane: Lane,
    seq: u32,
}

struct NodeWorker {
    node: usize,
    plan: Arc<ClusterPlan>,
    shared: Arc<Shared>,
    transport: Box<dyn Transport>,
    start: Instant,
    poll: Duration,
    sources: Vec<Option<SourceNode>>,
    destinations: Vec<Option<DestinationNode>>,
    router_links: Vec<Option<RouterLink>>,
    causes: Vec<RateCause>,
    subscribers: SubscriberSet,
    stats: PacketStats,
    scratch: ActionBuffer,
    pending: VecDeque<(NodeTarget, bneck_core::Packet)>,
    recovery: Option<RecoveryState<NodeTarget>>,
    timers: VecDeque<Retransmit>,
    encode_buf: Vec<u8>,
    decode_errors: u64,
    transport_errors: u64,
    done: bool,
}

impl NodeWorker {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// The receive loop. The transport inbox is one more source for the
    /// `pending` FIFO: before every dispatch, every blob already waiting is
    /// decoded into the queue, so arrivals interleave with local cascades
    /// instead of queueing behind them. The worker blocks only when there is
    /// nothing left to dispatch.
    fn run(mut self) -> NodeOutcome {
        // Blobs taken in since `pending` was last empty; credited to
        // `received` only once it empties again (see the module docs).
        let mut uncredited = 0u64;
        'run: while !self.done {
            if self.pending.is_empty() && uncredited > 0 {
                self.shared.received.fetch_add(uncredited, Ordering::SeqCst);
                uncredited = 0;
            }
            let mut wait = if self.pending.is_empty() {
                self.poll
            } else {
                Duration::ZERO
            };
            while !self.done {
                match self.transport.recv_timeout(wait) {
                    Ok(Some(bytes)) => {
                        self.decode_wire(&bytes);
                        uncredited += 1;
                        wait = Duration::ZERO;
                    }
                    Ok(None) => break,
                    Err(_) => break 'run,
                }
            }
            if let Some((target, packet)) = self.pending.pop_front() {
                self.dispatch(target, packet);
            }
            self.fire_due_retransmits();
        }
        NodeOutcome {
            node: self.node,
            stats: self.stats,
            recovery: self.recovery.as_ref().map(|r| r.stats),
            decode_errors: self.decode_errors,
            transport_errors: self.transport_errors,
        }
    }

    /// Decodes one blob delivered by the transport and hands each frame to
    /// [`Self::handle_frame`]; packets it carries join the `pending` queue.
    fn decode_wire(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match codec::decode_frame(bytes) {
                Ok(Some((from, frame, consumed))) => {
                    bytes = &bytes[consumed..];
                    self.handle_frame(from, frame);
                }
                // A truncated tail (the transport only delivers whole frames)
                // or a malformed frame: corruption either way.
                Ok(None) | Err(_) => {
                    self.decode_errors += 1;
                    break;
                }
            }
        }
    }

    fn handle_frame(&mut self, from: u16, frame: WireFrame) {
        match frame {
            WireFrame::Packet { to, packet } => self.pending.push_back((to, packet)),
            WireFrame::Data {
                to,
                link,
                seq,
                packet,
            } => self.recv_data(from, to, link, seq, packet),
            WireFrame::Ack { session, link, seq } => {
                if let Some(recovery) = self.recovery.as_mut() {
                    if recovery
                        .unacked
                        .remove(&(Lane::new(session, link), seq))
                        .is_some()
                    {
                        self.shared.unacked.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            WireFrame::Join { slot, limit } => self.api(slot, ApiOp::Join(limit)),
            WireFrame::Leave { slot } => self.api(slot, ApiOp::Leave),
            WireFrame::Change { slot, limit } => self.api(slot, ApiOp::Change(limit)),
            WireFrame::Shutdown => self.done = true,
        }
    }

    /// The receive half of the recovery layer, mirroring the harness: ack
    /// every frame (the duplicate's ack replaces a lost one), drop
    /// duplicates, buffer past-gap frames, deliver in order and flush.
    fn recv_data(
        &mut self,
        from: u16,
        to: NodeTarget,
        link: LinkId,
        seq: u32,
        packet: bneck_core::Packet,
    ) {
        let session = packet.session();
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.stats.acks_sent += 1;
        }
        self.send_frame(from as usize, &WireFrame::Ack { session, link, seq });
        let Some(recovery) = self.recovery.as_mut() else {
            // Config mismatch (a recovered peer talking to a bare node):
            // deliver the payload anyway, the sender will stop retransmitting
            // once our ack lands.
            self.pending.push_back((to, packet));
            return;
        };
        let lane = Lane::new(session, link);
        let expected = *recovery.expected.entry(lane).or_insert(0);
        if seq < expected {
            recovery.stats.duplicates_dropped += 1;
            return;
        }
        if seq > expected {
            let frame = PendingFrame {
                over: link,
                target: to,
                packet,
            };
            if recovery.buffered.insert((lane, seq), frame).is_none() {
                recovery.stats.reordered_buffered += 1;
            } else {
                recovery.stats.duplicates_dropped += 1;
            }
            return;
        }
        *recovery
            .expected
            .get_mut(&lane)
            .expect("entry created above") += 1;
        self.pending.push_back((to, packet));
        loop {
            let recovery = self.recovery.as_mut().expect("still configured");
            let next = *recovery.expected.get(&lane).expect("entry created above");
            let Some(frame) = recovery.buffered.remove(&(lane, next)) else {
                break;
            };
            *recovery
                .expected
                .get_mut(&lane)
                .expect("entry created above") += 1;
            self.pending.push_back((frame.target, frame.packet));
        }
    }

    /// Applies an API call to the slot's source task (if this node owns it).
    fn api(&mut self, slot: u32, op: ApiOp) {
        let Some(source) = self.sources.get_mut(slot as usize).and_then(|s| s.as_mut()) else {
            return; // Misrouted or unknown slot: ignore.
        };
        let session = source.session();
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        match op {
            ApiOp::Join(limit) => source.api_join(limit, &mut actions),
            ApiOp::Leave => {
                let final_rate = source.current_rate();
                source.api_leave(&mut actions);
                let event = RateEvent {
                    at: self.now(),
                    session,
                    rate: final_rate,
                    cause: RateCause::Left,
                };
                self.subscribers.emit_rate(&event);
            }
            ApiOp::Change(limit) => {
                self.causes[slot as usize] = RateCause::Changed;
                source.api_change(limit, &mut actions);
            }
        }
        for action in actions.drain() {
            self.perform(NodeTarget::Source(slot), session, action);
        }
        self.scratch = actions;
    }

    fn dispatch(&mut self, target: NodeTarget, packet: bneck_core::Packet) {
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        match target {
            NodeTarget::Source(slot) => {
                if let Some(Some(source)) = self.sources.get_mut(slot as usize) {
                    source.handle(packet, &mut actions);
                }
            }
            NodeTarget::Link { link, .. } => {
                let capacity = self.plan.link_capacity[link.index()];
                let tolerance = self.plan.tolerance;
                let entry = &mut self.router_links[link.index()];
                let task = entry.get_or_insert_with(|| RouterLink::new(link, capacity, tolerance));
                task.handle(packet, &mut actions);
            }
            NodeTarget::Destination(slot) => {
                if let Some(Some(destination)) = self.destinations.get(slot as usize) {
                    destination.handle(packet, &mut actions);
                }
            }
        }
        for action in actions.drain() {
            self.perform(target, packet.session(), action);
        }
        self.scratch = actions;
    }

    /// Resolves the slot and hop an action's packet belongs to. Envelope
    /// coordinates are trusted when the action is for the origin packet's
    /// own session; actions for *other* sessions (a `RouterLink` notifying
    /// its other members) are resolved against the plan. Slots are never
    /// reused in the runtime, so — unlike the simulator arena — there are no
    /// stale incarnations to guard against.
    fn hop_of(
        &self,
        session: SessionId,
        origin_session: SessionId,
        slot: u32,
        hop: u32,
        link: LinkId,
    ) -> Option<(u32, u32)> {
        if session == origin_session {
            return Some((slot, hop));
        }
        let slot = self.plan.slot_of(session)?;
        let hop = self.plan.links(slot).iter().position(|l| *l == link)?;
        Some((slot, hop as u32))
    }

    /// Turns a task action into a frame transmission or a rate notification,
    /// mirroring the harness's routing exactly.
    fn perform(&mut self, origin: NodeTarget, origin_session: SessionId, action: Action) {
        match action {
            Action::NotifyRate { session, rate } => {
                let cause = match self.plan.slot_of(session) {
                    Some(slot) => {
                        self.shared.notified[slot as usize].store(rate.to_bits(), Ordering::SeqCst);
                        std::mem::replace(&mut self.causes[slot as usize], RateCause::Converged)
                    }
                    None => RateCause::Converged,
                };
                if !self.subscribers.is_empty() {
                    let event = RateEvent {
                        at: self.now(),
                        session,
                        rate,
                        cause,
                    };
                    self.subscribers.emit_rate(&event);
                }
            }
            Action::SendDownstream(packet) => {
                let session = packet.session();
                let (over, next) = match origin {
                    NodeTarget::Source(origin_slot) => {
                        let slot = if session == origin_session {
                            origin_slot
                        } else {
                            match self.plan.slot_of(session) {
                                Some(s) => s,
                                None => return,
                            }
                        };
                        let links = self.plan.links(slot);
                        let next = if links.len() > 1 {
                            NodeTarget::Link {
                                link: links[1],
                                hop: 1,
                                slot,
                            }
                        } else {
                            NodeTarget::Destination(slot)
                        };
                        (links[0], next)
                    }
                    NodeTarget::Link { link, hop, slot } => {
                        let Some((slot, hop)) =
                            self.hop_of(session, origin_session, slot, hop, link)
                        else {
                            return;
                        };
                        let hop = hop as usize;
                        let links = self.plan.links(slot);
                        let next = if hop + 1 < links.len() {
                            NodeTarget::Link {
                                link: links[hop + 1],
                                hop: hop as u32 + 1,
                                slot,
                            }
                        } else {
                            NodeTarget::Destination(slot)
                        };
                        (links[hop], next)
                    }
                    NodeTarget::Destination(_) => return,
                };
                self.transmit(over, next, packet);
            }
            Action::SendUpstream(packet) => {
                let session = packet.session();
                let (forward, next) = match origin {
                    NodeTarget::Destination(origin_slot) => {
                        let slot = if session == origin_session {
                            origin_slot
                        } else {
                            match self.plan.slot_of(session) {
                                Some(s) => s,
                                None => return,
                            }
                        };
                        let links = self.plan.links(slot);
                        let last = links.len() - 1;
                        let next = if last >= 1 {
                            NodeTarget::Link {
                                link: links[last],
                                hop: last as u32,
                                slot,
                            }
                        } else {
                            NodeTarget::Source(slot)
                        };
                        (links[last], next)
                    }
                    NodeTarget::Link { link, hop, slot } => {
                        let Some((slot, hop)) =
                            self.hop_of(session, origin_session, slot, hop, link)
                        else {
                            return;
                        };
                        let hop = hop as usize;
                        if hop == 0 {
                            // The source task owns the first link; nothing
                            // lives upstream of it.
                            return;
                        }
                        let links = self.plan.links(slot);
                        let next = if hop > 1 {
                            NodeTarget::Link {
                                link: links[hop - 1],
                                hop: hop as u32 - 1,
                                slot,
                            }
                        } else {
                            NodeTarget::Source(slot)
                        };
                        (links[hop - 1], next)
                    }
                    NodeTarget::Source(_) => return,
                };
                // Upstream packets travel over the reverse link of the hop.
                let Some(reverse) = self.plan.reverse[forward.index()] else {
                    return;
                };
                self.transmit(reverse, next, packet);
            }
        }
    }

    /// Sends `packet` over directed link `over` to the task `target`. A
    /// same-node target short-circuits through the local queue — the lane's
    /// endpoints never straddle nodes-vs-local, because a lane's receiving
    /// task has a fixed owner, so skipping the recovery framing for local
    /// hops is safe.
    fn transmit(&mut self, over: LinkId, target: NodeTarget, packet: bneck_core::Packet) {
        self.stats.record(packet.kind());
        if !self.subscribers.is_empty() {
            self.subscribers.note_packet(self.now(), packet.kind());
        }
        let owner = self.plan.owner_of(target);
        if owner == self.node {
            self.pending.push_back((target, packet));
            return;
        }
        let frame = match self.recovery.as_mut() {
            None => WireFrame::Packet { to: target, packet },
            Some(recovery) => {
                let lane = Lane::new(packet.session(), over);
                let seq = recovery.assign_seq(lane);
                recovery.unacked.insert(
                    (lane, seq),
                    PendingFrame {
                        over,
                        target,
                        packet,
                    },
                );
                recovery.stats.frames_sent += 1;
                self.shared.unacked.fetch_add(1, Ordering::SeqCst);
                let rto = Duration::from_nanos(recovery.config.rto.as_nanos());
                self.timers.push_back(Retransmit {
                    due: wall_now() + rto,
                    lane,
                    seq,
                });
                WireFrame::Data {
                    to: target,
                    link: over,
                    seq,
                    packet,
                }
            }
        };
        self.send_frame(owner, &frame);
    }

    fn send_frame(&mut self, peer: usize, frame: &WireFrame) {
        self.encode_buf.clear();
        codec::encode_frame(self.node as u16, frame, &mut self.encode_buf);
        // `sent` strictly before the transport sees the frame: the receiver
        // cannot count `received` for a frame not yet in `sent`.
        self.shared.sent.fetch_add(1, Ordering::SeqCst);
        if self.transport.send_to(peer, &self.encode_buf).is_err() {
            self.transport_errors += 1;
            // The frame will never arrive; take it back out of `sent` so a
            // dead peer cannot wedge the silence condition.
            self.shared.received.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Resends every due still-unacked frame and re-arms its timer.
    fn fire_due_retransmits(&mut self) {
        if self.recovery.is_none() || self.timers.is_empty() {
            return;
        }
        let now = wall_now();
        let mut due = Vec::new();
        while let Some(front) = self.timers.front() {
            if front.due > now {
                break;
            }
            let timer = self.timers.pop_front().expect("peeked above");
            due.push((timer.lane, timer.seq));
        }
        for (lane, seq) in due {
            let recovery = self.recovery.as_mut().expect("checked above");
            let Some(frame) = recovery.unacked.get(&(lane, seq)).copied() else {
                continue; // Acked in the meantime: the timer is stale.
            };
            recovery.stats.retransmits += 1;
            let rto = Duration::from_nanos(recovery.config.rto.as_nanos());
            self.timers.push_back(Retransmit {
                due: now + rto,
                lane,
                seq,
            });
            let owner = self.plan.owner_of(frame.target);
            self.send_frame(
                owner,
                &WireFrame::Data {
                    to: frame.target,
                    link: frame.over,
                    seq,
                    packet: frame.packet,
                },
            );
        }
    }
}

enum ApiOp {
    Join(RateLimit),
    Leave,
    Change(RateLimit),
}

/// The silence wait gave up: frames were still in flight (or unacked) when
/// the timeout expired.
#[derive(Debug, Clone, Copy)]
pub struct SilenceTimeout {
    /// Frames handed to transports so far.
    pub sent: u64,
    /// Frames fully processed so far.
    pub received: u64,
    /// Recovery frames still awaiting an ack.
    pub unacked: u64,
}

impl fmt::Display for SilenceTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster not silent: sent={} received={} unacked={}",
            self.sent, self.received, self.unacked
        )
    }
}

impl std::error::Error for SilenceTimeout {}

/// A running cluster: one worker thread per node plus this coordinator
/// handle, which injects API calls, waits for silence, reads rates and
/// tears the cluster down.
pub struct NodeRuntime {
    plan: Arc<ClusterPlan>,
    shared: Arc<Shared>,
    coordinator: Box<dyn Transport>,
    handles: Vec<JoinHandle<NodeOutcome>>,
    events: Vec<RateEvents>,
    encode_buf: Vec<u8>,
}

impl NodeRuntime {
    /// Spawns one worker thread per node of `plan` over `endpoints`.
    ///
    /// `endpoints` must hold `plan.nodes() + 1` transport endpoints: index
    /// `i` becomes node `i`'s, the last one becomes the coordinator's (the
    /// codec's `from` field uses the same indexing).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint count does not match, or a worker thread
    /// cannot be spawned.
    pub fn spawn(
        plan: ClusterPlan,
        mut endpoints: Vec<Box<dyn Transport>>,
        config: NodeConfig,
    ) -> NodeRuntime {
        assert_eq!(
            endpoints.len(),
            plan.nodes() + 1,
            "one endpoint per node plus the coordinator"
        );
        let coordinator = endpoints.pop().expect("length checked above");
        let plan = Arc::new(plan);
        let shared = Arc::new(Shared {
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            unacked: AtomicU64::new(0),
            notified: (0..plan.slot_count())
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
        });
        let start = wall_now();
        let mut handles = Vec::with_capacity(plan.nodes());
        let mut events = Vec::with_capacity(plan.nodes());
        for (node, transport) in endpoints.into_iter().enumerate() {
            let (reader, subscriber) = RateEvents::channel();
            events.push(reader);
            let mut subscribers = SubscriberSet::new();
            subscribers.subscribe(subscriber);
            let mut sources: Vec<Option<SourceNode>> = Vec::with_capacity(plan.slot_count());
            let mut destinations: Vec<Option<DestinationNode>> =
                Vec::with_capacity(plan.slot_count());
            for sp in &plan.slots {
                sources.push((sp.source_owner as usize == node).then(|| {
                    let first = sp.path.links()[0];
                    SourceNode::new(
                        sp.session,
                        first,
                        plan.link_capacity[first.index()],
                        plan.tolerance,
                    )
                }));
                destinations.push(
                    (sp.dest_owner as usize == node).then(|| DestinationNode::new(sp.session)),
                );
            }
            let worker = NodeWorker {
                node,
                plan: Arc::clone(&plan),
                shared: Arc::clone(&shared),
                transport,
                start,
                poll: config.poll,
                sources,
                destinations,
                router_links: (0..plan.link_owner.len()).map(|_| None).collect(),
                causes: vec![RateCause::Joined; plan.slot_count()],
                subscribers,
                stats: PacketStats::new(),
                scratch: ActionBuffer::default(),
                pending: VecDeque::new(),
                recovery: config.recovery.map(RecoveryState::new),
                timers: VecDeque::new(),
                encode_buf: Vec::with_capacity(128),
                decode_errors: 0,
                transport_errors: 0,
                done: false,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bneck-node-{node}"))
                    .spawn(move || worker.run())
                    .expect("spawn node worker thread"),
            );
        }
        NodeRuntime {
            plan,
            shared,
            coordinator,
            handles,
            events,
            encode_buf: Vec::with_capacity(64),
        }
    }

    /// The cluster's layout.
    pub fn plan(&self) -> &ClusterPlan {
        &self.plan
    }

    /// Sends one API frame from the coordinator to the node owning the
    /// slot's source task.
    fn send_api(&mut self, slot: u32, frame: WireFrame) {
        let owner = self.plan.source_owner(slot);
        self.encode_buf.clear();
        codec::encode_frame(self.plan.nodes() as u16, &frame, &mut self.encode_buf);
        self.shared.sent.fetch_add(1, Ordering::SeqCst);
        self.coordinator
            .send_to(owner, &self.encode_buf)
            .expect("coordinator send to a live node");
    }

    /// Issues `API.Join` for `slot` with its planned demand limit.
    pub fn join(&mut self, slot: u32) {
        let limit = self.plan.limit(slot);
        self.send_api(slot, WireFrame::Join { slot, limit });
    }

    /// Issues `API.Join` for every slot of the plan, in slot order.
    pub fn join_all(&mut self) {
        for slot in 0..self.plan.slot_count() as u32 {
            self.join(slot);
        }
    }

    /// Issues `API.Leave` for `slot`.
    pub fn leave(&mut self, slot: u32) {
        self.send_api(slot, WireFrame::Leave { slot });
    }

    /// Issues `API.Change` for `slot` with a new demand limit.
    pub fn change(&mut self, slot: u32, limit: RateLimit) {
        self.send_api(slot, WireFrame::Change { slot, limit });
    }

    /// Blocks until the cluster is silent: every frame handed to a
    /// transport has been fully processed and (with recovery) no frame
    /// awaits an ack. Returns the time from this call to the first moment
    /// the counters matched.
    ///
    /// After the counters first match, they are re-read `settle` later; a
    /// counter that moved restarts the wait, so a returned `Ok` means the
    /// control plane was *observed* idle over a real interval, not just
    /// inferred idle from one sample.
    pub fn await_silence(
        &mut self,
        settle: Duration,
        timeout: Duration,
    ) -> Result<Duration, SilenceTimeout> {
        let begin = wall_now();
        loop {
            // Read order matters: received before sent (see module docs).
            let received = self.shared.received.load(Ordering::SeqCst);
            let sent = self.shared.sent.load(Ordering::SeqCst);
            let unacked = self.shared.unacked.load(Ordering::SeqCst);
            if sent == received && unacked == 0 {
                let at = begin.elapsed();
                std::thread::sleep(settle);
                let still_received = self.shared.received.load(Ordering::SeqCst);
                let still_sent = self.shared.sent.load(Ordering::SeqCst);
                if still_sent == sent && still_received == received {
                    return Ok(at);
                }
                continue; // Something moved during the settle window.
            }
            if begin.elapsed() > timeout {
                return Err(SilenceTimeout {
                    sent,
                    received,
                    unacked,
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The latest `API.Rate` notification of each slot, as an
    /// [`Allocation`]. Slots never notified are absent.
    pub fn rates(&self) -> Allocation {
        let mut allocation = Allocation::new();
        for slot in 0..self.plan.slot_count() as u32 {
            let bits = self.shared.notified[slot as usize].load(Ordering::SeqCst);
            let rate = f64::from_bits(bits);
            if !rate.is_nan() {
                allocation.set(self.plan.session(slot), rate);
            }
        }
        allocation
    }

    /// Drains the rate events node `node`'s worker has emitted so far.
    pub fn drain_events(&self, node: usize) -> Vec<RateEvent> {
        self.events[node].drain()
    }

    /// Total frames handed to transports so far (control plane volume).
    pub fn frames_sent(&self) -> u64 {
        self.shared.sent.load(Ordering::SeqCst)
    }

    /// Sends every node a `Shutdown` frame and joins the worker threads,
    /// returning their outcomes in node order.
    pub fn shutdown(mut self) -> Vec<NodeOutcome> {
        for node in 0..self.plan.nodes() {
            self.encode_buf.clear();
            codec::encode_frame(
                self.plan.nodes() as u16,
                &WireFrame::Shutdown,
                &mut self.encode_buf,
            );
            self.shared.sent.fetch_add(1, Ordering::SeqCst);
            let _ = self.coordinator.send_to(node, &self.encode_buf);
        }
        self.handles
            .drain(..)
            .map(|h| h.join().expect("node worker panicked"))
            .collect()
    }
}
