//! Decorators around the crates' public traits, used only in a traced run:
//! a timing [`ScheduleTarget`], a counting and capturing [`Transport`], and
//! the replay of captured frames through the public codec.

use bneck_maxmin::{RateLimit, SessionId};
use bneck_node::{decode_frame, encode_frame, Transport, WireFrame};
use bneck_sim::SimTime;
use bneck_workload::{ScheduleTarget, SessionRequest};
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls and time spent in one kind of API call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTime {
    pub calls: u64,
    pub time: Duration,
}

impl CallTime {
    fn add(&mut self, time: Duration) {
        self.calls += 1;
        self.time += time;
    }

    /// Mean microseconds per call (0 when there were no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.time.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Per-call timings of the API layer, accumulated over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApiTimes {
    pub join: CallTime,
    pub leave: CallTime,
    pub change: CallTime,
    pub rejected: u64,
}

/// Times every call a [`Schedule::apply`](bneck_workload::Schedule::apply)
/// makes into the wrapped target.
pub struct TimedTarget<'a, T: ?Sized> {
    inner: &'a mut T,
    times: &'a mut ApiTimes,
}

impl<'a, T: ScheduleTarget + ?Sized> TimedTarget<'a, T> {
    pub fn new(inner: &'a mut T, times: &'a mut ApiTimes) -> Self {
        TimedTarget { inner, times }
    }

    fn timed(&mut self, pick: fn(&mut ApiTimes) -> &mut CallTime, ok: bool, t: Instant) -> bool {
        pick(self.times).add(t.elapsed());
        if !ok {
            self.times.rejected += 1;
        }
        ok
    }
}

impl<T: ScheduleTarget + ?Sized> ScheduleTarget for TimedTarget<'_, T> {
    fn apply_join(&mut self, at: SimTime, request: &SessionRequest) -> bool {
        let t = Instant::now();
        let ok = self.inner.apply_join(at, request);
        self.timed(|a| &mut a.join, ok, t)
    }

    fn apply_leave(&mut self, at: SimTime, session: SessionId) -> bool {
        let t = Instant::now();
        let ok = self.inner.apply_leave(at, session);
        self.timed(|a| &mut a.leave, ok, t)
    }

    fn apply_change(&mut self, at: SimTime, session: SessionId, limit: RateLimit) -> bool {
        let t = Instant::now();
        let ok = self.inner.apply_change(at, session, limit);
        self.timed(|a| &mut a.change, ok, t)
    }
}

/// What the tapped endpoints of one mesh saw, merged as each endpoint drops.
#[derive(Debug, Default)]
pub struct TapTotals {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub send_time: Duration,
    pub frames_recv: u64,
    /// Every frame sent, back to back (frames carry their length prefix).
    pub captured: Vec<u8>,
}

/// Counts, times and captures the frames an endpoint sends. Totals are kept
/// locally and merged into the shared [`TapTotals`] on drop, so the send
/// path takes no lock.
pub struct TapTransport<T> {
    inner: T,
    local: TapTotals,
    shared: Arc<Mutex<TapTotals>>,
}

impl<T: Transport> TapTransport<T> {
    pub fn new(inner: T, shared: Arc<Mutex<TapTotals>>) -> Self {
        TapTransport {
            inner,
            local: TapTotals::default(),
            shared,
        }
    }
}

impl<T: Transport> Transport for TapTransport<T> {
    fn send_to(&mut self, peer: usize, frame: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.send_to(peer, frame);
        self.local.send_time += t.elapsed();
        self.local.frames_sent += 1;
        self.local.bytes_sent += frame.len() as u64;
        self.local.captured.extend_from_slice(frame);
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let frame = self.inner.recv_timeout(timeout)?;
        if frame.is_some() {
            self.local.frames_recv += 1;
        }
        Ok(frame)
    }
}

impl<T> Drop for TapTransport<T> {
    fn drop(&mut self) {
        // A poisoned lock only loses this endpoint's tallies; never panic in drop.
        if let Ok(mut shared) = self.shared.lock() {
            shared.frames_sent += self.local.frames_sent;
            shared.bytes_sent += self.local.bytes_sent;
            shared.send_time += self.local.send_time;
            shared.frames_recv += self.local.frames_recv;
            shared.captured.append(&mut self.local.captured);
        }
    }
}

/// The frame kinds of the wire codec, in tag order.
pub const FRAME_KINDS: [&str; 7] = [
    "packet", "data", "ack", "join", "leave", "change", "shutdown",
];

fn frame_kind(frame: &WireFrame) -> usize {
    match frame {
        WireFrame::Packet { .. } => 0,
        WireFrame::Data { .. } => 1,
        WireFrame::Ack { .. } => 2,
        WireFrame::Join { .. } => 3,
        WireFrame::Leave { .. } => 4,
        WireFrame::Change { .. } => 5,
        WireFrame::Shutdown => 6,
    }
}

/// The result of replaying captured frames through the codec.
#[derive(Debug, Default)]
pub struct CodecReplay {
    pub frames_by_kind: [u64; 7],
    pub decode_errors: u64,
    pub decode_ns_per_frame: f64,
    pub encode_ns_per_frame: f64,
}

/// Timed replay passes: at least this many, and at least this long.
const REPLAY_PASSES: usize = 5;
const REPLAY_TIME: Duration = Duration::from_millis(20);

/// Decodes the captured stream once to classify it, then times repeated
/// decode and encode passes over it.
pub fn replay_codec(captured: &[u8]) -> CodecReplay {
    let mut replay = CodecReplay::default();
    let mut frames = Vec::new();
    let mut rest = captured;
    while !rest.is_empty() {
        match decode_frame(rest) {
            Ok(Some((from, frame, used))) => {
                replay.frames_by_kind[frame_kind(&frame)] += 1;
                frames.push((from, frame));
                rest = &rest[used..];
            }
            Ok(None) | Err(_) => {
                replay.decode_errors += 1;
                break;
            }
        }
    }
    if frames.is_empty() {
        return replay;
    }
    let n = frames.len() as f64;
    replay.decode_ns_per_frame = time_passes(|| {
        let mut rest = captured;
        while let Ok(Some((_, frame, used))) = decode_frame(black_box(rest)) {
            black_box(frame);
            rest = &rest[used..];
        }
    }) / n;
    let mut out = Vec::with_capacity(captured.len());
    replay.encode_ns_per_frame = time_passes(|| {
        out.clear();
        for (from, frame) in &frames {
            encode_frame(*from, black_box(frame), &mut out);
        }
        black_box(&out);
    }) / n;
    replay
}

/// Median nanoseconds of one pass of `pass`.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < REPLAY_PASSES || begin.elapsed() < REPLAY_TIME {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
