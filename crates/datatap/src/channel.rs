//! The two-phase staged channel: metadata push, data pull.
//!
//! DataTap/DataStager's defining behaviour is that a writer never pushes
//! bulk data at a receiver. It buffers the payload locally, pushes a small
//! *metadata* record, and the receiver *pulls* the payload when it is ready
//! (over RDMA on the real machine). This keeps slow receivers from being
//! overwhelmed.
//!
//! [`channel`] implements those semantics for the threaded runtime as a
//! bounded MPMC staging queue: a full buffer blocks the writer (the
//! "application blocking" the paper's management exists to prevent), and
//! clones of a [`Writer`] share the buffer the way the ranks of an MPI
//! component do. The queue accepts any step order, so it carries edges
//! the step-streaming engine rejects: completed steps arriving out of
//! order from several replicas, or one step index repeated per rank. The
//! writer pause of the container decrease protocol lives in one place,
//! the stream engine's `StepWriter::pause`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use adios::StepData;
use parking_lot::{Condvar, Mutex};

use crate::clock::{to_sim, Clock, WallClock};

/// Metadata announcing one buffered output step. Three plain words —
/// `Copy`, so the per-message paths hand it around without cloning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepMeta {
    /// Output-step index.
    pub step: u64,
    /// Payload size in bytes (what the pull will move).
    pub bytes: u64,
    /// Identifier of the writer that buffered the payload.
    pub writer: u32,
}

/// Why a write could not be accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// The channel buffer is full (receiver too slow).
    QueueFull,
    /// The channel was closed by the reader side.
    Closed,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::QueueFull => write!(f, "staging queue full"),
            WriteError::Closed => write!(f, "channel closed"),
        }
    }
}

impl std::error::Error for WriteError {}

struct Envelope {
    meta: StepMeta,
    payload: StepData,
}

struct State {
    queue: VecDeque<Envelope>,
    capacity: usize,
    closed: bool,
}

struct Inner {
    state: Mutex<State>,
    writer_cv: Condvar,
    reader_cv: Condvar,
    clock: Arc<dyn Clock>,
}

/// Creates a staged channel with a buffer of `capacity` steps, timing its
/// timeout paths against the process wall clock.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel(capacity: usize) -> (Writer, Reader) {
    channel_with_clock(capacity, Arc::new(WallClock::new()))
}

/// As [`channel`], but with an injected [`Clock`] — a [`ManualClock`]
/// makes timeout behaviour fully deterministic in tests.
///
/// [`ManualClock`]: crate::clock::ManualClock
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel_with_clock(capacity: usize, clock: Arc<dyn Clock>) -> (Writer, Reader) {
    assert!(capacity > 0, "channel capacity must be positive");
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            closed: false,
        }),
        writer_cv: Condvar::new(),
        reader_cv: Condvar::new(),
        clock,
    });
    (Writer { inner: inner.clone(), id: 0 }, Reader { inner })
}

/// The producing end. Cloneable: parallel writers (e.g. the ranks of an MPI
/// component) share the buffer.
#[derive(Clone)]
pub struct Writer {
    inner: Arc<Inner>,
    id: u32,
}

impl Writer {
    /// Returns a writer handle with a distinct writer id (for metadata
    /// attribution).
    pub fn with_id(&self, id: u32) -> Writer {
        Writer { inner: self.inner.clone(), id }
    }

    /// Attempts to buffer a step without blocking.
    pub fn try_write(&self, step: StepData) -> Result<StepMeta, WriteError> {
        let mut st = self.inner.state.lock();
        if st.closed {
            return Err(WriteError::Closed);
        }
        if st.queue.len() >= st.capacity {
            return Err(WriteError::QueueFull);
        }
        Ok(self.push(&mut st, step))
    }

    /// Buffers a step, blocking while the buffer is full — this is the
    /// "application blocks on I/O" failure mode.
    pub fn write(&self, step: StepData) -> Result<StepMeta, WriteError> {
        let mut st = self.inner.state.lock();
        loop {
            if st.closed {
                return Err(WriteError::Closed);
            }
            if st.queue.len() < st.capacity {
                return Ok(self.push(&mut st, step));
            }
            self.inner.writer_cv.wait(&mut st);
        }
    }

    fn push(&self, st: &mut State, payload: StepData) -> StepMeta {
        let meta = StepMeta { step: payload.step(), bytes: payload.payload_bytes(), writer: self.id };
        st.queue.push_back(Envelope { meta, payload });
        self.inner.reader_cv.notify_all();
        meta
    }
}

/// The consuming end.
pub struct Reader {
    inner: Arc<Inner>,
}

impl Reader {
    /// Peeks the metadata of the next buffered step without pulling it.
    pub fn peek_meta(&self) -> Option<StepMeta> {
        self.inner.state.lock().queue.front().map(|e| e.meta)
    }

    /// Pops the front step and wakes writers blocked on a full buffer.
    fn take(&self, st: &mut State) -> Option<(StepMeta, StepData)> {
        let env = st.queue.pop_front()?;
        self.inner.writer_cv.notify_all();
        Some((env.meta, env.payload))
    }

    /// Pulls the next step, blocking until one is available. Returns `None`
    /// once the channel is closed and drained.
    pub fn pull(&self) -> Option<(StepMeta, StepData)> {
        let mut st = self.inner.state.lock();
        loop {
            if let Some(out) = self.take(&mut st) {
                return Some(out);
            }
            if st.closed {
                return None;
            }
            self.inner.reader_cv.wait(&mut st);
        }
    }

    /// Pulls with a timeout; `None` on timeout or closed-and-drained.
    ///
    /// The deadline is computed on the channel's [`Clock`], so under a
    /// manual clock the timeout only expires when virtual time is advanced
    /// past it.
    pub fn pull_timeout(&self, timeout: Duration) -> Option<(StepMeta, StepData)> {
        let deadline = self.inner.clock.now() + to_sim(timeout);
        let mut st = self.inner.state.lock();
        loop {
            if let Some(out) = self.take(&mut st) {
                return Some(out);
            }
            if st.closed {
                return None;
            }
            let now = self.inner.clock.now();
            if now >= deadline {
                return None;
            }
            let slice = self.inner.clock.block_slice(deadline.since(now));
            self.inner.reader_cv.wait_for(&mut st, slice);
        }
    }

    /// Attempts a pull without blocking.
    pub fn try_pull(&self) -> Option<(StepMeta, StepData)> {
        let mut st = self.inner.state.lock();
        self.take(&mut st)
    }

    /// Steps currently buffered (announced but not yet pulled).
    pub fn queued(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Closes the channel; blocked writers fail with
    /// [`WriteError::Closed`], blocked pulls drain then end.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        self.inner.writer_cv.notify_all();
        self.inner.reader_cv.notify_all();
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn step(ix: u64) -> StepData {
        StepData::new(ix)
    }

    #[test]
    fn metadata_precedes_data() {
        let (w, r) = channel(4);
        w.try_write(step(0)).unwrap();
        let meta = r.peek_meta().unwrap();
        assert_eq!(meta.step, 0);
        // Peeking does not consume.
        let (meta2, _) = r.pull().unwrap();
        assert_eq!(meta, meta2);
    }

    #[test]
    fn try_write_reports_full() {
        let (w, r) = channel(2);
        // Any step order is accepted: one index repeated per rank, or
        // completed steps arriving out of order.
        w.try_write(step(5)).unwrap();
        w.try_write(step(5)).unwrap();
        assert_eq!(w.try_write(step(2)).unwrap_err(), WriteError::QueueFull);
        assert_eq!(r.queued(), 2);
    }

    #[test]
    fn blocking_write_resumes_after_pull() {
        let (w, r) = channel(1);
        w.write(step(0)).unwrap();
        let writer = thread::spawn(move || w.write(step(1)).map(|m| m.step));
        thread::sleep(Duration::from_millis(20));
        let (m, _) = r.pull().unwrap();
        assert_eq!(m.step, 0);
        assert_eq!(writer.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn close_unblocks_everyone() {
        let (w, r) = channel(1);
        w.try_write(step(0)).unwrap();
        let blocked = thread::spawn(move || w.write(step(1)));
        thread::sleep(Duration::from_millis(20));
        r.close();
        assert_eq!(blocked.join().unwrap().unwrap_err(), WriteError::Closed);
        // Buffered data is still drainable after close.
        assert!(r.pull().is_some());
        assert!(r.pull().is_none());
    }

    #[test]
    fn pull_timeout_times_out() {
        let (_w, r) = channel(1);
        assert!(r.pull_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn pull_timeout_under_manual_clock_is_virtual() {
        use crate::clock::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let (_w, r) = channel_with_clock(1, clock.clone());
        // The wait passes by advancing virtual time, not by sleeping: an
        // hour-long timeout returns immediately, and the clock lands
        // exactly on the deadline.
        assert!(r.pull_timeout(Duration::from_secs(3600)).is_none());
        assert_eq!(clock.now(), sim_core::SimTime::from_secs(3600));
    }

    #[test]
    fn manual_clock_already_past_deadline_never_blocks() {
        use crate::clock::ManualClock;
        use sim_core::SimTime;
        let clock = Arc::new(ManualClock::at(SimTime::from_secs(5)));
        let (w, r) = channel_with_clock(2, clock.clone());
        assert!(r.pull_timeout(Duration::from_millis(10)).is_none());
        // Data present still wins regardless of the clock.
        w.try_write(step(3)).unwrap();
        assert_eq!(r.pull_timeout(Duration::from_millis(10)).unwrap().0.step, 3);
    }

    #[test]
    fn parallel_writers_share_buffer() {
        use crate::clock::ManualClock;
        let (w, r) = channel_with_clock(64, Arc::new(ManualClock::new()));
        let mut handles = Vec::new();
        for wid in 0..4u32 {
            let w = w.with_id(wid);
            handles.push(thread::spawn(move || {
                for i in 0..16u64 {
                    w.write(step(i)).unwrap();
                }
            }));
        }
        let mut per_writer = [0u32; 4];
        for _ in 0..64 {
            let (meta, _) = r.pull().unwrap();
            per_writer[meta.writer as usize] += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(per_writer, [16; 4]);
        assert_eq!(r.queued(), 0);
    }
}
