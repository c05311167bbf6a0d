#![cfg(loom)]
//! Model-check suite for the stream engine's pause/resume protocol.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (ci.sh's loom job), which
//! swaps the engine's mutex/condvar for the loom stand-in via
//! `stream::sync`. Each `loom::model` call replays its closure under many
//! seeded preemption schedules; the properties checked are the protocol's
//! deadlock and lost-step classes:
//!
//! * a pause must not return before every sealed step drains,
//! * a writer blocked by pause must always see the resume wakeup,
//! * a close or fail must unblock a draining pause — and must surface as
//!   a typed [`PauseAborted`], never as a success-shaped count,
//! * a resume racing a draining pause must not reopen the write gate
//!   mid-drain (a refilled log would stall the pauser indefinitely).
//!
//! The vendored loom is a bounded stress search, not an exhaustive proof:
//! failures are real protocol bugs, passes are probabilistic.

use adios::StepData;
use loom::thread;
use stream::{
    Attach, PauseAborted, StreamConfig, StreamEngine, StreamReader, StreamWriteError,
};

fn step(ix: u64) -> StepData {
    StepData::new(ix)
}

/// A one-rank engine with one attached cursor, the shape of a single
/// staged edge.
fn edge(retention: usize) -> (StreamEngine, stream::StepWriter, StreamReader) {
    let eng = StreamEngine::new(StreamConfig { writers: 1, retention });
    let w = eng.writer(0);
    let r = eng.reader("sink", Attach::Oldest, None).expect("fresh engine");
    (eng, w, r)
}

#[test]
fn pause_waits_for_full_drain() {
    loom::model(|| {
        let (_eng, w, r) = edge(4);
        for i in 0..2 {
            w.try_write(step(i)).expect("retention 4 holds 2 steps");
        }
        let w2 = w.clone();
        let pauser = thread::spawn(move || w2.pause());
        let reader = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                got.push(r.next_step().expect("two steps were sealed").index);
            }
            (r, got)
        });
        let (r, got) = reader.join().expect("reader thread");
        assert_eq!(got, vec![0, 1], "seal order is pull order");
        // pause() reports the backlog at the instant it engages — the
        // reader may already have drained some of it.
        let drained = pauser.join().expect("pauser thread").expect("drain completes");
        assert!(drained <= 2);
        // After pause returns the stream is quiesced: paused and drained.
        assert!(w.is_paused());
        assert_eq!(r.queued(), 0, "pause returned before the drain finished");
        assert_eq!(w.try_write(step(9)).unwrap_err(), StreamWriteError::Paused);
    });
}

#[test]
fn pause_resume_never_loses_a_wakeup() {
    loom::model(|| {
        let (_eng, w, r) = edge(1);
        let w2 = w.clone();
        let writer = thread::spawn(move || w2.write(step(7)).map(|m| m.step));
        let pauser = thread::spawn(move || {
            let drained = w.pause();
            w.resume();
            drained
        });
        // Whatever the interleaving — write before pause (pause drains
        // through our pull), pause before write (resume must wake the
        // blocked writer) — the step lands and nobody deadlocks.
        assert_eq!(r.next_step().expect("the write always completes").index, 7);
        assert_eq!(writer.join().expect("writer thread").expect("write succeeds"), 7);
        assert!(pauser.join().expect("pauser thread").expect("drain completes") <= 1);
    });
}

#[test]
fn close_aborts_a_draining_pause_with_a_typed_outcome() {
    loom::model(|| {
        let (eng, w, r) = edge(4);
        w.try_write(step(0)).expect("retention 4 holds 1 step");
        let w2 = w.clone();
        let pauser = thread::spawn(move || w2.pause());
        let closer = thread::spawn(move || eng.close());
        // Nobody pulls, so the drain can only end via the close — and that
        // must be distinguishable from a completed drain.
        assert_eq!(
            pauser.join().expect("pauser thread"),
            Err(PauseAborted::Closed { remaining: 1 }),
            "an aborted drain must not look like success"
        );
        closer.join().expect("closer thread");
        // Sealed data is still drainable after close.
        assert!(r.next_step().is_some());
        assert!(r.next_step().is_none());
    });
}

#[test]
fn fail_aborts_a_draining_pause_with_a_typed_outcome() {
    loom::model(|| {
        let (_eng, w, r) = edge(4);
        w.try_write(step(0)).expect("retention 4 holds 1 step");
        let w2 = w.clone();
        let pauser = thread::spawn(move || w2.pause());
        let failer = thread::spawn(move || w.fail("injected crash"));
        // The drain can only end via the failure; the sealed step was
        // discarded, so success would be a silent lost step.
        assert_eq!(
            pauser.join().expect("pauser thread"),
            Err(PauseAborted::Failed("injected crash")),
            "a failed drain must not look like success"
        );
        assert_eq!(failer.join().expect("failer thread"), 1, "one step was lost");
        assert!(r.next_step().is_none(), "pull on a failed stream returns");
    });
}

#[test]
fn resume_cannot_reopen_the_gate_mid_drain() {
    loom::model(|| {
        let (_eng, w, r) = edge(4);
        w.try_write(step(0)).expect("retention 4 holds 1 step");
        let w_pause = w.clone();
        let pauser = thread::spawn(move || w_pause.pause());
        // Wait for the pause to engage before racing anything against it:
        // the gate cannot drop until the puller (spawned below) drains the
        // log, so this spin terminates and every schedule exercises the
        // resume/write-racing-an-active-drain interleavings.
        while !w.is_paused() {
            thread::yield_now();
        }
        let w_resume = w.clone();
        let resumer = thread::spawn(move || w_resume.resume());
        let w_refill = w.clone();
        // A writer racing the pause/resume pair: it must never slip a step
        // in while the drain is still waiting for the log to empty.
        let refiller = thread::spawn(move || w_refill.try_write(step(1)));
        let puller = thread::spawn(move || {
            let first = r.next_step().expect("the sealed step drains").index;
            (r, first)
        });
        let drained = pauser.join().expect("pauser thread").expect("drain completes");
        assert!(drained <= 1);
        resumer.join().expect("resumer thread");
        let (r, first) = puller.join().expect("puller thread");
        assert_eq!(first, 0);
        // Whatever the refiller saw — Paused (gate held) or Ok (it ran
        // after the drain finished and the resume landed) — the pauser's
        // contract held: a refill that succeeded must have happened after
        // the gate dropped, so at most one step remains now.
        match refiller.join().expect("refiller thread") {
            Ok(m) => {
                assert_eq!(m.step, 1);
                assert_eq!(r.queued(), 1);
            }
            Err(e) => {
                assert_eq!(e, StreamWriteError::Paused);
                assert_eq!(r.queued(), 0);
            }
        }
    });
}
