//! `stream_fanout`: N=4 writer ranks fanning out to M=3 cursors over one
//! step-streaming engine.
//!
//! One thread drives all four writer ranks of a `StreamEngine` and blocks
//! on its retention bound; every `PAUSE_EVERY` steps it also pauses the
//! writer group (draining every attached cursor) and resumes. One thread
//! services the three cursors: `viz` takes whole steps with `next_step`,
//! `analytics` drops and re-attaches with `Attach::Resume` every
//! `REJOIN_EVERY` steps, and `archival` appends every fragment to a BP
//! file that is finalized, replayed through a `FileSource` and checked
//! against the live sequence every `SEGMENT_STEPS` steps. Fragments are
//! encoded from MD snapshots during set-up, so MD and the codec stay out
//! of the timed loop; control announcements flow to an EVPath overlay.
//!
//! Each sample is one episode of `EPISODE_STEPS` global steps on a fresh
//! engine, so every count in it is exact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adios::{AttrValue, BpFileWriter, StepData};
use evpath::{Action as EvAction, Overlay, OverlaySender, StoneId};
use iocontainers::codec;
use mdsim::{MdConfig, MdEngine};
use smartpointer::split_snapshot;
use stream::{
    Attach, FileSource, GlobalStep, StepSource, StepWriter, StreamConfig, StreamEngine,
    StreamReader, StreamWriteError,
};

use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::{mix, Args, Metric, Outcome};

const WRITERS: u32 = 4;
const RETENTION: usize = 16;
const EPISODE_STEPS: u64 = 8192;
const PAUSE_EVERY: u64 = 64;
const REJOIN_EVERY: u64 = 100;
const SEGMENT_STEPS: u64 = 1024;
/// Distinct MD snapshots the writer cycles through.
const TEMPLATES: usize = 8;
const SPAN_CAP: usize = 25_000;

/// The writer group's inputs: `TEMPLATES` MD snapshots of a 256-atom
/// crystal, each split into `WRITERS` encoded rank fragments.
fn templates(seed: u64) -> Vec<Vec<StepData>> {
    let mut md = MdEngine::new(MdConfig {
        cells: (4, 4, 4),
        seed: mix(seed, 0),
        ..MdConfig::default()
    });
    (0..TEMPLATES)
        .map(|_| {
            let snap = md.run_epoch(2);
            split_snapshot(&snap, WRITERS as usize)
                .iter()
                .enumerate()
                .map(|(rank, chunk)| {
                    let mut step = codec::snapshot_to_step(chunk);
                    step.set_attr("rank", AttrValue::Int(rank as i64));
                    step
                })
                .collect()
        })
        .collect()
}

/// A template fragment re-stamped with the application step `step`.
fn fragment(template: &StepData, step: u64) -> StepData {
    let mut s = StepData::new(step);
    for (k, v) in template.values() {
        s.write_unchecked(k, v.clone());
    }
    for (k, a) in template.attrs() {
        s.set_attr(k, a.clone());
    }
    s
}

/// Nanoseconds since `base`.
fn ns(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

#[derive(Default)]
struct WriterStats {
    writes: u64,
    blocked: u64,
    write_us: Vec<f64>,
    wait_us: Vec<f64>,
    pause_us: Vec<f64>,
    backlog: Vec<f64>,
}

#[derive(Default)]
struct ReaderStats {
    /// Write-of-last-fragment to viz arrival, one sample per step.
    latency_us: Vec<f64>,
    next_step_us: Vec<f64>,
    rejoin_us: Vec<f64>,
    append_us: Vec<f64>,
    appended_bytes: u64,
    replay_steps_per_s: Vec<f64>,
    lag_max: u64,
    viz: u64,
    analytics: u64,
    archival: u64,
    replayed: u64,
}

/// The writer thread: all ranks of every step, in rank order; pause and
/// resume every `PAUSE_EVERY` steps. Dropping the writers closes the
/// engine.
fn write_episode(
    writers: Vec<StepWriter>,
    templates: &[Vec<StepData>],
    stamps: &[AtomicU64],
    base: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Result<WriterStats, String> {
    let mut st = WriterStats::default();
    let err = |what: &str, e: StreamWriteError| format!("{what}: {e}");
    for step in 0..EPISODE_STEPS {
        let t = &templates[step as usize % templates.len()];
        for (rank, w) in writers.iter().enumerate() {
            let frag = fragment(&t[rank], step);
            if rank + 1 == writers.len() {
                stamps[step as usize].store(ns(base), Ordering::Release);
            }
            let t0 = Instant::now();
            match w.try_write(frag) {
                Ok(_) => {
                    if let Some(tr) = tracer.as_deref_mut() {
                        let t1 = Instant::now();
                        st.write_us.push((t1 - t0).as_secs_f64() * 1e6);
                        tr.span("stream.write", "app", step, t0, t1);
                    }
                }
                Err(StreamWriteError::WindowFull) => {
                    st.blocked += 1;
                    let t0 = Instant::now();
                    w.write(fragment(&t[rank], step))
                        .map_err(|e| err("blocking write", e))?;
                    if let Some(tr) = tracer.as_deref_mut() {
                        let t1 = Instant::now();
                        st.wait_us.push((t1 - t0).as_secs_f64() * 1e6);
                        tr.span("stream.write_wait", "stream.retention", step, t0, t1);
                    }
                }
                Err(e) => return Err(err("try_write", e)),
            }
            st.writes += 1;
        }
        if (step + 1).is_multiple_of(PAUSE_EVERY) {
            let t0 = Instant::now();
            let backlog = writers[0]
                .pause()
                .map_err(|e| format!("pause aborted: {e:?}"))?;
            writers[0].resume();
            if let Some(tr) = tracer.as_deref_mut() {
                let t1 = Instant::now();
                st.pause_us.push((t1 - t0).as_secs_f64() * 1e6);
                st.backlog.push(backlog as f64);
                tr.span("stream.pause", "manager", step, t0, t1);
            }
        }
    }
    Ok(st)
}

/// The archival cursor's current BP segment and the live sequence it must
/// replay to.
struct Archive {
    dir: PathBuf,
    segment: u64,
    writer: Option<BpFileWriter>,
    live: Vec<(u64, i64, u64)>, // (step, rank, payload bytes)
}

impl Archive {
    fn path(&self) -> PathBuf {
        self.dir.join(format!("segment-{}.bp", self.segment))
    }

    fn append(&mut self, frag: &StepData) -> Result<(), String> {
        if self.writer.is_none() {
            let path = self.path();
            self.writer = Some(
                BpFileWriter::create(&path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?,
            );
        }
        let rank = match frag.attr("rank") {
            Some(AttrValue::Int(r)) => *r,
            _ => -1,
        };
        self.live.push((frag.step(), rank, frag.payload_bytes()));
        self.writer.as_mut().map_or(Ok(()), |w| {
            w.append("atoms", frag).map_err(|e| format!("append: {e}"))
        })
    }

    /// Finalizes the segment, replays it through a `FileSource` and checks
    /// it fragment for fragment against the live sequence; returns the
    /// replayed global steps and the replay time.
    fn rotate(&mut self) -> Result<(u64, f64), String> {
        let Some(w) = self.writer.take() else {
            return Ok((0, 0.0));
        };
        let path = w.finalize().map_err(|e| format!("finalize: {e}"))?;
        let t0 = Instant::now();
        let mut src =
            FileSource::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut replayed = Vec::with_capacity(self.live.len());
        while let Some(frag) = src.next_step().map_err(|e| format!("replay: {e}"))? {
            let rank = match frag.attr("rank") {
                Some(AttrValue::Int(r)) => *r,
                _ => -1,
            };
            replayed.push((frag.step(), rank, frag.payload_bytes()));
        }
        let secs = t0.elapsed().as_secs_f64();
        if replayed != self.live {
            return Err(format!(
                "segment {}: replay of {} fragments differs from the live archival sequence of {}",
                self.segment,
                replayed.len(),
                self.live.len()
            ));
        }
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        self.segment += 1;
        let steps = self.live.len() as u64 / u64::from(WRITERS);
        self.live.clear();
        Ok((steps, secs))
    }
}

/// Cursors of one episode, attached before the writers start so every
/// cursor sees step 0. `analytics` is `None` only while it rejoins.
struct Cursors {
    viz: StreamReader,
    analytics: Option<StreamReader>,
    archival: StreamReader,
}

fn expect_next(seen: &mut u64, index: u64, cursor: &str) -> Result<(), String> {
    if index != *seen {
        return Err(format!(
            "{cursor} saw step {index}, expected {seen}: not exactly once"
        ));
    }
    *seen += 1;
    Ok(())
}

/// Analytics consumed `step`; every `REJOIN_EVERY` steps it crashes (drops
/// its handle) and restarts from its durable cursor.
fn on_analytics(
    eng: &StreamEngine,
    st: &mut ReaderStats,
    analytics: &mut Option<StreamReader>,
    step: &GlobalStep,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    expect_next(&mut st.analytics, step.index, "analytics")?;
    if st.analytics.is_multiple_of(REJOIN_EVERY) {
        let t0 = Instant::now();
        *analytics = None;
        *analytics = Some(
            eng.reader("analytics", Attach::Resume, None)
                .map_err(|e| format!("rejoin: {e}"))?,
        );
        if let Some(tr) = tracer.as_deref_mut() {
            let t1 = Instant::now();
            st.rejoin_us.push((t1 - t0).as_secs_f64() * 1e6);
            tr.span("stream.rejoin", "analytics.crash", step.index, t0, t1);
        }
    }
    Ok(())
}

/// Archival consumed `step`: append its fragments, and rotate the BP
/// segment every `SEGMENT_STEPS` steps.
fn on_archival(
    st: &mut ReaderStats,
    archive: &mut Archive,
    step: &GlobalStep,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    expect_next(&mut st.archival, step.index, "archival")?;
    if step.fragments.len() != WRITERS as usize {
        return Err(format!(
            "archival step {} has {} fragments",
            step.index,
            step.fragments.len()
        ));
    }
    for frag in &step.fragments {
        let t0 = Instant::now();
        archive.append(frag)?;
        st.appended_bytes += frag.payload_bytes();
        if let Some(tr) = tracer.as_deref_mut() {
            let t1 = Instant::now();
            st.append_us.push((t1 - t0).as_secs_f64() * 1e6);
            tr.span("adios.bp_append", "stream.archival", step.index, t0, t1);
        }
    }
    if st.archival.is_multiple_of(SEGMENT_STEPS) {
        let (steps, secs) = archive.rotate()?;
        st.replayed += steps;
        if tracer.is_some() && secs > 0.0 {
            st.replay_steps_per_s.push(steps as f64 / secs);
        }
    }
    Ok(())
}

/// The reader thread: one blocking `next_step` on viz per iteration, then
/// drain analytics and archival.
fn read_episode(
    eng: &StreamEngine,
    mut c: Cursors,
    archive: &mut Archive,
    stamps: &[AtomicU64],
    base: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Result<ReaderStats, String> {
    let mut st = ReaderStats {
        latency_us: Vec::with_capacity(EPISODE_STEPS as usize),
        ..ReaderStats::default()
    };
    let next = |r: &Option<StreamReader>, block: bool| {
        r.as_ref().and_then(|r| {
            if block {
                r.next_step()
            } else {
                r.try_next_step()
            }
        })
    };
    loop {
        let t0 = Instant::now();
        let Some(step) = c.viz.next_step() else { break };
        let arrived = ns(base);
        if let Some(tr) = tracer.as_deref_mut() {
            let t1 = Instant::now();
            st.next_step_us.push((t1 - t0).as_secs_f64() * 1e6);
            tr.span("stream.next_step", "stream.seal", step.index, t0, t1);
        }
        let stamp = stamps
            .get(step.index as usize)
            .map_or(0, |s| s.load(Ordering::Acquire));
        st.latency_us
            .push(arrived.saturating_sub(stamp) as f64 / 1e3);
        expect_next(&mut st.viz, step.index, "viz")?;
        if step.fragments.len() != WRITERS as usize {
            return Err(format!(
                "viz step {} has {} fragments",
                step.index,
                step.fragments.len()
            ));
        }
        if st.viz.is_multiple_of(64) {
            // Sealed steps the slowest cursor has yet to consume: how full
            // the retention window the writer blocks on is.
            let analytics = c.analytics.as_ref().map_or(0, |a| a.position());
            let slowest = analytics.min(c.archival.position());
            st.lag_max = st.lag_max.max(eng.sealed_steps().saturating_sub(slowest));
        }
        while let Some(s) = next(&c.analytics, false) {
            on_analytics(eng, &mut st, &mut c.analytics, &s, &mut tracer)?;
        }
        while let Some(s) = c.archival.try_next_step() {
            on_archival(&mut st, archive, &s, &mut tracer)?;
        }
    }
    while let Some(s) = next(&c.analytics, true) {
        on_analytics(eng, &mut st, &mut c.analytics, &s, &mut tracer)?;
    }
    while let Some(s) = c.archival.next_step() {
        on_archival(&mut st, archive, &s, &mut tracer)?;
    }
    let (steps, _) = archive.rotate()?;
    st.replayed += steps;
    Ok(st)
}

struct Episode {
    wall_s: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    writer: WriterStats,
    reader: ReaderStats,
    control_events: u64,
}

fn episode(
    templates: &[Vec<StepData>],
    control: (&OverlaySender, StoneId),
    archive: &mut Archive,
    tracers: Option<(&mut Tracer, &mut Tracer)>,
) -> Result<Episode, String> {
    let eng = StreamEngine::builder(StreamConfig {
        writers: WRITERS,
        retention: RETENTION,
    })
    .control(control.0.clone(), control.1)
    .build();
    let attach = |name: &str| {
        eng.reader(name, Attach::Oldest, None)
            .map_err(|e| e.to_string())
    };
    let cursors = Cursors {
        viz: attach("viz")?,
        analytics: Some(attach("analytics")?),
        archival: attach("archival")?,
    };
    let writers: Vec<StepWriter> = (0..WRITERS).map(|r| eng.writer(r)).collect();
    let stamps: Vec<AtomicU64> = (0..EPISODE_STEPS).map(|_| AtomicU64::new(0)).collect();
    let (wt, rt) = match tracers {
        Some((w, r)) => (Some(w), Some(r)),
        None => (None, None),
    };
    let base = Instant::now();
    let (w, r) = std::thread::scope(|scope| {
        let stamps = &stamps;
        let writer = scope.spawn(move || write_episode(writers, templates, stamps, base, wt));
        let r = read_episode(&eng, cursors, archive, stamps, base, rt);
        if r.is_err() {
            // Unblock the writer: a failed reader must not strand it.
            eng.close();
        }
        (
            writer
                .join()
                .map_err(|_| "writer thread panicked".to_string()),
            r,
        )
    });
    let wall_s = base.elapsed().as_secs_f64();
    let writer = w??;
    let mut reader = r?;
    // Latency samples are reduced per episode, so memory does not grow
    // with the number of episodes a run fits in.
    let latency_p50_us = percentile(&mut reader.latency_us, 50.0);
    let latency_p99_us = percentile(&mut reader.latency_us, 99.0);
    reader.latency_us = Vec::new();
    Ok(Episode {
        wall_s,
        latency_p50_us,
        latency_p99_us,
        writer,
        reader,
        control_events: 0,
    })
}

pub fn run(args: &Args, out_dir: &Path) -> Outcome {
    let mut o = Outcome::default();
    let dir = out_dir.join(format!("stream-fanout-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        o.violations.push(format!("create {}: {e}", dir.display()));
        return o;
    }

    let overlay = Overlay::new("stream-control");
    let announced = Arc::new(AtomicU64::new(0));
    let counter = announced.clone();
    let stone = overlay.add_stone(EvAction::Terminal(Box::new(move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    })));
    let sender = overlay.sender();
    let mut archive = Archive {
        dir: dir.clone(),
        segment: 0,
        writer: None,
        live: Vec::new(),
    };

    let mut setups = Vec::new();
    let mut one =
        |o: &mut Outcome, tracers: Option<(&mut Tracer, &mut Tracer)>| -> Option<Episode> {
            // Set-up, timed before every episode: the MD snapshots and
            // their encoded rank fragments.
            let t0 = Instant::now();
            let inputs = templates(args.seed);
            setups.push(t0.elapsed().as_secs_f64());
            let before = announced.load(Ordering::Relaxed);
            match episode(&inputs, (&sender, stone), &mut archive, tracers) {
                Ok(mut ep) => {
                    overlay.flush();
                    ep.control_events = announced.load(Ordering::Relaxed) - before;
                    Some(ep)
                }
                Err(e) => {
                    o.violations.push(e);
                    o.attempted += 3 * EPISODE_STEPS;
                    o.failed += 3 * EPISODE_STEPS;
                    None
                }
            }
        };
    let base = Instant::now();
    let mut wt = Tracer::new(base, SPAN_CAP);
    let mut rt = Tracer::new(base, SPAN_CAP);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // A traced run alternates untraced and traced episodes, so the tracing
    // overhead is measured on the same path under the same machine load.
    while plain.is_empty() || base.elapsed() < args.window() {
        let Some(ep) = one(&mut o, None) else { break };
        plain.push(ep);
        if args.trace {
            let Some(ep) = one(&mut o, Some((&mut wt, &mut rt))) else {
                break;
            };
            traced.push(ep);
        }
    }
    o.end_to_end.push(Metric::new("setup_s", "s", &setups));
    overlay.shutdown();
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        o.violations.push(format!("remove {}: {e}", dir.display()));
    }

    let all: Vec<&Episode> = plain.iter().chain(&traced).collect();
    let rejoins = EPISODE_STEPS / REJOIN_EVERY;
    let pauses = EPISODE_STEPS / PAUSE_EVERY;
    // Seals + pause/resume pairs + three attaches + a detach and an attach
    // per rejoin + a detach per cursor at the end + the close.
    let expected_control = EPISODE_STEPS + 2 * pauses + 3 + 2 * rejoins + 3 + 1;
    for ep in &all {
        o.attempted += 3 * EPISODE_STEPS;
        let delivered = ep.reader.viz.min(EPISODE_STEPS)
            + ep.reader.analytics.min(EPISODE_STEPS)
            + ep.reader.archival.min(EPISODE_STEPS);
        o.failed += 3 * EPISODE_STEPS - delivered;
        o.check(delivered == 3 * EPISODE_STEPS, || {
            format!(
                "cursors saw viz={} analytics={} archival={} of {EPISODE_STEPS}",
                ep.reader.viz, ep.reader.analytics, ep.reader.archival
            )
        });
        o.check(ep.reader.replayed == EPISODE_STEPS, || {
            format!(
                "archive replayed {} of {EPISODE_STEPS} steps",
                ep.reader.replayed
            )
        });
        o.check(
            ep.writer.writes == EPISODE_STEPS * u64::from(WRITERS),
            || format!("{} fragment writes", ep.writer.writes),
        );
        o.check(ep.control_events == expected_control, || {
            format!(
                "{} control announcements, expected {expected_control}",
                ep.control_events
            )
        });
    }
    // o.attempted counts (cursor, step) pairs; steps_per_s counts global
    // steps consumed by all three cursors.
    let rate = |eps: &[Episode]| -> Vec<f64> {
        eps.iter()
            .map(|e| EPISODE_STEPS as f64 / e.wall_s)
            .collect()
    };
    o.end_to_end
        .push(Metric::new("steps_per_s", "1/s", &rate(&plain)));

    // Per-episode percentiles over EPISODE_STEPS samples each, summarised
    // across episodes.
    let p50: Vec<f64> = plain.iter().map(|e| e.latency_p50_us).collect();
    let p99: Vec<f64> = plain.iter().map(|e| e.latency_p99_us).collect();
    o.per_layer
        .push(Metric::new("stream.step_latency_p50_us", "us", &p50));
    o.per_layer
        .push(Metric::new("stream.step_latency_p99_us", "us", &p99));
    o.per_layer.push(Metric::exact(
        "evpath.control_events",
        "count",
        all.first().map_or(0.0, |e| e.control_events as f64),
    ));
    let writes: u64 = all.iter().map(|e| e.writer.writes).sum();
    let blocked: u64 = all.iter().map(|e| e.writer.blocked).sum();
    o.per_layer.push(Metric::exact(
        "stream.write_blocked_frac",
        "ratio",
        blocked as f64 / writes.max(1) as f64,
    ));
    o.per_layer.push(Metric::exact(
        "stream.cursor_lag_max",
        "steps",
        all.iter().map(|e| e.reader.lag_max).max().unwrap_or(0) as f64,
    ));

    if args.trace {
        let pool = |f: &dyn Fn(&Episode) -> &Vec<f64>| -> Vec<f64> {
            traced.iter().flat_map(|e| f(e).iter().copied()).collect()
        };
        let pct = |mut v: Vec<f64>, p: f64| {
            let n = v.len();
            Summary {
                n,
                ..Summary::exact(percentile(&mut v, p))
            }
        };
        let pause = pool(&|e| &e.writer.pause_us);
        o.per_layer.extend([
            Metric {
                name: "stream.write_us_p50",
                unit: "us",
                summary: pct(pool(&|e| &e.writer.write_us), 50.0),
            },
            Metric {
                name: "stream.write_wait_us_p50",
                unit: "us",
                summary: pct(pool(&|e| &e.writer.wait_us), 50.0),
            },
            Metric {
                name: "stream.next_step_us_p50",
                unit: "us",
                summary: pct(pool(&|e| &e.reader.next_step_us), 50.0),
            },
            Metric {
                name: "stream.pause_us_p50",
                unit: "us",
                summary: pct(pause.clone(), 50.0),
            },
            Metric {
                name: "stream.pause_us_p99",
                unit: "us",
                summary: pct(pause, 99.0),
            },
            Metric {
                name: "adios.bp_append_us_p50",
                unit: "us",
                summary: pct(pool(&|e| &e.reader.append_us), 50.0),
            },
        ]);
        let backlog = pool(&|e| &e.writer.backlog);
        o.per_layer.push(Metric::exact(
            "stream.pause_backlog_mean",
            "steps",
            backlog.iter().sum::<f64>() / backlog.len().max(1) as f64,
        ));
        o.per_layer.push(Metric::new(
            "stream.rejoin_us",
            "us",
            &pool(&|e| &e.reader.rejoin_us),
        ));
        let append_s: f64 = traced.iter().flat_map(|e| &e.reader.append_us).sum::<f64>() / 1e6;
        let bytes: u64 = traced.iter().map(|e| e.reader.appended_bytes).sum();
        o.per_layer.push(Metric::exact(
            "adios.bp_mib_per_s",
            "MiB/s",
            bytes as f64 / (1024.0 * 1024.0) / append_s.max(1e-12),
        ));
        o.per_layer.push(Metric::new(
            "adios.replay_steps_per_s",
            "1/s",
            &pool(&|e| &e.reader.replay_steps_per_s),
        ));
        let plain_rate = Summary::of(&rate(&plain)).median;
        let traced_rate = Summary::of(&rate(&traced)).median;
        o.per_layer.push(Metric::exact(
            "trace.overhead_frac",
            "ratio",
            1.0 - traced_rate / plain_rate,
        ));
        wt.absorb(rt);
        o.spans = Some(wt);
    }
    o
}
