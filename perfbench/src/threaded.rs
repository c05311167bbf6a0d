//! `threaded_analytics`: the paper's scenario on real threads.
//!
//! One MD application (a 2048-atom strained crystal that cracks about 14
//! output steps in) blocks on a full staging buffer while the threaded
//! container runtime runs Helper → Bonds (paper-faithful O(n²)) → CSym →
//! CNA. Bonds is the bottleneck; the manager grows it up to `nproc`
//! replicas, and the CSym → CNA branch fires from the data. Each sample is
//! one closed-loop `run_threaded` of a few hundred steps.
//!
//! A traced run also replays the same step sequence on one thread through
//! the same public calls, timing each call, to attribute a step's CPU time
//! to `mdsim`, `smartpointer`, the codec, `datatap`, `stream` and
//! `evpath`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adios::AttrValue;
use evpath::{Action as EvAction, Event, Overlay};
use iocontainers::{codec, run_threaded, ThreadedAction, ThreadedConfig};
use mdsim::{MdConfig, MdEngine};
use smartpointer::{split_snapshot, AggregationTree};
use stream::{Attach, StreamConfig, StreamEngine};

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{mix, Args, Metric, Outcome};

/// Output steps per closed-loop sample.
const STEPS: u64 = 120;
/// Steps in the single-thread replay of a traced run: past the crack, so
/// both CSym and CNA are timed.
const REPLAY_STEPS: u64 = 40;
const REPLAY_PAIRS: usize = 3;
const RANKS: usize = 4;

fn config(seed: u64) -> ThreadedConfig {
    let md = MdConfig {
        cells: (8, 8, 8),
        temperature: 0.02,
        strain_per_step: 0.002,
        yield_strain: 0.03,
        seed: mix(seed, 0),
        ..MdConfig::default()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    ThreadedConfig {
        md,
        steps: STEPS,
        md_steps_per_epoch: 1,
        ranks: RANKS,
        fan_in: 2,
        queue_capacity: 4,
        bonds_use_n2: true,
        initial_bonds_workers: 1,
        max_bonds_workers: nproc,
        manage: true,
        decrease: false,
        offline_dir: None,
        ..ThreadedConfig::default()
    }
    .with_kernel_threads(1)
}

struct Sample {
    setup_s: f64,
    wall_s: f64,
    analysed: u64,
    offline: u64,
    report: iocontainers::ThreadedReport,
}

/// Runs closed-loop samples for `window`. Before each one, times the
/// set-up the application performs before its first step (the crystal
/// build), so set-up is sampled across the run like the rate is.
fn closed_loop(cfg: &ThreadedConfig, window: Duration) -> Vec<Sample> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < window {
        let t0 = Instant::now();
        let md = MdEngine::new(std::hint::black_box(cfg.md.clone()));
        std::hint::black_box(md.system().len());
        let setup_s = t0.elapsed().as_secs_f64();
        drop(md);
        let t0 = Instant::now();
        let report = run_threaded(cfg.clone());
        let wall_s = t0.elapsed().as_secs_f64();
        let analysed = report.stage_steps[2] + report.stage_steps[3];
        out.push(Sample {
            setup_s,
            wall_s,
            analysed,
            offline: report.offline_steps,
            report,
        });
    }
    out
}

/// Per-call timings of one replay.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    md_ms: Vec<f64>,
    aggregate_us: Vec<f64>,
    bonds_ms: Vec<f64>,
    csym_ms: Vec<f64>,
    cna_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    datatap_us: Vec<f64>,
    edge_us: Vec<f64>,
    submit_us: Vec<f64>,
    bytes_per_step: Vec<f64>,
    crack_step: Option<u64>,
}

/// Times one call when tracing; with `tracer == None` the call runs bare,
/// so the untraced replay measures the same work without the probes.
struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
}

impl Probe<'_> {
    fn call<T>(
        &mut self,
        name: &'static str,
        cause: &'static str,
        id: u64,
        out: &mut Vec<f64>,
        scale: f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return f();
        };
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        out.push((t1 - t0).as_secs_f64() * scale);
        tracer.span(name, cause, id, t0, t1);
        r
    }
}

/// Replays `steps` output steps of `cfg` on this thread through the same
/// public calls the threaded runtime makes: MD epoch, rank split and
/// encode, a staged-channel hop per rank chunk, decode and aggregation, a
/// 1×1 stream-edge hop, Bonds n², CSym until the crack and CNA after it,
/// and one monitoring submit per step.
fn replay(cfg: &ThreadedConfig, steps: u64, tracer: Option<&mut Tracer>) -> Replay {
    let mut r = Replay::default();
    let mut p = Probe { tracer };
    let (us, ms) = (1e6, 1e3);
    let t_start = Instant::now();
    let mut md = MdEngine::new(cfg.md.clone());
    let (dw, dr) = datatap::channel(RANKS);
    let edge = StreamEngine::new(StreamConfig {
        writers: 1,
        retention: cfg.queue_capacity,
    });
    let ew = edge.writer(0);
    let er = edge
        .reader("bonds", Attach::Oldest, None)
        .expect("fresh engine");
    let overlay = Overlay::new("replay-monitor");
    let delivered = Arc::new(AtomicU64::new(0));
    let d2 = delivered.clone();
    let sink = overlay.add_stone(EvAction::Terminal(Box::new(move |_| {
        d2.fetch_add(1, Ordering::Relaxed);
    })));
    let monitor = overlay.sender();
    let tree = AggregationTree::new(cfg.fan_in.max(2));
    let mut cracked = false;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for id in 0..steps {
        let snap = p.call("mdsim.run_epoch", "app", id, &mut r.md_ms, ms, || {
            md.run_epoch(cfg.md_steps_per_epoch)
        });
        let mut bytes = 0u64;
        let mut chunks = Vec::with_capacity(RANKS);
        for (rank, chunk) in split_snapshot(&snap, RANKS).into_iter().enumerate() {
            let mut step = p.call("codec.encode", "mdsim.run_epoch", id, &mut enc, us, || {
                codec::snapshot_to_step(&chunk)
            });
            step.set_attr("rank", AttrValue::Int(rank as i64));
            bytes += step.payload_bytes();
            let (_, step) = p.call(
                "datatap.roundtrip",
                "codec.encode",
                id,
                &mut r.datatap_us,
                us,
                || {
                    dw.write(step).expect("channel open");
                    dr.pull().expect("step staged")
                },
            );
            chunks.push(p.call(
                "codec.decode",
                "datatap.roundtrip",
                id,
                &mut dec,
                us,
                || codec::step_to_snapshot(&step).expect("atoms schema"),
            ));
        }
        let merged = p.call(
            "smartpointer.aggregate",
            "codec.decode",
            id,
            &mut r.aggregate_us,
            us,
            || tree.aggregate(chunks),
        );
        let out = p.call(
            "codec.encode",
            "smartpointer.aggregate",
            id,
            &mut enc,
            us,
            || codec::snapshot_to_step(&merged),
        );
        bytes += out.payload_bytes();
        let (_, out) = p.call(
            "stream.edge_roundtrip",
            "codec.encode",
            id,
            &mut r.edge_us,
            us,
            || {
                ew.write(out).expect("edge open");
                er.pull().expect("step sealed")
            },
        );
        let snap = p.call(
            "codec.decode",
            "stream.edge_roundtrip",
            id,
            &mut dec,
            us,
            || codec::step_to_snapshot(&out).expect("atoms schema"),
        );
        let bonds = p.call(
            "smartpointer.bonds_n2",
            "codec.decode",
            id,
            &mut r.bonds_ms,
            ms,
            || cfg.bonds.compute_n2(&snap),
        );
        let encoded = p.call(
            "codec.encode",
            "smartpointer.bonds_n2",
            id,
            &mut enc,
            us,
            || codec::bonds_to_step(&bonds),
        );
        bytes += encoded.payload_bytes();
        let bonds = p.call("codec.decode", "codec.encode", id, &mut dec, us, || {
            codec::step_to_bonds(&encoded).expect("bonds schema")
        });
        if cracked {
            p.call(
                "smartpointer.cna",
                "codec.decode",
                id,
                &mut r.cna_ms,
                ms,
                || cfg.cna.compute(&bonds),
            );
        } else {
            let out = p.call(
                "smartpointer.csym",
                "codec.decode",
                id,
                &mut r.csym_ms,
                ms,
                || cfg.csym.compute(&bonds),
            );
            if out.break_detected {
                cracked = true;
                r.crack_step = Some(out.step);
            }
        }
        p.call(
            "evpath.submit",
            "smartpointer.analysis",
            id,
            &mut r.submit_us,
            us,
            || {
                monitor.submit(sink, Event::new(id));
            },
        );
        r.bytes_per_step.push(bytes as f64);
        // codec time is reported per step: the sum of its calls.
        if p.tracer.is_some() {
            r.encode_us.push(enc.drain(..).sum());
            r.decode_us.push(dec.drain(..).sum());
        }
    }
    r.wall_s = t_start.elapsed().as_secs_f64();
    overlay.flush();
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        steps,
        "every monitoring submit was delivered"
    );
    overlay.shutdown();
    r
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let cfg = config(args.seed);

    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let samples = closed_loop(&cfg, window);
    let setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    o.end_to_end.push(Metric::new("setup_s", "s", &setups));
    for s in &samples {
        let rep = &s.report;
        o.attempted += rep.steps_emitted;
        // The known defect loses at most the steps CSym's channel holds
        // when CSym retires at the crack; anything beyond is a new loss.
        let lost = rep.steps_emitted.saturating_sub(s.analysed + s.offline);
        let known = rep.crack_detected_at.is_some() && lost <= cfg.queue_capacity as u64;
        if known {
            o.lost += lost;
        } else {
            o.failed += lost;
        }
        o.check(known, || {
            format!(
                "{lost} steps lost, beyond the CSym-break loss of at most {} queued steps: {:?}",
                cfg.queue_capacity, rep.stage_steps
            )
        });
        o.check(s.analysed + s.offline <= rep.steps_emitted, || {
            format!(
                "analysed {} + offline {} exceeds emitted {}",
                s.analysed, s.offline, rep.steps_emitted
            )
        });
        o.check(rep.stage_steps[0] == rep.steps_emitted, || {
            format!("Helper missed steps: {:?}", rep.stage_steps)
        });
        o.check(rep.stage_steps[1] + s.offline == rep.steps_emitted, || {
            format!(
                "Bonds missed steps: {:?}, offline {}",
                rep.stage_steps, s.offline
            )
        });
        o.check(rep.crack_detected_at.is_some(), || {
            "the strained crystal never cracked".into()
        });
        o.check(rep.errors.is_empty(), || {
            format!("runtime errors: {:?}", rep.errors)
        });
    }
    o.notes.push(format!(
        "threaded lost steps per sample: {:?}",
        samples
            .iter()
            .map(|s| s
                .report
                .steps_emitted
                .saturating_sub(s.analysed + s.offline))
            .collect::<Vec<_>>()
    ));
    let rate: Vec<f64> = samples
        .iter()
        .map(|s| s.analysed as f64 / s.wall_s)
        .collect();
    o.end_to_end.push(Metric::new("steps_per_s", "1/s", &rate));

    let stage = |ix: usize| -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.report.mean_latency_s[ix] * 1e3)
            .collect()
    };
    o.per_layer
        .push(Metric::new("threaded.stage_ms.helper", "ms", &stage(0)));
    o.per_layer
        .push(Metric::new("threaded.stage_ms.bonds", "ms", &stage(1)));
    o.per_layer
        .push(Metric::new("threaded.stage_ms.csym", "ms", &stage(2)));
    o.per_layer
        .push(Metric::new("threaded.stage_ms.cna", "ms", &stage(3)));
    let each = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let increases = each(&|s| {
        s.report
            .actions
            .iter()
            .filter(|a| matches!(a, ThreadedAction::IncreaseBonds { .. }))
            .count() as f64
    });
    o.per_layer
        .push(Metric::new("threaded.increases", "count", &increases));
    o.per_layer.push(Metric::new(
        "threaded.monitor_events",
        "count",
        &each(&|s| s.report.monitor_events as f64),
    ));
    o.per_layer.push(Metric::new(
        "threaded.crack_step",
        "step",
        &each(&|s| s.report.crack_detected_at.map_or(f64::NAN, |c| c as f64)),
    ));
    // Known defect: CSym stops at the crack, dropping any step the router
    // had already queued for it. Counted here and in `delivered_step_frac`,
    // never configured away.
    o.per_layer.push(Metric::exact(
        "threaded.lost_steps",
        "count",
        (o.lost + o.failed) as f64,
    ));

    if args.trace {
        // Bare and traced replays alternate, so the overhead is measured
        // under the same machine load; the last traced replay is reported.
        let mut tracer = Tracer::new(Instant::now(), 0);
        let (mut bare_s, mut traced_s, mut cracks) = (Vec::new(), Vec::new(), Vec::new());
        let mut r = Replay::default();
        for _ in 0..REPLAY_PAIRS {
            let bare = replay(&cfg, REPLAY_STEPS, None);
            bare_s.push(bare.wall_s);
            cracks.push(bare.crack_step);
            tracer = Tracer::new(Instant::now(), 100_000);
            r = replay(&cfg, REPLAY_STEPS, Some(&mut tracer));
            traced_s.push(r.wall_s);
            cracks.push(r.crack_step);
        }
        o.check(
            cracks.iter().all(|c| c.is_some() && *c == cracks[0]),
            || format!("replays disagree on the crack step or miss it: {cracks:?}"),
        );
        let m = |name, unit, v: &[f64]| Metric::new(name, unit, v);
        o.per_layer.extend([
            m("mdsim.run_epoch_ms", "ms", &r.md_ms),
            m("smartpointer.aggregate_us", "us", &r.aggregate_us),
            m("smartpointer.bonds_n2_ms", "ms", &r.bonds_ms),
            m("smartpointer.csym_ms", "ms", &r.csym_ms),
            m("smartpointer.cna_ms", "ms", &r.cna_ms),
            m("codec.encode_us", "us", &r.encode_us),
            m("codec.decode_us", "us", &r.decode_us),
            m("datatap.roundtrip_us", "us", &r.datatap_us),
            m("stream.edge_roundtrip_us", "us", &r.edge_us),
            m("evpath.submit_us", "us", &r.submit_us),
            m("threaded.bytes_per_step", "B", &r.bytes_per_step),
        ]);
        let overhead = 1.0 - Summary::of(&bare_s).median / Summary::of(&traced_s).median;
        o.per_layer
            .push(Metric::exact("trace.overhead_frac", "ratio", overhead));
        o.spans = Some(tracer);
    }
    o
}
