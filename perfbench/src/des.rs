//! `des_tenants`: a closed batch of one multi-tenant DES experiment, run to
//! completion over and over on its own kernel.
//!
//! 192 tenants share one machine behind the global manager. Half are
//! Fig. 7-shaped tight tenants whose Bonds container needs a management
//! action to keep up; every fourth of those also carries a fault plan (a
//! Bonds crash and a message-loss window), which turns on the heartbeat
//! rounds crossing the real-thread EVPath overlay. The other half are
//! light, healthy tenants. Admission queues, and a spare pool of T/4
//! nodes feeds increases and restarts.
//!
//! The path loads `sim-core` dispatch, the `iocontainers` data path and
//! policy tick, `d2t` trades and the `simfault` heartbeat/detector rounds.
//! It uses no kernels, no `stream` and no threads beyond the overlay's.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use iocontainers::{
    run_experiment_in, Action, AdmissionControl, AdmissionOutcome, ClusterConfig, Experiment,
    ExperimentConfig, ExperimentRun, ResourceSource, WorkloadConfig,
};
use sim_core::{Sim, SimDuration, SimTime};
use simfault::FaultPlan;

use crate::trace::Tracer;
use crate::{mix, Args, Metric, Outcome};

const TENANTS: usize = 192;
const TIGHT: usize = TENANTS / 2;
/// Output steps per tenant: enough that one experiment lasts about a
/// second of wall time, so a sample is not dominated by timer noise.
const STEPS: u64 = 300;
/// Spans kept from a traced run (one per dispatched event).
const SPAN_CAP: usize = 50_000;

/// Builds the composition from `seed`: crash instants, loss windows and
/// loss probabilities of the faulted tenants, and the kernel seed.
fn composition(seed: u64) -> Experiment {
    let mut tenants = Vec::with_capacity(TENANTS);
    for ix in 0..TIGHT {
        let (_, mut wl) = ExperimentConfig::fig7().split();
        wl.id = format!("tight-{ix:03}");
        wl.steps = STEPS;
        wl.sla.max_end_to_end = Some(SimDuration::from_secs(150));
        wl.weight = 2;
        if ix % 4 == 0 {
            let r = mix(seed, ix as u64);
            let crash_at = 60 + r % 600;
            let loss_at = 30 + (r >> 16) % 300;
            let loss_p = 0.2 + 0.3 * ((r >> 32) % 1000) as f64 / 1000.0;
            wl.faults = FaultPlan::new()
                .with_seed(mix(seed, 1_000 + ix as u64))
                .crash_container(SimDuration::from_secs(crash_at), "Bonds")
                .lose_messages(
                    SimDuration::from_secs(loss_at),
                    loss_p,
                    SimDuration::from_secs(120),
                );
        }
        tenants.push(wl);
    }
    for ix in 0..TENANTS - TIGHT {
        let mut wl = WorkloadConfig::new(format!("light-{ix:03}"), 8);
        wl.steps = STEPS;
        wl.initial.helper = 2;
        wl.initial.bonds = 1;
        wl.initial.csym = 2;
        wl.initial.cna = 2;
        tenants.push(wl);
    }
    let sim_nodes: u32 = tenants.iter().map(|t| t.sim_nodes).sum();
    let held: u32 = tenants.iter().map(|t| t.held_nodes()).sum();
    let mut cluster = ClusterConfig::new(sim_nodes, held + (TENANTS / 4) as u32);
    cluster.admission = AdmissionControl::Queue;
    cluster.seed = seed;
    Experiment::builder()
        .cluster(cluster)
        .tenants(tenants)
        .build()
        .expect("the composition is statically valid")
}

/// Per-label dispatch accounting for the traced run: a label's self time
/// is the wall gap from its dispatch to the next dispatch.
struct LabelClock {
    labels: Vec<(&'static str, u64, u64)>, // (label, self ns, dispatches)
    last: Option<(Instant, usize)>,
    spans: Tracer,
    run_id: u64,
}

impl LabelClock {
    fn dispatch(&mut self, label: &'static str, now: Instant) {
        self.close(now);
        let ix = match self.labels.iter().position(|l| l.0 == label) {
            Some(ix) => ix,
            None => {
                self.labels.push((label, 0, 0));
                self.labels.len() - 1
            }
        };
        self.labels[ix].2 += 1;
        self.last = Some((now, ix));
    }

    fn close(&mut self, now: Instant) {
        if let Some((t, ix)) = self.last.take() {
            self.labels[ix].1 += now.saturating_duration_since(t).as_nanos() as u64;
            self.spans
                .span(self.labels[ix].0, "sim_core.dispatch", self.run_id, t, now);
        }
    }

    fn self_ns(&self, labels: &[&str]) -> (u64, u64) {
        self.labels
            .iter()
            .filter(|l| labels.contains(&l.0))
            .fold((0, 0), |(ns, n), l| (ns + l.1, n + l.2))
    }
}

/// What one experiment run produced, reduced to what the benchmark checks
/// and reports.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    events: u64,
    processed: u64,
    heartbeats: u64,
    trades: u64,
    restarts: u64,
    admits: u64,
    queued_never: u64,
    blocked: u64,
    admitted: u64,
    sla_bits: u64,
}

fn counts(sim: &Sim, run: &ExperimentRun) -> Counts {
    let admitted: Vec<_> = run
        .tenants
        .iter()
        .filter(|t| matches!(t.admission, AdmissionOutcome::Admitted { .. }))
        .collect();
    let sla = admitted
        .iter()
        .map(|t| t.attainment.e2e_fraction())
        .sum::<f64>()
        / admitted.len().max(1) as f64;
    let trades = run
        .tenants
        .iter()
        .flat_map(|t| t.run.log.actions())
        .filter(|(_, a)| match a {
            Action::Increase { source, .. } => !matches!(source, ResourceSource::Spare),
            Action::TradeAborted { .. } => true,
            _ => false,
        })
        .count() as u64;
    Counts {
        events: sim.events_executed(),
        processed: run
            .tenants
            .iter()
            .map(|t| t.run.log.e2e_series().len() as u64)
            .sum(),
        heartbeats: run
            .tenants
            .first()
            .map_or(0, |t| t.run.heartbeats_delivered),
        trades,
        restarts: run
            .tenants
            .iter()
            .flat_map(|t| t.run.restarts.iter().map(|r| u64::from(r.1)))
            .sum(),
        admits: admitted
            .iter()
            .filter(
                |t| matches!(t.admission, AdmissionOutcome::Admitted { at } if at > SimTime::ZERO),
            )
            .count() as u64,
        queued_never: run
            .tenants
            .iter()
            .filter(|t| !matches!(t.admission, AdmissionOutcome::Admitted { .. }))
            .count() as u64,
        blocked: admitted
            .iter()
            .filter(|t| t.run.blocked_at.is_some())
            .count() as u64,
        admitted: admitted.len() as u64,
        sla_bits: sla.to_bits(),
    }
}

struct Sample {
    setup_s: f64,
    wall_s: f64,
    counts: Counts,
    errors: Vec<String>,
}

/// Builds the composition and a fresh kernel (the set-up), then runs the
/// experiment to completion (the timed step).
fn sample(seed: u64, clock: Option<&Rc<RefCell<LabelClock>>>) -> Sample {
    let t0 = Instant::now();
    let ex = composition(seed);
    let mut sim = Sim::new(seed);
    if let Some(clock) = clock {
        let clock = clock.clone();
        sim.set_event_hook(Box::new(move |_, label| {
            clock.borrow_mut().dispatch(label, Instant::now())
        }));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let run = run_experiment_in(&mut sim, ex);
    let end = Instant::now();
    let wall_s = (end - t1).as_secs_f64();
    if let Some(clock) = clock {
        sim.clear_event_hook();
        let mut c = clock.borrow_mut();
        c.close(end);
        c.run_id += 1;
    }
    Sample {
        setup_s,
        wall_s,
        counts: counts(&sim, &run),
        errors: run.errors,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let clock = Rc::new(RefCell::new(LabelClock {
        labels: Vec::new(),
        last: None,
        spans: Tracer::new(Instant::now(), SPAN_CAP),
        run_id: 0,
    }));
    // A traced run alternates untraced and traced samples, so the tracing
    // overhead is measured on the same path under the same machine load.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed() < args.window() {
        plain.push(sample(args.seed, None));
        if args.trace {
            traced.push(sample(args.seed, Some(&clock)));
        }
    }

    let reference = plain[0].counts.clone();
    for s in plain.iter().chain(&traced) {
        o.attempted += (TENANTS as u64) * STEPS;
        let lost = (TENANTS as u64 * STEPS).saturating_sub(s.counts.processed);
        o.failed += lost + s.errors.len() as u64;
        o.check(s.errors.is_empty(), || {
            format!("engine errors: {:?}", s.errors)
        });
        o.check(lost == 0, || {
            format!("{lost} steps neither processed nor staged to disk")
        });
        o.check(s.counts == reference, || {
            format!(
                "exact counts differ between runs of one seed: {:?} vs {:?}",
                s.counts, reference
            )
        });
    }
    o.check(reference.heartbeats > 0, || {
        "no heartbeat crossed the overlay".into()
    });
    o.check(reference.queued_never == 0, || {
        format!("{} tenants never admitted", reference.queued_never)
    });

    let rate = |v: &[Sample]| -> Vec<f64> {
        v.iter()
            .map(|s| s.counts.processed as f64 / s.wall_s)
            .collect()
    };
    let setups: Vec<f64> = plain.iter().chain(&traced).map(|s| s.setup_s).collect();
    o.end_to_end.push(Metric::new("setup_s", "s", &setups));
    o.end_to_end
        .push(Metric::new("steps_per_s", "1/s", &rate(&plain)));

    let sla = f64::from_bits(reference.sla_bits);
    o.per_layer
        .push(Metric::exact("ioc.sla_attainment", "ratio", sla));
    o.per_layer.push(Metric::exact(
        "ioc.blocked_tenant_frac",
        "ratio",
        reference.blocked as f64 / reference.admitted.max(1) as f64,
    ));
    o.per_layer.push(Metric::exact(
        "sim_core.events",
        "count",
        reference.events as f64,
    ));
    let events_rate: Vec<f64> = plain
        .iter()
        .map(|s| s.counts.events as f64 / s.wall_s)
        .collect();
    o.per_layer
        .push(Metric::new("sim_core.events_per_s", "1/s", &events_rate));
    o.per_layer.push(Metric::exact(
        "evpath.heartbeats",
        "count",
        reference.heartbeats as f64,
    ));
    o.per_layer.push(Metric::exact(
        "ioc.trades",
        "count",
        reference.trades as f64,
    ));
    o.per_layer.push(Metric::exact(
        "ioc.restarts",
        "count",
        reference.restarts as f64,
    ));
    o.per_layer.push(Metric::exact(
        "ioc.admits",
        "count",
        reference.admits as f64,
    ));

    if args.trace {
        let mut c = clock.borrow_mut();
        let traced_wall: f64 = traced.iter().map(|s| s.wall_s).sum();
        let per = |labels: &[&str], scale: f64| {
            let (ns, n) = c.self_ns(labels);
            ns as f64 / n.max(1) as f64 / scale
        };
        let data_path = ["ioc.emit", "ioc.arrive", "ioc.complete", "ioc.monitor"];
        o.per_layer.push(Metric::exact(
            "ioc.data_path.self_ns",
            "ns",
            per(&data_path, 1.0),
        ));
        o.per_layer.push(Metric::exact(
            "ioc.data_path.share",
            "ratio",
            c.self_ns(&data_path).0 as f64 * 1e-9 / traced_wall,
        ));
        o.per_layer.push(Metric::exact(
            "ioc.policy_tick.self_us",
            "us",
            per(&["ioc.policy_tick"], 1e3),
        ));
        o.per_layer.push(Metric::exact(
            "ioc.policy_ticks",
            "count",
            c.self_ns(&["ioc.policy_tick"]).1 as f64 / traced.len() as f64,
        ));
        o.per_layer.push(Metric::exact(
            "ioc.trade.self_us",
            "us",
            per(&["ioc.trade_txn", "ioc.trade_dec", "ioc.trade_inc"], 1e3),
        ));
        o.per_layer.push(Metric::exact(
            "fault.heartbeat.self_us",
            "us",
            per(&["fault.heartbeat"], 1e3),
        ));
        o.per_layer.push(Metric::exact(
            "fault.detect.self_us",
            "us",
            per(&["fault.detect"], 1e3),
        ));
        let runs = traced.len() as f64;
        let mut by_self: Vec<_> = c.labels.clone();
        by_self.sort_by_key(|l| std::cmp::Reverse(l.1));
        for (label, ns, n) in by_self {
            o.notes.push(format!(
                "label {label:<18} {:>10.0} dispatches/run {:>9.3} ms/run self {:>8.0} ns/dispatch {:>6.1}% of traced wall",
                n as f64 / runs,
                ns as f64 / runs / 1e6,
                ns as f64 / n.max(1) as f64,
                100.0 * ns as f64 * 1e-9 / traced_wall
            ));
        }
        let dispatched = c
            .self_ns(&c.labels.iter().map(|l| l.0).collect::<Vec<_>>())
            .1;
        o.check(dispatched == reference.events * traced.len() as u64, || {
            format!(
                "event hook saw {dispatched} dispatches, kernel executed {}",
                reference.events * traced.len() as u64
            )
        });
        let plain_rate = crate::stats::Summary::of(&rate(&plain)).median;
        let traced_rate = crate::stats::Summary::of(&rate(&traced)).median;
        o.per_layer.push(Metric::exact(
            "trace.overhead_frac",
            "ratio",
            1.0 - traced_rate / plain_rate,
        ));
        let spans = std::mem::replace(&mut c.spans, Tracer::new(Instant::now(), 0));
        o.spans = Some(spans);
    }
    o
}
