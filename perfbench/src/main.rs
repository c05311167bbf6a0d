//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload des_tenants --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload exercises one runtime path of the reproduction and
//! bypasses the others (see `perfbench/README.md`). With `--trace 0` the
//! last stdout line reports the end-to-end metrics; with `--trace 1` it
//! reports the per-layer metrics of a traced run, whose spans are written
//! to `.bench_out/` as Chrome-trace JSON. Lines before it summarise every
//! metric as median, quartiles and sample count.

mod des;
mod fanout;
mod stats;
mod threaded;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::Summary;
use trace::Tracer;

/// Where reports, traces and temporary files go, relative to the directory
/// the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that bypasses a layer reports that layer's metrics as 0: the layer did
/// no work there.
const PER_LAYER: &[(&str, &str)] = &[
    // des_tenants
    ("sim_core.events", "count"),
    ("sim_core.events_per_s", "1/s"),
    ("ioc.data_path.self_ns", "ns"),
    ("ioc.data_path.share", "ratio"),
    ("ioc.policy_tick.self_us", "us"),
    ("ioc.policy_ticks", "count"),
    ("ioc.trade.self_us", "us"),
    ("ioc.trades", "count"),
    ("ioc.restarts", "count"),
    ("ioc.admits", "count"),
    ("ioc.sla_attainment", "ratio"),
    ("ioc.blocked_tenant_frac", "ratio"),
    ("fault.heartbeat.self_us", "us"),
    ("fault.detect.self_us", "us"),
    ("evpath.heartbeats", "count"),
    // threaded_analytics
    ("threaded.stage_ms.helper", "ms"),
    ("threaded.stage_ms.bonds", "ms"),
    ("threaded.stage_ms.csym", "ms"),
    ("threaded.stage_ms.cna", "ms"),
    ("threaded.increases", "count"),
    ("threaded.monitor_events", "count"),
    ("threaded.crack_step", "step"),
    ("threaded.lost_steps", "count"),
    ("threaded.bytes_per_step", "B"),
    ("mdsim.run_epoch_ms", "ms"),
    ("smartpointer.aggregate_us", "us"),
    ("smartpointer.bonds_n2_ms", "ms"),
    ("smartpointer.csym_ms", "ms"),
    ("smartpointer.cna_ms", "ms"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("datatap.roundtrip_us", "us"),
    ("stream.edge_roundtrip_us", "us"),
    ("evpath.submit_us", "us"),
    // stream_fanout
    ("stream.write_us_p50", "us"),
    ("stream.write_blocked_frac", "ratio"),
    ("stream.write_wait_us_p50", "us"),
    ("stream.next_step_us_p50", "us"),
    ("stream.cursor_lag_max", "steps"),
    ("stream.pause_us_p50", "us"),
    ("stream.pause_us_p99", "us"),
    ("stream.pause_backlog_mean", "steps"),
    ("stream.rejoin_us", "us"),
    ("stream.step_latency_p50_us", "us"),
    ("stream.step_latency_p99_us", "us"),
    ("adios.bp_append_us_p50", "us"),
    ("adios.bp_mib_per_s", "MiB/s"),
    ("adios.replay_steps_per_s", "1/s"),
    ("evpath.control_events", "count"),
    // every workload
    ("trace.overhead_frac", "ratio"),
];

/// One named metric with its unit and the summary of its samples.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::of(samples),
        }
    }

    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::exact(value),
        }
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Steps attempted over the timed samples.
    pub attempted: u64,
    /// Steps attempted that failed an output check.
    pub failed: u64,
    /// Steps lost to a known, counted program defect that the output
    /// checks bound but do not fail on (the CSym-break loss of
    /// `run_threaded`). A race decides how many, so they are kept out of
    /// `failed`; they lower `delivered_step_frac`.
    pub lost: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub violations: Vec<String>,
    /// `setup_s` and `steps_per_s`; `main` adds `peak_rss_mib` and
    /// `delivered_step_frac`.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs) and workload-specific details.
    pub per_layer: Vec<Metric>,
    /// Spans recorded by a traced run.
    pub spans: Option<Tracer>,
    /// Free-form attribution lines printed with the summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A finite JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.summary.median),
            m.unit
        );
    }
    s.push('}');
    s
}

fn write_report(
    path: &Path,
    args: &Args,
    outcome: &Outcome,
    metrics: &[Metric],
) -> std::io::Result<()> {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"lost\": {}, \"violations\": [",
        args.workload,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.lost
    );
    for (i, v) in outcome.violations.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\"",
            if i > 0 { ", " } else { "" },
            v.replace('\\', "/").replace('"', "'")
        );
    }
    s.push_str("], \"metrics\": {");
    for (i, m) in metrics.iter().enumerate() {
        let x = m.summary;
        let _ = write!(
            s,
            "{}\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit,
            num(x.median),
            num(x.q1),
            num(x.q3),
            x.n
        );
    }
    s.push_str("}}\n");
    std::fs::write(path, s)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <des_tenants|threaded_analytics|stream_fanout> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    let mut outcome = match args.workload.as_str() {
        "des_tenants" => des::run(&args),
        "threaded_analytics" => threaded::run(&args),
        "stream_fanout" => fanout::run(&args, &out_dir),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let rss = peak_rss_mib();
    outcome.check(rss.is_some(), || {
        "peak RSS unavailable (/proc/self/status)".into()
    });
    outcome
        .end_to_end
        .push(Metric::exact("peak_rss_mib", "MiB", rss.unwrap_or(0.0)));
    outcome.check(outcome.attempted > 0, || "no step was attempted".into());
    let delivered = 1.0 - (outcome.failed + outcome.lost) as f64 / outcome.attempted.max(1) as f64;
    outcome
        .end_to_end
        .push(Metric::exact("delivered_step_frac", "ratio", delivered));

    // Per-layer metrics the workload did not produce belong to layers it
    // bypasses; they read 0.
    for m in &outcome.per_layer {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == m.name),
            "per-layer metric {} is missing from PER_LAYER",
            m.name
        );
    }
    let per_layer: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            outcome
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::exact(name, unit, 0.0))
        })
        .collect();

    let reported: &[Metric] = if args.trace {
        &per_layer
    } else {
        &outcome.end_to_end
    };
    let tag = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("{tag}.trace.json"));
        match spans.export(&path) {
            Ok(()) => println!(
                "# trace: {} spans ({} dropped) -> {}",
                spans.len(),
                spans.dropped(),
                path.display()
            ),
            Err(e) => outcome
                .violations
                .push(format!("trace export {}: {e}", path.display())),
        }
    }
    let all: Vec<Metric> = outcome
        .end_to_end
        .iter()
        .chain(per_layer.iter())
        .cloned()
        .collect();
    let report = out_dir.join(format!("{tag}.json"));
    if let Err(e) = write_report(&report, &args, &outcome, &all) {
        eprintln!("perfbench: write {}: {e}", report.display());
    }

    println!(
        "# {} seed={} trace={} wall={:.2}s attempted={} failed={} lost={} failed_step_frac={:.6}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64(),
        outcome.attempted,
        outcome.failed,
        outcome.lost,
        (outcome.failed + outcome.lost) as f64 / outcome.attempted.max(1) as f64
    );
    for m in outcome.end_to_end.iter().chain(outcome.per_layer.iter()) {
        let s = m.summary;
        println!(
            "# {:<28} {:>14.4} {:<6} q1={:.4} q3={:.4} n={}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    for n in &outcome.notes {
        println!("# {n}");
    }
    for v in &outcome.violations {
        println!("# CHECK FAILED: {v}");
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(reported)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// SplitMix64 of `seed` and a stream index: the benchmark's only source of
/// input variation, so one seed always gives the same inputs.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
