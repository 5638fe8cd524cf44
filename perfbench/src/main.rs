//! The Bristle Blocks benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cosim_sweep|cosim_long|signoff|fault_shrink> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client runs a fixed list of ops, generated from the
//! seed, one after the other. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the same list twice, untraced and then traced, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; the lines before it give the input fingerprint, the
//! deterministic counts and, when traced, each layer's self time and
//! share. See `NOTES.md` for why each workload and metric is here.

mod gen;
mod host;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::HostProbe;
use trace::{summarize, Tracer};
use workloads::{run_op, Counts, Input, Outcome, Workload};

/// `run_seconds` in `BENCHMARK.json`: the run length the op counts in
/// [`Workload::ops_and_rounds`] are sized for.
const RUN_SECONDS: usize = 15;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// The canary: inputs for this seed must hash to the pinned fingerprint,
/// so a change in the input generators (the benchmark's or the library's
/// `Program::random`) stops the benchmark instead of silently changing
/// what it measures.
const CANARY_SEED: u64 = 0xB215_713E;
const CANARY_OPS: usize = 12;

fn canary_fingerprint(w: Workload) -> u64 {
    match w {
        Workload::CosimSweep => 0xafa4_fc25_76ce_0e84,
        Workload::CosimLong => 0x16f4_b088_3baa_2d45,
        Workload::Signoff => 0x1345_19f1_51d6_b5e7,
        Workload::FaultShrink => 0x5716_5cda_7326_e673,
    }
}

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.compile_ms", "ms"),
    ("core.pass1_ms", "ms"),
    ("core.pass2_ms", "ms"),
    ("core.pass3_ms", "ms"),
    ("core.die_area_mlambda2", "Mlambda2"),
    ("core.self_pct", "%"),
    ("cell.flatten_ms", "ms"),
    ("cell.rects", "count"),
    ("cell.self_pct", "%"),
    ("cif.write_ms", "ms"),
    ("cif.bytes", "bytes"),
    ("cif.self_pct", "%"),
    ("drc.check_ms", "ms"),
    ("drc.violations", "count"),
    ("drc.rects", "count"),
    ("drc.self_pct", "%"),
    ("extract.ms", "ms"),
    ("extract.nets", "count"),
    ("extract.devices", "count"),
    ("extract.terminals", "count"),
    ("extract.self_pct", "%"),
    ("sim.bridge_ms", "ms"),
    ("sim.machine_ms", "ms"),
    ("sim.settle_us", "us"),
    ("sim.settles", "count"),
    ("sim.self_pct", "%"),
    ("verify.gen_us", "us"),
    ("verify.cosim_ms", "ms"),
    ("verify.cosim_rest_ms", "ms"),
    ("verify.checks", "count"),
    ("verify.cosim_runs", "count"),
    ("verify.shrink_ms", "ms"),
    ("verify.shrink_runs", "count"),
    ("verify.caught_ratio", "ratio"),
    ("verify.repro_size", "count"),
    ("verify.self_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Layers in report order; a layer is a crate the benchmark calls into.
const LAYERS: [&str; 7] = ["core", "cell", "cif", "drc", "extract", "sim", "verify"];

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
    /// Overrides the op count; set only by the smoke-size tests.
    ops: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        ops: None,
    })
}

/// A finished run: the JSON fields plus the report lines printed before.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub lines: Vec<String>,
    pub spans_tsv: Option<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Hash of every input's canonical text, and the number of distinct
/// inputs (spec names carry the op index, so names are left out).
fn fingerprint(inputs: &[Input]) -> (u64, usize) {
    let mut all = gen::Fnv::default();
    let mut distinct = BTreeSet::new();
    for (i, input) in inputs.iter().enumerate() {
        let mut one = String::new();
        input.render(&mut one);
        all.write(one.as_bytes());
        let content = one.replacen(&format!("chip op{i} "), "chip ", 1);
        distinct.insert(gen::Fnv::hash(content.as_bytes()));
    }
    (all.0, distinct.len())
}

/// One run of every input, in order, with each op's start time.
struct Pass {
    outcomes: Vec<Outcome>,
    starts: Vec<Duration>,
    tracer: Tracer,
}

impl Pass {
    /// Op latencies scaled to the quiet reference host.
    fn scaled(&self, probe: &HostProbe) -> Vec<Duration> {
        self.outcomes
            .iter()
            .zip(&self.starts)
            .map(|(o, &at)| o.wall.mul_f64(probe.scale(at, at + o.wall)))
            .collect()
    }
}

fn run_pass(inputs: &[Input], traced: bool, probe: &mut HostProbe) -> Pass {
    let mut tracer = Tracer::new(traced);
    let mut outcomes = Vec::with_capacity(inputs.len());
    let mut starts = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        starts.push(probe.now());
        outcomes.push(run_op(&mut tracer, i, input));
        probe.tick();
    }
    Pass {
        outcomes,
        starts,
        tracer,
    }
}

fn counts_digest(w: Workload, outcomes: &[Outcome]) -> u64 {
    let mut s = String::new();
    for o in outcomes {
        let _ = write!(
            s,
            "{:?};{};",
            o.counts.untraced_view(w),
            o.failure.is_some()
        );
    }
    gen::Fnv::hash(s.as_bytes())
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(args: &Args) -> Result<Report, String> {
    let r = measure(args)?;
    match r.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, v, _)) => Err(format!("{name} is {v}: nothing was measured")),
        None => Ok(r),
    }
}

fn measure(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let (list_ops, rounds_n) = w.ops_and_rounds();
    let n_ops = args
        .ops
        .unwrap_or_else(|| (list_ops * args.seconds).div_ceil(RUN_SECONDS))
        .max(1);
    let mut lines = vec![format!(
        "workload {} seed {} ops {} rounds {rounds_n} warmup {} setup_reps {SETUP_REPS} trace {}",
        w.name(),
        args.seed,
        n_ops,
        w.warmup_ops(),
        u8::from(args.trace)
    )];

    // Set-up: canary, input generation, fingerprint and warm-up ops,
    // repeated; the inputs must come out identical every time.
    let mut probe = HostProbe::new();
    let mut setup_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut inputs = Vec::new();
    let mut prints = BTreeSet::new();
    let mut distinct = 0;
    for _ in 0..SETUP_REPS {
        let at = probe.now();
        let canary = fingerprint(&workloads::inputs(w, CANARY_SEED, CANARY_OPS)).0;
        if canary != canary_fingerprint(w) {
            return Err(format!(
                "input canary {canary:#018x} != pinned {:#018x}: the input generators changed, \
                 so this is no longer the same workload",
                canary_fingerprint(w)
            ));
        }
        let g0 = Instant::now();
        inputs = workloads::inputs(w, args.seed, n_ops);
        let (print, d) = fingerprint(&inputs);
        gen_times.push(g0.elapsed());
        prints.insert(print);
        distinct = d;
        let warm = workloads::warmup_inputs(w, w.warmup_ops());
        drop(run_pass(&warm, false, &mut probe));
        let end = probe.now();
        let own = end - at - probe.busy(at, end);
        setup_times.push(own.mul_f64(probe.scale(at, end)));
    }
    let mut correct = prints.len() == 1;
    lines.push(format!(
        "inputs fingerprint {:#018x} ({distinct} distinct of {n_ops}), canary {CANARY_SEED:#x} ok",
        prints.first().copied().unwrap_or(0)
    ));
    if !correct {
        lines.push("FAIL: set-up repetitions generated different inputs".into());
    }
    let setup_s = stats::median(&setup_times).as_secs_f64();

    // The op list runs several times; an op's latency is the median of
    // its rounds, each scaled to the quiet reference host (see `host`).
    let rounds: Vec<Pass> = (0..rounds_n)
        .map(|_| run_pass(&inputs, false, &mut probe))
        .collect();
    let digests: BTreeSet<u64> = rounds
        .iter()
        .map(|p| counts_digest(w, &p.outcomes))
        .collect();
    if digests.len() != 1 {
        correct = false;
        lines.push("FAIL: rounds over the same inputs gave different counts".into());
    }
    let plain = &rounds[0];
    let digest = counts_digest(w, &plain.outcomes);
    let mut totals = Counts::default();
    for o in &plain.outcomes {
        totals.add(&o.counts.untraced_view(w));
    }
    lines.push(format!("counts digest {digest:#018x}: {totals:?}"));
    let failures: Vec<(usize, &String)> = plain
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.failure.as_ref().map(|f| (i, f)))
        .collect();
    lines.push(format!(
        "failed {} of {} ops ({:.1}%)",
        failures.len(),
        n_ops,
        100.0 * failures.len() as f64 / n_ops as f64
    ));
    for (i, f) in failures.iter().take(5) {
        lines.push(format!("  op {i}: {f}"));
    }

    let scaled: Vec<Vec<Duration>> = rounds.iter().map(|p| p.scaled(&probe)).collect();
    let round_s: Vec<String> = rounds
        .iter()
        .zip(&scaled)
        .map(|(p, sc)| {
            let raw: Duration = p.outcomes.iter().map(|o| o.wall).sum();
            let sc: Duration = sc.iter().sum();
            format!("{:.3}/{:.3}", raw.as_secs_f64(), sc.as_secs_f64())
        })
        .collect();
    lines.push(format!(
        "round op time, raw/scaled to the reference host (s): {}",
        round_s.join(" ")
    ));
    let walls: Vec<Duration> = (0..n_ops)
        .map(|i| stats::median(&scaled.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let total_wall: Duration = walls.iter().sum();
    let (tail, tail_pct, beyond) = stats::tail(&walls);
    lines.push(format!(
        "op latency is the median of {rounds_n} scaled rounds; op_ms_tail is p{tail_pct:.2} of \
         {n_ops} ops ({beyond} ops beyond it)"
    ));

    if !args.trace {
        let metrics = vec![
            ("setup_s", setup_s, "s"),
            ("ops_per_s", n_ops as f64 / total_wall.as_secs_f64(), "1/s"),
            ("op_ms_p50", ms(stats::median(&walls)), "ms"),
            ("op_ms_tail", ms(tail), "ms"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        return Ok(Report {
            correct,
            attempted: n_ops,
            failed: failures.len(),
            metrics,
            lines,
            spans_tsv: None,
        });
    }

    let traced = run_pass(&inputs, true, &mut probe);
    let traced_digest = counts_digest(w, &traced.outcomes);
    if traced_digest != digest {
        correct = false;
        let first = plain
            .outcomes
            .iter()
            .zip(&traced.outcomes)
            .position(|(a, b)| {
                a.counts.untraced_view(w) != b.counts.untraced_view(w)
                    || a.failure.is_some() != b.failure.is_some()
            });
        lines.push(format!(
            "FAIL: traced counts digest {traced_digest:#018x} differs (first at op {first:?})"
        ));
    }
    let traced_failed = traced
        .outcomes
        .iter()
        .filter(|o| o.failure.is_some())
        .count();
    let traced_wall: Duration = traced.scaled(&probe).iter().sum();
    let metrics = per_layer(
        &traced,
        &gen_times,
        n_ops,
        traced_wall,
        total_wall,
        &mut lines,
    );
    Ok(Report {
        correct,
        attempted: n_ops,
        failed: traced_failed,
        metrics,
        lines,
        spans_tsv: Some(traced.tracer.to_tsv()),
    })
}

/// Per-layer metrics from the traced pass: per-op means of span times and
/// counts, each layer's self-time share of the op, and tracing overhead.
fn per_layer(
    traced: &Pass,
    gen_times: &[Duration],
    n_ops: usize,
    traced_wall: Duration,
    untraced_wall: Duration,
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = n_ops as f64;
    let sum = summarize(&traced.tracer.spans);
    let span_ms = |name: &str| sum.total.get(name).copied().map_or(0.0, ms) / n;
    let reported = |name: &str| traced.tracer.reported.get(name).copied().map_or(0.0, ms) / n;
    let mut c = Counts::default();
    for o in &traced.outcomes {
        c.add(&o.counts);
    }
    let per_op = |v: u64| v as f64 / n;
    let share =
        |layer: &str| 100.0 * sum.layer_self(layer).as_secs_f64() / sum.op_time.as_secs_f64();
    let settle_samples = sum.count.get("sim.settle").copied().unwrap_or(0);
    let settle_us = if settle_samples == 0 {
        0.0
    } else {
        sum.total["sim.settle"].as_secs_f64() * 1e6 / settle_samples as f64
    };
    let overhead = 100.0 * (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64())
        / untraced_wall.as_secs_f64();
    // DRC checks the rects the flatten produced, where it runs at all.
    let drc_rects = if sum.count.contains_key("drc.check") {
        per_op(c.rects)
    } else {
        0.0
    };
    let cosim_rest = sum.own.get("verify.cosim").copied().map_or(0.0, ms) / n;

    lines.push(format!(
        "layer self time per op and share of the op ({} ops, op time {:.3} ms/op; \
         tracing overhead {overhead:+.2}% of untraced op time):",
        n_ops,
        ms(sum.op_time) / n
    ));
    for layer in LAYERS {
        lines.push(format!(
            "  {layer:<8} {:>10.4} ms  {:>6.2}%",
            ms(sum.layer_self(layer)) / n,
            share(layer)
        ));
    }
    lines.push(format!(
        "  program-reported pass times per op: pass1 {:.4} ms, pass2 {:.4} ms, pass3 {:.4} ms",
        reported("core.pass1"),
        reported("core.pass2"),
        reported("core.pass3")
    ));

    vec![
        ("core.compile_ms", span_ms("core.compile"), "ms"),
        ("core.pass1_ms", reported("core.pass1"), "ms"),
        ("core.pass2_ms", reported("core.pass2"), "ms"),
        ("core.pass3_ms", reported("core.pass3"), "ms"),
        (
            "core.die_area_mlambda2",
            per_op(c.die_area) / 1e6,
            "Mlambda2",
        ),
        ("core.self_pct", share("core"), "%"),
        ("cell.flatten_ms", span_ms("cell.flatten"), "ms"),
        ("cell.rects", per_op(c.rects), "count"),
        ("cell.self_pct", share("cell"), "%"),
        ("cif.write_ms", span_ms("cif.write"), "ms"),
        ("cif.bytes", per_op(c.cif_bytes), "bytes"),
        ("cif.self_pct", share("cif"), "%"),
        ("drc.check_ms", span_ms("drc.check"), "ms"),
        ("drc.violations", per_op(c.drc_violations), "count"),
        ("drc.rects", drc_rects, "count"),
        ("drc.self_pct", share("drc"), "%"),
        ("extract.ms", span_ms("extract.run"), "ms"),
        ("extract.nets", per_op(c.nets), "count"),
        ("extract.devices", per_op(c.devices), "count"),
        ("extract.terminals", per_op(c.terminals), "count"),
        ("extract.self_pct", share("extract"), "%"),
        ("sim.bridge_ms", span_ms("sim.bridge"), "ms"),
        ("sim.machine_ms", span_ms("sim.machine"), "ms"),
        ("sim.settle_us", settle_us, "us"),
        ("sim.settles", per_op(c.settles), "count"),
        ("sim.self_pct", share("sim"), "%"),
        (
            "verify.gen_us",
            stats::median(gen_times).as_secs_f64() * 1e6 / n,
            "us",
        ),
        ("verify.cosim_ms", span_ms("verify.cosim"), "ms"),
        ("verify.cosim_rest_ms", cosim_rest, "ms"),
        ("verify.checks", per_op(c.checks), "count"),
        ("verify.cosim_runs", per_op(c.cosim_runs), "count"),
        ("verify.shrink_ms", span_ms("verify.shrink"), "ms"),
        ("verify.shrink_runs", per_op(c.shrink_runs), "count"),
        ("verify.caught_ratio", per_op(c.caught), "ratio"),
        (
            "verify.repro_size",
            if c.caught == 0 {
                0.0
            } else {
                c.repro_size as f64 / c.caught as f64
            },
            "count",
        ),
        ("verify.self_pct", share("verify"), "%"),
        ("trace.overhead_pct", overhead, "%"),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for l in &report.lines {
        println!("{l}");
    }
    if let Some(tsv) = &report.spans_tsv {
        // Spans go beside the executable, inside the build directory.
        let path = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
            .unwrap_or_default()
            .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        match std::fs::write(&path, tsv) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_verify::Fault;

    fn args(w: Workload, trace: bool, ops: usize) -> Args {
        Args {
            workload: w,
            seed: 7,
            seconds: RUN_SECONDS,
            trace,
            ops: Some(ops),
        }
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = benchmark_json();
        let (e2e, layers) = json.split_at(json.find("\"per_layer\"").expect("per_layer section"));
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from end_to_end"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from per_layer"
            );
        }
        assert_eq!(e2e.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
    }

    /// A smoke-size run of every workload, untraced and traced, prints
    /// every named metric with its unit, as finite numbers, and the
    /// traced run's counts repeat the untraced run's.
    #[test]
    fn smoke_runs_print_every_metric() {
        for w in Workload::ALL {
            for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let r = run(&args(w, trace, 2)).expect("smoke run");
                assert!(r.correct, "{}: {:?}", w.name(), r.lines);
                assert_eq!(r.attempted, 2);
                let got: Vec<(&str, &str)> = r.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
                assert_eq!(got, names, "{} trace={trace}", w.name());
                assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{:?}", r.metrics);
                let json = r.json();
                for (name, unit) in names {
                    assert!(
                        json.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{name}"
                    );
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
                }
            }
        }
    }

    #[test]
    fn inputs_and_counts_repeat_across_runs() {
        let a = run(&args(Workload::CosimSweep, false, 4)).expect("run");
        let b = run(&args(Workload::CosimSweep, false, 4)).expect("run");
        let keep = |r: &Report| -> Vec<String> {
            r.lines
                .iter()
                .filter(|l| l.starts_with("inputs") || l.starts_with("counts"))
                .cloned()
                .collect()
        };
        assert_eq!(keep(&a).len(), 2);
        assert_eq!(keep(&a), keep(&b));
    }

    /// An op whose fault is never caught and an op whose input makes the
    /// library panic are both counted as failed; the ops around them
    /// still run and end as they do without the faulted op.
    #[test]
    fn faulted_ops_count_as_failed_without_ending_the_run() {
        let failures = |inputs: &[Input]| -> Vec<Option<String>> {
            run_pass(inputs, false, &mut HostProbe::new())
                .outcomes
                .into_iter()
                .map(|o| o.failure)
                .collect()
        };
        let mut inputs = workloads::inputs(Workload::FaultShrink, 3, 3);
        let before = failures(&inputs);
        let Input::Fault { fault, .. } = &mut inputs[1] else {
            unreachable!("fault_shrink inputs carry faults")
        };
        *fault = Fault::DropGateDevice("/no-such-terminal".into());
        let after = failures(&inputs);
        assert!(after[1].as_ref().is_some_and(|f| f.contains("not caught")));
        assert_eq!((&after[0], &after[2]), (&before[0], &before[2]));

        let no_inport = bristle_core::ChipSpec::builder("bad")
            .data_width(4)
            .element("registers", &[("count", 2)])
            .build()
            .expect("spec");
        let mut inputs = workloads::inputs(Workload::CosimSweep, 3, 2);
        let before = failures(&inputs);
        inputs.insert(
            1,
            Input::Cosim {
                spec: no_inport,
                seed: 1,
                cycles: 4,
            },
        );
        let after = failures(&inputs);
        assert!(after[1].as_ref().is_some_and(|f| f.starts_with("panic")));
        assert_eq!((&after[0], &after[2]), (&before[0], &before[1]));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload signoff --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Signoff);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 3")).is_err());
        assert!(parse_args(&argv("--workload signoff")).is_err());
        assert!(parse_args(&argv("--workload signoff --seed 1 --trace 2")).is_err());
    }
}
