//! The four workloads: their inputs, their ops and the checks on each
//! op's output.
//!
//! Every op is timed around the calls a user makes and nothing else; the
//! checks on its output run after the clock stops. With tracing on, each
//! call also gets a span, and co-sim ops rerun `run_cosim`'s stages on
//! the same inputs so its time can be split by layer (see `trace`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bristle_cif::parse_cif;
use bristle_core::{ChipSpec, CompiledChip, Compiler};
use bristle_drc::{check_hierarchical, RuleSet};
use bristle_extract::extract;
use bristle_sim::NetlistBridge;
use bristle_verify::cosim::preset_switch_sim;
use bristle_verify::{run_cosim, run_cosim_with, shrink, CosimError, Fault, Program};

use crate::gen::{self, Rng};
use crate::trace::{Role, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CosimSweep,
    CosimLong,
    Signoff,
    FaultShrink,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CosimSweep,
        Workload::CosimLong,
        Workload::Signoff,
        Workload::FaultShrink,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CosimSweep => "cosim_sweep",
            Workload::CosimLong => "cosim_long",
            Workload::Signoff => "signoff",
            Workload::FaultShrink => "fault_shrink",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops in the list of a run of `run_seconds` (the `BENCHMARK.json`
    /// value) and the number of untraced passes over that list. Sized so
    /// a run measures about `run_seconds` on a 2-core host, except that
    /// `signoff` takes about twice as long: its op costs span three orders
    /// of magnitude, and with fewer ops a few chips move the whole run.
    /// Where the spread between seeds comes from the inputs (`signoff`,
    /// `fault_shrink`), a run spends its time on more ops; elsewhere on
    /// more rounds. The count, not the clock, ends the run, so every run
    /// of a workload performs the same ops in the same order.
    pub fn ops_and_rounds(self) -> (usize, usize) {
        match self {
            Workload::CosimSweep => (700, 6),
            Workload::CosimLong => (250, 3),
            Workload::Signoff => (120, 1),
            Workload::FaultShrink => (270, 1),
        }
    }

    /// Untimed warm-up ops run during set-up.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::CosimSweep => 40,
            Workload::CosimLong => 8,
            Workload::Signoff => 4,
            Workload::FaultShrink => 6,
        }
    }

    /// Cycles per co-sim program.
    pub fn cycles(self) -> usize {
        match self {
            Workload::CosimLong => 600,
            _ => 18,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::CosimSweep => 0x5157_3EE9,
            Workload::CosimLong => 0x1096_C051,
            Workload::Signoff => 0x5167_0FF5,
            Workload::FaultShrink => 0xFA17_5117,
        }
    }
}

/// Candidates drawn per op for the size quantile sample: at least 16,
/// and at least 16384 in all, so that even the top quantiles of a short
/// list (where `signoff` spends most of its time) are sharp.
fn size_band(n: usize) -> usize {
    16.max(16_384_usize.div_ceil(n.max(1)))
}
/// `fault_shrink`: program seeds tried per op before the fault counts
/// as not caught, and the shrinker's run budget.
const FIND_TRIES: u64 = 8;
const SHRINK_BUDGET: usize = 64;

/// One op's input. Programs are kept as their seed and generated right
/// before the op, untimed, so that held inputs do not dominate the
/// process's memory.
#[derive(Debug, Clone)]
pub enum Input {
    Cosim {
        spec: ChipSpec,
        seed: u64,
        cycles: usize,
    },
    Signoff {
        spec: ChipSpec,
    },
    Fault {
        spec: ChipSpec,
        fault: Fault,
        seed: u64,
        cycles: usize,
    },
}

impl Input {
    pub fn spec(&self) -> &ChipSpec {
        match self {
            Input::Cosim { spec, .. } | Input::Signoff { spec } | Input::Fault { spec, .. } => spec,
        }
    }

    /// The op's program (the first candidate, for `fault_shrink`).
    pub fn program(&self) -> Option<Program> {
        match self {
            Input::Cosim { spec, seed, cycles }
            | Input::Fault {
                spec, seed, cycles, ..
            } => Some(Program::random(spec, *seed, *cycles)),
            Input::Signoff { .. } => None,
        }
    }

    /// Canonical text, for the input fingerprint.
    pub fn render(&self, out: &mut String) {
        gen::render_spec(out, self.spec());
        if let Input::Fault { fault, seed, .. } = self {
            let (kind, suffix) = match fault {
                Fault::DropGateDevice(s) => ("open", s),
                Fault::ShortTerminalToGnd(s) => ("gnd-short", s),
            };
            out.push_str(&format!("fault {kind} {suffix} seed {seed}\n"));
        }
        if let Some(p) = self.program() {
            gen::render_program(out, &p);
        }
    }
}

/// Generates `n` inputs for `w` from `seed`. Op `i` is named after its
/// index, so every op's spec is its own even where two draws coincide.
pub fn inputs(w: Workload, seed: u64, n: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ w.salt());
    let draw = match w {
        Workload::Signoff => gen::full_spec,
        _ => gen::cosim_spec,
    };
    let specs = gen::pick_by_size(
        &mut rng,
        n,
        size_band(n),
        |r| draw(r, ""),
        gen::size_estimate,
    );
    // Fault kinds go round-robin over the size ranks, so every run holds
    // as many of each kind, spread evenly over chip sizes.
    let mut by_size: Vec<usize> = (0..specs.len()).collect();
    by_size
        .sort_by(|&a, &b| gen::size_estimate(&specs[a]).total_cmp(&gen::size_estimate(&specs[b])));
    let mut size_rank = vec![0; specs.len()];
    for (rank, &i) in by_size.iter().enumerate() {
        size_rank[i] = rank;
    }
    specs
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            spec.name = format!("op{i}");
            let seed = rng.next();
            let cycles = w.cycles();
            match w {
                Workload::Signoff => Input::Signoff { spec },
                Workload::FaultShrink => {
                    let bit = rng.range(0, i64::from(spec.data_width)) as u32;
                    let fault = gen::fault(size_rank[i], bit);
                    Input::Fault {
                        spec,
                        fault,
                        seed,
                        cycles,
                    }
                }
                _ => Input::Cosim { spec, seed, cycles },
            }
        })
        .collect()
}

/// Warm-up inputs: the smaller half of a size quantile sample of `2n`
/// ops drawn from a fixed seed, never from the run's. Every run warms up
/// on the same ops, so set-up time does not move with the seed.
pub fn warmup_inputs(w: Workload, n: usize) -> Vec<Input> {
    let mut v = inputs(w, 0x3A4B_5C6D_7E8F_9012, 2 * n);
    v.sort_by(|a, b| gen::size_estimate(a.spec()).total_cmp(&gen::size_estimate(b.spec())));
    v.truncate(n);
    v
}

/// Deterministic per-op counts. They must repeat exactly from run to
/// run, and between the traced and untraced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub rects: u64,
    pub nets: u64,
    pub devices: u64,
    pub terminals: u64,
    pub cif_bytes: u64,
    pub drc_violations: u64,
    pub checks: u64,
    pub settles: u64,
    pub cosim_runs: u64,
    pub shrink_runs: u64,
    pub repro_size: u64,
    pub caught: u64,
    pub die_area: u64,
}

impl Counts {
    /// The counts an untraced op of `w` produces; the traced run adds the
    /// rest from the stages it reruns.
    pub fn untraced_view(&self, w: Workload) -> Counts {
        match w {
            Workload::CosimSweep | Workload::CosimLong => Counts {
                nets: self.nets,
                devices: self.devices,
                checks: self.checks,
                settles: self.settles,
                ..Counts::default()
            },
            Workload::Signoff => Counts {
                checks: 0,
                settles: 0,
                ..*self
            },
            Workload::FaultShrink => Counts {
                checks: self.checks,
                cosim_runs: self.cosim_runs,
                shrink_runs: self.shrink_runs,
                repro_size: self.repro_size,
                caught: self.caught,
                ..Counts::default()
            },
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.rects += o.rects;
        self.nets += o.nets;
        self.devices += o.devices;
        self.terminals += o.terminals;
        self.cif_bytes += o.cif_bytes;
        self.drc_violations += o.drc_violations;
        self.checks += o.checks;
        self.settles += o.settles;
        self.cosim_runs += o.cosim_runs;
        self.shrink_runs += o.shrink_runs;
        self.repro_size += o.repro_size;
        self.caught += o.caught;
        self.die_area += o.die_area;
    }
}

/// What one op did: its wall time, its counts and, if its output failed
/// a check, why.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub wall: Duration,
    pub counts: Counts,
    pub failure: Option<String>,
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic".to_owned())
}

/// Runs one op. A panic inside the library is caught and counted as a
/// failed op, never as a crash of the run.
pub fn run_op(tr: &mut Tracer, op: usize, input: &Input) -> Outcome {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| match input {
        Input::Cosim { spec, seed, cycles } => {
            cosim_op(tr, op, spec, &Program::random(spec, *seed, *cycles))
        }
        Input::Fault {
            spec,
            fault,
            seed,
            cycles,
        } => {
            let first = Program::random(spec, *seed, *cycles);
            fault_op(tr, op, spec, fault, *seed, &first)
        }
        Input::Signoff { spec } => signoff_op(tr, op, spec),
    }));
    r.unwrap_or_else(|p| Outcome {
        wall: t0.elapsed(),
        counts: Counts::default(),
        failure: Some(format!("panic: {}", panic_text(&*p))),
    })
}

fn settles(cycles: usize) -> u64 {
    1 + 2 * cycles as u64
}

/// Steps the functional machine through `program`, driving pads the way
/// `run_cosim` does. Returns the cycles run.
fn run_machine(chip: &CompiledChip, program: &Program) -> Result<usize, String> {
    let mut m = chip.simulation().map_err(|e| e.to_string())?;
    for p in &program.inports {
        m.set_pad(format!("{p}_pad"), 0);
    }
    for c in &program.cycles {
        let word = program
            .encode_cycle(m.microcode(), c)
            .map_err(|e| e.to_string())?;
        for p in &program.inports {
            m.set_pad(format!("{p}_pad"), c.inports.get(p).copied().unwrap_or(0));
        }
        m.step_word(word).map_err(|e| e.to_string())?;
    }
    Ok(program.cycles.len())
}

/// Reruns `run_cosim`'s stages on the same inputs, attributed to the
/// `run_cosim` span `parent`, and samples one switch settle. Fills the
/// counts only the traced run has.
fn rerun_stages(
    tr: &mut Tracer,
    op: usize,
    parent: usize,
    spec: &ChipSpec,
    program: &Program,
    fault: Option<&Fault>,
    counts: &mut Counts,
) -> Result<(), String> {
    let chip = tr
        .child("core.compile", op, parent, || Compiler::new().compile(spec))
        .map_err(|e| e.to_string())?;
    tr.report("core.pass1", chip.timings.core);
    tr.report("core.pass2", chip.timings.control);
    tr.report("core.pass3", chip.timings.pads);
    counts.die_area = chip.die_area() as u64;
    let flat = tr.child("cell.flatten", op, parent, || {
        chip.lib.flatten_shared(chip.core_cell)
    });
    counts.rects = flat.len() as u64;
    let mut netlist = tr.child("extract.run", op, parent, || {
        extract(&chip.lib, chip.core_cell)
    });
    if let Some(f) = fault {
        f.apply(&mut netlist);
    }
    counts.terminals = netlist.terminals.len() as u64;
    tr.child("sim.bridge", op, parent, || {
        NetlistBridge::new(&netlist, spec.data_width).map(drop)
    })
    .map_err(|e| e.to_string())?;
    tr.child("sim.machine", op, parent, || run_machine(&chip, program))?;
    let mut sim = preset_switch_sim(&netlist);
    tr.span("sim.settle", op, None, Role::Probe, || sim.settle())
        .0
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn cosim_op(tr: &mut Tracer, op: usize, spec: &ChipSpec, program: &Program) -> Outcome {
    let t0 = Instant::now();
    let (res, id) = tr.root("verify.cosim", op, || run_cosim(spec, program));
    let wall = t0.elapsed();
    let mut counts = Counts::default();
    let mut failure = None;
    match res {
        Ok(stats) => {
            counts.nets = stats.nets as u64;
            counts.devices = stats.transistors as u64;
            counts.checks = stats.checks as u64;
            counts.settles = settles(stats.cycles);
            if tr.enabled() {
                if let Err(e) = rerun_stages(tr, op, id, spec, program, None, &mut counts) {
                    failure = Some(format!("rerun stages: {e}"));
                }
            }
        }
        Err(e) => failure = Some(format!("co-sim: {e}")),
    }
    Outcome {
        wall,
        counts,
        failure,
    }
}

fn signoff_op(tr: &mut Tracer, op: usize, spec: &ChipSpec) -> Outcome {
    let t0 = Instant::now();
    let res = (|| {
        let (chip, _) = tr.root("core.compile", op, || Compiler::new().compile(spec));
        let chip = chip.map_err(|e| format!("compile: {e}"))?;
        if tr.enabled() {
            // DRC and extraction both start by flattening the top cell;
            // the traced run does it first so the flatten gets its own span.
            tr.root("cell.flatten", op, || chip.lib.flatten_shared(chip.top));
        }
        let (cif, _) = tr.root("cif.write", op, || chip.layout_cif());
        let cif = cif.map_err(|e| format!("CIF: {e}"))?;
        let (drc, _) = tr.root("drc.check", op, || {
            check_hierarchical(&chip.lib, chip.top, &RuleSet::mead_conway())
        });
        let (netlist, _) = tr.root("extract.run", op, || extract(&chip.lib, chip.top));
        Ok::<_, String>((chip, cif, drc, netlist))
    })();
    let wall = t0.elapsed();
    let (chip, cif, drc, netlist) = match res {
        Ok(v) => v,
        Err(e) => {
            return Outcome {
                wall,
                counts: Counts::default(),
                failure: Some(e),
            }
        }
    };
    let counts = Counts {
        rects: chip.lib.flatten_shared(chip.top).len() as u64,
        nets: netlist.net_count() as u64,
        devices: netlist.transistors.len() as u64,
        terminals: netlist.terminals.len() as u64,
        cif_bytes: cif.len() as u64,
        drc_violations: drc.violations.len() as u64,
        die_area: chip.die_area() as u64,
        ..Counts::default()
    };
    let failure = if let Err(e) = parse_cif(&cif) {
        Some(format!("CIF does not parse back: {e}"))
    } else if let Some(v) = drc.violations.first() {
        Some(format!(
            "DRC: {} violations, first {v}",
            drc.violations.len()
        ))
    } else if netlist.transistors.is_empty() || netlist.net_count() == 0 {
        Some("empty netlist".to_owned())
    } else {
        None
    };
    Outcome {
        wall,
        counts,
        failure,
    }
}

/// Finds a program the fault makes diverge, shrinks the case and replays
/// the minimal reproducer, which must fail the same check again.
fn fault_op(
    tr: &mut Tracer,
    op: usize,
    spec: &ChipSpec,
    fault: &Fault,
    seed: u64,
    program: &Program,
) -> Outcome {
    let cycles = program.cycles.len();
    let mut counts = Counts::default();
    let t0 = Instant::now();
    let res = (|| {
        let mut found = None;
        for k in 0..FIND_TRIES {
            let pseed = seed.wrapping_add(k);
            let candidate;
            let prog = if k == 0 {
                program
            } else {
                candidate = Program::random(spec, pseed, cycles);
                &candidate
            };
            counts.cosim_runs += 1;
            let (res, id) = tr.root("verify.cosim", op, || {
                run_cosim_with(spec, prog, Some(fault))
            });
            match res {
                Err(CosimError::Diverged(_)) => {
                    found = Some((pseed, id, prog.clone()));
                    break;
                }
                Ok(stats) => counts.checks += stats.checks as u64,
                Err(e) => return Err(format!("faulted co-sim: {e}")),
            }
        }
        let (pseed, id, prog) =
            found.ok_or_else(|| format!("{fault} not caught in {FIND_TRIES} programs"))?;
        let (repro, _) = tr.root("verify.shrink", op, || {
            shrink(spec, pseed, cycles, Some(fault), SHRINK_BUDGET)
        });
        let repro = repro.ok_or("shrink did not reproduce the divergence")?;
        let mut replay = Program::random(&repro.spec, repro.seed, repro.skip + repro.cycles);
        replay.cycles.drain(..repro.skip);
        counts.cosim_runs += 1;
        let (res, _) = tr.root("verify.cosim", op, || {
            run_cosim_with(&repro.spec, &replay, Some(fault))
        });
        match res {
            Err(CosimError::Diverged(d)) if d.check == repro.divergence.check => {}
            other => return Err(format!("reproducer did not replay: {other:?}")),
        }
        Ok((id, prog, repro))
    })();
    let wall = t0.elapsed();
    let failure = match res {
        Ok((id, prog, repro)) => {
            counts.shrink_runs = repro.runs as u64;
            counts.cosim_runs += repro.runs as u64;
            counts.repro_size = (repro.spec.elements.len() + repro.cycles) as u64;
            counts.caught = 1;
            if tr.enabled() {
                rerun_stages(tr, op, id, spec, &prog, Some(fault), &mut counts)
                    .err()
                    .map(|e| format!("rerun stages: {e}"))
            } else {
                None
            }
        }
        Err(e) => Some(e),
    };
    Outcome {
        wall,
        counts,
        failure,
    }
}
