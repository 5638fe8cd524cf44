//! The differential co-simulation driver.
//!
//! A run has two halves. [`Prepared::new`] does everything that depends
//! only on the spec (and the fault), once:
//!
//! 1. compiles the spec through the full pipeline and extracts the
//!    datapath core's transistor netlist,
//! 2. applies the fault, if any, to the netlist — before anything is
//!    bound, because a short rewrites the very net ids the binding holds,
//! 3. builds a [`NetlistBridge`] (which checks bus continuity) and binds
//!    every name the run uses to net ids: each control line to its
//!    phase, microcode field, decode and nets; each storage probe to its
//!    per-column `(bit, net)` list and machine state slot; the buses,
//!    the φ1/φ2 clock columns and the port pad wires.
//!
//! [`Prepared::run`] then co-simulates one program on a fresh functional
//! [`Machine`](bristle_sim::Machine) and a fresh switch state, so a
//! prepared chip runs any number of programs with nothing carried over:
//!
//! 1. steps both, cycle by cycle, through the program's microcode
//!    words: the machine via `Machine::step_word`, the silicon by
//!    driving the decoded control columns and the φ1/φ2 clock columns
//!    and settling the switch-level network once per phase,
//! 2. asserts, every cycle: **direct bus equality** — the settled φ1
//!    buses equal the machine's buses bit for bit (the restoring read
//!    path asserts stored words, so no inverting abstraction is
//!    needed) — both buses precharge back to all-ones (φ2), every
//!    register's `storeA`/`storeB` plates, every RAM word's `cell`
//!    plates and every stack level's `level` plates equal the machine's
//!    state, and output-port pad words equal the machine's pads.
//!
//! [`run_cosim_with`] is exactly `Prepared::new(spec, fault)?.run(program)`.
//!
//! Every per-element fact the driver needs comes from
//! [`CompiledChip::elements`]: the control lines it drives are each
//! element's `controls`, bound exactly as [`CompiledChip::simulation`]
//! binds the machine, and the storage it checks is one register, RAM
//! word or stack level per element column. Nothing is re-derived from
//! the spec's parameters.
//!
//! The silicon is initialized with an explicit power-on preset
//! (all nodes low) so dynamic storage starts equal to the machine's
//! all-zero registers; see [`SwitchSim::preset_all`].

use std::collections::BTreeMap;
use std::fmt;

use bristle_cell::{ActiveWhen, Phase};
use bristle_core::{ChipSpec, CompileError, CompiledChip, Compiler};
use bristle_extract::{extract, NetId, Netlist};
use bristle_sim::{
    read_bits, BridgeError, Level, MicrocodeError, NetlistBridge, SimError, StateSlot, SwitchSim,
    TerminalNet,
};

use crate::fault::Fault;
use crate::program::Program;

/// Where and how the two simulations disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based cycle index.
    pub cycle: usize,
    /// Which check failed (`"phi1-busA"`, `"phi2-precharge-busB"`,
    /// `"storeA"`, `"pad_out"`, …).
    pub check: String,
    /// The signal involved (element prefix or bus name).
    pub signal: String,
    /// The value the functional side predicts.
    pub expected: u64,
    /// What the silicon produced (`"X@bit<k>"` for non-binary reads).
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} of `{}`: expected {:#x}, silicon read {}",
            self.cycle, self.check, self.signal, self.expected, self.got
        )
    }
}

/// Summary of a passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimStats {
    /// Cycles executed.
    pub cycles: usize,
    /// Nets in the extracted core netlist.
    pub nets: usize,
    /// Transistors simulated.
    pub transistors: usize,
    /// Individual equivalence checks performed.
    pub checks: usize,
}

/// Why a run could not complete or did not agree.
#[derive(Debug)]
pub enum CosimError {
    /// The compiler rejected the spec (a generator/compiler bug).
    Compile(CompileError),
    /// The machine could not be assembled or stepped.
    Sim(SimError),
    /// Bridge construction or switch-level simulation failed.
    Bridge(BridgeError),
    /// The two simulations disagreed.
    Diverged(Divergence),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Compile(e) => write!(f, "compile: {e}"),
            CosimError::Sim(e) => write!(f, "machine: {e}"),
            CosimError::Bridge(e) => write!(f, "bridge: {e}"),
            CosimError::Diverged(d) => write!(f, "diverged: {d}"),
        }
    }
}

impl std::error::Error for CosimError {}

impl From<CompileError> for CosimError {
    fn from(e: CompileError) -> CosimError {
        CosimError::Compile(e)
    }
}
impl From<SimError> for CosimError {
    fn from(e: SimError) -> CosimError {
        CosimError::Sim(e)
    }
}
impl From<BridgeError> for CosimError {
    fn from(e: BridgeError) -> CosimError {
        CosimError::Bridge(e)
    }
}

/// The storage checks per element kind: `(kind, machine state key,
/// [(check name, plate probe)])`. Storage column `i` must hold the
/// machine's `<key><i>` on every listed plate.
const STORAGE_CHECKS: [(&str, &str, &[(&str, &str)]); 3] = [
    (
        "registers",
        "r",
        &[("storeA", "storeA"), ("storeB", "storeB")],
    ),
    ("ram", "m", &[("ram-cell", "cell")]),
    ("stack", "s", &[("stack-level", "level")]),
];

/// The buses' names in divergence reports.
const BUSES: [&str; 2] = ["busA", "busB"];

/// One decoder-driven control line, bound to its nets.
struct BoundControl {
    phase: Phase,
    /// The line's microcode field as `(mask, offset)`, or the error
    /// extracting it gives (raised when a word is decoded, as the
    /// machine would).
    field: Result<(u64, u32), MicrocodeError>,
    active: ActiveWhen,
    nets: Vec<NetId>,
}

/// One plate word checked every cycle: a storage column's plate against
/// the machine state entry it must hold.
struct StorageProbe {
    /// The machine's word; a key the machine lacks fails when checked.
    want: Result<StateSlot, SimError>,
    check: &'static str,
    prefix: String,
    plate: &'static str,
    column: u32,
    /// The plate's `(bit, net)` pairs in this column; a missing group
    /// is a divergence when checked.
    bits: Result<Vec<(u32, NetId)>, BridgeError>,
}

/// A spec compiled, extracted, faulted and name-bound once, ready to
/// co-simulate any number of programs; see the [module docs](self).
pub struct Prepared {
    chip: CompiledChip,
    netlist: Netlist,
    width: u32,
    mask: u64,
    /// Every element's control lines, in drive order.
    controls: Vec<BoundControl>,
    /// φ1 and φ2 clock-column nets.
    clocks: [Vec<NetId>; 2],
    /// Bus A and bus B nets, one per bit row.
    buses: [Vec<NetId>; 2],
    /// `pad_in` and `pad_out` wires per port prefix, as `(bit, net)`.
    pads_in: BTreeMap<String, Vec<(u32, NetId)>>,
    pads_out: BTreeMap<String, Vec<(u32, NetId)>>,
    /// The storage checks of one cycle, in check order.
    storage: Vec<StorageProbe>,
}

/// The wires of port `p`, or the error naming the missing group.
fn port_wires<'s>(
    pads: &'s BTreeMap<String, Vec<(u32, NetId)>>,
    p: &str,
    local: &str,
) -> Result<&'s [(u32, NetId)], BridgeError> {
    pads.get(p)
        .map(Vec::as_slice)
        .ok_or_else(|| BridgeError::UnknownSignal {
            prefix: p.to_owned(),
            local: local.to_owned(),
        })
}

/// A group's terminals as `(bit, net)` pairs, in group order.
fn bits_of<'t>(ts: impl IntoIterator<Item = &'t TerminalNet>) -> Vec<(u32, NetId)> {
    ts.into_iter().map(|t| (t.bit, t.net)).collect()
}

impl Prepared {
    /// Compiles `spec`, extracts the datapath core, applies `fault` to
    /// the netlist and binds every signal the run reads or drives to net
    /// ids. The fault goes first because it rewrites net ids
    /// ([`Fault::ShortTerminalToGnd`]) that the binding then holds.
    ///
    /// # Errors
    ///
    /// [`CosimError::Compile`] if the spec does not compile or its
    /// machine cannot be assembled, [`CosimError::Bridge`] on a bus
    /// discontinuity or a control line with no nets.
    pub fn new(spec: &ChipSpec, fault: Option<&Fault>) -> Result<Prepared, CosimError> {
        let mut chip = Compiler::new().compile(spec)?;
        // The geometry (and its flatten caches) is read only here and
        // dropped with this statement: the chip is kept without it, for
        // the machine each run rebuilds.
        let mut netlist = extract(&std::mem::take(&mut chip.lib), chip.core_cell);
        if let Some(f) = fault {
            f.apply(&mut netlist);
        }
        // The machine is rebuilt per run; this one resolves state slots.
        let machine = chip.simulation()?;
        let bridge = NetlistBridge::new(&netlist, spec.data_width)?;

        let mut controls = Vec::new();
        for e in &chip.elements {
            for (local, line) in &e.controls {
                // A control with no nets would mean a cell has no
                // geometry for it — itself a bug, so fail.
                let nets = bridge
                    .group(&e.prefix, local)?
                    .iter()
                    .map(|t| t.net)
                    .collect();
                let field = match chip.microcode.field(&line.field) {
                    Some(f) => Ok((f.mask(), f.offset)),
                    None => Err(MicrocodeError::UnknownField(line.field.clone())),
                };
                controls.push(BoundControl {
                    phase: line.phase,
                    field,
                    active: line.active.clone(),
                    nets,
                });
            }
        }

        let mut storage = Vec::new();
        for e in &chip.elements {
            let Some(&(_, key, probes)) = STORAGE_CHECKS.iter().find(|c| c.0 == e.kind) else {
                continue;
            };
            for col in 0..e.columns.len() as u32 {
                let want = machine.state_slot(&e.prefix, &format!("{key}{col}"));
                for &(check, plate) in probes {
                    let bits = bridge
                        .group(&e.prefix, plate)
                        .map(|ts| bits_of(ts.iter().filter(|t| t.column == col)));
                    storage.push(StorageProbe {
                        want: want.clone(),
                        check,
                        prefix: e.prefix.clone(),
                        plate,
                        column: col,
                        bits,
                    });
                }
            }
        }

        let pads = |local: &str| -> BTreeMap<String, Vec<(u32, NetId)>> {
            bridge
                .prefixes()
                .filter_map(|p| Some((p.to_owned(), bits_of(bridge.group(p, local).ok()?))))
                .collect()
        };
        let (pads_in, pads_out) = (pads("pad_in"), pads("pad_out"));
        let clocks = [
            bridge.clock_nets("phi1").to_vec(),
            bridge.clock_nets("phi2").to_vec(),
        ];
        let buses = [bridge.bus_nets(0).to_vec(), bridge.bus_nets(1).to_vec()];
        let width = spec.data_width;
        Ok(Prepared {
            chip,
            netlist,
            width,
            mask: if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            },
            controls,
            clocks,
            buses,
            pads_in,
            pads_out,
            storage,
        })
    }

    /// Co-simulates one program on a fresh machine and a fresh switch
    /// state: nothing of an earlier run carries over.
    ///
    /// # Errors
    ///
    /// See [`CosimError`]; an injected fault is expected to surface as
    /// [`CosimError::Diverged`].
    pub fn run<'p>(&self, program: &'p Program) -> Result<CosimStats, CosimError> {
        let mut machine = self.chip.simulation()?;
        let mut sim = SwitchSim::new(&self.netlist);
        let width = self.width;
        let ports = |names: &'p [String], pads, local| {
            let wires = |p: &'p String| (p, format!("{p}_pad"), port_wires(pads, p, local));
            names.iter().map(wires).collect::<Vec<_>>()
        };
        let inports = ports(&program.inports, &self.pads_in, "pad_in");
        let outports = ports(&program.outports, &self.pads_out, "pad_out");
        let drive_word = |sim: &mut SwitchSim<'_>, bits: &[(u32, NetId)], word: u64| {
            for &(bit, net) in bits {
                sim.set_net(net, Level::from_bool((word >> bit) & 1 == 1));
            }
        };
        let read_bus = |sim: &SwitchSim<'_>, bus: usize| {
            let bits = (0..).zip(self.buses[bus].iter().copied());
            read_bits(sim, width, bits, || BUSES[bus].to_owned())
        };
        // Clocks change phase as the co-simulation always has: the
        // falling phase first, then the rising one.
        let clock_up = |sim: &mut SwitchSim<'_>, rising: usize| {
            for (phase, level) in [(1 - rising, Level::L0), (rising, Level::L1)] {
                for &net in &self.clocks[phase] {
                    sim.set_net(net, level);
                }
            }
        };

        // Power-on: all storage low (matching the machine's zeroed registers),
        // every decoder column and pad driven low, then one φ2 to precharge.
        sim.preset_all(Level::L0);
        self.drive_controls(&mut sim, 0, None)?;
        for (_, key, nets) in &inports {
            drive_word(&mut sim, nets.clone()?, 0);
            machine.set_pad(key.as_str(), 0);
        }
        clock_up(&mut sim, 1);
        sim.settle().map_err(BridgeError::from)?;

        let mut checks = 0usize;
        for (ci, cycle) in program.cycles.iter().enumerate() {
            let word = program
                .encode_cycle(machine.microcode(), cycle)
                .map_err(SimError::Microcode)?;
            let diverge =
                |check: &str, signal: &str, expected: u64, got: &Result<u64, BridgeError>| {
                    CosimError::Diverged(Divergence {
                        cycle: ci,
                        check: check.to_owned(),
                        signal: signal.to_owned(),
                        expected,
                        got: match got {
                            Ok(v) => format!("{v:#x}"),
                            Err(e) => format!("({e})"),
                        },
                    })
                };

            // Pads for this cycle (undriven ports idle at 0; their `drv`
            // stays off, so the value never reaches the bus).
            for (p, key, nets) in &inports {
                let pad = cycle.inports.get(*p).copied().unwrap_or(0);
                drive_word(&mut sim, nets.clone()?, pad);
                machine.set_pad(key.as_str(), pad);
            }

            // φ1: decode-asserted controls up, φ2 clocks down, settle.
            clock_up(&mut sim, 0);
            self.drive_controls(&mut sim, word, Some(Phase::Phi1))?;
            sim.settle().map_err(BridgeError::from)?;

            let phys = [read_bus(&sim, 0), read_bus(&sim, 1)];

            // Step the functional machine (its step covers φ1 + φ2).
            let mach_buses = machine.step_word(word)?;

            // Direct bus equality: the restoring read path asserts
            // stored words, so silicon and machine buses must agree bit
            // for bit on every cycle — reads, writes and idles alike.
            for (bus, (got, want)) in phys.iter().zip(mach_buses).enumerate() {
                if *got != Ok(want) {
                    return Err(diverge("phi1-bus", BUSES[bus], want, got));
                }
            }
            checks += 2;

            // φ2: controls down except φ2-phase decodes, clocks swap, settle.
            self.drive_controls(&mut sim, word, Some(Phase::Phi2))?;
            clock_up(&mut sim, 1);
            sim.settle().map_err(BridgeError::from)?;

            // Precharge restored on both buses.
            for (bus, name) in BUSES.iter().enumerate() {
                let got = read_bus(&sim, bus);
                if got != Ok(self.mask) {
                    return Err(diverge("phi2-precharge", name, self.mask, &got));
                }
                checks += 1;
            }

            // Storage equivalence: every register's plates (both written
            // from bus A), RAM word and stack level equals the machine's
            // state, one storage column per register, word or level.
            for s in &self.storage {
                let want = machine.peek_slot(s.want.clone()?);
                let got = s.bits.as_ref().map_err(Clone::clone).and_then(|bits| {
                    read_bits(&sim, width, bits.iter().copied(), || {
                        format!("{}/{}[c{}]", s.prefix, s.plate, s.column)
                    })
                });
                if got != Ok(want) {
                    return Err(diverge(s.check, &s.prefix, want, &got));
                }
                checks += 1;
            }

            // Pad equivalence: output-port pad wires match machine pads.
            for (p, key, nets) in &outports {
                let Some(want) = machine.pad(key) else {
                    continue;
                };
                let got = nets.clone().and_then(|bits| {
                    read_bits(&sim, width, bits.iter().copied(), || format!("{p}/pad_out"))
                });
                if got != Ok(want) {
                    return Err(diverge("pad_out", p, want, &got));
                }
                checks += 1;
            }
        }

        Ok(CosimStats {
            cycles: program.cycles.len(),
            nets: self.netlist.net_count(),
            transistors: self.netlist.transistors.len(),
            checks,
        })
    }

    /// Drives every element's control lines for one phase: a line of
    /// that phase is up when its decode holds for `word`, every other
    /// line is down. `None` (power-on) drives them all down.
    fn drive_controls(
        &self,
        sim: &mut SwitchSim<'_>,
        word: u64,
        phase: Option<Phase>,
    ) -> Result<(), CosimError> {
        for c in &self.controls {
            let on = if phase == Some(c.phase) {
                let &(mask, offset) = c
                    .field
                    .as_ref()
                    .map_err(|e| SimError::Microcode(e.clone()))?;
                c.active.eval((word & mask) >> offset)
            } else {
                false
            };
            for &net in &c.nets {
                sim.set_net(net, Level::from_bool(on));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prepared")
            .field("chip", &self.chip.spec.name)
            .field("nets", &self.netlist.net_count())
            .field("transistors", &self.netlist.transistors.len())
            .finish()
    }
}

/// Runs the differential co-simulation; equivalent to
/// [`run_cosim_with`] without a fault.
///
/// # Errors
///
/// See [`CosimError`].
pub fn run_cosim(spec: &ChipSpec, program: &Program) -> Result<CosimStats, CosimError> {
    run_cosim_with(spec, program, None)
}

/// Runs the differential co-simulation of one program, optionally
/// injecting a netlist fault after extraction: [`Prepared::new`] then
/// [`Prepared::run`].
///
/// # Errors
///
/// See [`CosimError`]; an injected fault is expected to surface as
/// [`CosimError::Diverged`].
pub fn run_cosim_with(
    spec: &ChipSpec,
    program: &Program,
    fault: Option<&Fault>,
) -> Result<CosimStats, CosimError> {
    Prepared::new(spec, fault)?.run(program)
}

/// Convenience: build a standalone switch simulator over a netlist with
/// the co-sim power-on preset applied (used by exploratory tests).
#[must_use]
pub fn preset_switch_sim(netlist: &bristle_extract::Netlist) -> SwitchSim<'_> {
    let mut sim = SwitchSim::new(netlist);
    sim.preset_all(Level::L0);
    sim
}
