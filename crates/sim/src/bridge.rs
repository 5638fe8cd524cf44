//! The netlist↔machine adapter: maps extracted net names onto
//! machine-level signals so a [`SwitchSim`] over compiled silicon and a
//! functional [`crate::Machine`] are comparable at all.
//!
//! The compiler stacks every element column `data_width` slices high and
//! names each instance `{element}_c{column}_b{bit}`; extraction qualifies
//! every bristle terminal with that instance path. The bridge parses
//! those terminal names back into *signal groups*:
//!
//! * `busa_w`/`busa_e` (and `busb_*`) bristles resolve, per bit row, to
//!   the single net the abutting bus tracks form — the bridge verifies
//!   the rows really are single nets (a free bus-continuity check).
//! * control columns (`rda0`, `ld`, …) resolve to one net per column per
//!   bit; a driver forces every net of a group together, which is
//!   exactly what the instruction decoder's poly columns do.
//! * clock columns (`phi1*`, `phi2*`) form the φ1/φ2 groups.
//! * storage-plate probes (`storeA`, `opa`, …) and pad wires (`pad_in`,
//!   `pad_out`) resolve per bit for word-level reads and drives.
//!
//! The bridge only names nets; a driver binds them once and then drives
//! and reads the [`SwitchSim`] by id. Word reads ([`read_bits`]) are
//! strict: a read fails loudly on any `X` bit, because the differential
//! test suite treats `X` on an observed signal as a divergence, never as
//! "don't care".

use std::collections::BTreeMap;
use std::fmt;

use bristle_extract::{NetId, Netlist};

use crate::switch::{Level, SwitchError, SwitchSim};

/// One terminal mapped into a signal group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminalNet {
    /// Element column index (the `c<k>` in the instance name).
    pub column: u32,
    /// Bit-slice index (the `b<k>` in the instance name).
    pub bit: u32,
    /// The extracted net.
    pub net: NetId,
}

/// Errors from bridge construction and word conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// A bus row maps to more than one net — the tracks do not abut.
    BusDiscontinuity {
        /// Bus group name (`busa` / `busb`).
        bus: String,
        /// Bit row with the discontinuity.
        bit: u32,
    },
    /// A bus bit row has no terminal at all.
    BusRowMissing {
        /// Bus group name.
        bus: String,
        /// Missing bit row.
        bit: u32,
    },
    /// No signal group with this element prefix + local name.
    UnknownSignal {
        /// Element prefix (e.g. `e1_registers`).
        prefix: String,
        /// Local signal name (e.g. `rda0`).
        local: String,
    },
    /// A word read found a non-binary level.
    XLevel {
        /// Which signal was being read.
        signal: String,
        /// Which bit was X.
        bit: u32,
    },
    /// Underlying switch-level failure.
    Switch(SwitchError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::BusDiscontinuity { bus, bit } => {
                write!(f, "bus `{bus}` bit {bit} spans multiple nets (tracks do not abut)")
            }
            BridgeError::BusRowMissing { bus, bit } => {
                write!(f, "bus `{bus}` has no terminal on bit row {bit}")
            }
            BridgeError::UnknownSignal { prefix, local } => {
                write!(f, "no signal group `{prefix}/{local}` in the netlist")
            }
            BridgeError::XLevel { signal, bit } => {
                write!(f, "signal `{signal}` bit {bit} reads X")
            }
            BridgeError::Switch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<SwitchError> for BridgeError {
    fn from(e: SwitchError) -> BridgeError {
        BridgeError::Switch(e)
    }
}

/// Reads `(bit, net)` pairs of a settled simulator as a `width`-bit
/// word, LSB on bit row 0. A bit no pair names reads X, a later pair for
/// a bit overrides an earlier one, and pairs at or above `width` are
/// ignored.
///
/// # Errors
///
/// [`BridgeError::XLevel`] on the lowest non-binary bit. `signal` names
/// the read in that error and is called only then, so a successful read
/// builds no string.
pub fn read_bits(
    sim: &SwitchSim<'_>,
    width: u32,
    bits: impl IntoIterator<Item = (u32, NetId)>,
    signal: impl FnOnce() -> String,
) -> Result<u64, BridgeError> {
    let (mut ones, mut known) = (0u64, 0u64);
    for (bit, net) in bits {
        if bit >= width {
            continue;
        }
        let b = 1u64 << bit;
        ones &= !b;
        known &= !b;
        match sim.net_level(net) {
            Level::L0 => known |= b,
            Level::L1 => {
                known |= b;
                ones |= b;
            }
            Level::X => {}
        }
    }
    let full = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let x = full & !known;
    if x != 0 {
        return Err(BridgeError::XLevel {
            signal: signal(),
            bit: x.trailing_zeros(),
        });
    }
    Ok(ones)
}

/// Splits a qualified terminal name `<elem>_c<col>_b<bit>/<local>` into
/// `(element prefix, column, bit, local)`. Returns `None` for terminals
/// that do not follow the compiler's core naming convention (e.g. the
/// decoder's, or hand-built cells').
#[must_use]
pub fn parse_terminal(name: &str) -> Option<(&str, u32, u32, &str)> {
    let (inst, local) = name.split_once('/')?;
    // Nested paths are not core columns.
    if local.contains('/') {
        return None;
    }
    let (rest, bit) = inst.rsplit_once("_b")?;
    let bit: u32 = bit.parse().ok()?;
    let (prefix, col) = rest.rsplit_once("_c")?;
    let col: u32 = col.parse().ok()?;
    Some((prefix, col, bit, local))
}

/// The signal-group map of an extracted core: every name a driver
/// binds, resolved to nets.
pub struct NetlistBridge {
    /// `prefix -> local -> terminals` (net-deduplicated, sorted).
    groups: BTreeMap<String, BTreeMap<String, Vec<TerminalNet>>>,
    /// Per-bit nets of bus A and bus B.
    buses: [Vec<NetId>; 2],
    /// Clock-column nets per phase prefix (`phi1` / `phi2`).
    clocks: BTreeMap<&'static str, Vec<NetId>>,
}

impl NetlistBridge {
    /// Builds the bridge over an extracted netlist with the given data
    /// width, verifying bus continuity for both buses across all bit
    /// rows.
    ///
    /// # Errors
    ///
    /// [`BridgeError::BusDiscontinuity`] / [`BridgeError::BusRowMissing`]
    /// when the abutted bus tracks do not form one net per bit row.
    pub fn new(netlist: &Netlist, width: u32) -> Result<NetlistBridge, BridgeError> {
        let mut groups: BTreeMap<String, BTreeMap<String, Vec<TerminalNet>>> = BTreeMap::new();
        let mut bus_rows: BTreeMap<(&str, u32), Vec<NetId>> = BTreeMap::new();
        for (name, net) in &netlist.terminals {
            let Some((prefix, column, bit, local)) = parse_terminal(name) else {
                continue;
            };
            match local {
                "busa_w" | "busa_e" | "busb_w" | "busb_e" => {
                    let bus = &local[..4];
                    let row = bus_rows.entry((bus, bit)).or_default();
                    if !row.contains(net) {
                        row.push(*net);
                    }
                }
                // Rails are handled by SwitchSim's VDD/GND name scan.
                "vdd_w" | "vdd_e" | "gnd_w" | "gnd_e" => {}
                _ => {
                    // A control column's north continuation (`<ctl>_n`)
                    // names the same net as its south bristle; fold it
                    // into the base group.
                    let local = local.strip_suffix("_n").unwrap_or(local);
                    let t = TerminalNet {
                        column,
                        bit,
                        net: *net,
                    };
                    let g = groups
                        .entry(prefix.to_owned())
                        .or_default()
                        .entry(local.to_owned())
                        .or_default();
                    if !g.contains(&t) {
                        g.push(t);
                    }
                }
            }
        }
        let bus = |name: &str| -> Result<Vec<NetId>, BridgeError> {
            let mut nets = Vec::with_capacity(width as usize);
            for bit in 0..width {
                match bus_rows.get(&(name, bit)).map(Vec::as_slice) {
                    Some([one]) => nets.push(*one),
                    Some(_) => {
                        return Err(BridgeError::BusDiscontinuity {
                            bus: name.to_owned(),
                            bit,
                        })
                    }
                    None => {
                        return Err(BridgeError::BusRowMissing {
                            bus: name.to_owned(),
                            bit,
                        })
                    }
                }
            }
            Ok(nets)
        };
        let buses = [bus("busa")?, bus("busb")?];
        let mut clocks: BTreeMap<&'static str, Vec<NetId>> =
            [("phi1", Vec::new()), ("phi2", Vec::new())].into();
        for m in groups.values() {
            for (local, ts) in m {
                for (phase, nets) in &mut clocks {
                    if local.starts_with(phase) {
                        for t in ts {
                            if !nets.contains(&t.net) {
                                nets.push(t.net);
                            }
                        }
                    }
                }
            }
        }
        Ok(NetlistBridge {
            groups,
            buses,
            clocks,
        })
    }

    /// Element prefixes seen in the netlist, in sorted order.
    pub fn prefixes(&self) -> impl Iterator<Item = &str> {
        self.groups.keys().map(String::as_str)
    }

    /// The terminals of one signal group.
    ///
    /// # Errors
    ///
    /// [`BridgeError::UnknownSignal`] if the group does not exist.
    pub fn group(&self, prefix: &str, local: &str) -> Result<&[TerminalNet], BridgeError> {
        self.groups
            .get(prefix)
            .and_then(|m| m.get(local))
            .map(Vec::as_slice)
            .ok_or_else(|| BridgeError::UnknownSignal {
                prefix: prefix.to_owned(),
                local: local.to_owned(),
            })
    }

    /// The nets of every clock column of `phase_prefix` (`"phi1"` or
    /// `"phi2"`); empty for unrecognized prefixes.
    #[must_use]
    pub fn clock_nets(&self, phase_prefix: &str) -> &[NetId] {
        self.clocks.get(phase_prefix).map_or(&[], Vec::as_slice)
    }

    /// The nets of bus A (0) or bus B (1), one per bit row.
    ///
    /// # Panics
    ///
    /// Panics if `bus` is neither 0 nor 1.
    #[must_use]
    pub fn bus_nets(&self, bus: usize) -> &[NetId] {
        &self.buses[bus]
    }
}

impl fmt::Debug for NetlistBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetlistBridge")
            .field("bits", &self.buses[0].len())
            .field("elements", &self.groups.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_terminal_forms() {
        assert_eq!(
            parse_terminal("e1_registers_c0_b3/rda0"),
            Some(("e1_registers", 0, 3, "rda0"))
        );
        assert_eq!(
            parse_terminal("pc0_c0_b0/phi2_s0"),
            Some(("pc0", 0, 0, "phi2_s0"))
        );
        // Not core-column shaped.
        assert_eq!(parse_terminal("decoder/and3"), None);
        assert_eq!(parse_terminal("plain"), None);
        assert_eq!(parse_terminal("a_c1_bx/t"), None);
        assert_eq!(parse_terminal("top/e0_c0_b0/t"), None);
    }

    fn tiny_netlist() -> Netlist {
        // Two bit rows of a bus A track, a control column, a plate and a
        // pad wire: just enough structure to exercise grouping. Nets:
        // 0 busA.b0, 1 busA.b1, 2 busB.b0, 3 busB.b1, 4 ctl, 5 plate.b0,
        // 6 pad, 7 plate.b1.
        Netlist {
            net_names: (0..8).map(|i| format!("n{i}")).collect(),
            transistors: vec![],
            terminals: vec![
                ("e0_x_c0_b0/busa_w".into(), NetId(0)),
                ("e0_x_c0_b0/busa_e".into(), NetId(0)),
                ("e0_x_c0_b1/busa_w".into(), NetId(1)),
                ("e0_x_c0_b1/busa_e".into(), NetId(1)),
                ("e0_x_c0_b0/busb_w".into(), NetId(2)),
                ("e0_x_c0_b1/busb_w".into(), NetId(3)),
                ("e0_x_c0_b0/ld".into(), NetId(4)),
                ("e0_x_c0_b0/ld_n".into(), NetId(4)),
                ("e0_x_c0_b0/store".into(), NetId(5)),
                ("e0_x_c0_b1/store".into(), NetId(7)),
                ("e0_x_c0_b0/pad_in".into(), NetId(6)),
            ],
        }
    }

    #[test]
    fn groups_fold_north_continuations() {
        let n = tiny_netlist();
        let bridge = NetlistBridge::new(&n, 2).unwrap();
        // ld and ld_n share a net: one terminal survives.
        assert_eq!(bridge.group("e0_x", "ld").unwrap().len(), 1);
        assert!(bridge.group("e0_x", "store").is_ok());
        // Bus bristles form the buses, not groups.
        assert!(bridge.group("e0_x", "busa_w").is_err());
        assert_eq!(bridge.bus_nets(0), [NetId(0), NetId(1)]);
        assert_eq!(bridge.bus_nets(1), [NetId(2), NetId(3)]);
        assert!(matches!(
            bridge.group("e0_x", "nope"),
            Err(BridgeError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn bus_discontinuity_detected() {
        let mut n = tiny_netlist();
        // Split bit row 0 of bus A into two nets.
        n.terminals[1].1 = NetId(3);
        assert!(matches!(
            NetlistBridge::new(&n, 2),
            Err(BridgeError::BusDiscontinuity { bit: 0, .. })
        ));
        // Missing row.
        let n = Netlist {
            net_names: vec!["a".into()],
            transistors: vec![],
            terminals: vec![("e0_x_c0_b0/busa_w".into(), NetId(0))],
        };
        assert!(matches!(
            NetlistBridge::new(&n, 2),
            Err(BridgeError::BusRowMissing { .. })
        ));
    }

    /// `read_bits` packs levels LSB first, ignores pairs at or above
    /// the width, lets a later pair for a bit override an earlier one,
    /// and names the read only on the lowest X bit.
    #[test]
    fn word_level_round_trip() {
        let n = tiny_netlist();
        let mut sim = SwitchSim::new(&n);
        // Nets 5 and 7 are the plate's bits 0 and 1; net 6 stays X.
        sim.set_net(NetId(5), Level::L1);
        sim.set_net(NetId(7), Level::L0);
        sim.settle().unwrap();
        let unnamed = || -> String { unreachable!("a good read names nothing") };
        let pairs = [(0, NetId(5)), (1, NetId(7)), (2, NetId(6))];
        assert_eq!(read_bits(&sim, 2, pairs, unnamed), Ok(0b01));
        let overridden = [(1, NetId(6)), (0, NetId(7)), (1, NetId(5))];
        assert_eq!(read_bits(&sim, 2, overridden, unnamed), Ok(0b10));
        let bad = [(0, NetId(5)), (1, NetId(6))];
        assert_eq!(
            read_bits(&sim, 2, bad, || "t".to_owned()),
            Err(BridgeError::XLevel {
                signal: "t".to_owned(),
                bit: 1
            })
        );
    }

    /// Driving a group's nets and reading one column of a plate group
    /// through `read_bits`, as the co-simulation does.
    #[test]
    fn drive_and_read_words() {
        let n = tiny_netlist();
        let bridge = NetlistBridge::new(&n, 2).unwrap();
        let mut sim = SwitchSim::new(&n);
        for t in bridge.group("e0_x", "ld").unwrap() {
            sim.set_net(t.net, Level::L1);
        }
        let store = bridge.group("e0_x", "store").unwrap();
        for t in store {
            sim.set_net(t.net, Level::from_bool((0b10 >> t.bit) & 1 == 1));
        }
        sim.settle().unwrap();
        let column = store
            .iter()
            .filter(|t| t.column == 0)
            .map(|t| (t.bit, t.net));
        assert_eq!(read_bits(&sim, 2, column, String::new), Ok(0b10));
        assert_eq!(sim.net_level(NetId(4)), Level::L1);
        // Buses float X on an empty netlist: the strict read reports
        // which bit.
        let bus = (0..).zip(bridge.bus_nets(0).iter().copied());
        assert!(matches!(
            read_bits(&sim, 2, bus, || "busA".to_owned()),
            Err(BridgeError::XLevel { bit: 0, .. })
        ));
    }
}
