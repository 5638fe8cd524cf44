//! Benchmark inputs, generated from the `--seed` argument alone.
//!
//! The spec generators mirror the parameter spaces of
//! `bristle_verify::SpecGen::random_cosim_spec` and `random_spec`, but
//! live here so that a later change to the library's generators cannot
//! silently change a workload. Each spec is drawn exactly as the library
//! draws it; a run's op list is then a quantile sample of those draws by
//! estimated chip size ([`pick_by_size`]), so every run sees the same mix
//! of chip sizes while each op still gets its own input.
//!
//! Programs come from `bristle_verify::Program::random`; the input
//! fingerprint covers them, so a change to that generator shows up as a
//! failed fingerprint check rather than as a silent workload change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bristle_core::{ChipSpec, ElementSpec};
use bristle_verify::{Fault, Program};

/// xorshift64*, the generator the workspace's property tests use; kept as
/// a copy so the benchmark's inputs do not move with the library's.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }

    /// A uniformly shuffled copy of `items` (Fisher–Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Quantile sampling on a size estimate. Draws `k` candidates per op from
/// `draw`, sorts them by `size`, cuts the sorted list into `n` bands of
/// `k` and takes each band's middle candidate, then shuffles the picks.
/// The picks' sizes are the generator's size quantiles, so every run holds
/// the same mix of chip sizes and its cost barely moves from seed to seed,
/// while every other property of each spec is still a fresh random draw.
pub fn pick_by_size<T: Clone>(
    rng: &mut Rng,
    n: usize,
    k: usize,
    mut draw: impl FnMut(&mut Rng) -> T,
    size: impl Fn(&T) -> f64,
) -> Vec<T> {
    // Candidates are kept as the generator state that draws them, so the
    // sample's memory does not count toward the run's peak.
    let mut cands: Vec<(f64, usize, Rng)> = (0..n * k)
        .map(|i| {
            let state = rng.clone();
            (size(&draw(rng)), i, state)
        })
        .collect();
    cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let picks: Vec<T> = cands
        .chunks(k)
        .map(|band| draw(&mut band[k / 2].2.clone()))
        .collect();
    rng.shuffled(&picks)
}

/// Estimated flattened rectangle count of a compiled chip, from the spec
/// alone: a least-squares fit (R² ≈ 0.997 over 400 full-diversity specs)
/// of the chip-level rect count against per-element columns times width.
/// It only orders candidates for [`pick_by_size`]; an inexact estimate
/// lets more of the chips' cost vary from seed to seed.
pub fn size_estimate(spec: &ChipSpec) -> f64 {
    let w = f64::from(spec.data_width);
    let mut per_bit = 12.0;
    let mut fixed = 121.0;
    for e in &spec.elements {
        let p = e.params.values().next().copied().unwrap_or(0) as f64;
        per_bit += match e.kind.as_str() {
            "alu" => 23.0,
            "shifter" => 7.0,
            "inport" | "outport" => 37.0,
            "registers" => 65.0 * p - 27.0,
            "ram" => 38.0 * p - 25.0,
            "stack" => 40.0 * p - 29.0,
            _ => 0.0,
        };
        fixed += if matches!(e.kind.as_str(), "inport" | "outport") {
            15.0
        } else {
            569.0
        };
    }
    w * per_bit + fixed
}

fn element(kind: &str, params: &[(&str, i64)]) -> ElementSpec {
    ElementSpec {
        kind: kind.to_owned(),
        params: params.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        break_bus_a: false,
        break_bus_b: false,
    }
}

/// A co-simulation spec, drawn as `SpecGen::random_cosim_spec` draws
/// it: widths 2..=8, 1–2 inports, 1–2 register banks, optional outports,
/// passive ALU and shifter, active RAM and stack, shuffled order and an
/// optional bus break.
pub fn cosim_spec(rng: &mut Rng, name: &str) -> ChipSpec {
    let width = rng.range(2, 9) as u32;
    let mut elements = vec![element("inport", &[])];
    if rng.chance(1, 3) {
        elements.push(element("inport", &[]));
    }
    for _ in 0..rng.range(1, 3) {
        elements.push(element("registers", &[("count", rng.range(1, 4))]));
    }
    if rng.chance(1, 2) {
        elements.push(element("outport", &[]));
        if rng.chance(1, 3) {
            elements.push(element("outport", &[]));
        }
    }
    if rng.chance(1, 3) {
        elements.push(element("alu", &[]));
    }
    if rng.chance(1, 3) {
        elements.push(element("shifter", &[]));
    }
    if rng.chance(1, 4) {
        elements.push(element("ram", &[("words", rng.range(1, 4))]));
    }
    if rng.chance(1, 4) {
        elements.push(element("stack", &[("depth", rng.range(1, 4))]));
    }
    for i in (1..elements.len()).rev() {
        let j = rng.range(0, i as i64 + 1) as usize;
        elements.swap(i, j);
    }
    let break_after = if rng.chance(1, 4) && elements.len() > 1 {
        Some(rng.range(0, elements.len() as i64 - 1) as usize)
    } else {
        None
    };
    let mut b = ChipSpec::builder(name).data_width(width);
    for (i, e) in elements.into_iter().enumerate() {
        b = b.push_element(e);
        if break_after == Some(i) {
            b = b.break_bus(0);
        }
    }
    b.build()
        .expect("generated co-sim spec must be well-formed")
}

/// A full-diversity spec, drawn as `SpecGen::random_spec` draws it:
/// widths 2..=24, 1–6 elements of all seven kinds, bus breaks, a user
/// microcode field and the PROTOTYPE flag.
pub fn full_spec(rng: &mut Rng, name: &str) -> ChipSpec {
    let width = rng.range(2, 25) as u32;
    let mut b = ChipSpec::builder(name).data_width(width);
    if rng.chance(1, 3) {
        b = b.microcode_field("user_lit", rng.range(1, 9) as u32);
    }
    if rng.chance(1, 6) {
        b = b.flag("PROTOTYPE", true);
    }
    let n = rng.range(1, 7);
    for i in 0..n {
        let e = match rng.range(0, 7) {
            0 => element("registers", &[("count", rng.range(1, 7))]),
            1 => element("alu", &[]),
            2 => element("shifter", &[]),
            3 => element("ram", &[("words", rng.range(1, 7))]),
            4 => element("stack", &[("depth", rng.range(1, 7))]),
            5 => element("inport", &[]),
            _ => element("outport", &[]),
        };
        b = b.push_element(e);
        if i + 1 < n && rng.chance(1, 5) {
            b = b.break_bus(usize::from(rng.chance(1, 2)));
        }
    }
    b.build().expect("generated spec must be well-formed")
}

/// A semantic fault on the first register bank's register 0 at bit
/// `bit`; `kind` (mod 4) picks an open device or a short to GND, on the
/// storage plate or on the read-select line.
pub fn fault(kind: usize, bit: u32) -> Fault {
    let storage = format!("_c0_b{bit}/storeA");
    let read = format!("_b{bit}/rda0");
    match kind % 4 {
        0 => Fault::ShortTerminalToGnd(storage),
        1 => Fault::DropGateDevice(storage),
        2 => Fault::ShortTerminalToGnd(read),
        _ => Fault::DropGateDevice(read),
    }
}

/// Canonical text of a spec, independent of library `Debug` formats.
pub fn render_spec(out: &mut String, spec: &ChipSpec) {
    let _ = write!(out, "chip {} w{}", spec.name, spec.data_width);
    for (name, w) in &spec.user_fields {
        let _ = write!(out, " field {name}:{w}");
    }
    for (name, v) in &spec.flags {
        let _ = write!(out, " flag {name}={v}");
    }
    for e in &spec.elements {
        let _ = write!(out, " | {}", e.kind);
        for (k, v) in &e.params {
            let _ = write!(out, " {k}={v}");
        }
        if e.break_bus_a {
            out.push_str(" !a");
        }
        if e.break_bus_b {
            out.push_str(" !b");
        }
    }
    out.push('\n');
}

fn render_map<V: std::fmt::Debug>(out: &mut String, tag: &str, m: &BTreeMap<String, V>) {
    for (k, v) in m {
        let _ = write!(out, " {tag}:{k}={v:?}");
    }
}

/// Canonical text of a program's cycles.
pub fn render_program(out: &mut String, program: &Program) {
    for c in &program.cycles {
        out.push('[');
        for (k, r) in &c.regs {
            let _ = write!(out, " reg:{k}={:?}/{:?}/{:?}", r.read_a, r.read_b, r.load);
        }
        render_map(out, "in", &c.inports);
        for p in &c.outport_lds {
            let _ = write!(out, " out:{p}");
        }
        render_map(out, "ram", &c.rams);
        render_map(out, "stk", &c.stacks);
        out.push(']');
    }
    out.push('\n');
}

/// Streaming 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_sit_at_the_size_quantiles() {
        let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);
        let picks = pick_by_size(&mut rng, 10, 64, |r| r.range(0, 1000), |&v| v as f64);
        assert_eq!(picks.len(), 10);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_ne!(picks, sorted, "picks are shuffled");
        // Pick i is near the (i + 0.5) / 10 quantile of uniform draws.
        for (i, v) in sorted.iter().enumerate() {
            let q = (i as i64 * 100) + 50;
            assert!((v - q).abs() < 60, "pick {i} = {v}, quantile {q}");
        }
    }

    #[test]
    fn specs_repeat_per_seed() {
        let a = full_spec(&mut Rng::new(9), "a");
        let b = full_spec(&mut Rng::new(9), "a");
        assert_eq!(a, b);
        assert!(size_estimate(&a) > 0.0);
        let c = cosim_spec(&mut Rng::new(9), "c");
        assert!(c.elements.iter().any(|e| e.kind == "registers"));
        assert!(c.elements.iter().any(|e| e.kind == "inport"));
    }
}
