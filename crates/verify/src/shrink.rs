//! Shrinking failing runs to minimal reproducers.
//!
//! Strategy (greedy, budgeted; each candidate is re-validated by a fresh
//! run on its prepared chip):
//!
//! 1. **Truncate the program** to end right after the first divergent
//!    cycle — program generation is prefix-stable, so truncation never
//!    changes the cycles that remain.
//! 2. **Drop leading cycles** one at a time while the failure persists.
//! 3. **Drop elements** from the spec, one at a time (the program is
//!    regenerated from the same seed against each candidate spec).
//! 4. **Reduce the data width** toward 2 bits.
//!
//! Each accepted step restarts the scan; the loop stops at a fixpoint
//! or when the run budget is exhausted. The result carries the exact
//! spec, seed and cycle count needed to replay the failure.
//!
//! The shrinker holds one [`Prepared`] chip: the best spec's, compiled,
//! extracted and faulted once. Steps 1 and 2 only change the program, so
//! they run on it; a step-3 or step-4 candidate spec is prepared once,
//! and replaces it if it diverges. A run costs one co-simulation, not
//! one compile.

use std::fmt;

use bristle_core::ChipSpec;

use crate::cosim::{CosimError, Divergence, Prepared};
use crate::fault::Fault;
use crate::program::Program;

/// A shrunk failing case, replayable from (spec, seed, cycles).
#[derive(Debug, Clone)]
pub struct MinimalRepro {
    /// The minimal chip spec that still fails.
    pub spec: ChipSpec,
    /// Program seed.
    pub seed: u64,
    /// Cycles to run.
    pub cycles: usize,
    /// How many leading cycles of the generated program are skipped.
    pub skip: usize,
    /// The divergence the minimal case produces.
    pub divergence: Divergence,
    /// Co-simulation runs the shrinker spent.
    pub runs: usize,
}

/// The report is itself a page: the run details are `#` comments and
/// the spec follows as the page `parse_page` reads, so a dump replays
/// its chip without the case seed.
impl fmt::Display for MinimalRepro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# minimal reproducer ({} shrink runs):", self.runs)?;
        // `program_seed` is NOT the BRISTLE_VERIFY_SEED case seed: replay
        // by regenerating `Program::random(&spec, program_seed, skip +
        // cycles)`, draining `skip` cycles, and running against `spec`.
        writeln!(
            f,
            "#   program_seed={} cycles={} skip={}",
            self.seed, self.cycles, self.skip
        )?;
        writeln!(f, "#   {}", self.divergence)?;
        write!(f, "{}", self.spec)
    }
}

/// Builds the candidate program for a spec: generate from the seed, drop
/// `skip` leading cycles, keep `cycles`.
fn candidate_program(spec: &ChipSpec, seed: u64, skip: usize, cycles: usize) -> Program {
    let mut p = Program::random(spec, seed, skip + cycles);
    p.cycles.drain(..skip.min(p.cycles.len()));
    p
}

/// `spec` without element `drop`. Like every shrink candidate it keeps
/// everything else — name, buses, user microcode fields, flags, bus
/// breaks — so the shrinker never drifts to a different chip than the
/// one that failed.
fn spec_without(spec: &ChipSpec, drop: usize) -> Option<ChipSpec> {
    if spec.elements.len() <= 1 {
        return None;
    }
    let mut elements = spec.elements.clone();
    elements.remove(drop);
    // The program generator needs an inport and a register bank.
    if !elements.iter().any(|e| e.kind == "inport")
        || !elements.iter().any(|e| e.kind == "registers")
    {
        return None;
    }
    Some(ChipSpec {
        elements,
        ..spec.clone()
    })
}

/// `spec` at another data width, everything else kept.
fn spec_with_width(spec: &ChipSpec, data_width: u32) -> ChipSpec {
    ChipSpec {
        data_width,
        ..spec.clone()
    }
}

/// Shrinks a failing (spec, program-seed, fault) case to a minimal
/// reproducer. `budget` bounds the number of co-simulation runs.
///
/// Returns `None` if the initial case does not actually diverge.
#[must_use]
pub fn shrink(
    spec: &ChipSpec,
    seed: u64,
    cycles: usize,
    fault: Option<&Fault>,
    budget: usize,
) -> Option<MinimalRepro> {
    let runs = std::cell::Cell::new(0usize);
    // `chip` is `spec` prepared; `None` if it failed to prepare.
    let check = |chip: Option<&Prepared>, spec: &ChipSpec, skip: usize, cycles: usize| {
        runs.set(runs.get() + 1);
        let program = candidate_program(spec, seed, skip, cycles);
        if program.cycles.is_empty() {
            return None;
        }
        match chip?.run(&program) {
            Err(CosimError::Diverged(d)) => Some(d),
            // Compile/bridge errors on a candidate mean the candidate is
            // not a valid reproducer, not that the bug is gone.
            _ => None,
        }
    };
    let prepare = |spec: &ChipSpec| Prepared::new(spec, fault).ok();

    let mut best_spec = spec.clone();
    let mut best = prepare(&best_spec);
    let mut skip = 0usize;
    let mut best_cycles = cycles;
    let mut divergence = check(best.as_ref(), &best_spec, 0, cycles)?;
    // 1. Truncate to the first divergent cycle.
    if divergence.cycle + 1 < best_cycles {
        if let Some(d) = check(best.as_ref(), &best_spec, 0, divergence.cycle + 1) {
            best_cycles = divergence.cycle + 1;
            divergence = d;
        }
    }

    let mut improved = true;
    while improved && runs.get() < budget {
        improved = false;
        // 2. Drop leading cycles.
        while best_cycles > 1 && runs.get() < budget {
            if let Some(d) = check(best.as_ref(), &best_spec, skip + 1, best_cycles - 1) {
                skip += 1;
                best_cycles -= 1;
                divergence = d;
                improved = true;
            } else {
                break;
            }
        }
        // 3. Drop elements.
        let mut i = 0;
        while i < best_spec.elements.len() && runs.get() < budget {
            if let Some(candidate) = spec_without(&best_spec, i) {
                let chip = prepare(&candidate);
                if let Some(d) = check(chip.as_ref(), &candidate, skip, best_cycles) {
                    best_spec = candidate;
                    best = chip;
                    divergence = d;
                    improved = true;
                    continue; // same index now names the next element
                }
            }
            i += 1;
        }
        // 4. Reduce width: accept the smallest width (tried ascending
        // from 2) that still fails.
        let orig_width = best_spec.data_width;
        for w in 2..orig_width {
            if runs.get() >= budget {
                break;
            }
            let candidate = spec_with_width(&best_spec, w);
            let chip = prepare(&candidate);
            if let Some(d) = check(chip.as_ref(), &candidate, skip, best_cycles) {
                best_spec = candidate;
                best = chip;
                divergence = d;
                improved = true;
                break;
            }
        }
    }

    Some(MinimalRepro {
        spec: best_spec,
        seed,
        cycles: best_cycles,
        skip,
        divergence,
        runs: runs.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_keep_the_spec_identity() {
        let spec = ChipSpec::builder("keep")
            .data_width(6)
            .microcode_field("lit", 3)
            .bus("X")
            .bus("Y")
            .element("inport", &[])
            .element("registers", &[("count", 3)])
            .break_bus(0)
            .element("alu", &[])
            .break_bus(1)
            .flag("PROTOTYPE", true)
            .build()
            .unwrap();
        let without = spec_without(&spec, 2).unwrap();
        assert_eq!(without.elements, spec.elements[..2]);
        let narrow = spec_with_width(&spec, 2);
        assert_eq!(narrow.data_width, 2);
        for c in [&without, &narrow] {
            assert_eq!(c.name, spec.name);
            assert_eq!(c.buses, spec.buses);
            assert_eq!(c.user_fields, spec.user_fields);
            assert_eq!(c.flags, spec.flags);
        }
        assert!(without.elements[1].break_bus_a);
        assert!(narrow.elements[1].break_bus_a && narrow.elements[2].break_bus_b);
        // Dropping the inport or the only register bank yields no
        // candidate: the program generator needs both.
        assert!(spec_without(&spec, 0).is_none());
        assert!(spec_without(&spec, 1).is_none());
    }
}
