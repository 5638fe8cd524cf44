//! The flatten-once geometry pipeline on the large sweep chips: pins the
//! flatten cache, the indexed extractor and hierarchical DRC on the
//! biggest specs the sweep generator produces. Every pass is serial.
//!
//! Also cross-checks (in `--test` smoke mode) that the indexed extractor
//! matches the naive reference on the smallest workload.

use bristle_bench::harness::Bench;
use bristle_bench::{compile, sweep_spec};
use bristle_drc::{check_hierarchical, RuleSet};
use bristle_extract::extract;

fn main() {
    let mut b = Bench::from_args();
    for (width, regs, extras) in [(16u32, 8i64, 4u32), (32, 8, 4)] {
        let spec = sweep_spec(width, regs, extras);
        let chip = compile(&spec).unwrap();
        let name = &spec.name;

        // Flatten with a cold cache each iteration (clone drops the
        // cache), then with the warm cache the passes below share.
        b.run(&format!("flatten_cold/{name}"), || {
            chip.lib.clone().flatten_shared(chip.core_cell).len()
        });
        b.run(&format!("flatten_cached/{name}"), || {
            chip.lib.flatten_shared(chip.core_cell).len()
        });
        b.run(&format!("extract/{name}"), || extract(&chip.lib, chip.core_cell));
        b.run(&format!("drc_hier/{name}"), || {
            check_hierarchical(&chip.lib, chip.core_cell, &RuleSet::mead_conway())
        });

        if b.test_mode() && width == 16 {
            let fast = extract(&chip.lib, chip.core_cell);
            let slow = bristle_extract::extract_reference(&chip.lib, chip.core_cell);
            assert_eq!(fast, slow, "indexed extractor must match the reference");
            println!("extract/{name}: matches naive reference");
        }
    }
}
