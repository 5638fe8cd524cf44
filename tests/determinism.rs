//! Deterministic-parallelism regression: hierarchical DRC, the one pass
//! that threads (per cell), must produce byte-identical reports
//! regardless of worker count. Workers merge in input order by
//! construction; this test pins that guarantee end to end on a real
//! chip. Extraction is serial and pinned to its reference oracle in
//! `extract_regression.rs` instead.
//!
//! Kept in its own integration binary because it flips the global
//! worker cap — the cap is process-wide, and other suites must never
//! observe it mid-flight.

use bristle_bench::{compile, sweep_spec};
use bristle_blocks::drc::{check_hierarchical, RuleSet};
use bristle_blocks::geom::{max_workers, set_max_workers};

#[test]
fn drc_identical_across_thread_counts() {
    let spec = sweep_spec(8, 4, 2);
    let chip = compile(&spec).unwrap();
    let rules = RuleSet::mead_conway();

    // Serial baseline. The flatten cache is shared state too — clear it
    // between runs so each pass rebuilds everything from scratch.
    set_max_workers(1);
    chip.lib.clear_flat_cache();
    let report_1 = check_hierarchical(&chip.lib, chip.core_cell, &rules);

    for workers in [2usize, 8, 0 /* auto */] {
        set_max_workers(workers);
        chip.lib.clear_flat_cache();
        let report_n = check_hierarchical(&chip.lib, chip.core_cell, &rules);
        assert_eq!(
            format!("{report_1}"),
            format!("{report_n}"),
            "DRC report differs between 1 and {workers} workers"
        );
        assert_eq!(report_1.violations.len(), report_n.violations.len());
    }

    set_max_workers(0);
    assert_eq!(max_workers(), 0);
}
