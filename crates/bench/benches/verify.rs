//! Differential-verification throughput: how many random specs per
//! second the compile → extract → bridge → co-simulate loop sustains.
//! The per-stage benches isolate where a regression lands: generation,
//! the full differential run, one more program on a chip already
//! prepared, or the switch-level stepping alone.

use bristle_bench::harness::Bench;
use bristle_extract::extract;
use bristle_verify::{run_cosim, Prepared, Program, Rng, SpecGen};

const CYCLES: usize = 14;

fn main() {
    let mut b = Bench::from_args();

    b.run("specgen/cosim_spec", || {
        SpecGen::random_cosim_spec(&mut Rng::new(0xBEEF), "bench_spec")
    });

    // One fixed mid-size seed: full differential run (compile + extract
    // + bridge + machine + switch, CYCLES cycles, all checks).
    let seed = 0xB215_713Eu64;
    let spec = SpecGen::random_cosim_spec(&mut Rng::new(seed), "bench_cosim");
    let program = Program::random(&spec, seed, CYCLES);
    b.run("cosim/full_run", || {
        run_cosim(&spec, &program).expect("bench spec must co-simulate")
    });

    // One more program on a chip already compiled, extracted and bound:
    // what the shrinker pays per candidate program.
    let prepared = Prepared::new(&spec, None).expect("bench spec must prepare");
    b.run("cosim/prepared_run", || {
        prepared.run(&program).expect("bench spec must co-simulate")
    });

    // Switch-level stepping alone, compile/extract hoisted out: the
    // marginal cost of each additional verification cycle.
    let chip = bristle_core::Compiler::new().compile(&spec).unwrap();
    let netlist = extract(&chip.lib, chip.core_cell);
    b.run("cosim/switch_settle", || {
        let mut sim = bristle_verify::cosim::preset_switch_sim(&netlist);
        sim.settle().unwrap();
        sim
    });

    if b.test_mode() {
        let stats = run_cosim(&spec, &program).unwrap();
        println!(
            "cosim/full_run: {} cycles, {} nets, {} devices, {} checks",
            stats.cycles, stats.nets, stats.transistors, stats.checks
        );
    }
}
