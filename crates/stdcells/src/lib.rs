//! # bristle-stdcells
//!
//! The low-level cell library: every datapath element as a **procedural
//! cell generator** in the Bristle Blocks sense.
//!
//! The paper leaves low-level cell design to humans ("human ingenuity
//! pays off well in the low level cell design"); this crate plays that
//! human. Every bit cell is built on a common hand-designed **frame**
//! ([`frame::BitCellSpec`]): the four standard horizontal tracks (GND,
//! bus A, bus B, VDD) with W/E abutment bristles, vertical poly control
//! columns on an 8λ grid rising from the decoder edge, and device rows —
//! horizontal diffusion chains whose crossings with the columns are the
//! transistors. Cells declare stretch lines between the tracks, so Pass 1
//! can align any mix of elements to a common pitch.
//!
//! Generators provided (the chip description's element vocabulary):
//!
//! | name | parameters | columns |
//! |---|---|---|
//! | `registers` | `count` | one per register (rda/rdb/ld + storage) |
//! | `alu` | — | operand latches, precharged carry, result drive |
//! | `shifter` | — | load, shift left/right, output |
//! | `ram` | `words` | one per word (sel + wr/rd) |
//! | `stack` | `depth` | one per level (push/pop) |
//! | `inport` / `outport` | — | pad-connected bus taps |
//! | `precharge` | — | φ2 bus pull-ups (inserted automatically) |
//!
//! Plus the non-datapath cells of the chip frame: [`control_buffer`] and
//! [`pad_cell`].
//!
//! Every generated cell passes `bristle-drc` (tested per generator), and
//! the geometry is honest nMOS: dynamic storage nodes, pass-transistor
//! read/write, precharged buses pulled low through enhancement chains.
//! The complete cycle-accurate semantics of each element live in its
//! SIMULATION representation (`bristle_sim::behaviors`), exactly as the
//! paper stores multiple representations per cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod generators;
mod pads;

pub use generators::{
    all_generators, generator_named, AluGen, InPortGen, OutPortGen, PrechargeGen, RamGen,
    RegistersGen, ShifterGen, StackGen,
};
pub use pads::{control_buffer, pad_cell, PAD_SIZE};
