//! Gate-level netlists for the logic-locking experiments.
//!
//! The paper's logic-locking sections (II-A, IV-A, V-A) reason about
//! combinational circuits (`AC⁰`-style netlists), SAT-based
//! deobfuscation and online-ML attacks. This crate provides the circuit
//! substrate those attacks run on:
//!
//! - [`Netlist`]: a combinational gate-level netlist with primary
//!   inputs, named outputs and a topologically ordered gate list,
//! - simulation, one pattern at a time ([`Netlist::simulate`]) or 64
//!   patterns per `u64` word ([`Netlist::simulate_words`]),
//! - generators ([`generate`]): random DAG circuits, bounded-depth
//!   `AC⁰` circuits, adders, comparators, parity trees and the classic
//!   c17 benchmark,
//! - a hash-consed ROBDD manager ([`bdd`]) for formal equivalence,
//! - the ISCAS-ish `.bench` text format ([`bench_format`]).
//!
//! # Quickstart
//!
//! ```
//! use mlam_netlist::{GateKind, Netlist};
//!
//! let mut b = Netlist::builder(2, 1);
//! let (a, c) = (b.input(0), b.input(1));
//! let g = b.gate(GateKind::And, vec![a, c]);
//! b.set_output(0, g);
//! let net = b.build();
//! assert_eq!(net.simulate(&[true, true]), vec![true]);
//! assert_eq!(net.simulate(&[true, false]), vec![false]);
//! ```

pub mod bdd;
pub mod bench_format;
pub mod generate;
mod netlist;

pub use bdd::{BddManager, BddRef};
pub use netlist::{Gate, GateKind, Net, Netlist, NetlistBuilder};
