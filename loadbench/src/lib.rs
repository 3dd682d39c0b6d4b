//! A socket benchmark of the `rp_net` server: an in-process server on
//! loopback, the benchmark's own load generator, every reply checked
//! against an independent reference, and a per-layer ledger of where each
//! request's time went.  `NOTES.md` maps each layer metric to the
//! end-to-end metric it should move.

pub mod bench;
pub mod client;
pub mod layers;
pub mod ledger;
pub mod oracle;
pub mod plan;
pub mod rng;
