//! The repository benchmark: seeded trace workloads replayed through the
//! public `PubSubNetwork` API, an exact delivery checker, and a traced
//! mode that times the calls into each layer from outside.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sub-storm --seed 7 --seconds 30 --trace 0
//! ```

pub mod check;
pub mod probe;
pub mod replay;
pub mod span;
pub mod stats;
pub mod workload;
