//! One module per experiment; each exposes `run(quick: bool)` which prints
//! its tables to stdout. See `DESIGN.md` §5 and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod a5;
pub mod f1;
pub mod f2;
pub mod metrics;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod t8;

/// All experiment ids in canonical order.
pub const ALL: &[&str] = &[
    "f1", "f2", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "a1", "a2", "a3", "a4", "a5",
    "metrics",
];

/// Dispatches one experiment by id; returns false for unknown ids.
pub fn dispatch(id: &str, quick: bool) -> bool {
    match id {
        "f1" => f1::run(quick),
        "f2" => f2::run(quick),
        "t1" => t1::run(quick),
        "t2" => t2::run(quick),
        "t3" => t3::run(quick),
        "t4" => t4::run(quick),
        "t5" => t5::run(quick),
        "t6" => t6::run(quick),
        "t7" => t7::run(quick),
        "t8" => t8::run(quick),
        "a1" => a1::run(quick),
        "a2" => a2::run(quick),
        "a3" => a3::run(quick),
        "a4" => a4::run(quick),
        "a5" => a5::run(quick),
        "metrics" => metrics::run(quick),
        _ => return false,
    }
    true
}
