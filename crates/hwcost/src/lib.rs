//! # warpweave-hwcost
//!
//! Hardware-cost models reproducing the paper's §5.2: the per-technique
//! storage inventory (**table 3**) and the analytical area model calibrated
//! against the authors' 40 nm synthesis results (**table 4**, ≈3–4 % SM
//! overhead).
//!
//! # Examples
//! ```
//! use warpweave_hwcost::{storage, area};
//!
//! let p = storage::HwParams::default();
//! println!("{}", storage::format_table3(&p));
//! println!("{}", area::format_table4(&p, &area::AreaCoefficients::default()));
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod storage;

pub use area::{area_table, format_table4, overheads, totals, AreaCoefficients, SM_AREA_MM2};
pub use storage::{format_table3, storage_inventory, total_bits, Arch, HwParams, StorageRow};
