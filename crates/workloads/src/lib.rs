//! # warpweave-workloads
//!
//! The 21 benchmark kernels evaluated in *"Simultaneous Branch and Warp
//! Interweaving for Sustained GPU Performance"* (ISCA 2012, §5.1),
//! re-implemented in the warpweave ISA.
//!
//! The paper runs CUDA binaries from Rodinia, the NVIDIA CUDA SDK and two
//! Table Maker's Dilemma implementations under the Barra simulator. Those
//! binaries cannot run here, so each kernel is re-implemented from its
//! algorithm with the same *control-flow and memory-divergence structure*
//! (data-dependent trip counts, tid-correlated imbalance, boundary
//! conditionals, barrier placement, unstructured control flow for TMD) —
//! the properties SBI/SWI actually respond to. Every kernel computes a real
//! result that is verified against a host reference.
//!
//! Workloads are split per the paper: *regular* applications average ≥ 30
//! IPC with 64-wide warps; the rest are *irregular* (fig. 7).
//!
//! # Examples
//! ```
//! use warpweave_core::SmConfig;
//! use warpweave_workloads::{by_name, run_prepared, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = by_name("Histogram").expect("registered workload");
//! let prepared = w.prepare(Scale::Test);
//! let stats = run_prepared(&SmConfig::sbi_swi(), prepared, true)?;
//! println!("{}: {:.1} IPC", w.name(), stats.ipc());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod runner;
pub mod util;

mod backprop;
mod bfs;
mod binomial_options;
mod black_scholes;
mod convolution_separable;
mod dwt_haar1d;
mod eigenvalues;
mod fast_walsh;
mod histogram;
mod hotspot;
mod lud;
mod mandelbrot;
mod matrix_mul;
mod monte_carlo;
mod needleman_wunsch;
mod sorting_networks;
mod srad;
mod threedfd;
mod tmd;
mod transpose;

pub use runner::{run_prepared, run_prepared_multi_sm, Prepared, RunError, Scale, Verifier};

/// Workload class per the paper's fig. 7 split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Average IPC ≥ 30 with 64-wide warps (fig. 7a).
    Regular,
    /// Divergent / imbalanced applications (fig. 7b).
    Irregular,
}

/// A benchmark kernel: builds its launches, inputs and verifier.
pub trait Workload: Send + Sync {
    /// The paper's label for this benchmark.
    fn name(&self) -> &'static str;
    /// Regular or irregular (fig. 7 split).
    fn category(&self) -> Category;
    /// Builds the launch sequence, initial memory and verifier at `scale`.
    fn prepare(&self, scale: Scale) -> Prepared;
}

/// The regular applications of fig. 7a, in presentation order.
pub fn regular() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(threedfd::ThreeDfd),
        Box::new(backprop::Backprop),
        Box::new(binomial_options::BinomialOptions),
        Box::new(black_scholes::BlackScholes),
        Box::new(dwt_haar1d::DwtHaar1d),
        Box::new(fast_walsh::FastWalshTransform),
        Box::new(hotspot::Hotspot),
        Box::new(matrix_mul::MatrixMul),
        Box::new(monte_carlo::MonteCarlo),
        Box::new(transpose::Transpose),
    ]
}

/// The irregular applications of fig. 7b, in presentation order.
pub fn irregular() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(bfs::Bfs),
        Box::new(convolution_separable::ConvolutionSeparable),
        Box::new(eigenvalues::Eigenvalues),
        Box::new(histogram::Histogram),
        Box::new(lud::Lud),
        Box::new(mandelbrot::Mandelbrot),
        Box::new(needleman_wunsch::NeedlemanWunsch),
        Box::new(sorting_networks::SortingNetworks),
        Box::new(srad::Srad),
        Box::new(tmd::Tmd1),
        Box::new(tmd::Tmd2),
    ]
}

/// Every workload (regular then irregular).
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    let mut v = regular();
    v.extend(irregular());
    v
}

/// Looks a workload up by its paper label.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        assert_eq!(regular().len(), 10);
        assert_eq!(irregular().len(), 11);
        assert_eq!(all_workloads().len(), 21);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let all = all_workloads();
        for w in &all {
            assert!(by_name(w.name()).is_some(), "{} not resolvable", w.name());
        }
        let mut names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21, "duplicate workload names");
    }

    #[test]
    fn categories_match_registry() {
        for w in regular() {
            assert_eq!(w.category(), Category::Regular, "{}", w.name());
        }
        for w in irregular() {
            assert_eq!(w.category(), Category::Irregular, "{}", w.name());
        }
    }
}
