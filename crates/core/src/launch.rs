//! Kernel launch descriptors and per-warp launch coordinates.

use warpweave_isa::{Program, SpecialReg};

use crate::config::SmConfig;
use crate::exec::ThreadInfo;
use crate::lane::LaneShuffle;

/// A kernel launch: the program, grid geometry and parameters.
///
/// # Examples
/// ```
/// use warpweave_core::Launch;
/// use warpweave_isa::KernelBuilder;
///
/// # fn main() -> Result<(), String> {
/// let mut k = KernelBuilder::new("noop");
/// k.exit();
/// let launch = Launch::new(k.build()?, 4, 256).with_params(vec![0x1000]);
/// assert_eq!(launch.total_threads(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Launch {
    /// The kernel to run.
    pub program: Program,
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
    /// 32-bit launch parameters (pointers are byte addresses into global
    /// memory).
    pub params: Vec<u32>,
}

impl Launch {
    /// Creates a launch of `grid_blocks × block_threads` threads.
    ///
    /// # Panics
    /// Panics if the grid is empty.
    pub fn new(program: Program, grid_blocks: u32, block_threads: u32) -> Self {
        assert!(grid_blocks > 0 && block_threads > 0, "empty launch grid");
        Launch {
            program,
            grid_blocks,
            block_threads,
            params: Vec::new(),
        }
    }

    /// Attaches launch parameters (builder style).
    pub fn with_params(mut self, params: Vec<u32>) -> Self {
        self.params = params;
        self
    }

    /// Total threads across the grid.
    pub fn total_threads(&self) -> u64 {
        self.grid_blocks as u64 * self.block_threads as u64
    }
}

/// What every simulator constructor refuses before it builds anything: an
/// invalid configuration, an empty program or grid, and a block that needs
/// more warps than an SM holds. Returns the warps one block occupies.
pub(crate) fn check_launch(
    cfg: &SmConfig,
    program: &Program,
    grid_blocks: u32,
    block_threads: u32,
) -> Result<usize, String> {
    cfg.validate()?;
    if program.is_empty() {
        return Err("empty program".into());
    }
    if grid_blocks == 0 || block_threads == 0 {
        return Err("empty launch grid".into());
    }
    let warps_per_block = (block_threads as usize).div_ceil(cfg.warp_width);
    if warps_per_block > cfg.num_warps {
        return Err(format!(
            "block of {block_threads} threads needs {warps_per_block} warps; an SM has {}",
            cfg.num_warps
        ));
    }
    Ok(warps_per_block)
}

/// Struct-of-arrays launch coordinates of one warp, feeding the special
/// registers of the warp-level execute path.
///
/// Four of the six special registers (`ctaid`, `ntid`, `nctaid`, `warpid`)
/// are warp-uniform, `tid` is an affine function of the thread index
/// (`base_tid + t`) and only `laneid` needs a per-thread row — so the
/// warp-level operand resolver materialises most specials as splats
/// instead of gathering `width` copies of a per-thread struct
/// ([`ThreadInfo`], which remains the scalar reference-path encoding).
#[derive(Debug, Clone, PartialEq)]
pub struct WarpInfo {
    /// Thread index (within the block) of lane 0's thread.
    pub base_tid: u32,
    /// Block index within the grid.
    pub ctaid: u32,
    /// Threads per block.
    pub ntid: u32,
    /// Blocks in the grid.
    pub nctaid: u32,
    /// Warp identifier.
    pub warp: u32,
    /// Physical lane of each thread (the lane-shuffle SoA row).
    lanes: Vec<u32>,
}

impl WarpInfo {
    /// Zeroed coordinates for a `width`-thread warp (identity lanes).
    pub fn new(width: usize) -> WarpInfo {
        WarpInfo {
            base_tid: 0,
            ctaid: 0,
            ntid: 0,
            nctaid: 0,
            warp: 0,
            lanes: (0..width as u32).collect(),
        }
    }

    /// Re-seeds the coordinates in place for a fresh block launch,
    /// rewriting the lane row under `shuffle` without reallocating.
    #[allow(clippy::too_many_arguments)]
    pub fn seed(
        &mut self,
        base_tid: u32,
        ctaid: u32,
        ntid: u32,
        nctaid: u32,
        warp: u32,
        shuffle: LaneShuffle,
        width: usize,
        num_warps: usize,
    ) {
        self.base_tid = base_tid;
        self.ctaid = ctaid;
        self.ntid = ntid;
        self.nctaid = nctaid;
        self.warp = warp;
        shuffle.fill_lanes(&mut self.lanes, warp as usize, width, num_warps);
    }

    /// The per-thread lane row.
    pub fn lanes(&self) -> &[u32] {
        &self.lanes
    }

    /// The warp-uniform value of special register `s`, or `None` for the
    /// two per-thread specials (`tid`, `laneid`).
    pub fn splat(&self, s: SpecialReg) -> Option<u32> {
        match s {
            SpecialReg::CtaId => Some(self.ctaid),
            SpecialReg::NTid => Some(self.ntid),
            SpecialReg::NCtaId => Some(self.nctaid),
            SpecialReg::WarpId => Some(self.warp),
            SpecialReg::Tid | SpecialReg::LaneId => None,
        }
    }

    /// The scalar reference-path view of thread `t` (differential tests
    /// bridge to [`crate::exec::execute_thread`] through this).
    pub fn thread_info(&self, t: usize) -> ThreadInfo {
        ThreadInfo {
            tid: self.base_tid + t as u32,
            ctaid: self.ctaid,
            ntid: self.ntid,
            nctaid: self.nctaid,
            lane: self.lanes[t],
            warp: self.warp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_info_seeds_in_place() {
        let mut info = WarpInfo::new(4);
        let cap = info.lanes().as_ptr();
        info.seed(8, 3, 16, 5, 2, LaneShuffle::MirrorOdd, 4, 16);
        assert_eq!(info.lanes(), &[0, 1, 2, 3]); // warp 2 is even → identity
        info.seed(8, 3, 16, 5, 1, LaneShuffle::MirrorOdd, 4, 16);
        assert_eq!(info.lanes(), &[3, 2, 1, 0]);
        assert_eq!(cap, info.lanes().as_ptr(), "seed must not reallocate");
        let ti = info.thread_info(2);
        assert_eq!((ti.tid, ti.lane, ti.warp), (10, 1, 1));
        assert_eq!(info.splat(SpecialReg::NTid), Some(16));
        assert_eq!(info.splat(SpecialReg::Tid), None);
    }
}
