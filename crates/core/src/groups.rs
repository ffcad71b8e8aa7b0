//! Back-end SIMD execution groups and their issue-port occupancy.

use warpweave_isa::UnitClass;

use crate::config::SmConfig;
use crate::pipeline::{LSU_LANES, SFU_LANES};

/// The timing state of one SIMD group.
#[derive(Debug, Clone)]
struct GroupState {
    /// Unit class served by the group.
    class: UnitClass,
    /// Number of lanes.
    width: usize,
    /// First cycle at which the group's issue port is free again.
    port_free_at: u64,
}

/// All back-end groups of the SM.
#[derive(Debug, Clone)]
pub struct ExecGroups {
    groups: Vec<GroupState>,
    /// `[class as usize]`: the first cycle at which some group of the
    /// class has a free port — the minimum of its groups' `port_free_at`,
    /// `u64::MAX` for a class without a group (control). Kept by
    /// [`ExecGroups::occupy`], so the per-scan class question is four
    /// compares, not a walk.
    class_free_at: [u64; 4],
}

impl ExecGroups {
    /// The back-end of `cfg`, table 2's rule at any warp width:
    /// `mad_lanes / warp_width` MAD groups, each one warp wide, then one
    /// SFU group and one LSU group.
    pub fn new(cfg: &SmConfig) -> Self {
        let mad = (UnitClass::Mad, cfg.warp_width);
        let shape = std::iter::repeat_n(mad, cfg.mad_lanes / cfg.warp_width)
            .chain([(UnitClass::Sfu, SFU_LANES), (UnitClass::Lsu, LSU_LANES)]);
        let groups: Vec<GroupState> = shape
            .map(|(class, width)| GroupState {
                class,
                width,
                port_free_at: 0,
            })
            .collect();
        let mut class_free_at = [u64::MAX; 4];
        for g in &groups {
            class_free_at[g.class as usize] = 0;
        }
        ExecGroups {
            groups,
            class_free_at,
        }
    }

    /// Finds a group of `class` whose port is free at `now`.
    pub fn find_free(&self, class: UnitClass, now: u64) -> Option<usize> {
        if self.class_free_at[class as usize] > now {
            return None;
        }
        self.groups
            .iter()
            .position(|g| g.class == class && g.port_free_at <= now)
    }

    /// Classes with at least one free port at `now`, as a bitmask over
    /// `UnitClass as u8`.
    #[inline]
    pub fn free_class_mask(&self, now: u64) -> u8 {
        let [mad, sfu, lsu, control] = self.class_free_at.map(|at| u8::from(at <= now));
        let mask = mad | sfu << 1 | lsu << 2 | control << 3;
        debug_assert_eq!(mask, self.free_class_mask_by_walk(now), "class word");
        mask
    }

    /// [`ExecGroups::free_class_mask`] by walking every group: the class
    /// word's derivation.
    fn free_class_mask_by_walk(&self, now: u64) -> u8 {
        self.groups
            .iter()
            .filter(|g| g.port_free_at <= now)
            .fold(0u8, |m, g| m | (1 << g.class as u8))
    }

    /// Issue waves needed to push a `warp_width`-wide instruction through
    /// group `idx`.
    pub fn waves(&self, idx: usize, warp_width: usize) -> u64 {
        warp_width.div_ceil(self.groups[idx].width) as u64
    }

    /// Occupies group `idx` for `cycles` starting at `now`; returns the
    /// cycle of the last wave.
    pub fn occupy(&mut self, idx: usize, now: u64, cycles: u64) -> u64 {
        debug_assert!(self.groups[idx].port_free_at <= now, "group already busy");
        self.groups[idx].port_free_at = now + cycles;
        let class = self.groups[idx].class;
        let of_class = self.groups.iter().filter(|g| g.class == class);
        self.class_free_at[class as usize] =
            of_class.map(|g| g.port_free_at).min().unwrap_or(u64::MAX);
        now + cycles - 1
    }

    /// The earliest future cycle at which any currently-busy port frees
    /// (`None` when every port is already free at `now`). Used by the
    /// pipeline's idle fast-forward to find the next scheduling event.
    pub fn next_release_after(&self, now: u64) -> Option<u64> {
        self.groups
            .iter()
            .map(|g| g.port_free_at)
            .filter(|&t| t > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_isa::UnitClass::*;

    /// The baseline's back-end: two 32-wide MAD groups, SFU, LSU.
    fn groups() -> ExecGroups {
        ExecGroups::new(&SmConfig::baseline())
    }

    #[test]
    fn width_rule_shapes_the_back_end() {
        let shape = |cfg: SmConfig| -> Vec<(UnitClass, usize)> {
            ExecGroups::new(&cfg)
                .groups
                .iter()
                .map(|g| (g.class, g.width))
                .collect()
        };
        assert_eq!(
            shape(SmConfig::baseline()),
            [(Mad, 32), (Mad, 32), (Sfu, 8), (Lsu, 32)]
        );
        for cfg in [SmConfig::warp64(), SmConfig::sbi(), SmConfig::sbi_swi()] {
            assert_eq!(shape(cfg), [(Mad, 64), (Sfu, 8), (Lsu, 32)]);
        }
    }

    #[test]
    fn find_and_occupy() {
        let mut g = groups();
        let a = g.find_free(Mad, 0).unwrap();
        assert_eq!(g.occupy(a, 0, 1), 0);
        // Second MAD group still free.
        let b = g.find_free(Mad, 0).unwrap();
        assert_ne!(a, b);
        g.occupy(b, 0, 1);
        assert!(g.find_free(Mad, 0).is_none());
        assert!(g.find_free(Mad, 1).is_some());
    }

    #[test]
    fn wave_counts() {
        let g = groups();
        let sfu = g.find_free(Sfu, 0).unwrap();
        assert_eq!(g.waves(sfu, 32), 4);
        assert_eq!(g.waves(sfu, 64), 8);
        let mad = g.find_free(Mad, 0).unwrap();
        assert_eq!(g.waves(mad, 32), 1);
        assert_eq!(g.waves(mad, 64), 2);
    }

    proptest::proptest! {
        /// Random `occupy` sequences on every preset's back-end: after each,
        /// at every cycle around it, the class word answers what the walk
        /// over the groups does.
        #[test]
        fn class_word_is_the_group_walk(
            preset in 0usize..4,
            ops in proptest::collection::vec((0usize..4, 0u64..6, 1u64..9), 1..60),
        ) {
            let cfg = [SmConfig::baseline(), SmConfig::warp64(), SmConfig::sbi(), SmConfig::sbi_swi()];
            let mut g = ExecGroups::new(&cfg[preset]);
            let mut now = 0;
            for (idx, wait, cycles) in ops {
                now += wait;
                let idx = idx % g.groups.len();
                if g.groups[idx].port_free_at <= now {
                    g.occupy(idx, now, cycles);
                }
                for t in now.saturating_sub(2)..now + 10 {
                    proptest::prop_assert_eq!(g.free_class_mask(t), g.free_class_mask_by_walk(t));
                    for class in [Mad, Sfu, Lsu, Control] {
                        let walk = g.groups.iter().position(|x| x.class == class && x.port_free_at <= t);
                        proptest::prop_assert_eq!(g.find_free(class, t), walk);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_wave_occupancy() {
        let mut g = groups();
        let sfu = g.find_free(Sfu, 5).unwrap();
        let last = g.occupy(sfu, 5, 4);
        assert_eq!(last, 8);
        assert_eq!(g.find_free(Sfu, 8), None);
        assert_eq!(g.find_free(Sfu, 9), Some(sfu));
    }
}
