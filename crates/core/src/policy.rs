//! Pluggable issue policies: the [`IssuePolicy`] trait, the narrow
//! [`IssueCtx`] view of the SM it schedules through, and the
//! [`PolicyRegistry`] that resolves policy names to boxed factories.
//!
//! The paper's contribution is a family of *front-end issue policies* —
//! the baseline dual-pool scheduler (§2), SBI's CPC1/CPC2 co-issue (§3),
//! SWI's cascaded lane-filling (§4) and their combination. Each lives in a
//! submodule here as an [`IssuePolicy`] implementation; the pipeline only
//! ever sees the trait object. Adding a new policy (dynamic warp resizing,
//! alternative scheduling orders, …) means writing one impl and one
//! registry entry — no pipeline surgery.
//!
//! # The `IssueCtx` contract
//!
//! A policy is asked once per cycle to produce the cycle's picks. It
//! observes the SM **only** through [`IssueCtx`] — ready-checks (lane
//! masks included), slot masks, scoreboard and issue-port queries — and
//! mutates it **only** through [`IssueCtx::commit`] (plus the
//! dedicated statistic counters and the SM's tie-breaking RNG). A policy
//! must never cache `Ready` entries across cycles without revalidating
//! them (warp-splits move, dependencies appear, buffer entries get
//! squashed); the SWI cascade's pending-primary revalidation shows the
//! pattern.
//!
//! State carried between cycles needs no hook: the SM's clock (idle
//! fast-forward, per-cycle counters) asks a policy nothing — it can only
//! ever commit an eligible, port-free instruction, and the SM jumps only
//! when there is none (`tests/custom_policy.rs` runs a delayed issuer).
//!
//! # How to scan
//!
//! Never probe `0..num_warps` with [`IssueCtx::ready_check`] every cycle:
//! most warps are blocked most of the time, and the SM already knows
//! which — and why. Every `(warp, slot)` stands in exactly one
//! [`crate::SlotState`], and the SM keeps one warp set per state: six
//! reasons a slot is blocked (no context, at a barrier, parked by an SBI
//! constraint, nothing buffered, a scoreboard dependency, scoreboard
//! full), woken, and eligible by unit class. Each of the three events that
//! can change readiness wakes only the slots whose reason it can clear: a
//! fetch fill the slot it filled, a retired scoreboard entry the slots
//! blocked on the scoreboard (an eligible slot's record stands — nothing in
//! it comes from the scoreboard), a context move (issue, barrier release,
//! block launch or teardown, a re-associated entry) the warp — and even
//! then a slot with no context or no buffered entry goes straight to that
//! reason's set, not evaluated to find that out.
//! [`IssueCtx::ready_set`]`(slot, among, classes)` returns the ready,
//! port-free warps of a warp bitmask in one call — it evaluates only the
//! woken slots and answers the rest by OR-ing the eligible sets of the
//! port-free unit classes, reading no per-warp record at all. Split a
//! question by unit class with `classes` (SWI's lookup asks for the
//! primary's own class and for every other one) and count candidates with
//! a popcount. Then walk the set bits (ascending warp order) reading the
//! candidate's scan key only — its age from [`IssueCtx::ready_seq`], its
//! lane-space mask from [`IssueCtx::ready_lanes`] and that mask's
//! population from [`IssueCtx::ready_fit`], one dense word each — and read
//! the full [`Ready`] from [`IssueCtx::ready_info`] for the one
//! picked: the evaluation's record *is* the pick, no second lookup.
//! [`IssueCtx::oldest_ready`] is the oldest-first pick built that way,
//! and what every built-in scheduler calls. Restrict a scan with `among`
//! (a pool, a lookup set, "not this warp") and `classes` rather than
//! filtering afterwards. Debug builds check every `ready_set` result
//! against a cache-free reference fold over all warps, every
//! `oldest_ready` pick against the fold over the records — and, once a
//! cycle, every settled state, record, scan key, fetch candidate and parked
//! secondary the SM maintains against its derivation from the
//! architectural state — so a policy written this way is cross-checked by
//! its own tests.
//!
//! # Determinism clause
//!
//! Every policy must be a **deterministic function of the SM state and
//! the SM's seeded RNG**. No wall-clock, no host addresses, no
//! `HashMap` iteration order, no thread-count dependence: the sweep
//! engine proves bit-identical statistics across host thread counts, and
//! the golden baseline pins every counter with zero tolerance. Randomised
//! tie-breaking is fine — through [`IssueCtx::rand_below`] only.

pub mod baseline;
pub mod sbi;
pub mod swi;

use std::sync::{OnceLock, RwLock};

use warpweave_isa::{Pc, Program, UnitClass};

use crate::config::SmConfig;
use crate::mask::Mask;
use crate::pipeline::Sm;

/// A scheduling candidate: a ready, decoded instruction in some warp's
/// instruction buffer, as reported by [`IssueCtx::ready_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready {
    /// Warp index.
    pub warp: usize,
    /// Instruction-buffer slot (0 = primary split, 1 = secondary).
    pub slot: usize,
    /// Program counter of the buffered instruction.
    pub pc: Pc,
    /// Thread-space active mask of the issuing warp-split.
    pub mask: Mask,
    /// `mask` in lane space (its population equals the thread mask's),
    /// translated once per readiness evaluation.
    pub lanes: Mask,
    /// Back-end unit class the instruction needs.
    pub unit: UnitClass,
    /// Fetch sequence number (age; smaller = older).
    pub seq: u64,
}

/// How a pick maps onto the back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Occupies group `idx` normally.
    Group(usize),
    /// Rides the same pass as the primary through group `idx` (disjoint
    /// lanes, no extra occupancy).
    Ride(usize),
    /// Control instruction: no back-end group.
    None,
}

/// One instruction selected for issue this cycle.
#[derive(Debug, Clone, Copy)]
pub struct Pick {
    /// The scheduling candidate being issued.
    pub ready: Ready,
    /// Its back-end dispatch plan.
    pub dispatch: Dispatch,
    /// True when this pick came from the secondary scheduler/front-end
    /// (statistics attribution).
    pub secondary: bool,
}

/// One fetch-channel preference: `(warp-parity filter, ibuf slot)`.
/// `None` parity means "any warp".
pub type FetchPref = (Option<usize>, usize);

/// The per-channel fetch domains a policy wants: two channels, each an
/// ordered preference list tried per cycle (paper §2: two fetch/decode
/// channels, 1 instruction each).
pub type FetchChannels = [&'static [FetchPref]; 2];

/// An issue front-end: asked once per cycle to pick and commit this
/// cycle's instructions through an [`IssueCtx`].
///
/// See the module docs for the `IssueCtx` contract and the determinism
/// clause every implementation must obey.
pub trait IssuePolicy: std::fmt::Debug + Send {
    /// Selects and commits this cycle's picks; returns how many
    /// instructions were issued (0 counts as an idle cycle).
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize;

    /// The fetch-channel domains this policy wants serviced — this is
    /// what determines which ibuf slots get filled (an SBI-style policy
    /// lists slot 1 on its second channel; see
    /// [`crate::policy::sbi::SbiPolicy`]'s channel table).
    fn fetch_channels(&self) -> FetchChannels;

    /// The ibuf slot of `warp` this policy holds reserved across cycles
    /// (the SWI cascade's pending primary), exempt from revalidation
    /// squashing. `None` for stateless policies.
    fn reserved_slot(&self, warp: usize) -> Option<usize> {
        let _ = warp;
        None
    }
}

/// The narrow, policy-facing view of one [`Sm`].
///
/// Everything an issue policy may observe or mutate goes through here:
/// pure queries (ready checks, slot masks, lane translation, port
/// probes), the dedicated statistic counters, the seeded tie-breaking
/// RNG, and [`IssueCtx::commit`] — never the SM's internals directly.
pub struct IssueCtx<'a> {
    pub(crate) sm: &'a mut Sm,
    /// The SM's decoded program, borrowed once per `run` so a commit
    /// reads instructions without touching the `Arc`'s refcount.
    pub(crate) program: &'a Program,
}

impl IssueCtx<'_> {
    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.sm.cycle()
    }

    /// Resident warps on the SM.
    pub fn num_warps(&self) -> usize {
        self.sm.config().num_warps
    }

    /// Threads per warp.
    pub fn warp_width(&self) -> usize {
        self.sm.config().warp_width
    }

    /// The warps in `warp`'s set of the SWI mask-lookup (fig. 9
    /// associativity), `warp` included, as a bitmask.
    pub fn lookup_set(&self, warp: usize) -> u64 {
        self.sm.lookup_set(warp)
    }

    /// Whether `(warp, slot)` holds a ready instruction whose execution
    /// group has a free issue port. Pure — no statistics move.
    pub fn ready_check(&self, warp: usize, slot: usize) -> Option<Ready> {
        self.sm.ready_check(warp, slot)
    }

    /// [`IssueCtx::ready_check`] without the free-port requirement (used
    /// to *hold* a pick while its port drains).
    pub fn ready_check_unported(&self, warp: usize, slot: usize) -> Option<Ready> {
        self.sm.ready_check_nogroup(warp, slot)
    }

    /// The scan primitive: the warps of `among` (a bitmask) for which
    /// [`IssueCtx::ready_check`] on `slot` returns an instruction whose
    /// unit class is in `classes` (a bitmask over `UnitClass as u8`; `!0`
    /// for any). Event-driven — see the module docs' "How to scan".
    pub fn ready_set(&self, slot: usize, among: u64, classes: u8) -> u64 {
        let set = self.sm.ready_set(slot, among, classes);
        // The invariants' test: the set equals the reference fold of the
        // cache-free ready check over every warp. (What the events maintain
        // — the state sets, records and fetch sets — is held to its
        // from-state derivation once a cycle, in `Sm::tick`.)
        #[cfg(debug_assertions)]
        {
            let reference = (0..self.num_warps())
                .filter(|&w| among >> w & 1 != 0)
                .filter_map(|w| self.sm.ready_check_reference(w, slot))
                .filter(|r| classes >> r.unit as u8 & 1 != 0)
                .fold(0, |m, r| m | 1u64 << r.warp);
            assert_eq!(set, reference, "slot {slot} scan missed a ready warp");
        }
        set
    }

    /// The ready instruction in `(warp, slot)` — only meaningful for the
    /// warps [`IssueCtx::ready_set`] returned this cycle.
    pub fn ready_info(&self, warp: usize, slot: usize) -> Ready {
        self.sm.ready_info(warp, slot)
    }

    /// [`IssueCtx::ready_info`]`(warp, slot).seq` — the age a scan compares
    /// — read from a dense per-slot word, not the record.
    pub fn ready_seq(&self, warp: usize, slot: usize) -> u64 {
        self.sm.ready_seq(warp, slot)
    }

    /// [`IssueCtx::ready_info`]`(warp, slot).lanes` — the lane mask a
    /// best-fit scan measures — read from a dense per-slot word.
    pub fn ready_lanes(&self, warp: usize, slot: usize) -> Mask {
        self.sm.ready_lanes(warp, slot)
    }

    /// [`IssueCtx::ready_lanes`]`(warp, slot).count()` — the best-fit score
    /// — read from a dense per-slot byte the evaluation wrote, not
    /// popcounted per candidate.
    pub fn ready_fit(&self, warp: usize, slot: usize) -> u32 {
        self.sm.ready_fit(warp, slot)
    }

    /// The oldest instruction of [`IssueCtx::ready_set`]`(slot, among,
    /// classes)` — the oldest-first pick of every built-in scheduler.
    pub fn oldest_ready(&self, slot: usize, among: u64, classes: u8) -> Option<Ready> {
        // Ascending warp order, a strictly smaller age replacing: the first
        // minimum wins. The loop reads one `seq` word per candidate; the
        // record is copied for the pick alone.
        let ready = self.ready_set(slot, among, classes);
        let mut set = ready;
        let mut oldest: Option<(u64, usize)> = None;
        while set != 0 {
            let w = set.trailing_zeros() as usize;
            set &= set - 1;
            let seq = self.ready_seq(w, slot);
            if oldest.is_none_or(|(age, _)| seq < age) {
                oldest = Some((seq, w));
            }
        }
        // The scan keys' test: the pick is the fold over the records.
        #[cfg(debug_assertions)]
        {
            let reference = Mask::from_bits(ready)
                .iter()
                .min_by_key(|&w| self.ready_info(w, slot).seq);
            let picked = oldest.map(|(_, w)| w);
            assert_eq!(picked, reference, "slot {slot}: oldest pick");
        }
        oldest.map(|(_, w)| self.ready_info(w, slot))
    }

    /// Counts `n` SWI mask-lookup probes (candidates the lookup compared).
    pub fn count_lookup_probes(&mut self, n: u32) {
        self.sm.stats_mut().lookup_probes += u64::from(n);
    }

    /// Counts one successful SWI mask-lookup.
    pub fn count_lookup_hit(&mut self) {
        self.sm.stats_mut().lookup_hits += 1;
    }

    /// Counts one cascaded-scheduler conflict squash (§4).
    pub fn count_scheduler_conflict(&mut self) {
        self.sm.stats_mut().scheduler_conflicts += 1;
    }

    /// Dispatch plan for a lone instruction of class `unit` (`None` when
    /// every serving port is busy).
    pub fn plan_dispatch(&self, unit: UnitClass) -> Option<Dispatch> {
        self.sm.plan_dispatch(unit)
    }

    /// Dispatch plan for a secondary co-issued with primary `r1`
    /// (dispatched as `d1`): ride the same group pass for MAD/SFU,
    /// otherwise another free group. Enforces the
    /// one-divergence-per-cycle and single-LSU-port rules.
    pub fn plan_coissue(&self, r1: &Ready, d1: Dispatch, r2: &Ready) -> Option<Dispatch> {
        self.sm.plan_coissue(r1, d1, r2)
    }

    /// True if the instruction at `pc` is a branch (the
    /// one-divergence-per-cycle co-issue rule needs this).
    pub fn is_branch(&self, pc: Pc) -> bool {
        self.sm.is_branch(pc)
    }

    /// Deterministic tie-breaking: a pseudo-random index below `n` from
    /// the SM's seeded RNG.
    pub fn rand_below(&mut self, n: usize) -> usize {
        self.sm.rand_below(n)
    }

    /// Issues `picks` (1 or 2 instructions) for `warp`: functional
    /// execution, back-end timing, divergence update, scoreboard event.
    /// Commit order is architecturally meaningful (port occupancy and
    /// DRAM arbitration follow it), so commit in the order picked.
    pub fn commit(&mut self, warp: usize, picks: &[Pick]) {
        self.sm.commit_warp_issue(self.program, warp, picks);
    }
}

/// Factory signature the registry stores: builds a fresh policy instance
/// for one SM from its configuration.
pub type PolicyFactory = fn(&SmConfig) -> Box<dyn IssuePolicy>;

/// One registered issue policy: identity, documentation pointers, the
/// architectural requirements [`SmConfig::validate`] enforces, the preset
/// configuration and the boxed factory.
#[derive(Debug, Clone)]
pub struct PolicyInfo {
    /// Canonical registry name (also the preset's config label).
    pub name: &'static str,
    /// Alternate names [`PolicyRegistry::resolve_global`] accepts.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub summary: &'static str,
    /// Paper section (or provenance) of the policy.
    pub paper: &'static str,
    /// Requires thread-frontier divergence tracking.
    pub needs_frontier: bool,
    /// Requires a mask-aware scoreboard (`Exact` or `Matrix`).
    pub needs_masked_scoreboard: bool,
    preset: fn() -> SmConfig,
    factory: PolicyFactory,
}

impl PolicyInfo {
    /// A new entry with no aliases and no architectural requirements
    /// (set `needs_*` with struct-update syntax). `preset` returns the
    /// policy's default [`SmConfig`]; `factory` builds a fresh policy
    /// instance per SM. Register the result with
    /// [`PolicyRegistry::register_global`] to make the policy
    /// constructible by name everywhere.
    pub fn new(
        name: &'static str,
        summary: &'static str,
        paper: &'static str,
        preset: fn() -> SmConfig,
        factory: PolicyFactory,
    ) -> PolicyInfo {
        PolicyInfo {
            name,
            aliases: &[],
            summary,
            paper,
            needs_frontier: false,
            needs_masked_scoreboard: false,
            preset,
            factory,
        }
    }

    /// Sets the alternate names [`PolicyRegistry::resolve_global`]
    /// accepts (builder style).
    pub fn with_aliases(mut self, aliases: &'static [&'static str]) -> PolicyInfo {
        self.aliases = aliases;
        self
    }

    /// The policy's preset [`SmConfig`] (table-2 parameters).
    pub fn preset(&self) -> SmConfig {
        (self.preset)()
    }

    /// Builds a fresh policy instance for an SM configured by `cfg`.
    pub fn build(&self, cfg: &SmConfig) -> Box<dyn IssuePolicy> {
        (self.factory)(cfg)
    }

    /// True when `name` matches the canonical name or an alias.
    pub fn matches(&self, name: &str) -> bool {
        self.name == name || self.aliases.contains(&name)
    }
}

/// The process-wide table of issue policies: seeded with the built-ins,
/// extended via [`PolicyRegistry::register_global`]. It is what
/// [`SmConfig`] validation and SM construction resolve against, so a
/// policy registered here is constructible by name everywhere
/// (`SmConfig::with_policy`, `--frontend <name>`, `Sm::new`). There is no
/// other instance: the type only names the table's three functions.
#[derive(Debug)]
pub enum PolicyRegistry {}

/// The table: the built-ins, then every registration.
fn table() -> &'static RwLock<Vec<PolicyInfo>> {
    static TABLE: OnceLock<RwLock<Vec<PolicyInfo>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(builtin_entries()))
}

impl PolicyRegistry {
    /// Registers `info`, replacing any entry with the same canonical name.
    /// After this call the policy is constructible by name from every
    /// entry point ([`SmConfig::with_policy`], [`SmConfig::validate`],
    /// `Sm`/`Machine` construction, the CLIs' `--frontend`).
    pub fn register_global(info: PolicyInfo) {
        let mut entries = table().write().expect("policy registry lock");
        entries.retain(|e| e.name != info.name);
        entries.push(info);
    }

    /// Resolves a canonical name or alias (a cheap clone of the entry —
    /// two `fn` pointers plus statics).
    pub fn resolve_global(name: &str) -> Option<PolicyInfo> {
        let entries = table().read().expect("policy registry lock");
        entries.iter().find(|e| e.matches(name)).cloned()
    }

    /// Canonical names, in registration order.
    pub fn global_names() -> Vec<&'static str> {
        let entries = table().read().expect("policy registry lock");
        entries.iter().map(|e| e.name).collect()
    }
}

fn builtin_entries() -> Vec<PolicyInfo> {
    vec![
        PolicyInfo {
            name: "Baseline",
            aliases: &["baseline"],
            summary: "Fermi-like dual warp pools, oldest-first, PDOM stack",
            paper: "§2, fig. 1",
            needs_frontier: false,
            needs_masked_scoreboard: false,
            preset: SmConfig::baseline,
            factory: |_| Box::new(baseline::DualPoolPolicy::oldest_first()),
        },
        PolicyInfo {
            name: "Warp64",
            aliases: &["warp64"],
            summary: "Thread-frontier reference: 64-wide warps, sequential branches",
            paper: "fig. 7 reference",
            needs_frontier: true,
            needs_masked_scoreboard: false,
            preset: SmConfig::warp64,
            factory: |_| Box::new(baseline::DualPoolPolicy::oldest_first()),
        },
        PolicyInfo {
            name: "SBI",
            aliases: &["sbi"],
            summary: "Simultaneous Branch Interweaving: co-issues CPC1/CPC2 of one warp",
            paper: "§3",
            needs_frontier: true,
            needs_masked_scoreboard: true,
            preset: SmConfig::sbi,
            factory: |_| Box::new(sbi::SbiPolicy),
        },
        PolicyInfo {
            name: "SWI",
            aliases: &["swi"],
            summary: "Simultaneous Warp Interweaving: cascaded lane-filling secondary",
            paper: "§4",
            needs_frontier: true,
            needs_masked_scoreboard: false,
            preset: SmConfig::swi,
            factory: |_| Box::new(swi::SwiPolicy::solo()),
        },
        PolicyInfo {
            name: "SBI+SWI",
            aliases: &["sbi+swi", "sbi_swi"],
            summary: "Both techniques combined",
            paper: "§3+§4, fig. 2e",
            needs_frontier: true,
            needs_masked_scoreboard: true,
            preset: SmConfig::sbi_swi,
            factory: |_| Box::new(swi::SwiPolicy::with_sbi()),
        },
        PolicyInfo {
            name: "GreedyThenOldest",
            aliases: &["GTO", "gto"],
            summary: "Dual-pool scheduler with greedy-then-oldest warp ordering",
            paper: "scheduling-order study (net-new; GTO à la Rogers et al.)",
            needs_frontier: false,
            needs_masked_scoreboard: false,
            preset: SmConfig::greedy_then_oldest,
            factory: |_| Box::new(baseline::DualPoolPolicy::greedy()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_resolve_and_validate() {
        let builtins = [
            "Baseline",
            "Warp64",
            "SBI",
            "SWI",
            "SBI+SWI",
            "GreedyThenOldest",
        ];
        assert_eq!(PolicyRegistry::global_names(), builtins);
        for name in builtins {
            let entry = PolicyRegistry::resolve_global(name).unwrap();
            let cfg = entry.preset();
            assert_eq!(cfg.policy, entry.name, "preset policy name mismatch");
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            // The factory builds without panicking.
            let policy = entry.build(&cfg);
            assert!(!policy.fetch_channels()[0].is_empty());
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_entry() {
        let resolve = |name| PolicyRegistry::resolve_global(name).map(|e| e.name);
        assert_eq!(resolve("gto"), Some("GreedyThenOldest"));
        assert_eq!(resolve("GTO"), Some("GreedyThenOldest"));
        assert_eq!(resolve("sbi+swi"), Some("SBI+SWI"));
        assert_eq!(resolve("nope"), None);
    }
}
