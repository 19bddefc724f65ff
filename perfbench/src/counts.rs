//! Simulated counts, read from the layers' public statistics.
//!
//! Hardware counters (PMU, TLB, caches) cover the measured phase: the
//! phase opens with `Machine::reset_hw_stats`. Kernel, MMU and
//! physical-memory counters are deltas over the same phase, except the
//! frame peak, which is the allocator's lifetime high-water mark. Every
//! count is deterministic for a seed: the benchmark fails if two
//! repetitions, traced or not, disagree on any of them.

use sat_core::KernelStats;
use sat_sim::Machine;

/// The counts of one kernel's measured phase.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    /// Measured steps.
    pub steps: u64,
    /// Simulated cycles, all cores.
    pub cycles: u64,
    /// PMU instruction fetches plus data accesses, all cores.
    pub accesses: u64,
    /// Page faults taken (refaults included).
    pub page_faults: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Main-TLB stall cycles of instruction fetches.
    pub inst_tlb_stall_cycles: u64,
    /// Main-TLB stall cycles of data accesses.
    pub data_tlb_stall_cycles: u64,
    /// TLB-shootdown IPIs received.
    pub shootdown_ipis: u64,
    /// Main-TLB hits.
    pub tlb_hits: u64,
    /// Main-TLB misses.
    pub tlb_misses: u64,
    /// Main-TLB hits on global entries.
    pub tlb_global_hits: u64,
    /// Main-TLB entries invalidated by flushes.
    pub tlb_entries_flushed: u64,
    /// Flushes a precise shootdown skipped.
    pub tlb_avoided_flushes: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Cache stall cycles of table walks.
    pub walk_stall_cycles: u64,
    /// Forks.
    pub forks: u64,
    /// Exits.
    pub exits: u64,
    /// PTPs unshared, all causes.
    pub ptp_unshares: u64,
    /// Reclaim passes.
    pub reclaims: u64,
    /// Page-cache frames evicted.
    pub reclaim_pages: u64,
    /// PTEs torn from private PTPs.
    pub reclaim_pte_tears: u64,
    /// PTEs torn from shared PTPs.
    pub reclaim_shared_tears: u64,
    /// 64KB groups (and sections) promoted.
    pub promotions: u64,
    /// Large mappings demoted.
    pub demotions: u64,
    /// Never-touched frames promotion filled.
    pub waste_frames: u64,
    /// PTP slab allocations.
    pub ptps_allocated: u64,
    /// PTEs copied by fork and unshare.
    pub ptes_copied: u64,
    /// Page-cache misses that re-read an evicted page.
    pub refaults: u64,
    /// Frames allocated.
    pub total_allocs: u64,
    /// Lifetime peak of frames in use.
    pub frames_peak: u64,
}

/// The counter readings a measured phase starts from.
pub struct Baseline {
    kernel: KernelStats,
    l2_misses: u64,
    ptps_allocated: u64,
    live_ptes_copied: u64,
    exited_ptes_copied: u64,
    refaults: u64,
    total_allocs: u64,
}

/// PTEs copied by the live processes so far (per-process counters; an
/// exiting process's share is banked by the workload before it goes).
pub fn live_ptes_copied(m: &Machine) -> u64 {
    m.kernel
        .processes()
        .map(|(_, mm)| mm.counters.ptes_copied_total())
        .sum()
}

impl Baseline {
    /// Opens a measured phase: resets the hardware counters and reads
    /// the rest. `exited_ptes_copied` is the workload's running total
    /// of PTEs copied by processes that have exited.
    pub fn open(m: &mut Machine, exited_ptes_copied: u64) -> Baseline {
        m.reset_hw_stats();
        let phys = m.kernel.phys.stats();
        Baseline {
            kernel: m.kernel.stats,
            l2_misses: m.l2.stats().misses,
            ptps_allocated: m.kernel.ptps.slab_stats().allocs,
            live_ptes_copied: live_ptes_copied(m),
            exited_ptes_copied,
            refaults: phys.refaults,
            total_allocs: phys.total_allocs,
        }
    }

    /// Closes the phase and returns its counts.
    pub fn close(&self, m: &Machine, exited_ptes_copied: u64, steps: u64) -> Counts {
        let k = &m.kernel.stats;
        let b = &self.kernel;
        let phys = m.kernel.phys.stats();
        let mut c = Counts {
            steps,
            forks: k.forks - b.forks,
            exits: k.exits - b.exits,
            ptp_unshares: k.ptp_unshares - b.ptp_unshares,
            reclaims: k.reclaims - b.reclaims,
            reclaim_pages: k.reclaim_pages - b.reclaim_pages,
            reclaim_pte_tears: k.reclaim_pte_tears - b.reclaim_pte_tears,
            reclaim_shared_tears: k.reclaim_shared_tears - b.reclaim_shared_tears,
            promotions: (k.promotions + k.section_promotions)
                - (b.promotions + b.section_promotions),
            demotions: k.demotions - b.demotions,
            waste_frames: k.waste_frames - b.waste_frames,
            ptps_allocated: m.kernel.ptps.slab_stats().allocs - self.ptps_allocated,
            ptes_copied: (live_ptes_copied(m) + exited_ptes_copied)
                - (self.live_ptes_copied + self.exited_ptes_copied),
            refaults: phys.refaults - self.refaults,
            total_allocs: phys.total_allocs - self.total_allocs,
            frames_peak: phys.high_water,
            l2_misses: m.l2.stats().misses - self.l2_misses,
            ..Counts::default()
        };
        for core in &m.cores {
            let s = &core.stats;
            c.cycles += s.cycles;
            c.accesses += s.inst_fetches + s.data_accesses;
            c.page_faults += s.page_faults;
            c.context_switches += s.context_switches;
            c.inst_tlb_stall_cycles += s.inst_main_tlb_stall_cycles;
            c.data_tlb_stall_cycles += s.data_main_tlb_stall_cycles;
            c.shootdown_ipis += s.tlb_shootdown_ipis;
            let t = core.main_tlb.stats();
            c.tlb_hits += t.hits;
            c.tlb_misses += t.misses;
            c.tlb_global_hits += t.global_hits;
            c.tlb_entries_flushed += t.entries_flushed;
            c.tlb_avoided_flushes += t.avoided_flushes;
            let (l1i, l1d) = core.caches.l1_stats();
            c.l1i_misses += l1i.misses;
            c.l1d_misses += l1d.misses;
            c.walk_stall_cycles += core.caches.stats().walk_stall_cycles;
        }
        c
    }
}
