//! 64KB large-page mapping mechanics.
//!
//! The paper's Section 2.3.3 weighs 64KB ARM large pages against
//! shared translation for zygote-preloaded code and finds them
//! wasteful (≈2.6× the physical memory); Section 3.1.3 notes the two
//! compose — a shared PTP can hold 64KB mappings, since a large page
//! is just sixteen consecutive, aligned second-level entries.
//!
//! A large page comes to exist one way: [`collapse_group`], the
//! khugepaged-like path driven by `sat-core`'s promotion scanner. An
//! already fault-populated 64KB run migrates onto a fresh physically
//! contiguous frame group, and never-touched hole pages get frames
//! allocated just to let the run go wide — the *measured* memory
//! waste of Section 2.3.3.
//!
//! Demotion (splitting a large mapping back to 4KB PTEs) lives in
//! `sat_mmu::Mapper::split_large`; the syscall and fault paths invoke
//! it instead of rejecting partial operations.

use sat_mmu::{HwPte, Mapper, PtpStore, SwPte};
use sat_phys::{FrameKind, PhysMem};
use sat_types::{
    Domain, PageSize, Perms, Pfn, SatError, SatResult, VaRange, VirtAddr, PAGES_PER_64K, PAGE_SIZE,
};

use crate::mm::Mm;
use crate::vma::Backing;

/// Bytes in a 64KB large page.
pub const LARGE_PAGE_BYTES: u32 = 64 * 1024;

/// Outcome of promoting one 64KB group of 4KB PTEs into a large page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollapseOutcome {
    /// Pages that were already fault-populated and migrated onto the
    /// contiguous frame group.
    pub migrated: u32,
    /// Hole pages that had never been touched but received frames
    /// anyway — the numerator of the paper's memory-waste figure.
    pub filled: u32,
}

/// Collapses the sixteen 4KB slots of the 64KB-aligned group at
/// `group` into one large page (the khugepaged-style promotion the
/// `sat-core` scanner drives).
///
/// Eligibility, checked here so the scanner can simply try every
/// candidate group (ineligible groups return `InvalidArgument`):
///
/// * `group` is 64KB-aligned and lies wholly inside one VMA;
/// * the group's level-1 entry is a *private* table — `NEED_COPY`
///   shared translations are never promoted, since collapsing would
///   rewrite every sharer's view of the sixteen slots;
/// * at least one slot is populated; every populated slot is a
///   *settled* `Small4K` mapping (hardware permissions match the
///   software intent — no COW pending — and not `MAP_SHARED`), and
///   permissions/global are uniform across the populated slots.
///
/// Mechanics: a fresh physically contiguous 16-frame group is
/// allocated, populated pages migrate onto it (copy + remap), and
/// hole pages get frames with `young == false` — *mapped but never
/// touched*, which is exactly the mapped-vs-touched gap behind the
/// paper's ≈2.6× waste figure (Section 2.3.3). For file-backed
/// regions hole content is staged through the page cache (charged as
/// reads); migrated pages are already resident and copy
/// frame-to-frame. On ENOMEM nothing is changed.
pub fn collapse_group(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    group: VirtAddr,
    domain: Domain,
) -> SatResult<CollapseOutcome> {
    if !group.raw().is_multiple_of(LARGE_PAGE_BYTES) {
        return Err(SatError::InvalidArgument);
    }
    let range = VaRange::from_len(group, LARGE_PAGE_BYTES);
    let vma = match mm.vma_at(group) {
        Some(v) if range.end.raw() <= v.range.end.raw() => v.clone(),
        _ => return Err(SatError::InvalidArgument),
    };
    if mm.root.entry_for(group).need_copy() {
        return Err(SatError::InvalidArgument);
    }
    let mut mapper = Mapper::new(&mut mm.root, ptps, phys, mm.pid);
    // Survey the sixteen slots: settled, uniform, at least one present.
    let slots: Vec<Option<sat_mmu::PteSlot>> = range.pages().map(|p| mapper.get_pte(p)).collect();
    let mut uniform: Option<(Perms, bool)> = None;
    for s in slots.iter().flatten() {
        if s.hw.size != PageSize::Small4K {
            return Err(SatError::InvalidArgument);
        }
        // A slot mid-COW (write-protected while the software intent
        // is writable) or MAP_SHARED is not settled; promoting it
        // would freeze the wrong state into the wide descriptor.
        if s.sw.shared || s.sw.writable != s.hw.perms.write() {
            return Err(SatError::InvalidArgument);
        }
        match uniform {
            None => uniform = Some((s.hw.perms, s.hw.global)),
            Some(u) if u != (s.hw.perms, s.hw.global) => {
                return Err(SatError::InvalidArgument);
            }
            Some(_) => {}
        }
    }
    let Some((perms, global)) = uniform else {
        return Err(SatError::InvalidArgument); // fully empty group
    };
    // Fresh contiguous frames; ENOMEM propagates before any change.
    let base = mapper
        .phys
        .alloc_run(FrameKind::Anon, PAGES_PER_64K as u32)?;
    // Stage hole content for file regions (charged page-cache reads);
    // populated pages are already resident and copy frame-to-frame.
    if let Backing::File { .. } = vma.backing {
        for (i, s) in slots.iter().enumerate() {
            if s.is_some() {
                continue;
            }
            let page = VirtAddr::new(group.raw() + i as u32 * PAGE_SIZE);
            if let Some((file, index)) = vma.file_page_index(page) {
                if let Err(e) = mapper.phys.file_page(file, index) {
                    for j in 0..PAGES_PER_64K as u32 {
                        mapper.phys.put_page(Pfn::new(base.raw() + j));
                    }
                    return Err(e);
                }
            }
        }
    }
    let mut outcome = CollapseOutcome::default();
    let hw = HwPte::large(base, perms, global);
    for (i, old) in slots.iter().enumerate() {
        let page = VirtAddr::new(group.raw() + i as u32 * PAGE_SIZE);
        let sw = match old {
            Some(s) => {
                // Migrate: drop the old 4KB frame, keep the software
                // bits (dirty state survives the copy).
                mapper.clear_pte(page);
                outcome.migrated += 1;
                SwPte {
                    young: s.sw.young,
                    dirty: s.sw.dirty,
                    writable: s.sw.writable,
                    shared: false,
                    file_backed: false, // the copy is anonymous
                }
            }
            None => {
                outcome.filled += 1;
                // Mapped but never touched: the waste the paper
                // measures. `young == false` keeps it countable.
                SwPte {
                    young: false,
                    dirty: false,
                    writable: perms.write(),
                    shared: false,
                    file_backed: false,
                }
            }
        };
        // The group's PTP exists (a slot was populated), so set_pte
        // cannot need an allocation here.
        mapper.set_pte(page, hw, sw, domain)?;
    }
    // Drop the allocation references: the PTEs now own the frames.
    for j in 0..PAGES_PER_64K as u32 {
        mapper.phys.put_page(Pfn::new(base.raw() + j));
    }
    Ok(outcome)
}

/// Test fixture: maps an anonymous read-write heap over `len` bytes
/// at `at` (both 64KB multiples) and turns every group into a large
/// page the way the promotion scanner does — one write fault per
/// group, then [`collapse_group`]. Faulting every group before the
/// first collapse keeps the collapsed groups physically consecutive.
#[cfg(test)]
pub(crate) fn large_region(
    mm: &mut Mm,
    ptps: &mut PtpStore,
    phys: &mut PhysMem,
    at: VirtAddr,
    len: u32,
) {
    use crate::fault::{handle_fault, FaultCtx};
    let range = VaRange::from_len(at, len);
    let vma = crate::vma::Vma::anon(range, Perms::RW, sat_types::RegionTag::Heap, "huge");
    mm.insert_vma(vma).unwrap();
    let groups = (at.raw()..range.end.raw()).step_by(LARGE_PAGE_BYTES as usize);
    for g in groups.clone() {
        let va = VirtAddr::new(g);
        handle_fault(
            mm,
            ptps,
            phys,
            va,
            sat_types::AccessType::Write,
            FaultCtx::default(),
        )
        .unwrap();
    }
    for g in groups {
        collapse_group(mm, ptps, phys, VirtAddr::new(g), Domain::USER).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Vma;
    use sat_mmu::walk;
    use sat_types::{Asid, Pid, RegionTag};

    struct Fx {
        phys: PhysMem,
        ptps: PtpStore,
        mm: Mm,
    }

    fn fx() -> Fx {
        let mut phys = PhysMem::new(16384);
        let mm = Mm::new(&mut phys, Pid::new(1), Asid::new(1)).unwrap();
        Fx {
            phys,
            ptps: PtpStore::new(),
            mm,
        }
    }

    #[test]
    fn maps_one_large_page_as_16_slots() {
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        let before = f.phys.frames_in_use();
        large_region(&mut f.mm, &mut f.ptps, &mut f.phys, at, LARGE_PAGE_BYTES);
        // 16 data frames + 1 PTP; the faulted page's frame migrated.
        assert_eq!(f.phys.frames_in_use(), before + 17);
        assert_eq!(f.mm.counters.ptps_allocated, 1);
        // Every 4KB page of the range translates, with the large size.
        for i in 0..16u32 {
            let res = walk(&f.mm.root, &f.ptps, VirtAddr::new(at.raw() + i * PAGE_SIZE));
            let t = res.translation().unwrap();
            assert_eq!(t.size, PageSize::Large64K);
        }
        // And translations are consistent: VA offset maps linearly.
        let t0 = walk(&f.mm.root, &f.ptps, at).translation().unwrap();
        let pa0 = t0.translate(at);
        let pa9 = walk(&f.mm.root, &f.ptps, VirtAddr::new(at.raw() + 9 * PAGE_SIZE))
            .translation()
            .unwrap()
            .translate(VirtAddr::new(at.raw() + 9 * PAGE_SIZE));
        assert_eq!(pa9.raw() - pa0.raw(), 9 * PAGE_SIZE);
    }

    #[test]
    fn collapse_migrates_populated_and_fills_holes() {
        use crate::fault::{handle_fault, FaultCtx};
        use sat_types::AccessType;
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        let vma = Vma::anon(
            VaRange::from_len(at, LARGE_PAGE_BYTES),
            Perms::RW,
            RegionTag::Heap,
            "promo",
        );
        f.mm.insert_vma(vma).unwrap();
        // Fault 6 of 16 pages by writes (the Figure 4 density).
        for i in [0u32, 2, 5, 7, 11, 13] {
            handle_fault(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                VirtAddr::new(at.raw() + i * PAGE_SIZE),
                AccessType::Write,
                FaultCtx::default(),
            )
            .unwrap();
        }
        let before = f.phys.frames_in_use();
        let out = collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap();
        assert_eq!(out.migrated, 6);
        assert_eq!(out.filled, 10);
        // 16 new frames in, 6 old frames out: net +10 — the waste.
        assert_eq!(f.phys.frames_in_use(), before + 10);
        // All sixteen pages now translate large and linearly.
        let t0 = walk(&f.mm.root, &f.ptps, at).translation().unwrap();
        assert_eq!(t0.size, PageSize::Large64K);
        for i in 0..16u32 {
            let va = VirtAddr::new(at.raw() + i * PAGE_SIZE);
            let t = walk(&f.mm.root, &f.ptps, va).translation().unwrap();
            assert_eq!(t.size, PageSize::Large64K);
            assert_eq!(
                t.translate(va).raw(),
                t0.translate(at).raw() + i * PAGE_SIZE
            );
        }
        // Migrated pages kept their touched state; holes are cold.
        let m = Mapper::new(&mut f.mm.root, &mut f.ptps, &mut f.phys, f.mm.pid);
        assert!(m.get_pte(at).unwrap().sw.young);
        assert!(
            !m.get_pte(VirtAddr::new(at.raw() + PAGE_SIZE))
                .unwrap()
                .sw
                .young
        );
        let _ = m;
        // Teardown balances the books.
        crate::syscalls::exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
    }

    #[test]
    fn collapse_rejects_empty_unaligned_and_mixed_groups() {
        use crate::fault::{handle_fault, FaultCtx};
        use sat_types::AccessType;
        let mut f = fx();
        let at = VirtAddr::new(0x4000_0000);
        let vma = Vma::anon(
            VaRange::from_len(at, 2 * LARGE_PAGE_BYTES),
            Perms::RW,
            RegionTag::Heap,
            "promo",
        );
        f.mm.insert_vma(vma).unwrap();
        // Unaligned group address.
        assert_eq!(
            collapse_group(
                &mut f.mm,
                &mut f.ptps,
                &mut f.phys,
                VirtAddr::new(at.raw() + PAGE_SIZE),
                Domain::USER,
            )
            .unwrap_err(),
            SatError::InvalidArgument
        );
        // Fully empty group.
        assert_eq!(
            collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap_err(),
            SatError::InvalidArgument
        );
        // Mid-COW slot (read fault leaves it write-protected while the
        // software intent is writable): not settled, not promotable.
        handle_fault(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            at,
            AccessType::Read,
            FaultCtx::default(),
        )
        .unwrap();
        assert_eq!(
            collapse_group(&mut f.mm, &mut f.ptps, &mut f.phys, at, Domain::USER).unwrap_err(),
            SatError::InvalidArgument
        );
    }

    #[test]
    fn large_mapped_region_survives_exit_teardown() {
        let mut f = fx();
        let baseline = f.phys.frames_in_use();
        large_region(
            &mut f.mm,
            &mut f.ptps,
            &mut f.phys,
            VirtAddr::new(0x5000_0000),
            2 * LARGE_PAGE_BYTES,
        );
        crate::syscalls::exit_mmap(&mut f.mm, &mut f.ptps, &mut f.phys);
        assert_eq!(f.phys.frames_in_use(), baseline);
        assert!(f.ptps.is_empty());
    }
}
