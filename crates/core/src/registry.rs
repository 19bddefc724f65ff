//! The central registry of shared page-table pages.
//!
//! Before this registry existed, "is this PTP shared, and by how
//! many?" was answered two different ways in two places: the
//! `NEED_COPY` bit in each process's level-1 pair said *that* a PTP
//! was shared, and the frame's `mapcount` in `sat-phys` said *how
//! many* processes reference it. [`SharedPtpRegistry`] centralizes
//! both: one refcounted entry per shared PTP, keyed by the physical
//! frame, owning the sharer count and the chunk it covers. The
//! Figure-6 cause attribution is counted once, by the unshare itself,
//! into [`KernelStats`].
//!
//! `NEED_COPY` stays — it is the paper's *mechanism* (the spare bit
//! the fault path tests without any lookup) — but it is now a cached
//! hint whose truth lives here. The registry is what makes fork of a
//! fully-shared image O(shared regions): a chunk whose parent pair
//! already carries `NEED_COPY` has, by the eager-unshare invariant,
//! been sharable since its first share (every region op unshares
//! first), so fork attaches the child with one refcount bump — no VMA
//! overlap scan, no write-protect pass, no aging walk.
//!
//! Invariant (checked by the reconciliation proptest): for every
//! entry, `sharers` equals the frame's `mapcount` in `sat-phys`, and
//! an entry exists exactly while at least one process's level-1 pair
//! carries `NEED_COPY` for the frame.
//!
//! [`KernelStats`]: crate::kernel::KernelStats

use std::collections::BTreeMap;

use sat_types::{Domain, Pfn, VirtAddr};

/// One shared PTP's registry record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedPtpEntry {
    /// Base address of the 2MB chunk the PTP translates. Sharers
    /// inherit the zygote's layout, so the chunk is the same virtual
    /// address in every address space referencing the frame.
    pub chunk: VirtAddr,
    /// Domain of the sharers' level-1 pairs.
    pub domain: Domain,
    /// Processes whose level-1 pair references the frame with
    /// `NEED_COPY` set. Mirrors the frame's `mapcount` exactly.
    pub sharers: u32,
}

/// Central refcounted registry of shared PTPs, keyed by the physical
/// frame holding the table.
#[derive(Default)]
pub struct SharedPtpRegistry {
    entries: BTreeMap<Pfn, SharedPtpEntry>,
}

impl SharedPtpRegistry {
    /// An empty registry.
    pub fn new() -> SharedPtpRegistry {
        SharedPtpRegistry::default()
    }

    /// Records a fork attaching one new sharer to `frame`.
    ///
    /// The first share creates the entry counting both the parent and
    /// the child (the parent's reference becomes a *shared* reference
    /// the moment its pair is marked `NEED_COPY`); later shares bump
    /// the count. Returns the new sharer count.
    pub fn share(&mut self, frame: Pfn, chunk: VirtAddr, domain: Domain) -> u32 {
        match self.entries.get_mut(&frame) {
            Some(e) => {
                debug_assert_eq!(
                    e.chunk, chunk,
                    "shared PTP re-attached at a different chunk"
                );
                e.sharers += 1;
                e.sharers
            }
            None => {
                self.entries.insert(
                    frame,
                    SharedPtpEntry {
                        chunk,
                        domain,
                        sharers: 2,
                    },
                );
                2
            }
        }
    }

    /// Detaches one sharer from `frame` — an unshare or an exit.
    /// Returns `true` when the caller was the last sharer (the entry
    /// is removed and the caller keeps the table private — no copy
    /// needed).
    pub fn detach(&mut self, frame: Pfn) -> bool {
        let e = self
            .entries
            .get_mut(&frame)
            .expect("detach of a PTP the registry does not know as shared");
        if e.sharers == 1 {
            self.entries.remove(&frame);
            true
        } else {
            e.sharers -= 1;
            false
        }
    }

    /// The sharer count for `frame`, if it is registered as shared.
    ///
    /// A count of 1 means every other sharer has since unshared or
    /// exited; the remaining reference still carries `NEED_COPY` and
    /// will take the cheap last-sharer path at its next unshare.
    pub fn sharers(&self, frame: Pfn) -> Option<u32> {
        self.entries.get(&frame).map(|e| e.sharers)
    }

    /// The full entry for `frame`, if registered.
    pub fn entry(&self, frame: Pfn) -> Option<&SharedPtpEntry> {
        self.entries.get(&frame)
    }

    /// Whether `frame` is shared with at least one *other* process
    /// right now.
    pub fn shared_with_others(&self, frame: Pfn) -> bool {
        self.sharers(frame).is_some_and(|s| s > 1)
    }

    /// Iterates registered entries in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (Pfn, &SharedPtpEntry)> + '_ {
        self.entries.iter().map(|(&f, e)| (f, e))
    }

    /// Number of registered (shared) PTPs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no PTP is currently shared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Pfn {
        Pfn::new(42)
    }

    fn chunk() -> VirtAddr {
        VirtAddr::new(0x4000_0000)
    }

    #[test]
    fn first_share_counts_parent_and_child() {
        let mut r = SharedPtpRegistry::new();
        assert_eq!(r.share(frame(), chunk(), Domain::USER), 2);
        assert_eq!(r.share(frame(), chunk(), Domain::USER), 3);
        assert_eq!(r.sharers(frame()), Some(3));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn detach_removes_the_entry_at_the_last_sharer() {
        let mut r = SharedPtpRegistry::new();
        r.share(frame(), chunk(), Domain::USER);
        assert!(!r.detach(frame()));
        assert_eq!(r.sharers(frame()), Some(1));
        assert!(r.detach(frame()));
        assert!(r.is_empty());
    }

    #[test]
    fn shared_with_others_tracks_the_boundary() {
        let mut r = SharedPtpRegistry::new();
        assert!(!r.shared_with_others(frame()));
        r.share(frame(), chunk(), Domain::USER);
        assert!(r.shared_with_others(frame()));
        r.detach(frame());
        // One reference left: nobody else shares it anymore.
        assert!(!r.shared_with_others(frame()));
        assert_eq!(r.len(), 1);
    }
}
