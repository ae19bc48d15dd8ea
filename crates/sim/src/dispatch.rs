//! Indexed event dispatch.
//!
//! A container component (the FaaS cloud over its endpoints, a MEP over its
//! forked UEP pairs) implements [`crate::Advance`] by aggregating the next
//! event over its children. Done naïvely that is an O(children) deep rescan
//! on **every** simulation step — and the federation's hot loop pays it
//! twice, once in `next_event` and again inside `advance_to`.
//!
//! [`NextEventCache`] replaces the rescan with a per-child cached next-event
//! time plus a dirty bit. The owner marks a child dirty whenever it touches
//! it (advances it, enqueues into it, hands out `&mut`); a refresh pass
//! recomputes only the dirty children. Between touches, `min()`/`due()` are
//! shallow scans over a flat `Vec<Option<SimTime>>` — no child is asked
//! anything, no heap walked, no lock taken.
//!
//! Children whose next event can shift *without the owner touching them* —
//! e.g. pilot-job endpoints sharing one batch scheduler, where another
//! tenant's job end re-times everyone — cannot be cached soundly by dirty
//! bits alone. Mark those slots **volatile**: they are re-probed on every
//! refresh and excluded from [`NextEventCache::min_stable`], so owners with
//! only `&self` can combine the stable minimum with fresh probes of the
//! (few) volatile slots.
//!
//! Besides its next event, a slot may carry a **consult deadline**: the
//! earliest instant at which the child's own `advance_to` would act on
//! something that is no event of its own — consume a pending injected fault
//! (see [`crate::faults`]), or pick up a change a sibling made behind its
//! back (a pilot job another tenant's crash let start). A deadline makes
//! the slot due at the first step at or after it ([`NextEventCache::due`])
//! but never creates a step: [`NextEventCache::min`] ignores deadlines. So
//! a fault fires at the first step at or after its scheduled time whether
//! or not the faulted child had an event of its own there. Deadlines are
//! re-probed exactly like next events: on dirty bits, and on every refresh
//! for volatile slots.
//!
//! The cache is purely an index: it never reorders events and never makes a
//! child observable earlier or later than the rescan would. Replays from a
//! seed stay bit-identical (the golden-trace suite pins this).

use crate::time::SimTime;

/// Dispatch-cache effectiveness counters, kept as plain fields so counting
/// costs a few integer adds inside work [`NextEventCache::refresh`] is
/// already doing. Harvested (not sampled) by the observability layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// `refresh` calls that had work to do (some slot dirty or volatile).
    pub refreshes: u64,
    /// `refresh` calls that returned immediately: nothing dirty, nothing
    /// volatile — the cache absorbed the whole rescan.
    pub hot_hits: u64,
    /// Children actually re-probed across all refreshes.
    pub probes: u64,
    /// The subset of probes forced by volatile slots rather than dirty bits.
    pub volatile_probes: u64,
}

impl CacheStats {
    /// Merge another cache's counters (containers nesting caches).
    pub fn absorb(&mut self, other: CacheStats) {
        self.refreshes += other.refreshes;
        self.hot_hits += other.hot_hits;
        self.probes += other.probes;
        self.volatile_probes += other.volatile_probes;
    }
}

/// Per-child cached next-event times with dirty-bit invalidation.
#[derive(Debug, Default, Clone)]
pub struct NextEventCache {
    times: Vec<Option<SimTime>>,
    deadlines: Vec<Option<SimTime>>,
    dirty: Vec<bool>,
    volatile: Vec<bool>,
    volatile_slots: Vec<usize>,
    dirty_count: usize,
    min: Option<SimTime>,
    min_stable: Option<SimTime>,
    stats: CacheStats,
}

impl NextEventCache {
    pub fn new() -> Self {
        NextEventCache::default()
    }

    /// Add a slot for a new child; it starts dirty. Returns the slot index.
    pub fn register(&mut self) -> usize {
        self.times.push(None);
        self.deadlines.push(None);
        self.dirty.push(true);
        self.volatile.push(false);
        self.dirty_count += 1;
        self.times.len() - 1
    }

    /// Flag a slot whose child's next event can change behind the owner's
    /// back (shared mutable state with siblings). Volatile slots are
    /// re-probed on every [`Self::refresh`].
    pub fn set_volatile(&mut self, slot: usize, volatile: bool) {
        if self.volatile[slot] == volatile {
            return;
        }
        self.volatile[slot] = volatile;
        if volatile {
            // Insert at the sorted position: the list stays ascending
            // without re-sorting the whole vector on registration churn.
            let pos = self
                .volatile_slots
                .binary_search(&slot)
                .expect_err("slot was not volatile");
            self.volatile_slots.insert(pos, slot);
        } else {
            if let Ok(pos) = self.volatile_slots.binary_search(&slot) {
                self.volatile_slots.remove(pos);
            }
            self.mark_dirty(slot);
        }
    }

    /// Slots flagged volatile, ascending. Owners with only `&self` probe
    /// these fresh and combine with [`Self::min_stable`].
    pub fn volatile_slots(&self) -> &[usize] {
        &self.volatile_slots
    }

    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Invalidate one child's cached time (owner touched it).
    pub fn mark_dirty(&mut self, slot: usize) {
        if !self.dirty[slot] {
            self.dirty[slot] = true;
            self.dirty_count += 1;
        }
    }

    /// Invalidate every slot (bulk state change of unknown extent).
    pub fn mark_all_dirty(&mut self) {
        for d in &mut self.dirty {
            *d = true;
        }
        self.dirty_count = self.times.len();
    }

    pub fn any_dirty(&self) -> bool {
        self.dirty_count > 0
    }

    /// Recompute every dirty or volatile slot by asking `probe(slot)` for
    /// the child's current next-event time; clean stable slots are not
    /// consulted. No slot gets a consult deadline.
    pub fn refresh(&mut self, probe: impl FnMut(usize) -> Option<SimTime>) {
        self.refresh_with(probe, |_| None);
    }

    /// [`Self::refresh`], also asking `deadline(slot)` for the consult
    /// deadline of every re-probed slot (see the module docs).
    pub fn refresh_with(
        &mut self,
        mut probe: impl FnMut(usize) -> Option<SimTime>,
        mut deadline: impl FnMut(usize) -> Option<SimTime>,
    ) {
        if self.dirty_count == 0 && self.volatile_slots.is_empty() {
            self.stats.hot_hits += 1;
            return;
        }
        self.stats.refreshes += 1;
        for (slot, dirty) in self.dirty.iter_mut().enumerate() {
            if *dirty || self.volatile[slot] {
                self.stats.probes += 1;
                self.stats.volatile_probes += (!*dirty) as u64;
                self.times[slot] = probe(slot);
                self.deadlines[slot] = deadline(slot);
                *dirty = false;
            }
        }
        self.dirty_count = 0;
        // Fold the minima once here so min()/min_stable() are O(1) in the
        // hot loop instead of rescanning the slot vector per call.
        let mut min = None;
        let mut min_stable = None;
        for (slot, t) in self.times.iter().enumerate() {
            let Some(t) = *t else { continue };
            if min.is_none_or(|m| t < m) {
                min = Some(t);
            }
            if !self.volatile[slot] && min_stable.is_none_or(|m| t < m) {
                min_stable = Some(t);
            }
        }
        self.min = min;
        self.min_stable = min_stable;
    }

    /// Cached time for one slot (meaningful only when refreshed).
    pub fn get(&self, slot: usize) -> Option<SimTime> {
        debug_assert!(!self.dirty[slot], "reading a dirty slot");
        self.times[slot]
    }

    /// Cached consult deadline for one slot (meaningful only when
    /// refreshed).
    pub fn deadline(&self, slot: usize) -> Option<SimTime> {
        debug_assert!(!self.dirty[slot], "reading a dirty slot");
        self.deadlines[slot]
    }

    /// Earliest cached next event across all children. Callers must refresh
    /// first (which also re-probes volatile slots); a debug assert enforces
    /// it. Consult deadlines are not events and do not count.
    pub fn min(&self) -> Option<SimTime> {
        debug_assert!(self.dirty_count == 0, "min() over dirty cache");
        self.min
    }

    /// Earliest cached next event across **stable** (non-volatile) children
    /// only. Safe for `&self` owners between refreshes: stable slots cannot
    /// have moved since the last refresh, while volatile slots must be
    /// probed fresh (see [`Self::volatile_slots`]).
    pub fn min_stable(&self) -> Option<SimTime> {
        debug_assert!(self.dirty_count == 0, "min_stable() over dirty cache");
        self.min_stable
    }

    /// Effectiveness counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Extend a pass that advances the slots of `pass` in `key` order. Call
    /// it after advancing `pass[at]` when that child's consult deadline was
    /// due: a fault may have fired in it and changed shared state behind
    /// its siblings' backs (a crash freeing a batch-scheduler node starts
    /// another tenant's queued pilot). Every volatile slot ordered after it
    /// that `is_due` now finds due joins the pass at its ordered position:
    /// advancing every child at every step would have reached it later in
    /// the same pass. Slots ordered before it see the change at the next
    /// step, through their own consult deadline.
    pub fn join_pass<K: Ord>(
        &self,
        pass: &mut Vec<usize>,
        at: usize,
        key: impl Fn(usize) -> K,
        mut is_due: impl FnMut(usize) -> bool,
    ) {
        let after = key(pass[at]);
        for &slot in &self.volatile_slots {
            let k = key(slot);
            if k <= after || pass[at + 1..].contains(&slot) || !is_due(slot) {
                continue;
            }
            let pos = at + 1 + pass[at + 1..].partition_point(|&s| key(s) < k);
            pass.insert(pos, slot);
        }
    }

    /// Slots whose cached next event or consult deadline is at or before
    /// `t`, ascending.
    pub fn due(&self, t: SimTime) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(self.dirty_count == 0, "due() over dirty cache");
        self.times
            .iter()
            .zip(&self.deadlines)
            .enumerate()
            .filter(move |(_, (next, deadline))| {
                next.is_some_and(|at| at <= t) || deadline.is_some_and(|at| at <= t)
            })
            .map(|(slot, _)| slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_refreshes_dirty_slots_only() {
        let mut cache = NextEventCache::new();
        let a = cache.register();
        let b = cache.register();
        assert!(cache.any_dirty());
        let mut probes = Vec::new();
        cache.refresh(|slot| {
            probes.push(slot);
            Some(SimTime::from_secs(slot as u64 + 1))
        });
        assert_eq!(probes, vec![a, b]);
        assert_eq!(cache.min(), Some(SimTime::from_secs(1)));

        // Only the dirty slot is re-probed.
        cache.mark_dirty(b);
        probes.clear();
        cache.refresh(|slot| {
            probes.push(slot);
            Some(SimTime::from_secs(10))
        });
        assert_eq!(probes, vec![b]);
        assert_eq!(cache.get(a), Some(SimTime::from_secs(1)));
        assert_eq!(cache.get(b), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn min_and_due_skip_quiescent_children() {
        let mut cache = NextEventCache::new();
        for _ in 0..4 {
            cache.register();
        }
        cache.refresh(|slot| match slot {
            0 => None,
            1 => Some(SimTime::from_secs(5)),
            2 => Some(SimTime::from_secs(2)),
            _ => Some(SimTime::from_secs(9)),
        });
        assert_eq!(cache.min(), Some(SimTime::from_secs(2)));
        let due: Vec<usize> = cache.due(SimTime::from_secs(5)).collect();
        assert_eq!(due, vec![1, 2]);
        assert_eq!(cache.due(SimTime::from_secs(1)).count(), 0);
    }

    #[test]
    fn all_quiescent_is_none() {
        let mut cache = NextEventCache::new();
        cache.register();
        cache.register();
        cache.refresh(|_| None);
        assert_eq!(cache.min(), None);
        assert_eq!(cache.due(SimTime::FAR_FUTURE).count(), 0);
    }

    #[test]
    fn mark_all_dirty_invalidates_every_slot() {
        let mut cache = NextEventCache::new();
        cache.register();
        cache.register();
        cache.refresh(|_| Some(SimTime::ZERO));
        cache.mark_all_dirty();
        let mut probed = 0;
        cache.refresh(|_| {
            probed += 1;
            None
        });
        assert_eq!(probed, 2);
        assert_eq!(cache.min(), None);
    }

    #[test]
    fn volatile_slots_reprobe_every_refresh() {
        let mut cache = NextEventCache::new();
        let stable = cache.register();
        let shared = cache.register();
        cache.set_volatile(shared, true);
        assert_eq!(cache.volatile_slots(), &[shared]);

        let mut t = 5u64;
        cache.refresh(|slot| match slot {
            s if s == stable => Some(SimTime::from_secs(3)),
            _ => Some(SimTime::from_secs(t)),
        });
        assert_eq!(cache.min(), Some(SimTime::from_secs(3)));
        assert_eq!(cache.min_stable(), Some(SimTime::from_secs(3)));

        // The shared child's time moved without any mark_dirty; a refresh
        // still picks it up, and min_stable never trusted the stale value.
        t = 1;
        let mut probed = Vec::new();
        cache.refresh(|slot| {
            probed.push(slot);
            Some(SimTime::from_secs(t))
        });
        assert_eq!(probed, vec![shared], "only the volatile slot re-probed");
        assert_eq!(cache.min(), Some(SimTime::from_secs(1)));
        assert_eq!(cache.min_stable(), Some(SimTime::from_secs(3)));

        // Clearing volatility folds the slot back into dirty tracking.
        cache.set_volatile(shared, false);
        assert!(cache.any_dirty());
        cache.refresh(|_| Some(SimTime::from_secs(8)));
        assert_eq!(cache.min_stable(), Some(SimTime::from_secs(3)));
        assert_eq!(cache.min(), Some(SimTime::from_secs(3)));
        assert!(cache.volatile_slots().is_empty());
    }

    #[test]
    fn stats_count_refreshes_probes_and_hot_hits() {
        let mut cache = NextEventCache::new();
        let a = cache.register();
        let b = cache.register();
        cache.refresh(|_| Some(SimTime::from_secs(1))); // 2 dirty probes
        cache.refresh(|_| None); // nothing to do: hot hit
        cache.set_volatile(b, true);
        cache.refresh(|_| Some(SimTime::from_secs(2))); // b re-probed (volatile only)
        cache.mark_dirty(a);
        cache.refresh(|_| Some(SimTime::from_secs(3))); // a dirty + b volatile
        let stats = cache.stats();
        assert_eq!(stats.hot_hits, 1);
        assert_eq!(stats.refreshes, 3);
        assert_eq!(stats.probes, 5);
        assert_eq!(stats.volatile_probes, 2);
        let mut total = CacheStats::default();
        total.absorb(stats);
        total.absorb(stats);
        assert_eq!(total.probes, 10);
    }

    #[test]
    fn deadlines_make_slots_due_without_moving_min() {
        let mut cache = NextEventCache::new();
        let quiet = cache.register();
        let busy = cache.register();
        cache.refresh_with(
            |slot| (slot == busy).then(|| SimTime::from_secs(6)),
            |slot| (slot == quiet).then(|| SimTime::from_secs(4)),
        );
        assert_eq!(cache.min(), Some(SimTime::from_secs(6)), "a deadline is no event");
        assert_eq!(cache.due(SimTime::from_secs(3)).count(), 0);
        let due: Vec<usize> = cache.due(SimTime::from_secs(6)).collect();
        assert_eq!(due, vec![quiet, busy], "the first step at or after the deadline");

        assert_eq!(cache.deadline(quiet), Some(SimTime::from_secs(4)));

        // A re-probe that reports no deadline clears it.
        cache.mark_dirty(quiet);
        cache.refresh(|_| None);
        assert_eq!(cache.due(SimTime::from_secs(9)).collect::<Vec<_>>(), vec![busy]);
    }

    #[test]
    fn join_pass_admits_later_due_volatile_slots_in_order() {
        let mut cache = NextEventCache::new();
        for slot in 0..5 {
            cache.register();
            cache.set_volatile(slot, slot != 3);
        }
        cache.refresh(|_| None);
        // Pass over [1, 4] in descending-slot order, just advanced slot 4.
        let mut pass = vec![4, 1];
        cache.join_pass(&mut pass, 0, std::cmp::Reverse, |_| true);
        // 3 is stable and 4 ordered itself; 2 and 0 join in key order, 1
        // was already there.
        assert_eq!(pass, vec![4, 2, 1, 0]);
        let mut pass = vec![4, 1];
        cache.join_pass(&mut pass, 0, std::cmp::Reverse, |s| s == 0);
        assert_eq!(pass, vec![4, 1, 0]);
    }

    #[test]
    fn double_mark_dirty_is_idempotent() {
        let mut cache = NextEventCache::new();
        let a = cache.register();
        cache.refresh(|_| None);
        cache.mark_dirty(a);
        cache.mark_dirty(a);
        assert!(cache.any_dirty());
        cache.refresh(|_| Some(SimTime::ZERO));
        assert_eq!(cache.min(), Some(SimTime::ZERO));
    }
}
