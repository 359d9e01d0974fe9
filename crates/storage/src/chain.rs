//! Per-key version chains.

use contrarian_types::{Value, VersionId};

/// One version of one key.
#[derive(Clone, Debug)]
pub struct Version<M> {
    pub vid: VersionId,
    pub value: Value,
    /// Protocol-specific metadata (dependency vector, old-reader record, …).
    pub meta: M,
    /// Runtime timestamp (virtual/wall ns) at which the *origin* DC
    /// installed this write. Propagated in replication so remote reads
    /// and installs can measure visibility/data staleness against a
    /// clock comparable across backends. Zero when unknown (tests,
    /// prepopulated genesis data).
    pub birth: u64,
}

impl<M> Version<M> {
    pub fn new(vid: VersionId, value: Value, meta: M) -> Self {
        Version {
            vid,
            value,
            meta,
            birth: 0,
        }
    }

    /// Stamps the origin-install time (builder style so existing
    /// `Version::new` call sites stay untouched).
    pub fn with_birth(mut self, birth: u64) -> Self {
        self.birth = birth;
        self
    }
}

/// The versions of a single key, kept sorted ascending by [`VersionId`].
///
/// Inserts are usually appends (new versions have the largest id); remote
/// replication can interleave, so insertion falls back to a binary search.
#[derive(Clone, Debug)]
pub struct Chain<M> {
    versions: Vec<Version<M>>,
}

impl<M> Default for Chain<M> {
    fn default() -> Self {
        Chain {
            versions: Vec::new(),
        }
    }
}

impl<M> Chain<M> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.versions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Inserts a version, keeping the chain sorted. Inserting an id that is
    /// already present replaces it (idempotent replication delivery).
    pub fn insert(&mut self, v: Version<M>) {
        match self.versions.last() {
            Some(last) if last.vid < v.vid => self.versions.push(v),
            _ => match self.versions.binary_search_by(|e| e.vid.cmp(&v.vid)) {
                Ok(i) => self.versions[i] = v,
                Err(i) => self.versions.insert(i, v),
            },
        }
    }

    /// The newest version (the LWW winner).
    pub fn head(&self) -> Option<&Version<M>> {
        self.versions.last()
    }

    /// Newest-first iteration.
    pub fn iter_desc(&self) -> impl Iterator<Item = &Version<M>> {
        self.versions.iter().rev()
    }

    /// The newest version satisfying `pred` (e.g. `DV ≤ SV`). Also returns
    /// how many versions were scanned, so callers can charge CPU for the
    /// walk.
    pub fn newest_visible<F>(&self, mut pred: F) -> (Option<&Version<M>>, usize)
    where
        F: FnMut(&Version<M>) -> bool,
    {
        let mut scanned = 0;
        for v in self.iter_desc() {
            scanned += 1;
            if pred(v) {
                return (Some(v), scanned);
            }
        }
        (None, scanned)
    }

    /// The newest version with `vid.ts` strictly below `ts_bound`
    /// (CC-LO's "most recent version before that time" rule).
    pub fn newest_before(&self, ts_bound: u64) -> (Option<&Version<M>>, usize) {
        self.newest_visible(|v| v.vid.ts < ts_bound)
    }

    /// Drops versions with `vid.ts < horizon_ts` except the newest of them,
    /// always retaining at least the newest `min_keep` versions. Returns
    /// the number dropped.
    ///
    /// The newest version under the horizon stays because every snapshot
    /// at or after the horizon may still need it: the versions above it
    /// can be remote writes that are not yet visible there.
    pub fn gc(&mut self, horizon_ts: u64, min_keep: usize) -> usize {
        let below = self
            .versions
            .iter()
            .take_while(|v| v.vid.ts < horizon_ts)
            .count();
        let cut = below
            .saturating_sub(1)
            .min(self.versions.len().saturating_sub(min_keep));
        self.versions.drain(..cut);
        cut
    }

    /// Panics if the sorted-ascending invariant is violated (test helper).
    pub fn assert_invariants(&self) {
        for w in self.versions.windows(2) {
            assert!(w[0].vid < w[1].vid, "chain must be strictly ascending");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::DcId;

    fn v(ts: u64, dc: u8) -> Version<()> {
        Version::new(VersionId::new(ts, DcId(dc)), Value::from_static(b"x"), ())
    }

    #[test]
    fn insert_appends_in_order() {
        let mut c = Chain::new();
        c.insert(v(1, 0));
        c.insert(v(2, 0));
        c.insert(v(3, 0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.head().unwrap().vid.ts, 3);
        c.assert_invariants();
    }

    #[test]
    fn insert_out_of_order_sorts() {
        let mut c = Chain::new();
        c.insert(v(5, 0));
        c.insert(v(2, 0));
        c.insert(v(9, 0));
        c.insert(v(3, 1));
        assert_eq!(c.head().unwrap().vid.ts, 9);
        let ts: Vec<u64> = c.iter_desc().map(|x| x.vid.ts).collect();
        assert_eq!(ts, vec![9, 5, 3, 2]);
        c.assert_invariants();
    }

    #[test]
    fn insert_same_vid_is_idempotent() {
        let mut c = Chain::new();
        c.insert(v(5, 0));
        c.insert(v(5, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_versions_ordered_by_origin() {
        let mut c = Chain::new();
        c.insert(v(5, 1));
        c.insert(v(5, 0));
        // LWW winner is (5, dc1): higher origin breaks the tie.
        assert_eq!(c.head().unwrap().vid, VersionId::new(5, DcId(1)));
    }

    #[test]
    fn newest_visible_scans_newest_first() {
        let mut c = Chain::new();
        for ts in [1, 2, 3, 4] {
            c.insert(v(ts, 0));
        }
        let (found, scanned) = c.newest_visible(|ver| ver.vid.ts <= 2);
        assert_eq!(found.unwrap().vid.ts, 2);
        assert_eq!(scanned, 3); // looked at 4, 3, then matched 2
    }

    #[test]
    fn newest_before_is_strict() {
        let mut c = Chain::new();
        for ts in [10, 20, 30] {
            c.insert(v(ts, 0));
        }
        assert_eq!(c.newest_before(30).0.unwrap().vid.ts, 20);
        assert_eq!(c.newest_before(31).0.unwrap().vid.ts, 30);
        assert!(c.newest_before(10).0.is_none());
    }

    #[test]
    fn gc_respects_min_keep() {
        let mut c = Chain::new();
        for ts in 1..=10 {
            c.insert(v(ts, 0));
        }
        let dropped = c.gc(100, 3);
        assert_eq!(dropped, 7);
        assert_eq!(c.len(), 3);
        assert_eq!(c.head().unwrap().vid.ts, 10);
    }

    #[test]
    fn gc_respects_horizon() {
        let mut c = Chain::new();
        for ts in 1..=10 {
            c.insert(v(ts, 0));
        }
        let dropped = c.gc(4, 1);
        assert_eq!(dropped, 2, "1 and 2 go; 3 is the newest under the horizon");
        assert_eq!(c.len(), 8);
        assert_eq!(c.iter_desc().last().unwrap().vid.ts, 3);
    }

    /// A horizon past every version keeps the newest one even when the
    /// caller allows dropping everything.
    #[test]
    fn gc_keeps_newest_version_under_the_horizon() {
        let mut c = Chain::new();
        for ts in 1..=3 {
            c.insert(v(ts, 0));
        }
        assert_eq!(c.gc(100, 0), 2);
        assert_eq!(c.head().unwrap().vid.ts, 3);
        // A newer, not-yet-stable version above the horizon must not
        // cost the stable one below it.
        c.insert(v(200, 1));
        assert_eq!(c.gc(100, 1), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn gc_on_short_chain_is_noop() {
        let mut c = Chain::new();
        c.insert(v(1, 0));
        assert_eq!(c.gc(100, 1), 0);
        assert_eq!(c.len(), 1);
    }
}
