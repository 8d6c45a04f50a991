//! Snapshot-isolated storage: one writer, many wait-free readers.
//!
//! A [`Store`] wraps a [`Collection`] for concurrent serving. Readers
//! call [`Store::snapshot`] and get an immutable [`Snapshot`] — an
//! `Arc`-shared view of the collection (segment trees with their symbol
//! tables, index postings) that stays valid for as long as they hold it,
//! no matter what the writer does meanwhile. The segmented column makes
//! this cheap: a collection clone copies one pointer per segment (each
//! segment carries its tree and its postings) and makes one allocation,
//! never a copy of a symbol table, a posting or document data.
//!
//! ## Write protocol
//!
//! A single writer lock serializes mutation. [`Store::insert_str`]
//! clones the current snapshot's collection (cheap), appends the new
//! document as an insert-segment built on the last segment's symbol table
//! (shared when the document brings no new string; when it does, the new
//! segment's table shares the old one's runs and adds the new strings in
//! O(log n) amortised pointer copies each, leaving the old table
//! untouched) together with its postings for every declared index, built
//! from that document alone, appends the document text to the **commit
//! log**, and publishes the new snapshot atomically. The replaced
//! snapshot is dropped after both locks are released. Readers holding
//! the old snapshot are untouched; the next [`Store::snapshot`] call sees
//! the new epoch.
//!
//! The **epoch** of a snapshot is the number of committed inserts it
//! contains: snapshot at epoch `e` ≡ the seed collection plus the first
//! `e` log entries, replayed in order. That equation is the
//! linearizability oracle the `s11` harness gate replays.
//!
//! ## Background compaction
//!
//! [`Store::compact`] merges the column's tail **off** the writer lock
//! (readers and the writer keep going) with
//! [`Collection::compact_tail`]: the insert segments since the last
//! compaction become one multi-document segment, which then merges with
//! the multi-document segments before it while the older holds fewer
//! than twice the newer's documents, so a compaction rewrites the tail
//! and what the tiering rule merges, not the whole column. The store then
//! briefly takes the lock to catch up: segments committed while the merge
//! ran are adopted by reference, postings included
//! ([`Collection::adopt_segment`] — no re-parse, no copy, no posting
//! rebuilt), and the compacted snapshot is published with the same epoch
//! and a bumped **layout** generation. A tier merge that reaches the seed
//! still rewrites all of it, which is why the merge stays off the lock.
//! Two racing compactions are resolved by the layout check: the loser
//! discards its stale merge and reports `false`.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use jguard::QueryError;
use jsondata::ParseLimits;
use mongofind::Collection;

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Publication is a single pointer swap and the log append happens
    // before it; a poisoned writer lock leaves both structurally sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An immutable, epoch-stamped view of the collection. Cheap to clone
/// (`Arc`); valid for as long as any holder keeps it alive.
pub struct Snapshot {
    epoch: u64,
    layout: u64,
    coll: Collection,
}

impl Snapshot {
    /// Committed inserts this snapshot contains: the seed collection
    /// plus the first `epoch()` commit-log entries, exactly.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compaction generation — bumped by every published [`Store::compact`];
    /// orthogonal to `epoch` (compaction changes layout, never content).
    pub fn layout(&self) -> u64 {
        self.layout
    }

    /// The collection view. Immutable: queries only.
    pub fn collection(&self) -> &Collection {
        &self.coll
    }
}

/// Serialized writer state: the commit log (one entry per insert, in
/// commit order). Guarded by the writer mutex that also serializes
/// publication.
struct Writer {
    log: Vec<Arc<str>>,
}

/// The snapshot-isolated store: one writer, many concurrent readers.
pub struct Store {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
}

impl Store {
    /// Wraps a seed collection as epoch 0, layout 0, with an empty
    /// commit log.
    pub fn new(coll: Collection) -> Store {
        Store {
            current: RwLock::new(Arc::new(Snapshot {
                epoch: 0,
                layout: 0,
                coll,
            })),
            writer: Mutex::new(Writer { log: Vec::new() }),
        }
    }

    /// The current snapshot — a read lock held only for one `Arc` bump.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Swaps `snap` in under the write lock and returns the replaced
    /// snapshot, so that the caller drops it after the lock is released:
    /// when no reader holds it, that drop releases one reference per
    /// segment, and a concurrent [`Store::snapshot`] must not wait it out.
    #[must_use = "drop the replaced snapshot outside the lock"]
    fn publish(&self, snap: Snapshot) -> Arc<Snapshot> {
        let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *current, Arc::new(snap))
    }

    /// Appends one document, limit-checked, and publishes the new
    /// snapshot. Returns the new epoch. On rejection
    /// ([`QueryError::ParseLimit`]) nothing is published: the snapshot,
    /// the indexes, and the commit log are exactly as before — readers
    /// cannot observe a failed insert.
    pub fn insert_str(&self, src: &str, limits: ParseLimits) -> Result<u64, QueryError> {
        let mut writer = lock(&self.writer);
        let base = self.snapshot();
        let mut coll = base.coll.clone();
        coll.insert_str_with_limits(src, limits)?;
        writer.log.push(src.into());
        let epoch = base.epoch + 1;
        let replaced = self.publish(Snapshot {
            epoch,
            layout: base.layout,
            coll,
        });
        drop(writer);
        drop((base, replaced));
        Ok(epoch)
    }

    /// Compacts the column's tail in the background of ongoing traffic
    /// ([`Collection::compact_tail`]): the merge runs off the writer lock
    /// against the snapshot current at call time; under the lock,
    /// segments committed meanwhile are adopted by reference and the
    /// result is published at the *current* epoch with a bumped layout.
    /// Returns `false` (publishing nothing) when a concurrent compaction
    /// published first.
    pub fn compact(&self) -> bool {
        let (base, merged) = self.merge();
        self.install(&base, merged)
    }

    /// The merge half of [`Store::compact`], off the writer lock: the
    /// current snapshot and its collection with the tail compacted.
    fn merge(&self) -> (Arc<Snapshot>, Collection) {
        let base = self.snapshot();
        let mut coll = base.coll.clone();
        coll.compact_tail();
        (base, coll)
    }

    /// The install half of [`Store::compact`]: `coll` is `base`'s
    /// collection, compacted. Adopts the segments committed since `base`
    /// and publishes, unless another compaction published first.
    fn install(&self, base: &Snapshot, mut coll: Collection) -> bool {
        // The catch-up runs under the writer lock: no insert can commit
        // while segments are adopted, and the lock is held only for the
        // (bounded) suffix of segments that raced the merge — never for
        // the merge itself.
        let writer = lock(&self.writer);
        let cur = self.snapshot();
        if cur.layout != base.layout {
            return false;
        }
        for seg in &cur.coll.segments()[base.coll.segments().len()..] {
            coll.adopt_segment(seg);
        }
        let replaced = self.publish(Snapshot {
            epoch: cur.epoch,
            layout: cur.layout + 1,
            coll,
        });
        drop(writer);
        drop((cur, replaced));
        true
    }

    /// Committed inserts so far (the commit-log length).
    pub fn log_len(&self) -> usize {
        lock(&self.writer).log.len()
    }

    /// The first `len` commit-log entries — the serial-replay recipe
    /// for a snapshot at epoch `len` (clamped to the log's length).
    pub fn log_prefix(&self, len: usize) -> Vec<Arc<str>> {
        let w = lock(&self.writer);
        w.log[..len.min(w.log.len())].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::parse;
    use mongofind::Filter;

    fn seed() -> Collection {
        Collection::from_array(&parse(r#"[{"id": 1, "age": 30}, {"id": 2, "age": 40}]"#).unwrap())
            .unwrap()
    }

    #[test]
    fn snapshot_is_isolated_from_later_inserts() {
        let store = Store::new(seed());
        let before = store.snapshot();
        assert_eq!(before.epoch(), 0);
        store
            .insert_str(r#"{"id": 3, "age": 50}"#, ParseLimits::default())
            .unwrap();
        // The old snapshot still sees two documents; a fresh one sees three.
        assert_eq!(before.collection().len(), 2);
        let after = store.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.collection().len(), 3);
    }

    #[test]
    fn snapshots_bind_queries_to_their_own_table() {
        // Queries bind their strings to the snapshot's last table: an
        // older snapshot, whose table lacks a string a later insert
        // brought, must answer nothing for it (scan, index route and
        // `$match` alike), and a newer one must find the document.
        for indexed in [false, true] {
            let mut coll = Collection::from_array(
                &parse(r#"[{"id": 1, "email": "a@x"}, {"id": 2, "email": "b@x"}]"#).unwrap(),
            )
            .unwrap();
            if indexed {
                coll.create_index("email");
            }
            let store = Store::new(coll);
            let before = store.snapshot();
            store
                .insert_str(r#"{"id": 3, "email": "new@x"}"#, ParseLimits::default())
                .unwrap();
            let after = store.snapshot();
            assert!(before.collection().interner().lookup("new@x").is_none());
            assert!(after.collection().interner().lookup("new@x").is_some());

            let find = Filter::parse_str(r#"{"email": "new@x"}"#).unwrap();
            let pipelines = [
                r#"[{"$match": {"email": "new@x"}}]"#,
                r#"[{"$unwind": "$id"}, {"$match": {"email": {"$in": ["new@x"]}}}]"#,
            ]
            .map(|src| jagg::Pipeline::parse_str(src).unwrap());
            let doc = parse(r#"{"id": 3, "email": "new@x"}"#).unwrap();
            for (snap, want) in [(&before, vec![]), (&after, vec![doc])] {
                let c = snap.collection();
                assert_eq!(
                    c.find(&find),
                    want,
                    "indexed {indexed}, epoch {}",
                    snap.epoch()
                );
                for p in &pipelines {
                    assert_eq!(jagg::aggregate(c, p), want, "indexed {indexed}, {p:?}");
                }
            }
        }
    }

    #[test]
    fn rejected_insert_changes_nothing() {
        let store = Store::new(seed());
        let before = store.snapshot();
        let err = store
            .insert_str("[[[[[[", ParseLimits::default())
            .unwrap_err();
        assert!(matches!(err, QueryError::ParseLimit(_)));
        let after = store.snapshot();
        assert!(Arc::ptr_eq(&before, &after), "no publication on rejection");
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn compact_preserves_epoch_and_results() {
        let mut coll = seed();
        coll.create_index("age");
        let store = Store::new(coll);
        for i in 0..8 {
            store
                .insert_str(
                    &format!(r#"{{"id": {}, "age": {}}}"#, 10 + i, 20 + i),
                    ParseLimits::default(),
                )
                .unwrap();
        }
        let fragmented = store.snapshot();
        let f = Filter::parse_str(r#"{"age": {"$gte": 25}}"#).unwrap();
        let expect = fragmented.collection().find(&f);
        assert!(store.compact());
        let compacted = store.snapshot();
        assert_eq!(compacted.epoch(), fragmented.epoch());
        assert_eq!(compacted.layout(), fragmented.layout() + 1);
        assert_eq!(compacted.collection().segments().len(), 1);
        assert_eq!(compacted.collection().find(&f), expect);
        // The fragmented snapshot is still fully queryable.
        assert_eq!(fragmented.collection().find(&f), expect);
    }

    #[test]
    fn compact_adopts_segments_committed_during_merge() {
        // The race window of a background compaction, forced
        // deterministically: k inserts commit between the merge half and
        // the install half, so the install must adopt all k.
        let mut coll = seed();
        coll.create_index("age");
        let store = Store::new(coll);
        for i in 0..3 {
            store
                .insert_str(
                    &format!(r#"{{"id": {}, "age": {}}}"#, 10 + i, 60 + i),
                    ParseLimits::default(),
                )
                .unwrap();
        }
        let (base, merged) = store.merge();
        let k = 4;
        for i in 0..k {
            store
                .insert_str(
                    &format!(
                        r#"{{"id": {}, "age": {}, "tag": "raced-{i}"}}"#,
                        20 + i,
                        70 + i
                    ),
                    ParseLimits::default(),
                )
                .unwrap();
        }
        let raced = store.snapshot();
        assert!(store.install(&base, merged));
        let snap = store.snapshot();
        let c = snap.collection();
        assert_eq!(c.segments().len(), 1 + k, "merged segment + k adopted");
        assert_eq!(snap.epoch(), raced.epoch(), "compaction keeps the epoch");
        assert_eq!(snap.layout(), raced.layout() + 1);

        // Results equal a serial replay of the committed log prefix.
        let mut replay = seed();
        for entry in store.log_prefix(snap.epoch() as usize) {
            replay.insert_str(&entry).unwrap();
        }
        assert_eq!(c.docs(), replay.docs());
        for q in [
            r#"{"age": {"$gte": 62}}"#,
            r#"{"tag": "raced-2"}"#,
            r#"{"id": 1}"#,
        ] {
            let f = Filter::parse_str(q).unwrap();
            assert_eq!(c.find(&f), replay.find(&f), "{q}");
        }

        // The adopted documents' new strings resolve through the
        // collection's table, to the symbols their segments carry.
        for (i, seg) in c.segments()[1..].iter().enumerate() {
            let tag = format!("raced-{i}");
            let sym = c.interner().lookup(&tag).expect("adopted string");
            assert_eq!(seg.sym(&tag), Some(sym));
            assert_eq!(c.interner().resolve(sym), tag);
        }
    }

    #[test]
    fn log_prefix_replays_to_the_snapshot() {
        let store = Store::new(seed());
        for i in 0..5 {
            store
                .insert_str(
                    &format!(r#"{{"id": {}, "age": {}}}"#, 100 + i, 20 + i),
                    ParseLimits::default(),
                )
                .unwrap();
        }
        let snap = store.snapshot();
        let mut replay = seed();
        for entry in store.log_prefix(snap.epoch() as usize) {
            replay.insert_str(&entry).unwrap();
        }
        assert_eq!(replay.len(), snap.collection().len());
        let f = Filter::parse_str(r#"{"id": {"$gte": 0}}"#).unwrap();
        assert_eq!(replay.find(&f), snap.collection().find(&f));
    }
}
