//! Buffer pool with clock (second-chance) eviction and single-flight page
//! loads.
//!
//! Pages are immutable and shared via `Arc`, so eviction never invalidates
//! a reader that already holds a page — it only drops the pool's cached
//! reference, forcing the next access to pay the simulated disk cost. This
//! is precisely the distinction the demo's "memory-resident vs
//! disk-resident" and "buffer-pool size" knobs control.
//!
//! Concurrent misses on the same page are collapsed ("single flight"): one
//! thread performs the simulated read while the rest wait, mirroring how a
//! real buffer pool latches an in-flight frame. Without this, N concurrent
//! scans of the same table would charge N disk reads per page and shared
//! scans would lose their I/O benefit.
//!
//! Sequential readers on a latency disk fetch runs of pages with
//! [`BufferPool::get_run`]: the run's missing pages are loaded with one
//! vectored disk read, so a lone scan keeps
//! [`BufferPool::read_ahead_depth`] spindles busy instead of one. Runs keep
//! single flight: a page is loaded by exactly one caller, whichever of
//! `get` or `get_run` marked it first.

use crate::disk::DiskModel;
use crate::error::StorageError;
use crate::fault;
use crate::page::{Page, PageId};
use crate::table::Table;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer pool configuration.
#[derive(Debug, Clone)]
pub struct BufferPoolConfig {
    /// Number of page frames. `0` disables caching entirely (every access
    /// is a miss — useful for stress tests).
    pub capacity_pages: usize,
}

impl BufferPoolConfig {
    /// A pool big enough to hold everything (memory-resident database).
    pub fn unbounded() -> Self {
        BufferPoolConfig {
            capacity_pages: usize::MAX / 2,
        }
    }

    /// A pool of exactly `capacity_pages` frames.
    pub fn with_capacity(capacity_pages: usize) -> Self {
        BufferPoolConfig { capacity_pages }
    }
}

/// Counters exposed by the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that had to read from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    key: PageId,
    page: Arc<Page>,
    ref_bit: bool,
}

enum Entry {
    /// A thread is currently reading this page from disk.
    Loading,
    /// Resident in `frames[idx]`.
    Resident(usize),
}

struct Inner {
    frames: Vec<Frame>,
    map: HashMap<PageId, Entry>,
    hand: usize,
}

/// The buffer pool. Cheap to share (`Arc<BufferPool>`); all methods take
/// `&self`.
pub struct BufferPool {
    disk: Arc<DiskModel>,
    capacity: usize,
    inner: Mutex<Inner>,
    loaded: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferPool {
    /// Create a pool over the given simulated disk.
    pub fn new(config: BufferPoolConfig, disk: Arc<DiskModel>) -> Self {
        BufferPool {
            disk,
            capacity: config.capacity_pages,
            inner: Mutex::new(Inner {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
            }),
            loaded: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The disk this pool reads from.
    pub fn disk(&self) -> &Arc<DiskModel> {
        &self.disk
    }

    /// Fetch page `page_no` of `table`, reading through the simulated disk
    /// on a miss. Concurrent misses for the same page are collapsed into a
    /// single simulated read. A read failure (only the `disk.read`
    /// failpoint in this in-process model) surfaces as
    /// [`StorageError::Io`] to the caller that drew it; hits never fail.
    pub fn get(&self, table: &Table, page_no: usize) -> Result<Arc<Page>, StorageError> {
        let pid = table.page_id(page_no);

        if self.capacity == 0 {
            // Cache disabled: always charge the disk, sized to the page's
            // encoded bytes (compressed columnar pages read faster).
            self.misses.fetch_add(1, Ordering::Relaxed);
            fault::maybe_io("disk.read", "uncached page read")?;
            let page = table.raw_page(page_no).clone();
            self.disk.read_page_sized(page.byte_len());
            return Ok(page);
        }

        loop {
            {
                let mut inner = self.inner.lock();
                match inner.map.get(&pid) {
                    Some(Entry::Resident(idx)) => {
                        let idx = *idx;
                        inner.frames[idx].ref_bit = true;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(inner.frames[idx].page.clone());
                    }
                    Some(Entry::Loading) => {
                        // Another thread is reading it; wait for the frame.
                        self.loaded.wait(&mut inner);
                        continue;
                    }
                    None => {
                        inner.map.insert(pid, Entry::Loading);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        // fall through to perform the read outside the lock
                    }
                }
            }

            // Simulated I/O happens outside the pool lock so reads on
            // different spindles overlap; the charge scales with the
            // page's encoded size (columnar compression buys I/O time).
            let read = fault::maybe_io("disk.read", "page read").map(|()| {
                let page = table.raw_page(page_no).clone();
                self.disk.read_page_sized(page.byte_len());
                page
            });

            let mut inner = self.inner.lock();
            match read {
                Ok(page) => {
                    let idx = self.place(&mut inner, pid, page.clone());
                    debug_assert!(idx < inner.frames.len());
                    self.loaded.notify_all();
                    return Ok(page);
                }
                Err(e) => {
                    // We own the `Loading` entry; it must not outlive the
                    // failed read or every waiter blocks forever. Clearing
                    // it makes the next caller retry the load fresh.
                    inner.map.remove(&pid);
                    self.loaded.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// How many pages a sequential reader should fetch per
    /// [`BufferPool::get_run`]: one per spindle, clamped to the pool's
    /// capacity. `1` — read page by page with [`BufferPool::get`] — when
    /// reads cost nothing (a zero-latency, memory-resident disk) or when
    /// caching is disabled.
    pub fn read_ahead_depth(&self) -> usize {
        let disk = self.disk.config();
        if self.capacity == 0 || disk.latency.is_zero() {
            1
        } else {
            disk.spindles.clamp(1, self.capacity)
        }
    }

    /// Fetch a run of consecutive pages of `table` from `start`: at least
    /// one page and at most `n` (and never past the table's end). A
    /// resident page is a hit. A page another caller is loading ends the
    /// run there, except at `start`, which is waited for as in
    /// [`BufferPool::get`]. Every missing page is marked loading and all of
    /// them are read with one vectored disk read.
    ///
    /// The `disk.read` failpoint is evaluated once per missing page. On a
    /// failure every page this call marked loading is released for the
    /// next caller to retry, and no page is returned. With caching
    /// disabled (or `n <= 1`) this is one [`BufferPool::get`].
    pub fn get_run(
        &self,
        table: &Table,
        start: usize,
        n: usize,
    ) -> Result<Vec<Arc<Page>>, StorageError> {
        let end = start.saturating_add(n).min(table.page_count());
        if self.capacity == 0 || end <= start + 1 {
            return Ok(vec![self.get(table, start)?]);
        }
        // The run, in page order: a hit's page, or `None` for a page this
        // call marked `Loading` and must read.
        let mut run: Vec<Option<Arc<Page>>> = Vec::with_capacity(end - start);
        let mut missing: Vec<usize> = Vec::new();
        {
            let mut inner = self.inner.lock();
            let mut page_no = start;
            while page_no < end {
                let pid = table.page_id(page_no);
                match inner.map.get(&pid) {
                    Some(Entry::Resident(idx)) => {
                        let idx = *idx;
                        inner.frames[idx].ref_bit = true;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        run.push(Some(inner.frames[idx].page.clone()));
                    }
                    Some(Entry::Loading) if run.is_empty() => {
                        // The run's first page is in flight elsewhere:
                        // wait for it as `get` would. Nothing is marked
                        // yet, so waiting holds up no other reader.
                        self.loaded.wait(&mut inner);
                        continue;
                    }
                    Some(Entry::Loading) => break,
                    None => {
                        inner.map.insert(pid, Entry::Loading);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        missing.push(page_no);
                        run.push(None);
                    }
                }
                page_no += 1;
            }
        }
        if missing.is_empty() {
            return Ok(run.into_iter().flatten().collect());
        }

        // As in `get`, the I/O happens outside the pool lock.
        let read = missing
            .iter()
            .try_for_each(|_| fault::maybe_io("disk.read", "page read"))
            .map(|()| {
                let bytes: Vec<usize> = missing
                    .iter()
                    .map(|&p| table.raw_page(p).byte_len())
                    .collect();
                self.disk.read_pages_sized(&bytes);
            });

        let mut inner = self.inner.lock();
        if let Err(e) = read {
            // Every `Loading` entry of this run is ours and must not
            // outlive the failed read, or waiters block forever.
            for &p in &missing {
                inner.map.remove(&table.page_id(p));
            }
            self.loaded.notify_all();
            return Err(e);
        }
        for &p in &missing {
            let page = table.raw_page(p).clone();
            self.place(&mut inner, table.page_id(p), page.clone());
            run[p - start] = Some(page);
        }
        self.loaded.notify_all();
        Ok(run
            .into_iter()
            .map(|p| p.expect("every page of the run was a hit or has just been read"))
            .collect())
    }

    /// Install `page` into a frame, evicting if at capacity. Returns the
    /// frame index. Caller holds the lock.
    fn place(&self, inner: &mut Inner, pid: PageId, page: Arc<Page>) -> usize {
        if inner.frames.len() < self.capacity {
            let idx = inner.frames.len();
            inner.frames.push(Frame {
                key: pid,
                page,
                ref_bit: true,
            });
            inner.map.insert(pid, Entry::Resident(idx));
            return idx;
        }
        // Clock sweep: clear reference bits until a victim is found. With
        // immutable Arc pages every resident frame is evictable, so the
        // sweep terminates within two passes.
        let n = inner.frames.len();
        debug_assert!(n > 0, "capacity >= 1 checked by caller");
        let idx = loop {
            let hand = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            if inner.frames[hand].ref_bit {
                inner.frames[hand].ref_bit = false;
            } else {
                break hand;
            }
        };
        let old = inner.frames[idx].key;
        inner.map.remove(&old);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        inner.frames[idx] = Frame {
            key: pid,
            page,
            ref_bit: true,
        };
        inner.map.insert(pid, Entry::Resident(idx));
        idx
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters (between experiment points). Resident pages are
    /// kept; call [`BufferPool::clear`] to drop them too.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drop every resident page (cold-start a scenario).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.map.clear();
        inner.hand = 0;
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use crate::schema::Schema;
    use crate::table::{Table, TableBuilder};
    use crate::value::{DataType, Value};

    fn table(rows: i64, page_bytes: usize) -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes("t", schema, page_bytes);
        for i in 0..rows {
            b.push_values(&[Value::Int(i)]).unwrap();
        }
        let (name, sch, pages) = b.into_parts();
        Table::new(1, name, sch, pages)
    }

    fn mem_disk() -> Arc<DiskModel> {
        Arc::new(DiskModel::new(DiskConfig::memory_resident()))
    }

    #[test]
    fn hit_after_miss() {
        let t = table(8, 32); // 2 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), mem_disk());
        let p0 = pool.get(&t, 0).unwrap();
        assert_eq!(p0.rows(), 4);
        let p0b = pool.get(&t, 0).unwrap();
        assert!(Arc::ptr_eq(&p0, &p0b));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(pool.disk().stats().reads, 1);
    }

    #[test]
    fn eviction_at_capacity_clock_order() {
        let t = table(16, 32); // 4 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(2), mem_disk());
        pool.get(&t, 0).unwrap();
        pool.get(&t, 1).unwrap();
        assert_eq!(pool.resident_pages(), 2);
        pool.get(&t, 2).unwrap(); // evicts one of {0,1}
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(pool.resident_pages(), 2);
        // the page read again is a miss for whichever got evicted
        pool.get(&t, 0).unwrap();
        pool.get(&t, 1).unwrap();
        assert!(pool.stats().misses >= 4);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let t = table(4, 32);
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(0), mem_disk());
        pool.get(&t, 0).unwrap();
        pool.get(&t, 0).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(pool.disk().stats().reads, 2);
    }

    #[test]
    fn hit_ratio_math() {
        let s = BufferPoolStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(BufferPoolStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn concurrent_same_page_single_flight() {
        use std::sync::Arc as A;
        let t = A::new(table(4, 32));
        let disk = Arc::new(DiskModel::new(DiskConfig {
            spindles: 1,
            latency: std::time::Duration::from_millis(5),
        }));
        let pool = A::new(BufferPool::new(BufferPoolConfig::with_capacity(4), disk));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let t = t.clone();
                let pool = pool.clone();
                std::thread::spawn(move || pool.get(&t, 0).unwrap().rows())
            })
            .collect();
        for h in hs {
            assert_eq!(h.join().unwrap(), 4);
        }
        // Exactly one simulated read despite 8 concurrent requests.
        assert_eq!(pool.disk().stats().reads, 1);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 7);
    }

    #[test]
    fn injected_read_fault_is_typed_and_recoverable() {
        let _g = fault::test_guard();
        let t = table(8, 32); // 2 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), mem_disk());
        fault::arm(1, &[("disk.read", fault::FaultSpec::prob(1.0))]);
        let err = pool.get(&t, 0).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
        fault::disarm();
        // The failed load must not leave a stuck `Loading` entry: the
        // same page is readable again once the fault clears.
        assert_eq!(pool.get(&t, 0).unwrap().rows(), 4);
    }

    fn latency_disk(spindles: usize) -> Arc<DiskModel> {
        Arc::new(DiskModel::new(DiskConfig {
            spindles,
            latency: std::time::Duration::from_micros(200),
        }))
    }

    fn loading_entries(pool: &BufferPool) -> usize {
        let inner = pool.inner.lock();
        inner
            .map
            .values()
            .filter(|e| matches!(e, Entry::Loading))
            .count()
    }

    #[test]
    fn read_ahead_depth_follows_the_disk() {
        let depth = |disk, capacity| {
            BufferPool::new(BufferPoolConfig::with_capacity(capacity), disk).read_ahead_depth()
        };
        assert_eq!(depth(latency_disk(7), 100), 7);
        assert_eq!(depth(latency_disk(7), 3), 3, "clamped to the pool");
        assert_eq!(depth(latency_disk(7), 0), 1, "caching disabled");
        assert_eq!(depth(mem_disk(), 100), 1, "zero-latency disk");
    }

    #[test]
    fn concurrent_get_and_get_run_share_every_load() {
        // 12 pages requested by overlapping runs and single gets, all
        // released at once: every page is still read exactly once.
        let t = Arc::new(table(48, 32)); // 12 pages
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(16),
            latency_disk(4),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let hs: Vec<_> = (0..8usize)
            .map(|i| {
                let (t, pool, barrier) = (t.clone(), pool.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    if i % 2 == 0 {
                        // Runs from 0, 2, 4, 6: each covers up to 6 pages
                        // and overlaps its neighbours.
                        let mut p = i;
                        while p < t.page_count() {
                            let run = pool.get_run(&t, p, 6).unwrap();
                            for (k, page) in run.iter().enumerate() {
                                assert!(Arc::ptr_eq(page, t.raw_page(p + k)));
                            }
                            p += run.len();
                        }
                    } else {
                        for p in (0..t.page_count()).rev() {
                            assert!(Arc::ptr_eq(&pool.get(&t, p).unwrap(), t.raw_page(p)));
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(
            pool.disk().stats().reads,
            12,
            "single flight across get and get_run"
        );
        assert_eq!(pool.stats().misses, 12);
        assert_eq!(loading_entries(&pool), 0);
    }

    #[test]
    fn failed_run_releases_its_loads_and_the_cursor_resumes() {
        let _g = fault::test_guard();
        let t = Arc::new(table(40, 32)); // 10 pages
        let pool = BufferPool::new(BufferPoolConfig::with_capacity(16), latency_disk(4));
        let mut cursor = crate::scan::CircularCursor::from_position(t.clone(), 0);
        let mut seen = Vec::new();
        for _ in 0..4 {
            // One run of four pages.
            seen.push(cursor.next_page(&pool).unwrap().unwrap());
        }
        assert_eq!(pool.disk().stats().reads, 4);
        // The next run (pages 4..8) passes the failpoint for its first
        // missing page and fails on the second.
        fault::arm(
            1,
            &[(
                "disk.read",
                fault::FaultSpec {
                    prob: 1.0,
                    after: 1,
                },
            )],
        );
        let err = cursor.next_page(&pool).unwrap_err();
        fault::disarm();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
        assert_eq!(loading_entries(&pool), 0, "no stuck Loading entry");
        assert_eq!(pool.disk().stats().reads, 4, "a failed run reads nothing");
        assert_eq!(cursor.remaining(), 6, "nothing consumed");
        // The revolution resumes at page 4 and completes in order.
        while let Some(page) = cursor.next_page(&pool).unwrap() {
            seen.push(page);
        }
        assert_eq!(seen.len(), 10);
        for (p, page) in seen.iter().enumerate() {
            assert!(Arc::ptr_eq(page, t.raw_page(p)), "page {p} out of order");
        }
        assert_eq!(pool.disk().stats().reads, 10);
    }

    #[test]
    fn clear_drops_residency() {
        let t = table(8, 32);
        let pool = BufferPool::new(BufferPoolConfig::unbounded(), mem_disk());
        pool.get(&t, 0).unwrap();
        assert_eq!(pool.resident_pages(), 1);
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        pool.get(&t, 0).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }
}
