//! Circular (shared) scans.
//!
//! Both QPipe and CJOIN coordinate concurrent full scans of the same table
//! with *circular scans* (Harizopoulos et al., SIGMOD'05): a scan that
//! starts while another is in progress begins at the in-progress scan's
//! current position — where the buffer pool is hot — wraps around at the
//! end, and finishes after one full revolution. Late scans therefore ride
//! the earlier scan's I/O instead of issuing their own from page 0.
//!
//! [`CircularCursor`] implements the reader side; the attach position comes
//! from the per-table scan clock maintained in [`crate::Table`].
//!
//! On a latency disk a sequential reader fetches pages ahead of its
//! position ([`ReadAhead`]), one run of up to
//! [`BufferPool::read_ahead_depth`] pages per vectored read, so its waits
//! overlap across the spindles. Pages still come out one at a time and in
//! the same order, and the table clock only moves as pages are consumed.

use crate::bufferpool::BufferPool;
use crate::error::StorageError;
use crate::page::Page;
use crate::table::Table;
use std::collections::VecDeque;
use std::sync::Arc;

/// The pages a sequential reader has fetched ahead of its position. They
/// are held as `Arc<Page>`, so buffer-pool eviction never forces a page
/// that was read ahead to be read again.
#[derive(Default)]
pub struct ReadAhead {
    /// Page number of `ring[0]`.
    front: usize,
    ring: VecDeque<Arc<Page>>,
}

impl ReadAhead {
    /// Page `pos` of `table`, for a reader that will go on to consume up to
    /// `want` consecutive pages from `pos` (itself included). Served from
    /// the pages read ahead when `pos` is the next of them; otherwise reads
    /// a run of up to `want` pages, capped by the pool's read-ahead depth
    /// and the table's end, and keeps the rest. At depth 1 this is exactly
    /// one [`BufferPool::get`]. A failed read consumes nothing.
    pub fn page(
        &mut self,
        pool: &BufferPool,
        table: &Table,
        pos: usize,
        want: usize,
    ) -> Result<Arc<Page>, StorageError> {
        if self.front == pos {
            if let Some(page) = self.ring.pop_front() {
                self.front += 1;
                return Ok(page);
            }
        }
        self.ring.clear();
        let n = pool
            .read_ahead_depth()
            .min(want)
            .min(table.page_count() - pos);
        if n <= 1 {
            return pool.get(table, pos);
        }
        let mut run = pool.get_run(table, pos, n)?.into_iter();
        let page = run.next().expect("a run holds at least one page");
        self.ring.extend(run);
        self.front = pos + 1;
        Ok(page)
    }
}

/// A cursor that reads every page of a table exactly once, starting at the
/// table's current circular-scan position and wrapping.
pub struct CircularCursor {
    table: Arc<Table>,
    pos: usize,
    start: usize,
    remaining: usize,
    ahead: ReadAhead,
}

impl CircularCursor {
    /// Attach a new reader to `table`'s circular scan.
    pub fn new(table: Arc<Table>) -> Self {
        let start = table.attach_scan();
        CircularCursor {
            pos: start,
            start,
            remaining: table.page_count(),
            table,
            ahead: ReadAhead::default(),
        }
    }

    /// Attach starting at an explicit page (used by CJOIN's preprocessor
    /// which manages its own clock).
    pub fn from_position(table: Arc<Table>, start: usize) -> Self {
        let n = table.page_count();
        let start = if n == 0 { 0 } else { start % n };
        CircularCursor {
            pos: start,
            start,
            remaining: n,
            table,
            ahead: ReadAhead::default(),
        }
    }

    /// The page this cursor started from.
    pub fn start_position(&self) -> usize {
        self.start
    }

    /// Pages left to read before the revolution completes.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The table being scanned.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Fetch the next page through the buffer pool (reading ahead on a
    /// latency disk, see [`ReadAhead`]), or `Ok(None)` after one full
    /// revolution. A failed read surfaces as the pool's typed error and
    /// does **not** consume the page: the revolution can be resumed by
    /// calling again (the position only advances on success).
    pub fn next_page(&mut self, pool: &BufferPool) -> Result<Option<Arc<Page>>, StorageError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let page = self
            .ahead
            .page(pool, &self.table, self.pos, self.remaining)?;
        self.table.advance_clock(self.pos);
        self.pos = (self.pos + 1) % self.table.page_count();
        self.remaining -= 1;
        Ok(Some(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::BufferPoolConfig;
    use crate::disk::{DiskConfig, DiskModel};
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn setup(rows: i64) -> (Arc<Table>, Arc<BufferPool>) {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes("t", schema, 32); // 4 rows/page
        for i in 0..rows {
            b.push_values(&[Value::Int(i)]).unwrap();
        }
        let (name, sch, pages) = b.into_parts();
        let table = Arc::new(Table::new(1, name, sch, pages));
        let disk = Arc::new(DiskModel::new(DiskConfig::memory_resident()));
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::unbounded(), disk));
        (table, pool)
    }

    #[test]
    fn full_revolution_sees_every_row_once() {
        let (t, pool) = setup(20); // 5 pages
        let mut c = CircularCursor::new(t);
        let mut seen = Vec::new();
        while let Some(p) = c.next_page(&pool).unwrap() {
            seen.extend(p.iter().map(|r| r.i64_col(0)));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(c.remaining(), 0);
        assert!(c.next_page(&pool).unwrap().is_none());
    }

    #[test]
    fn late_attach_starts_at_clock_and_wraps() {
        let (t, pool) = setup(20); // 5 pages
        let mut first = CircularCursor::new(t.clone());
        // advance the first scan by 3 pages
        for _ in 0..3 {
            first.next_page(&pool).unwrap().unwrap();
        }
        let mut second = CircularCursor::new(t.clone());
        assert_eq!(second.start_position(), 2, "attaches at last-read page");
        // second still sees all rows exactly once
        let mut seen = Vec::new();
        while let Some(p) = second.next_page(&pool).unwrap() {
            seen.extend(p.iter().map(|r| r.i64_col(0)));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shared_scan_amortizes_io() {
        // Disk-backed pool big enough to cache: first scan pays 5 reads,
        // an immediately following scan pays none.
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes("t", schema, 32);
        for i in 0..20 {
            b.push_values(&[Value::Int(i)]).unwrap();
        }
        let (name, sch, pages) = b.into_parts();
        let table = Arc::new(Table::new(1, name, sch, pages));
        let disk = Arc::new(DiskModel::new(DiskConfig {
            spindles: 2,
            latency: std::time::Duration::from_micros(100),
        }));
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::unbounded(), disk));

        let mut a = CircularCursor::new(table.clone());
        while a.next_page(&pool).unwrap().is_some() {}
        assert_eq!(pool.disk().stats().reads, 5);

        let mut b2 = CircularCursor::new(table.clone());
        while b2.next_page(&pool).unwrap().is_some() {}
        assert_eq!(pool.disk().stats().reads, 5, "second scan fully buffered");
    }

    #[test]
    fn cold_scan_reads_each_page_once_at_any_depth() {
        // A lone cold revolution from page 3 of a 10-page table, on a
        // one-spindle disk (depth 1) and a four-spindle disk (depth 4,
        // runs that don't divide the table and wrap at its end). The pool
        // holds only four pages, so a run past the revolution's last page
        // would read page 3 again.
        let (t, _) = setup(40);
        let revolution = |spindles: usize| {
            let disk = Arc::new(DiskModel::new(DiskConfig {
                spindles,
                latency: std::time::Duration::from_micros(200),
            }));
            let pool = BufferPool::new(BufferPoolConfig::with_capacity(4), disk);
            let mut c = CircularCursor::from_position(t.clone(), 3);
            let mut pages = Vec::new();
            while let Some(p) = c.next_page(&pool).unwrap() {
                pages.push(p);
            }
            assert_eq!(pool.read_ahead_depth(), spindles);
            assert_eq!(
                pool.disk().stats().reads,
                10,
                "reads == pages at {spindles} spindles"
            );
            pages
        };
        let serial = revolution(1);
        let ahead = revolution(4);
        assert_eq!(serial.len(), 10);
        for (i, (a, b)) in serial.iter().zip(&ahead).enumerate() {
            assert!(Arc::ptr_eq(a, t.raw_page((3 + i) % 10)));
            assert!(Arc::ptr_eq(a, b), "page {i} differs between depths");
        }
    }

    #[test]
    fn from_position_wraps_modulo() {
        let (t, pool) = setup(8); // 2 pages
        let mut c = CircularCursor::from_position(t, 5); // 5 % 2 = 1
        assert_eq!(c.start_position(), 1);
        let p = c.next_page(&pool).unwrap().unwrap();
        assert_eq!(p.row(0).i64_col(0), 4); // page 1 starts at row 4
    }

    #[test]
    fn empty_table_scan_is_empty() {
        let (t, pool) = setup(0);
        let mut c = CircularCursor::new(t);
        assert!(c.next_page(&pool).unwrap().is_none());
    }
}
