//! Simulated disk subsystem.
//!
//! The paper's testbed has seven 15kRPM SAS drives; the experiments only
//! need two properties from them: page reads have a latency, and only a
//! bounded number can proceed in parallel. [`DiskModel`] provides exactly
//! that — a spindle semaphore plus a per-page latency — so that
//! disk-resident scenarios exhibit the same contention behaviour (shared
//! scans amortize I/O; query-centric scans fight for spindles) without real
//! hardware.
//!
//! # Vectored reads
//!
//! A sequential scan that reads one page at a time keeps one spindle busy
//! however many the array has. [`DiskModel::read_pages_sized`] lets a
//! reader fetch a run of pages at once, under one spindle rule: the read
//! takes at least one spindle (waiting if none is free) plus whatever
//! spindles are free at that moment, up to one per page. That group of
//! pages is served in parallel for the latency of its slowest page; the
//! rest of the run then repeats the rule. A vectored read never holds more
//! spindles than the disk has, so it competes fairly with other readers,
//! and it still counts one read per page.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of the simulated disk.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Number of page reads that can be serviced concurrently
    /// (the paper's seven SAS drives).
    pub spindles: usize,
    /// Simulated service time per page read.
    pub latency: Duration,
}

impl DiskConfig {
    /// An "in-memory" disk: infinite spindles, zero latency. Reads return
    /// immediately; the buffer pool still counts hits/misses.
    pub fn memory_resident() -> Self {
        DiskConfig {
            spindles: usize::MAX,
            latency: Duration::ZERO,
        }
    }

    /// Default disk-resident model: 7 spindles, 100µs per 64KiB page,
    /// i.e. ~640MB/s aggregate sequential bandwidth — scaled-down but
    /// proportionate to the paper's array.
    pub fn disk_resident() -> Self {
        DiskConfig {
            spindles: 7,
            latency: Duration::from_micros(100),
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::memory_resident()
    }
}

/// Counters exposed by the disk model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Total simulated page reads serviced.
    pub reads: u64,
    /// Total nanoseconds callers spent blocked in a read (queueing +
    /// service). A vectored read counts its caller's blocked time once,
    /// not once per page, so this sum is caller wait, not spindle time.
    pub busy_nanos: u64,
}

/// Spindle occupancy, guarded by the disk's mutex.
#[derive(Default)]
struct Spindles {
    /// Page reads in service right now.
    busy: usize,
    /// Highest `busy` ever seen.
    peak: usize,
}

/// The simulated disk: a counting semaphore of spindles and a service
/// latency per read.
pub struct DiskModel {
    config: DiskConfig,
    spindles: Mutex<Spindles>,
    available: Condvar,
    reads: AtomicU64,
    busy_nanos: AtomicU64,
}

impl DiskModel {
    /// Create a disk from its configuration.
    pub fn new(config: DiskConfig) -> Self {
        DiskModel {
            config,
            spindles: Mutex::new(Spindles::default()),
            available: Condvar::new(),
            reads: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// The configuration this disk was built with.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Perform one simulated page read: waits for a free spindle, then
    /// blocks for the configured latency. Zero-latency disks return
    /// immediately without touching the semaphore.
    pub fn read_page(&self) {
        self.read_page_sized(crate::page::DEFAULT_PAGE_BYTES);
    }

    /// One simulated read of a page holding `bytes` encoded bytes: the
    /// service time scales with the on-disk size (clamped to 0.25–4× the
    /// nominal per-page latency), so compressed columnar pages buy real
    /// I/O time while tiny-page tests don't round to zero. Counts one
    /// read, same as [`Self::read_page`].
    pub fn read_page_sized(&self, bytes: usize) {
        self.read_pages_sized(&[bytes]);
    }

    /// One vectored read of several pages, `bytes[i]` encoded bytes each,
    /// served under the spindle rule in the [module docs](self): groups of
    /// pages share the free spindles and each group takes as long as its
    /// slowest page (size-scaled as in [`Self::read_page_sized`]). Counts
    /// one read per page.
    pub fn read_pages_sized(&self, bytes: &[usize]) {
        self.reads.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if self.config.latency.is_zero() {
            return;
        }
        let start = Instant::now();
        let mut rest = bytes;
        while !rest.is_empty() {
            let group = {
                let mut s = self.spindles.lock();
                while s.busy >= self.config.spindles {
                    self.available.wait(&mut s);
                }
                let group = (self.config.spindles - s.busy).min(rest.len());
                s.busy += group;
                s.peak = s.peak.max(s.busy);
                group
            };
            let (served, tail) = rest.split_at(group);
            rest = tail;
            // The group takes as long as its largest page.
            let largest = served.iter().copied().max().unwrap_or_default();
            let scale = (largest as f64 / crate::page::DEFAULT_PAGE_BYTES as f64).clamp(0.25, 4.0);
            let latency = self.config.latency.mul_f64(scale);
            // Service time. `sleep` granularity on Linux is tens of µs
            // which is fine for the 100µs default; shorter latencies spin.
            if latency >= Duration::from_micros(60) {
                std::thread::sleep(latency);
            } else {
                let until = Instant::now() + latency;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            self.spindles.lock().busy -= group;
            if group == 1 {
                self.available.notify_one();
            } else {
                self.available.notify_all();
            }
        }
        self.busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters (between experiment points).
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.busy_nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn memory_resident_reads_are_instant_but_counted() {
        let d = DiskModel::new(DiskConfig::memory_resident());
        let t = Instant::now();
        for _ in 0..1000 {
            d.read_page();
        }
        assert!(t.elapsed() < Duration::from_millis(50));
        assert_eq!(d.stats().reads, 1000);
        assert_eq!(d.stats().busy_nanos, 0);
    }

    #[test]
    fn latency_is_paid_per_read() {
        let d = DiskModel::new(DiskConfig {
            spindles: 1,
            latency: Duration::from_millis(2),
        });
        let t = Instant::now();
        for _ in 0..5 {
            d.read_page();
        }
        assert!(t.elapsed() >= Duration::from_millis(10));
        assert_eq!(d.stats().reads, 5);
        assert!(d.stats().busy_nanos >= 10_000_000);
    }

    #[test]
    fn spindles_bound_parallelism() {
        // 2 spindles, 4 threads x 3 reads of 5ms each = 60ms of service;
        // with 2-way parallelism the wall clock must be >= ~30ms.
        let d = Arc::new(DiskModel::new(DiskConfig {
            spindles: 2,
            latency: Duration::from_millis(5),
        }));
        let t = Instant::now();
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        d.read_page();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let el = t.elapsed();
        assert!(el >= Duration::from_millis(28), "got {el:?}");
        assert_eq!(d.stats().reads, 12);
    }

    #[test]
    fn sized_reads_scale_latency_but_count_once() {
        let d = DiskModel::new(DiskConfig {
            spindles: 1,
            latency: Duration::from_millis(4),
        });
        let t = Instant::now();
        // Half-size pages pay half the nominal latency...
        for _ in 0..4 {
            d.read_page_sized(crate::page::DEFAULT_PAGE_BYTES / 2);
        }
        assert!(t.elapsed() >= Duration::from_millis(8));
        // ...and the scale clamps below at 0.25x, so a tiny page still
        // pays 1ms here.
        let t = Instant::now();
        d.read_page_sized(16);
        assert!(t.elapsed() >= Duration::from_millis(1));
        assert_eq!(d.stats().reads, 5);
    }

    #[test]
    fn vectored_reads_stay_within_the_spindles() {
        let d = Arc::new(DiskModel::new(DiskConfig {
            spindles: 3,
            latency: Duration::from_millis(2),
        }));
        let page = crate::page::DEFAULT_PAGE_BYTES;
        // Alone, a run of 7 pages takes every spindle at once: groups of
        // 3, 3 and 1, so at least three service times.
        let t = Instant::now();
        d.read_pages_sized(&[page; 7]);
        assert!(t.elapsed() >= Duration::from_millis(6));
        assert_eq!(d.stats().reads, 7);
        assert_eq!(d.spindles.lock().peak, 3);
        // Vectored and single reads from four threads at once never have
        // more than three reads in flight.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let hs: Vec<_> = (0..4)
            .map(|i| {
                let (d, barrier) = (d.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..3 {
                        if i % 2 == 0 {
                            d.read_pages_sized(&[page; 5]);
                        } else {
                            d.read_page();
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(d.stats().reads, 7 + 2 * 3 * 5 + 2 * 3);
        let s = d.spindles.lock();
        assert_eq!((s.busy, s.peak), (0, 3));
    }

    #[test]
    fn reset_clears_counters() {
        let d = DiskModel::new(DiskConfig::memory_resident());
        d.read_page();
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }
}
