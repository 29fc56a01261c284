//! Refcounted byte regions with range-scoped interior mutability.
//!
//! [`Region`] is the buffer model for the whole data path: a fixed-size,
//! refcounted byte slab that supports
//!
//! * **zero-copy subslicing** — [`Region::slice`] returns a [`Bytes`] window
//!   over the region's own allocation (no copy, the view holds a strong
//!   reference so the memory outlives it), and
//! * **range-scoped writes** — [`Region::write`] and [`Region::rmw`] lock only
//!   the *stripes* overlapping the written range, so concurrent deliveries to
//!   disjoint offsets of one memory descriptor proceed in parallel instead of
//!   contending on a single buffer-wide mutex.
//!
//! # Aliasing model (DESIGN.md §6c)
//!
//! Writers are mutually excluded per overlapping stripe; they acquire stripe
//! locks in ascending index order, so any set of concurrent writers is
//! deadlock-free. Readers ([`Region::slice`], [`Region::read_into`],
//! [`Region::read_vec`]) take **no** locks: like real RDMA hardware, a read
//! racing a write to the same range may observe torn bytes. Higher layers make
//! such races benign the same way Portals applications do — a buffer is only
//! read after the completion event (EQ entry or counter) for the writes
//! targeting it has been delivered, and the engine raises that event only
//! after [`Region::write`] returns.

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;

/// Bytes covered by one write-exclusion stripe.
///
/// Chosen so small control buffers get a single lock while large payload
/// buffers spread concurrent writers across many.
const STRIPE_SIZE: usize = 4096;

struct RegionInner {
    /// The allocation. Held only to own the memory; all access goes through
    /// the cached `ptr`/`len` so no reference to the cell's contents is ever
    /// formed after construction.
    _buf: UnsafeCell<Box<[u8]>>,
    ptr: *mut u8,
    len: usize,
    /// One lock per `STRIPE_SIZE` bytes (at least one). Writers lock every
    /// stripe overlapping their range, in ascending order.
    stripes: Box<[Mutex<()>]>,
}

// SAFETY: all mutation goes through `write`/`rmw`, which hold the locks of
// every stripe overlapping the mutated range; disjoint writers touch disjoint
// bytes. Unlocked readers racing a writer observe torn bytes (see the module
// docs) but never access memory out of bounds.
unsafe impl Send for RegionInner {}
unsafe impl Sync for RegionInner {}

/// A refcounted, fixed-size byte slab with striped write locking.
///
/// Cloning a `Region` is O(1) and yields another handle to the same memory.
/// See the module docs for the aliasing rules.
#[derive(Clone)]
pub struct Region {
    inner: Arc<RegionInner>,
}

impl Region {
    /// A zero-filled region of `len` bytes.
    pub fn zeroed(len: usize) -> Region {
        Region::from_boxed(vec![0u8; len].into_boxed_slice())
    }

    /// Take ownership of `v` without copying it.
    pub fn from_vec(v: Vec<u8>) -> Region {
        Region::from_boxed(v.into_boxed_slice())
    }

    /// Copy `data` into a new region.
    pub fn copy_from_slice(data: &[u8]) -> Region {
        Region::from_boxed(data.to_vec().into_boxed_slice())
    }

    fn from_boxed(mut buf: Box<[u8]>) -> Region {
        let ptr = buf.as_mut_ptr();
        let len = buf.len();
        let n_stripes = len.div_ceil(STRIPE_SIZE).max(1);
        let stripes = (0..n_stripes).map(|_| Mutex::new(())).collect();
        Region {
            inner: Arc::new(RegionInner {
                _buf: UnsafeCell::new(buf),
                ptr,
                len,
                stripes,
            }),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn base_ptr(&self) -> *mut u8 {
        self.inner.ptr
    }

    /// Run `f` holding the lock of every stripe overlapping
    /// `[offset, offset + len)`, acquired in ascending order. The common
    /// case — a range inside one stripe — takes that one lock directly;
    /// only a range spanning stripes collects its guards.
    fn locked<R>(&self, offset: usize, len: usize, f: impl FnOnce() -> R) -> R {
        if len == 0 {
            return f();
        }
        let first = offset / STRIPE_SIZE;
        let last = (offset + len - 1) / STRIPE_SIZE;
        if first == last {
            let _guard = self.inner.stripes[first].lock();
            return f();
        }
        let _guards: Vec<MutexGuard<'_, ()>> = (first..=last)
            .map(|i| self.inner.stripes[i].lock())
            .collect();
        f()
    }

    /// Zero-copy [`Bytes`] view of `[offset, offset + len)`.
    ///
    /// The view keeps the region alive. Reads through it are unlocked; see
    /// the module docs for when that is safe.
    pub fn slice(&self, offset: usize, len: usize) -> Bytes {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice [{offset}, {offset}+{len}) exceeds region of {} bytes",
            self.len()
        );
        // The view shares the region's own refcount: no allocation, and
        // `handle_count` sees it like any other handle.
        let owner: Arc<dyn std::any::Any + Send + Sync> = self.inner.clone();
        // SAFETY: the pointer stays valid while `owner` (the allocation
        // itself) is alive, and bounds were checked above.
        unsafe { Bytes::from_raw_owner(self.base_ptr().add(offset), len, owner) }
    }

    /// Write `src` at `offset`, holding the overlapping stripe locks.
    ///
    /// Panics if the range exceeds the region.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset
                .checked_add(src.len())
                .is_some_and(|end| end <= self.len()),
            "write [{offset}, {offset}+{}) exceeds region of {} bytes",
            src.len(),
            self.len()
        );
        // SAFETY: bounds checked; stripe locks exclude every other writer to
        // this range.
        self.locked(offset, src.len(), || unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base_ptr().add(offset), src.len());
        })
    }

    /// Read-modify-write `[offset, offset + len)` under the stripe locks.
    ///
    /// Needed when the new contents depend on the old (e.g. combining
    /// deliveries): the locks are held across both the read and the write so
    /// no other writer can interleave.
    pub fn rmw(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8])) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len()),
            "rmw [{offset}, {offset}+{len}) exceeds region of {} bytes",
            self.len()
        );
        self.locked(offset, len, || {
            // SAFETY: bounds checked; stripe locks grant exclusive write
            // access.
            let window =
                unsafe { std::slice::from_raw_parts_mut(self.base_ptr().add(offset), len) };
            f(window)
        })
    }

    /// Copy `[offset, offset + dst.len())` into `dst` (unlocked read).
    pub fn read_into(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            offset
                .checked_add(dst.len())
                .is_some_and(|end| end <= self.len()),
            "read [{offset}, {offset}+{}) exceeds region of {} bytes",
            dst.len(),
            self.len()
        );
        // SAFETY: bounds checked; see the module docs for the torn-read model.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base_ptr().add(offset), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Copy `[offset, offset + len)` out into a fresh `Vec` (unlocked read).
    pub fn read_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(offset, &mut v);
        v
    }

    /// A region of `new_len` bytes holding this region's first
    /// `min(len, new_len)` bytes (the rest zero-filled).
    ///
    /// Used where the old `Vec` model called `resize`: existing views keep
    /// seeing the old allocation, new binds see the new one.
    pub fn resized(&self, new_len: usize) -> Region {
        let out = Region::zeroed(new_len);
        let keep = self.len().min(new_len);
        out.rmw(0, keep, |w| self.read_into(0, w));
        out
    }

    /// True if `other` is a handle to the same allocation.
    pub fn same_allocation(&self, other: &Region) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of live handles to this allocation (region clones plus
    /// zero-copy views). `1` means this handle is the sole owner — the test
    /// [`RegionPool`](crate::pool::RegionPool) uses to decide a slab is safe
    /// to hand out again.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

/// `Debug` prints length and refcount, never contents: regions may be mutated
/// concurrently, and payloads can be huge.
impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.len())
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_and_sees_writes() {
        let r = Region::from_vec(vec![0u8; 16]);
        let view = r.slice(4, 8);
        assert_eq!(&view[..], &[0u8; 8][..]);
        r.write(4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // The view aliases the region's memory, so the write is visible.
        assert_eq!(&view[..], &[1, 2, 3, 4, 5, 6, 7, 8][..]);
        assert_eq!(view.as_ref().as_ptr(), r.slice(4, 1).as_ref().as_ptr());
    }

    #[test]
    fn view_keeps_region_alive() {
        let view = {
            let r = Region::from_vec(vec![9u8; 32]);
            r.slice(0, 32)
        };
        assert!(view.iter().all(|&b| b == 9));
    }

    #[test]
    fn rmw_is_read_modify_write() {
        let r = Region::from_vec(vec![1u8, 2, 3, 4]);
        r.rmw(1, 2, |w| {
            w[0] += 10;
            w[1] += 10;
        });
        assert_eq!(r.read_vec(0, 4), vec![1, 12, 13, 4]);
    }

    #[test]
    fn resized_preserves_prefix() {
        let r = Region::from_vec(vec![5u8; 10]);
        let grown = r.resized(20);
        assert_eq!(grown.len(), 20);
        assert_eq!(
            grown.read_vec(0, 20),
            [vec![5u8; 10], vec![0u8; 10]].concat()
        );
        let shrunk = r.resized(3);
        assert_eq!(shrunk.read_vec(0, 3), vec![5u8; 3]);
    }

    #[test]
    fn disjoint_stripe_writes_run_concurrently() {
        // Two threads write disjoint stripes of one region many times; the
        // final contents must be exactly what each wrote (no lost updates).
        let r = Region::zeroed(2 * STRIPE_SIZE);
        let r2 = r.clone();
        let t = std::thread::spawn(move || {
            for i in 0..1000u32 {
                r2.write(0, &i.to_le_bytes());
            }
        });
        for i in 0..1000u32 {
            r.write(STRIPE_SIZE, &i.to_le_bytes());
        }
        t.join().unwrap();
        assert_eq!(r.read_vec(0, 4), 999u32.to_le_bytes().to_vec());
        assert_eq!(r.read_vec(STRIPE_SIZE, 4), 999u32.to_le_bytes().to_vec());
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_bounds_write_panics() {
        Region::zeroed(4).write(2, &[0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_bounds_slice_panics() {
        let _ = Region::zeroed(4).slice(4, 1);
    }

    #[test]
    fn zero_len_ops_on_empty_region() {
        let r = Region::zeroed(0);
        assert!(r.is_empty());
        r.write(0, &[]);
        assert_eq!(r.slice(0, 0).len(), 0);
        assert!(r.read_vec(0, 0).is_empty());
    }

    #[test]
    fn writes_on_and_across_stripe_boundaries() {
        let r = Region::zeroed(3 * STRIPE_SIZE);
        let fill = |len: usize, seed: u8| -> Vec<u8> {
            (0..len).map(|i| (i as u8).wrapping_mul(7) ^ seed).collect()
        };
        // (offset, len): ends exactly on a boundary, starts exactly on one,
        // one whole stripe, straddles one boundary, straddles two.
        let cases = [
            (STRIPE_SIZE - 8, 8),
            (STRIPE_SIZE, 8),
            (STRIPE_SIZE, STRIPE_SIZE),
            (STRIPE_SIZE - 3, 6),
            (STRIPE_SIZE - 1, STRIPE_SIZE + 2),
            (0, 3 * STRIPE_SIZE),
        ];
        for (k, &(off, len)) in cases.iter().enumerate() {
            let before = r.read_vec(0, r.len());
            let src = fill(len, k as u8 + 1);
            r.write(off, &src);
            let mut want = before;
            want[off..off + len].copy_from_slice(&src);
            assert_eq!(r.read_vec(0, r.len()), want, "write at {off}+{len}");
        }
        // rmw across a boundary sees and replaces exactly its window.
        r.rmw(STRIPE_SIZE - 2, 4, |w| w.copy_from_slice(&[1, 2, 3, 4]));
        assert_eq!(r.read_vec(STRIPE_SIZE - 3, 6)[1..5], [1, 2, 3, 4]);
    }
}
