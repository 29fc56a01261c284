//! Vectored byte sequences for zero-copy wire assembly.
//!
//! A [`Gather`] is a logical byte string stored as an ordered list of
//! [`Bytes`] segments (an iovec). The data path builds packets by *gathering*
//! header slabs and payload region views instead of coalescing them into a
//! fresh allocation: pushing a segment, slicing a sub-range and concatenating
//! two gathers are all O(segments) and copy no payload bytes.
//!
//! Only the points that genuinely need contiguous memory pay for it:
//! [`Gather::to_bytes`] is free when the gather already has a single segment
//! and coalesces otherwise, and [`Gather::peek`] copies a small fixed-size
//! prefix (wire headers) onto the caller's stack.
//!
//! A small message is one to three segments (a transport header, a Portals
//! header, the payload view), so the first three segments live inline in the
//! gather itself: building, slicing, cloning and concatenating small gathers
//! allocates nothing. Only a gather that grows past that spills its segments
//! into a heap `Vec`.

use crate::region::Region;
use bytes::Bytes;
use std::fmt;

/// Segments a [`Gather`] holds without a heap allocation.
const INLINE_SEGMENTS: usize = 3;

/// Segment storage: inline up to `INLINE_SEGMENTS`, a `Vec` beyond.
#[derive(Clone)]
enum Segs {
    /// The first `n` entries are the segments; the rest are empty
    /// placeholders (an empty [`Bytes`] allocates nothing).
    Inline {
        n: usize,
        segs: [Bytes; INLINE_SEGMENTS],
    },
    Heap(Vec<Bytes>),
}

impl Segs {
    fn as_slice(&self) -> &[Bytes] {
        match self {
            Segs::Inline { n, segs } => &segs[..*n],
            Segs::Heap(v) => v,
        }
    }

    fn push(&mut self, b: Bytes) {
        match self {
            Segs::Inline { n, segs } if *n < INLINE_SEGMENTS => {
                segs[*n] = b;
                *n += 1;
            }
            Segs::Inline { segs, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_SEGMENTS);
                v.extend(segs.iter_mut().map(std::mem::take));
                v.push(b);
                *self = Segs::Heap(v);
            }
            Segs::Heap(v) => v.push(b),
        }
    }
}

impl Default for Segs {
    fn default() -> Segs {
        Segs::Inline {
            n: 0,
            segs: Default::default(),
        }
    }
}

/// An ordered sequence of [`Bytes`] segments forming one logical byte string.
#[derive(Clone, Default)]
pub struct Gather {
    segs: Segs,
    len: usize,
}

impl Gather {
    /// An empty gather.
    pub fn new() -> Gather {
        Gather::default()
    }

    /// A gather of one segment.
    pub fn from_bytes(b: Bytes) -> Gather {
        let mut g = Gather::new();
        g.push(b);
        g
    }

    /// Take ownership of `v` as a single segment (no copy).
    pub fn from_vec(v: Vec<u8>) -> Gather {
        Gather::from_bytes(Bytes::from(v))
    }

    /// Copy `data` into a single fresh segment.
    pub fn copy_from_slice(data: &[u8]) -> Gather {
        Gather::from_bytes(Bytes::copy_from_slice(data))
    }

    /// Total logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the gather holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (empty segments are never stored).
    pub fn segment_count(&self) -> usize {
        self.segments().len()
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Bytes] {
        self.segs.as_slice()
    }

    /// Append `b` as a new segment (no copy). Empty segments are dropped.
    pub fn push(&mut self, b: Bytes) {
        if !b.is_empty() {
            self.len += b.len();
            self.segs.push(b);
        }
    }

    /// Append every segment of `other` (no copy).
    pub fn append(&mut self, other: Gather) {
        self.len += other.len;
        match other.segs {
            Segs::Inline { n, segs } => {
                for b in segs.into_iter().take(n) {
                    self.segs.push(b);
                }
            }
            Segs::Heap(v) => {
                for b in v {
                    self.segs.push(b);
                }
            }
        }
    }

    /// Zero-copy sub-gather covering `[start, start + len)`.
    ///
    /// O(segments); each produced segment is a [`Bytes::slice`] of an input
    /// segment. Panics if the range exceeds the gather.
    pub fn slice(&self, start: usize, len: usize) -> Gather {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "slice [{start}, {start}+{len}) exceeds gather of {} bytes",
            self.len
        );
        let mut out = Gather::new();
        let mut skip = start;
        let mut want = len;
        for seg in self.segments() {
            if want == 0 {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let take = (seg.len() - skip).min(want);
            out.push(seg.slice(skip..skip + take));
            skip = 0;
            want -= take;
        }
        debug_assert_eq!(out.len, len);
        out
    }

    /// Copy up to `dst.len()` leading bytes into `dst`; returns the count
    /// copied. Used to parse fixed-size wire headers without coalescing the
    /// payload behind them.
    pub fn peek(&self, dst: &mut [u8]) -> usize {
        let mut filled = 0;
        for seg in self.segments() {
            if filled == dst.len() {
                break;
            }
            let take = seg.len().min(dst.len() - filled);
            dst[filled..filled + take].copy_from_slice(&seg[..take]);
            filled += take;
        }
        filled
    }

    /// Copy the whole gather into `dst` (which must be exactly `len` bytes).
    pub fn copy_to_slice(&self, dst: &mut [u8]) {
        assert_eq!(dst.len(), self.len, "destination length mismatch");
        let mut at = 0;
        for seg in self.segments() {
            dst[at..at + seg.len()].copy_from_slice(seg);
            at += seg.len();
        }
    }

    /// Write the whole gather into `region` starting at `offset`, one locked
    /// [`Region::write`] per segment.
    pub fn copy_to_region(&self, region: &Region, offset: usize) {
        let mut at = offset;
        for seg in self.segments() {
            region.write(at, seg);
            at += seg.len();
        }
    }

    /// A contiguous view of the gather.
    ///
    /// Free when the gather has zero or one segment (the segment is shared,
    /// not copied); coalesces into a fresh allocation otherwise.
    pub fn to_bytes(&self) -> Bytes {
        match self.segments() {
            [] => Bytes::new(),
            [only] => only.clone(),
            _ => Bytes::from(self.to_vec()),
        }
    }

    /// Copy the gather out into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len];
        self.copy_to_slice(&mut v);
        v
    }

    /// Iterate the logical bytes (for tests and diagnostics; O(1) per byte).
    pub fn iter_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.segments().iter().flat_map(|s| s.iter().copied())
    }
}

impl From<Bytes> for Gather {
    fn from(b: Bytes) -> Gather {
        Gather::from_bytes(b)
    }
}

impl From<Vec<u8>> for Gather {
    fn from(v: Vec<u8>) -> Gather {
        Gather::from_vec(v)
    }
}

/// Equality is over logical bytes, not segmentation.
impl PartialEq for Gather {
    fn eq(&self, other: &Gather) -> bool {
        self.len == other.len && self.iter_bytes().eq(other.iter_bytes())
    }
}
impl Eq for Gather {}

impl PartialEq<[u8]> for Gather {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() && self.iter_bytes().eq(other.iter().copied())
    }
}
impl PartialEq<&[u8]> for Gather {
    fn eq(&self, other: &&[u8]) -> bool {
        self == *other
    }
}
impl PartialEq<Vec<u8>> for Gather {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

impl fmt::Debug for Gather {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gather")
            .field("len", &self.len)
            .field("segments", &self.segment_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Gather {
        let mut g = Gather::new();
        g.push(Bytes::from(vec![0u8, 1, 2]));
        g.push(Bytes::from(vec![3u8, 4]));
        g.push(Bytes::from(vec![5u8, 6, 7, 8]));
        g
    }

    #[test]
    fn push_and_len() {
        let g = sample();
        assert_eq!(g.len(), 9);
        assert_eq!(g.segment_count(), 3);
        assert_eq!(g.to_vec(), (0u8..9).collect::<Vec<_>>());
    }

    #[test]
    fn slice_crosses_segments_zero_copy() {
        let g = sample();
        let s = g.slice(2, 5);
        assert_eq!(s.to_vec(), vec![2, 3, 4, 5, 6]);
        // First produced segment aliases the first input segment's tail.
        assert_eq!(s.segments()[0].as_ref().as_ptr(), unsafe {
            g.segments()[0].as_ref().as_ptr().add(2)
        },);
        assert_eq!(g.slice(0, 0).len(), 0);
        assert_eq!(g.slice(9, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds gather")]
    fn slice_out_of_bounds_panics() {
        sample().slice(5, 5);
    }

    #[test]
    fn peek_spans_segments() {
        let g = sample();
        let mut hdr = [0u8; 4];
        assert_eq!(g.peek(&mut hdr), 4);
        assert_eq!(hdr, [0, 1, 2, 3]);
        let mut long = [0xffu8; 16];
        assert_eq!(g.peek(&mut long), 9);
        assert_eq!(&long[..9], &(0u8..9).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn to_bytes_single_segment_is_shared() {
        let g = Gather::from_vec(vec![7u8; 32]);
        let b = g.to_bytes();
        assert_eq!(b.as_ref().as_ptr(), g.segments()[0].as_ref().as_ptr());
        let multi = sample();
        assert_eq!(multi.to_bytes().to_vec(), multi.to_vec());
    }

    #[test]
    fn equality_ignores_segmentation() {
        let a = sample();
        let b = Gather::from_vec((0u8..9).collect());
        assert_eq!(a, b);
        assert_eq!(a, (0u8..9).collect::<Vec<_>>());
        assert_ne!(a, Gather::from_vec(vec![0u8; 9]));
    }

    #[test]
    fn append_concatenates_without_copy() {
        let mut a = Gather::from_vec(vec![1u8, 2]);
        let b = Gather::from_vec(vec![3u8]);
        let ptr = b.segments()[0].as_ref().as_ptr();
        a.append(b);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        assert_eq!(a.segments()[1].as_ref().as_ptr(), ptr);
    }

    #[test]
    fn copy_to_region_writes_each_segment() {
        let g = sample();
        let r = Region::zeroed(12);
        g.copy_to_region(&r, 2);
        assert_eq!(r.read_vec(2, 9), (0u8..9).collect::<Vec<_>>());
    }

    #[test]
    fn small_gathers_stay_inline_and_spill_past_the_limit() {
        let mut g = Gather::new();
        for i in 0..INLINE_SEGMENTS as u8 {
            g.push(Bytes::from(vec![i]));
        }
        assert!(matches!(g.segs, Segs::Inline { .. }));
        g.push(Bytes::from(vec![9u8]));
        assert!(matches!(g.segs, Segs::Heap(_)));
        assert_eq!(g.to_vec(), vec![0, 1, 2, 9]);
        assert_eq!(g.segment_count(), INLINE_SEGMENTS + 1);
    }

    /// The reference model: a plain segment list, sliced by the same rule
    /// `Gather::slice` documents (one sub-view per overlapped segment).
    fn model_slice(model: &[Bytes], start: usize, len: usize) -> Vec<Bytes> {
        let mut out = Vec::new();
        let (mut skip, mut want) = (start, len);
        for seg in model {
            if want == 0 {
                break;
            }
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            let take = (seg.len() - skip).min(want);
            out.push(seg.slice(skip..skip + take));
            skip = 0;
            want -= take;
        }
        out
    }

    fn model_bytes(model: &[Bytes]) -> Vec<u8> {
        model.iter().flat_map(|s| s.iter().copied()).collect()
    }

    fn seg(len: usize, seed: u16) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (i as u16 ^ seed) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]
        #[test]
        fn gather_matches_a_vec_of_bytes_model(
            ops in proptest::collection::vec((0u8..5, any::<u16>(), any::<u16>(), 0usize..24), 1..40)
        ) {
            let mut g = Gather::new();
            let mut model: Vec<Bytes> = Vec::new();
            for (op, a, b, n) in ops {
                match op {
                    // push (empty segments are dropped by both)
                    0 => {
                        let s = seg(n, a);
                        g.push(s.clone());
                        if !s.is_empty() {
                            model.push(s);
                        }
                    }
                    // append a gather of up to five segments
                    1 => {
                        let mut other = Gather::new();
                        for k in 0..(b % 6) {
                            let s = seg((n + k as usize) % 9, a ^ k);
                            other.push(s.clone());
                            if !s.is_empty() {
                                model.push(s);
                            }
                        }
                        g.append(other);
                    }
                    // replace with a sub-range
                    2 => {
                        let total = g.len();
                        let start = if total == 0 { 0 } else { a as usize % (total + 1) };
                        let len = if total == start { 0 } else { b as usize % (total - start + 1) };
                        g = g.slice(start, len);
                        model = model_slice(&model, start, len);
                    }
                    // contiguous view: shared when there is one segment
                    3 => {
                        let bytes = g.to_bytes();
                        prop_assert_eq!(bytes.to_vec(), model_bytes(&model));
                        if model.len() == 1 {
                            prop_assert_eq!(bytes.as_ref().as_ptr(), model[0].as_ref().as_ptr());
                        }
                    }
                    // scatter into a region at an offset
                    _ => {
                        let off = a as usize % 7;
                        let r = Region::zeroed(off + g.len());
                        g.copy_to_region(&r, off);
                        prop_assert_eq!(r.read_vec(off, g.len()), model_bytes(&model));
                    }
                }
                // Segment for segment: same count, same bytes, same memory.
                let segs = g.segments();
                prop_assert_eq!(segs.len(), model.len());
                for (s, m) in segs.iter().zip(&model) {
                    prop_assert_eq!(s, m);
                    prop_assert_eq!(s.as_ref().as_ptr(), m.as_ref().as_ptr());
                }
                prop_assert_eq!(g.len(), model.iter().map(Bytes::len).sum::<usize>());
                let clone = g.clone();
                prop_assert_eq!(clone.segments(), g.segments());
            }
        }
    }
}
