//! Seeded workload inputs.
//!
//! Every payload the benchmark sends is derived from the workload seed, so
//! the same seed sends the same bytes, and every receive is checked against
//! the bytes that were sent.

use portals_types::Region;

/// Distinct payloads per message class: consecutive operations never carry
/// the same bytes, so a transfer that silently did not land shows up as the
/// previous operation's bytes.
pub const VARIANTS: usize = 4;

/// SplitMix64: a small, well-mixed generator with a 64-bit state.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// `len` seeded bytes.
fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    SplitMix::new(seed, stream).fill(&mut v);
    v
}

/// All payloads one run sends, generated before any set-up is timed.
pub struct Inputs {
    /// 8-byte ping-pong payloads.
    pub ping: Vec<Vec<u8>>,
    /// 64-byte stream payloads, one per slot of a stream window.
    pub stream: Vec<Vec<u8>>,
    /// Transfer-sized payloads (put, get, sendrecv, rput), as regions so
    /// descriptors and zero-copy sends can be built over them directly.
    pub bulk: Vec<Region>,
    /// The same bytes as `bulk`, for calls that take a slice.
    pub bulk_bytes: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(seed: u64, transfer: usize, stream_window: usize) -> Inputs {
        let ping = (0..64).map(|k| bytes(seed, 0x100 + k, 8)).collect();
        let stream = (0..stream_window as u64 * VARIANTS as u64)
            .map(|k| bytes(seed, 0x1000 + k, 64))
            .collect();
        let bulk_bytes: Vec<Vec<u8>> = (0..VARIANTS as u64)
            .map(|k| bytes(seed, 0x10_0000 + k, transfer))
            .collect();
        let bulk = bulk_bytes
            .iter()
            .map(|b| Region::copy_from_slice(b))
            .collect();
        Inputs {
            ping,
            stream,
            bulk,
            bulk_bytes,
        }
    }

    /// Payload variant for operation `i`.
    pub fn variant(i: u64) -> usize {
        (i % VARIANTS as u64) as usize
    }
}

/// Compares received regions against expected bytes through one reusable
/// spare buffer, so checking allocates nothing (allocations are counted
/// per operation in traced runs).
pub struct Checker {
    spare: Vec<u8>,
}

impl Checker {
    pub fn new(max_len: usize) -> Checker {
        Checker {
            spare: vec![0u8; max_len],
        }
    }

    /// True when `region` holds exactly `expected` from offset 0.
    pub fn holds(&mut self, region: &Region, expected: &[u8]) -> bool {
        let buf = &mut self.spare[..expected.len()];
        region.read_into(0, buf);
        buf == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = Inputs::generate(7, 4096, 4);
        let b = Inputs::generate(7, 4096, 4);
        let c = Inputs::generate(8, 4096, 4);
        assert_eq!(a.bulk_bytes, b.bulk_bytes);
        assert_eq!(a.ping, b.ping);
        assert_ne!(a.bulk_bytes, c.bulk_bytes);
        assert_ne!(a.bulk_bytes[0], a.bulk_bytes[1]);
        let mut check = Checker::new(4096);
        assert!(check.holds(&a.bulk[2], &a.bulk_bytes[2]));
        assert!(!check.holds(&a.bulk[2], &a.bulk_bytes[1]));
    }
}
