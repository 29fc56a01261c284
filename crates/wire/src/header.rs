//! Shared header fragments and the raw-handle wire representation.
//!
//! Requests (put/get) share one header shape — Table 1 and Table 3 differ only
//! in which local handles ride along — and responses (ack/reply) share another:
//! "most of the information is simply echoed ... the initiator and target are
//! obtained directly from the request, but are swapped" (§4.7).

use crate::error::WireError;
use bytes::{Buf, BufMut};
use portals_types::{MatchBits, NodeId, ProcessId};

/// A handle crossing the wire. Only meaningful to the process that issued it;
/// everyone else just echoes it (§4.7: "the handle for the memory descriptor
/// used in the put operation is transmitted even though this value cannot be
/// interpreted by the target").
pub type RawHandle = u64;

/// The wire encoding of "no handle" (no ack requested / no event queue).
pub const RAW_HANDLE_NONE: RawHandle = u64::MAX;

/// A fixed-capacity staging buffer on the stack. Header encoders write into
/// it through [`BufMut`]; the finished header is then copied once into its
/// own wire segment, so building a header costs one allocation rather than a
/// growable buffer plus a copy out of it. Overflowing `N` panics.
pub(crate) struct StackBuf<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> StackBuf<N> {
    pub(crate) fn new() -> StackBuf<N> {
        StackBuf {
            buf: [0; N],
            len: 0,
        }
    }

    /// The bytes written so far.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Overwrite already-written bytes at `at` (a field whose value depends
    /// on what follows it, like a checksum).
    pub(crate) fn patch(&mut self, at: usize, src: &[u8]) {
        self.buf[..self.len][at..at + src.len()].copy_from_slice(src);
    }
}

impl<const N: usize> BufMut for StackBuf<N> {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf[self.len..self.len + src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

pub(crate) fn put_process_id(buf: &mut impl BufMut, id: ProcessId) {
    buf.put_u32_le(id.nid.0);
    buf.put_u32_le(id.pid);
}

pub(crate) fn get_process_id(buf: &mut impl Buf) -> ProcessId {
    let nid = buf.get_u32_le();
    let pid = buf.get_u32_le();
    ProcessId {
        nid: NodeId(nid),
        pid,
    }
}

pub(crate) fn check_len(buf: &[u8], needed: usize) -> Result<(), WireError> {
    if buf.len() < needed {
        Err(WireError::Truncated {
            needed,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Fields common to put and get requests (Tables 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// The process that initiated the operation ("Local process id").
    pub initiator: ProcessId,
    /// The process the operation addresses ("Target process id").
    pub target: ProcessId,
    /// Index into the target's Portal table.
    pub portal_index: u32,
    /// Index into the target's access control table (the "cookie" / hint).
    pub cookie: u32,
    /// Matching criteria presented to the target's match list.
    pub match_bits: MatchBits,
    /// Offset within the target memory region.
    pub offset: u64,
    /// Length of the data (put: payload length; get: requested length).
    pub length: u64,
}

impl RequestHeader {
    /// Encoded size in bytes: 2 × ProcessId(8) + portal(4) + cookie(4) +
    /// match bits(8) + offset(8) + length(8).
    pub const WIRE_SIZE: usize = 8 + 8 + 4 + 4 + 8 + 8 + 8;

    pub(crate) fn encode(&self, buf: &mut impl BufMut) {
        put_process_id(buf, self.initiator);
        put_process_id(buf, self.target);
        buf.put_u32_le(self.portal_index);
        buf.put_u32_le(self.cookie);
        buf.put_u64_le(self.match_bits.raw());
        buf.put_u64_le(self.offset);
        buf.put_u64_le(self.length);
    }

    pub(crate) fn decode(buf: &mut impl Buf) -> RequestHeader {
        let initiator = get_process_id(buf);
        let target = get_process_id(buf);
        let portal_index = buf.get_u32_le();
        let cookie = buf.get_u32_le();
        let match_bits = MatchBits::new(buf.get_u64_le());
        let offset = buf.get_u64_le();
        let length = buf.get_u64_le();
        RequestHeader {
            initiator,
            target,
            portal_index,
            cookie,
            match_bits,
            offset,
            length,
        }
    }
}

/// Fields common to acknowledgments and replies (Tables 2 and 4).
///
/// `initiator`/`target` are already swapped relative to the request they answer:
/// the initiator of an ack is the process that *received* the put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHeader {
    /// Process sending this response (the request's target).
    pub initiator: ProcessId,
    /// Process receiving this response (the request's initiator).
    pub target: ProcessId,
    /// Echoed portal index.
    pub portal_index: u32,
    /// Echoed match bits.
    pub match_bits: MatchBits,
    /// Echoed offset.
    pub offset: u64,
    /// Echoed memory-descriptor handle (reply: where the data lands; ack:
    /// the descriptor the put used).
    pub md_handle: RawHandle,
    /// Echoed event-queue handle (ack: where to log; §4.8).
    pub eq_handle: RawHandle,
    /// Echoed requested length.
    pub requested_length: u64,
    /// "The only new piece of information ... is the manipulated length, which
    /// is determined as the request is satisfied" (§4.7) — how many bytes the
    /// target actually moved after truncation.
    pub manipulated_length: u64,
}

impl ResponseHeader {
    /// Encoded size in bytes.
    pub const WIRE_SIZE: usize = 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8;

    pub(crate) fn encode(&self, buf: &mut impl BufMut) {
        put_process_id(buf, self.initiator);
        put_process_id(buf, self.target);
        buf.put_u32_le(self.portal_index);
        buf.put_u64_le(self.match_bits.raw());
        buf.put_u64_le(self.offset);
        buf.put_u64_le(self.md_handle);
        buf.put_u64_le(self.eq_handle);
        buf.put_u64_le(self.requested_length);
        buf.put_u64_le(self.manipulated_length);
    }

    pub(crate) fn decode(buf: &mut impl Buf) -> ResponseHeader {
        let initiator = get_process_id(buf);
        let target = get_process_id(buf);
        let portal_index = buf.get_u32_le();
        let match_bits = MatchBits::new(buf.get_u64_le());
        let offset = buf.get_u64_le();
        let md_handle = buf.get_u64_le();
        let eq_handle = buf.get_u64_le();
        let requested_length = buf.get_u64_le();
        let manipulated_length = buf.get_u64_le();
        ResponseHeader {
            initiator,
            target,
            portal_index,
            match_bits,
            offset,
            md_handle,
            eq_handle,
            requested_length,
            manipulated_length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample_request() -> RequestHeader {
        RequestHeader {
            initiator: ProcessId::new(1, 2),
            target: ProcessId::new(3, 4),
            portal_index: 5,
            cookie: 0,
            match_bits: MatchBits::new(0xfeed_beef_cafe_f00d),
            offset: 4096,
            length: 50 * 1024,
        }
    }

    #[test]
    fn request_header_roundtrip() {
        let h = sample_request();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), RequestHeader::WIRE_SIZE);
        let decoded = RequestHeader::decode(&mut buf.freeze());
        assert_eq!(decoded, h);
    }

    #[test]
    fn response_header_roundtrip() {
        let h = ResponseHeader {
            initiator: ProcessId::new(3, 4),
            target: ProcessId::new(1, 2),
            portal_index: 5,
            match_bits: MatchBits::new(0xabcd),
            offset: 0,
            md_handle: 77,
            eq_handle: RAW_HANDLE_NONE,
            requested_length: 100,
            manipulated_length: 64,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), ResponseHeader::WIRE_SIZE);
        let decoded = ResponseHeader::decode(&mut buf.freeze());
        assert_eq!(decoded, h);
    }

    #[test]
    fn check_len_rejects_short_buffers() {
        assert!(check_len(&[0u8; 4], 8).is_err());
        assert!(check_len(&[0u8; 8], 8).is_ok());
    }
}
