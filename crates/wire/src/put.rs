//! The put request (Table 1).

use crate::error::WireError;
use crate::header::{check_len, RawHandle, RequestHeader, RAW_HANDLE_NONE};
use bytes::{Buf, BufMut, BytesMut};
use portals_types::Gather;

/// A put request: "the initiator sends a put request message containing the
/// data to the target" (§4.3).
///
/// Field-for-field this is Table 1 of the paper: operation, initiator, target,
/// portal index, cookie, match bits, offset, memory desc, length, data —
/// plus one addition: `ack_eq` carries the initiator's event-queue handle so the
/// target's acknowledgment can name the event queue directly, which §4.8
/// requires of acks ("include a handle for the event queue where the event
/// should be recorded"). `ack_md == RAW_HANDLE_NONE` is the "special flag" of
/// §4.7 signifying that no acknowledgment is requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutRequest {
    /// Common request fields (Table 1 rows 2–7, 9).
    pub header: RequestHeader,
    /// "Local memory region for an ack" (Table 1 row 8) — the initiator's MD
    /// handle, echoed back in the ack; NONE means no ack requested.
    pub ack_md: RawHandle,
    /// The initiator's event-queue handle for the ack event (§4.8).
    pub ack_eq: RawHandle,
    /// The payload (Table 1 row 10) — a gather of region views, so building
    /// and fragmenting the request never copies the data.
    pub payload: Gather,
}

impl PutRequest {
    /// Fixed-size portion on the wire (excludes payload, includes the payload
    /// length which lives in the request header).
    pub const WIRE_HEADER_SIZE: usize = RequestHeader::WIRE_SIZE + 8 + 8;

    /// True if the initiator asked for an acknowledgment.
    #[inline]
    pub fn wants_ack(&self) -> bool {
        self.ack_md != RAW_HANDLE_NONE
    }

    /// Write the fixed-size portion (envelope excluded) into `buf`.
    pub(crate) fn encode_header(&self, buf: &mut impl BufMut) {
        self.header.encode(buf);
        buf.put_u64_le(self.ack_md);
        buf.put_u64_le(self.ack_eq);
    }

    pub(crate) fn encode_body(&self, buf: &mut BytesMut) {
        self.encode_header(buf);
        for seg in self.payload.segments() {
            buf.extend_from_slice(seg);
        }
    }

    pub(crate) fn decode_fields(
        buf: &[u8],
    ) -> Result<(RequestHeader, RawHandle, RawHandle), WireError> {
        check_len(buf, Self::WIRE_HEADER_SIZE)?;
        let mut cursor = buf;
        let header = RequestHeader::decode(&mut cursor);
        let ack_md = cursor.get_u64_le();
        let ack_eq = cursor.get_u64_le();
        Ok((header, ack_md, ack_eq))
    }

    pub(crate) fn decode_body(buf: &[u8]) -> Result<PutRequest, WireError> {
        let (header, ack_md, ack_eq) = Self::decode_fields(buf)?;
        let rest = &buf[Self::WIRE_HEADER_SIZE..];
        let declared = header.length as usize;
        if rest.len() != declared {
            return Err(WireError::LengthMismatch {
                declared,
                actual: rest.len(),
            });
        }
        let payload = Gather::copy_from_slice(rest);
        Ok(PutRequest {
            header,
            ack_md,
            ack_eq,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_types::{MatchBits, ProcessId};

    fn sample(payload_len: usize) -> PutRequest {
        PutRequest {
            header: RequestHeader {
                initiator: ProcessId::new(0, 1),
                target: ProcessId::new(1, 1),
                portal_index: 4,
                cookie: 0,
                match_bits: MatchBits::new(42),
                offset: 0,
                length: payload_len as u64,
            },
            ack_md: 9,
            ack_eq: 10,
            payload: Gather::from_vec(vec![7u8; payload_len]),
        }
    }

    #[test]
    fn body_roundtrip() {
        let put = sample(128);
        let mut buf = BytesMut::new();
        put.encode_body(&mut buf);
        assert_eq!(buf.len(), PutRequest::WIRE_HEADER_SIZE + 128);
        let decoded = PutRequest::decode_body(&buf).unwrap();
        assert_eq!(decoded, put);
    }

    #[test]
    fn zero_length_put_is_valid() {
        let put = sample(0);
        let mut buf = BytesMut::new();
        put.encode_body(&mut buf);
        let decoded = PutRequest::decode_body(&buf).unwrap();
        assert_eq!(decoded.payload.len(), 0);
        assert!(decoded.wants_ack());
    }

    #[test]
    fn length_mismatch_detected() {
        let put = sample(16);
        let mut buf = BytesMut::new();
        put.encode_body(&mut buf);
        let truncated = &buf[..buf.len() - 4];
        assert!(matches!(
            PutRequest::decode_body(truncated),
            Err(WireError::LengthMismatch {
                declared: 16,
                actual: 12
            })
        ));
    }

    #[test]
    fn truncated_header_detected() {
        let put = sample(0);
        let mut buf = BytesMut::new();
        put.encode_body(&mut buf);
        assert!(matches!(
            PutRequest::decode_body(&buf[..10]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn no_ack_flag() {
        let mut put = sample(0);
        put.ack_md = RAW_HANDLE_NONE;
        assert!(!put.wants_ack());
    }
}
