//! The acknowledgment (Table 2).

use crate::error::WireError;
use crate::header::{check_len, ResponseHeader};
use bytes::BufMut;

/// An acknowledgment of a put.
///
/// §4.7: "Most of the information is simply echoed from the put request.
/// Notice that the initiator and target ... are swapped in generating the
/// acknowledgment. The only new piece of information in the acknowledgment is
/// the manipulated length, which is determined as the put request is
/// satisfied." Carries no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The echoed-and-swapped fields plus the manipulated length.
    pub header: ResponseHeader,
}

impl Ack {
    /// Size on the wire (headers only; acks never carry data).
    pub const WIRE_SIZE: usize = ResponseHeader::WIRE_SIZE;

    pub(crate) fn encode_body(&self, buf: &mut impl BufMut) {
        self.header.encode(buf);
    }

    pub(crate) fn decode_body(buf: &[u8]) -> Result<Ack, WireError> {
        check_len(buf, Self::WIRE_SIZE)?;
        let mut cursor = buf;
        let header = ResponseHeader::decode(&mut cursor);
        Ok(Ack { header })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RAW_HANDLE_NONE;
    use bytes::BytesMut;
    use portals_types::{MatchBits, ProcessId};

    fn sample() -> Ack {
        Ack {
            header: ResponseHeader {
                initiator: ProcessId::new(1, 1), // the put's target
                target: ProcessId::new(0, 1),    // the put's initiator
                portal_index: 4,
                match_bits: MatchBits::new(42),
                offset: 0,
                md_handle: 9,
                eq_handle: 10,
                requested_length: 128,
                manipulated_length: 100, // truncated delivery
            },
        }
    }

    #[test]
    fn roundtrip() {
        let ack = sample();
        let mut buf = BytesMut::new();
        ack.encode_body(&mut buf);
        assert_eq!(buf.len(), Ack::WIRE_SIZE);
        assert_eq!(Ack::decode_body(&buf).unwrap(), ack);
    }

    #[test]
    fn truncated_rejected() {
        let ack = sample();
        let mut buf = BytesMut::new();
        ack.encode_body(&mut buf);
        assert!(matches!(
            Ack::decode_body(&buf[..8]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn manipulated_length_may_differ_from_requested() {
        let ack = sample();
        assert_ne!(ack.header.manipulated_length, ack.header.requested_length);
        let _ = RAW_HANDLE_NONE; // silence unused import in cfg(test)
    }
}
