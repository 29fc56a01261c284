//! The atomic request (Portals 4 lineage: `PtlAtomic`/`PtlFetchAtomic`).
//!
//! §4.6 of the source paper defines only four message types; one-sided
//! accumulate semantics (MPI-3 `MPI_Accumulate`/`MPI_Fetch_and_op`/
//! `MPI_Compare_and_swap`) need a fifth class: an operand travels to the
//! target, the target performs the read-modify-write *inside the engine*
//! (under the same portal-list lock that serializes put delivery, so
//! concurrent atomics from many initiators compose), and either an ack
//! (plain atomic) or a reply carrying the prior value (fetching atomic)
//! travels back. Layout-wise this is Table 1 plus an operation byte, a
//! datatype byte, and the reply descriptor from Table 3, so both the ack
//! path and the reply path reuse the existing response machinery untouched.

use crate::error::WireError;
use crate::header::{check_len, RawHandle, RequestHeader, RAW_HANDLE_NONE};
use bytes::{Buf, BufMut, BytesMut};
use portals_types::Gather;

/// The read-modify-write applied at the target, element-wise over the
/// addressed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AtomicOp {
    /// `target += operand`.
    Sum = 0x01,
    /// `target = min(target, operand)`.
    Min = 0x02,
    /// `target = max(target, operand)`.
    Max = 0x03,
    /// `target = operand`, prior value returned by a fetching atomic.
    Swap = 0x04,
    /// `if target == compare { target = operand }`; single element only.
    /// The payload carries `compare ++ operand` (twice the element size).
    Cas = 0x05,
}

impl AtomicOp {
    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Result<AtomicOp, WireError> {
        match b {
            0x01 => Ok(AtomicOp::Sum),
            0x02 => Ok(AtomicOp::Min),
            0x03 => Ok(AtomicOp::Max),
            0x04 => Ok(AtomicOp::Swap),
            0x05 => Ok(AtomicOp::Cas),
            other => Err(WireError::UnknownAtomic(other)),
        }
    }

    /// The wire byte.
    #[inline]
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Operand bytes on the wire for `length` bytes touched at the target:
    /// CAS carries `compare ++ operand`, everything else just the operand.
    #[inline]
    pub fn operand_len(self, length: u64) -> u64 {
        match self {
            AtomicOp::Cas => length * 2,
            _ => length,
        }
    }

    /// Stable name for events and traces.
    pub fn name(self) -> &'static str {
        match self {
            AtomicOp::Sum => "sum",
            AtomicOp::Min => "min",
            AtomicOp::Max => "max",
            AtomicOp::Swap => "swap",
            AtomicOp::Cas => "cas",
        }
    }
}

/// Element type the operation is applied over. All three are 8 bytes wide,
/// so `length` is always a multiple of [`AtomicDatatype::WIDTH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AtomicDatatype {
    /// Unsigned 64-bit lanes.
    U64 = 0x01,
    /// Signed 64-bit lanes.
    I64 = 0x02,
    /// IEEE-754 double lanes.
    F64 = 0x03,
}

impl AtomicDatatype {
    /// Element width in bytes (identical for all supported types).
    pub const WIDTH: u64 = 8;

    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Result<AtomicDatatype, WireError> {
        match b {
            0x01 => Ok(AtomicDatatype::U64),
            0x02 => Ok(AtomicDatatype::I64),
            0x03 => Ok(AtomicDatatype::F64),
            other => Err(WireError::UnknownAtomic(other)),
        }
    }

    /// The wire byte.
    #[inline]
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Stable name for events and traces.
    pub fn name(self) -> &'static str {
        match self {
            AtomicDatatype::U64 => "u64",
            AtomicDatatype::I64 => "i64",
            AtomicDatatype::F64 => "f64",
        }
    }
}

/// An atomic request. `header.length` is the number of bytes *touched at the
/// target*; the payload carries the operand bytes ([`AtomicOp::operand_len`]
/// of that — CAS doubles it for the compare value). Whether the prior value
/// travels back is carried by the [`crate::Operation`] byte: a plain atomic
/// uses `ack_md`/`ack_eq` exactly like a put, a fetching atomic uses
/// `reply_md` exactly like a get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicRequest {
    /// Common request fields (Table 1 rows 2–7, 9).
    pub header: RequestHeader,
    /// The read-modify-write to apply.
    pub op: AtomicOp,
    /// Element type of the addressed lanes.
    pub datatype: AtomicDatatype,
    /// True for a fetching atomic (prior value returned via a reply).
    pub fetch: bool,
    /// Initiator MD for the ack (plain atomic); NONE means no ack.
    pub ack_md: RawHandle,
    /// Initiator EQ for the ack event.
    pub ack_eq: RawHandle,
    /// Initiator MD the reply lands in (fetching atomic only, else NONE).
    pub reply_md: RawHandle,
    /// Operand bytes (`compare ++ operand` for CAS).
    pub payload: Gather,
}

impl AtomicRequest {
    /// Fixed-size portion on the wire (excludes the operand payload).
    pub const WIRE_HEADER_SIZE: usize = RequestHeader::WIRE_SIZE + 1 + 1 + 8 + 8 + 8;

    /// True if the initiator asked for an acknowledgment.
    #[inline]
    pub fn wants_ack(&self) -> bool {
        self.ack_md != RAW_HANDLE_NONE
    }

    /// Write the fixed-size portion (envelope excluded) into `buf`.
    pub(crate) fn encode_header(&self, buf: &mut impl BufMut) {
        self.header.encode(buf);
        buf.put_u8(self.op.to_byte());
        buf.put_u8(self.datatype.to_byte());
        buf.put_u64_le(self.ack_md);
        buf.put_u64_le(self.ack_eq);
        buf.put_u64_le(self.reply_md);
    }

    pub(crate) fn encode_body(&self, buf: &mut BytesMut) {
        self.encode_header(buf);
        for seg in self.payload.segments() {
            buf.extend_from_slice(seg);
        }
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn decode_fields(
        buf: &[u8],
    ) -> Result<
        (
            RequestHeader,
            AtomicOp,
            AtomicDatatype,
            RawHandle,
            RawHandle,
            RawHandle,
        ),
        WireError,
    > {
        check_len(buf, Self::WIRE_HEADER_SIZE)?;
        let mut cursor = buf;
        let header = RequestHeader::decode(&mut cursor);
        let op = AtomicOp::from_byte(cursor.get_u8())?;
        let datatype = AtomicDatatype::from_byte(cursor.get_u8())?;
        let ack_md = cursor.get_u64_le();
        let ack_eq = cursor.get_u64_le();
        let reply_md = cursor.get_u64_le();
        Ok((header, op, datatype, ack_md, ack_eq, reply_md))
    }

    pub(crate) fn decode_body(buf: &[u8], fetch: bool) -> Result<AtomicRequest, WireError> {
        let (header, op, datatype, ack_md, ack_eq, reply_md) = Self::decode_fields(buf)?;
        let rest = &buf[Self::WIRE_HEADER_SIZE..];
        let declared = op.operand_len(header.length) as usize;
        if rest.len() != declared {
            return Err(WireError::LengthMismatch {
                declared,
                actual: rest.len(),
            });
        }
        let payload = Gather::copy_from_slice(rest);
        Ok(AtomicRequest {
            header,
            op,
            datatype,
            fetch,
            ack_md,
            ack_eq,
            reply_md,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_types::{MatchBits, ProcessId};

    fn sample(op: AtomicOp, length: u64) -> AtomicRequest {
        AtomicRequest {
            header: RequestHeader {
                initiator: ProcessId::new(0, 1),
                target: ProcessId::new(1, 1),
                portal_index: 4,
                cookie: 0,
                match_bits: MatchBits::new(42),
                offset: 16,
                length,
            },
            op,
            datatype: AtomicDatatype::U64,
            fetch: false,
            ack_md: 9,
            ack_eq: 10,
            reply_md: RAW_HANDLE_NONE,
            payload: Gather::from_vec(vec![7u8; op.operand_len(length) as usize]),
        }
    }

    #[test]
    fn body_roundtrip() {
        let atomic = sample(AtomicOp::Sum, 64);
        let mut buf = BytesMut::new();
        atomic.encode_body(&mut buf);
        assert_eq!(buf.len(), AtomicRequest::WIRE_HEADER_SIZE + 64);
        let decoded = AtomicRequest::decode_body(&buf, false).unwrap();
        assert_eq!(decoded, atomic);
    }

    #[test]
    fn cas_carries_compare_and_operand() {
        let atomic = sample(AtomicOp::Cas, 8);
        assert_eq!(atomic.payload.len(), 16);
        let mut buf = BytesMut::new();
        atomic.encode_body(&mut buf);
        let decoded = AtomicRequest::decode_body(&buf, true).unwrap();
        assert!(decoded.fetch);
        assert_eq!(decoded.payload.len(), 16);
    }

    #[test]
    fn operand_length_mismatch_detected() {
        let atomic = sample(AtomicOp::Sum, 16);
        let mut buf = BytesMut::new();
        atomic.encode_body(&mut buf);
        let truncated = &buf[..buf.len() - 4];
        assert!(matches!(
            AtomicRequest::decode_body(truncated, false),
            Err(WireError::LengthMismatch {
                declared: 16,
                actual: 12
            })
        ));
    }

    #[test]
    fn unknown_op_byte_rejected() {
        let atomic = sample(AtomicOp::Sum, 8);
        let mut buf = BytesMut::new();
        atomic.encode_body(&mut buf);
        buf[RequestHeader::WIRE_SIZE] = 0x7f;
        assert!(matches!(
            AtomicRequest::decode_body(&buf, false),
            Err(WireError::UnknownAtomic(0x7f))
        ));
    }

    #[test]
    fn op_and_datatype_bytes_roundtrip() {
        for op in [
            AtomicOp::Sum,
            AtomicOp::Min,
            AtomicOp::Max,
            AtomicOp::Swap,
            AtomicOp::Cas,
        ] {
            assert_eq!(AtomicOp::from_byte(op.to_byte()).unwrap(), op);
        }
        for dt in [
            AtomicDatatype::U64,
            AtomicDatatype::I64,
            AtomicDatatype::F64,
        ] {
            assert_eq!(AtomicDatatype::from_byte(dt.to_byte()).unwrap(), dt);
        }
    }
}
