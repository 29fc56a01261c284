//! The transport packet header.
//!
//! The Cplant™ RTS/CTS kernel module was "responsible for packetization and
//! flow control" (§3) underneath Portals. Our transport does the same job and
//! this is its packet format: DATA packets carry one fragment of one message
//! and a per-(src,dst)-pair sequence number; ACK packets carry the receiver's
//! cumulative in-order sequence, driving the go-back-N sender window, plus a
//! piggybacked credit horizon — the highest sequence the receiver is prepared
//! to buffer — driving the sender's credit window. PROBE packets are the
//! zero-window probe: a sender whose credits ran dry uses them (on a bounded
//! exponential backoff) to solicit a fresh ACK when no data ack is expected.
//!
//! # Wire hardening
//!
//! Every packet opens with a 7-byte prefix — [`Packet::MAGIC`],
//! [`Packet::VERSION`], a flags byte, and a CRC-32C — so a decoder facing a
//! *real* wire (a UDP socket, not the in-process fabric) can cheaply reject
//! foreign traffic, cross-version peers, and corrupted datagrams instead of
//! misparsing them. The CRC always covers the magic/version/flags bytes and
//! the header fields after the prefix; when [`Packet::encode_with`] is asked
//! to (the transport asks for links that front a real, corruptible wire), it
//! also covers the DATA body, recorded in the [`Packet::FLAG_BODY_CRC`] flag
//! bit so the decoder knows what to verify. The in-process fabric moves
//! refcounted memory whose bits cannot flip, so simulation traffic skips the
//! body pass and keeps the zero-copy data path's throughput.

use crate::checksum::Crc32;
use crate::error::WireError;
use crate::header::StackBuf;
use bytes::{Buf, BufMut, Bytes};
use portals_types::Gather;

/// Packet type discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketKind {
    /// A message fragment.
    Data = 0x10,
    /// A cumulative acknowledgment.
    Ack = 0x11,
    /// A credit probe (sender-to-receiver; solicits an ACK).
    Probe = 0x12,
}

impl PacketKind {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0x10 => Ok(PacketKind::Data),
            0x11 => Ok(PacketKind::Ack),
            0x12 => Ok(PacketKind::Probe),
            other => Err(WireError::UnknownPacketKind(other)),
        }
    }
}

/// Decoded packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketHeader {
    /// One fragment of a message.
    Data {
        /// Per-(src,dst) stream sequence number of this packet.
        seq: u64,
        /// Message this fragment belongs to (sender-local, monotonically
        /// increasing — used only for reassembly sanity checks).
        msg_id: u64,
        /// Absolute byte offset of this fragment's payload within the
        /// message. Carried on the wire so any fragment is placeable into
        /// the destination buffer independently — the enabler for streaming
        /// delivery, where fragments land before the whole message arrives.
        offset: u64,
        /// Fragment index within the message.
        frag_index: u32,
        /// Total fragments in the message.
        frag_count: u32,
    },
    /// Cumulative acknowledgment: every DATA packet with `seq <= cumulative`
    /// has been received in order.
    Ack {
        /// Highest in-order sequence received, or `u64::MAX` if none yet
        /// (encoded as the pre-first value so the first packet has seq 0).
        cumulative: u64,
        /// Credit horizon: the receiver accepts sequences strictly below
        /// this value. Monotonically non-decreasing over a stream, so lost
        /// or duplicated ACKs never leak or double-grant credits; a sender
        /// that ignores it (flow control off) behaves as before.
        credit: u64,
    },
    /// Zero-window probe: a credit-starved sender asking the receiver to
    /// re-advertise its window with a fresh ACK.
    Probe {
        /// The sender's current send base (lowest unacked sequence), for
        /// diagnostics; the receiver answers from its own state regardless.
        base: u64,
    },
}

/// A full transport packet: header + (for DATA) fragment bytes.
///
/// The body is a [`Gather`]: a DATA packet built from a message fragment keeps
/// the fragment's region views as-is, and [`Packet::encode`] emits the header
/// as one small segment ahead of them — the payload is never copied to build
/// the wire image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The header.
    pub header: PacketHeader,
    /// Fragment payload (empty for ACK packets).
    pub body: Gather,
}

impl Packet {
    /// First byte of every packet; anything else is not our traffic.
    pub const MAGIC: u8 = 0xB3;
    /// Wire-format version; bumped on incompatible layout changes.
    pub const VERSION: u8 = 1;
    /// Flags bit: the CRC also covers the DATA body, not just the header.
    pub const FLAG_BODY_CRC: u8 = 0x01;
    /// Size of the hardening prefix: magic, version, flags, CRC-32C.
    pub const PREFIX_SIZE: usize = 1 + 1 + 1 + 4;
    /// Size of an encoded DATA header (prefix + kind + fields).
    pub const DATA_HEADER_SIZE: usize = Self::PREFIX_SIZE + 1 + 8 + 8 + 8 + 4 + 4;
    /// Size of an encoded ACK packet (prefix + kind + cumulative + credit).
    pub const ACK_SIZE: usize = Self::PREFIX_SIZE + 1 + 8 + 8;
    /// Size of an encoded PROBE packet.
    pub const PROBE_SIZE: usize = Self::PREFIX_SIZE + 1 + 8;

    /// Build a DATA packet. `offset` is the fragment payload's absolute byte
    /// offset within its message.
    pub fn data(
        seq: u64,
        msg_id: u64,
        offset: u64,
        frag_index: u32,
        frag_count: u32,
        body: Gather,
    ) -> Packet {
        Packet {
            header: PacketHeader::Data {
                seq,
                msg_id,
                offset,
                frag_index,
                frag_count,
            },
            body,
        }
    }

    /// Build an ACK packet carrying the receiver's credit horizon.
    pub fn ack(cumulative: u64, credit: u64) -> Packet {
        Packet {
            header: PacketHeader::Ack { cumulative, credit },
            body: Gather::new(),
        }
    }

    /// Build a credit PROBE packet.
    pub fn probe(base: u64) -> Packet {
        Packet {
            header: PacketHeader::Probe { base },
            body: Gather::new(),
        }
    }

    /// Serialize via vectored gather: one fresh header segment followed by the
    /// body's own segments, shared rather than copied. The CRC covers the
    /// header only — the right choice for the in-process fabric, whose
    /// refcounted handoff cannot corrupt the body.
    pub fn encode(&self) -> Gather {
        self.encode_with(false)
    }

    /// Serialize like [`Packet::encode`], extending the CRC over the DATA
    /// body when `cover_body` is set (recorded in [`Packet::FLAG_BODY_CRC`]
    /// so the decoder verifies the same span). Links that front a real wire
    /// ask the transport for this; it reads every body byte once at encode
    /// time, which the socket send was about to do anyway.
    ///
    /// The header is staged on the stack and copied once into its segment:
    /// one allocation per packet.
    pub fn encode_with(&self, cover_body: bool) -> Gather {
        let is_data = matches!(self.header, PacketHeader::Data { .. });
        let flags = if is_data && cover_body {
            Self::FLAG_BODY_CRC
        } else {
            0
        };
        let mut hdr = StackBuf::<{ Self::DATA_HEADER_SIZE }>::new();
        hdr.put_u8(Self::MAGIC);
        hdr.put_u8(Self::VERSION);
        hdr.put_u8(flags);
        hdr.put_u32_le(0); // CRC, filled in once the fields are written
        match self.header {
            PacketHeader::Data {
                seq,
                msg_id,
                offset,
                frag_index,
                frag_count,
            } => {
                hdr.put_u8(PacketKind::Data as u8);
                hdr.put_u64_le(seq);
                hdr.put_u64_le(msg_id);
                hdr.put_u64_le(offset);
                hdr.put_u32_le(frag_index);
                hdr.put_u32_le(frag_count);
            }
            PacketHeader::Ack { cumulative, credit } => {
                hdr.put_u8(PacketKind::Ack as u8);
                hdr.put_u64_le(cumulative);
                hdr.put_u64_le(credit);
            }
            PacketHeader::Probe { base } => {
                hdr.put_u8(PacketKind::Probe as u8);
                hdr.put_u64_le(base);
            }
        }
        let mut crc = Crc32::new();
        crc.update(&hdr.as_slice()[..3]);
        crc.update(&hdr.as_slice()[Self::PREFIX_SIZE..]);
        if flags & Self::FLAG_BODY_CRC != 0 {
            for seg in self.body.segments() {
                crc.update(seg.as_ref());
            }
        }
        hdr.patch(3, &crc.finish().to_le_bytes());
        let mut out = Gather::from_bytes(Bytes::copy_from_slice(hdr.as_slice()));
        if is_data {
            out.append(self.body.clone());
        }
        out
    }

    /// Exact number of bytes [`Packet::encode`] produces.
    pub fn encoded_len(&self) -> usize {
        match self.header {
            PacketHeader::Data { .. } => Self::DATA_HEADER_SIZE + self.body.len(),
            PacketHeader::Ack { .. } => Self::ACK_SIZE,
            PacketHeader::Probe { .. } => Self::PROBE_SIZE,
        }
    }

    /// Parse the prefix and header fields; returns the header, the offset at
    /// which the body (if any) starts, the flags byte, the stored CRC, and
    /// the CRC state already fed with everything it covers *except* the body
    /// (callers fold that in per [`Packet::FLAG_BODY_CRC`], then verify).
    ///
    /// Check order matters for error quality: magic/version first (foreign or
    /// cross-version traffic → [`WireError::BadMagic`]), then the kind byte
    /// (→ [`WireError::UnknownPacketKind`]), then length (→
    /// [`WireError::Truncated`]); only a structurally valid header gets as
    /// far as checksum verification.
    fn decode_header(buf: &[u8]) -> Result<(PacketHeader, usize, u8, u32, Crc32), WireError> {
        if buf.is_empty() {
            return Err(WireError::Truncated {
                needed: Self::PREFIX_SIZE + 1,
                available: 0,
            });
        }
        if buf[0] != Self::MAGIC || (buf.len() >= 2 && buf[1] != Self::VERSION) {
            return Err(WireError::BadMagic);
        }
        if buf.len() <= Self::PREFIX_SIZE {
            return Err(WireError::Truncated {
                needed: Self::PREFIX_SIZE + 1,
                available: buf.len(),
            });
        }
        let flags = buf[2];
        let stored = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
        let kind = PacketKind::from_byte(buf[Self::PREFIX_SIZE])?;
        let size = match kind {
            PacketKind::Data => Self::DATA_HEADER_SIZE,
            PacketKind::Ack => Self::ACK_SIZE,
            PacketKind::Probe => Self::PROBE_SIZE,
        };
        if buf.len() < size {
            return Err(WireError::Truncated {
                needed: size,
                available: buf.len(),
            });
        }
        let mut cursor = &buf[Self::PREFIX_SIZE + 1..size];
        let header = match kind {
            PacketKind::Data => {
                let seq = cursor.get_u64_le();
                let msg_id = cursor.get_u64_le();
                let offset = cursor.get_u64_le();
                let frag_index = cursor.get_u32_le();
                let frag_count = cursor.get_u32_le();
                PacketHeader::Data {
                    seq,
                    msg_id,
                    offset,
                    frag_index,
                    frag_count,
                }
            }
            PacketKind::Ack => {
                let cumulative = cursor.get_u64_le();
                let credit = cursor.get_u64_le();
                PacketHeader::Ack { cumulative, credit }
            }
            PacketKind::Probe => PacketHeader::Probe {
                base: cursor.get_u64_le(),
            },
        };
        let mut crc = Crc32::new();
        crc.update(&buf[..3]);
        crc.update(&buf[Self::PREFIX_SIZE..size]);
        Ok((header, size, flags, stored, crc))
    }

    /// Final CRC comparison shared by the decode variants.
    fn verify(stored: u32, crc: Crc32) -> Result<(), WireError> {
        let computed = crc.finish();
        if computed != stored {
            return Err(WireError::Checksum { stored, computed });
        }
        Ok(())
    }

    /// Parse, copying the body out of the borrowed buffer.
    pub fn decode(buf: &[u8]) -> Result<Packet, WireError> {
        let (header, body_at, flags, stored, mut crc) = Self::decode_header(buf)?;
        if flags & Self::FLAG_BODY_CRC != 0 {
            crc.update(&buf[body_at..]);
        }
        Self::verify(stored, crc)?;
        let body = match header {
            PacketHeader::Data { .. } => Gather::copy_from_slice(&buf[body_at..]),
            PacketHeader::Ack { .. } | PacketHeader::Probe { .. } => Gather::new(),
        };
        Ok(Packet { header, body })
    }

    /// Parse a datagram already held as [`Bytes`] without copying: the body is
    /// an O(1) slice sharing the datagram's backing storage.
    pub fn decode_bytes(buf: &Bytes) -> Result<Packet, WireError> {
        let (header, body_at, flags, stored, mut crc) = Self::decode_header(buf)?;
        if flags & Self::FLAG_BODY_CRC != 0 {
            crc.update(&buf[body_at..]);
        }
        Self::verify(stored, crc)?;
        let body = match header {
            PacketHeader::Data { .. } => Gather::from_bytes(buf.slice(body_at..)),
            PacketHeader::Ack { .. } | PacketHeader::Probe { .. } => Gather::new(),
        };
        Ok(Packet { header, body })
    }

    /// Parse a datagram held as a [`Gather`] without coalescing it: the header
    /// is peeked into a stack buffer and the body is a zero-copy sub-gather.
    /// This is the receive path's variant — the fragment bytes stay in the
    /// segments the NIC handed over, and unless [`Packet::FLAG_BODY_CRC`] is
    /// set they are never even read here.
    pub fn decode_gather(buf: &Gather) -> Result<Packet, WireError> {
        let mut hdr = [0u8; Self::DATA_HEADER_SIZE];
        let filled = buf.peek(&mut hdr);
        let (header, body_at, flags, stored, mut crc) = Self::decode_header(&hdr[..filled])?;
        let rest = buf.slice(body_at, buf.len() - body_at);
        if flags & Self::FLAG_BODY_CRC != 0 {
            for seg in rest.segments() {
                crc.update(seg.as_ref());
            }
        }
        Self::verify(stored, crc)?;
        let body = match header {
            PacketHeader::Data { .. } => rest,
            PacketHeader::Ack { .. } | PacketHeader::Probe { .. } => Gather::new(),
        };
        Ok(Packet { header, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn data_roundtrip() {
        let p = Packet::data(7, 3, 4, 1, 4, Gather::copy_from_slice(b"frag"));
        let encoded = p.encode();
        assert_eq!(encoded.len(), p.encoded_len());
        let decoded = Packet::decode(&encoded.to_vec()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn ack_roundtrip() {
        let p = Packet::ack(41, 105);
        let encoded = p.encode();
        assert_eq!(encoded.len(), Packet::ACK_SIZE);
        assert_eq!(Packet::decode(&encoded.to_vec()).unwrap(), p);
    }

    #[test]
    fn probe_roundtrip() {
        let p = Packet::probe(17);
        let encoded = p.encode();
        assert_eq!(encoded.len(), Packet::PROBE_SIZE);
        assert_eq!(Packet::decode(&encoded.to_vec()).unwrap(), p);
        assert_eq!(Packet::decode_gather(&p.encode()).unwrap(), p);
    }

    #[test]
    fn body_crc_roundtrip() {
        let p = Packet::data(7, 3, 4, 1, 4, Gather::copy_from_slice(b"covered"));
        let encoded = p.encode_with(true);
        assert_eq!(encoded.len(), p.encoded_len());
        assert_eq!(Packet::decode(&encoded.to_vec()).unwrap(), p);
        assert_eq!(Packet::decode_gather(&encoded).unwrap(), p);
        assert_eq!(Packet::decode_bytes(&encoded.to_bytes()).unwrap(), p);
    }

    #[test]
    fn truncated_ack_and_probe_rejected() {
        let ack = Packet::ack(3, 9).encode().to_vec();
        assert!(matches!(
            Packet::decode(&ack[..Packet::ACK_SIZE - 1]),
            Err(WireError::Truncated { .. })
        ));
        let probe = Packet::probe(3).encode().to_vec();
        assert!(matches!(
            Packet::decode(&probe[..Packet::PROBE_SIZE - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_unknown_and_foreign_rejected() {
        assert!(matches!(
            Packet::decode(&[]),
            Err(WireError::Truncated { .. })
        ));
        // Wrong magic: foreign traffic, rejected before anything else.
        assert!(matches!(
            Packet::decode(&[0x99, 0, 0]),
            Err(WireError::BadMagic)
        ));
        // Right magic, wrong version: a cross-version peer.
        assert!(matches!(
            Packet::decode(&[Packet::MAGIC, Packet::VERSION + 1, 0, 0, 0, 0, 0, 0x10]),
            Err(WireError::BadMagic)
        ));
        // Valid prefix, unknown kind byte.
        assert!(matches!(
            Packet::decode(&[Packet::MAGIC, Packet::VERSION, 0, 0, 0, 0, 0, 0x99]),
            Err(WireError::UnknownPacketKind(0x99))
        ));
    }

    #[test]
    fn corrupted_datagram_rejected() {
        // The regression test for the real wire: flipped bits anywhere in a
        // body-covered datagram must surface as a typed checksum error, not a
        // misparse or a panic.
        let p = Packet::data(9, 2, 0, 0, 1, Gather::copy_from_slice(b"precious payload"));
        let clean = p.encode_with(true).to_vec();
        assert_eq!(Packet::decode(&clean).unwrap(), p);

        // Corrupt one body byte.
        let mut corrupt = clean.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            Packet::decode(&corrupt),
            Err(WireError::Checksum { .. })
        ));
        assert!(matches!(
            Packet::decode_gather(&Gather::copy_from_slice(&corrupt)),
            Err(WireError::Checksum { .. })
        ));

        // Corrupt a header field byte — caught even without body coverage.
        let mut corrupt = p.encode().to_vec();
        corrupt[Packet::PREFIX_SIZE + 1] ^= 0x01; // low byte of `seq`
        assert!(matches!(
            Packet::decode(&corrupt),
            Err(WireError::Checksum { .. })
        ));

        // Corrupt the magic byte: rejected as foreign before the CRC runs.
        let mut corrupt = clean.clone();
        corrupt[0] ^= 0xFF;
        assert!(matches!(Packet::decode(&corrupt), Err(WireError::BadMagic)));

        // A body flip *without* body coverage decodes fine: the simulation
        // path deliberately skips the body pass (its handoff cannot corrupt),
        // which is exactly why real-wire links must request coverage.
        let mut silent = p.encode().to_vec();
        let last = silent.len() - 1;
        silent[last] ^= 0x40;
        assert!(Packet::decode(&silent).is_ok());
    }

    #[test]
    fn truncated_data_header_rejected() {
        let p = Packet::data(1, 1, 0, 0, 1, Gather::new());
        let encoded = p.encode().to_vec();
        assert!(matches!(
            Packet::decode(&encoded[..10]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn encode_does_not_copy_the_body() {
        let body = Gather::copy_from_slice(b"payload bytes that must not move");
        let body_ptr = body.segments()[0].as_ref().as_ptr();
        let p = Packet::data(9, 2, 0, 0, 1, body);
        let encoded = p.encode();
        // Segment 0 is the fresh header; segment 1 is the body, shared.
        assert_eq!(encoded.segment_count(), 2);
        assert_eq!(encoded.segments()[1].as_ref().as_ptr(), body_ptr);
        // Body coverage reads the payload but still does not copy it.
        let covered = p.encode_with(true);
        assert_eq!(covered.segment_count(), 2);
        assert_eq!(covered.segments()[1].as_ref().as_ptr(), body_ptr);
    }

    #[test]
    fn decode_bytes_is_zero_copy_and_agrees() {
        let p = Packet::data(9, 2, 0, 0, 1, Gather::copy_from_slice(b"payload bytes"));
        let encoded = p.encode().to_bytes();
        let by_slice = Packet::decode_bytes(&encoded).unwrap();
        assert_eq!(by_slice, Packet::decode(&encoded).unwrap());
        // The body is a view into the datagram, not a copy.
        let body_ptr = by_slice.body.segments()[0].as_ref().as_ptr();
        let datagram_ptr = encoded.as_ref()[Packet::DATA_HEADER_SIZE..].as_ptr();
        assert_eq!(body_ptr, datagram_ptr);
    }

    #[test]
    fn decode_gather_is_zero_copy_and_agrees() {
        let body = Gather::copy_from_slice(b"payload bytes held in a region");
        let body_ptr = body.segments()[0].as_ref().as_ptr();
        let p = Packet::data(3, 8, 0, 1, 2, body);
        let encoded = p.encode();
        let decoded = Packet::decode_gather(&encoded).unwrap();
        assert_eq!(decoded, p);
        // The decoded body still points at the original payload segment.
        assert_eq!(decoded.body.segments()[0].as_ref().as_ptr(), body_ptr);
        assert_eq!(
            Packet::decode_gather(&Packet::ack(5, 12).encode()).unwrap(),
            Packet::ack(5, 12)
        );
    }

    #[test]
    fn decode_variants_reject_what_decode_rejects() {
        for bad in [
            Bytes::new(),
            Bytes::from_static(&[0x99, 0, 0]),
            Bytes::from_static(&[0x10, 1, 2]),
            Bytes::from_static(&[Packet::MAGIC, Packet::VERSION, 0, 0, 0, 0, 0, 0x10, 1]),
        ] {
            assert_eq!(
                Packet::decode_bytes(&bad).is_err(),
                Packet::decode(&bad).is_err(),
            );
            assert_eq!(
                Packet::decode_gather(&Gather::from_bytes(bad.clone())).is_err(),
                Packet::decode(&bad).is_err(),
            );
        }
    }

    proptest! {
        #[test]
        fn data_roundtrips(
            seq in any::<u64>(), msg_id in any::<u64>(), offset in any::<u64>(),
            frag_index in any::<u32>(), frag_count in any::<u32>(),
            body in proptest::collection::vec(any::<u8>(), 0..1024),
            cover_body in any::<bool>()
        ) {
            let p = Packet::data(seq, msg_id, offset, frag_index, frag_count, Gather::from_vec(body));
            let encoded = p.encode_with(cover_body);
            prop_assert_eq!(Packet::decode(&encoded.to_vec()).unwrap(), p.clone());
            prop_assert_eq!(Packet::decode_gather(&encoded).unwrap(), p);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Packet::decode(&bytes);
            let _ = Packet::decode_gather(&Gather::copy_from_slice(&bytes));
        }

        #[test]
        fn corruption_never_misparses(
            body in proptest::collection::vec(any::<u8>(), 1..256),
            flip in any::<usize>()
        ) {
            // Any single-bit flip in a body-covered datagram is either
            // rejected outright or (if it lands in the CRC field itself)
            // still rejected — it can never decode to a *different* packet.
            let p = Packet::data(1, 2, 0, 0, 1, Gather::from_vec(body));
            let mut bytes = p.encode_with(true).to_vec();
            let bit = flip % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(q) = Packet::decode(&bytes) {
                prop_assert_eq!(q, p);
            }
        }

        #[test]
        fn gather_iovec_bodies_roundtrip(
            segs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..200), 1..8),
            cover_body in any::<bool>()
        ) {
            // A body assembled from many iovec segments (the zero-copy
            // gather path) must encode and decode exactly like the same
            // bytes in one contiguous buffer.
            let mut body = Gather::new();
            for s in &segs {
                body.append(Gather::from_vec(s.clone()));
            }
            let flat: Vec<u8> = segs.concat();
            prop_assert_eq!(body.len(), flat.len());
            let p = Packet::data(7, 9, 0, 0, 1, body);
            let encoded = p.encode_with(cover_body);
            let q = Packet::decode(&encoded.to_vec()).unwrap();
            prop_assert_eq!(&q, &p);
            prop_assert_eq!(q.body.to_vec(), flat);
        }

        #[test]
        fn fragmentation_reassembles_at_any_mtu(
            msg in proptest::collection::vec(any::<u8>(), 1..8192),
            mtu in 1usize..2048,
            cover_body in any::<bool>()
        ) {
            // Slice a message at an arbitrary MTU — exercising every
            // fragment-boundary alignment, including the max-MTU single
            // fragment and the 1-byte pathological case — encode each
            // fragment as its own DATA packet over iovec slices of the
            // original (no copy), decode, and reassemble byte-exact.
            let whole = Gather::from_vec(msg.clone());
            let count = msg.len().div_ceil(mtu);
            let mut rebuilt = Vec::new();
            for i in 0..count {
                let off = i * mtu;
                let len = mtu.min(msg.len() - off);
                let frag = whole.slice(off, len);
                let p = Packet::data(i as u64, 42, off as u64, i as u32, count as u32, frag);
                let bytes = p.encode_with(cover_body).to_vec();
                prop_assert!(bytes.len() <= Packet::DATA_HEADER_SIZE + mtu);
                let q = Packet::decode(&bytes).unwrap();
                prop_assert_eq!(&q, &p);
                rebuilt.extend_from_slice(&q.body.to_vec());
            }
            prop_assert_eq!(rebuilt, msg);
        }
    }
}
