//! Length-prefixed framing for the sockets backend.
//!
//! Every byte that crosses a sockcomm connection is part of a frame:
//!
//! ```text
//! [len: u64][kind: u8][ctx: u64][src: u32][tag: u64][payload: len - 21 bytes]
//! ```
//!
//! `len` counts everything after itself (kind + header + payload) so a
//! reader can pull exactly one frame off the stream without inspecting the
//! payload. The `(ctx, src, tag)` header carries the mailbox-matching key
//! for [`FrameKind::Data`] frames; control frames reuse the same layout
//! (usually with `ctx = 0`, `tag = 0`) so there is exactly one codec to
//! get right. Integers are host-native byte order — the launcher re-execs
//! the same binary on the same host for every rank, so both ends agree by
//! construction (see `comm::wire`).
//!
//! The codec is split into pure buffer functions ([`encode_frame`] /
//! [`decode_frame`]) that the property tests drive and hold the IO path
//! against, and the IO functions the transport uses, which touch a payload
//! once per side: [`write_frame`] / [`write_parts`] fill the 29-byte prefix
//! on the stack and write it and the payload *where it lies* with one
//! vectored write (no frame buffer is assembled), and [`read_frame`] reads
//! the prefix, rejects a bad length or kind before allocating anything,
//! then reads the payload once into the `Vec` the [`Frame`] keeps. A rank's
//! reader threads use [`read_data_frame`], the same reader with the payload
//! read into 8-byte words ([`Payload`]), which a chunk of 8-byte-aligned
//! pod records becomes without a decode pass.

use comm::wire::Payload;
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on a frame's payload size. Nothing in a sort exchange comes
/// near this (the exchange ships at most one rank's partition per frame);
/// its real job is to reject garbage length prefixes — a corrupt or
/// malicious `len` must fail fast, not allocate 16 EiB.
pub const MAX_PAYLOAD: usize = 1 << 32;

/// Bytes of frame after the length prefix, before the payload:
/// kind (1) + ctx (8) + src (4) + tag (8).
pub const HEADER_BYTES: usize = 21;

/// Bytes of frame in front of the payload: length prefix + header.
pub const PREFIX_BYTES: usize = 8 + HEADER_BYTES;

/// What a frame means. The discriminants are the wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Rank introduction on a new connection (`src` = sender's rank).
    Hello = 1,
    /// Child → launcher: payload is the child's data-plane listen address.
    Addr = 2,
    /// Launcher → child: payload is the encoded entry parameters.
    Params = 3,
    /// Launcher → child: payload is the encoded peer address table.
    Table = 4,
    /// Rank → rank: a message for the `(ctx, src, tag)` mailbox.
    Data = 5,
    /// Rank → rank: orderly close. EOF *after* a goodbye is teardown;
    /// EOF *without* one is a dead peer.
    Goodbye = 6,
    /// Child → launcher: payload is the encoded entry result + stats.
    Result = 7,
    /// Child → launcher: payload names a dead peer and the diagnostic.
    Abort = 8,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::Hello),
            2 => Some(Self::Addr),
            3 => Some(Self::Params),
            4 => Some(Self::Table),
            5 => Some(Self::Data),
            6 => Some(Self::Goodbye),
            7 => Some(Self::Result),
            8 => Some(Self::Abort),
            _ => None,
        }
    }
}

/// One decoded frame. Its payload is a byte vector, except on a rank's data
/// connections, where [`read_data_frame`] reads it into a [`Payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P = Vec<u8>> {
    /// What the frame means.
    pub kind: FrameKind,
    /// Communicator context id (0 for control frames).
    pub ctx: u64,
    /// Sender's world rank.
    pub src: u32,
    /// Mailbox tag (0 for control frames).
    pub tag: u64,
    /// Frame payload.
    pub payload: P,
}

impl Frame {
    /// A control frame: `(ctx, tag)` zero, just kind, source and payload.
    pub fn control(kind: FrameKind, src: u32, payload: Vec<u8>) -> Self {
        Self {
            kind,
            ctx: 0,
            src,
            tag: 0,
            payload,
        }
    }
}

impl Frame<()> {
    /// This header around `payload`.
    fn carrying<P>(self, payload: P) -> Frame<P> {
        Frame {
            kind: self.kind,
            ctx: self.ctx,
            src: self.src,
            tag: self.tag,
            payload,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the advertised frame does.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`] (or is shorter than the
    /// fixed header, which no encoder produces).
    BadLength(u64),
    /// Unknown frame-kind discriminant.
    BadKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated frame"),
            Self::BadLength(len) => write!(
                f,
                "bad frame length {len} (valid: {HEADER_BYTES}..={})",
                HEADER_BYTES + MAX_PAYLOAD
            ),
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Everything in front of a payload of `payload_len` bytes. The one place
/// that writes the layout.
fn encode_prefix(
    kind: FrameKind,
    ctx: u64,
    src: u32,
    tag: u64,
    payload_len: usize,
) -> [u8; PREFIX_BYTES] {
    let mut prefix = [0u8; PREFIX_BYTES];
    prefix[..8].copy_from_slice(&((HEADER_BYTES + payload_len) as u64).to_ne_bytes());
    prefix[8] = kind as u8;
    prefix[9..17].copy_from_slice(&ctx.to_ne_bytes());
    prefix[17..21].copy_from_slice(&src.to_ne_bytes());
    prefix[21..].copy_from_slice(&tag.to_ne_bytes());
    prefix
}

/// Append the frame's encoding to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&encode_prefix(
        frame.kind,
        frame.ctx,
        frame.src,
        frame.tag,
        frame.payload.len(),
    ));
    out.extend_from_slice(&frame.payload);
}

fn fixed<const N: usize>(src: &[u8], at: usize) -> Result<[u8; N], FrameError> {
    src.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(FrameError::Truncated)
}

/// The payload length announced by the length prefix at the front of
/// `src`, if it is one an encoder can have produced.
fn payload_len(src: &[u8]) -> Result<usize, FrameError> {
    let len = u64::from_ne_bytes(fixed(src, 0)?);
    usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_sub(HEADER_BYTES))
        .filter(|&payload| payload <= MAX_PAYLOAD)
        .ok_or(FrameError::BadLength(len))
}

/// Parse the header (what follows the length prefix) into a frame without
/// its payload. The one place that reads the layout.
fn decode_header(header: &[u8]) -> Result<Frame<()>, FrameError> {
    let kind_byte = *header.first().ok_or(FrameError::Truncated)?;
    Ok(Frame {
        kind: FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?,
        ctx: u64::from_ne_bytes(fixed(header, 1)?),
        src: u32::from_ne_bytes(fixed(header, 9)?),
        tag: u64::from_ne_bytes(fixed(header, 13)?),
        payload: (),
    })
}

/// Decode one frame from the front of `src`, returning it and the number
/// of bytes consumed.
pub fn decode_frame(src: &[u8]) -> Result<(Frame, usize), FrameError> {
    let end = PREFIX_BYTES + payload_len(src)?;
    if src.len() < end {
        return Err(FrameError::Truncated);
    }
    let header = decode_header(&src[8..PREFIX_BYTES])?;
    Ok((header.carrying(src[PREFIX_BYTES..end].to_vec()), end))
}

/// The sender's half of the [`MAX_PAYLOAD`] contract: a payload the
/// receiver would refuse is refused here, before a byte of it is written,
/// so the failure is reported where it was caused.
fn check_payload_len(len: usize) -> io::Result<()> {
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the cap of {MAX_PAYLOAD} bytes"),
        ));
    }
    Ok(())
}

/// Write one frame to a stream: the prefix from the stack and
/// `frame.payload` in place, allocating nothing.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_parts(
        w,
        frame.kind,
        frame.ctx,
        frame.src,
        frame.tag,
        &frame.payload,
    )
}

/// [`write_frame`] for a payload the caller only borrows (a `Wire` byte
/// view of the records being sent): same bytes on the stream, no [`Frame`]
/// to build. `InvalidInput`, with nothing written, if the payload is over
/// [`MAX_PAYLOAD`].
pub fn write_parts(
    w: &mut impl Write,
    kind: FrameKind,
    ctx: u64,
    src: u32,
    tag: u64,
    payload: &[u8],
) -> io::Result<()> {
    check_payload_len(payload.len())?;
    let prefix = encode_prefix(kind, ctx, src, tag, payload.len());
    let mut bufs = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    // `Write::write_all_vectored` is unstable; this is its loop. A writer
    // may take any part of the two slices per call.
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read exactly one frame from a stream. `Ok(None)` on clean EOF at a
/// frame boundary; an EOF mid-frame is an `UnexpectedEof` error. The
/// payload is read once, into the one allocation the frame keeps, and only
/// after the length and kind in front of it were accepted.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    read_frame_with(r, |r, len| {
        // Straight into the spare capacity: a zero-filled `Vec` would write
        // the whole payload once before the first byte is read into it.
        // (`std` still zeroes what it lends a reader without `read_buf`,
        // but a window at a time — 256 KiB at most here — just ahead of the
        // read.)
        let mut payload = comm::pages::with_capacity(len);
        if r.take(len as u64).read_to_end(&mut payload)? < len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(payload)
    })
}

/// [`read_frame`] for a rank's data connection: the payload is read into
/// 8-byte words ([`Payload::read_from`]), so a chunk of 8-byte-aligned pod
/// records is decoded by becoming the records.
pub fn read_data_frame(r: &mut impl Read) -> io::Result<Option<Frame<Payload>>> {
    read_frame_with(r, |r, len| Payload::read_from(r, len))
}

/// The one frame reader: prefix, checks, then `read_payload(r, len)`.
fn read_frame_with<R: Read, P>(
    r: &mut R,
    read_payload: impl FnOnce(&mut R, usize) -> io::Result<P>,
) -> io::Result<Option<Frame<P>>> {
    let mut prefix = [0u8; PREFIX_BYTES];
    // Hand-rolled so EOF-before-any-byte is distinguishable from EOF
    // mid-prefix.
    let mut filled = 0;
    while filled < PREFIX_BYTES {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (prefix)",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let invalid = |e: FrameError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let len = payload_len(&prefix).map_err(invalid)?;
    let header = decode_header(&prefix[8..]).map_err(invalid)?;
    let payload = read_payload(r, len).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame (payload)",
        ),
        _ => e,
    })?;
    Ok(Some(header.carrying(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Addr,
            FrameKind::Params,
            FrameKind::Table,
            FrameKind::Data,
            FrameKind::Goodbye,
            FrameKind::Result,
            FrameKind::Abort,
        ] {
            let frame = Frame {
                kind,
                ctx: 0xDEAD_BEEF,
                src: 7,
                tag: 42,
                payload: vec![1, 2, 3, 4, 5],
            };
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let (back, used) = decode_frame(&buf).expect("valid frame");
            assert_eq!(back, frame);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn io_round_trip_through_a_cursor() {
        let frame = Frame::control(FrameKind::Result, 3, b"payload".to_vec());
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("vec write");
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).expect("read").expect("one frame");
        assert_eq!(back, frame);
        assert!(read_frame(&mut cursor).expect("clean EOF").is_none());
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_none() {
        let frame = Frame::control(FrameKind::Hello, 0, vec![9; 64]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("vec write");
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("mid-frame EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_ne_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode_frame(&buf),
            Err(FrameError::BadLength(u64::MAX))
        ));
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sender_refuses_exactly_what_the_receiver_would() {
        // The length check on its own: a payload over the cap cannot be
        // built in a test, and need not be.
        check_payload_len(0).expect("empty payload");
        check_payload_len(MAX_PAYLOAD).expect("the cap itself is allowed");
        let err = check_payload_len(MAX_PAYLOAD + 1).expect_err("one byte over");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(
            msg.contains(&(MAX_PAYLOAD + 1).to_string()) && msg.contains(&MAX_PAYLOAD.to_string()),
            "must name size and cap: {msg}"
        );
        // Same boundary on the receiving side.
        let max_len = (HEADER_BYTES + MAX_PAYLOAD) as u64;
        assert_eq!(payload_len(&max_len.to_ne_bytes()), Ok(MAX_PAYLOAD));
        assert_eq!(
            payload_len(&(max_len + 1).to_ne_bytes()),
            Err(FrameError::BadLength(max_len + 1))
        );
    }

    #[test]
    fn bad_kind_is_rejected_on_the_stream_before_the_payload_is_allocated() {
        // A valid length announcing the largest payload, an unknown kind,
        // and no payload bytes at all: had the payload been allocated (or
        // waited for) first, this would be 4 GiB or UnexpectedEof.
        let mut buf = encode_prefix(FrameKind::Data, 0, 0, 0, MAX_PAYLOAD).to_vec();
        buf[8] = 250;
        let err = read_frame(&mut io::Cursor::new(buf)).expect_err("unknown kind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown frame kind 250"), "{err}");
    }

    #[test]
    fn unknown_kind_rejected() {
        let frame = Frame::control(FrameKind::Hello, 0, Vec::new());
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        buf[8] = 250;
        assert_eq!(decode_frame(&buf), Err(FrameError::BadKind(250)));
    }
}
