//! Property tests for the sockcomm frame codec: arbitrary
//! `(kind, ctx, src, tag, payload)` frames round-trip bit-exactly through
//! both the pure buffer codec and the stream IO path, and malformed input
//! (truncation anywhere, oversized or undersized length prefixes) is
//! rejected rather than misparsed or over-allocated. The IO path's
//! hand-rolled loops are driven through a reader that dribbles and a writer
//! that takes partial vectored writes, both interrupting at random, and
//! held against the pure codec byte for byte.

use proptest::prelude::*;
use sockcomm::frame::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, FrameError, FrameKind,
    HEADER_BYTES, MAX_PAYLOAD, PREFIX_BYTES,
};
use std::io::{self, IoSlice, Read, Write};

fn kind_from(byte: u8) -> FrameKind {
    match byte % 8 {
        0 => FrameKind::Hello,
        1 => FrameKind::Addr,
        2 => FrameKind::Params,
        3 => FrameKind::Table,
        4 => FrameKind::Data,
        5 => FrameKind::Goodbye,
        6 => FrameKind::Result,
        _ => FrameKind::Abort,
    }
}

/// Deterministic source of short counts and interruptions for the IO
/// doubles below (xorshift64).
struct Chop {
    state: u64,
    /// Most bytes moved per call.
    most: usize,
}

impl Chop {
    fn new(seed: u64, most: usize) -> Self {
        Self {
            state: seed | 1,
            most,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// `Err(Interrupted)` one call in four, else a count in `1..=most`.
    fn count(&mut self) -> io::Result<usize> {
        if self.next().is_multiple_of(4) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        Ok(1 + self.next() as usize % self.most)
    }
}

/// A `Read` that hands out at most `chop.most` bytes per call.
struct Dribble<'a> {
    data: &'a [u8],
    chop: Chop,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.chop.count()?.min(buf.len()).min(self.data.len());
        let (head, tail) = self.data.split_at(n);
        buf[..n].copy_from_slice(head);
        self.data = tail;
        Ok(n)
    }
}

/// A `Write` that accepts at most `chop.most` bytes per call, across
/// however many of the offered slices that covers.
struct Trickle {
    wire: Vec<u8>,
    chop: Chop,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let budget = self.chop.count()?;
        let mut taken = 0;
        for buf in bufs {
            let n = buf.len().min(budget - taken);
            self.wire.extend_from_slice(&buf[..n]);
            taken += n;
        }
        Ok(taken)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The re-copy cannot come back unnoticed: whatever part of a frame the
/// writer is offered, the last slice is the rest of `frame.payload` — that
/// memory, not a copy of it — and the prefix in front of it is not a
/// frame-sized buffer.
#[test]
fn payload_is_written_from_where_it_lies() {
    struct Spy<'a> {
        payload: &'a [u8],
        offered: usize,
    }
    impl Write for Spy<'_> {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            panic!("a frame must go out through write_vectored");
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let rest = bufs.last().expect("never called with nothing to write");
            let end = self.payload.as_ptr_range().end;
            assert!(rest.len() <= self.payload.len());
            assert_eq!(rest.as_ptr_range().end, end, "not frame.payload's memory");
            let total: usize = bufs.iter().map(|b| b.len()).sum();
            assert!(total - rest.len() <= PREFIX_BYTES);
            self.offered += 1;
            Ok(total.min(13)) // short: exercises the advance past the prefix
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let frame = Frame::control(FrameKind::Data, 3, (0..200u8).collect());
    let mut spy = Spy {
        payload: &frame.payload,
        offered: 0,
    };
    write_frame(&mut spy, &frame).expect("spy accepts everything eventually");
    assert_eq!(spy.offered, (PREFIX_BYTES + 200).div_ceil(13));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_frame_round_trips(
        kind_byte in any::<u8>(),
        ctx in any::<u64>(),
        src in any::<u32>(),
        tag in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = Frame { kind: kind_from(kind_byte), ctx, src, tag, payload };

        // Pure codec round-trip.
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        prop_assert_eq!(buf.len(), 8 + HEADER_BYTES + frame.payload.len());
        let (decoded, consumed) = decode_frame(&buf).expect("well-formed frame must decode");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(&decoded, &frame);

        // Stream round-trip (the path real connections take), plus clean
        // EOF at the frame boundary.
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("vec write cannot fail");
        prop_assert_eq!(&wire, &buf);
        let mut cursor = std::io::Cursor::new(wire);
        let back = read_frame(&mut cursor).expect("read").expect("one frame present");
        prop_assert_eq!(&back, &frame);
        prop_assert!(read_frame(&mut cursor).expect("boundary EOF is clean").is_none());
    }

    #[test]
    fn truncation_anywhere_is_rejected(
        kind_byte in any::<u8>(),
        ctx in any::<u64>(),
        src in any::<u32>(),
        tag in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_seed in any::<u64>(),
    ) {
        let frame = Frame { kind: kind_from(kind_byte), ctx, src, tag, payload };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        // Cut the buffer strictly short at an arbitrary point.
        let cut = (cut_seed as usize) % buf.len();
        let short = &buf[..cut];

        prop_assert_eq!(decode_frame(short).unwrap_err(), FrameError::Truncated);

        let mut cursor = std::io::Cursor::new(short.to_vec());
        match read_frame(&mut cursor) {
            // Zero bytes is a clean between-frames EOF by design.
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(f)) => prop_assert!(false, "parsed a frame from a truncated buffer: {f:?}"),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        }
    }

    #[test]
    fn bad_length_prefixes_are_rejected(raw_len in any::<u64>(), tail in any::<u8>()) {
        // Only lengths outside [HEADER_BYTES, HEADER_BYTES + MAX_PAYLOAD]
        // are invalid; fold the generated value onto the invalid set.
        let len = if (HEADER_BYTES as u64..=(HEADER_BYTES + MAX_PAYLOAD) as u64).contains(&raw_len) {
            if tail.is_multiple_of(2) { raw_len % HEADER_BYTES as u64 } else { u64::MAX - raw_len % 1024 }
        } else {
            raw_len
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_ne_bytes());
        buf.extend_from_slice(&[tail; 64]);

        prop_assert_eq!(decode_frame(&buf).unwrap_err(), FrameError::BadLength(len));

        // The IO path must reject before allocating `len` bytes.
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("bad length must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_kind_bytes_are_rejected(bad_kind in 9u8..=255u8, payload_len in 0usize..32) {
        let frame = Frame::control(FrameKind::Hello, 1, vec![0xAB; payload_len]);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        buf[8] = bad_kind;
        prop_assert_eq!(decode_frame(&buf).unwrap_err(), FrameError::BadKind(bad_kind));
    }

    #[test]
    fn io_loops_survive_short_and_interrupted_calls(
        kind_byte in any::<u8>(),
        ctx in any::<u64>(),
        src in any::<u32>(),
        tag in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        most in 1usize..48,
        seed in any::<u64>(),
    ) {
        let frame = Frame { kind: kind_from(kind_byte), ctx, src, tag, payload };
        let mut oracle = Vec::new();
        encode_frame(&frame, &mut oracle);

        // Partial vectored writes put exactly the codec's bytes on the wire.
        let mut out = Trickle { wire: Vec::new(), chop: Chop::new(seed, most) };
        write_frame(&mut out, &frame).expect("interruptions are retried");
        prop_assert_eq!(&out.wire, &oracle);

        // Dribbled reads reassemble the frame, then see a clean EOF.
        let mut input = Dribble { data: &out.wire, chop: Chop::new(!seed, most) };
        let back = read_frame(&mut input).expect("read").expect("one frame present");
        prop_assert_eq!(&back, &frame);
        prop_assert!(read_frame(&mut input).expect("boundary EOF is clean").is_none());

        // EOF at byte 0 is a boundary; anywhere else — inside the length
        // prefix, the header or the payload — it is an error.
        for cut in 0..oracle.len() {
            let mut input = Dribble { data: &oracle[..cut], chop: Chop::new(seed ^ cut as u64, most) };
            match read_frame(&mut input) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Ok(Some(f)) => prop_assert!(false, "parsed a frame from {cut} bytes: {f:?}"),
                Err(e) => {
                    prop_assert!(cut > 0);
                    prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {}", cut);
                }
            }
        }
    }
}
