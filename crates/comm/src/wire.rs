//! Wire encoding for message payloads.
//!
//! The simulator and the threads backend move payloads through one address
//! space, so they never serialize: a `Vec<T>` is boxed, handed over, and
//! downcast on the receiving rank. A *distributed* backend (process per
//! rank over sockets, `crates/sockcomm`) has no shared address space — every
//! payload must cross the wire as bytes. [`Wire`] is the contract that makes
//! that possible: any `T` sent through a [`crate::Communicator`] knows how to
//! encode itself onto a byte buffer and decode itself back.
//!
//! ## Format
//!
//! Host-native byte order, fixed layouts per type (documented on each impl).
//! The format never crosses machines: the launcher re-execs *the same
//! binary* for every rank on one host, so native endianness and pointer
//! width are identical on both ends by construction. What the format *does*
//! guarantee is self-consistency: `get` inverts `put` and `get_into` /
//! `get_vec` invert `put_slice`, byte for byte. It is the only byte format
//! records have:
//! `sdssort`'s spilled run files are `put_slice` bytes too, written and read
//! back by one process.
//!
//! ## Zero-copy record buffers
//!
//! The hot path of a sort exchange is a large `Vec<K>` of keys or records.
//! For a pod type — no padding, every bit pattern valid, its encoding its
//! own bytes in memory order — the slice's memory *is* its encoding. Such a
//! type says so with [`Wire::POD`], a [`Pod`] proof that only `unsafe` code
//! can make: the primitive scalars here, fixed-size arrays of pods, and
//! whatever pod records a crate above builds from them. For those
//! [`Wire::as_wire_bytes`] hands the memory out borrowed, so a transport can
//! write it without an intermediate buffer, [`Wire::put_slice`] is one
//! `memcpy` of that view, [`Wire::get_into`] is one `memcpy` onto the end of
//! the receiver's buffer, and a received [`Payload`] of 8-byte-aligned pods
//! *becomes* the records. Everything else (tuples, records with padding)
//! takes the element-wise loop, which sidesteps padding bytes entirely; the
//! loops reserve once from the size of their input.

use crate::pages;
use std::io::{self, Read};
use std::marker::PhantomData;
use std::mem::ManuallyDrop;

/// Proof that `T`'s memory is its wire encoding: `T` has no padding bytes,
/// every bit pattern of its size is a valid `T`, and [`Wire::put`] appends
/// exactly its `size_of::<T>()` bytes as they lie in memory. The bulk paths
/// copy raw bytes into `T`s on the strength of it, so only `unsafe` code can
/// make one ([`Pod::new`]).
pub struct Pod<T>(PhantomData<fn() -> T>);

impl<T> Pod<T> {
    /// The proof.
    ///
    /// # Safety
    ///
    /// `T` has no padding bytes and no invalid bit patterns, and
    /// `T::put` appends exactly the `size_of::<T>()` bytes of the value in
    /// memory order: the bytes of a `&[T]` are the slice's encoding, and any
    /// such bytes are `T`s.
    pub const unsafe fn new() -> Self {
        Self(PhantomData)
    }
}

impl<T> Clone for Pod<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Pod<T> {}

impl<T> std::fmt::Debug for Pod<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Pod")
    }
}

/// `T`'s size when `T` is a pod of non-zero size: what the bulk paths copy
/// per element.
fn pod_size<T: Wire>() -> Option<usize> {
    T::POD
        .map(|_| std::mem::size_of::<T>())
        .filter(|&size| size > 0)
}

/// A value that can cross a process boundary as bytes.
///
/// Implementations must be self-consistent round-trips:
/// `get(put(x)) == x` and `get_vec(put_slice(xs)) == xs`. Decoding must be
/// total over the format — malformed input returns `None` / `false`, never
/// panics — because the bytes arrive from another process.
///
/// `Sync` because a threads-backend receiver reads a sender's buffer in
/// place ([`crate::Run`]); every implementor is plain data.
pub trait Wire: Clone + Send + Sync + 'static {
    /// `Some` when the type's memory is its encoding ([`Pod`]); the bulk
    /// paths below are then single copies.
    const POD: Option<Pod<Self>> = None;

    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `src`, advancing the slice past
    /// the consumed bytes. `None` if `src` is truncated or malformed.
    fn get(src: &mut &[u8]) -> Option<Self>;

    /// The slice's encoding, borrowed, when the slice's own memory is
    /// exactly the bytes [`Wire::put_slice`] would append (pod types);
    /// `None` when encoding has to build them.
    fn as_wire_bytes(items: &[Self]) -> Option<&[u8]> {
        Self::POD?;
        // SAFETY: `Self` is a pod (`Self::POD`): no padding bytes, so every
        // byte of the slice is initialized and may be viewed as `u8` for as
        // long as `items` is borrowed.
        Some(unsafe {
            std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
        })
    }

    /// Bulk-encode a slice: one copy of a pod slice's memory, element-wise
    /// otherwise.
    fn put_slice(items: &[Self], out: &mut Vec<u8>) {
        if let Some(bytes) = Self::as_wire_bytes(items) {
            out.extend_from_slice(bytes);
            return;
        }
        // A hint, bounded by the input's own size: exact for fixed-size
        // types without padding, an over-estimate with padding.
        out.reserve(std::mem::size_of_val(items));
        for item in items {
            item.put(out);
        }
    }

    /// Decode an entire buffer onto the end of `out`, consuming every byte:
    /// one copy for a pod, element-wise otherwise. `false` — with `out` left
    /// as it was — if the buffer is truncated mid-element or has trailing
    /// garbage.
    fn get_into(src: &[u8], out: &mut Vec<Self>) -> bool {
        if let Some(size) = pod_size::<Self>() {
            if !src.len().is_multiple_of(size) {
                return false;
            }
            let n = src.len() / size;
            pages::reserve(out, n);
            // SAFETY: `Self` is a pod, so every bit pattern of its size is
            // a valid value; the destination has spare capacity for `n`
            // elements past its length (reserved above), and the source
            // holds exactly `n * size` bytes (checked above).
            // `copy_nonoverlapping` via u8 pointers tolerates any source
            // alignment.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr(),
                    out.as_mut_ptr().add(out.len()).cast::<u8>(),
                    src.len(),
                );
                out.set_len(out.len() + n);
            }
            return true;
        }
        let start = out.len();
        // A hint bounded by the buffer's own length, so a corrupt buffer
        // cannot over-allocate: exact for fixed-size types without padding.
        pages::reserve(out, src.len() / std::mem::size_of::<Self>().max(1));
        let mut cursor = src;
        while !cursor.is_empty() {
            match Self::get(&mut cursor) {
                Some(item) => out.push(item),
                None => {
                    out.truncate(start);
                    return false;
                }
            }
        }
        true
    }

    /// [`Wire::get_into`] a fresh vector; `None` where it returns `false`.
    fn get_vec(src: &[u8]) -> Option<Vec<Self>> {
        let mut out = Vec::new();
        Self::get_into(src, &mut out).then_some(out)
    }
}

/// Split `count` bytes off the front of `src`, advancing it.
#[inline]
fn take<'a>(src: &mut &'a [u8], count: usize) -> Option<&'a [u8]> {
    if src.len() < count {
        return None;
    }
    let (head, tail) = src.split_at(count);
    *src = tail;
    Some(head)
}

/// Implements [`Wire`] for pod scalars: no padding, every bit pattern
/// valid, encoded as their native-endian bytes. A slice is its own
/// encoding; the bulk paths are a single `memcpy` of the whole buffer.
macro_rules! wire_pod {
    ($($ty:ty),+ $(,)?) => {$(
        impl Wire for $ty {
            // SAFETY: a primitive integer or float has no padding, every
            // bit pattern of it is a value, and `put` appends its
            // native-endian bytes, which are its bytes in memory.
            const POD: Option<Pod<Self>> = Some(unsafe { Pod::new() });

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_ne_bytes());
            }

            #[inline]
            fn get(src: &mut &[u8]) -> Option<Self> {
                let bytes = take(src, std::mem::size_of::<$ty>())?;
                Some(<$ty>::from_ne_bytes(bytes.try_into().ok()?))
            }
        }
    )+};
}

wire_pod!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

// `usize`/`isize` encode as their native width (the two ends are the same
// binary on the same host, so widths agree by construction).
wire_pod!(usize, isize);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        match u8::get(src)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for char {
    fn put(&self, out: &mut Vec<u8>) {
        u32::from(*self).put(out);
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        char::from_u32(u32::get(src)?)
    }
}

/// Length-prefixed (u64 count) UTF-8 bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::get(src)?).ok()?;
        let bytes = take(src, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Length-prefixed (u64 count) element sequence.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for item in self {
            item.put(out);
        }
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::get(src)?).ok()?;
        // Cap the pre-allocation: a corrupt length must not OOM the decoder.
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::get(src)?);
        }
        Some(out)
    }
}

/// One presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        match u8::get(src)? {
            0 => Some(None),
            1 => Some(Some(T::get(src)?)),
            _ => None,
        }
    }
}

/// One variant byte, then the value or the error.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.put(out);
            }
            Err(e) => {
                out.push(1);
                e.put(out);
            }
        }
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        match u8::get(src)? {
            0 => Some(Ok(T::get(src)?)),
            1 => Some(Err(E::get(src)?)),
            _ => None,
        }
    }
}

/// Fixed-count element sequence (no length prefix; the count is the type).
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const POD: Option<Pod<Self>> = if T::POD.is_some() {
        // SAFETY: an array has no padding between or around its elements
        // (its size is `N` times theirs), so an array of pods is a pod, and
        // `put` appends the elements' bytes in index order: memory order.
        Some(unsafe { Pod::new() })
    } else {
        None
    };

    fn put(&self, out: &mut Vec<u8>) {
        for item in self {
            item.put(out);
        }
    }

    fn get(src: &mut &[u8]) -> Option<Self> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(src)?;
        }
        Some(out)
    }
}

macro_rules! wire_tuple {
    ($(($($name:ident $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$idx.put(out);)+
            }

            fn get(src: &mut &[u8]) -> Option<Self> {
                Some(($($name::get(src)?,)+))
            }
        }
    )+};
}

wire_tuple!(
    (A 0),
    (A 0, B 1),
    (A 0, B 1, C 2),
    (A 0, B 1, C 2, D 3),
    (A 0, B 1, C 2, D 3, E 4),
    (A 0, B 1, C 2, D 3, E 4, F 5),
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6),
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7),
);

/// Most bytes [`Payload::read_from`] zeroes ahead of one read.
const READ_WINDOW: usize = 256 << 10;

/// Bytes that arrived from another process, held in 8-byte words from
/// [`pages`]. A payload of pods whose alignment is 8 — `u64`s, 16-byte
/// key/tag records — is decoded by *becoming* the records
/// ([`Payload::decode_into`]): the words' allocation is the `Vec<T>`, and
/// no byte is copied in user space after the socket's read.
#[derive(Debug)]
pub struct Payload {
    words: Vec<u64>,
    len: usize,
}

impl Payload {
    /// Read exactly `len` bytes from `r`. Each window of the buffer is
    /// zeroed just ahead of the read into it, as `read_to_end` does for a
    /// reader without `read_buf`, so a reader never sees uninitialised
    /// memory and no zeroing pass runs over the whole buffer first.
    /// `UnexpectedEof` if `r` ends before `len` bytes.
    pub fn read_from(r: &mut impl Read, len: usize) -> io::Result<Self> {
        let mut words: Vec<u64> = pages::with_capacity(len.div_ceil(8));
        let mut filled = 0;
        while filled < len {
            let end = len.min(filled + READ_WINDOW);
            words.resize(end.div_ceil(8), 0);
            r.read_exact(&mut bytes_mut(&mut words)[filled..end])?;
            filled = end;
        }
        Ok(Self { words, len })
    }

    /// The bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &u64::as_wire_bytes(&self.words).expect("u64 is a pod")[..self.len]
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decode the payload onto the end of `out`, as [`Wire::get_into`]
    /// does, with the same verdict. When `out` owns no buffer yet and `T`
    /// is a pod of alignment 8 whose size divides the payload, the payload's
    /// words become `out` instead: no copy, no pass.
    pub fn decode_into<T: Wire>(self, out: &mut Vec<T>) -> bool {
        let payload = if out.capacity() == 0 {
            match self.into_records() {
                Ok(records) => {
                    *out = records;
                    return true;
                }
                Err(payload) => payload,
            }
        } else {
            self
        };
        T::get_into(payload.as_bytes(), out)
    }

    /// The words' allocation as a `Vec<T>`, where `T`'s layout allows it.
    fn into_records<T: Wire>(self) -> Result<Vec<T>, Self> {
        let Some(size) = pod_size::<T>() else {
            return Err(self);
        };
        let bytes = self.words.capacity() * 8;
        if std::mem::align_of::<T>() != 8
            || !self.len.is_multiple_of(size)
            || !bytes.is_multiple_of(size)
        {
            return Err(self);
        }
        if bytes == 0 {
            return Ok(Vec::new());
        }
        // Ownership passes to the `Vec<T>`: the words are not freed here.
        let mut words = ManuallyDrop::new(self.words);
        // SAFETY: the global allocator gave this allocation the layout
        // (`bytes`, align 8) = `Layout::array::<T>(bytes / size)`, since
        // `align_of::<T>() == 8` and `size` divides `bytes`: the `Vec<T>`
        // frees it as it was allocated. Its first `len` bytes were read into
        // and `T` is a pod, so they are `len / size` valid `T`s; the
        // capacity `bytes / size` is at least that.
        Ok(unsafe {
            Vec::from_raw_parts(
                words.as_mut_ptr().cast::<T>(),
                self.len / size,
                bytes / size,
            )
        })
    }
}

/// A copy of `bytes`, as if read off a stream.
impl From<&[u8]> for Payload {
    fn from(mut bytes: &[u8]) -> Self {
        let len = bytes.len();
        Self::read_from(&mut bytes, len).expect("a slice holds its own length")
    }
}

/// The bytes of `words`, writable.
fn bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: every byte of an initialised `u64` is an initialised `u8`,
    // every `u8` written leaves a valid `u64`, `u8` needs no alignment, and
    // the view borrows `words` mutably for as long as it lives.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.put(&mut buf);
        let mut src = &buf[..];
        assert_eq!(T::get(&mut src), Some(v));
        assert!(src.is_empty(), "decode must consume every byte");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-17i64);
        round_trip(u128::MAX - 5);
        round_trip(3.25f64);
        round_trip(f32::NEG_INFINITY);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip('λ');
    }

    #[test]
    fn composites_round_trip() {
        round_trip("hëllo wire".to_string());
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip((1u8, 2u64, -3i32));
        round_trip((true, Some(7u64), "x".to_string(), vec![1u16]));
        round_trip([1.5f32, -2.0, 0.0]);
        round_trip((false, Option::<u64>::None, Option::<u64>::Some(9)));
    }

    #[test]
    fn bulk_pod_matches_element_wise() {
        let items: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut bulk = Vec::new();
        u64::put_slice(&items, &mut bulk);
        let mut elem = Vec::new();
        for it in &items {
            it.put(&mut elem);
        }
        assert_eq!(bulk, elem, "pod bulk path must match the element loop");
        assert_eq!(u64::get_vec(&bulk), Some(items));
    }

    #[test]
    fn get_vec_rejects_ragged_pod_buffers() {
        let mut buf = Vec::new();
        u64::put_slice(&[1u64, 2], &mut buf);
        buf.pop();
        assert_eq!(u64::get_vec(&buf), None);
    }

    /// For every pod type: the borrowed view is the slice's own memory and
    /// is byte-for-byte what `put_slice` and the element loop produce, and
    /// it decodes back to the slice.
    macro_rules! pod_view_checks {
        ($($ty:ty),+) => {$({
            let items: Vec<$ty> = (0..37u8).map(|i| (i.wrapping_mul(97) >> 1) as $ty).collect();
            let view = <$ty>::as_wire_bytes(&items).expect("pod types expose their bytes");
            assert_eq!(view.as_ptr(), items.as_ptr().cast::<u8>(), "view must borrow, not copy");
            let mut bulk = Vec::new();
            <$ty>::put_slice(&items, &mut bulk);
            let mut elem = Vec::new();
            for it in &items {
                it.put(&mut elem);
            }
            assert_eq!(view, &bulk[..], "{}", stringify!($ty));
            assert_eq!(view, &elem[..], "{}", stringify!($ty));
            assert_eq!(<$ty>::get_vec(view), Some(items));
            assert_eq!(<$ty>::as_wire_bytes(&[]), Some(&[][..]));
        })+};
    }

    #[test]
    fn as_wire_bytes_is_put_slice_for_every_pod_type() {
        pod_view_checks!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64, usize, isize);
        // Composite types have no such view: padding may not reach the wire.
        assert_eq!(<(u32, u64)>::as_wire_bytes(&[(1, 2)]), None);
        assert_eq!(bool::as_wire_bytes(&[true]), None);
    }

    #[test]
    fn arrays_of_pods_are_pods() {
        let items: Vec<[u64; 2]> = (0..9u64).map(|i| [i << 40, !i]).collect();
        let view = <[u64; 2]>::as_wire_bytes(&items).expect("an array of pods is a pod");
        assert_eq!(view.as_ptr(), items.as_ptr().cast::<u8>());
        let mut elem = Vec::new();
        for it in &items {
            it.put(&mut elem);
        }
        assert_eq!(view, &elem[..]);
        assert_eq!(<[u64; 2]>::get_vec(view).as_ref(), Some(&items));
        assert_eq!(<[u64; 2]>::get_vec(&view[..view.len() - 8]), None, "ragged");
        assert!(<[u8; 3]>::POD.is_some());
        assert!(<[bool; 2]>::POD.is_none());
        assert!(<[(u8, u64); 2]>::POD.is_none());
    }

    #[test]
    fn payload_reads_exactly_its_length_a_window_at_a_time() {
        let bytes: Vec<u8> = (0..2 * READ_WINDOW + 13).map(|i| (i * 31) as u8).collect();
        let payload = Payload::read_from(&mut &bytes[..], bytes.len()).expect("all there");
        assert_eq!(
            (payload.len(), payload.as_bytes()),
            (bytes.len(), &bytes[..])
        );
        let mut rest = &bytes[..];
        let head = Payload::read_from(&mut rest, 5).expect("a prefix");
        assert_eq!(
            (head.as_bytes(), rest.len()),
            (&bytes[..5], bytes.len() - 5)
        );
        let err = Payload::read_from(&mut &bytes[..100], 101).expect_err("short stream");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(Payload::read_from(&mut &bytes[..], 0)
            .expect("nothing")
            .is_empty());
        assert_eq!(Payload::from(&bytes[3..40]).as_bytes(), &bytes[3..40]);
    }

    #[test]
    fn a_payload_of_aligned_pods_becomes_the_vec_and_anything_else_is_decoded() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let bytes = u64::as_wire_bytes(&keys).expect("pod");

        // Into an empty vector: the words are the records.
        let payload = Payload::from(bytes);
        let at = payload.as_bytes().as_ptr();
        let mut out: Vec<u64> = Vec::new();
        assert!(payload.decode_into(&mut out));
        assert_eq!((out.as_ptr().cast::<u8>(), &out), (at, &keys));
        let payload = Payload::from(bytes);
        let at = payload.as_bytes().as_ptr();
        let mut pairs: Vec<[u64; 2]> = Vec::new();
        assert!(payload.decode_into(&mut pairs));
        assert_eq!(pairs.as_ptr().cast::<u8>(), at);
        assert_eq!(pairs.as_flattened(), &keys[..]);

        // Alignment 4, or a buffer to append to: one copy, same values.
        let mut halves: Vec<u32> = Vec::new();
        assert!(Payload::from(bytes).decode_into(&mut halves));
        assert_eq!(halves, u32::get_vec(bytes).expect("1000 words"));
        let mut appended = vec![7u64];
        appended.reserve(keys.len());
        let kept = appended.as_ptr();
        assert!(Payload::from(bytes).decode_into(&mut appended));
        assert_eq!(
            (appended.as_ptr(), appended[0], &appended[1..]),
            (kept, 7, &keys[..])
        );

        // Sizes that do not divide the payload are refused either way.
        let mut out: Vec<u64> = Vec::new();
        assert!(!Payload::from(&bytes[..12]).decode_into(&mut out));
        let mut triples: Vec<[u64; 3]> = Vec::new();
        assert!(!Payload::from(&bytes[..16]).decode_into(&mut triples));
        assert!(out.is_empty() && triples.is_empty());
        assert!(Payload::from(&[][..]).decode_into(&mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn get_into_appends_and_leaves_out_alone_on_bad_input() {
        // Pod: one memcpy past the existing elements.
        let mut buf = Vec::new();
        u64::put_slice(&[3u64, 4, 5], &mut buf);
        let mut out = vec![1u64, 2];
        assert!(u64::get_into(&buf, &mut out));
        assert_eq!(out, [1, 2, 3, 4, 5]);
        assert!(
            u64::get_into(&[], &mut out),
            "an empty buffer is zero elements"
        );
        assert!(!u64::get_into(&buf[..buf.len() - 1], &mut out), "ragged");
        assert_eq!(out, [1, 2, 3, 4, 5]);

        // Field-wise (the `Record` shape: 12 wire bytes, 16 in memory).
        let pairs = [(7u32, 70u64), (8, 80), (9, 90)];
        let mut buf = Vec::new();
        <(u32, u64)>::put_slice(&pairs, &mut buf);
        assert_eq!(buf.len(), 36);
        let mut out = vec![(1u32, 10u64)];
        assert!(<(u32, u64)>::get_into(&buf, &mut out));
        assert_eq!(out, [(1, 10), (7, 70), (8, 80), (9, 90)]);
        for cut in (1..buf.len()).filter(|c| c % 12 != 0) {
            assert!(
                !<(u32, u64)>::get_into(&buf[..cut], &mut out),
                "cut at {cut}"
            );
            assert_eq!(
                out.len(),
                4,
                "cut at {cut}: decoded elements must be rolled back"
            );
        }
        assert_eq!(<(u32, u64)>::get_vec(&buf[..35]), None);
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let mut buf = Vec::new();
        ("abc".to_string(), 7u64).put(&mut buf);
        for cut in 0..buf.len() {
            let mut src = &buf[..cut];
            assert_eq!(<(String, u64)>::get(&mut src), None, "cut at {cut}");
        }
    }

    #[test]
    fn bogus_discriminants_rejected() {
        let mut src: &[u8] = &[2u8];
        assert_eq!(bool::get(&mut src), None);
        let mut src: &[u8] = &[9u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(Option::<u64>::get(&mut src), None);
        // Surrogate code point is not a char.
        let mut buf = Vec::new();
        0xD800u32.put(&mut buf);
        let mut src = &buf[..];
        assert_eq!(char::get(&mut src), None);
    }

    #[test]
    fn corrupt_vec_length_does_not_preallocate_unbounded() {
        let mut buf = Vec::new();
        u64::MAX.put(&mut buf); // absurd element count, no elements
        let mut src = &buf[..];
        assert_eq!(Vec::<u64>::get(&mut src), None);
    }
}
