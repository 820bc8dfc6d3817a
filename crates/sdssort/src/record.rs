//! Record and key abstractions.
//!
//! SDS-Sort's central selling point is that it sorts records *by any key
//! the user picks* — without requiring a secondary key to disambiguate
//! duplicates (paper §1, §2.5). We model that with the [`Sortable`] trait:
//! a record is any `Copy` type exposing a totally ordered key. Payload
//! travels with the record through the exchange (and is what makes skewed
//! exchanges expensive), but never participates in comparisons.
//!
//! Floating-point keys (the PTF real-bogus scores are `f32`) are handled
//! with [`OrderedF32`]/[`OrderedF64`], monotone total-order bit encodings.

use comm::wire::Pod;
use comm::Wire;

/// A record that can be sorted by SDS-Sort and the baseline sorters.
///
/// `Key` must be totally ordered ([`Ord`]); comparisons look only at the
/// key, so equal-key records are genuinely indistinguishable to the sorter
/// — exactly the regime where skew-aware partitioning matters.
///
/// Records and keys must additionally be [`Wire`]: every record crosses
/// the transport during the exchange phase, and the distributed sockets
/// backend needs to serialize it. For in-process backends the bound costs
/// nothing (nothing is encoded).
pub trait Sortable: Copy + Send + Sync + 'static + Wire {
    /// The sort key type.
    type Key: Ord + Copy + Send + Sync + 'static + Wire;

    /// Extract this record's sort key.
    fn key(&self) -> Self::Key;

    /// True when [`Sortable::radix_u64`] is a monotone `u64` embedding of
    /// the key order — the precondition for the LSD radix local-sort
    /// kernel. Record types whose key has no such embedding keep the
    /// default `false` and are always comparison-sorted.
    const RADIX: bool = false;

    /// Monotone `u64` view of this record's key
    /// (`a.key() <= b.key()  ⇔  a.radix_u64() <= b.radix_u64()`).
    /// Only meaningful when [`Sortable::RADIX`] is true.
    #[inline]
    fn radix_u64(&self) -> u64 {
        0
    }

    /// True when a record *is* its key: equal keys are equal records, bit
    /// for bit, and [`Sortable::from_radix_u64`] inverts
    /// [`Sortable::radix_u64`]. The radix kernel then sorts by counting
    /// alone, writing each key's run back from its count with no scratch.
    /// Implies [`Sortable::RADIX`].
    const KEY_ONLY: bool = false;

    /// The record whose [`Sortable::radix_u64`] is `bits`. Only called when
    /// [`Sortable::KEY_ONLY`] is true.
    #[inline]
    fn from_radix_u64(bits: u64) -> Self {
        unreachable!("{bits:#x}: only a key-only record is rebuilt from its embedding")
    }

    /// `records` as plain `u64` keys when `Self` is `u64`, `None` for every
    /// other type. The comparison kernel hands such a slice to
    /// [`crate::vsort`]; a `u64` is its own key, so its stable and unstable
    /// sorts are the same bits.
    #[inline]
    fn as_u64_keys(records: &mut [Self]) -> Option<&mut [u64]> {
        let _ = records;
        None
    }
}

/// A key with an order-preserving mapping to `u64`:
/// `a <= b  ⇔  a.radix_u64() <= b.radix_u64()`.
///
/// This is what the radix kernels — the LSD local sort in
/// [`crate::radix`] and the distributed radix baseline — sort by.
/// Key types that cannot embed into 64 bits (the 128-bit integers)
/// implement the trait with [`RadixKey::USABLE`]` = false` and a dummy
/// mapping: they stay usable as comparison-sorted keys (including as
/// [`Record`] keys) while statically opting out of every radix path.
pub trait RadixKey: Copy {
    /// Whether `radix_u64` really is the monotone embedding.
    const USABLE: bool = true;

    /// The monotone unsigned mapping.
    fn radix_u64(&self) -> u64;

    /// Its inverse: the key whose `radix_u64` is `bits`.
    fn from_radix_u64(bits: u64) -> Self;
}

macro_rules! impl_radix_uint {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline]
            fn radix_u64(&self) -> u64 {
                *self as u64
            }
            #[inline]
            fn from_radix_u64(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_radix_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_radix_int {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline]
            fn radix_u64(&self) -> u64 {
                // Sign-bias: shifting the two's-complement range up by
                // 2^63 maps i64::MIN..=i64::MAX monotonically onto
                // 0..=u64::MAX.
                (*self as i64 as u64) ^ (1u64 << 63)
            }
            #[inline]
            fn from_radix_u64(bits: u64) -> Self {
                (bits ^ (1u64 << 63)) as i64 as $t
            }
        }
    )*};
}
impl_radix_int!(i8, i16, i32, i64, isize);

macro_rules! impl_radix_unusable {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            const USABLE: bool = false;
            #[inline]
            fn radix_u64(&self) -> u64 {
                0
            }
            #[inline]
            fn from_radix_u64(_: u64) -> Self {
                0
            }
        }
    )*};
}
impl_radix_unusable!(u128, i128);

macro_rules! impl_sortable_prim {
    ($($t:ty),*) => {$(
        impl_sortable_prim!($t, {});
    )*};
    ($t:ty, {$($extra:item)*}) => {
        impl Sortable for $t {
            type Key = $t;
            #[inline]
            fn key(&self) -> $t {
                *self
            }
            const RADIX: bool = <$t as RadixKey>::USABLE;
            #[inline]
            fn radix_u64(&self) -> u64 {
                RadixKey::radix_u64(self)
            }
            const KEY_ONLY: bool = <$t as RadixKey>::USABLE;
            #[inline]
            fn from_radix_u64(bits: u64) -> $t {
                RadixKey::from_radix_u64(bits)
            }
            $($extra)*
        }
    };
}

impl_sortable_prim!(u8, u16, u32, u128, usize, i8, i16, i32, i64, i128, isize);
impl_sortable_prim!(u64, {
    #[inline]
    fn as_u64_keys(records: &mut [u64]) -> Option<&mut [u64]> {
        Some(records)
    }
});

/// Map an `f32` to a `u32` preserving total order (IEEE-754 trick: flip the
/// sign bit for positives, flip all bits for negatives). NaNs order above
/// +∞ (positive NaN) or below -∞ (negative NaN) deterministically.
#[inline]
pub fn f32_to_ordered_bits(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits & 0x8000_0000 == 0 {
        bits ^ 0x8000_0000
    } else {
        !bits
    }
}

/// Inverse of [`f32_to_ordered_bits`].
#[inline]
pub fn f32_from_ordered_bits(bits: u32) -> f32 {
    if bits & 0x8000_0000 != 0 {
        f32::from_bits(bits ^ 0x8000_0000)
    } else {
        f32::from_bits(!bits)
    }
}

/// Map an `f64` to a `u64` preserving total order.
#[inline]
pub fn f64_to_ordered_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & 0x8000_0000_0000_0000 == 0 {
        bits ^ 0x8000_0000_0000_0000
    } else {
        !bits
    }
}

/// Inverse of [`f64_to_ordered_bits`].
#[inline]
pub fn f64_from_ordered_bits(bits: u64) -> f64 {
    if bits & 0x8000_0000_0000_0000 != 0 {
        f64::from_bits(bits ^ 0x8000_0000_0000_0000)
    } else {
        f64::from_bits(!bits)
    }
}

/// An `f32` with a total order, usable as a sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct OrderedF32(u32);

impl OrderedF32 {
    /// Wrap a float.
    #[inline]
    pub fn new(v: f32) -> Self {
        Self(f32_to_ordered_bits(v))
    }

    /// Recover the float value.
    #[inline]
    pub fn value(self) -> f32 {
        f32_from_ordered_bits(self.0)
    }

    /// The monotone total-order bit pattern (useful for radix sorting).
    #[inline]
    pub fn ordered_bits(self) -> u32 {
        self.0
    }
}

impl From<f32> for OrderedF32 {
    fn from(v: f32) -> Self {
        Self::new(v)
    }
}

impl RadixKey for OrderedF32 {
    #[inline]
    fn radix_u64(&self) -> u64 {
        self.ordered_bits() as u64
    }
    #[inline]
    fn from_radix_u64(bits: u64) -> Self {
        Self(bits as u32)
    }
}

impl Wire for OrderedF32 {
    // SAFETY: `#[repr(transparent)]` over a `u32`, which is a pod, and `put`
    // appends that `u32`'s bytes.
    const POD: Option<Pod<Self>> = Some(unsafe { Pod::new() });

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(src: &mut &[u8]) -> Option<Self> {
        u32::get(src).map(Self)
    }
}

impl Sortable for OrderedF32 {
    type Key = OrderedF32;
    #[inline]
    fn key(&self) -> Self::Key {
        *self
    }
    const RADIX: bool = true;
    #[inline]
    fn radix_u64(&self) -> u64 {
        RadixKey::radix_u64(self)
    }
    const KEY_ONLY: bool = true;
    #[inline]
    fn from_radix_u64(bits: u64) -> Self {
        RadixKey::from_radix_u64(bits)
    }
}

/// An `f64` with a total order, usable as a sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct OrderedF64(u64);

impl OrderedF64 {
    /// Wrap a float.
    #[inline]
    pub fn new(v: f64) -> Self {
        Self(f64_to_ordered_bits(v))
    }

    /// Recover the float value.
    #[inline]
    pub fn value(self) -> f64 {
        f64_from_ordered_bits(self.0)
    }

    /// The monotone total-order bit pattern (useful for radix sorting).
    #[inline]
    pub fn ordered_bits(self) -> u64 {
        self.0
    }
}

impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        Self::new(v)
    }
}

impl RadixKey for OrderedF64 {
    #[inline]
    fn radix_u64(&self) -> u64 {
        self.ordered_bits()
    }
    #[inline]
    fn from_radix_u64(bits: u64) -> Self {
        Self(bits)
    }
}

impl Wire for OrderedF64 {
    // SAFETY: `#[repr(transparent)]` over a `u64`, which is a pod, and `put`
    // appends that `u64`'s bytes.
    const POD: Option<Pod<Self>> = Some(unsafe { Pod::new() });

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(src: &mut &[u8]) -> Option<Self> {
        u64::get(src).map(Self)
    }
}

impl Sortable for OrderedF64 {
    type Key = OrderedF64;
    #[inline]
    fn key(&self) -> Self::Key {
        *self
    }
    const RADIX: bool = true;
    #[inline]
    fn radix_u64(&self) -> u64 {
        RadixKey::radix_u64(self)
    }
    const KEY_ONLY: bool = true;
    #[inline]
    fn from_radix_u64(bits: u64) -> Self {
        RadixKey::from_radix_u64(bits)
    }
}

/// A key/payload record. The payload is carried through the exchange but
/// never compared — the paper's "non-key values".
///
/// `#[repr(C)]`: the key comes first in memory, as it does on the wire, so a
/// record of pods with no padding between or after the fields is a pod
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
pub struct Record<K, P> {
    /// The sort key.
    pub key: K,
    /// Arbitrary non-key values travelling with the record.
    pub payload: P,
}

impl<K, P> Record<K, P> {
    /// Construct a record.
    #[inline]
    pub fn new(key: K, payload: P) -> Self {
        Self { key, payload }
    }
}

/// Field-wise encoding (key then payload) — any compiler-inserted padding
/// between the fields never touches the wire. Without padding, and with
/// both fields pods, those bytes are the record's memory.
impl<K, P> Wire for Record<K, P>
where
    K: Wire + Copy,
    P: Wire + Copy,
{
    const POD: Option<Pod<Self>> = if K::POD.is_some()
        && P::POD.is_some()
        && std::mem::offset_of!(Self, payload) == std::mem::size_of::<K>()
        && std::mem::size_of::<Self>() == std::mem::size_of::<K>() + std::mem::size_of::<P>()
    {
        // SAFETY: the payload starts where the key ends and the record is
        // as large as the two together, so there is no padding and the
        // record's bytes are the key's, then the payload's — what `put`
        // appends. Both are pods, so every bit pattern of each is a value.
        Some(unsafe { Pod::new() })
    } else {
        None
    };

    fn put(&self, out: &mut Vec<u8>) {
        self.key.put(out);
        self.payload.put(out);
    }
    fn get(src: &mut &[u8]) -> Option<Self> {
        Some(Self {
            key: K::get(src)?,
            payload: P::get(src)?,
        })
    }
}

impl<K, P> Sortable for Record<K, P>
where
    K: Ord + Copy + Send + Sync + 'static + RadixKey + Wire,
    P: Copy + Send + Sync + 'static + Wire,
{
    type Key = K;
    #[inline]
    fn key(&self) -> K {
        self.key
    }
    const RADIX: bool = K::USABLE;
    #[inline]
    fn radix_u64(&self) -> u64 {
        self.key.radix_u64()
    }
}

/// A record tagged with its original global position. Used by tests and by
/// the stability property checks: a stable sort must output equal keys in
/// ascending tag order.
pub type Tagged<K> = Record<K, u64>;

/// Fixed-size opaque payload of `N` bytes; models the paper's cosmology
/// records (6 × f32 of position/velocity payload per particle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Pad<const N: usize>(pub [u8; N]);

impl<const N: usize> Default for Pad<N> {
    fn default() -> Self {
        Self([0u8; N])
    }
}

impl<const N: usize> Wire for Pad<N> {
    // SAFETY: `#[repr(transparent)]` over `[u8; N]`: no padding, every bit
    // pattern a value, and `put` appends those `N` bytes.
    const POD: Option<Pod<Self>> = Some(unsafe { Pod::new() });

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn get(src: &mut &[u8]) -> Option<Self> {
        <[u8; N]>::get(src).map(Self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::wire::Payload;

    #[test]
    fn ordered_f32_sorts_like_f32() {
        let mut vals = [
            3.5f32,
            -1.0,
            0.0,
            -0.0,
            2.25,
            -7.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut wrapped: Vec<OrderedF32> = vals.iter().map(|&v| OrderedF32::new(v)).collect();
        wrapped.sort_unstable();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let unwrapped: Vec<f32> = wrapped.iter().map(|w| w.value()).collect();
        // -0.0 and 0.0 compare equal as floats; compare bit-for-bit on the
        // rest and positionally tolerate the zero pair.
        for (a, b) in unwrapped.iter().zip(vals.iter()) {
            assert!(a == b || (*a == 0.0 && *b == 0.0), "{a} vs {b}");
        }
    }

    #[test]
    fn ordered_f64_roundtrip() {
        for v in [-1e300, -2.5, -0.0, 0.0, 1.5, 1e300] {
            let w = OrderedF64::new(v);
            assert_eq!(w.value(), v);
        }
    }

    #[test]
    fn ordered_bits_monotone_exhaustive_f32_sample() {
        let mut prev = None;
        for i in -1000i32..1000 {
            let v = i as f32 * 0.37;
            let _ = v;
        }
        // structured monotonicity check across magnitudes and signs
        let seq = [
            f32::NEG_INFINITY,
            -1e30,
            -2.0,
            -1.0,
            -0.5,
            -f32::MIN_POSITIVE,
            0.0,
            f32::MIN_POSITIVE,
            0.5,
            1.0,
            2.0,
            1e30,
            f32::INFINITY,
        ];
        for w in seq.windows(2) {
            let (a, b) = (f32_to_ordered_bits(w[0]), f32_to_ordered_bits(w[1]));
            assert!(a < b, "{} !< {}", w[0], w[1]);
            prev = Some(b);
        }
        let _ = prev;
    }

    #[test]
    fn record_key_ignores_payload() {
        let a = Record::new(5u32, 100u64);
        let b = Record::new(5u32, 999u64);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn record_sorting_by_key() {
        let mut recs = [
            Record::new(3u64, 'c'),
            Record::new(1u64, 'a'),
            Record::new(2u64, 'b'),
        ];
        recs.sort_by_key(|r| r.key());
        let keys: Vec<u64> = recs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    /// The field-wise encoding, one `put` per record.
    fn fieldwise<T: Wire>(items: &[T]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for item in items {
            item.put(&mut bytes);
        }
        bytes
    }

    /// `items`' bulk encoding is `wire_size` bytes a record, key then
    /// payload, and decodes back onto the end of a buffer; a buffer cut
    /// anywhere but at a record boundary is refused and leaves the buffer as
    /// it was.
    fn bulk_codec_round_trips<T: Wire + PartialEq + std::fmt::Debug>(
        items: &[T],
        wire_size: usize,
    ) {
        let mut bytes = Vec::new();
        T::put_slice(items, &mut bytes);
        assert_eq!(bytes, fieldwise(items), "put_slice is the field-wise bytes");
        assert_eq!(bytes.len(), items.len() * wire_size);
        let mut out = vec![items[1].clone()];
        assert!(T::get_into(&bytes, &mut out));
        assert_eq!(out[0], items[1]);
        assert_eq!(out[1..], items[..]);
        for cut in [1, wire_size - 1, wire_size + 1, bytes.len() - 1] {
            assert!(!T::get_into(&bytes[..cut], &mut out), "cut at {cut}");
            assert_eq!(
                out.len(),
                items.len() + 1,
                "cut at {cut}: out left as it was"
            );
            assert_eq!(T::get_vec(&bytes[..cut]), None, "cut at {cut}");
        }
        assert_eq!(T::get_vec(&bytes).as_deref(), Some(items));
    }

    /// A pod record's memory is its field-wise encoding: the borrowed view
    /// is the slice itself and equals what `put` appends record by record.
    fn pod_wire_checks<T: Wire + PartialEq + std::fmt::Debug>(items: &[T]) {
        let view = T::as_wire_bytes(items).expect("a pod exposes its memory");
        assert_eq!(
            view.as_ptr(),
            items.as_ptr().cast::<u8>(),
            "borrowed, not copied"
        );
        assert_eq!(view, &fieldwise(items)[..]);
        bulk_codec_round_trips(items, std::mem::size_of::<T>());
    }

    #[test]
    fn record_bulk_codec_appends_and_rolls_back_on_truncation() {
        type Wide = Record<OrderedF32, Pad<24>>;
        let recs: Vec<Wide> = (0..5u8)
            .map(|i| Record::new(OrderedF32::new(f32::from(i) - 2.5), Pad([i; 24])))
            .collect();
        let mut bytes = Vec::new();
        Wide::put_slice(&recs, &mut bytes);
        assert_eq!(bytes.len(), 5 * 28, "field-wise: key then payload");
        assert_eq!(bytes, fieldwise(&recs));
        // 4 + 24 bytes with no padding: the records' memory is their encoding.
        assert_eq!(Wide::as_wire_bytes(&recs), Some(&bytes[..]));

        let mut out = vec![recs[4]];
        assert!(Wide::get_into(&bytes, &mut out));
        assert_eq!(out[0], recs[4]);
        assert_eq!(out[1..], recs[..]);
        for cut in [1, 27, 29, bytes.len() - 1] {
            assert!(!Wide::get_into(&bytes[..cut], &mut out), "cut at {cut}");
            assert_eq!(out.len(), 6, "cut at {cut}: out must be left as it was");
        }
        assert_eq!(Wide::get_vec(&bytes), Some(recs.clone()));
        pod_wire_checks(&recs);
    }

    #[test]
    fn padding_free_records_are_pods_on_the_wire() {
        let tagged: Vec<Tagged<u64>> = (0..7u64)
            .map(|i| Record::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 7 - i))
            .collect();
        pod_wire_checks(&tagged);
        let pairs: Vec<Record<u64, u64>> = (0..5).map(|i| Record::new(u64::MAX - i, i)).collect();
        pod_wire_checks(&pairs);
        let f32s: Vec<OrderedF32> = [-1.5, 0.0, -0.0, f32::NAN, f32::INFINITY]
            .into_iter()
            .map(OrderedF32::new)
            .collect();
        pod_wire_checks(&f32s);
        let f64s: Vec<OrderedF64> = [-1e300, -0.0, 2.5, f64::NEG_INFINITY]
            .into_iter()
            .map(OrderedF64::new)
            .collect();
        pod_wire_checks(&f64s);
        pod_wire_checks(&[Pad([1u8, 2, 3]), Pad([4, 5, 6])]);
    }

    #[test]
    fn padded_records_stay_field_wise() {
        // 4 + 4 padding + 8 in memory, 12 on the wire.
        let narrow: Vec<Record<u32, u64>> =
            (0..5).map(|i| Record::new(i, u64::from(i) << 40)).collect();
        assert!(Record::<u32, u64>::POD.is_none());
        assert_eq!(Record::<u32, u64>::as_wire_bytes(&narrow), None);
        bulk_codec_round_trips(&narrow, 12);
        // 8 + 1 + 7 padding in memory, 9 on the wire.
        let tail: Vec<Record<u64, u8>> = (0..5).map(|i| Record::new(i << 33, i as u8)).collect();
        assert!(Record::<u64, u8>::POD.is_none());
        assert_eq!(Record::<u64, u8>::as_wire_bytes(&tail), None);
        bulk_codec_round_trips(&tail, 9);
        // Fields that are not pods make no pod record, padding or not.
        assert!(Record::<u64, (u32, u32)>::POD.is_none());
    }

    /// What a sockets receive does with a chunk: a payload of 16-byte
    /// tagged records becomes the run where it lies; one of `u32`-keyed
    /// records (alignment 4) is decoded by a copy.
    #[test]
    fn a_tagged_payload_becomes_the_records() {
        let tagged: Vec<Tagged<u64>> = (0..100u64).map(|i| Record::new(i % 7, i)).collect();
        let payload = Payload::from(Tagged::<u64>::as_wire_bytes(&tagged).expect("pod"));
        let at = payload.as_bytes().as_ptr();
        let mut out: Vec<Tagged<u64>> = Vec::new();
        assert!(payload.decode_into(&mut out));
        assert_eq!(out, tagged);
        assert_eq!(
            out.as_ptr().cast::<u8>(),
            at,
            "the payload's words are the run"
        );

        let narrow: Vec<Tagged<u32>> = (0..100u32)
            .map(|i| Record::new(i % 7, u64::from(i)))
            .collect();
        let mut bytes = Vec::new();
        Tagged::<u32>::put_slice(&narrow, &mut bytes);
        let payload = Payload::from(&bytes[..]);
        let at = payload.as_bytes().as_ptr();
        let mut out: Vec<Tagged<u32>> = Vec::new();
        assert!(payload.decode_into(&mut out));
        assert_eq!(out, narrow);
        assert_ne!(out.as_ptr().cast::<u8>(), at);
    }

    /// The same hand-over at the sizes a sort receives: `comm::pages`
    /// rounds a payload of several huge pages to whole huge pages less the
    /// allocator's header, and 16- and 32-byte pods must still divide it.
    #[test]
    fn a_payload_of_several_huge_pages_still_becomes_the_records() {
        fn becomes<T: Wire + PartialEq + std::fmt::Debug>(records: &[T]) {
            let payload = Payload::from(T::as_wire_bytes(records).expect("pod"));
            let at = payload.as_bytes().as_ptr();
            let mut out: Vec<T> = Vec::new();
            assert!(payload.decode_into(&mut out));
            assert_eq!(out, records);
            assert_eq!(
                out.as_ptr().cast::<u8>(),
                at,
                "the payload's words are the run"
            );
        }
        let huge_pages = |size: usize| (5 << 20) / size + 3;
        let tagged: Vec<Tagged<u64>> = (0..huge_pages(16) as u64)
            .map(|i| Record::new(i % 7, i))
            .collect();
        becomes(&tagged);
        let wide: Vec<Record<u64, Pad<24>>> = (0..huge_pages(32) as u64)
            .map(|i| Record::new(i, Pad([i as u8; 24])))
            .collect();
        becomes(&wide);
    }

    #[test]
    fn pad_default_is_zeroed() {
        let p: Pad<16> = Pad::default();
        assert_eq!(p.0, [0u8; 16]);
        assert_eq!(std::mem::size_of::<Pad<24>>(), 24);
    }

    #[test]
    fn radix_u64_is_monotone_for_every_usable_key() {
        // unsigned, signed (sign-bias), float (order bits): pairwise
        // order must survive the embedding exactly.
        let us = [0u64, 1, 7, u64::MAX / 2, u64::MAX];
        for a in us {
            for b in us {
                assert_eq!(a <= b, RadixKey::radix_u64(&a) <= RadixKey::radix_u64(&b));
            }
        }
        let is = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        for a in is {
            for b in is {
                assert_eq!(a <= b, RadixKey::radix_u64(&a) <= RadixKey::radix_u64(&b));
            }
        }
        let i32s = [i32::MIN, -2, 0, 3, i32::MAX];
        for a in i32s {
            for b in i32s {
                assert_eq!(a <= b, RadixKey::radix_u64(&a) <= RadixKey::radix_u64(&b));
            }
        }
        let fs: Vec<OrderedF64> = [-1e300, -2.5, -0.0, 0.0, 1.5, 1e300, f64::INFINITY]
            .into_iter()
            .map(OrderedF64::new)
            .collect();
        for &a in &fs {
            for &b in &fs {
                assert_eq!(a <= b, RadixKey::radix_u64(&a) <= RadixKey::radix_u64(&b));
            }
        }
    }

    #[test]
    fn radix_flags_match_key_capability() {
        fn radix_capable<T: Sortable>() -> bool {
            T::RADIX
        }
        assert!(radix_capable::<u64>());
        assert!(radix_capable::<i32>());
        assert!(radix_capable::<OrderedF32>());
        assert!(radix_capable::<Record<u32, u64>>());
        assert!(radix_capable::<Record<OrderedF64, char>>());
        // 128-bit keys have no u64 embedding: comparison-only.
        assert!(!radix_capable::<u128>());
        assert!(!radix_capable::<i128>());
        assert!(!radix_capable::<Record<u128, u64>>());
    }

    #[test]
    fn record_radix_u64_uses_the_key() {
        let r = Record::new(-3i64, 99u64);
        assert_eq!(Sortable::radix_u64(&r), RadixKey::radix_u64(&-3i64));
    }

    #[test]
    fn nan_has_consistent_total_order() {
        let nan = OrderedF32::new(f32::NAN);
        let inf = OrderedF32::new(f32::INFINITY);
        // positive NaN bit pattern sorts above +inf; the point is it is
        // *some* consistent position, so Ord never panics.
        assert!(nan > inf);
    }
}
