//! [`Run`]: a window of a shared buffer, the unit of the owned exchange.
//!
//! A sorter ends with one sorted buffer partitioned into a contiguous run
//! per destination. Handing that buffer over as an `Arc<Vec<T>>` lets every
//! run be a `[start, end)` window over it: a transport that shares an
//! address space (threads) passes the window itself to the receiver, whose
//! merge then reads the sender's memory in place, and the buffer is freed
//! when its last window drops — the `Arc` is the lifetime, there is no
//! closing barrier and no `unsafe`. A transport that has to copy (the
//! simulator's `to_vec`, the sockets' encode) copies out of the window and
//! lets it go — or, for the run a rank keeps for itself, takes the buffer
//! back once that run is its last window ([`Run::try_into_owned`]).

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A window `[start, end)` of a shared buffer; derefs to the slice.
#[derive(Debug)]
pub struct Run<T> {
    buf: Arc<Vec<T>>,
    start: usize,
    end: usize,
}

impl<T> Run<T> {
    /// The window `range` of `buf`.
    ///
    /// # Panics
    /// If `range` does not lie inside `buf`.
    pub fn new(buf: Arc<Vec<T>>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "run {range:?} outside its buffer of {} records",
            buf.len()
        );
        Self {
            buf,
            start: range.start,
            end: range.end,
        }
    }

    /// The records as a vector of their own: the buffer itself when this
    /// run is its last window ([`Run::try_into_owned`]), a copy otherwise.
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        self.try_into_owned()
            .unwrap_or_else(|shared| shared.to_vec())
    }

    /// The buffer itself, cut down to this window, when this run is the
    /// last window over it; the run, untouched, while the buffer is shared.
    ///
    /// The records after the window are dropped and those before it are
    /// drained, which moves the window to the buffer's front (no move for a
    /// window that starts the buffer). A slack of a base page or more is
    /// then given back: glibc's `realloc` shrinks a block in place, an
    /// allocation of its own by `mremap`.
    pub fn try_into_owned(self) -> Result<Vec<T>, Self> {
        let Self { buf, start, end } = self;
        let mut buf = Arc::try_unwrap(buf).map_err(|buf| Self { buf, start, end })?;
        buf.truncate(end);
        buf.drain(..start);
        if (buf.capacity() - buf.len()) * std::mem::size_of::<T>() >= SHRINK_FROM {
            buf.shrink_to_fit();
        }
        Ok(buf)
    }
}

/// Spare capacity, in bytes, from which [`Run::try_into_owned`] gives the
/// slack back: less than a base page is not worth a `realloc`.
const SHRINK_FROM: usize = 4096;

impl<T> Deref for Run<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.end]
    }
}

/// The whole of `buf`, as its only window.
impl<T> From<Vec<T>> for Run<T> {
    fn from(buf: Vec<T>) -> Self {
        let end = buf.len();
        Self {
            buf: Arc::new(buf),
            start: 0,
            end,
        }
    }
}

/// The empty run.
impl<T> Default for Run<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_is_the_window_it_names() {
        let buf = Arc::new(vec![10u32, 11, 12, 13, 14]);
        let run = Run::new(Arc::clone(&buf), 1..4);
        assert_eq!(&*run, [11, 12, 13]);
        assert_eq!(run.as_ptr(), buf[1..].as_ptr(), "a view, not a copy");
        assert!(Run::new(Arc::clone(&buf), 5..5).is_empty());
        assert!(Run::<u32>::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "outside its buffer")]
    fn a_window_past_the_buffer_is_refused() {
        let _ = Run::new(Arc::new(vec![0u8; 4]), 2..5);
    }

    #[test]
    fn into_vec_takes_a_sole_window_back_and_copies_a_shared_one() {
        let v = vec![1u64, 2, 3, 4];
        let ptr = v.as_ptr();
        let back = Run::from(v).into_vec();
        assert_eq!(back.as_ptr(), ptr, "sole + whole: moved");

        let buf = Arc::new(vec![1u64, 2, 3, 4]);
        let ptr = buf.as_ptr();
        let whole = Run::new(Arc::clone(&buf), 0..4);
        let part = Run::new(Arc::clone(&buf), 1..3);
        drop(buf);
        // Whole but shared with `part`: a copy, and `part` still reads.
        let copied = whole.into_vec();
        assert_eq!(copied, [1, 2, 3, 4]);
        assert_ne!(copied.as_ptr(), ptr);
        // Sole but partial: the buffer, cut down to the window.
        let back = part.into_vec();
        assert_eq!((back.as_slice(), back.as_ptr()), (&[2, 3][..], ptr));
    }

    #[test]
    fn a_last_window_takes_its_buffer_back_and_a_shared_one_stays_a_run() {
        // At the front: the same allocation, nothing moved.
        let buf = Arc::new((0..8u64).collect::<Vec<_>>());
        let at = buf.as_ptr();
        let front = Run::new(buf, 0..3);
        let owned = front.try_into_owned().expect("the last window");
        assert_eq!((owned.as_slice(), owned.as_ptr()), (&[0, 1, 2][..], at));

        // In the middle: the window's records, drained to the front.
        let buf = Arc::new((0..8u64).collect::<Vec<_>>());
        let middle = Run::new(buf, 2..6);
        assert_eq!(
            middle.try_into_owned().expect("the last window"),
            [2, 3, 4, 5]
        );

        // Shared: the run comes back as it was, and still reads.
        let buf = Arc::new((0..8u64).collect::<Vec<_>>());
        let at = buf.as_ptr();
        let other = Run::new(Arc::clone(&buf), 0..2);
        let shared = Run::new(buf, 5..8).try_into_owned().expect_err("shared");
        assert_eq!(
            (&*shared, shared.as_ptr()),
            (&[5, 6, 7][..], at.wrapping_add(5))
        );
        drop(other);
        assert_eq!(shared.try_into_owned().expect("now the last"), [5, 6, 7]);
    }

    #[test]
    fn a_large_slack_is_given_back() {
        let buf = Arc::new(vec![9u64; 4096]);
        let owned = Run::new(buf, 100..200).try_into_owned().expect("sole");
        assert_eq!((owned.len(), owned.capacity()), (100, 100));
        assert!(owned.iter().all(|&x| x == 9));
    }

    #[test]
    fn the_buffer_is_freed_with_its_last_window() {
        let buf = Arc::new(vec![7u8; 16]);
        let weak = Arc::downgrade(&buf);
        let a = Run::new(Arc::clone(&buf), 0..8);
        let b = Run::new(buf, 8..16);
        drop(a);
        assert!(weak.upgrade().is_some(), "one window still holds it");
        drop(b);
        assert!(weak.upgrade().is_none());
    }
}
