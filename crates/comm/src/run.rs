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
//! lets it go.

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

    /// The records as a vector of their own: the buffer itself, moved, when
    /// this run is the only window over all of it, and a copy otherwise.
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        if self.start == 0 && self.end == self.buf.len() {
            Arc::try_unwrap(self.buf).unwrap_or_else(|shared| shared.to_vec())
        } else {
            self.to_vec()
        }
    }
}

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
    fn into_vec_moves_a_sole_whole_window_and_copies_any_other() {
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
        // Sole but partial: a copy of the window.
        let copied = part.into_vec();
        assert_eq!(copied, [2, 3]);
        assert_ne!(copied.as_ptr(), ptr.wrapping_add(1));
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
