//! `InlineVec`: a small-vector type for hot-path id lists.
//!
//! Scheduler policies keep per-cluster core lists (`big_cores`,
//! `little_cores`) that they consult on every `pick_next`. Those lists
//! hold a handful of 4-byte ids, yet a `Vec` puts them behind a heap
//! pointer — a guaranteed cache miss on a path that runs millions of
//! times per sweep. `InlineVec<T, N>` stores up to `N` elements inline
//! (so the list lives inside the scheduler struct, on the same cache
//! lines as the fields around it) and spills to a heap `Vec` only past
//! that, preserving `Vec` semantics without a dependency on the
//! `smallvec` crate and without any `unsafe`.

use std::fmt;
use std::ops::Deref;

/// A growable array storing up to `N` elements inline, spilling to the
/// heap beyond that.
///
/// Requires `T: Copy + Default` so the inline buffer can be plain
/// `[T; N]` with no `unsafe` initialization tricks. Intended for small
/// `Copy` ids (`CoreId`, `ThreadId`); reads go through `Deref<[T]>`.
///
/// # Examples
///
/// ```
/// use amp_types::InlineVec;
///
/// let v: InlineVec<u32, 4> = (0..3).collect();
/// assert_eq!(&v[..], &[0, 1, 2]);
/// assert!(!v.spilled());
///
/// let big: InlineVec<u32, 4> = (0..9).collect();
/// assert_eq!(big.len(), 9);
/// assert!(big.spilled());
/// ```
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { buf: [T; N], len: usize },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            repr: Repr::Inline {
                buf: [T::default(); N],
                len: 0,
            },
        }
    }

    /// Appends an element, spilling to the heap when the inline buffer
    /// is full.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if *len < N {
                    buf[*len] = value;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(N * 2);
                    heap.extend_from_slice(&buf[..*len]);
                    heap.push(value);
                    self.repr = Repr::Heap(heap);
                }
            }
            Repr::Heap(heap) => heap.push(value),
        }
    }

    /// Whether the contents have outgrown the inline buffer.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { buf, len } => &buf[..*len],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> InlineVec<T, N> {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter { vec: self, at: 0 }
    }
}

/// Owned iterator over an [`InlineVec`], yielding elements by value.
#[derive(Debug)]
pub struct IntoIter<T, const N: usize> {
    vec: InlineVec<T, N>,
    at: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let item = self.vec.get(self.at).copied()?;
        self.at += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.vec.len() - self.at;
        (rest, Some(rest))
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for InlineVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(&v[..], &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_past_capacity_and_keeps_order() {
        let v: InlineVec<u32, 4> = (0..100).collect();
        assert!(v.spilled());
        assert_eq!(v.len(), 100);
        assert!(v.iter().copied().eq(0..100));
    }

    #[test]
    fn slice_ops_work_through_deref() {
        let v: InlineVec<u32, 8> = (0..5).collect();
        assert_eq!(v.first(), Some(&0));
        assert_eq!(v.iter().max(), Some(&4));
        assert!(!v.is_empty());
        let empty: InlineVec<u32, 8> = InlineVec::new();
        assert!(empty.is_empty());
    }

    #[test]
    fn equality_ignores_representation() {
        let inline: InlineVec<u32, 8> = (0..5).collect();
        let spilled: InlineVec<u32, 2> = (0..5).collect();
        assert_eq!(&inline[..], &spilled[..]);
    }
}
