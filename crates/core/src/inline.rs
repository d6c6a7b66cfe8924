//! [`InlineVec`]: a vector whose first `N` elements live inline.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector that holds up to `N` elements inline and moves them to the
/// heap past that: a `Done`'s targets and a remote gather's values,
/// which rarely outgrow `N`, allocate nothing.
/// Safe code only, so an unused inline slot holds `T::default()`.
/// Equality and `Debug` are by content: an inline and a spilled vector
/// of the same elements are equal.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline(usize, [T; N]),
    Heap(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector with room for `n` elements: inline up to `N`.
    pub fn with_capacity(n: usize) -> Self {
        match n > N {
            true => InlineVec(Repr::Heap(Vec::with_capacity(n))),
            false => InlineVec::default(),
        }
    }

    /// Appends `value`, moving every element to the heap when the
    /// inline slots are full.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline(len, slots) if *len < N => {
                slots[*len] = value;
                *len += 1;
            }
            Repr::Inline(_, slots) => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend(slots.iter_mut().map(std::mem::take));
                heap.push(value);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(value),
        }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// The elements as a `Vec`.
    pub fn into_vec(self) -> Vec<T> {
        match self.0 {
            Repr::Inline(len, slots) => slots.into_iter().take(len).collect(),
            Repr::Heap(heap) => heap,
        }
    }
}

/// An empty vector, inline.
impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec(Repr::Inline(0, std::array::from_fn(|_| T::default())))
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline(len, slots) => &slots[..*len],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline(len, slots) => &mut slots[..*len],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = InlineVec::with_capacity(iter.size_hint().0);
        iter.for_each(|v| out.push(v));
        out
    }
}

impl<T: Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(vec: Vec<T>) -> Self {
        vec.into_iter().collect()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
