//! Fixed-width records — the unit of storage and communication.
//!
//! The MPC model measures everything in machine words; all data exchanged
//! by the algorithms in this reproduction are constant-width tuples of
//! words (edge records, label records, counters), so the [`Record`] trait
//! exposes the width as an associated constant and the accounting stays
//! exact and cheap.

/// A fixed-width datum; `WORDS` is its size in machine words.
pub trait Record: Clone + Send + Sync + 'static {
    /// Width in machine words (`O(log n)` bits each).
    const WORDS: usize;
}

impl Record for u64 {
    const WORDS: usize = 1;
}

impl Record for u32 {
    const WORDS: usize = 1;
}

impl Record for i64 {
    const WORDS: usize = 1;
}

impl Record for bool {
    const WORDS: usize = 1;
}

impl Record for () {
    const WORDS: usize = 0;
}

impl<A: Record, B: Record> Record for (A, B) {
    const WORDS: usize = A::WORDS + B::WORDS;
}

impl<A: Record, B: Record, C: Record> Record for (A, B, C) {
    const WORDS: usize = A::WORDS + B::WORDS + C::WORDS;
}

impl<A: Record, B: Record, C: Record, D: Record> Record for (A, B, C, D) {
    const WORDS: usize = A::WORDS + B::WORDS + C::WORDS + D::WORDS;
}

impl<A: Record, B: Record, C: Record, D: Record, E: Record> Record for (A, B, C, D, E) {
    const WORDS: usize = A::WORDS + B::WORDS + C::WORDS + D::WORDS + E::WORDS;
}

impl<A: Record, B: Record, C: Record, D: Record, E: Record, F: Record> Record
    for (A, B, C, D, E, F)
{
    const WORDS: usize = A::WORDS + B::WORDS + C::WORDS + D::WORDS + E::WORDS + F::WORDS;
}

impl<T: Record, const N: usize> Record for [T; N] {
    const WORDS: usize = T::WORDS * N;
}

impl<T: Record> Record for Option<T> {
    // One word for the discriminant, pessimistically.
    const WORDS: usize = 1 + T::WORDS;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_widths_add_up() {
        assert_eq!(<(u64, u64)>::WORDS, 2);
        assert_eq!(<(u64, u32, u64)>::WORDS, 3);
        assert_eq!(<(u64, u64, u64, u64, u64, u64)>::WORDS, 6);
        assert_eq!(<[u64; 4]>::WORDS, 4);
        assert_eq!(<Option<(u64, u64)>>::WORDS, 3);
    }
}
