//! Counting-scatter helpers behind the CSR builder
//! ([`crate::GraphBuilder`]).
//!
//! The spanner engine scatters nothing: it reads its live edges in
//! place from per-super-node adjacency lists. It uses only [`ranges`],
//! to cut those lists, by their offsets, into balanced super-node
//! ranges. The distance sketches use [`ranges`] to cut their cluster
//! searches into landmark ranges and [`bucket_starts`] to size the
//! bunches they transpose the clusters into.
//!
//! A counting scatter groups records by a dense integer key in
//! `O(records + keys)`: count the records per key, take prefix sums,
//! and place each record at its key's next free slot. The work is split
//! into one contiguous key range per pool thread, balanced by record
//! count, and each range scatters into its own buffer, so no two
//! threads write to the same memory and the result does not depend on
//! where the cuts fall.

use rayon::prelude::*;

/// The counting half of a counting scatter over keys `0..keys`: `count`
/// adds one at `count[key + 1]` for each record an item yields, and the
/// result holds the bucket offsets, so that `start[key]..start[key + 1]`
/// is the bucket of `key`. The items are counted in one chunk per pool
/// thread.
pub fn bucket_starts<T: Sync>(
    items: &[T],
    keys: usize,
    count: impl Fn(&T, &mut [usize]) + Sync,
) -> Vec<usize> {
    let parts = rayon::current_num_threads();
    let per_chunk: Vec<Vec<usize>> = (0..parts)
        .into_par_iter()
        .map(|r| {
            let mut chunk = vec![0; keys + 1];
            for item in &items[items.len() * r / parts..items.len() * (r + 1) / parts] {
                count(item, &mut chunk);
            }
            chunk
        })
        .collect();
    let mut start = vec![0; keys + 1];
    for chunk in per_chunk {
        for (s, c) in start.iter_mut().zip(chunk) {
            *s += c;
        }
    }
    let mut sum = 0;
    for s in &mut start {
        sum += *s;
        *s = sum;
    }
    start
}

/// Cuts the keys `0..start.len() - 1` into one contiguous range per pool
/// thread, each holding about the same number of records. `start` holds
/// bucket offsets as [`bucket_starts`] returns them.
pub fn ranges(start: &[usize]) -> Vec<(usize, usize)> {
    let keys = start.len() - 1;
    let total = start[keys];
    let parts = rayon::current_num_threads();
    let mut cuts: Vec<usize> = (0..parts)
        .map(|r| start.partition_point(|&s| s < total * r / parts))
        .collect();
    cuts.push(keys);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_are_prefix_sums_of_the_counts() {
        let items = [3u32, 0, 3, 1, 3];
        let start = bucket_starts(&items, 5, |&k, count| count[k as usize + 1] += 1);
        assert_eq!(start, vec![0, 1, 2, 2, 5, 5]);
    }

    #[test]
    fn ranges_cover_every_key_once_in_order() {
        for start in [
            vec![0],
            vec![0, 0, 0],
            vec![0, 1, 2, 2, 5, 5],
            vec![0, 9, 9],
        ] {
            let cuts = ranges(&start);
            assert_eq!(cuts.first().map(|r| r.0), Some(0));
            assert_eq!(cuts.last().map(|r| r.1), Some(start.len() - 1));
            assert!(cuts
                .windows(2)
                .all(|w| w[0].1 == w[1].0 && w[0].0 <= w[0].1));
        }
    }
}
