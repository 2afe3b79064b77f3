//! Dependency-free LSD radix sorting for the bulk-load paths.
//!
//! The bulk loaders — R-tree sort-tile packing, the cell sets' deferred
//! kd-tree rebuilds, the flush pipelines' group-by-cell pass — used to
//! lean on `sort_unstable_by`, paying a comparison (and its branch
//! mispredict) per element per level. Their keys are machine words:
//! grid-cell ids, point ids, and float tile axes that admit an
//! order-preserving `u64` transform ([`f64_key`]). This module sorts
//! them byte-at-a-time instead: stable LSD radix, base 256, all eight
//! histograms built in one read pass, with trivial byte positions (all
//! keys share the byte) skipped outright — on the clustered key
//! distributions of a grid, most of the eight passes collapse away.
//!
//! Small inputs fall back to a stable insertion sort: below
//! `RADIX_MIN` elements the histogram setup costs more than it saves.
//! Every entry point is differentially tested against the standard
//! library's comparison sorts on random, duplicate-heavy,
//! already-sorted, and negative-coordinate inputs.

/// Order-preserving `f64 -> u64` key transform: for all non-NaN `a, b`,
/// `a < b` (by [`f64::total_cmp`]) iff `f64_key(a) < f64_key(b)`.
///
/// IEEE-754 doubles compare like sign-magnitude integers: positive
/// values are already ordered by their bit patterns, negative values
/// are ordered *in reverse*. Flipping all bits of negatives (reversing
/// their order and moving them below the positives) and just the sign
/// bit of non-negatives (moving them above) yields an unsigned key
/// whose natural order is exactly `total_cmp` — including `-0.0 <
/// +0.0` and the NaN payloads at the extremes, so the transform is
/// total on every input the index layers can produce.
#[inline]
pub fn f64_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

/// Inputs shorter than this skip the histogram machinery for a stable
/// insertion sort — at a few dozen elements the radix setup (two
/// scratch buffers + 2 KiB of counters) costs more than it saves.
const RADIX_MIN: usize = 64;

const BYTES: usize = 8;
const BUCKETS: usize = 256;

#[inline]
fn insertion_sort_pairs<T: Copy>(pairs: &mut [(u64, T)]) {
    for i in 1..pairs.len() {
        let item = pairs[i];
        let mut j = i;
        // strict `>` keeps equal keys in arrival order (stable)
        while j > 0 && pairs[j - 1].0 > item.0 {
            pairs[j] = pairs[j - 1];
            j -= 1;
        }
        pairs[j] = item;
    }
}

/// Stable LSD radix sort of `(key, payload)` pairs by key. `from` is
/// consumed as the input; the sorted sequence ends up back in `from`.
fn radix_sort_pairs<T: Copy>(from: &mut Vec<(u64, T)>, to: &mut Vec<(u64, T)>) {
    let n = from.len();
    if n < RADIX_MIN {
        insertion_sort_pairs(from);
        return;
    }
    // One read pass builds all eight byte histograms.
    let mut hist = [[0u32; BUCKETS]; BYTES];
    for &(k, _) in from.iter() {
        for (b, h) in hist.iter_mut().enumerate() {
            h[(k >> (b * 8)) as usize & 0xFF] += 1;
        }
    }
    to.clear();
    to.resize(n, from[0]);
    for (b, h) in hist.iter().enumerate() {
        // A byte every key agrees on permutes nothing: skip the pass.
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut offsets = [0u32; BUCKETS];
        let mut sum = 0u32;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = sum;
            sum += c;
        }
        for &pair in from.iter() {
            let bucket = (pair.0 >> (b * 8)) as usize & 0xFF;
            to[offsets[bucket] as usize] = pair;
            offsets[bucket] += 1;
        }
        std::mem::swap(from, to);
    }
}

/// Sorts `items` stably by the `u64` key `key` extracts — the drop-in
/// radix replacement for `sort_by_key`-shaped call sites on the bulk
/// paths. Equal keys keep their input order, so group-by passes built
/// on top preserve arrival order within a group.
///
/// The payload never rides through the radix passes: the sort permutes
/// `(key, row index)` pairs and applies the permutation with one final
/// gather. Wide entries (R-tree leaf records, kd-tree build rows) are
/// therefore copied twice in total instead of once per live byte —
/// measured, dragging the full payload through the scatter passes was a
/// >2x slowdown on 40-byte entries.
pub fn radix_sort_by_key<T: Copy>(items: &mut [T], key: impl Fn(&T) -> u64) {
    debug_assert!(
        items.len() <= u32::MAX as usize,
        "row indices are u32: blocks over 4G entries are unsupported"
    );
    let mut pairs: Vec<(u64, u32)> = items
        .iter()
        .enumerate()
        .map(|(i, it)| (key(it), i as u32))
        .collect();
    let mut scratch: Vec<(u64, u32)> = Vec::new();
    radix_sort_pairs(&mut pairs, &mut scratch);
    let snapshot: Vec<T> = items.to_vec();
    for (dst, &(_, i)) in items.iter_mut().zip(pairs.iter()) {
        *dst = snapshot[i as usize];
    }
}

/// Sorts a `u64` slice ascending by radix — the raw-key entry point the
/// `kernels` microbench races against `sort_unstable`.
pub fn radix_sort_u64(keys: &mut [u64]) {
    if keys.len() < RADIX_MIN {
        keys.sort_unstable();
        return;
    }
    let mut from: Vec<(u64, ())> = keys.iter().map(|&k| (k, ())).collect();
    let mut scratch: Vec<(u64, ())> = Vec::new();
    radix_sort_pairs(&mut from, &mut scratch);
    for (dst, &(k, ())) in keys.iter_mut().zip(from.iter()) {
        *dst = k;
    }
}

/// Sorts a `u32` slice ascending by radix (cell ids, point ids, BFS
/// seed sets). Runs natively at 4-byte width — half the scatter traffic
/// of widening through the `u64` pair path, which measured ~2x slower
/// on the dense bounded id ranges these call sites produce. At most
/// four passes, and since ids are bounded by the live population the
/// high bytes are usually trivial and skipped.
pub fn radix_sort_u32(keys: &mut [u32]) {
    let n = keys.len();
    if n < RADIX_MIN {
        keys.sort_unstable();
        return;
    }
    let mut hist = [[0u32; BUCKETS]; 4];
    for &k in keys.iter() {
        for (b, h) in hist.iter_mut().enumerate() {
            h[(k >> (b * 8)) as usize & 0xFF] += 1;
        }
    }
    let mut scratch = vec![0u32; n];
    // Ping-pong between `keys` and the scratch buffer; a final copy
    // rehomes the result only when an odd number of passes ran.
    let mut src_is_keys = true;
    for (b, h) in hist.iter().enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut offsets = [0u32; BUCKETS];
        let mut sum = 0u32;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = sum;
            sum += c;
        }
        if src_is_keys {
            scatter_u32(keys, &mut scratch, b, &mut offsets);
        } else {
            scatter_u32(&scratch, keys, b, &mut offsets);
        }
        src_is_keys = !src_is_keys;
    }
    if !src_is_keys {
        keys.copy_from_slice(&scratch);
    }
}

#[inline]
fn scatter_u32(src: &[u32], dst: &mut [u32], byte: usize, offsets: &mut [u32; BUCKETS]) {
    for &k in src {
        let bucket = (k >> (byte * 8)) as usize & 0xFF;
        dst[offsets[bucket] as usize] = k;
        offsets[bucket] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn f64_key_orders_like_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for (i, &a) in vals.iter().enumerate() {
            for &b in &vals[i..] {
                assert_eq!(
                    f64_key(a).cmp(&f64_key(b)),
                    a.total_cmp(&b),
                    "key order must match total_cmp for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn u64_matches_sort_unstable_on_random() {
        let mut rng = SplitMix64::new(9);
        for n in [0usize, 1, 5, RADIX_MIN - 1, RADIX_MIN, 1000, 4096] {
            let mut a: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut b = a.clone();
            radix_sort_u64(&mut a);
            b.sort_unstable();
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn u64_duplicates_and_presorted() {
        let mut rng = SplitMix64::new(10);
        // duplicate-heavy: keys drawn from a tiny alphabet
        let mut a: Vec<u64> = (0..2000).map(|_| rng.next_below(7)).collect();
        let mut b = a.clone();
        radix_sort_u64(&mut a);
        b.sort_unstable();
        assert_eq!(a, b);
        // already sorted (all high bytes trivial: every pass skipped)
        let mut a: Vec<u64> = (0..2000).collect();
        let b = a.clone();
        radix_sort_u64(&mut a);
        assert_eq!(a, b);
        // reverse sorted
        let mut a: Vec<u64> = (0..2000).rev().collect();
        radix_sort_u64(&mut a);
        assert_eq!(a, b);
    }

    #[test]
    fn u32_matches_sort_unstable() {
        let mut rng = SplitMix64::new(11);
        // Full-width random keys (all four passes live — even pass
        // count, result ends in place) at sizes straddling RADIX_MIN.
        for n in [0usize, 1, RADIX_MIN - 1, RADIX_MIN, 3000, 70_000] {
            let mut a: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
            let mut b = a.clone();
            radix_sort_u32(&mut a);
            b.sort_unstable();
            assert_eq!(a, b, "full-width n={n}");
        }
        // Bounded ids (< 256: one live pass — odd pass count, result
        // ends in scratch and must be copied back) and two-byte ids.
        for bound in [200u64, 40_000] {
            let mut a: Vec<u32> = (0..3000).map(|_| rng.next_below(bound) as u32).collect();
            let mut b = a.clone();
            radix_sort_u32(&mut a);
            b.sort_unstable();
            assert_eq!(a, b, "bounded ids bound={bound}");
        }
    }

    #[test]
    fn by_key_is_stable_and_matches_comparison_sort() {
        let mut rng = SplitMix64::new(12);
        for n in [0usize, 3, RADIX_MIN, 500, 3000] {
            // (key, arrival index): few distinct keys force ties
            let mut a: Vec<(u32, u32)> = (0..n as u32)
                .map(|i| (rng.next_below(11) as u32, i))
                .collect();
            let mut b = a.clone();
            radix_sort_by_key(&mut a, |&(k, _)| u64::from(k));
            b.sort_by_key(|&(k, _)| k); // std stable sort
            assert_eq!(a, b, "stability mismatch at n={n}");
        }
    }

    #[test]
    fn by_key_sorts_negative_coordinates_like_total_cmp() {
        let mut rng = SplitMix64::new(13);
        for n in [10usize, RADIX_MIN + 1, 2000] {
            let mut a: Vec<(f64, u32)> = (0..n as u32)
                .map(|i| {
                    let v = (rng.next_f64() - 0.5) * 1e6;
                    // sprinkle signed zeros into the mix
                    let v = if rng.next_below(17) == 0 { -0.0 } else { v };
                    (v, i)
                })
                .collect();
            let mut b = a.clone();
            radix_sort_by_key(&mut a, |e| f64_key(e.0));
            b.sort_by(|x, y| x.0.total_cmp(&y.0));
            let ka: Vec<u64> = a.iter().map(|e| f64_key(e.0)).collect();
            let kb: Vec<u64> = b.iter().map(|e| f64_key(e.0)).collect();
            assert_eq!(ka, kb, "negative-coordinate order mismatch at n={n}");
        }
    }
}
