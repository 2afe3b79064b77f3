//! What one published epoch costs and says, on every engine.
//!
//! * `every_refresh_delta_matches_between_on_every_engine` — with a
//!   handle vended and delta tracking on, every refresh's
//!   `changed_since(prev)` must equal the full-scan oracle
//!   `SnapshotDelta::between(prev, cur)`, on the semi-dynamic, fully
//!   dynamic, IncDBSCAN and 2-shard engines, at `rho = 0` and `0.25`
//!   (IncDBSCAN is exact: `rho = 0` only). The churn inserts and
//!   deletes 256-point batches of blobs joined by sparse bridges, so
//!   clusters merge and split and the incremental delta has to find
//!   relabeled points through the engines' anchor scopes.
//! * `publish_copies_the_same_pages_at_20k_and_80k` — the flat-in-n
//!   gate as a count: one 64-point batch plus `snapshot()` copies the
//!   same few per-point table pages whether 20k or 80k points are
//!   loaded.

use dydbscan::geom::Point;
use dydbscan::{
    seed_spreader, DynamicClusterer, FullDynDbscan, IncDbscan, Params, PointId, SemiDynDbscan,
    ShardedDbscan,
};
use dydbscan_core::{ChangeFeed, ClusterSnapshot, SnapshotDelta};
use dydbscan_geom::SplitMix64;
use std::collections::VecDeque;
use std::sync::Arc;

const BATCH: usize = 256;

/// Blob centres on a line, `GAP` apart: blobs are dense, the gaps
/// between them only fill in (and merge neighbours) while enough bridge
/// points are alive.
const BLOBS: usize = 6;
const GAP: f64 = 4.0;

fn churn_batch(rng: &mut SplitMix64) -> Vec<Point<2>> {
    (0..BATCH)
        .map(|_| {
            if rng.next_below(4) == 0 {
                // Bridge: anywhere along the chain of blobs.
                [rng.next_f64() * GAP * BLOBS as f64, rng.next_f64() * 1.5]
            } else {
                let c = rng.next_below(BLOBS as u64) as f64 * GAP + GAP / 2.0;
                [c + rng.next_f64() * 1.6 - 0.8, rng.next_f64() * 1.5]
            }
        })
        .collect()
}

/// Runs the churn and checks every refresh's feed against the oracle.
/// Returns how many deltas relabeled a point that stayed alive, a proxy
/// for merges and splits.
fn check_feed(name: &str, mut e: Box<dyn DynamicClusterer<2>>, rounds: usize) -> usize {
    e.set_track_deltas(true);
    let handle = e.epoch_handle();
    let mut rng = SplitMix64::new(0xFEED_2017);
    let mut prev: Arc<ClusterSnapshot> = e.snapshot();
    let mut live: VecDeque<Vec<PointId>> = VecDeque::new();
    let mut relabels = 0;
    let mut check = |e: &dyn DynamicClusterer<2>, prev: &mut Arc<ClusterSnapshot>| {
        let cur = e.snapshot();
        assert_eq!(
            handle.epoch(),
            cur.epoch(),
            "{name}: handle lags the refresh"
        );
        let want = SnapshotDelta::between(prev, &cur);
        match handle.changed_since(prev.epoch()) {
            ChangeFeed::Delta(got) => assert_eq!(
                got,
                want,
                "{name}: delta {}→{} diverged from between",
                prev.epoch(),
                cur.epoch()
            ),
            ChangeFeed::Reset { oldest, current } => panic!(
                "{name}: reset ({oldest}, {current}) for the previous epoch {}",
                prev.epoch()
            ),
        }
        if want
            .entries
            .iter()
            .any(|d| d.before.alive && d.after.alive && d.before.labels != d.after.labels)
        {
            relabels += 1;
        }
        *prev = cur;
    };
    for _ in 0..rounds {
        live.push_back(e.insert_batch(&churn_batch(&mut rng)));
        check(&*e, &mut prev);
        if e.supports_deletion() && live.len() > 3 {
            let old = live.pop_front().expect("more than three live batches");
            e.delete_batch(&old);
            check(&*e, &mut prev);
        }
    }
    relabels
}

#[test]
fn every_refresh_delta_matches_between_on_every_engine() {
    for rho in [0.0, 0.25] {
        let p = Params::new(0.5, 5).with_rho(rho);
        let mut engines: Vec<(String, Box<dyn DynamicClusterer<2>>)> = vec![
            (
                format!("semi rho={rho}"),
                Box::new(SemiDynDbscan::<2>::new(p).with_threads(2)),
            ),
            (
                format!("full rho={rho}"),
                Box::new(FullDynDbscan::<2>::new(p).with_threads(2)),
            ),
            (
                format!("sharded S=2 rho={rho}"),
                Box::new(ShardedDbscan::<2, FullDynDbscan<2>>::new_full(p, 2).with_threads(2)),
            ),
        ];
        if rho == 0.0 {
            engines.push((
                "incdbscan".to_string(),
                Box::new(IncDbscan::<2>::new(p).with_threads(2)),
            ));
        }
        for (name, e) in engines {
            // The insert-only engine grows to 12 batches; the others
            // churn a window of three.
            let relabels = check_feed(&name, e, 12);
            assert!(
                relabels > 0,
                "{name}: the churn never merged or split a cluster"
            );
        }
    }
}

/// Pages copied by one 64-point batch and its publish, after preloading
/// `n` seed-spreader points into an engine serving a handle with delta
/// tracking on.
fn pages_copied_by_one_batch(n: usize) -> u64 {
    let mut e = FullDynDbscan::<2>::new(Params::new(200.0, 10));
    e.set_track_deltas(true);
    let _handle = e.epoch_handle();
    e.insert_batch(&seed_spreader::<2>(n, 7));
    e.snapshot();
    let before = DynamicClusterer::stats(&e).snapshot_pages_copied;
    // A fresh cluster outside the data space: the batch touches its own
    // ids only, wherever the id space ends.
    let blob: Vec<Point<2>> = (0..64)
        .map(|i| {
            [
                -5_000.0 + (i % 8) as f64 * 20.0,
                -5_000.0 + (i / 8) as f64 * 20.0,
            ]
        })
        .collect();
    e.insert_batch(&blob);
    let snap = e.snapshot();
    assert_eq!(snap.len(), n + 64);
    DynamicClusterer::stats(&e).snapshot_pages_copied - before
}

#[test]
fn publish_copies_the_same_pages_at_20k_and_80k() {
    let small = pages_copied_by_one_batch(20_000);
    let large = pages_copied_by_one_batch(80_000);
    // One flags page and one anchors page hold the batch's 64 new ids
    // at both sizes; a whole-table copy would grow 4x with n.
    assert_eq!(small, large, "publish work grew with n");
    assert!(
        (1..=4).contains(&small),
        "{small} pages copied for a 64-point batch"
    );
}
