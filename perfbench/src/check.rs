//! Output checks, run outside the timed window.

use dydbscan::geom::Point;
use dydbscan::{check_sandwich, relabel, static_cluster, Clustering, GroupBy, Params, PointId};
use std::collections::HashSet;

/// Checks an engine's end-state clustering of the alive points `pts`
/// (with ids `ids`) against static DBSCAN: exact equality at `rho = 0`,
/// and at `rho > 0` the sandwich between the exact clusterings at `eps`
/// and at `(1 + rho) * eps`.
pub fn against_static<const D: usize>(
    pts: &[Point<D>],
    ids: &[PointId],
    got: &Clustering,
    params: &Params,
) -> Result<(), String> {
    covers(got, ids)?;
    let got = got.normalized();
    if params.rho == 0.0 {
        let want = relabel(&static_cluster(pts, params), ids);
        if got != want {
            return Err(format!(
                "clustering differs from static DBSCAN: {} groups / {} noise vs {} / {}",
                got.groups.len(),
                got.noise.len(),
                want.groups.len(),
                want.noise.len()
            ));
        }
        return Ok(());
    }
    let lo = Params::new(params.eps, params.min_pts);
    let hi = Params::new(params.eps_hi(), params.min_pts);
    let c1 = relabel(&static_cluster(pts, &lo), ids);
    let c2 = relabel(&static_cluster(pts, &hi), ids);
    check_sandwich(&c1, &got, &c2)
}

/// A group-by answer must mention exactly the queried ids.
pub fn covers(g: &GroupBy, q: &[PointId]) -> Result<(), String> {
    let want: HashSet<PointId> = q.iter().copied().collect();
    let mut seen: HashSet<PointId> = HashSet::with_capacity(q.len());
    for &id in g.groups.iter().flatten().chain(g.noise.iter()) {
        if !want.contains(&id) {
            return Err(format!("answer mentions id {id}, which was not queried"));
        }
        seen.insert(id);
    }
    if seen.len() != want.len() {
        return Err(format!(
            "answer covers {} of {} queried ids",
            seen.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Epochs a connection observed must never go backwards.
pub fn monotone(epochs: &[u64]) -> Result<(), String> {
    match epochs.windows(2).position(|w| w[1] < w[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "epoch went backwards: {} then {}",
            epochs[i],
            epochs[i + 1]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_wrong_clusterings() {
        let pts = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [9.0, 9.0]];
        let ids = [10, 11, 12, 13];
        let params = Params::new(1.0, 3);
        let good = GroupBy {
            groups: vec![vec![12, 10, 11]],
            noise: vec![13],
        };
        assert!(against_static(&pts, &ids, &good, &params).is_ok());
        let split = GroupBy {
            groups: vec![vec![10, 11], vec![12]],
            noise: vec![13],
        };
        assert!(against_static(&pts, &ids, &split, &params).is_err());
        let missing = GroupBy {
            groups: vec![vec![10, 11, 12]],
            noise: vec![],
        };
        assert!(against_static(&pts, &ids, &missing, &params).is_err());
        let approx = params.with_rho(0.5);
        assert!(against_static(&pts, &ids, &good, &approx).is_ok());
        assert!(against_static(&pts, &ids, &split, &approx).is_err());
    }

    #[test]
    fn epoch_order() {
        assert!(monotone(&[1, 1, 2, 5]).is_ok());
        assert!(monotone(&[1, 3, 2]).is_err());
    }
}
