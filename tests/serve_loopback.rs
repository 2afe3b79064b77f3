//! Tier-1 loopback differential suite for `dydbscan-serve` (ISSUE 9):
//! every answer the server gives over the wire must equal what a local
//! replica computes from the same mutation history.
//!
//! * `concurrent_clients_group_by_matches_sequential_replay` — K client
//!   threads (K from `DYDBSCAN_SERVE_THREADS`, default 4) race
//!   insert-only batches and immediately `group_by` their own acked
//!   ids. Afterwards the acked batches, sorted by ack epoch, replay
//!   into a local `FullDynDbscan<2>`; assigned ids, epochs, and every
//!   wire `group_by` answer must match the replica's snapshot at the
//!   exact epoch that answered.
//! * `change_feed_composes_and_matches_local_between` — per-step wire
//!   `changed_since` deltas over E→E'→E'' must compose (via
//!   `SnapshotDelta::compose`) into the direct wire diff E→E'', and
//!   both must equal `SnapshotDelta::between` on the replica's
//!   snapshots at E and E''.
//! * `change_feed_resets_a_client_past_the_window_then_resyncs` — a
//!   client 70 epochs behind gets `Reset{oldest, current}` naming the
//!   newest 64 epochs, resyncs with `group_all`, and every later wire
//!   delta equals `SnapshotDelta::between` on the replica.
//! * `malformed_bytes_get_error_responses_never_panics` — hostile
//!   frames (unknown opcode, truncated body, hostile counts, absurd
//!   length prefix) draw error responses or a closed connection, never
//!   a server panic; the server keeps serving and shuts down cleanly.
//! * `unrepresentable_rows_get_an_error_frame_and_ingest_survives` —
//!   finite rows too large for a grid cell draw an error frame naming
//!   the row; the ingest thread keeps applying later batches.

use dydbscan_core::{
    DynamicClusterer, FullDynDbscan, GroupBy, Params, PointId, ShardedDbscan, SnapshotDelta,
};
use dydbscan_geom::SplitMix64;
use dydbscan_serve::{Client, Server, ServerConfig, WireFeed};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Client-thread count: the CI test-threads matrix sets this to
/// {1, 2, 4}; locally it defaults to 4.
fn client_threads() -> usize {
    std::env::var("DYDBSCAN_SERVE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// A replica engine configured exactly like `ServerConfig::default()` —
/// including the shard count (`DYDBSCAN_SERVE_SHARDS`), so a sharded
/// server is diffed against an equally-sharded replica and every wire
/// answer, raw snapshot label included, must match bit for bit.
fn replica(cfg: &ServerConfig) -> Box<dyn DynamicClusterer<2>> {
    let params = Params::new(cfg.eps, cfg.min_pts).with_rho(cfg.rho);
    if cfg.shards > 1 {
        Box::new(ShardedDbscan::<2, FullDynDbscan<2>>::new_with(
            params,
            cfg.shards,
            |p| FullDynDbscan::new(*p).with_threads(1),
        ))
    } else {
        Box::new(FullDynDbscan::<2>::new(params))
    }
}

/// Uniform rows in a box sized for real cluster structure at eps = 1.
fn gen_rows(rng: &mut SplitMix64, n: usize, side: f64) -> Vec<[f64; 2]> {
    (0..n)
        .map(|_| [rng.next_f64() * side, rng.next_f64() * side])
        .collect()
}

/// Order-insensitive normal form of a grouping: each group sorted, the
/// groups sorted, the noise sorted.
fn norm(groups: &[Vec<PointId>], noise: &[PointId]) -> (Vec<Vec<PointId>>, Vec<PointId>) {
    let mut gs: Vec<Vec<PointId>> = groups
        .iter()
        .map(|g| {
            let mut g = g.clone();
            g.sort_unstable();
            g
        })
        .collect();
    gs.sort();
    let mut ns = noise.to_vec();
    ns.sort_unstable();
    (gs, ns)
}

/// One acked mutation plus the wire answer it was immediately queried
/// with, recorded by a racing client thread.
struct AckedBatch {
    ack_epoch: u64,
    rows: Vec<[f64; 2]>,
    ids: Vec<PointId>,
    query: Vec<PointId>,
    answer_epoch: u64,
    answer: (Vec<Vec<PointId>>, Vec<PointId>),
}

#[test]
fn concurrent_clients_group_by_matches_sequential_replay() {
    const BATCHES_PER_CLIENT: usize = 6;
    const BATCH: usize = 32;
    let clients = client_threads();
    let cfg = ServerConfig::default();
    let server = Server::start(cfg.clone()).unwrap();
    let addr = server.addr();
    let side = ((clients * BATCHES_PER_CLIENT * BATCH) as f64).sqrt() / 2.0;

    let mut records: Vec<AckedBatch> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut rng = SplitMix64::new(0x5E41 + ci as u64);
                    let mut out = Vec::with_capacity(BATCHES_PER_CLIENT);
                    let mut mine: Vec<PointId> = Vec::new();
                    for _ in 0..BATCHES_PER_CLIENT {
                        let rows = gen_rows(&mut rng, BATCH, side);
                        let (ack_epoch, ids) = client.insert(&rows).unwrap();
                        mine.extend_from_slice(&ids);
                        // Query a random slice of this client's own acked
                        // ids: read-your-writes guarantees they exist at
                        // whatever epoch answers.
                        let query: Vec<PointId> = (0..BATCH)
                            .map(|_| mine[rng.next_below(mine.len() as u64) as usize])
                            .collect();
                        let g = client.group_by(&query).unwrap();
                        assert!(
                            g.epoch >= ack_epoch,
                            "read-your-writes: answered at {} before ack {ack_epoch}",
                            g.epoch
                        );
                        out.push(AckedBatch {
                            ack_epoch,
                            rows,
                            ids,
                            query,
                            answer_epoch: g.epoch,
                            answer: norm(&g.groups, &g.noise),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut driver = Client::connect(addr).unwrap();
    driver.shutdown().unwrap();
    drop(driver);
    let stats = server.join().unwrap();
    assert!(stats.epochs_monotone, "server saw a non-monotone publish");

    // Sequential replay: the single ingest thread serialized the
    // batches; their ack epochs are exactly the apply order.
    records.sort_by_key(|r| r.ack_epoch);
    let total = clients * BATCHES_PER_CLIENT;
    assert_eq!(records.len(), total);
    assert!(
        records.windows(2).all(|w| w[0].ack_epoch < w[1].ack_epoch),
        "ack epochs must be distinct: one publish per applied batch"
    );

    let mut engine = replica(&cfg);
    let mut snaps: BTreeMap<u64, Arc<dydbscan_core::ClusterSnapshot>> = BTreeMap::new();
    snaps.insert(engine.snapshot().epoch(), engine.snapshot());
    for r in &records {
        let ids = engine.insert_batch(&r.rows);
        assert_eq!(
            ids, r.ids,
            "replayed id assignment diverged at epoch {}",
            r.ack_epoch
        );
        let snap = engine.snapshot();
        assert_eq!(
            snap.epoch(),
            r.ack_epoch,
            "one batch must publish exactly one epoch"
        );
        snaps.insert(snap.epoch(), snap);
    }

    for r in &records {
        let snap = snaps
            .get(&r.answer_epoch)
            .unwrap_or_else(|| panic!("answered at unknown epoch {}", r.answer_epoch));
        let local: GroupBy = snap.group_by(&r.query);
        assert_eq!(
            r.answer,
            norm(&local.groups, &local.noise),
            "wire group_by at epoch {} diverged from the replica",
            r.answer_epoch
        );
    }
}

/// Converts a wire delta feed into the core type so it can compose.
fn as_delta(feed: WireFeed) -> SnapshotDelta {
    match feed {
        WireFeed::Delta { from, to, entries } => SnapshotDelta {
            from,
            to,
            entries: entries
                .into_iter()
                .map(|e| dydbscan_core::DeltaEntry {
                    id: e.id,
                    before: e.before,
                    after: e.after,
                })
                .collect(),
        },
        WireFeed::Reset { oldest, current } => {
            panic!("feed reset ({oldest}, {current}) inside the tracked window")
        }
    }
}

#[test]
fn change_feed_composes_and_matches_local_between() {
    let cfg = ServerConfig::default();
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut engine = replica(&cfg);
    engine.set_track_deltas(true);
    let mut snaps: BTreeMap<u64, Arc<dydbscan_core::ClusterSnapshot>> = BTreeMap::new();
    snaps.insert(0, engine.snapshot());

    // A scripted mixed history: inserts that merge clusters, then
    // deletions that split and kill them, each step one epoch.
    let mut rng = SplitMix64::new(2017);
    let side = 16.0;
    let mut alive: Vec<PointId> = Vec::new();
    let mut step_deltas: Vec<SnapshotDelta> = Vec::new();
    let mut prev_epoch = 0u64;
    for step in 0..8 {
        let epoch = if step % 3 == 2 && alive.len() >= 24 {
            // Delete a deterministic third of the oldest survivors.
            let kill: Vec<PointId> = alive.iter().step_by(3).copied().collect();
            alive.retain(|id| !kill.contains(id));
            let epoch = client.delete(&kill).unwrap();
            engine.delete_batch(&kill);
            epoch
        } else {
            let rows = gen_rows(&mut rng, 48, side);
            let (epoch, ids) = client.insert(&rows).unwrap();
            assert_eq!(ids, engine.insert_batch(&rows));
            alive.extend(ids);
            epoch
        };
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), epoch);
        snaps.insert(epoch, snap);

        // The single client is the only mutator, so the feed spans
        // exactly prev_epoch → epoch.
        let delta = as_delta(client.changed_since(prev_epoch).unwrap());
        assert_eq!((delta.from, delta.to), (prev_epoch, epoch));
        let local = SnapshotDelta::between(&snaps[&prev_epoch], &snaps[&epoch]);
        assert_eq!(
            delta.entries, local.entries,
            "wire step delta {prev_epoch}→{epoch} diverged from the replica"
        );
        step_deltas.push(delta);
        prev_epoch = epoch;
    }

    // Composition across the whole history must equal the direct diff,
    // over the wire and against the replica's endpoint snapshots.
    let composed = step_deltas
        .iter()
        .skip(1)
        .fold(step_deltas[0].clone(), |acc, d| acc.compose(d));
    let direct = as_delta(client.changed_since(0).unwrap());
    assert_eq!((composed.from, composed.to), (direct.from, direct.to));
    assert_eq!(
        composed.entries, direct.entries,
        "composed feed != direct wire diff"
    );
    let local = SnapshotDelta::between(&snaps[&0], &snaps[&prev_epoch]);
    assert_eq!(
        direct.entries, local.entries,
        "direct wire diff != local between"
    );

    client.shutdown().unwrap();
    drop(client);
    assert!(server.join().unwrap().epochs_monotone);
}

#[test]
fn change_feed_resets_a_client_past_the_window_then_resyncs() {
    let cfg = ServerConfig::default();
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut engine = replica(&cfg);
    let mut snaps: BTreeMap<u64, Arc<dydbscan_core::ClusterSnapshot>> = BTreeMap::new();
    snaps.insert(0, engine.snapshot());
    let mut rng = SplitMix64::new(70);
    let mut alive: Vec<PointId> = Vec::new();
    // One mutation over the wire and on the replica, returning the
    // replica's snapshot at the acked epoch; every fourth deletes a
    // third of the survivors so clusters split as well.
    let mut step = |client: &mut Client, step: usize| {
        let epoch = if step % 4 == 3 {
            let kill: Vec<PointId> = alive.iter().step_by(3).copied().collect();
            alive.retain(|id| !kill.contains(id));
            engine.delete_batch(&kill);
            client.delete(&kill).unwrap()
        } else {
            let rows = gen_rows(&mut rng, 24, 12.0);
            let (epoch, ids) = client.insert(&rows).unwrap();
            assert_eq!(ids, engine.insert_batch(&rows));
            alive.extend(ids);
            epoch
        };
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), epoch);
        snap
    };

    // The client saw epoch 0, then falls 70 epochs behind: past the
    // 64-epoch window.
    for s in 0..70 {
        let snap = step(&mut client, s);
        snaps.insert(snap.epoch(), snap);
    }
    let current = match client.changed_since(0).unwrap() {
        WireFeed::Reset { oldest, current } => {
            assert_eq!(current, 70);
            assert_eq!(current - oldest, 64, "the window is the newest 64 epochs");
            current
        }
        WireFeed::Delta { from, to, .. } => {
            panic!("epoch 0 is 70 epochs behind, yet the feed answered {from}→{to}")
        }
    };

    // Resync from a full clustering (the only client is quiet, so it
    // answers at `current`), then follow the feed again.
    let g = client.group_all().unwrap();
    assert_eq!(g.epoch, current);
    let local = snaps[&current].group_all();
    assert_eq!(
        norm(&g.groups, &g.noise),
        norm(&local.groups, &local.noise),
        "resync group_all diverged from the replica"
    );
    let mut prev = current;
    for s in 70..80 {
        let snap = step(&mut client, s);
        let epoch = snap.epoch();
        snaps.insert(epoch, snap);
        let delta = as_delta(client.changed_since(prev).unwrap());
        assert_eq!((delta.from, delta.to), (prev, epoch));
        let local = SnapshotDelta::between(&snaps[&prev], &snaps[&epoch]);
        assert_eq!(
            delta.entries, local.entries,
            "wire delta {prev}→{epoch} after the resync diverged from the replica"
        );
        prev = epoch;
    }

    client.shutdown().unwrap();
    drop(client);
    assert!(server.join().unwrap().epochs_monotone);
}

#[test]
fn malformed_bytes_get_error_responses_never_panics() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // Unknown opcode → error response, connection stays usable.
    let resp = client
        .raw_call(&[0x63])
        .unwrap()
        .expect("connection must stay open");
    assert_eq!(resp[0], 1, "unknown opcode must answer an error frame");
    assert!(
        client.epoch().is_ok(),
        "connection must survive a bad opcode"
    );

    // Truncated body: GROUP_BY claiming 5 ids with none attached.
    let resp = client
        .raw_call(&[4, 5, 0, 0, 0])
        .unwrap()
        .expect("still open");
    assert_eq!(resp[0], 1, "truncated body must answer an error frame");

    // Hostile count: far more ids than the frame could carry; must be
    // rejected up front, not allocated.
    let resp = client
        .raw_call(&[4, 0xff, 0xff, 0xff, 0x7f])
        .unwrap()
        .expect("still open");
    assert_eq!(resp[0], 1, "hostile count must answer an error frame");

    // Empty frame → error, and the connection still answers.
    let resp = client.raw_call(&[]).unwrap().expect("still open");
    assert_eq!(resp[0], 1);
    assert!(client.group_all().is_ok());

    // Absurd length prefix on a raw socket: the server must drop the
    // connection without reading 4 GiB — and keep serving others.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let mut buf = [0u8; 16];
        let n = raw.read(&mut buf).unwrap_or(0);
        assert_eq!(
            n, 0,
            "oversized prefix must close the connection, not answer"
        );
    }
    let mut fresh = Client::connect(addr).unwrap();
    assert!(
        fresh.epoch().is_ok(),
        "server must keep serving after a hostile peer"
    );
    drop(client);

    fresh.shutdown().unwrap();
    drop(fresh);
    let stats = server.join().unwrap();
    assert!(stats.epochs_monotone);
}

#[test]
fn unrepresentable_rows_get_an_error_frame_and_ingest_survives() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, ids) = client.insert(&[[0.0, 0.0], [0.5, 0.0]]).unwrap();
    // Finite but 10^12 apart at eps = 1: no i32 grid cell can hold them.
    match client.insert(&[[1e12, 0.0], [2e12, 0.0]]) {
        Err(dydbscan_serve::ClientError::Server(msg)) => {
            assert!(
                msg.contains("point 0") && msg.contains("too large"),
                "{msg}"
            )
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Nothing was applied, and the same connection keeps being served
    // by a live ingest thread.
    let (_, more) = client.insert(&[[0.0, 0.5], [0.5, 0.5]]).unwrap();
    assert_eq!(
        more,
        vec![ids[1] + 1, ids[1] + 2],
        "rejected rows mint no ids"
    );
    let g = client.group_all().unwrap();
    assert_eq!(
        g.groups,
        vec![vec![0, 1, 2, 3]],
        "the four valid rows cluster"
    );
    client.shutdown().unwrap();
    drop(client);
    let stats = server.join().unwrap();
    assert_eq!(stats.batches, 2, "only the two valid batches were applied");
}
