//! `serve_churn_clustered`: an in-process `dydbscan-serve` server (eps
//! 200, MinPts 10, rho 0.001, two engine threads, unsharded, delta
//! tracking on) preloaded with seed-spreader points. One closed-loop
//! writer connection inserts fresh batches and deletes the batch from
//! two rounds earlier; one open-loop reader connection sends `group_by`
//! over preload ids at a fixed rate, timed from each query's due time.
//!
//! The server's internals cannot be wrapped from outside, so the traced
//! run replays the served pass's rounds on an in-process
//! `FullDynDbscan` configured like the server's ingest loop
//! (`insert_batch`/`delete_batch`, then `snapshot()` with a handle
//! vended and delta tracking on), framing each request and response
//! with the `proto` functions. What the replay does not account for in
//! the served round trip is the wire and queue share.

use super::{finish_trace, fresh_start, report_e2e, report_extra, Stop, RSS_ROUNDS};
use crate::check;
use crate::metrics::Layers;
use crate::stats::{self, OpenLoop, Samples};
use crate::trace::Tracer;
use crate::{data, peak_rss_mb, Config, Counters, Outcome, FRESH_FACTOR, SETUP_REPS};
use dydbscan::geom::Point;
use dydbscan::{DynamicClusterer, FullDynDbscan, GroupBy, Params, PointId};
use dydbscan_serve::proto::{
    decode_request, decode_response, encode_request, ok_response, put_ids, put_u32, put_u64,
    Request,
};
use dydbscan_serve::{Client, Server, ServerConfig};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const EPS: f64 = 200.0;
const MIN_PTS: usize = 10;
const RHO: f64 = 0.001;

/// Consecutive segments whose median rate is `update_pts_per_s`: the
/// set-ups race a reader against the writer, so they do not repeat the
/// same work call for call.
const RATE_SEGMENTS: usize = 10;

/// Replay request ids at or above this are queries.
const QUERY_REQ: u64 = 1 << 40;

/// Every field pinned: `ServerConfig::default()` reads the shard count
/// from the environment.
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        eps: EPS,
        min_pts: MIN_PTS,
        rho: RHO,
        threads: 2,
        shards: 0,
        track_deltas: true,
    }
}

fn params() -> Params {
    Params::new(EPS, MIN_PTS).with_rho(RHO)
}

/// Starts a server and preloads it over the wire; returns the preload ids.
fn start(preload: &[Point<2>], chunk: usize) -> Result<(Server, Vec<PointId>), String> {
    let server = Server::start(server_config()).map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut ids = Vec::with_capacity(preload.len());
    for rows in preload.chunks(chunk) {
        let (_, got) = c.insert(rows).map_err(|e| format!("preload: {e}"))?;
        ids.extend(got);
    }
    Ok((server, ids))
}

/// Shuts a server down (every client must have hung up) and reports
/// whether its ingest epochs stayed monotone.
fn stop(server: Server) -> Result<(), String> {
    server.request_shutdown();
    let st = server.join().map_err(|e| format!("server join: {e}"))?;
    if st.epochs_monotone {
        Ok(())
    } else {
        Err("ingest epochs went backwards".to_string())
    }
}

#[derive(Debug, Default)]
struct WriterLog {
    rt_us: Samples,
    /// Per acknowledged write, in order: points and seconds.
    calls: Vec<(f64, f64)>,
    epochs: Vec<u64>,
    points: u64,
    rounds: usize,
    live: VecDeque<(usize, Vec<PointId>)>,
    elapsed_s: f64,
    /// Peak RSS after [`RSS_ROUNDS`] rounds (0 if the loop stopped
    /// sooner).
    rss_mb: f64,
    failed: u64,
    errors: Vec<String>,
}

/// Closed loop: round `r` inserts `rows[first + r*batch ..][..batch]`,
/// then deletes the batch inserted in round `r - 2`.
fn writer(
    addr: SocketAddr,
    rows: &[Point<2>],
    first: usize,
    batch: usize,
    stop: Stop,
) -> WriterLog {
    let mut w = WriterLog::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            w.failed += 1;
            w.errors.push(format!("writer connect: {e}"));
            return w;
        }
    };
    let t0 = Instant::now();
    while !stop.done(w.rounds) {
        let start = fresh_start(rows.len(), first, batch, w.rounds);
        let a = Instant::now();
        match c.insert(&rows[start..start + batch]) {
            Ok((epoch, ids)) => {
                let rt = a.elapsed().as_secs_f64();
                w.rt_us.push(rt * 1e6);
                w.calls.push((batch as f64, rt));
                w.epochs.push(epoch);
                w.points += batch as u64;
                w.live.push_back((start, ids));
            }
            Err(e) => {
                w.failed += 1;
                w.errors.push(format!("insert: {e}"));
                break;
            }
        }
        if w.live.len() > 2 {
            let (_, old) = w.live.pop_front().expect("three live batches");
            let a = Instant::now();
            match c.delete(&old) {
                Ok(epoch) => {
                    let rt = a.elapsed().as_secs_f64();
                    w.rt_us.push(rt * 1e6);
                    w.calls.push((old.len() as f64, rt));
                    w.epochs.push(epoch);
                    w.points += old.len() as u64;
                }
                Err(e) => {
                    w.failed += 1;
                    w.errors.push(format!("delete: {e}"));
                    break;
                }
            }
        }
        w.rounds += 1;
        if w.rounds == RSS_ROUNDS {
            w.rss_mb = peak_rss_mb();
        }
    }
    w.elapsed_s = t0.elapsed().as_secs_f64();
    w
}

#[derive(Debug, Default)]
struct ReaderLog {
    /// From each query's due time to its answer.
    latency_us: Samples,
    /// From sending to the answer.
    rt_us: Samples,
    lateness_us: Samples,
    epochs: Vec<u64>,
    failed: u64,
    errors: Vec<String>,
}

/// Open loop: query `k` is due `k / rate` after `t0`; runs until `done`.
fn open_loop(
    queries: &[Vec<PointId>],
    rate: f64,
    t0: Instant,
    done: &AtomicBool,
    mut ask: impl FnMut(u64, &[PointId]) -> Result<(u64, GroupBy), String>,
) -> ReaderLog {
    let ol = OpenLoop::new(rate);
    let mut r = ReaderLog::default();
    for (k, q) in queries.iter().enumerate() {
        let k = k as u64;
        let due = t0 + ol.due(k);
        // ORDERING: Relaxed — a stop request; nothing is published
        // through the flag (results come back through the thread join).
        while Instant::now() < due && !done.load(Ordering::Relaxed) {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        // ORDERING: Relaxed — as above.
        if done.load(Ordering::Relaxed) {
            break;
        }
        let sent = Instant::now();
        let answer = ask(k, q);
        let answered = Instant::now();
        r.lateness_us.push(ol.lateness_us(k, sent - t0));
        match answer.and_then(|(epoch, g)| check::covers(&g, q).map(|()| epoch)) {
            Ok(epoch) => {
                r.latency_us.push(ol.latency_us(k, answered - t0));
                r.rt_us.push((answered - sent).as_secs_f64() * 1e6);
                r.epochs.push(epoch);
            }
            Err(e) => {
                r.failed += 1;
                if r.errors.len() < 5 {
                    r.errors.push(format!("query {k}: {e}"));
                }
            }
        }
    }
    r
}

/// Everything one served window measured.
struct Served {
    setup_s: Vec<f64>,
    /// Peak RSS after the first window's first [`RSS_ROUNDS`] rounds.
    rss_mb: f64,
    writer: WriterLog,
    reader: ReaderLog,
}

/// `reps` times: sets a server up, runs the writer and reader for
/// `seconds / reps`, and shuts it down; pools what the windows measured.
/// The last server's end state is checked over the wire.
fn served(
    cfg: &Config,
    rows: &[Point<2>],
    qsets: &[Vec<usize>],
    reps: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Option<Served> {
    let sc = &cfg.scale;
    let n = sc.preload;
    let mut total = Served {
        setup_s: Vec::new(),
        rss_mb: 0.0,
        writer: WriterLog::default(),
        reader: ReaderLog::default(),
    };
    for rep in 0..reps {
        let t = Instant::now();
        let started = start(&rows[..n], sc.serve_preload_chunk);
        total.setup_s.push(t.elapsed().as_secs_f64());
        let (server, preload_ids) = match started {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                return None;
            }
        };
        let addr = server.addr();
        let queries: Vec<Vec<PointId>> = qsets
            .iter()
            .map(|q| q.iter().map(|&i| preload_ids[i]).collect())
            .collect();
        let done = AtomicBool::new(false);
        let (writer, reader) = std::thread::scope(|s| {
            let reader = s.spawn(|| match Client::connect(addr) {
                Ok(mut c) => open_loop(&queries, sc.query_rate, Instant::now(), &done, |_, q| {
                    let g = c.group_by(q).map_err(|e| e.to_string())?;
                    Ok((
                        g.epoch,
                        GroupBy {
                            groups: g.groups,
                            noise: g.noise,
                        },
                    ))
                }),
                Err(e) => ReaderLog {
                    failed: 1,
                    errors: vec![format!("reader connect: {e}")],
                    ..ReaderLog::default()
                },
            });
            let w = writer(
                addr,
                rows,
                n,
                sc.serve_batch,
                Stop::after(seconds / reps as f64),
            );
            // ORDERING: Relaxed — see `open_loop`.
            done.store(true, Ordering::Relaxed);
            (w, reader.join().expect("reader thread panicked"))
        });
        out.check(
            "writer epochs non-decreasing",
            check::monotone(&writer.epochs),
        );
        out.check(
            "reader epochs non-decreasing",
            check::monotone(&reader.epochs),
        );
        out.attempted +=
            writer.rt_us.len() as u64 + writer.failed + reader.lateness_us.len() as u64;
        out.failed += writer.failed + reader.failed;
        out.errors.extend(writer.errors.iter().cloned());
        out.errors.extend(reader.errors.iter().cloned());

        if rep + 1 == reps {
            // End state over the wire: preload plus the two newest batches.
            let mut pts = rows[..n].to_vec();
            let mut ids = preload_ids;
            for (start, b) in &writer.live {
                pts.extend_from_slice(&rows[*start..*start + b.len()]);
                ids.extend_from_slice(b);
            }
            out.attempted += 1;
            let end_state = Client::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.group_all().map_err(|e| e.to_string()))
                .and_then(|g| {
                    let got = GroupBy {
                        groups: g.groups,
                        noise: g.noise,
                    };
                    check::against_static(&pts, &ids, &got, &params())
                });
            if end_state.is_err() {
                out.failed += 1;
            }
            out.check(
                "served end-state clustering vs static DBSCAN (sandwich)",
                end_state,
            );
        }
        out.check("server shutdown, ingest epochs monotone", stop(server));
        if rep == 0 {
            total.rss_mb = writer.rss_mb;
        }
        let mut wr = writer.rt_us.clone();
        out.notes.push(format!(
            "window {rep}: {:.0} pts/s, write p50 {:?} us",
            writer.points as f64 / writer.elapsed_s,
            wr.percentile(50.0)
        ));
        let (w, r) = (&mut total.writer, &mut total.reader);
        w.rt_us.extend(&writer.rt_us);
        w.calls.extend(writer.calls);
        w.points += writer.points;
        w.rounds += writer.rounds;
        w.elapsed_s += writer.elapsed_s;
        r.latency_us.extend(&reader.latency_us);
        r.rt_us.extend(&reader.rt_us);
        r.lateness_us.extend(&reader.lateness_us);
    }
    Some(total)
}

/// The groups payload exactly as the server frames it.
fn groups_payload(epoch: u64, g: &GroupBy) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, epoch);
    put_u32(
        &mut p,
        u32::try_from(g.groups.len()).expect("group count fits u32"),
    );
    for group in &g.groups {
        put_ids(&mut p, group);
    }
    put_ids(&mut p, &g.noise);
    p
}

struct Replay {
    writer_s: f64,
    counters: Counters,
    reader: ReaderLog,
}

/// One served request, in process: frame, decode, apply, publish, frame
/// the answer, decode it.
fn replay_write(e: &mut FullDynDbscan<2>, req: Request, id: u64, tr: &mut Tracer) -> Vec<PointId> {
    let open = tr.begin("serve.write", id);
    let frame = tr.span("proto.encode", id, || encode_request(&req));
    let decoded = tr.span("proto.decode", id, || decode_request(&frame));
    let ids = match decoded.expect("own frame decodes") {
        Request::Insert(rows) => tr.span("flush.insert_batch", id, || e.insert_batch(&rows)),
        Request::Delete(ids) => {
            tr.span("flush.delete_batch", id, || e.delete_batch(&ids));
            Vec::new()
        }
        other => unreachable!("replay writes only inserts and deletes, not {other:?}"),
    };
    let epoch = tr.span("snapshot.publish", id, || e.snapshot().epoch());
    let resp = tr.span("proto.encode", id, || {
        let mut p = Vec::new();
        put_u64(&mut p, epoch);
        if matches!(req, Request::Insert(_)) {
            put_ids(&mut p, &ids);
        }
        ok_response(&p)
    });
    let body = tr.span("proto.decode", id, || {
        decode_response(&resp).map(<[u8]>::len)
    });
    body.expect("own response decodes");
    tr.end(open);
    ids
}

/// Replays `rounds` served rounds in process, with a reader thread
/// querying the engine's epoch handle at the served rate.
fn replay(
    cfg: &Config,
    rows: &[Point<2>],
    qsets: &[Vec<usize>],
    rounds: usize,
    trace: Option<&mut Tracer>,
) -> Replay {
    let sc = &cfg.scale;
    let n = sc.preload;
    let batch = sc.serve_batch;
    let mut e = FullDynDbscan::<2>::new(params()).with_threads(2);
    e.set_track_deltas(true);
    let handle = e.epoch_handle();
    let mut preload_ids = Vec::with_capacity(n);
    for chunk in rows[..n].chunks(sc.serve_preload_chunk) {
        preload_ids.extend(e.insert_batch(chunk));
        e.snapshot();
    }
    let queries: Vec<Vec<PointId>> = qsets
        .iter()
        .map(|q| q.iter().map(|&i| preload_ids[i]).collect())
        .collect();
    let before = Counters::of_full(&e);
    let mut off = Tracer::off();
    let tr = trace.unwrap_or(&mut off);
    let mut rtr = tr.child();
    let done = AtomicBool::new(false);
    let (writer_s, (reader, rtr)) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let log = open_loop(&queries, sc.query_rate, Instant::now(), &done, |k, q| {
                let id = QUERY_REQ + k;
                let open = rtr.begin("serve.query", id);
                let frame = rtr.span("proto.encode", id, || {
                    encode_request(&Request::GroupBy(q.to_vec()))
                });
                let Ok(Request::GroupBy(ids)) =
                    rtr.span("proto.decode", id, || decode_request(&frame))
                else {
                    return Err("own query frame did not decode".to_string());
                };
                let snap = rtr.span("snapshot.handle_load", id, || handle.load());
                let g = rtr
                    .span("snapshot.group_by", id, || snap.try_group_by(&ids))
                    .map_err(|e| e.to_string())?;
                let resp = rtr.span("proto.encode", id, || {
                    ok_response(&groups_payload(snap.epoch(), &g))
                });
                let body = rtr.span("proto.decode", id, || {
                    decode_response(&resp).map(<[u8]>::len)
                });
                body.map_err(|e| format!("own response did not decode: {e}"))?;
                rtr.end(open);
                Ok((snap.epoch(), g))
            });
            (log, rtr)
        });
        let t0 = Instant::now();
        let mut live: VecDeque<Vec<PointId>> = VecDeque::new();
        for r in 0..rounds {
            let start = fresh_start(rows.len(), n, batch, r);
            let req = Request::Insert(rows[start..start + batch].to_vec());
            live.push_back(replay_write(&mut e, req, 2 * r as u64, tr));
            if live.len() > 2 {
                let old = live.pop_front().expect("three live batches");
                replay_write(&mut e, Request::Delete(old), 2 * r as u64 + 1, tr);
            }
        }
        let writer_s = t0.elapsed().as_secs_f64();
        // ORDERING: Relaxed — see `open_loop`.
        done.store(true, Ordering::Relaxed);
        (writer_s, reader.join().expect("replay reader panicked"))
    });
    tr.absorb(rtr);
    Replay {
        writer_s,
        counters: Counters::of_full(&e).since(&before),
        reader,
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let sc = &cfg.scale;
    let n = sc.preload;
    let chunks = (1 + FRESH_FACTOR) * n / sc.spreader_chunk;
    let rows = data::spreader_chunks::<2>(cfg.seed, 31, chunks, sc.spreader_chunk);
    let n_queries = (sc.query_rate * cfg.seconds * 1.5).ceil() as usize + 16;
    let qsets = data::query_sets(data::mix(cfg.seed, 32), n_queries, sc.query_ids, n);
    let mut out = Outcome::default();

    if !cfg.trace {
        let Some(mut s) = served(cfg, &rows, &qsets, SETUP_REPS, cfg.seconds, &mut out) else {
            return out;
        };
        let rate = stats::median_rate(&s.writer.calls, RATE_SEGMENTS);
        report_e2e(&mut out, &s.setup_s, s.rss_mb, rate, &mut s.writer.rt_us);
        report_extra(&mut out, "query_p50_us", &mut s.reader.latency_us, 50.0);
        report_extra(&mut out, "query_p99_us", &mut s.reader.latency_us, 99.0);
        report_extra(
            &mut out,
            "gen.lateness_p99_us",
            &mut s.reader.lateness_us,
            99.0,
        );
        out.notes.push(format!(
            "{} writes, {} queries at {} /s",
            s.writer.rt_us.len(),
            s.reader.latency_us.len(),
            sc.query_rate
        ));
        return out;
    }

    let Some(mut s) = served(cfg, &rows, &qsets, 1, cfg.seconds / 2.0, &mut out) else {
        return out;
    };
    let rounds = s.writer.rounds;
    let u = replay(cfg, &rows, &qsets, rounds, None);
    let mut tr = Tracer::new(true, Instant::now());
    let t = replay(cfg, &rows, &qsets, rounds, Some(&mut tr));
    for r in [&u.reader, &t.reader] {
        out.attempted += r.lateness_us.len() as u64;
        out.failed += r.failed;
        out.errors.extend(r.errors.iter().cloned());
    }
    out.attempted += 2 * 2 * rounds as u64;
    super::check_repeat(&mut out, &u.counters, &t.counters);

    let mut l = Layers::new();
    let mut ins = tr.durations_us("flush.insert_batch");
    let mut del = tr.durations_us("flush.delete_batch");
    let mut publish = tr.durations_us("snapshot.publish");
    l.set_pct("flush.insert_batch_p50_us", &mut ins, 50.0);
    l.set_pct("flush.insert_batch_p90_us", &mut ins, 90.0);
    l.set_pct("flush.delete_batch_p50_us", &mut del, 50.0);
    l.set_pct("flush.delete_batch_p90_us", &mut del, 90.0);
    l.set_pct("snapshot.publish_p50_us", &mut publish, 50.0);
    l.set_pct("snapshot.publish_p90_us", &mut publish, 90.0);
    let write_rt = s.writer.rt_us.percentile(50.0);
    if let (Some(p), Some(rt)) = (publish.percentile(50.0), write_rt) {
        l.set("snapshot.publish_share_pct", p / rt * 100.0);
    }
    let mut load_ns = Samples::new();
    for sp in tr
        .spans()
        .iter()
        .filter(|sp| sp.name == "snapshot.handle_load")
    {
        load_ns.push(sp.dur_ns() as f64);
    }
    l.set_pct("snapshot.handle_load_p50_ns", &mut load_ns, 50.0);
    l.set_pct(
        "snapshot.group_by_p50_us",
        &mut tr.durations_us("snapshot.group_by"),
        50.0,
    );
    l.set_pct(
        "proto.encode_p50_us",
        &mut tr.durations_us("proto.encode"),
        50.0,
    );
    l.set_pct(
        "proto.decode_p50_us",
        &mut tr.durations_us("proto.decode"),
        50.0,
    );
    let write_layers = [
        "proto.encode",
        "proto.decode",
        "flush.insert_batch",
        "flush.delete_batch",
        "snapshot.publish",
    ];
    let query_layers = [
        "proto.encode",
        "proto.decode",
        "snapshot.handle_load",
        "snapshot.group_by",
    ];
    let mut in_write = tr.per_request_us(&write_layers, |r| r < QUERY_REQ);
    let mut in_query = tr.per_request_us(&query_layers, |r| r >= QUERY_REQ);
    if let (Some(rt), Some(inp)) = (write_rt, in_write.percentile(50.0)) {
        l.set("serve.write_wire_queue_p50_us", rt - inp);
    }
    if let (Some(rt), Some(inp)) = (s.reader.rt_us.percentile(50.0), in_query.percentile(50.0)) {
        l.set("serve.query_wire_p50_us", rt - inp);
    }
    l.set_pct("gen.lateness_p99_us", &mut s.reader.lateness_us, 99.0);
    l.set_counters(&t.counters, s.writer.points);
    l.set_workers_per_flush(&t.counters);
    l.set_overhead(u.writer_s, t.writer_s);
    let (metrics, notes) = l.into_metrics();
    out.metrics = metrics;
    out.notes.extend(notes);
    out.notes.push(format!(
        "replayed {rounds} rounds: untraced {:.3} s, traced {:.3} s; served write p50 {:.1} us",
        u.writer_s,
        t.writer_s,
        write_rt.unwrap_or(0.0)
    ));
    finish_trace(cfg, "serve_churn_clustered", &tr, &mut out);
    out
}
