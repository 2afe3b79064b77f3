//! The loopback TCP server: one ingest thread owning the engine, one
//! connection thread per client answering queries off a cloned
//! [`EpochHandle`] — query threads never touch the engine or its
//! refresh mutex.
//!
//! ## Threading shape
//!
//! * **Ingest** is deliberately single-threaded: every mutation
//!   (`INSERT`/`DELETE`) is forwarded over a channel to the one thread
//!   that owns the `FullDynDbscan` engine, which applies the batch,
//!   forces a snapshot refresh (publishing the new epoch through the
//!   handle slot *before* acknowledging — read-your-writes: a client
//!   that got its ids back can immediately query them through any
//!   handle), and replies with the published epoch. Update batching is
//!   the engine's own parallelism story (`FlushPipeline`); serializing
//!   mutations above it keeps ids deterministic and epochs linear.
//! * **Queries** (`GROUP_BY`/`GROUP_ALL`/`CHANGED_SINCE`/`EPOCH`) are
//!   answered directly on the connection's thread from `handle.load()`
//!   — wait-free against the ingest thread, scaling with client count.
//!
//! ## Shutdown
//!
//! A `SHUTDOWN` request is acknowledged, then the accept loop is
//! released (flag + self-connect) and drains: it stops accepting,
//! joins the connection threads (clients are expected to hang up),
//! the ingest channel closes, and the ingest thread reports its
//! epoch-monotonicity verdict in [`ServerStats`].

use crate::proto::{
    decode_request, err_response, ok_response, put_ids, put_u32, put_u64, read_frame, write_frame,
    Request, VERSION,
};
use dydbscan_core::{
    ChangeFeed, DynamicClusterer, EpochHandle, FullDynDbscan, GroupBy, Params, PointState,
    ShardedDbscan, SnapshotDelta,
};
use dydbscan_geom::FxHashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Server configuration (2-d points).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address
    /// is reported by [`Server::addr`]).
    pub addr: String,
    /// DBSCAN radius.
    pub eps: f64,
    /// DBSCAN density threshold.
    pub min_pts: usize,
    /// Approximation parameter ρ (0 = exact).
    pub rho: f64,
    /// Engine flush-thread budget (0 = engine default).
    pub threads: usize,
    /// Shard the cell space `shards` ways for multi-writer ingest
    /// (`0` or `1` = the plain single-engine setup): batches route by
    /// owning shard and flush concurrently, clustering stays
    /// bit-identical. The default reads `DYDBSCAN_SERVE_SHARDS` (the CI
    /// smoke matrix sets it), falling back to `0`.
    pub shards: usize,
    /// Maintain the `changed_since` delta chain (on by default; turning
    /// it off makes that query always answer a reset).
    pub track_deltas: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            eps: 1.0,
            min_pts: 4,
            rho: 0.001,
            threads: 0,
            shards: std::env::var("DYDBSCAN_SERVE_SHARDS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            track_deltas: true,
        }
    }
}

/// What the server observed over its lifetime, reported by
/// [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Mutation batches applied (insert + delete).
    pub batches: u64,
    /// Queries answered across all connections.
    pub queries: u64,
    /// Epochs published by the ingest thread stayed strictly
    /// non-decreasing (they must; `false` is a bug).
    pub epochs_monotone: bool,
    /// The last epoch the ingest thread published.
    pub last_epoch: u64,
}

enum IngestCmd {
    Insert(Vec<[f64; 2]>, mpsc::Sender<Result<(u64, Vec<u32>), String>>),
    Delete(Vec<u32>, mpsc::Sender<Result<u64, String>>),
}

struct IngestReport {
    batches: u64,
    epochs_monotone: bool,
    last_epoch: u64,
}

/// A running server. Dropping it without [`join`](Self::join) detaches
/// the threads (they exit once a shutdown request arrives and clients
/// hang up); tests and the binary always join.
pub struct Server {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<io::Result<()>>>,
    ingest: Option<JoinHandle<IngestReport>>,
    shutdown: Arc<AtomicBool>,
    queries: Arc<AtomicU64>,
    handle: EpochHandle,
}

impl Server {
    /// Binds, spawns the ingest and acceptor threads, and returns.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let params = Params::new(cfg.eps, cfg.min_pts).with_rho(cfg.rho);
        // The ingest loop only speaks the trait, so the engine shape —
        // one fully-dynamic engine or a sharded front-end over several —
        // is a boxed runtime choice.
        let mut engine: Box<dyn DynamicClusterer<2> + Send> = if cfg.shards > 1 {
            let mut c = ShardedDbscan::<2, FullDynDbscan<2>>::new_full(params, cfg.shards);
            if cfg.threads > 0 {
                c = c.with_threads(cfg.threads);
            }
            Box::new(c)
        } else {
            let mut c = FullDynDbscan::<2>::new(params);
            if cfg.threads > 0 {
                c = c.with_threads(cfg.threads);
            }
            Box::new(c)
        };
        if cfg.track_deltas {
            engine.set_track_deltas(true);
        }
        let handle = engine.epoch_handle();

        let (tx, rx) = mpsc::channel::<IngestCmd>();
        let ingest = std::thread::Builder::new()
            .name("serve-ingest".to_string())
            .spawn(move || ingest_loop(engine, rx))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let queries = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let queries = Arc::clone(&queries);
            let handle = handle.clone();
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, tx, handle, shutdown, queries))?
        };

        Ok(Server {
            addr,
            acceptor: Some(acceptor),
            ingest: Some(ingest),
            shutdown,
            queries,
            handle,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A wait-free handle onto the server's published epochs — the same
    /// slot the connection threads read. In-process observers (the
    /// bench harness) use this to watch epochs without a socket.
    pub fn epoch_handle(&self) -> EpochHandle {
        self.handle.clone()
    }

    /// Waits for the server to shut down (a client must send
    /// `SHUTDOWN`, or [`request_shutdown`](Self::request_shutdown) be
    /// called) and returns its lifetime stats.
    pub fn join(mut self) -> io::Result<ServerStats> {
        let acceptor = self
            .acceptor
            .take()
            .expect("join consumes the only handles");
        acceptor
            .join()
            .map_err(|_| io::Error::other("acceptor thread panicked"))??;
        let ingest = self.ingest.take().expect("join consumes the only handles");
        let report = ingest
            .join()
            .map_err(|_| io::Error::other("ingest thread panicked"))?;
        // ORDERING: Relaxed — a stat counter read after both threads
        // are joined; the joins already order everything.
        let queries = self.queries.load(Ordering::Relaxed);
        Ok(ServerStats {
            batches: report.batches,
            queries,
            epochs_monotone: report.epochs_monotone,
            last_epoch: report.last_epoch,
        })
    }

    /// Initiates shutdown from the owning process (equivalent to a
    /// client `SHUTDOWN` request).
    pub fn request_shutdown(&self) {
        // ORDERING: Relaxed — the flag is only *decided* here; the
        // accept loop re-checks it after the self-connect below, whose
        // TCP round-trip (and the mutex inside accept) orders the
        // store; nothing else is published through the flag.
        self.shutdown.store(true, Ordering::Relaxed);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

fn ingest_loop(
    mut engine: Box<dyn DynamicClusterer<2> + Send>,
    rx: mpsc::Receiver<IngestCmd>,
) -> IngestReport {
    let mut alive: FxHashSet<u32> = FxHashSet::default();
    let mut report = IngestReport {
        batches: 0,
        epochs_monotone: true,
        last_epoch: 0,
    };
    while let Ok(cmd) = rx.recv() {
        match cmd {
            IngestCmd::Insert(rows, reply) => {
                // Rows the engine cannot represent (finite but too large
                // for a grid cell) are a data error: reply with it
                // instead of letting the engine's panic take the ingest
                // thread down.
                let ids = match engine.try_insert_batch(&rows) {
                    Ok(ids) => ids,
                    Err(e) => {
                        let _ = reply.send(Err(e.to_string()));
                        continue;
                    }
                };
                alive.extend(ids.iter().copied());
                // Publish before acknowledging: the client that owns
                // these ids can query them through any handle the
                // moment it has them (read-your-writes).
                let epoch = engine.snapshot().epoch();
                report.batches += 1;
                if epoch < report.last_epoch {
                    report.epochs_monotone = false;
                }
                report.last_epoch = epoch;
                let _ = reply.send(Ok((epoch, ids)));
            }
            IngestCmd::Delete(ids, reply) => {
                // Validate the whole batch first: the engines panic on
                // dead ids, and a client must never be able to panic
                // the server. Reject without applying anything.
                if let Some(&bad) = ids.iter().find(|id| !alive.contains(id)) {
                    let _ = reply.send(Err(format!("unknown or already-deleted id {bad}")));
                    continue;
                }
                let mut seen = FxHashSet::default();
                if let Some(&dup) = ids.iter().find(|&&id| !seen.insert(id)) {
                    let _ = reply.send(Err(format!("id {dup} repeated in delete batch")));
                    continue;
                }
                for &id in &ids {
                    alive.remove(&id);
                }
                engine.delete_batch(&ids);
                let epoch = engine.snapshot().epoch();
                report.batches += 1;
                if epoch < report.last_epoch {
                    report.epochs_monotone = false;
                }
                report.last_epoch = epoch;
                let _ = reply.send(Ok(epoch));
            }
        }
    }
    report
}

fn accept_loop(
    listener: TcpListener,
    tx: mpsc::Sender<IngestCmd>,
    handle: EpochHandle,
    shutdown: Arc<AtomicBool>,
    queries: Arc<AtomicU64>,
) -> io::Result<()> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        // Request/response round trips: Nagle + delayed ACK would add
        // ~40ms to every answer.
        stream.set_nodelay(true)?;
        // ORDERING: Relaxed — see `Server::request_shutdown`: the flag
        // rides on the self-connect that woke this accept.
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let tx = tx.clone();
        let handle = handle.clone();
        let shutdown = Arc::clone(&shutdown);
        let queries = Arc::clone(&queries);
        conns.push(
            std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || {
                    // A connection error (peer reset, oversized frame)
                    // closes this connection only.
                    let _ = serve_connection(stream, tx, handle, shutdown, queries);
                })?,
        );
    }
    for c in conns {
        let _ = c.join();
    }
    Ok(())
}

/// One client connection: read a frame, answer a frame, forever —
/// until EOF, an unrecoverable stream error, or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    tx: mpsc::Sender<IngestCmd>,
    handle: EpochHandle,
    shutdown: Arc<AtomicBool>,
    queries: Arc<AtomicU64>,
) -> io::Result<()> {
    loop {
        let Some(body) = read_frame(&mut stream)? else {
            return Ok(()); // client hung up cleanly
        };
        let response = match decode_request(&body) {
            Err(e) => err_response(&e.to_string()),
            Ok(req) => match req {
                Request::Hello => {
                    let mut p = Vec::new();
                    put_u32(&mut p, VERSION);
                    ok_response(&p)
                }
                Request::Insert(rows) => {
                    let (rtx, rrx) = mpsc::channel();
                    if tx.send(IngestCmd::Insert(rows, rtx)).is_err() {
                        err_response("server is shutting down")
                    } else {
                        match rrx.recv() {
                            Ok(Ok((epoch, ids))) => {
                                let mut p = Vec::new();
                                put_u64(&mut p, epoch);
                                put_ids(&mut p, &ids);
                                ok_response(&p)
                            }
                            Ok(Err(msg)) => err_response(&msg),
                            Err(_) => err_response("server is shutting down"),
                        }
                    }
                }
                Request::Delete(ids) => {
                    let (rtx, rrx) = mpsc::channel();
                    if tx.send(IngestCmd::Delete(ids, rtx)).is_err() {
                        err_response("server is shutting down")
                    } else {
                        match rrx.recv() {
                            Ok(Ok(epoch)) => {
                                let mut p = Vec::new();
                                put_u64(&mut p, epoch);
                                ok_response(&p)
                            }
                            Ok(Err(msg)) => err_response(&msg),
                            Err(_) => err_response("server is shutting down"),
                        }
                    }
                }
                Request::GroupBy(ids) => {
                    // ORDERING: Relaxed — stat counter (see join).
                    queries.fetch_add(1, Ordering::Relaxed);
                    let snap = handle.load();
                    match snap.try_group_by(&ids) {
                        Ok(g) => ok_response(&encode_groups(snap.epoch(), &g)),
                        Err(e) => err_response(&e.to_string()),
                    }
                }
                Request::GroupAll => {
                    // ORDERING: Relaxed — stat counter (see join).
                    queries.fetch_add(1, Ordering::Relaxed);
                    let snap = handle.load();
                    // `Clustering` is an alias of `GroupBy`.
                    ok_response(&encode_groups(snap.epoch(), &snap.group_all()))
                }
                Request::ChangedSince(since) => {
                    // ORDERING: Relaxed — stat counter (see join).
                    queries.fetch_add(1, Ordering::Relaxed);
                    ok_response(&encode_feed(&handle.changed_since(since)))
                }
                Request::Epoch => {
                    let mut p = Vec::new();
                    put_u64(&mut p, handle.epoch());
                    ok_response(&p)
                }
                Request::Shutdown => {
                    let resp = ok_response(&[]);
                    write_frame(&mut stream, &resp)?;
                    // ORDERING: Relaxed — see `Server::request_shutdown`.
                    shutdown.store(true, Ordering::Relaxed);
                    if let Ok(addr) = stream.local_addr() {
                        let _ = TcpStream::connect(addr);
                    }
                    return Ok(());
                }
            },
        };
        write_frame(&mut stream, &response)?;
    }
}

/// Encodes a groups payload: epoch, groups, noise.
fn encode_groups(epoch: u64, g: &GroupBy) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, epoch);
    put_u32(&mut p, g.groups.len() as u32);
    for group in &g.groups {
        put_ids(&mut p, group);
    }
    put_ids(&mut p, &g.noise);
    p
}

/// Encodes a change-feed payload (see the module docs of
/// [`crate::proto`] for the layout).
fn encode_feed(feed: &ChangeFeed) -> Vec<u8> {
    let mut p = Vec::new();
    match feed {
        ChangeFeed::Delta(d) => {
            p.push(0);
            encode_delta(&mut p, d);
        }
        ChangeFeed::Reset { oldest, current } => {
            p.push(1);
            put_u64(&mut p, *oldest);
            put_u64(&mut p, *current);
        }
    }
    p
}

/// Encodes one delta: from, to, entries (id + before + after).
pub(crate) fn encode_delta(p: &mut Vec<u8>, d: &SnapshotDelta) {
    put_u64(p, d.from);
    put_u64(p, d.to);
    put_u32(p, d.entries.len() as u32);
    for e in &d.entries {
        put_u32(p, e.id);
        encode_state(p, &e.before);
        encode_state(p, &e.after);
    }
}

fn encode_state(p: &mut Vec<u8>, s: &PointState) {
    p.push(u8::from(s.alive) | (u8::from(s.core) << 1));
    put_u32(p, s.labels.len() as u32);
    for &l in s.labels.iter() {
        put_u64(p, l);
    }
}
