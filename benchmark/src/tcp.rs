//! The back-end workloads: blocking `net::Client`s over real TCP against
//! an in-process `net::Server` on a file-backed `SharedDatabase`.
//!
//! `server_reads` is indexed point and range SELECTs only — wire,
//! dispatch, parse, plan and the parallel snapshot-read path, no locks,
//! no WAL. `server_mixed` runs the same reads on a table that the same
//! connections are also writing, so MVCC version metadata, row locks,
//! the WAL force and the exclusive statement latch all engage.

use crate::metrics::{end_to_end, Outcome, Values};
use crate::storage_layer::CounterDelta;
use crate::trace::{self, Tracer};
use crate::util::{percentile_us, ratio, Rng, Sample};
use crate::{RunConfig, UNTRACED_SHARE};
use rqs::Datum;
use server::net::{Client, Server, WireResult};
use server::{ServerSession, SharedDatabase};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

pub struct Spec {
    pub name: &'static str,
    /// Initial rows of `acct`, keys `0..rows`.
    pub rows: i64,
    /// Whether a fifth of the ops are writes.
    pub mixed: bool,
}

pub const READS: Spec = Spec {
    name: "server_reads",
    rows: 20_000,
    mixed: false,
};

pub const MIXED: Spec = Spec {
    name: "server_mixed",
    rows: 20_000,
    mixed: true,
};

/// Buffer-pool frames: table + both indexes fit.
const POOL_PAGES: usize = 1024;
/// Fixed, not derived from `nproc`, so numbers compare across machines.
const CLIENTS: usize = 4;
const PAD_LEN: usize = 64;
/// Logical bytes of one row: two 8-byte integers and the pad.
const ROW_BYTES: f64 = (16 + PAD_LEN) as f64;
const RANGE_ROWS: i64 = 50;
/// Keys that take a tenth of all writes.
const HOT_KEYS: i64 = 16;
/// Rows each client inserts during set-up so its first DELETE has a
/// key of its own to remove.
const PREINSERTED: usize = 8;
/// Ops per block of a client's stream; a client stops on a block
/// boundary so every run executes the exact mix.
const BLOCK: usize = 100;
/// Unmeasured blocks of the workload's own traffic each connection
/// sends before the timed run (part of set-up).
const WARMUP_BLOCKS: usize = 1;
/// Blocks one connection replays alone for `pages_per_op`.
const ACCOUNTING_BLOCKS: usize = 10;
/// A statement that keeps losing conflicts this often is a failed op.
const MAX_RETRIES: u64 = 10_000;
/// In the traced run, every this-many-th read goes through an
/// in-process session instead of the wire, for the executor's work
/// counters (`QueryMetrics`), which the wire does not carry.
const PROBE_EVERY: u64 = 16;

/// Initial `v` of key `k`; reads check it, the final scan subtracts it.
fn initial_v(k: i64) -> i64 {
    k * 7919 % 1000
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Range,
    Update,
    Insert,
    Delete,
    Txn,
}

impl Kind {
    fn is_write(self) -> bool {
        !matches!(self, Kind::Point | Kind::Range)
    }
}

/// Ops of each kind per [`BLOCK`].
fn mix(spec: &Spec) -> [(Kind, usize); 6] {
    if spec.mixed {
        // 80 % reads; of the 20 writes: half UPDATE, a fifth INSERT, a
        // fifth DELETE, a tenth two-statement transactions.
        [
            (Kind::Point, 64),
            (Kind::Range, 16),
            (Kind::Update, 10),
            (Kind::Insert, 4),
            (Kind::Delete, 4),
            (Kind::Txn, 2),
        ]
    } else {
        [
            (Kind::Point, 80),
            (Kind::Range, 20),
            (Kind::Update, 0),
            (Kind::Insert, 0),
            (Kind::Delete, 0),
            (Kind::Txn, 0),
        ]
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A loaded database behind a running server.
struct Instance {
    dir: PathBuf,
    db: SharedDatabase,
    server: Server,
}

impl Instance {
    fn db_path(dir: &std::path::Path) -> PathBuf {
        dir.join("acct.db")
    }

    /// Schema + bulk load + integrity check + index build + server start.
    /// The load is `insert_unchecked` inside one session transaction,
    /// then one `validate_all` and one `CREATE INDEX`: a single logged
    /// commit instead of one fsynced commit per row (see README,
    /// Findings), so set-up time follows the engine's work, not the
    /// disk's mood.
    fn create(spec: &Spec, cfg: &RunConfig, attempt: usize) -> Result<Instance, String> {
        let dir =
            cfg.out_dir
                .join("tmp")
                .join(format!("{}-{}-{attempt}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let db =
            SharedDatabase::open(&Self::db_path(&dir), POOL_PAGES).map_err(|e| e.to_string())?;
        let mut session = db.session();
        session
            .execute("CREATE TABLE acct (k INT, v INT, pad TEXT, PRIMARY KEY (k))")
            .map_err(|e| e.to_string())?;
        let pad = "x".repeat(PAD_LEN);
        let preinserted = if spec.mixed {
            (CLIENTS * PREINSERTED) as i64
        } else {
            0
        };
        db.with_db(|db| {
            let txn = db.begin_session_txn()?;
            db.resume_session_txn(txn)?;
            for k in 0..spec.rows + preinserted {
                let v = if k < spec.rows { initial_v(k) } else { 0 };
                let row = vec![Datum::Int(k), Datum::Int(v), Datum::text(&pad)];
                db.insert_unchecked("acct", row)?;
            }
            db.suspend_session_txn();
            db.commit_session_txn(txn)?;
            db.validate_all()
        })
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
        session
            .execute("CREATE INDEX ON acct (k)")
            .map_err(|e| e.to_string())?;
        drop(session);
        let server = Server::start(db.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Instance { dir, db, server })
    }

    fn destroy(self) {
        self.server.stop();
        drop(self.db);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------
// One client
// ---------------------------------------------------------------------

/// Server-side account of one traced statement (`TRACE` rows).
#[derive(Default, Clone, Copy)]
struct ServerSpans {
    locks: u64,
    parse: u64,
    plan: u64,
    exec: u64,
    commit: u64,
}

impl ServerSpans {
    fn total(&self) -> u64 {
        self.locks + self.parse + self.plan + self.exec + self.commit
    }

    fn from_rows(result: &WireResult) -> Option<ServerSpans> {
        let mut s = ServerSpans::default();
        for row in &result.rows {
            let nanos: u64 = row.get(1)?.parse().ok()?;
            match row.first()?.trim_matches('\'') {
                "locks" => s.locks += nanos,
                "parse" => s.parse += nanos,
                "plan" => s.plan += nanos,
                "exec" => s.exec += nanos,
                "commit" => s.commit += nanos,
                _ => {}
            }
        }
        Some(s)
    }

    fn children(&self) -> [(&'static str, u64); 5] {
        [
            ("server.locks", self.locks),
            ("rqs.parse", self.parse),
            ("rqs.plan", self.plan),
            ("rqs.exec", self.exec),
            ("rqs.commit", self.commit),
        ]
    }
}

/// One traced single-statement op: the client's round trip and the
/// server's account of it. `rtt` = `spans.total()` + net overhead.
struct TracedOp {
    rtt: u64,
    spans: ServerSpans,
    write: bool,
}

/// Everything one connection records.
#[derive(Default)]
struct ClientLog {
    reads: Vec<Sample>,
    writes: Vec<Sample>,
    attempted: u64,
    failed: u64,
    retries: u64,
    /// Rows the acknowledged writes touched (two per transaction).
    rows_written: u64,
    /// Traced run only.
    traced: Vec<TracedOp>,
    probe_rows_scanned: u64,
    probe_result_rows: u64,
    probe_joins: u64,
    probes: u64,
}

impl ClientLog {
    /// Ops that finished and passed their check.
    fn completed(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64 + self.probes
    }
}

struct Worker<'a> {
    spec: &'a Spec,
    rng: Rng,
    client: Client,
    /// In-process session for executor-counter probes (traced run).
    probe: Option<ServerSession>,
    pad: String,
    next_key: i64,
    /// Keys this client inserted and has not deleted, oldest first.
    inserted: VecDeque<i64>,
    /// `v + 1` increments the server acknowledged.
    acked_increments: u64,
    inserts: u64,
    deletes: u64,
    traced: bool,
    tracer: Tracer,
    /// When the current segment began, on the tracer's clock.
    segment_start: u64,
    log: ClientLog,
}

/// How a statement ended.
enum Sent {
    Ok(WireResult),
    /// Lost a lock or first-updater-wins race; the statement (and any
    /// open transaction) rolled back. Retry.
    Conflict,
    Failed,
}

impl Worker<'_> {
    fn new<'a>(
        spec: &'a Spec,
        id: usize,
        addr: SocketAddr,
        seed: u64,
        origin: Instant,
    ) -> Result<Worker<'a>, String> {
        let first_own = spec.rows + (id * PREINSERTED) as i64;
        Ok(Worker {
            spec,
            rng: Rng::new(seed ^ ((id as u64 + 1) << 32)),
            client: Client::connect(addr).map_err(|e| e.to_string())?,
            probe: None,
            pad: "x".repeat(PAD_LEN),
            // Fresh keys are strided by client so two clients never
            // insert the same one.
            next_key: spec.rows + (CLIENTS * PREINSERTED) as i64 + id as i64,
            inserted: if spec.mixed {
                (first_own..first_own + PREINSERTED as i64).collect()
            } else {
                VecDeque::new()
            },
            acked_increments: 0,
            inserts: 0,
            deletes: 0,
            traced: false,
            tracer: Tracer::new(origin, id as u64),
            segment_start: 0,
            log: ClientLog::default(),
        })
    }

    fn send(&mut self, sql: &str) -> Sent {
        match self.client.execute(sql) {
            Ok(Ok(result)) => Sent::Ok(result),
            Ok(Err(msg)) if msg.starts_with("transaction conflict") => Sent::Conflict,
            _ => Sent::Failed,
        }
    }

    /// Sends until the statement is not refused for a conflict.
    fn send_retrying(&mut self, sql: &str) -> Option<WireResult> {
        for _ in 0..MAX_RETRIES {
            match self.send(sql) {
                Sent::Ok(result) => return Some(result),
                Sent::Conflict => self.log.retries += 1,
                Sent::Failed => return None,
            }
        }
        None
    }

    fn write_key(&mut self) -> i64 {
        if self.rng.below(10) == 0 {
            self.rng.below(HOT_KEYS as u64) as i64 * (self.spec.rows / HOT_KEYS)
        } else {
            self.rng.below(self.spec.rows as u64) as i64
        }
    }

    fn read_sql(&mut self, kind: Kind) -> (String, i64) {
        match kind {
            Kind::Point => {
                let k = self.rng.below(self.spec.rows as u64) as i64;
                (format!("SELECT a.k, a.v FROM acct a WHERE a.k = {k}"), k)
            }
            _ => {
                let lo = self.rng.below((self.spec.rows - RANGE_ROWS) as u64) as i64;
                let hi = lo + RANGE_ROWS;
                (
                    format!("SELECT a.k, a.v FROM acct a WHERE a.k >= {lo} AND a.k < {hi}"),
                    lo,
                )
            }
        }
    }

    /// Row count, keys, and values: a point read returns exactly its
    /// key, a range read exactly its 50 consecutive keys; `v` is the
    /// initial value on the read-only table and never below it on the
    /// written one (increments only).
    fn read_is_correct(&self, kind: Kind, first_key: i64, rows: &[Vec<String>]) -> bool {
        let want = if kind == Kind::Point { 1 } else { RANGE_ROWS };
        if rows.len() as i64 != want {
            return false;
        }
        let mut keys = Vec::with_capacity(rows.len());
        for row in rows {
            let (Some(Ok(k)), Some(Ok(v))) = (
                row.first().map(|c| c.parse::<i64>()),
                row.get(1).map(|c| c.parse::<i64>()),
            ) else {
                return false;
            };
            let v_ok = if self.spec.mixed {
                v >= initial_v(k)
            } else {
                v == initial_v(k)
            };
            if !v_ok {
                return false;
            }
            keys.push(k);
        }
        keys.sort_unstable();
        keys.iter().copied().eq(first_key..first_key + want)
    }

    /// One single-statement op. Untraced: plain statement, result
    /// checked. Traced: `TRACE <stmt>`, whose reply is the span rows.
    fn single(
        &mut self,
        kind: Kind,
        sql: &str,
        check: impl Fn(&Self, &WireResult) -> bool,
    ) -> bool {
        let op = self.log.attempted;
        self.log.attempted += 1;
        let start = self.tracer.now();
        let reply = if self.traced {
            self.send_retrying(&format!("TRACE {sql}"))
        } else {
            self.send_retrying(sql)
        };
        let end = self.tracer.now();
        let rtt = end - start;
        let ok = match &reply {
            Some(result) if self.traced => match ServerSpans::from_rows(result) {
                Some(spans) => {
                    let overhead = rtt.saturating_sub(spans.total());
                    self.tracer.record(op, "client.op", "", start, end);
                    self.tracer.record_durations(
                        op,
                        "client.op",
                        start + overhead / 2,
                        &spans.children(),
                    );
                    self.log.traced.push(TracedOp {
                        rtt,
                        spans,
                        write: kind.is_write(),
                    });
                    true
                }
                None => false,
            },
            Some(result) => check(self, result),
            None => false,
        };
        self.finish(kind, end, rtt, ok);
        self.log.rows_written += u64::from(ok && kind.is_write());
        ok
    }

    fn finish(&mut self, kind: Kind, end: u64, latency_ns: u64, ok: bool) {
        let sample = Sample::new(end - self.segment_start, latency_ns);
        if !ok {
            self.log.failed += 1;
        } else if kind.is_write() {
            self.log.writes.push(sample);
        } else {
            self.log.reads.push(sample);
        }
    }

    /// A read through the in-process session: same snapshot-read path,
    /// no wire, and the executor's `QueryMetrics` come back with it.
    fn probe_read(&mut self, kind: Kind, sql: &str, first_key: i64) {
        self.log.attempted += 1;
        let Some(session) = self.probe.as_mut() else {
            return;
        };
        match session.execute(sql) {
            Ok(result) => {
                let rows: Vec<Vec<String>> = result
                    .rows
                    .iter()
                    .map(|r| r.iter().map(|d| d.to_string()).collect())
                    .collect();
                if self.read_is_correct(kind, first_key, &rows) {
                    self.log.probes += 1;
                    self.log.probe_rows_scanned += result.metrics.rows_scanned;
                    self.log.probe_result_rows += result.metrics.result_rows;
                    self.log.probe_joins += result.metrics.joins as u64;
                } else {
                    self.log.failed += 1;
                }
            }
            Err(_) => self.log.failed += 1,
        }
    }

    /// `BEGIN; UPDATE; UPDATE; COMMIT` as one op: a conflict anywhere
    /// rolls the transaction back and the whole op starts over, its wall
    /// time still running.
    fn txn(&mut self) {
        self.log.attempted += 1;
        let k1 = self.write_key();
        let mut k2 = self.write_key();
        if k2 == k1 {
            k2 = (k1 + 1) % self.spec.rows;
        }
        let prefix = if self.traced { "TRACE " } else { "" };
        let statements = [
            "BEGIN".to_owned(),
            format!("{prefix}UPDATE acct SET v = v + 1 WHERE k = {k1}"),
            format!("{prefix}UPDATE acct SET v = v + 1 WHERE k = {k2}"),
            "COMMIT".to_owned(),
        ];
        let start = self.tracer.now();
        let mut committed = false;
        'attempt: for _ in 0..MAX_RETRIES {
            for sql in &statements {
                match self.send(sql) {
                    Sent::Ok(result) => {
                        let update_missed =
                            !self.traced && sql.starts_with("UPDATE") && result.affected != 1;
                        if update_missed {
                            let _ = self.send("ROLLBACK");
                            break 'attempt;
                        }
                    }
                    Sent::Conflict => {
                        self.log.retries += 1;
                        // The server has normally rolled the transaction
                        // back already; make sure before starting over.
                        let _ = self.send("ROLLBACK");
                        continue 'attempt;
                    }
                    Sent::Failed => break 'attempt,
                }
            }
            committed = true;
            break;
        }
        let end = self.tracer.now();
        if committed {
            self.acked_increments += 2;
            self.log.rows_written += 2;
        }
        self.finish(Kind::Txn, end, end - start, committed);
    }

    fn op(&mut self, kind: Kind) {
        match kind {
            Kind::Point | Kind::Range => {
                let (sql, first) = self.read_sql(kind);
                if self.traced && self.log.attempted.is_multiple_of(PROBE_EVERY) {
                    self.probe_read(kind, &sql, first);
                } else {
                    self.single(kind, &sql, |w, r| w.read_is_correct(kind, first, &r.rows));
                }
            }
            Kind::Update => {
                let k = self.write_key();
                let sql = format!("UPDATE acct SET v = v + 1 WHERE k = {k}");
                if self.single(kind, &sql, |_, r| r.affected == 1) {
                    self.acked_increments += 1;
                }
            }
            Kind::Insert => {
                let k = self.next_key;
                self.next_key += CLIENTS as i64;
                let sql = format!("INSERT INTO acct VALUES ({k}, 0, '{}')", self.pad);
                if self.single(kind, &sql, |_, r| r.affected == 1) {
                    self.inserted.push_back(k);
                    self.inserts += 1;
                }
            }
            Kind::Delete => {
                let Some(k) = self.inserted.pop_front() else {
                    return;
                };
                let sql = format!("DELETE FROM acct WHERE k = {k}");
                if self.single(kind, &sql, |_, r| r.affected == 1) {
                    self.deletes += 1;
                }
            }
            Kind::Txn => self.txn(),
        }
    }

    /// Closed loop, unpaced: whole shuffled blocks of the mix until
    /// `until` is reached. Returns the seconds actually run.
    fn run_until(&mut self, until: Until) -> f64 {
        let started = Instant::now();
        self.segment_start = self.tracer.now();
        let mut blocks = 0;
        loop {
            let mut block: Vec<Kind> = mix(self.spec)
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            debug_assert_eq!(block.len(), BLOCK);
            self.rng.shuffle(&mut block);
            for kind in block {
                self.op(kind);
            }
            blocks += 1;
            let elapsed = started.elapsed().as_secs_f64();
            let done = match until {
                Until::Seconds(seconds) => elapsed >= seconds,
                Until::Blocks(n) => blocks >= n,
            };
            if done {
                return elapsed;
            }
        }
    }
}

// ---------------------------------------------------------------------
// A run: warm-up, timed segment(s), final state checks
// ---------------------------------------------------------------------

/// When a phase of the run ends.
#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    Blocks(usize),
}

/// One barrier-delimited phase after warm-up.
#[derive(Clone, Copy)]
struct Phase {
    until: Until,
    /// Statements go out as `TRACE <stmt>`.
    traced: bool,
    /// Only the first connection runs; the others sit idle.
    solo: bool,
}

impl Phase {
    fn timed(seconds: f64, traced: bool) -> Phase {
        Phase {
            until: Until::Seconds(seconds),
            traced,
            solo: false,
        }
    }

    /// The page-accounting pass: one connection replays
    /// [`ACCOUNTING_BLOCKS`] blocks of the mix on the otherwise idle
    /// server, so the page count is a property of the ops and the
    /// engine, not of how two connections happened to interleave.
    const ACCOUNTING: Phase = Phase {
        until: Until::Blocks(ACCOUNTING_BLOCKS),
        traced: false,
        solo: true,
    };
}

/// What the clients did in one phase.
struct Segment {
    logs: Vec<ClientLog>,
    /// Σ per-client completed ops ÷ that client's elapsed seconds.
    throughput: f64,
    counters: CounterDelta,
    hist_before: storage::HistogramsSnapshot,
    hist_after: storage::HistogramsSnapshot,
}

/// Final state each client reports for the end-of-run checks.
struct Ledger {
    acked_increments: u64,
    inserts: u64,
    deletes: u64,
    session_retries: u64,
    session_txn_aborts: u64,
    /// Ops the warm-up attempted and how many of them failed.
    warmup_attempted: u64,
    warmup_failed: u64,
    tracer: Tracer,
}

/// Drives [`CLIENTS`] connections through warm-up and then the given
/// phases. The barrier after warm-up marks the end of set-up.
fn drive(
    spec: &Spec,
    instance: &Instance,
    seed: u64,
    phases: &[Phase],
    setup_started: Instant,
) -> Result<(f64, Vec<Segment>, Vec<Ledger>), String> {
    let addr = instance.server.addr();
    let origin = Instant::now();
    let barrier = Barrier::new(CLIENTS + 1);
    let db = &instance.db;
    let snapshot = || -> Result<_, String> {
        Ok((
            db.metrics().map_err(|e| e.to_string())?,
            db.histograms().map_err(|e| e.to_string())?,
        ))
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for id in 0..CLIENTS {
            let barrier = &barrier;
            handles.push(scope.spawn(move || -> Result<_, String> {
                // A client that cannot connect must still meet every
                // barrier, or the others would wait forever.
                let mut worker = Worker::new(spec, id, addr, seed, origin).ok();
                let mut warmup = ClientLog::default();
                if let Some(w) = worker.as_mut() {
                    w.run_until(Until::Blocks(WARMUP_BLOCKS));
                    warmup = std::mem::take(&mut w.log);
                }
                barrier.wait();
                let mut out = Vec::new();
                for phase in phases {
                    barrier.wait();
                    let mut elapsed = 0.0;
                    if let Some(w) = worker.as_mut().filter(|_| id == 0 || !phase.solo) {
                        w.traced = phase.traced;
                        w.probe = phase.traced.then(|| db.session());
                        elapsed = w.run_until(phase.until);
                    }
                    let log = worker.as_mut().map(|w| std::mem::take(&mut w.log));
                    out.push((log.unwrap_or_default(), elapsed));
                    barrier.wait();
                }
                let mut w = worker.ok_or("client could not connect")?;
                let stats = w.client.stats().map_err(|e| e.to_string())?;
                let stat = |name: &str| stats.get(name).copied().unwrap_or(0);
                Ok((
                    out,
                    Ledger {
                        acked_increments: w.acked_increments,
                        inserts: w.inserts,
                        deletes: w.deletes,
                        session_retries: stat("session_retries"),
                        session_txn_aborts: stat("session_txn_aborts"),
                        warmup_attempted: warmup.attempted,
                        warmup_failed: warmup.failed,
                        tracer: w.tracer,
                    },
                ))
            }));
        }
        barrier.wait();
        let setup_s = setup_started.elapsed().as_secs_f64();
        let mut windows = Vec::new();
        for _ in phases {
            let before = snapshot();
            barrier.wait();
            barrier.wait();
            windows.push((before, snapshot()));
        }
        let mut per_client = Vec::new();
        let mut ledgers = Vec::new();
        for handle in handles {
            let (logs, ledger) = handle
                .join()
                .map_err(|_| "client thread panicked".to_owned())??;
            per_client.push(logs);
            ledgers.push(ledger);
        }
        let mut result = Vec::new();
        for (i, (before, after)) in windows.into_iter().enumerate() {
            let (before, hist_before) = before?;
            let (after, hist_after) = after?;
            let mut logs = Vec::new();
            let mut throughput = 0.0;
            for client in &mut per_client {
                let (log, elapsed) = std::mem::take(&mut client[i]);
                throughput += ratio(log.completed() as f64, elapsed);
                logs.push(log);
            }
            result.push(Segment {
                logs,
                throughput,
                counters: CounterDelta::between(&before, &after),
                hist_before,
                hist_after,
            });
        }
        Ok((setup_s, result, ledgers))
    })
}

/// Full-table scan summed client-side (the dialect has no aggregates):
/// (row count, Σ over the initial keys of `v − initial_v`).
fn audit(rows: impl Iterator<Item = (i64, i64)>, spec: &Spec) -> (u64, i64) {
    let mut count = 0;
    let mut increments = 0;
    for (k, v) in rows {
        count += 1;
        if k < spec.rows {
            increments += v - initial_v(k);
        }
    }
    (count, increments)
}

/// End-of-run state checks. Returns (checks, failures, recovery seconds).
fn final_checks(spec: &Spec, instance: Instance, ledgers: &[Ledger]) -> (u64, u64, f64) {
    let preinserted = if spec.mixed { CLIENTS * PREINSERTED } else { 0 } as u64;
    let inserts: u64 = ledgers.iter().map(|l| l.inserts).sum();
    let deletes: u64 = ledgers.iter().map(|l| l.deletes).sum();
    let want_rows = spec.rows as u64 + preinserted + inserts - deletes;
    let want_increments: u64 = ledgers.iter().map(|l| l.acked_increments).sum();
    let want = (want_rows, want_increments as i64);
    let mut failed = 0;

    // 1. Over the wire, on the live server.
    let live = Client::connect(instance.server.addr())
        .ok()
        .and_then(|mut c| c.execute("SELECT a.k, a.v FROM acct a").ok()?.ok())
        .and_then(|r| {
            let parsed: Option<Vec<(i64, i64)>> = r
                .rows
                .iter()
                .map(|row| Some((row.first()?.parse().ok()?, row.get(1)?.parse().ok()?)))
                .collect();
            parsed
        })
        .map(|rows| audit(rows.into_iter(), spec));
    failed += u64::from(live != Some(want));

    // 2. Crash (buffered pages dropped, WAL kept) and reopen: every
    //    acknowledged write must have survived.
    let Instance { dir, db, server } = instance;
    server.stop();
    failed += u64::from(db.crash().is_err());
    drop(db);
    let started = Instant::now();
    let reopened = SharedDatabase::open(&Instance::db_path(&dir), POOL_PAGES);
    let recovery_s = started.elapsed().as_secs_f64();
    let recovered = reopened.ok().and_then(|db| {
        let result = db.session().execute("SELECT a.k, a.v FROM acct a").ok()?;
        let parsed: Option<Vec<(i64, i64)>> = result
            .rows
            .iter()
            .map(|row| match (&row[0], &row[1]) {
                (Datum::Int(k), Datum::Int(v)) => Some((*k, *v)),
                _ => None,
            })
            .collect();
        Some(audit(parsed?.into_iter(), spec))
    });
    failed += u64::from(recovered != Some(want));
    let _ = std::fs::remove_dir_all(&dir);
    (3, failed, recovery_s)
}

fn merged(logs: &[ClientLog], f: impl Fn(&ClientLog) -> &Vec<Sample>) -> Vec<Sample> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

fn total(logs: &[ClientLog], f: impl Fn(&ClientLog) -> u64) -> u64 {
    logs.iter().map(f).sum()
}

/// Entry point: `--smoke` shrinks the table tenfold, nothing else.
pub fn run_spec(spec: &Spec, traced: bool, cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = Spec {
        name: spec.name,
        rows: if cfg.smoke { spec.rows / 10 } else { spec.rows },
        mixed: spec.mixed,
    };
    if traced {
        run_traced(&spec, cfg)
    } else {
        run(&spec, cfg)
    }
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

fn run(spec: &Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut spent = 0.0;
    let (mut warm_attempted, mut warm_failed) = (0, 0);
    // Complete set-ups, each timed; the last one's instance serves the run.
    let (instance, segment, accounting, ledgers) = loop {
        let started = Instant::now();
        let instance = Instance::create(spec, cfg, setups.len())?;
        let last = cfg.enough_setups(setups.len() + 1, spent + started.elapsed().as_secs_f64());
        let phases = [Phase::timed(cfg.seconds, false), Phase::ACCOUNTING];
        let phases: &[Phase] = if last { &phases } else { &[] };
        let (setup_s, segments, ledgers) = drive(spec, &instance, cfg.seed, phases, started)?;
        setups.push(setup_s);
        spent += setup_s;
        warm_attempted += ledgers.iter().map(|l| l.warmup_attempted).sum::<u64>();
        warm_failed += ledgers.iter().map(|l| l.warmup_failed).sum::<u64>();
        if last {
            let [segment, accounting]: [Segment; 2] = segments
                .try_into()
                .map_err(|_| "a phase is missing".to_owned())?;
            break (instance, segment, accounting, ledgers);
        }
        instance.destroy();
    };
    let (checks, check_failed, _) = final_checks(spec, instance, &ledgers);

    let mut all = merged(&segment.logs, |l| &l.reads);
    all.extend(merged(&segment.logs, |l| &l.writes));
    let pages_per_op = ratio(
        accounting.counters.pages(),
        total(&accounting.logs, ClientLog::completed) as f64,
    );
    let (values, windows) = end_to_end(&all, cfg.seconds, pages_per_op, &mut setups);
    Ok(Outcome {
        attempted: warm_attempted
            + total(&segment.logs, |l| l.attempted)
            + total(&accounting.logs, |l| l.attempted)
            + checks,
        failed: warm_failed
            + total(&segment.logs, |l| l.failed)
            + total(&accounting.logs, |l| l.failed)
            + check_failed,
        values,
        notes: vec![
            format!(
                "acct: {} rows, pool {POOL_PAGES} pages, {CLIENTS} TCP connections",
                spec.rows
            ),
            format!(
                "latency samples: {} ops ({} writes) in {} windows, {} retries, {} set-ups",
                all.len(),
                total(&segment.logs, |l| l.writes.len() as u64),
                windows,
                total(&segment.logs, |l| l.retries),
                setups.len()
            ),
        ],
    })
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

fn run_traced(spec: &Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let started = Instant::now();
    let instance = Instance::create(spec, cfg, 0)?;
    let plan = [
        Phase::timed(cfg.seconds * UNTRACED_SHARE, false),
        Phase::timed(cfg.seconds * (1.0 - UNTRACED_SHARE), true),
    ];
    let (_, segments, ledgers) = drive(spec, &instance, cfg.seed, &plan, started)?;
    let [reference, traced]: [Segment; 2] = segments
        .try_into()
        .map_err(|_| "a phase is missing".to_owned())?;
    let file_bytes = std::fs::metadata(Instance::db_path(&instance.dir))
        .map(|m| m.len())
        .unwrap_or(0) as f64;
    let (checks, check_failed, recovery_s) = final_checks(spec, instance, &ledgers);
    let warm_attempted: u64 = ledgers.iter().map(|l| l.warmup_attempted).sum();
    let warm_failed: u64 = ledgers.iter().map(|l| l.warmup_failed).sum();
    let session_retries: u64 = ledgers.iter().map(|l| l.session_retries).sum();
    let session_txn_aborts: u64 = ledgers.iter().map(|l| l.session_txn_aborts).sum();
    let tracers: Vec<Tracer> = ledgers.into_iter().map(|l| l.tracer).collect();
    trace::write_jsonl(&cfg.trace_path(spec.name), &tracers).map_err(|e| e.to_string())?;

    let logs = &traced.logs;
    let ops = total(logs, ClientLog::completed) as f64;
    let singles: Vec<&TracedOp> = logs.iter().flat_map(|l| l.traced.iter()).collect();
    let span_p50 = |f: fn(&ServerSpans) -> u64, writes_only: bool| {
        let mut col: Vec<u64> = singles
            .iter()
            .filter(|t| t.write || !writes_only)
            .map(|t| f(&t.spans))
            .collect();
        percentile_us(&mut col, 50.0)
    };
    let mut overhead: Vec<u64> = singles
        .iter()
        .map(|t| t.rtt.saturating_sub(t.spans.total()))
        .collect();
    let latencies =
        |samples: Vec<Sample>| -> Vec<u64> { samples.iter().map(Sample::latency_ns).collect() };
    let mut reads = latencies(merged(logs, |l| &l.reads));
    let mut writes = latencies(merged(logs, |l| &l.writes));
    let mut all: Vec<u64> = reads.iter().chain(writes.iter()).copied().collect();
    let live_rows = spec.rows as f64;

    let mut v = Values::new();
    v.insert("client.read_p50_us", percentile_us(&mut reads, 50.0));
    v.insert("client.read_p95_us", percentile_us(&mut reads, 95.0));
    v.insert("client.write_p50_us", percentile_us(&mut writes, 50.0));
    v.insert("client.write_p95_us", percentile_us(&mut writes, 95.0));
    v.insert("client.p99_us", percentile_us(&mut all, 99.0));
    v.insert(
        "client.retries_per_op",
        ratio(total(logs, |l| l.retries) as f64, ops),
    );
    v.insert("rqs.parse_us", span_p50(|s| s.parse, false));
    v.insert("rqs.plan_us", span_p50(|s| s.plan, false));
    v.insert("rqs.exec_us", span_p50(|s| s.exec, false));
    v.insert("rqs.commit_us", span_p50(|s| s.commit, true));
    v.insert(
        "rqs.rows_scanned_per_row",
        ratio(
            total(logs, |l| l.probe_rows_scanned) as f64,
            total(logs, |l| l.probe_result_rows) as f64,
        ),
    );
    v.insert(
        "rqs.joins_per_stmt",
        ratio(
            total(logs, |l| l.probe_joins) as f64,
            total(logs, |l| l.probes) as f64,
        ),
    );
    v.insert("server.locks_us", span_p50(|s| s.locks, false));
    v.insert("server.session_retries", session_retries as f64);
    v.insert("server.txn_aborts", session_txn_aborts as f64);
    v.insert("net.overhead_us", percentile_us(&mut overhead, 50.0));
    v.insert("net.overhead_p95_us", percentile_us(&mut overhead, 95.0));
    crate::storage_layer::insert(
        &mut v,
        &traced.counters,
        &traced.hist_before,
        &traced.hist_after,
        ops,
    );
    let rows_written = total(logs, |l| l.rows_written) as f64;
    v.insert(
        "wal.log_bytes_per_user_byte",
        ratio(traced.counters.get("wal_bytes"), rows_written * ROW_BYTES),
    );
    v.insert("wal.recovery_s", recovery_s);
    v.insert(
        "pager.file_bytes_per_user_byte",
        ratio(file_bytes, live_rows * ROW_BYTES),
    );
    v.insert(
        "trace.overhead_ratio",
        ratio(traced.throughput, reference.throughput),
    );

    Ok(Outcome {
        attempted: warm_attempted
            + total(&reference.logs, |l| l.attempted)
            + total(logs, |l| l.attempted)
            + checks,
        failed: warm_failed
            + total(&reference.logs, |l| l.failed)
            + total(logs, |l| l.failed)
            + check_failed,
        values: v,
        notes: vec![format!(
            "traced ops: {} ({} single-statement with server spans, {} in-process probes)",
            ops,
            singles.len(),
            total(logs, |l| l.probes)
        )],
    })
}
