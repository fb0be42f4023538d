//! The shared-database server: one database, many concurrent sessions.
//!
//! The paper couples a Prolog front-end to a *shared* relational query
//! system; this crate is the sharing. A [`SharedDatabase`] is an
//! `Arc`-cloneable, `Send` handle over one [`rqs::Database`].
//! Each client gets a [`ServerSession`], which accepts the same SQL the
//! database does plus three session-control statements:
//!
//! * `BEGIN` — open an explicit transaction spanning the following
//!   statements;
//! * `COMMIT` — make it durable (forces the WAL);
//! * `ROLLBACK` (or `ABORT`) — undo all of it.
//!
//! Without `BEGIN`, every statement autocommits, exactly as before.
//!
//! # Concurrency model
//!
//! There is one regime: the statement latch plus MVCC, and no lock
//! manager.
//!
//! The database sits behind a **statement latch** — a reader/writer
//! lock, not a mutex. Mutating statements, DDL, session-transaction
//! control, and any statement inside an explicit transaction take the
//! exclusive side and still execute one at a time. Autocommit
//! `SELECT`s take the *shared* side and run *concurrently with each
//! other*, end to end: each opens its own MVCC read view, descends
//! B+-trees with latch crabbing, and hits the lock-striped buffer pool
//! through `&self`, so eight read-only sessions use eight cores
//! instead of queueing on one. Beneath the latch, *transactions
//! interleave at statement granularity*: while session A's transaction
//! is open, sessions B, C, … run their own statements and
//! transactions. What keeps writers from overwriting each other is
//! the engine's write guards, none of which ever waits (each runs
//! under the statement latch the holder needs to commit):
//!
//! * **rows** — a row's pending MVCC version is its write lock. The
//!   engine's first-updater-wins check refuses a write to a row another
//!   open transaction has written, or that a commit newer than the
//!   writer's snapshot rewrote, with a retryable [`RqsError::Conflict`]
//!   (counted in `row_lock_conflicts`). Two sessions writing *different
//!   rows* of one table proceed concurrently; the same row conflicts.
//!   A refusal mid-statement rolls back the rows the statement already
//!   wrote with the rest of its transaction;
//! * **constraints** — uniqueness and foreign-key checks read in
//!   constraint-probe mode (below), which conflicts on another
//!   transaction's pending write that answers the probe. That is what
//!   keeps referential integrity true under snapshot isolation: a
//!   parent cannot be deleted while a child referencing it is being
//!   inserted, or the reverse;
//! * **whole tables** — a bare `DELETE` truncates, writing every row
//!   at once: it is refused while another transaction has a pending
//!   version in the table, and once pending it stamps every row, so
//!   other writers of the table are refused until it ends. DDL is
//!   refused while any other transaction is open;
//! * pending versions are held to transaction end (autocommit:
//!   statement end). The server does not retry: the error reaches the
//!   client ([`ServerError::is_retryable`]), which retries the
//!   statement or restarts its transaction, with a pause of its own
//!   choosing so a loser does not spin hot on a contended row.
//!
//! # Snapshot reads (MVCC)
//!
//! Reads take nothing but the statement latch. The engine keeps per-row
//! version metadata ([`storage`]'s MVCC module): every autocommit
//! statement and every explicit transaction opens a *read view* pinned
//! to the commit timestamp current at its start, and all reads —
//! `SELECT` scans, DML candidate scans, constraint probes — resolve
//! each row against that view. A `SELECT` never waits on or blocks a
//! writer (the statement latch excludes DDL, which takes its write
//! side, so catalog access is safe); it sees exactly the committed
//! state as of its snapshot, plus its own transaction's earlier writes
//! (read-your-own-writes). Dirty reads are impossible by construction:
//! an uncommitted row carries a pending stamp only its writer's view
//! accepts, and a deleted-but-uncommitted row still surfaces its last
//! committed version to everyone else.
//!
//! Writes do not read through the snapshot alone. First-updater-wins
//! (above) means snapshot-read DML cannot silently overwrite a racing
//! update, and *constraint-probe mode* makes uniqueness/foreign-key
//! probes judge the latest committed state plus the writer's own rows,
//! conflicting retryably when the probed table carries another
//! transaction's uncommitted writes: a probe never reports a duplicate
//! against a row that may still roll back.
//!
//! This is snapshot isolation, not serializability: each read is
//! consistent, but cross-statement write skew is possible — two
//! transactions can each `SELECT`, see a state the other is about to
//! change, and both commit writes that no single serial order would
//! allow (read the maximum, insert maximum + 1; check two tables are
//! empty, insert into one). The remedy is single-statement
//! read-modify-write (`UPDATE … SET x = x + 1`), whose
//! first-updater-wins check keeps it exact. Declared constraints — keys,
//! foreign keys, `CHECK` bounds — hold regardless: they are enforced by
//! probes, not by what a transaction happened to read.
//!
//! An error during an explicit transaction (constraint violation, write
//! conflict, I/O failure) aborts the *whole* transaction — the session
//! reports [`ServerError::RolledBack`] so the client knows to restart
//! it. DDL inside an explicit transaction is rejected up front: the
//! engine's catalog is one shared map with no versions, so an
//! uncommitted schema would be visible to other sessions.
//!
//! # Threading (the [`net`] module)
//!
//! TCP serving is a fixed worker pool, not a thread per connection: an
//! acceptor thread admits connections, a dispatcher polls them for
//! complete statement lines, and a small pool of workers (sized to the
//! machine's parallelism, with a floor that keeps read scaling
//! measurable) executes statements and writes responses. An idle
//! connection is just a registered socket and its session state — no
//! thread, no stack — so thousands of idle clients cost nothing.
//! Statements of one connection run in order (a connection is checked
//! out by at most one worker at a time); statements of different
//! connections run in parallel exactly as far as the statement latch
//! above allows — which, for autocommit `SELECT`s, is all the way.
//! In-process callers just use [`SharedDatabase::session`] directly.

pub mod net;

use rqs::sql::{SelectStmt, Statement};
use rqs::{Database, Datum, QueryResult, RqsError, TraceSpan};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use storage::{HistogramsSnapshot, MetricsSnapshot, StorageEngine};

/// Errors surfaced by a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The statement failed; no explicit transaction was open (or the
    /// failure happened outside one), so only the statement rolled back.
    Statement(RqsError),
    /// The statement failed *inside* an explicit transaction, which was
    /// rolled back entirely; the client should restart it.
    RolledBack(RqsError),
    /// Session-control misuse: `BEGIN` inside a transaction, `COMMIT`
    /// without one, DDL inside an explicit transaction.
    Session(String),
    /// The shared database has been shut down (crash simulation).
    Closed,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Statement(e) => write!(f, "{e}"),
            ServerError::RolledBack(e) => write!(f, "{e} (transaction rolled back)"),
            ServerError::Session(m) => write!(f, "session error: {m}"),
            ServerError::Closed => write!(f, "database is closed"),
        }
    }
}

impl std::error::Error for ServerError {}

impl ServerError {
    /// The statement can be retried as-is, after restarting any
    /// transaction: a write conflict (a row, table or page another open
    /// transaction has pending writes on, or DDL beside an open
    /// transaction) or a constraint probe that met a pending write.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServerError::Statement(RqsError::Conflict(_))
                | ServerError::RolledBack(RqsError::Conflict(_))
        )
    }
}

pub type ServerResult<T> = Result<T, ServerError>;

/// One captured slow statement: what ran, who ran it, how long it took
/// and where the time went.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Session id of the issuer.
    pub session: u64,
    /// The statement text as received.
    pub sql: String,
    /// Whole-statement wall time at the session layer (statement-latch
    /// wait included), nanoseconds.
    pub wall_nanos: u64,
    /// Span breakdown (the database's parse/plan/exec/commit).
    pub spans: Vec<TraceSpan>,
}

/// Bounded ring buffer of statements slower than a threshold.
struct SlowLog {
    threshold: Duration,
    capacity: usize,
    entries: VecDeque<SlowEntry>,
}

impl SlowLog {
    fn push(&mut self, entry: SlowEntry) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }
}

struct Shared {
    /// The statement latch. Writers (DML, DDL, transaction control,
    /// anything inside an explicit transaction) take the write side
    /// and serialize; autocommit SELECTs take the read side and run
    /// concurrently through [`Database::query_select`]. `None` once
    /// [`SharedDatabase::crash`] ran.
    db: RwLock<Option<Database>>,
    /// Session ids (reported by the slow log).
    next_session: AtomicU64,
    /// Statements slower than the threshold, oldest evicted first.
    slow: Mutex<SlowLog>,
}

/// The write side of the statement latch: exclusive, for anything that
/// mutates the database or needs the single-writer guarantee.
fn db_write(m: &RwLock<Option<Database>>) -> RwLockWriteGuard<'_, Option<Database>> {
    m.write().unwrap_or_else(PoisonError::into_inner)
}

/// The read side of the statement latch: shared, for snapshot SELECTs
/// and metrics/histogram snapshots that only read through `&Database`.
fn db_read(m: &RwLock<Option<Database>>) -> RwLockReadGuard<'_, Option<Database>> {
    m.read().unwrap_or_else(PoisonError::into_inner)
}

fn lock_slow(m: &Mutex<SlowLog>) -> MutexGuard<'_, SlowLog> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Runs `f` on the storage engine under the statement latch's read
    /// side.
    fn with_engine<R>(&self, f: impl FnOnce(&StorageEngine) -> R) -> ServerResult<R> {
        let slot = db_read(&self.db);
        let db = slot.as_ref().ok_or(ServerError::Closed)?;
        Ok(f(db.engine()))
    }
}

/// Default slow-statement capture threshold.
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(10);
/// Default slow-statement ring-buffer capacity.
pub const DEFAULT_SLOW_CAPACITY: usize = 128;

/// An `Arc`-cloneable, `Send` handle to one shared database. Clone it
/// into as many threads as you like; open a [`ServerSession`] per
/// client.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Shared>,
}

impl SharedDatabase {
    /// Shares an existing database.
    pub fn from_database(db: Database) -> SharedDatabase {
        SharedDatabase {
            inner: Arc::new(Shared {
                db: RwLock::new(Some(db)),
                next_session: AtomicU64::new(1),
                slow: Mutex::new(SlowLog {
                    threshold: DEFAULT_SLOW_THRESHOLD,
                    capacity: DEFAULT_SLOW_CAPACITY,
                    entries: VecDeque::new(),
                }),
            }),
        }
    }

    /// Reconfigures the slow-statement log: statements whose session-
    /// layer wall time reaches `threshold` are kept, newest
    /// `capacity` entries retained (0 disables capture). Existing
    /// entries beyond the new capacity are dropped oldest-first.
    pub fn set_slow_log(&self, threshold: Duration, capacity: usize) {
        let mut slow = lock_slow(&self.inner.slow);
        slow.threshold = threshold;
        slow.capacity = capacity;
        while slow.entries.len() > capacity {
            slow.entries.pop_front();
        }
    }

    /// The captured slow statements, oldest first (the `SLOW` verb
    /// renders the same list as wire rows).
    pub fn slow_entries(&self) -> Vec<SlowEntry> {
        lock_slow(&self.inner.slow)
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// A shared paged database on anonymous in-memory pages.
    pub fn paged(pool_pages: usize) -> rqs::RqsResult<SharedDatabase> {
        Ok(Self::from_database(Database::paged(pool_pages)?))
    }

    /// Opens (creating if missing) a shared file-backed paged database;
    /// the WAL is replayed before the first session sees it.
    pub fn open(path: &std::path::Path, pool_pages: usize) -> rqs::RqsResult<SharedDatabase> {
        Ok(Self::from_database(Database::open_paged(path, pool_pages)?))
    }

    /// Opens a new session. Sessions are independent: each has its own
    /// autocommit/explicit-transaction state.
    pub fn session(&self) -> ServerSession {
        ServerSession {
            shared: Arc::clone(&self.inner),
            id: self.inner.next_session.fetch_add(1, Ordering::SeqCst),
            txn: None,
            stats: SessionStats::default(),
            last_trace: Vec::new(),
        }
    }

    /// Counter snapshot of the database's one registry (the `STATS`
    /// verb renders it).
    pub fn metrics(&self) -> ServerResult<MetricsSnapshot> {
        self.inner.with_engine(StorageEngine::metrics)
    }

    /// Latency-histogram snapshot of the same registry: fsync, commit
    /// and fault-in (the `STATS HISTOGRAMS` verb renders it).
    pub fn histograms(&self) -> ServerResult<HistogramsSnapshot> {
        self.inner.with_engine(StorageEngine::histograms)
    }

    /// Runs `f` with the underlying database (test assertions, ops).
    /// Takes the statement latch's write side; do not call while
    /// holding a session mid-statement (sessions never are between
    /// calls).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> ServerResult<R> {
        let mut slot = db_write(&self.inner.db);
        let db = slot.as_mut().ok_or(ServerError::Closed)?;
        Ok(f(db))
    }

    /// Checkpoint: fold the WAL into the database file (fails while
    /// transactions are open, like the engine itself).
    pub fn checkpoint(&self) -> ServerResult<()> {
        self.with_db(|db| db.checkpoint())?
            .map_err(ServerError::Statement)
    }

    /// Simulates a crash: the database is dropped *without* flushing
    /// buffered pages, open transactions evaporate (they were never
    /// logged), and every subsequent session call returns
    /// [`ServerError::Closed`]. Reopen the file to recover.
    pub fn crash(&self) -> ServerResult<()> {
        let mut slot = db_write(&self.inner.db);
        let db = slot.take().ok_or(ServerError::Closed)?;
        db.crash();
        Ok(())
    }
}

/// Per-session observability counters, reported by the `STATS` verb
/// alongside the engine-wide snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements this session executed (SQL and session-control verbs,
    /// `STATS` itself included).
    pub statements: u64,
    /// Explicit transactions rolled back by a statement failure.
    pub txn_aborts: u64,
}

/// One client's connection state: autocommit by default, or an explicit
/// transaction between `BEGIN` and `COMMIT`/`ROLLBACK`.
pub struct ServerSession {
    shared: Arc<Shared>,
    /// Stable id reported by the slow log.
    id: u64,
    /// The engine id of the session's open explicit transaction.
    txn: Option<u64>,
    stats: SessionStats,
    /// Span breakdown of the last SQL statement this session ran (the
    /// database's spans); what `TRACE` renders.
    last_trace: Vec<TraceSpan>,
}

impl ServerSession {
    /// Whether an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// This session's id (stable for its lifetime; slow-log entries
    /// carry it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Executes one statement: SQL, the session-control verbs
    /// `BEGIN` / `COMMIT` / `ROLLBACK` (alias `ABORT`), or the
    /// observability verbs — `STATS` (counter rows),
    /// `STATS HISTOGRAMS` (latency distributions), `TRACE <sql>`
    /// (execute and return the span breakdown), `SLOW` (the slow-
    /// statement log).
    pub fn execute(&mut self, sql: &str) -> ServerResult<QueryResult> {
        self.stats.statements += 1;
        let mut words = sql.split_whitespace();
        let verb = words.next().unwrap_or("").to_ascii_uppercase();
        match verb.as_str() {
            "BEGIN" => self.begin(),
            "COMMIT" | "END" => self.commit(),
            "ROLLBACK" | "ABORT" => self.rollback(),
            "STATS"
                if words
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("HISTOGRAMS")) =>
            {
                self.histogram_rows()
            }
            "STATS" => self.stats_rows(),
            "SLOW" => self.slow_rows(),
            "TRACE" => {
                let inner = sql.trim_start();
                let inner = inner[inner
                    .find(char::is_whitespace)
                    .ok_or_else(|| ServerError::Session("TRACE needs a statement".into()))?..]
                    .trim_start();
                if inner.is_empty() {
                    return Err(ServerError::Session("TRACE needs a statement".into()));
                }
                self.statement(inner)?;
                Ok(Self::trace_rows(&self.last_trace))
            }
            _ => self.statement(sql),
        }
    }

    /// This session's observability counters.
    pub fn session_stats(&self) -> SessionStats {
        self.stats
    }

    /// Span breakdown of the last SQL statement this session executed
    /// (what the `TRACE` verb returns over the wire).
    pub fn last_trace(&self) -> &[TraceSpan] {
        &self.last_trace
    }

    /// Renders spans as wire rows: one row per span, I/O deltas
    /// included.
    fn trace_rows(spans: &[TraceSpan]) -> QueryResult {
        QueryResult {
            columns: vec![
                "span".into(),
                "nanos".into(),
                "page_reads".into(),
                "buffer_hits".into(),
                "wal_appends".into(),
            ],
            rows: spans
                .iter()
                .map(|s| {
                    vec![
                        Datum::text(s.name),
                        Datum::Int(s.nanos as i64),
                        Datum::Int(s.page_reads as i64),
                        Datum::Int(s.buffer_hits as i64),
                        Datum::Int(s.wal_appends as i64),
                    ]
                })
                .collect(),
            ..Default::default()
        }
    }

    /// The `STATS HISTOGRAMS` verb: one `histogram`/`stat`/`value` row
    /// per histogram × derived statistic.
    fn histogram_rows(&mut self) -> ServerResult<QueryResult> {
        let rows = self
            .shared
            .with_engine(StorageEngine::histograms)?
            .histograms()
            .into_iter()
            .flat_map(|(name, h)| {
                h.stats().into_iter().map(move |(stat, value)| {
                    vec![
                        Datum::text(name),
                        Datum::text(stat),
                        Datum::Int(value as i64),
                    ]
                })
            })
            .collect();
        Ok(QueryResult {
            columns: vec!["histogram".into(), "stat".into(), "value".into()],
            rows,
            ..Default::default()
        })
    }

    /// The `SLOW` verb: captured slow statements, oldest first — one
    /// row each with the span breakdown flattened to `name=micros`
    /// pairs.
    fn slow_rows(&mut self) -> ServerResult<QueryResult> {
        let entries = {
            let slow = lock_slow(&self.shared.slow);
            slow.entries.iter().cloned().collect::<Vec<_>>()
        };
        let rows = entries
            .into_iter()
            .map(|e| {
                let spans = e
                    .spans
                    .iter()
                    .map(|s| format!("{}={}us", s.name, s.nanos / 1_000))
                    .collect::<Vec<_>>()
                    .join(" ");
                vec![
                    Datum::Int(e.session as i64),
                    Datum::text(&e.sql),
                    Datum::Int((e.wall_nanos / 1_000) as i64),
                    Datum::text(&spans),
                ]
            })
            .collect();
        Ok(QueryResult {
            columns: vec![
                "session".into(),
                "statement".into(),
                "wall_us".into(),
                "spans".into(),
            ],
            rows,
            ..Default::default()
        })
    }

    /// The `STATS` verb: every counter of the database's registry
    /// followed by this session's own counters, one `counter`/`value`
    /// row each — the line protocol carries it like any other query
    /// result.
    fn stats_rows(&mut self) -> ServerResult<QueryResult> {
        let counters = self.shared.with_engine(StorageEngine::metrics)?;
        let session = [
            ("session_statements", self.stats.statements),
            ("session_txn_aborts", self.stats.txn_aborts),
        ];
        let rows = counters
            .counters()
            .into_iter()
            .chain(session)
            .map(|(name, value)| vec![Datum::text(name), Datum::Int(value as i64)])
            .collect();
        Ok(QueryResult {
            columns: vec!["counter".into(), "value".into()],
            rows,
            ..Default::default()
        })
    }

    fn begin(&mut self) -> ServerResult<QueryResult> {
        if self.txn.is_some() {
            return Err(ServerError::Session(
                "BEGIN inside an open transaction".into(),
            ));
        }
        let mut slot = db_write(&self.shared.db);
        let db = slot.as_mut().ok_or(ServerError::Closed)?;
        self.txn = Some(db.begin_session_txn().map_err(ServerError::Statement)?);
        Ok(QueryResult::default())
    }

    fn commit(&mut self) -> ServerResult<QueryResult> {
        let Some(txn) = self.txn.take() else {
            return Err(ServerError::Session("COMMIT without BEGIN".into()));
        };
        let mut slot = db_write(&self.shared.db);
        let db = slot.as_mut().ok_or(ServerError::Closed)?;
        // The engine rolled the transaction back before erroring.
        db.commit_session_txn(txn)
            .map_err(ServerError::RolledBack)?;
        Ok(QueryResult::default())
    }

    fn rollback(&mut self) -> ServerResult<QueryResult> {
        let Some(txn) = self.txn.take() else {
            return Err(ServerError::Session("ROLLBACK without BEGIN".into()));
        };
        let mut slot = db_write(&self.shared.db);
        let db = slot.as_mut().ok_or(ServerError::Closed)?;
        db.abort_session_txn(txn);
        Ok(QueryResult::default())
    }

    fn statement(&mut self, sql: &str) -> ServerResult<QueryResult> {
        let started = Instant::now();
        // The one parse of this statement: the database is handed the
        // parsed form and does not parse again.
        let stmt = rqs::sql::parse_statement(sql).map_err(ServerError::Statement)?;
        let parse_nanos = started.elapsed().as_nanos() as u64;
        let ddl = matches!(
            stmt,
            Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::CreateIndex { .. }
        );
        // The engine's catalog rolls DDL back with its transaction, but
        // it is one shared map with no versions: a table created inside
        // an open transaction would be visible to every other session
        // before it commits.
        if ddl && self.txn.is_some() {
            return Err(ServerError::Session(
                "DDL is not allowed inside an explicit transaction".into(),
            ));
        }

        // An autocommit SELECT mutates nothing and resumes no
        // transaction: it runs on the statement latch's *read* side,
        // concurrently with every other such SELECT. Everything else,
        // a SELECT inside an explicit transaction included, runs on the
        // write side with the session's transaction (if any) switched
        // in, which needs `&mut`.
        let stmt = match stmt {
            Statement::Select(select) if self.txn.is_none() => {
                return self.read_statement(sql, &select, parse_nanos, started);
            }
            other => other,
        };
        let (result, spans) = {
            let mut slot = db_write(&self.shared.db);
            let Some(db) = slot.as_mut() else {
                // The transaction (if any) evaporated with the database.
                self.txn = None;
                return Err(ServerError::Closed);
            };
            let r = match self.txn {
                Some(txn) => match db.resume_session_txn(txn) {
                    Ok(()) => {
                        let r = db.execute_parsed(stmt, parse_nanos);
                        db.suspend_session_txn();
                        r
                    }
                    Err(e) => Err(e),
                },
                None => db.execute_parsed(stmt, parse_nanos),
            };
            // The database's spans (filled even when the statement
            // failed), copied out while the database is still ours.
            (r, db.last_statement_trace().spans.clone())
        };
        self.record(sql, started, spans);
        result.or_else(|e| self.fail(e))
    }

    /// The parallel read path: an autocommit SELECT executed through
    /// [`Database::query_select`] on the statement latch's read side.
    /// No transaction, no `&mut Database` — any number of sessions run
    /// here at once. The database accounts for it exactly as for a
    /// write (a failed SELECT included).
    fn read_statement(
        &mut self,
        sql: &str,
        select: &SelectStmt,
        parse_nanos: u64,
        started: Instant,
    ) -> ServerResult<QueryResult> {
        debug_assert!(self.txn.is_none());
        let (result, trace) = match db_read(&self.shared.db).as_ref() {
            Some(db) => db.query_select(select, parse_nanos),
            None => return Err(ServerError::Closed),
        };
        self.record(sql, started, trace.spans);
        result.map_err(ServerError::Statement)
    }

    /// The tail every SQL statement shares: stores its trace (the
    /// database's `spans`) and feeds the slow-statement log with it.
    fn record(&mut self, sql: &str, started: Instant, spans: Vec<TraceSpan>) {
        self.last_trace = spans;
        let wall_nanos = started.elapsed().as_nanos() as u64;
        let mut slow = lock_slow(&self.shared.slow);
        if slow.capacity > 0 && wall_nanos >= slow.threshold.as_nanos() as u64 {
            slow.push(SlowEntry {
                session: self.id,
                sql: sql.to_owned(),
                wall_nanos,
                spans: self.last_trace.clone(),
            });
        }
    }

    /// Failure path: an error inside an explicit transaction aborts the
    /// whole transaction (statement-level atomicity is not separable
    /// from it once several statements share one WAL transaction).
    fn fail(&mut self, e: RqsError) -> ServerResult<QueryResult> {
        let Some(txn) = self.txn.take() else {
            return Err(ServerError::Statement(e));
        };
        self.stats.txn_aborts += 1;
        if let Some(db) = db_write(&self.shared.db).as_mut() {
            db.abort_session_txn(txn);
        }
        Err(ServerError::RolledBack(e))
    }
}

impl Drop for ServerSession {
    /// A dropped session rolls its open transaction back — a
    /// disconnected client must not leave pending versions behind.
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            if let Some(db) = db_write(&self.shared.db).as_mut() {
                db.abort_session_txn(txn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs::Datum;

    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<SharedDatabase>();
        assert_send::<ServerSession>();
    };

    fn shared() -> SharedDatabase {
        SharedDatabase::paged(32).unwrap()
    }

    #[test]
    fn autocommit_statements_flow_like_a_plain_database() {
        let db = shared();
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        let r = s
            .execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = s.execute("SELECT v.b FROM t v WHERE v.a = 2").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::text("y")]]);
    }

    #[test]
    fn explicit_transactions_commit_and_roll_back() {
        let db = shared();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("CREATE TABLE t (a INT)").unwrap();

        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        a.execute("COMMIT").unwrap();
        assert_eq!(b.execute("SELECT v.a FROM t v").unwrap().rows.len(), 1);

        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (2)").unwrap();
        a.execute("ROLLBACK").unwrap();
        assert_eq!(b.execute("SELECT v.a FROM t v").unwrap().rows.len(), 1);
    }

    #[test]
    fn session_control_misuse_is_rejected() {
        let db = shared();
        let mut s = db.session();
        assert!(matches!(s.execute("COMMIT"), Err(ServerError::Session(_))));
        assert!(matches!(
            s.execute("ROLLBACK"),
            Err(ServerError::Session(_))
        ));
        s.execute("BEGIN").unwrap();
        assert!(matches!(s.execute("BEGIN"), Err(ServerError::Session(_))));
        assert!(matches!(
            s.execute("CREATE TABLE t (a INT)"),
            Err(ServerError::Session(_))
        ));
        s.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn writer_blocks_reader_until_commit_no_dirty_reads() {
        let db = shared();
        let mut a = db.session();
        a.execute("CREATE TABLE t (a INT)").unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        // A concurrent reader neither waits nor sees the uncommitted
        // row: its snapshot read succeeds immediately with the
        // committed state (empty), not an error and not a dirty row.
        let mut b = db.session();
        assert_eq!(b.execute("SELECT v.a FROM t v").unwrap().rows.len(), 0);
        a.execute("COMMIT").unwrap();
        assert_eq!(b.execute("SELECT v.a FROM t v").unwrap().rows.len(), 1);
    }

    #[test]
    fn snapshot_select_takes_no_locks_at_all() {
        let db = shared();
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let before = db.metrics().unwrap();
        let mut r = db.session();
        assert_eq!(r.execute("SELECT v.a FROM t v").unwrap().rows.len(), 2);
        let after = db.metrics().unwrap();
        assert_eq!(
            after.snapshot_reads,
            before.snapshot_reads + 1,
            "each snapshot SELECT opens exactly one read view"
        );
        // A SELECT inside BEGIN takes the latch's write side; plain
        // EXPLAIN SELECT runs like any other statement.
        r.execute("BEGIN").unwrap();
        assert_eq!(r.execute("SELECT v.a FROM t v").unwrap().rows.len(), 2);
        r.execute("COMMIT").unwrap();
        assert!(!r
            .execute("EXPLAIN SELECT v.a FROM t v")
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn statement_error_inside_txn_rolls_the_whole_txn_back() {
        let db = shared();
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT, PRIMARY KEY (a))")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        let err = s.execute("INSERT INTO t VALUES (1)").unwrap_err();
        assert!(matches!(err, ServerError::RolledBack(_)), "{err}");
        assert!(!s.in_txn(), "transaction must be gone");
        let rows = s.execute("SELECT v.a FROM t v").unwrap().rows;
        assert_eq!(rows, vec![vec![Datum::Int(1)]], "row 2 rolled back");
    }

    #[test]
    fn dropped_session_releases_its_locks_and_transaction() {
        let db = shared();
        let mut a = db.session();
        a.execute("CREATE TABLE t (a INT)").unwrap();
        {
            let mut doomed = db.session();
            doomed.execute("BEGIN").unwrap();
            doomed.execute("INSERT INTO t VALUES (9)").unwrap();
            // Dropped here: rollback + release.
        }
        let r = a.execute("SELECT v.a FROM t v").unwrap();
        assert!(r.rows.is_empty(), "doomed insert must not survive");
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        // DDL is refused while any other transaction is open, so this
        // proves the doomed session's transaction is gone.
        a.execute("CREATE INDEX ON t (a)").unwrap();
    }

    #[test]
    fn crash_mid_transaction_ends_the_session_transaction() {
        // A statement observing Closed drops the session's transaction
        // with the database, so later calls report Closed or a plain
        // session error, never a conflict against a ghost.
        let db = shared();
        let mut a = db.session();
        a.execute("CREATE TABLE t (a INT)").unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        db.crash().unwrap();
        assert!(matches!(
            a.execute("INSERT INTO t VALUES (2)"),
            Err(ServerError::Closed)
        ));
        assert!(!a.in_txn(), "the transaction died with the database");
        // Another session must now observe Closed too.
        let mut b = db.session();
        assert!(matches!(
            b.execute("SELECT v.a FROM t v"),
            Err(ServerError::Closed)
        ));
        assert!(matches!(a.execute("COMMIT"), Err(ServerError::Session(_))));
    }

    #[test]
    fn crash_closes_the_database_for_every_session() {
        let db = shared();
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        db.crash().unwrap();
        assert!(matches!(
            s.execute("SELECT v.a FROM t v"),
            Err(ServerError::Closed)
        ));
        assert!(matches!(db.crash(), Err(ServerError::Closed)));
    }
}
