//! The public facade: a database accepting SQL text.

use crate::catalog;
use crate::dml;
use crate::error::{RqsError, RqsResult};
use crate::exec::{self, QueryMetrics};
use crate::plan;
use crate::sql::{self, SelectStmt, Statement};
use crate::value::Tuple;
use std::path::Path;
use storage::{Fault, StorageEngine};

/// Result of executing a statement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Output column labels (`alias.column`), empty for non-queries.
    pub columns: Vec<String>,
    /// Result rows, empty for non-queries.
    pub rows: Vec<Tuple>,
    /// Rows inserted/deleted for DML, 0 for queries.
    pub affected: usize,
    /// Work counters (queries only).
    pub metrics: QueryMetrics,
}

/// One named phase of a statement: how long it took and what I/O it
/// caused (physical counter deltas attributed to this phase).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSpan {
    /// Phase name: `parse`, `plan`, `exec`, or `commit`.
    pub name: &'static str,
    /// Wall time spent in this phase, nanoseconds.
    pub nanos: u64,
    /// Buffer-pool misses during this phase.
    pub page_reads: u64,
    /// Buffer-pool hits during this phase.
    pub buffer_hits: u64,
    /// WAL frames appended during this phase.
    pub wal_appends: u64,
}

/// Per-statement span breakdown recorded by every [`Database::execute`]
/// call and returned by [`Database::query_select`]: the spans partition
/// the statement's wall time, so their nanos sum to (just under)
/// `elapsed_nanos`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Spans in execution order.
    pub spans: Vec<TraceSpan>,
    /// Whole-statement wall time, nanoseconds (same value as
    /// [`QueryMetrics::elapsed_nanos`]).
    pub elapsed_nanos: u64,
}

/// What the engine-commit half of [`run_txn`] measured, handed back to
/// [`Database::finish`] through a thread-local: `run_txn` sees only the
/// engine, several layers below the `Database` that assembles the
/// trace.
#[derive(Clone, Copy, Debug, Default)]
struct CommitProbe {
    nanos: u64,
    page_reads: u64,
    buffer_hits: u64,
    wal_appends: u64,
}

thread_local! {
    static LAST_COMMIT: std::cell::Cell<Option<CommitProbe>> =
        const { std::cell::Cell::new(None) };
}

/// One statement's open account, from [`Database::start`] to
/// [`Database::finish`]. Split in two so both borrow shapes share it:
/// `execute` runs the statement through `&mut self` in between,
/// `query_select` through `&self`.
struct Account {
    parse_nanos: u64,
    started: std::time::Instant,
    io_before: storage::MetricsSnapshot,
    autocommit: bool,
}

/// Runs `f` as one engine transaction: begin, mutate, commit —
/// aborting (and rolling back pages + engine catalog) if any step
/// fails. This is what makes a multi-row INSERT, a predicated UPDATE
/// mid-index-maintenance, or a DML statement interrupted by an I/O
/// error atomic.
///
/// When a session transaction is already active (the shared server
/// resumed one around this statement), the statement simply joins it:
/// the session owns commit/abort, and an error making it out of here
/// tells the session to abort the whole transaction.
pub(crate) fn run_txn<T>(
    engine: &mut StorageEngine,
    f: impl FnOnce(&mut StorageEngine) -> RqsResult<T>,
) -> RqsResult<T> {
    if engine.in_txn() {
        return f(engine);
    }
    engine.begin()?;
    match f(engine) {
        Ok(v) => {
            let io_before = engine.metrics();
            let started = std::time::Instant::now();
            match engine.commit() {
                Ok(()) => {
                    let io_after = engine.metrics();
                    LAST_COMMIT.set(Some(CommitProbe {
                        nanos: started.elapsed().as_nanos() as u64,
                        page_reads: io_after.fault_ins - io_before.fault_ins,
                        buffer_hits: io_after.buffer_hits - io_before.buffer_hits,
                        wal_appends: io_after.wal_appends - io_before.wal_appends,
                    }));
                    Ok(v)
                }
                Err(e) => {
                    engine.abort();
                    Err(e.into())
                }
            }
        }
        Err(e) => {
            engine.abort();
            Err(e)
        }
    }
}

/// Runs a constraint check in probe mode: the check judges the latest
/// committed state plus the writer's own rows, and conflicts retryably
/// on a concurrent writer's pending rows instead of reporting a
/// violation against data that may roll back.
pub(crate) fn probing<T>(engine: &StorageEngine, check: impl FnOnce() -> T) -> T {
    engine.set_constraint_probe(true);
    let out = check();
    engine.set_constraint_probe(false);
    out
}

/// A relational database addressed through SQL.
///
/// Schemas, constraints and rows all live in one [`StorageEngine`]
/// (slotted heap pages behind a buffer pool, B+-tree indexes, and a
/// catalog a transaction rolls back): [`Database::new`] over anonymous
/// in-memory pages with a fixed pool, [`Database::paged`] with a chosen
/// pool, and [`Database::open_paged`] over a file whose catalog is
/// bootstrapped back from its system pages on reopen.
///
/// It is `Send + Sync`, so one database can be owned by the shared
/// server, handed between session threads, and read through `&self` by
/// many snapshot SELECTs at once (mutating statements still execute one
/// at a time, under the server's statement latch).
pub struct Database {
    engine: StorageEngine,
    /// Work counters of the most recent `execute` call. Unlike the copy
    /// in [`QueryResult`], this is filled even when the statement
    /// returned an error — pages it touched before failing were real
    /// work and must not vanish from the account.
    last_metrics: QueryMetrics,
    /// Span breakdown of the most recent `execute` call (also filled on
    /// error, like `last_metrics`).
    last_trace: Trace,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.engine.table_names().collect::<Vec<_>>())
            .finish()
    }
}

/// Buffer-pool frames of a [`Database::new`] database: 4 MiB of pages,
/// so small databases never evict. Frames are allocated on first use.
const POOL_PAGES: usize = 1024;

impl Database {
    /// A database on the paged engine over anonymous in-memory pages,
    /// with a pool large enough that small databases never evict: the
    /// engine the server and the benchmark run on, under the coupler
    /// and the paper's examples too.
    pub fn new() -> Self {
        Self::paged(POOL_PAGES).expect("an in-memory paged database opens")
    }

    /// A database on the paged storage engine with a `pool_pages`-frame
    /// buffer pool, backed by anonymous in-memory pages.
    pub fn paged(pool_pages: usize) -> RqsResult<Self> {
        Ok(Self::over(StorageEngine::in_memory(pool_pages)?))
    }

    fn over(engine: StorageEngine) -> Self {
        Database {
            engine,
            last_metrics: QueryMetrics::default(),
            last_trace: Trace::default(),
        }
    }

    /// Opens (creating if missing) a file-backed paged database. Before
    /// anything else the engine replays the write-ahead log (committed
    /// statements survive a crash; torn tails are discarded), then
    /// schemas *and integrity constraints* are bootstrapped from the
    /// file's system-catalog pages — no DDL needs re-issuing.
    ///
    /// Dropping the database flushes resident dirty pages best-effort;
    /// every committed statement is already durable in the WAL, so even
    /// a lost flush only costs recovery time on the next open. Call
    /// [`Database::checkpoint`] to fold the log into the database file.
    pub fn open_paged(path: &Path, pool_pages: usize) -> RqsResult<Self> {
        Ok(Self::over(StorageEngine::open(path, pool_pages)?))
    }

    /// [`Database::open_paged`] whose durable writes are charged against
    /// `fault` — the crash-recovery test harness.
    pub fn open_with_fault(path: &Path, pool_pages: usize, fault: Fault) -> RqsResult<Self> {
        Ok(Self::over(StorageEngine::open_with_fault(
            path, pool_pages, fault,
        )?))
    }

    /// The storage engine itself: schemas and constraints, rows, metrics
    /// and histograms, flush and checkpoint.
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Inserts without constraint checks (bulk loads of pre-validated
    /// data; cyclic foreign keys make insert-time checking impossible).
    /// Call [`Database::validate_all`] afterwards.
    pub fn insert_unchecked(&mut self, table_name: &str, tuple: Tuple) -> RqsResult<()> {
        catalog::typecheck(self.engine.table(table_name)?, &tuple)?;
        self.engine.insert(table_name, &tuple)?;
        Ok(())
    }

    /// Re-validates every constraint of every table against stored data.
    pub fn validate_all(&self) -> RqsResult<()> {
        catalog::validate_all(&self.engine)
    }

    /// Writes dirty pages back to the pager. The WAL is left alone; see
    /// [`Database::checkpoint`].
    pub fn flush(&self) -> RqsResult<()> {
        Ok(self.engine.flush()?)
    }

    /// Checkpoint: write dirty pages back *and* truncate the WAL, so
    /// the database file alone carries the whole state.
    pub fn checkpoint(&self) -> RqsResult<()> {
        Ok(self.engine.checkpoint()?)
    }

    /// Test/ops helper simulating a crash: drops the database without
    /// flushing buffered pages. Committed statements are recovered from
    /// the WAL on the next [`Database::open_paged`].
    pub fn crash(mut self) {
        self.engine.simulate_crash();
    }

    // -----------------------------------------------------------------
    // Session transactions (the shared server's surface)
    // -----------------------------------------------------------------

    /// Opens a session-scoped transaction spanning several `execute`
    /// calls and returns its id (suspended; resume it per statement).
    /// Any number may be open; one is active at a time. Its statements,
    /// DDL included, commit or roll back together: the engine's catalog
    /// is transactional.
    pub fn begin_session_txn(&mut self) -> RqsResult<u64> {
        let id = self.engine.begin()?;
        self.engine.suspend();
        Ok(id)
    }

    /// Makes an open session transaction active for the next statement.
    pub fn resume_session_txn(&mut self, id: u64) -> RqsResult<()> {
        Ok(self.engine.resume(id)?)
    }

    /// Suspends the active session transaction after a statement.
    pub fn suspend_session_txn(&mut self) {
        self.engine.suspend();
    }

    /// Commits an open session transaction. On error it is rolled back.
    pub fn commit_session_txn(&mut self, id: u64) -> RqsResult<()> {
        Ok(self.engine.commit_txn(id)?)
    }

    /// Rolls an open session transaction back.
    pub fn abort_session_txn(&mut self, id: u64) {
        self.engine.abort_txn(id);
    }

    /// Opens (`true`) or closes (`false`) the statement-scoped read
    /// snapshot an autocommit statement reads through; a session inside
    /// BEGIN reads through its transaction's snapshot instead (cut at
    /// BEGIN).
    fn statement_snapshot(&self, open: bool) {
        if open {
            self.engine().open_statement_snapshot();
        } else {
            self.engine().close_statement_snapshot();
        }
    }

    /// Executes one SQL statement. Mutating statements run as one WAL
    /// transaction: either every effect (rows, index
    /// postings, catalog mutations) commits durably, or none do.
    ///
    /// Every call — successful or not — leaves its work counters
    /// (phase timings, page I/O deltas) in
    /// [`Database::last_statement_metrics`].
    pub fn execute(&mut self, sql_text: &str) -> RqsResult<QueryResult> {
        let started = std::time::Instant::now();
        let parsed = sql::parse_statement(sql_text);
        self.run_timed(parsed, started.elapsed().as_nanos() as u64)
    }

    /// [`Database::execute`] for a caller that already parsed the text
    /// (the server parses once, to plan locks). `parse_nanos` is what
    /// that parse took; it is carried into the metrics and the `parse`
    /// span so the statement's accounting stays whole.
    pub fn execute_parsed(&mut self, stmt: Statement, parse_nanos: u64) -> RqsResult<QueryResult> {
        self.run_timed(Ok(stmt), parse_nanos)
    }

    /// Everything after the parse: runs the statement inside one
    /// account and keeps its metrics and trace for both outcomes.
    fn run_timed(
        &mut self,
        parsed: RqsResult<Statement>,
        parse_nanos: u64,
    ) -> RqsResult<QueryResult> {
        let account = self.start(parse_nanos);
        let mut outcome = parsed.and_then(|stmt| self.run_statement(stmt));
        (self.last_metrics, self.last_trace) = self.finish(account, &mut outcome);
        outcome
    }

    /// Opens one statement's account: clears the commit probe, takes the
    /// first of its two registry snapshots (relaxed loads, no lock) and,
    /// in autocommit, opens the statement snapshot.
    fn start(&self, parse_nanos: u64) -> Account {
        let started = std::time::Instant::now();
        let io_before = self.engine.metrics();
        LAST_COMMIT.set(None);
        let autocommit = !self.engine.in_txn();
        if autocommit {
            self.statement_snapshot(true);
        }
        Account {
            parse_nanos,
            started,
            io_before,
            autocommit,
        }
    }

    /// Closes the account [`Database::start`] opened for `outcome`'s
    /// statement: closes the snapshot (error paths included — that
    /// releases the prior versions only this statement kept alive), takes
    /// the second registry snapshot, backfills timings and I/O deltas into
    /// *both* outcomes — a failed statement still reports the pages it
    /// touched — and builds the trace.
    fn finish(
        &self,
        account: Account,
        outcome: &mut RqsResult<QueryResult>,
    ) -> (QueryMetrics, Trace) {
        if account.autocommit {
            self.statement_snapshot(false);
        }
        let exec_nanos = account.started.elapsed().as_nanos() as u64;
        let io_after = self.engine.metrics();
        let before = account.io_before;
        let mut failed = QueryMetrics::default();
        let metrics = match outcome {
            Ok(result) => &mut result.metrics,
            Err(_) => &mut failed,
        };
        metrics.parse_nanos = account.parse_nanos;
        metrics.exec_nanos = exec_nanos;
        metrics.page_reads = io_after.fault_ins - before.fault_ins;
        metrics.buffer_hits = io_after.buffer_hits - before.buffer_hits;
        metrics.wal_appends = io_after.wal_appends - before.wal_appends;
        metrics.wal_bytes = io_after.wal_bytes - before.wal_bytes;
        metrics.elapsed_nanos = account.parse_nanos + account.started.elapsed().as_nanos() as u64;
        let trace = Self::build_trace(metrics, LAST_COMMIT.take());
        (metrics.clone(), trace)
    }

    /// Assembles the span breakdown of one statement. `parse` and
    /// `plan` are pure CPU; `commit` carries what [`run_txn`] probed
    /// around `engine.commit()` (absent for queries and statements
    /// joining a session transaction); `exec` is everything else, so
    /// the spans partition the statement.
    fn build_trace(metrics: &QueryMetrics, commit: Option<CommitProbe>) -> Trace {
        let commit = commit.unwrap_or_default();
        let mut spans = vec![
            TraceSpan {
                name: "parse",
                nanos: metrics.parse_nanos,
                ..Default::default()
            },
            TraceSpan {
                name: "plan",
                nanos: metrics.plan_nanos.min(metrics.exec_nanos),
                ..Default::default()
            },
            TraceSpan {
                name: "exec",
                nanos: metrics
                    .exec_nanos
                    .saturating_sub(metrics.plan_nanos)
                    .saturating_sub(commit.nanos),
                page_reads: metrics.page_reads.saturating_sub(commit.page_reads),
                buffer_hits: metrics.buffer_hits.saturating_sub(commit.buffer_hits),
                wal_appends: metrics.wal_appends.saturating_sub(commit.wal_appends),
            },
            TraceSpan {
                name: "commit",
                nanos: commit.nanos,
                page_reads: commit.page_reads,
                buffer_hits: commit.buffer_hits,
                wal_appends: commit.wal_appends,
            },
        ];
        // A span that did nothing is noise, but exec always renders so
        // every trace has at least parse + exec anchors.
        spans.retain(|s| {
            s.name == "exec"
                || s.name == "parse"
                || s.nanos > 0
                || s.page_reads > 0
                || s.buffer_hits > 0
                || s.wal_appends > 0
        });
        Trace {
            spans,
            elapsed_nanos: metrics.elapsed_nanos,
        }
    }

    /// Work counters of the most recent [`Database::execute`] call,
    /// including calls that returned an error (successful calls also
    /// carry a copy in their [`QueryResult`]).
    pub fn last_statement_metrics(&self) -> &QueryMetrics {
        &self.last_metrics
    }

    /// Span breakdown of the most recent [`Database::execute`] call
    /// (parse / plan / exec / commit with per-span I/O deltas), filled
    /// even when the statement returned an error.
    pub fn last_statement_trace(&self) -> &Trace {
        &self.last_trace
    }

    /// Dispatches one parsed statement (the body of [`Database::execute`],
    /// split out so timing and I/O accounting wrap every path).
    fn run_statement(&mut self, stmt: Statement) -> RqsResult<QueryResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                constraints,
            } => {
                run_txn(&mut self.engine, |e| {
                    Ok(e.create_table(&name, &columns, &constraints)?)
                })?;
                Ok(QueryResult::default())
            }
            Statement::CreateIndex { table, column } => {
                let col = self
                    .engine
                    .table(&table)?
                    .column_index(&column)
                    .ok_or_else(|| RqsError::UnknownColumn(format!("{table}.{column}")))?;
                // Not wrapped in a transaction: the engine bulk-
                // builds the tree unlogged and transacts only the
                // catalog registration (see StorageEngine::create_index).
                self.engine.create_index(&table, col)?;
                Ok(QueryResult::default())
            }
            Statement::Insert { table, rows } => {
                let affected = rows.len();
                run_txn(&mut self.engine, |e| {
                    for row in rows {
                        // Probed inside the transaction, so the check
                        // also sees this statement's own earlier rows.
                        probing(e, || catalog::check_insert(e, &table, &row))?;
                        e.insert(&table, &row)?;
                    }
                    Ok(())
                })?;
                Ok(QueryResult {
                    affected,
                    ..Default::default()
                })
            }
            Statement::Delete {
                table,
                filter: None,
            } => {
                // Truncation fast path (the front-end resetting a whole
                // intermediate relation): still a single engine
                // truncate, but no longer *unchecked* — a parent table
                // that referencing children still point at refuses to
                // vanish, matching predicated DELETE's restrict rule.
                self.engine.table(&table)?;
                probing(&self.engine, || {
                    dml::check_truncate_constraints(&self.engine, &table)
                })?;
                let affected = run_txn(&mut self.engine, |e| {
                    let removed = e.row_count(&table)?;
                    e.truncate(&table)?;
                    Ok(removed)
                })?;
                Ok(QueryResult {
                    affected,
                    ..Default::default()
                })
            }
            Statement::Delete {
                table,
                filter: Some(conds),
            } => {
                let affected = dml::execute_delete(&mut self.engine, &table, &conds)?;
                Ok(QueryResult {
                    affected,
                    ..Default::default()
                })
            }
            Statement::Update {
                table,
                sets,
                filter,
            } => {
                let affected = dml::execute_update(&mut self.engine, &table, &sets, &filter)?;
                Ok(QueryResult {
                    affected,
                    ..Default::default()
                })
            }
            Statement::DropTable { name } => {
                run_txn(&mut self.engine, |e| Ok(e.drop_table(&name)?))?;
                Ok(QueryResult::default())
            }
            Statement::Select(select) => self.run_select(&select, &mut |_, _| {}),
            Statement::Explain { analyze, stmt } => self.run_explain(analyze, *stmt),
        }
    }

    /// `EXPLAIN [ANALYZE]` dispatch: renders the plan of the inner
    /// statement as text rows (and, under ANALYZE, actually runs it and
    /// annotates the plan with measured work).
    fn run_explain(&mut self, analyze: bool, stmt: Statement) -> RqsResult<QueryResult> {
        let text = match (analyze, stmt) {
            (false, stmt) => self.render_plan(&stmt)?,
            // The plans that ran — each step annotated with the method
            // it actually used, its probes and the rows it read.
            (true, Statement::Select(select)) => self.analyze(String::new(), |db, text| {
                let engine = &db.engine;
                let result = db.run_select(&select, &mut |plan, runs| {
                    if !text.is_empty() {
                        text.push_str("UNION\n");
                    }
                    text.push_str(&plan.explain(engine, Some(runs)));
                })?;
                Ok((result.rows.len(), Some(result.metrics)))
            })?,
            (
                true,
                stmt @ (Statement::Update { .. }
                | Statement::Delete {
                    filter: Some(_), ..
                }),
            ) => {
                // Render the plan BEFORE mutating: the access path must
                // describe the data the statement actually saw.
                let text = self.render_plan(&stmt)?;
                self.analyze(text, |db, _| Ok((db.run_statement(stmt)?.affected, None)))?
            }
            (true, _) => {
                return Err(RqsError::Syntax(
                    "EXPLAIN ANALYZE accepts only SELECT, UPDATE, or predicated DELETE".into(),
                ))
            }
        };
        Ok(QueryResult {
            columns: vec!["plan".into()],
            rows: text
                .lines()
                .map(|l| vec![crate::value::Datum::text(l)])
                .collect(),
            ..Default::default()
        })
    }

    /// `EXPLAIN ANALYZE`'s measured run: executes `run` between its own
    /// pair of registry snapshots and appends the `Actual:` lines to the plan
    /// text (which `run` may still be rendering). `run` returns the rows
    /// it produced or affected and, for a SELECT, the executor's counters;
    /// DML has none, so `rows_scanned`/`scans` report 0. The statement
    /// really runs — ANALYZE executes. The `key=value` tokens are stable
    /// so tests and tools can parse them.
    fn analyze(
        &mut self,
        mut text: String,
        run: impl FnOnce(&mut Self, &mut String) -> RqsResult<(usize, Option<QueryMetrics>)>,
    ) -> RqsResult<String> {
        let io_before = self.engine.metrics();
        let started = std::time::Instant::now();
        let (rows, counters) = run(self, &mut text)?;
        let elapsed_us = started.elapsed().as_micros();
        let io_after = self.engine.metrics();
        let counters = match counters {
            Some(m) => format!(
                "rows_scanned={} scans={} index_probes={}",
                m.rows_scanned, m.scans, m.index_probes
            ),
            None => "rows_scanned=0 scans=0".into(),
        };
        text.push_str(&format!("Actual: rows={rows} elapsed_us={elapsed_us}\n"));
        text.push_str(&format!(
            "Actual: page_reads={} buffer_hits={} {counters}\n",
            io_after.fault_ins - io_before.fault_ins,
            io_after.buffer_hits - io_before.buffer_hits,
        ));
        Ok(text)
    }

    /// Executes a SELECT without requiring `&mut self` — the parallel
    /// read path. Many threads may call this at once on a shared
    /// database: each opens its own statement snapshot and reads the
    /// engine through `&self`, so SELECTs scale across cores instead
    /// of queueing on the statement latch. Timings land in the returned
    /// metrics; [`Database::query_select`] also returns the trace.
    pub fn query(&self, sql_text: &str) -> RqsResult<QueryResult> {
        let started = std::time::Instant::now();
        match sql::parse_statement(sql_text)? {
            Statement::Select(select) => {
                self.query_select(&select, started.elapsed().as_nanos() as u64)
                    .0
            }
            _ => Err(RqsError::Syntax("query() accepts only SELECT".into())),
        }
    }

    /// [`Database::query`] for a caller that already parsed the text;
    /// `parse_nanos` is what that parse took (see
    /// [`Database::execute_parsed`]). Returns the statement's trace
    /// beside its outcome — there is no `last_statement_*` slot to fill
    /// without `&mut self` — accounted exactly as `execute` accounts it,
    /// and filled on error too.
    pub fn query_select(
        &self,
        select: &SelectStmt,
        parse_nanos: u64,
    ) -> (RqsResult<QueryResult>, Trace) {
        let account = self.start(parse_nanos);
        let mut outcome = self.run_select(select, &mut |_, _| {});
        let (_, trace) = self.finish(account, &mut outcome);
        (outcome, trace)
    }

    /// Runs a SELECT through the executor, handing each top-level core's
    /// executed plan to `observe`; its page I/O is measured by the caller.
    fn run_select(
        &self,
        select: &SelectStmt,
        observe: &mut exec::PlanObserver,
    ) -> RqsResult<QueryResult> {
        let mut metrics = QueryMetrics::default();
        let rel = exec::run_select_observed(&self.engine, select, &mut metrics, observe)?;
        Ok(QueryResult {
            columns: rel.columns,
            rows: rel.rows,
            affected: 0,
            metrics,
        })
    }

    /// Renders the physical plan the optimizer would choose for a
    /// SELECT, or the access path a predicated UPDATE/DELETE would use.
    pub fn explain(&self, sql_text: &str) -> RqsResult<String> {
        self.render_plan(&sql::parse_statement(sql_text)?)
    }

    /// Plain `EXPLAIN` of a parsed statement: nothing runs.
    fn render_plan(&self, stmt: &Statement) -> RqsResult<String> {
        let engine = &self.engine;
        match stmt {
            Statement::Select(select) => {
                let mut out = String::new();
                for (i, core) in std::iter::once(&select.core)
                    .chain(&select.unions)
                    .enumerate()
                {
                    if i > 0 {
                        out.push_str("UNION\n");
                    }
                    let resolved = plan::resolve(engine, core)?;
                    out.push_str(&plan::plan(resolved, engine).explain(engine, None));
                }
                Ok(out)
            }
            Statement::Update { table, filter, .. } => {
                dml::explain_dml(engine, "Update", table, filter)
            }
            Statement::Delete {
                table,
                filter: Some(conds),
            } => dml::explain_dml(engine, "Delete", table, conds),
            Statement::Delete {
                table,
                filter: None,
            } => {
                // The truncation fast path never scans: one engine call.
                engine.table(table)?;
                Ok(format!("Delete {table} [unfiltered]\n  Truncate\n"))
            }
            _ => Err(RqsError::Syntax(
                "EXPLAIN accepts only SELECT, UPDATE, or DELETE".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;

    /// Rows the index on `t.a` holds under key `k`.
    fn postings(db: &Database, k: i64) -> usize {
        let mut n = 0;
        let key = crate::AccessPath::KeyEq(0, Datum::Int(k));
        crate::access::read(db.engine(), "t", &key, &mut |_, _| {
            n += 1;
            true
        })
        .unwrap();
        n
    }

    #[test]
    fn ddl_dml_query_lifecycle() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        let r = db
            .execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = db.execute("SELECT v.b FROM t v WHERE v.a = 2").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::text("y")]]);
        assert_eq!(r.columns, ["v.b"]);
        let r = db.execute("DELETE FROM t").unwrap();
        assert_eq!(r.affected, 2);
        db.execute("DROP TABLE t").unwrap();
        assert!(db.execute("SELECT v.b FROM t v").is_err(), "{db:?}");
    }

    #[test]
    fn update_and_predicated_delete_lifecycle() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'y')")
            .unwrap();
        let r = db.execute("UPDATE t SET b = 'upd' WHERE a > 2").unwrap();
        assert_eq!(r.affected, 2, "{db:?}");
        // Row 4's b was just rewritten to 'upd', so only row 2 matches.
        let r = db.execute("UPDATE t SET a = a + 10 WHERE b = 'y'").unwrap();
        assert_eq!(r.affected, 1);
        let r = db
            .execute("SELECT v.a, v.b FROM t v WHERE v.a > 10")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(12), Datum::text("y")]]);
        let r = db
            .execute("DELETE FROM t WHERE a >= 12 AND b = 'y'")
            .unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(db.execute("SELECT v.a FROM t v").unwrap().rows.len(), 3);
        // No-match predicates affect nothing.
        assert_eq!(
            db.execute("UPDATE t SET b = 'n' WHERE a = 99")
                .unwrap()
                .affected,
            0
        );
        assert_eq!(db.execute("DELETE FROM t WHERE 1 = 2").unwrap().affected, 0);
        // Unknown tables/columns error.
        assert!(db.execute("UPDATE nosuch SET a = 1").is_err());
        assert!(db.execute("UPDATE t SET zzz = 1").is_err());
        assert!(db.execute("DELETE FROM t WHERE zzz = 1").is_err());
        // Type errors are static.
        assert!(matches!(
            db.execute("UPDATE t SET b = 1"),
            Err(RqsError::Type(_))
        ));
        assert!(matches!(
            db.execute("UPDATE t SET a = a + b"),
            Err(RqsError::Type(_))
        ));
    }

    #[test]
    fn update_rechecks_constraints_on_changed_columns() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, PRIMARY KEY (dno))")
            .unwrap();
        db.execute(
            "CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT,
             PRIMARY KEY (eno),
             CHECK (sal BETWEEN 10000 AND 90000),
             FOREIGN KEY (dno) REFERENCES dept (dno))",
        )
        .unwrap();
        db.execute("INSERT INTO dept VALUES (1, 'hq'), (2, 'lab')")
            .unwrap();
        db.execute(
            "INSERT INTO empl VALUES (1, 'a', 20000, 1), (2, 'b', 30000, 1), (3, 'c', 40000, 2)",
        )
        .unwrap();
        // CHECK bound on the assigned column.
        assert!(matches!(
            db.execute("UPDATE empl SET sal = sal + 80000 WHERE eno = 1"),
            Err(RqsError::ConstraintViolation(_))
        ));
        // Key collision with a surviving row...
        assert!(db.execute("UPDATE empl SET eno = 2 WHERE eno = 1").is_err());
        // ...and between two updated rows.
        assert!(db
            .execute("UPDATE empl SET eno = 9 WHERE sal < 35000")
            .is_err());
        // Moving a key out of the way is fine.
        db.execute("UPDATE empl SET eno = 10 WHERE eno = 1")
            .unwrap();
        // FK child re-check on the assigned column.
        assert!(db
            .execute("UPDATE empl SET dno = 99 WHERE eno = 2")
            .is_err());
        db.execute("UPDATE empl SET dno = 2 WHERE eno = 2").unwrap();
        // Restrict: rewriting a referenced parent key is refused...
        assert!(db.execute("UPDATE dept SET dno = 5 WHERE dno = 2").is_err());
        // ...but a non-referenced parent column changes freely.
        db.execute("UPDATE dept SET fct = 'ops' WHERE dno = 2")
            .unwrap();
        // Restrict: deleting a referenced parent row is refused.
        assert!(matches!(
            db.execute("DELETE FROM dept WHERE dno = 2"),
            Err(RqsError::ConstraintViolation(_))
        ));
        // Unreference it, then the delete goes through.
        db.execute("DELETE FROM empl WHERE dno = 2").unwrap();
        let r = db.execute("DELETE FROM dept WHERE dno = 2").unwrap();
        assert_eq!(r.affected, 1);
        // State is intact after all the rejected statements.
        assert_eq!(
            db.execute("SELECT v.eno FROM empl v").unwrap().rows.len(),
            1
        );
    }

    #[test]
    fn oversized_update_is_atomic_with_and_without_an_index() {
        // A row's one size limit is the page, the same with and without
        // an index on the column: past it, INSERT and UPDATE fail as a
        // constraint violation and nothing sticks; short of it, a value
        // far past the B+-tree key cap is stored and found through the
        // index like any other.
        for indexed in [true, false] {
            let mut db = Database::paged(8).unwrap();
            db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
            if indexed {
                db.execute("CREATE INDEX ON t (b)").unwrap();
            }
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
                .unwrap();
            let huge = "k".repeat(5000);
            for sql in [
                format!("UPDATE t SET b = '{huge}' WHERE a >= 2"),
                format!("INSERT INTO t VALUES (4, '{huge}')"),
            ] {
                let err = db.execute(&sql).unwrap_err();
                assert!(matches!(err, RqsError::ConstraintViolation(_)), "{err:?}");
                assert!(err.to_string().contains("page limit"), "{err}");
            }
            let sorted = |db: &Database| {
                let mut rows = db.query("SELECT v.a, v.b FROM t v").unwrap().rows;
                rows.sort();
                rows
            };
            let expected: Vec<Vec<Datum>> = [(1, "x"), (2, "y"), (3, "z")]
                .iter()
                .map(|&(a, b)| vec![Datum::Int(a), Datum::text(b)])
                .collect();
            assert_eq!(sorted(&db), expected, "indexed={indexed}");
            let long = "k".repeat(2000);
            db.execute(&format!("UPDATE t SET b = '{long}' WHERE a >= 2"))
                .unwrap();
            let r = db
                .query(&format!("SELECT v.a FROM t v WHERE v.b = '{long}'"))
                .unwrap();
            assert_eq!(r.rows.len(), 2, "indexed={indexed}");
        }
    }

    #[test]
    fn failed_update_is_atomic() {
        // The predicate matches several rows; one of the replacements
        // violates the CHECK. Nothing may stick.
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, CHECK (a BETWEEN 0 AND 100))")
            .unwrap();
        db.execute("CREATE INDEX ON t (a)").unwrap();
        db.execute("INSERT INTO t VALUES (10), (50), (90)").unwrap();
        assert!(db.execute("UPDATE t SET a = a + 20").is_err());
        let mut rows = db.execute("SELECT v.a FROM t v").unwrap().rows;
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Datum::Int(10)],
                vec![Datum::Int(50)],
                vec![Datum::Int(90)]
            ]
        );
        for k in [10i64, 50, 90] {
            assert_eq!(postings(&db, k), 1, "posting for {k} intact");
        }
    }

    #[test]
    fn indexed_update_and_delete_ride_the_index_on_paged() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        for i in 0..2000 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        let scan = db.execute("UPDATE t SET b = 'u1' WHERE a = 1234").unwrap();
        assert_eq!(scan.affected, 1);
        db.execute("CREATE INDEX ON t (a)").unwrap();
        let indexed = db.execute("UPDATE t SET b = 'u2' WHERE a = 1234").unwrap();
        assert_eq!(indexed.affected, 1);
        assert!(
            indexed.metrics.page_reads + indexed.metrics.buffer_hits
                < scan.metrics.page_reads + scan.metrics.buffer_hits,
            "indexed update touched {}+{} pages, full-scan update {}+{}",
            indexed.metrics.page_reads,
            indexed.metrics.buffer_hits,
            scan.metrics.page_reads,
            scan.metrics.buffer_hits,
        );
        // A ranged DELETE rides the index the same way.
        let removed = db
            .execute("DELETE FROM t WHERE a >= 100 AND a < 120")
            .unwrap();
        assert_eq!(removed.affected, 20);
        assert_eq!(
            db.execute("SELECT v.a FROM t v WHERE v.a >= 100 AND v.a < 120")
                .unwrap()
                .rows
                .len(),
            0
        );
    }

    #[test]
    fn large_update_exceeding_pool_succeeds_on_paged() {
        // A whole-table UPDATE wider than the buffer pool: with
        // steal/undo logging the statement's write set spills to disk,
        // and the 8-frame indexed database ends where a roomy unindexed
        // one does.
        let mut roomy = Database::new();
        let mut paged = Database::paged(8).unwrap();
        for (db, indexed) in [(&mut roomy, false), (&mut paged, true)] {
            db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
            if indexed {
                db.execute("CREATE INDEX ON t (a)").unwrap();
            }
            for i in 0..2000 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                    .unwrap();
            }
            let r = db.execute("UPDATE t SET b = 'rewritten'").unwrap();
            assert_eq!(r.affected, 2000, "{db:?}");
        }
        let sorted = |db: &Database| {
            let mut rows = db.query("SELECT v.a, v.b FROM t v").unwrap().rows;
            rows.sort();
            rows
        };
        assert_eq!(sorted(&roomy), sorted(&paged), "the databases must agree");
        assert_eq!(sorted(&paged).len(), 2000);
        for probe in [0i64, 999, 1999] {
            assert_eq!(
                paged
                    .query(&format!("SELECT v.b FROM t v WHERE v.a = {probe}"))
                    .unwrap()
                    .rows,
                vec![vec![Datum::text("rewritten")]],
                "index must survive the stolen rewrite"
            );
        }
        // And the session keeps working at full size afterwards.
        let r = paged
            .execute("UPDATE t SET b = 'again' WHERE a < 100")
            .unwrap();
        assert_eq!(r.affected, 100);
    }

    #[test]
    fn bare_delete_refuses_to_truncate_a_referenced_parent() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE dept (dno INT, PRIMARY KEY (dno))")
            .unwrap();
        db.execute(
            "CREATE TABLE empl (eno INT, dno INT, PRIMARY KEY (eno), \
             FOREIGN KEY (dno) REFERENCES dept (dno))",
        )
        .unwrap();
        db.execute("INSERT INTO dept VALUES (1), (2)").unwrap();
        db.execute("INSERT INTO empl VALUES (10, 1)").unwrap();
        // Truncating the parent would orphan empl(10, 1): refused,
        // with restrict semantics matching predicated DELETE.
        assert!(matches!(
            db.execute("DELETE FROM dept"),
            Err(RqsError::ConstraintViolation(_))
        ));
        assert_eq!(
            db.execute("SELECT v.dno FROM dept v").unwrap().rows.len(),
            2
        );
        // The child truncates freely; then the parent follows.
        assert_eq!(db.execute("DELETE FROM empl").unwrap().affected, 1);
        assert_eq!(db.execute("DELETE FROM dept").unwrap().affected, 2);
        // Self-referential tables truncate trivially (their own
        // rows vanish with the referenced keys).
        db.execute(
            "CREATE TABLE tree (id INT, parent INT, PRIMARY KEY (id), \
             FOREIGN KEY (parent) REFERENCES tree (id))",
        )
        .unwrap();
        // Self-rows need the unchecked bulk-load path (a row cannot
        // reference itself through the insert-time probe).
        db.insert_unchecked("tree", vec![Datum::Int(1), Datum::Int(1)])
            .unwrap();
        db.insert_unchecked("tree", vec![Datum::Int(2), Datum::Int(1)])
            .unwrap();
        db.validate_all().unwrap();
        assert_eq!(db.execute("DELETE FROM tree").unwrap().affected, 2);
    }

    #[test]
    fn dml_survives_paged_reopen() {
        let dir = std::env::temp_dir().join(format!("rqs-db-dml-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dml.rqs");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(storage::engine::wal_path(&path));
        {
            let mut db = Database::open_paged(&path, 8).unwrap();
            db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
            db.execute("CREATE INDEX ON t (a)").unwrap();
            // Padded rows spread `t` over several pages, so the point
            // read after reopen is an index read (a table no larger
            // than one probe is scanned instead).
            let pad = "v".repeat(200);
            for i in 0..100 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, '{pad}')"))
                    .unwrap();
            }
            db.execute("UPDATE t SET b = 'kept' WHERE a < 10").unwrap();
            db.execute("DELETE FROM t WHERE a >= 50").unwrap();
            // Crash, not flush: the DML must replay from the WAL.
            db.crash();
        }
        let db = Database::open_paged(&path, 8).unwrap();
        assert!(
            db.engine().heap_pages("t").unwrap() > 2,
            "reopen counts the heap chain"
        );
        let r = db.query("SELECT v.a FROM t v").unwrap();
        assert_eq!(r.rows.len(), 50);
        let r = db.query("SELECT v.a FROM t v WHERE v.b = 'kept'").unwrap();
        assert_eq!(r.rows.len(), 10);
        let r = db.query("SELECT v.b FROM t v WHERE v.a = 7").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::text("kept")]]);
        assert_eq!(r.metrics.rows_scanned, 1, "index survives the DML + reopen");
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(storage::engine::wal_path(&path));
    }

    /// DDL inside a session transaction rolls back with it, after an
    /// abort and after a commit that fails alike: the engine's catalog
    /// is the only schema registry, so no second record of the table
    /// outlives the transaction.
    #[test]
    fn ddl_in_an_aborted_session_transaction_leaves_no_trace() {
        let dir = std::env::temp_dir().join(format!("rqs-db-ddl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ddl.rqs");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(storage::engine::wal_path(&path));
        let fault = Fault::new();
        let mut db = Database::open_with_fault(&path, 8, fault.clone()).unwrap();
        db.execute("CREATE TABLE u (a INT)").unwrap();
        db.execute("INSERT INTO u VALUES (7)").unwrap();
        for ddl in ["CREATE TABLE t (a INT)", "DROP TABLE u"] {
            for failed_commit in [false, true] {
                let id = db.begin_session_txn().unwrap();
                db.resume_session_txn(id).unwrap();
                db.execute(ddl).unwrap();
                db.suspend_session_txn();
                if failed_commit {
                    fault.fail_after_writes(0);
                    assert!(db.commit_session_txn(id).is_err(), "{ddl}");
                    fault.heal();
                } else {
                    db.abort_session_txn(id);
                }
                let case = format!("{ddl}, failed commit: {failed_commit}");
                assert!(
                    matches!(
                        db.execute("SELECT v.a FROM t v"),
                        Err(RqsError::UnknownTable(_))
                    ),
                    "{case}"
                );
                let u = db.execute("SELECT v.a FROM u v").unwrap();
                assert_eq!(u.rows, vec![vec![Datum::Int(7)]], "{case}");
                db.execute("CREATE TABLE t (a INT)").unwrap();
                db.execute("DROP TABLE t").unwrap();
            }
        }
        drop(db);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(storage::engine::wal_path(&path));
    }

    #[test]
    fn execute_parsed_matches_execute_and_carries_the_parse_time() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let stmt = sql::parse_statement("INSERT INTO t VALUES (1), (2)").unwrap();
        let r = db.execute_parsed(stmt, 1234).unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(r.metrics.parse_nanos, 1234);
        assert!(r.metrics.elapsed_nanos >= 1234 + r.metrics.exec_nanos);
        let parse = &db.last_statement_trace().spans[0];
        assert_eq!((parse.name, parse.nanos), ("parse", 1234));
        let Statement::Select(select) = sql::parse_statement("SELECT v.a FROM t v").unwrap() else {
            panic!("not a select");
        };
        let (q, trace) = db.query_select(&select, 77);
        let q = q.unwrap();
        assert_eq!(q.rows, db.query("SELECT v.a FROM t v").unwrap().rows);
        assert_eq!(q.metrics.parse_nanos, 77);
        assert_eq!(trace.elapsed_nanos, q.metrics.elapsed_nanos);
        assert_eq!((trace.spans[0].name, trace.spans[0].nanos), ("parse", 77));
    }

    #[test]
    fn query_is_read_only() {
        let db = Database::new();
        assert!(db.query("CREATE TABLE t (a INT)").is_err());
    }

    #[test]
    fn constraints_flow_through_sql() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, mgr INT, PRIMARY KEY (dno))")
            .unwrap();
        db.execute(
            "CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT,
             PRIMARY KEY (eno),
             CHECK (sal BETWEEN 10000 AND 90000),
             FOREIGN KEY (dno) REFERENCES dept (dno))",
        )
        .unwrap();
        db.execute("INSERT INTO dept VALUES (10, 'hq', 1)").unwrap();
        db.execute("INSERT INTO empl VALUES (1, 'smiley', 50000, 10)")
            .unwrap();
        // Salary bound violation.
        assert!(db
            .execute("INSERT INTO empl VALUES (2, 'poor', 5000, 10)")
            .is_err());
        // Key violation.
        assert!(db
            .execute("INSERT INTO empl VALUES (1, 'dup', 50000, 10)")
            .is_err());
        // FK violation.
        assert!(db
            .execute("INSERT INTO empl VALUES (3, 'lost', 50000, 99)")
            .is_err());
    }

    #[test]
    fn explain_renders_plan() {
        let mut db = Database::new();
        db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
            .unwrap();
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, mgr INT)")
            .unwrap();
        let text = db
            .explain("SELECT v1.nam FROM empl v1, dept v2 WHERE v1.dno = v2.dno")
            .unwrap();
        assert!(text.contains("HashJoin"));
        assert!(db.explain("DROP TABLE empl").is_err());
    }

    #[test]
    fn explain_union() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let text = db
            .explain("SELECT v.a FROM t v UNION SELECT w.a FROM t w")
            .unwrap();
        assert!(text.contains("UNION"));
    }

    #[test]
    fn paged_database_counts_page_io() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        for i in 0..2000 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        let r = db
            .execute("SELECT v.a FROM t v WHERE v.b = 'row999'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(999)]]);
        assert!(
            r.metrics.page_reads > 0,
            "full scan larger than the pool must fault pages: {:?}",
            r.metrics
        );
    }

    #[test]
    fn paged_index_point_lookup_reads_fewer_pages_than_scan() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        for i in 0..2000 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        let scan = db.execute("SELECT v.b FROM t v WHERE v.a = 1234").unwrap();
        db.execute("CREATE INDEX ON t (a)").unwrap();
        let indexed = db.execute("SELECT v.b FROM t v WHERE v.a = 1234").unwrap();
        assert_eq!(scan.rows, indexed.rows);
        assert!(
            indexed.metrics.page_reads < scan.metrics.page_reads,
            "indexed lookup read {} pages, scan {}",
            indexed.metrics.page_reads,
            scan.metrics.page_reads
        );
        assert_eq!(indexed.metrics.rows_scanned, 1);
    }

    #[test]
    fn paged_range_scan_reads_fewer_pages_than_full_scan() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        for i in 0..2000 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        let q = "SELECT v.b FROM t v WHERE v.a >= 100 AND v.a < 120";
        let scan = db.execute(q).unwrap();
        db.execute("CREATE INDEX ON t (a)").unwrap();
        let ranged = db.execute(q).unwrap();
        assert_eq!(scan.rows, ranged.rows);
        assert_eq!(ranged.rows.len(), 20);
        assert_eq!(
            ranged.metrics.rows_scanned, 20,
            "range cursor must touch only the matching keys"
        );
        assert!(
            ranged.metrics.page_reads < scan.metrics.page_reads,
            "range read {} pages, full scan {}",
            ranged.metrics.page_reads,
            scan.metrics.page_reads
        );
        // One-sided and contradictory ranges behave too.
        let r = db.execute("SELECT v.b FROM t v WHERE v.a > 1997").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = db
            .execute("SELECT v.b FROM t v WHERE v.a > 10 AND v.a < 5")
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn range_restrictions_agree_with_and_without_the_index() {
        let queries = [
            "SELECT v.a FROM t v WHERE v.a < 7",
            "SELECT v.a FROM t v WHERE v.a >= 3 AND v.a <= 12",
            "SELECT v.a FROM t v WHERE v.a > 3 AND v.a < 4",
            "SELECT v.a FROM t v WHERE v.a > 18 AND v.b = 'x19'",
            "SELECT v.a FROM t v WHERE v.a >= 5 AND v.a >= 9 AND v.a < 11",
        ];
        // Padded rows spread `t` over enough pages that the restrictions
        // on `a` ride the index once it exists.
        let pad = "p".repeat(800);
        let mut results: Vec<Vec<QueryResult>> = Vec::new();
        for indexed in [false, true] {
            let mut db = Database::paged(8).unwrap();
            db.execute("CREATE TABLE t (a INT, b TEXT, c TEXT)")
                .unwrap();
            for i in 0..20 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}', '{pad}')"))
                    .unwrap();
            }
            if indexed {
                db.execute("CREATE INDEX ON t (a)").unwrap();
                assert!(db.explain(queries[1]).unwrap().contains("IndexRange"));
            }
            results.push(queries.iter().map(|q| db.execute(q).unwrap()).collect());
        }
        for (q, (scanned, indexed)) in queries.iter().zip(results[0].iter().zip(&results[1])) {
            assert_eq!(
                scanned.rows, indexed.rows,
                "the index changed the answer to {q}"
            );
        }
    }

    #[test]
    fn dml_reports_wal_cost_queries_do_not() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let r = db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        assert!(
            r.metrics.wal_appends >= 3,
            "multi-row insert must log begin+image(s)+commit: {:?}",
            r.metrics
        );
        assert!(r.metrics.wal_bytes > 0);
        let q = db.execute("SELECT v.a FROM t v").unwrap();
        assert_eq!((q.metrics.wal_appends, q.metrics.wal_bytes), (0, 0));
    }

    #[test]
    fn failed_multi_row_insert_is_atomic() {
        // The third row violates the CHECK (and then a PK probe): the
        // whole statement rolls back — the first two rows must not
        // survive, and neither may their postings.
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, PRIMARY KEY (a), CHECK (a BETWEEN 0 AND 10))")
            .unwrap();
        db.execute("CREATE INDEX ON t (a)").unwrap();
        assert!(db.execute("INSERT INTO t VALUES (1), (2), (99)").is_err());
        assert!(db.execute("INSERT INTO t VALUES (3), (4), (3)").is_err());
        let rows = db.execute("SELECT v.a FROM t v").unwrap().rows;
        assert!(rows.is_empty(), "partial statement must not survive");
        for k in [1i64, 2, 3, 4] {
            assert_eq!(
                postings(&db, k),
                0,
                "rolled-back posting for {k} must be gone"
            );
        }
        // The statement after a rollback works normally.
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        assert_eq!(db.execute("SELECT v.a FROM t v").unwrap().rows.len(), 2);
    }

    #[test]
    fn open_paged_reboots_catalog_from_file() {
        let dir = std::env::temp_dir().join(format!("rqs-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.rqs");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(storage::engine::wal_path(&path));
        {
            let mut db = Database::open_paged(&path, 8).unwrap();
            db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
                .unwrap();
            db.execute("CREATE INDEX ON empl (nam)").unwrap();
            for i in 0..300 {
                db.execute(&format!("INSERT INTO empl VALUES ({i}, 'e{i}', 20000, 1)"))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let db = Database::open_paged(&path, 8).unwrap();
        assert!(db.engine().has_table("empl"));
        let r = db
            .query("SELECT v.eno FROM empl v WHERE v.nam = 'e250'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(250)]]);
        assert_eq!(r.metrics.rows_scanned, 1, "index must survive reopen");
        let r = db.query("SELECT v.eno FROM empl v").unwrap();
        assert_eq!(r.rows.len(), 300);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(storage::engine::wal_path(&path));
    }

    #[test]
    fn unchecked_insert_and_validate_all_flow() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (a INT, PRIMARY KEY (a), CHECK (a BETWEEN 0 AND 10))")
            .unwrap();
        db.insert_unchecked("t", vec![Datum::Int(3)]).unwrap();
        db.insert_unchecked("t", vec![Datum::Int(3)]).unwrap();
        assert!(matches!(
            db.validate_all(),
            Err(RqsError::ConstraintViolation(_))
        ));
        // Type errors are still caught eagerly.
        assert!(db.insert_unchecked("t", vec![Datum::text("x")]).is_err());
    }
}

#[cfg(test)]
mod explain_statement_tests {
    use super::*;

    #[test]
    fn explain_statement_returns_plan_rows() {
        let mut db = Database::new();
        db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
            .unwrap();
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, mgr INT)")
            .unwrap();
        let r = db
            .execute("EXPLAIN SELECT v1.nam FROM empl v1, dept v2 WHERE v1.dno = v2.dno")
            .unwrap();
        assert_eq!(r.columns, ["plan"]);
        let text: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert!(text.iter().any(|l| l.contains("HashJoin")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("Scan")), "{text:?}");
    }

    #[test]
    fn explain_requires_select() {
        let mut db = Database::new();
        assert!(db.execute("EXPLAIN DROP TABLE t").is_err());
    }
}
