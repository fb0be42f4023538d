//! A miniature relational query system (RQS), reachable through SQL.
//!
//! The 1984 paper couples its Prolog front-end to "a relational DBMS
//! accessible through SQL" and deliberately treats it as an independent
//! black box. This crate is that black box, built from scratch:
//!
//! * a [`catalog`] of tables with typed columns, tuple storage and
//!   secondary indexes;
//! * enforcement of the three integrity-constraint families the paper
//!   relies on (value bounds, keys/functional dependencies, foreign keys);
//! * a [`sql`] front: lexer, parser and AST for the conjunctive
//!   `SELECT … FROM … WHERE` dialect the front-end generates, plus
//!   `CREATE TABLE`, `INSERT`, `UNION`, and `NOT IN` subqueries;
//! * a [`plan`]ner that orders joins greedily and pushes restrictions down
//!   to scans (the paper leaves goal-reordering optimization "to the
//!   existing query processor of the DBMS" — this is it);
//! * an [`exec`]utor with two methods for an equijoin — probe the new
//!   variable's index once per left row when that reads fewer pages than
//!   scanning its table (decided per step, from the left side's actual
//!   row count and the table's heap pages), else stream the table past
//!   a hash of the left rows — and nested loops for inequality joins;
//!   once a step leaves no rows, the rest read nothing. Instrumented with
//!   [`exec::QueryMetrics`] so the benefit of front-end simplification
//!   is measurable.
//!
//! # Storage architecture
//!
//! Rows live in one store, [`PagedBackend`] — the `storage` crate's
//! engine; the [`Catalog`] holds only schemas and constraints, and the
//! planner/executor read rows through a [`backend::Snapshot`] pairing
//! the two. [`Database::new`], [`Database::paged`] and
//! [`Database::open_paged`] differ only in pool size and pager: tuples
//! are serialized onto fixed-size (4 KiB) slotted heap pages, fetched
//! through a pinned/unpinned buffer pool with clock eviction over an
//! in-memory or file-backed pager; secondary indexes are B+-trees keyed
//! on [`Datum`] (a text longer than a key is stored as its prefix and
//! every row read through it re-checked, so an index never narrows what
//! a column accepts); the schema and integrity constraints persist as
//! rows of four bootstrap heaps (`system_tables`, `system_columns`,
//! `system_indexes`, `system_constraints`) at fixed page ids, from which
//! [`Database::open_paged`] rebuilds the catalog on reopen; and every
//! mutating SQL statement commits through a write-ahead log, so
//! committed statements survive crashes ([`Database::open_paged`]
//! replays the log before bootstrapping) and failed statements roll back
//! completely — heap rows, index postings and catalog mutations alike.
//! [`Database::new`] is this engine over in-memory pages with a pool
//! large enough that small databases never evict.
//!
//! Every scan and index lookup goes through the buffer pool, so
//! [`exec::QueryMetrics::page_reads`] and
//! [`exec::QueryMetrics::buffer_hits`] report real page traffic — the
//! paper's actual cost model — and DML statements additionally report
//! [`exec::QueryMetrics::wal_appends`]/[`exec::QueryMetrics::wal_bytes`],
//! the price of durability. An index changes only what a statement
//! costs, never what it answers: `tests/backend_differential.rs` runs
//! every statement on a database with its indexes and on one without.
//! The engine supports any number of open session-scoped transactions
//! (one active at a time), which is what the `server` crate builds its
//! concurrent shared-database sessions on — isolation between them is
//! the engine's MVCC write-conflict checks plus this crate's
//! constraint-probe reads.
//!
//! Crucially, this crate depends on nothing else in the workspace above
//! the storage layer: the only connection between front-end and DBMS is
//! SQL text, exactly as in the paper.
//!
//! ```
//! use rqs::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)").unwrap();
//! db.execute("INSERT INTO empl VALUES (1, 'smiley', 50000, 10)").unwrap();
//! db.execute("INSERT INTO empl VALUES (2, 'jones', 30000, 10)").unwrap();
//! let result = db.execute("SELECT v1.nam FROM empl v1 WHERE v1.sal < 40000").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.rows[0][0].to_string(), "'jones'");
//! ```

pub mod backend;
pub mod catalog;
pub mod database;
pub mod dml;
pub mod error;
pub mod exec;
pub mod plan;
pub mod sql;
pub mod value;

pub use backend::{AccessPath, PagedBackend, Snapshot, TableSize};
pub use catalog::{Catalog, Column, ColumnType, Table, TableConstraint};
pub use database::{Database, QueryResult, Trace, TraceSpan};
pub use error::{RqsError, RqsResult};
pub use exec::QueryMetrics;
pub use value::Datum;
