//! Syntactic and semantic DBCL query simplification (§6 of the paper).
//!
//! "Direct view translation tends to carry a large overhead of superfluous
//! operations. Our mechanism does not rely on the database system but
//! applies syntactic and semantic query simplification techniques within
//! DBCL to remove such inefficiencies."
//!
//! The crate implements each §6 technique as its own module and ties them
//! together with the paper's Algorithm 2:
//!
//! | §     | technique                                         | module |
//! |-------|---------------------------------------------------|--------|
//! | 6.1   | value bounds → contradictions / redundant comps   | [`bounds`] |
//! | 6.1   | inequality-graph simplification (Rosenkrantz–Hunt)| [`ineq`] |
//! | 6.2   | FD chase with duplicate-row removal (fast chase)  | [`chase`] |
//! | 6.3   | Algorithm 1: derived referential constraints      | [`refint`] |
//! | 6.3   | recursive dangling-row deletion                   | [`refint`] |
//! | 6.0/4 | syntactic tableau minimization (Sagiv)            | [`minimize`] |
//! | 6.4   | Algorithm 2: the simplification driver            | [`driver`] |
//!
//! # Set semantics
//!
//! The rewrites preserve a query's *set* of answers, not how often the
//! SQL returns each one. Minimization folds a row onto another, so a
//! self-join that multiplied answers stops doing so; dangling-row
//! deletion drops a join whose referenced columns need not be a key; and
//! the chase's duplicate-row deletion counts on stored relations holding
//! no duplicate tuples. They are sound only for set answers, and the
//! coupler supplies those: it deduplicates once, where it unions a view's
//! branches. Thorne, "Chases and Bag-Set Certain Answers" (PAPERS.md),
//! studies what the chase preserves when multiplicity does count.
//!
//! ```
//! use dbcl::{ConstraintSet, DatabaseDef, DbclQuery};
//! use optimizer::{Simplifier, SimplifyOutcome};
//!
//! let db = DatabaseDef::empdep();
//! let cs = ConstraintSet::empdep();
//! let simplifier = Simplifier::new(&db, &cs);
//! // Example 6-2: the 6-row same_manager query shrinks to 2 rows.
//! match simplifier.simplify(DbclQuery::example_4_1()) {
//!     SimplifyOutcome::Simplified(q, stats) => {
//!         assert_eq!(q.rows.len(), 2);
//!         assert!(stats.rows_removed() >= 4);
//!     }
//!     SimplifyOutcome::Empty(reason) => panic!("unexpectedly empty: {reason}"),
//! }
//! ```

pub mod bounds;
pub mod chase;
pub mod driver;
pub mod ineq;
pub mod minimize;
pub mod refint;
pub mod uf;

pub use driver::{EmptyReason, Simplifier, SimplifyConfig, SimplifyOutcome, SimplifyStats};
