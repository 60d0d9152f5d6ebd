//! # gpl-sql — a SQL front-end for the GPL engine
//!
//! Compiles an analytical SQL subset (star/snowflake equi-joins with
//! filters, `GROUP BY`, `SUM`/`COUNT`/`MIN`/`MAX`, `ORDER BY`, `LIMIT`;
//! see [`planner`]) into the segmented [`gpl_core::QueryPlan`]s the GPL
//! pipelined executor runs, binding string literals through the column
//! dictionaries and composing composite join keys arithmetically. The
//! Selinger-style join-order optimizer from `gpl-model` can then reorder
//! the compiled probe pipeline.
//!
//! ```
//! use gpl_sql::compile;
//! use gpl_tpch::TpchDb;
//!
//! let db = TpchDb::at_scale(0.001);
//! let plan = compile(
//!     &db,
//!     "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
//!      FROM lineitem WHERE l_shipdate <= DATE '1998-11-01'",
//! )
//! .unwrap();
//! assert_eq!(plan.output_columns, vec!["revenue"]);
//! ```

pub mod ast;
pub mod catalog;
pub mod corpus;
pub mod gen;
mod infer;
pub mod parser;
pub mod planner;
#[cfg(test)]
mod tests;
pub mod token;

pub use corpus::sql_for;
pub use gen::{random_query, random_workload};
pub use parser::parse;
pub use planner::{compile, compile_traced};
pub use token::SqlError;

use gpl_core::{run_query, ExecContext, ExecMode, QueryConfig, QueryRun};

/// Compile with join-order optimization applied, returning the plan with
/// the statistics of its one sampled evaluation — what every planner from
/// SQL text goes on to feed `gpl_model::build_models`.
pub fn compile_with_stats(
    db: &gpl_tpch::TpchDb,
    sql: &str,
) -> Result<(gpl_core::QueryPlan, gpl_model::PlanStats), SqlError> {
    let plan = compile(db, sql)?;
    Ok(gpl_model::optimize_with_stats(db, &plan))
}

/// Compile with join-order optimization applied.
pub fn compile_optimized(
    db: &gpl_tpch::TpchDb,
    sql: &str,
) -> Result<gpl_core::QueryPlan, SqlError> {
    compile_with_stats(db, sql).map(|(plan, _)| plan)
}

/// Compile and execute in one call, with the default configuration.
pub fn run_sql(ctx: &mut ExecContext, sql: &str, mode: ExecMode) -> Result<QueryRun, SqlError> {
    let plan = compile_optimized(&ctx.db, sql)?;
    let cfg = QueryConfig::default_for(&ctx.spec(), &plan);
    Ok(run_query(ctx, &plan, mode, &cfg))
}
