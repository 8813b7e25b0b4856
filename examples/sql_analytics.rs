//! The §6.6 SQL comparison (Table 6): Spark RDD rows vs a Spark SQL-style
//! columnar store vs Deca decomposed rows, on the two exploratory queries.
//! Each query is a job that caches its table and then queries it; the
//! times shown are the query stage's, as Table 6 reports them.
//!
//! Run with: `cargo run --release --example sql_analytics`

use deca_apps::run_job_on;
use deca_apps::sql::{job, sql_config, SqlParams, SqlQuery, SqlSystem};
use deca_engine::ClusterSession;

fn main() {
    let base = SqlParams::small(SqlSystem::Spark);
    println!(
        "rankings: {} rows   uservisits: {} rows ({} groups)",
        base.rankings_rows, base.uservisits_rows, base.groups
    );

    for (query, sql) in [
        (SqlQuery::Filter, "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100"),
        (
            SqlQuery::GroupBy,
            "SELECT SUBSTR(sourceIP,1,5), SUM(adRevenue) FROM uservisits GROUP BY ...",
        ),
    ] {
        println!("\n{}  {sql}", query.name());
        for system in SqlSystem::ALL {
            let p = SqlParams { system, ..base.clone() };
            let mut session = ClusterSession::new(1, sql_config(&p));
            let (_, cache_bytes) = run_job_on(&job(&p, query), &mut session).expect("query runs");
            let stage = session.stage(query.stage()).expect("the query stage ran");
            println!(
                "  {:<10} exec={:>8.2}ms gc={:>7.2}ms cache={:>7.2}MB",
                system.name(),
                stage.exec.as_secs_f64() * 1e3,
                stage.gc.as_secs_f64() * 1e3,
                cache_bytes as f64 / (1 << 20) as f64
            );
        }
    }
}
