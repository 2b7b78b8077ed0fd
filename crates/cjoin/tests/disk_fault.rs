//! The CJOIN preprocessor's fact scan on a disk-resident pool, where it
//! reads runs of pages ahead, with the `disk.read` failpoint armed: a
//! failed run aborts the active queries with a typed error, and the
//! pipeline serves the next admission oracle-exact.
//!
//! The failpoint registry is process-global; this file is its own test
//! binary so no other test's reads can draw the armed fault.

use qs_cjoin::{CjoinPipeline, DimSpec, PipelineSpec};
use qs_engine::reference::{assert_rows_match, eval};
use qs_engine::{BatchSource, CoreGovernor, EngineError, ExecCtx, Metrics};
use qs_plan::{Expr, PlanBuilder, StarQuery};
use qs_storage::{
    fault, BufferPool, BufferPoolConfig, Catalog, DataType, DiskConfig, DiskModel, Schema,
    TableBuilder, Value,
};
use std::sync::Arc;
use std::time::Duration;

/// fact(f_d1, val) with 40 pages of 5 rows, and dim d1(k, a).
fn catalog() -> Arc<Catalog> {
    let cat = Catalog::new();
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Int)]);
    let mut b = TableBuilder::with_page_bytes("d1", schema, 64);
    for k in 0..8i64 {
        b.push_values(&[Value::Int(k), Value::Int(k % 3)]).unwrap();
    }
    cat.register(b);
    let fact = Schema::from_pairs(&[("f_d1", DataType::Int), ("val", DataType::Int)]);
    let mut b = TableBuilder::with_page_bytes("fact", fact, 80); // 5 rows/page
    for i in 0..200i64 {
        b.push_values(&[Value::Int(i % 10), Value::Int(i)]).unwrap();
    }
    cat.register(b);
    cat
}

fn drain(mut r: Box<dyn BatchSource>) -> Result<Vec<Vec<Value>>, EngineError> {
    let mut out = Vec::new();
    while let Some(b) = r.next_batch()? {
        for t in 0..b.len() {
            out.push(b.page().row(b.sel()[t] as usize).values());
        }
    }
    Ok(out)
}

#[test]
fn failed_fact_run_aborts_the_active_set_and_the_pipeline_serves_on() {
    let _g = fault::test_guard();
    fault::disarm();
    let cat = catalog();
    assert_eq!(cat.get("fact").unwrap().page_count(), 40);
    // Four spindles and a pool smaller than the fact table: the scan
    // reads runs of four pages and keeps reaching the disk.
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(12),
        Arc::new(DiskModel::new(DiskConfig {
            spindles: 4,
            latency: Duration::from_micros(100),
        })),
    ));
    assert_eq!(pool.read_ahead_depth(), 4);
    let metrics = Metrics::new();
    let ctx = Arc::new(ExecCtx {
        pool: pool.clone(),
        governor: CoreGovernor::new(0, metrics.clone()),
        workers: qs_engine::WorkerPool::new(1, metrics.clone()),
        metrics,
        out_page_bytes: 256,
    });
    let spec = PipelineSpec {
        max_queries: 4,
        channel_depth: 2,
        out_page_bytes: 256,
        ..PipelineSpec::new(
            "fact",
            vec![DimSpec {
                table: "d1".into(),
                fact_key: 0,
                dim_key: 0,
            }],
        )
    };
    let pipe = CjoinPipeline::new(ctx, &cat, &spec).unwrap();
    let plan = PlanBuilder::scan(&cat, "fact")
        .unwrap()
        .join_dim("d1", "f_d1", "k", Some(Expr::eq(1, 1i64)))
        .unwrap()
        .build()
        .unwrap();
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let expected = eval(&plan, &cat).unwrap();
    assert!(!expected.is_empty());

    // The first fact run (pages 0..4, all cold) passes the failpoint for
    // its first page and fails on its second.
    fault::arm(
        7,
        &[(
            "disk.read",
            fault::FaultSpec {
                prob: 1.0,
                after: 1,
            },
        )],
    );
    let victim = pipe.admit(&star).unwrap();
    match drain(victim.reader) {
        Err(EngineError::Aborted(msg)) => {
            assert!(msg.contains("fact page 0 unreadable"), "typed cause: {msg}")
        }
        other => panic!("the active query should abort on the failed run, got {other:?}"),
    }
    fault::disarm();

    // The pipeline lives: two fresh admissions complete oracle-exact,
    // re-reading the pages whose loads the failed run released.
    let a = pipe.admit(&star).unwrap();
    let b = pipe.admit(&star).unwrap();
    assert_rows_match(drain(a.reader).unwrap(), expected.clone(), 0.0);
    assert_rows_match(drain(b.reader).unwrap(), expected, 0.0);
    assert!(
        pool.disk().stats().reads >= 40,
        "the fact table was read from disk"
    );
    let stats = pipe.stats();
    assert_eq!(stats.admissions, 3);
    assert_eq!(stats.completions, 2);
}
