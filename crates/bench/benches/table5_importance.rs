//! Table 5: top-10 Spark parameters by fANOVA importance, averaged over
//! tasks (mean ± std across the HiBench tasks).
//!
//! Paper reference (mean ± std): executor.instances 0.3788 ± 0.1965,
//! executor.memory 0.1501 ± 0.1365, memory.storageFraction 0.0469,
//! default.parallelism 0.0366, memory.fraction 0.0345, executor.cores
//! 0.0236, io.compression.codec 0.0199, shuffle.file.buffer 0.0146,
//! shuffle.compress 0.0138, serializer 0.0083.

use otune_bench::{write_csv, Table};
use otune_forest::Fanova;
use otune_pool::Pool;
use otune_space::{spark_param_names, spark_space, ClusterScale};
use otune_sparksim::ProductionTaskGenerator;

/// Paper's Table 5 reference scores by parameter name.
const PAPER: [(&str, f64); 10] = [
    ("spark.executor.instances", 0.3788),
    ("spark.executor.memory", 0.1501),
    ("spark.memory.storageFraction", 0.0469),
    ("spark.default.parallelism", 0.0366),
    ("spark.memory.fraction", 0.0345),
    ("spark.executor.cores", 0.0236),
    ("spark.io.compression.codec", 0.0199),
    ("spark.shuffle.file.buffer", 0.0146),
    ("spark.shuffle.compress", 0.0138),
    ("spark.serializer", 0.0083),
];

fn main() {
    // §4.1: "we can get the importance score of parameters based on its
    // tuning history for each task and obtain the final importance scores
    // by averaging the scores from those tasks." Tuning histories matter:
    // a tuner quickly abandons catastrophic regions (e.g. tiny
    // parallelism), so importance reflects the configurations a tuned
    // service actually visits — the production space, where executor
    // grants are rarely capped.
    let space = spark_space(ClusterScale::production());
    let n_tasks: usize = std::env::var("OTUNE_T5_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let budget: usize = 25;
    let n_extra: usize = 150; // space-filling samples pooled with history
    let tasks = ProductionTaskGenerator::new(555).generate(n_tasks);

    // Per-task histories (cost objective, production protocol) padded with
    // space-filling evaluations: 25 tuned observations alone are too few
    // for a stable 30-dimensional decomposition. fANOVA runs on the log
    // objective — raw costs would let spill blow-ups own all variance.
    let pool = Pool::from_env();
    let histories = pool.map(&tasks, |_, task| {
        let mut history = otune_bench::experiments::production_history(task, budget, 42 + task.id);
        let job = task.job();
        let probes = space.low_discrepancy(n_extra, 7 + task.id);
        for (i, cfg) in probes.into_iter().enumerate() {
            let r = job.run(&cfg, 10_000 + i as u64);
            history.push(otune_bo::Observation {
                failed: false,
                config: cfg,
                objective: otune_core::Objective::cost().eval(r.runtime_s, r.resource),
                runtime: r.runtime_s,
                resource: r.resource,
                context: vec![1.0],
            });
        }
        history
    });
    let mut per_task: Vec<Vec<f64>> = Vec::new();
    for (ti, history) in histories.iter().enumerate() {
        let x: Vec<Vec<f64>> = history.iter().map(|o| space.encode(&o.config)).collect();
        let y: Vec<f64> = history.iter().map(|o| o.objective.max(1e-9).ln()).collect();
        if let Ok(f) = Fanova::fit(&x, &y, 7 + ti as u64, &pool) {
            per_task.push(f.importance());
        }
    }

    // Mean ± std across tasks.
    let d = space.len();
    let mut mean_imp = vec![0.0; d];
    let mut std_imp = vec![0.0; d];
    for p in 0..d {
        let vals: Vec<f64> = per_task.iter().map(|v| v[p]).collect();
        mean_imp[p] = otune_bench::mean(&vals);
        let var = vals
            .iter()
            .map(|v| (v - mean_imp[p]) * (v - mean_imp[p]))
            .sum::<f64>()
            / vals.len() as f64;
        std_imp[p] = var.sqrt();
    }
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| mean_imp[b].partial_cmp(&mean_imp[a]).unwrap());

    let mut table = Table::new(
        "Table 5 — Top-10 Spark parameters by fANOVA importance",
        &[
            "#",
            "parameter",
            "importance (mean ± std)",
            "paper rank",
            "paper score",
        ],
    );
    for (rank, &p) in order.iter().take(10).enumerate() {
        let name = spark_param_names()[p];
        let paper_rank = PAPER
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| format!("{}", i + 1))
            .unwrap_or_else(|| "-".into());
        let paper_score = PAPER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| format!("{s:.4}"))
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            format!("{}", rank + 1),
            name.to_string(),
            format!("{:.4} ± {:.4}", mean_imp[p], std_imp[p]),
            paper_rank,
            paper_score,
        ]);
    }
    table.print();
    let top1 = spark_param_names()[order[0]];
    println!("\nmeasured top parameter: {top1}");
    println!("paper:    spark.executor.instances dominates (0.3788 ± 0.1965)");
    let p = write_csv("table5_importance.csv", &table);
    println!("csv: {}", p.display());
}
