//! The data repository (Figure 1, component 5).
//!
//! Stores per-task runhistory and workload meta-features, shared between
//! concurrently tuned tasks (hence the lock). It lives in memory: a job
//! engine campaign's durable runhistory is its journal, and the durable
//! fleet-wide history is the `TuningCorpus`.

use otune_bo::Observation;
use otune_meta::TaskRecord;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Thread-safe store of tuning history across tasks.
#[derive(Debug, Default)]
pub struct DataRepository {
    tasks: RwLock<BTreeMap<String, TaskRecord>>,
}

impl DataRepository {
    /// An empty repository.
    pub fn new() -> Self {
        DataRepository::default()
    }

    /// Number of tasks with stored history.
    pub fn len(&self) -> usize {
        self.tasks.read().len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an observation to a task's runhistory (creating the task
    /// record if needed).
    pub fn record_observation(&self, task_id: &str, obs: Observation) {
        let mut tasks = self.tasks.write();
        let rec = tasks
            .entry(task_id.to_string())
            .or_insert_with(|| TaskRecord {
                task_id: task_id.to_string(),
                meta_features: Vec::new(),
                observations: Vec::new(),
            });
        rec.observations.push(obs);
    }

    /// Set (or update) a task's meta-features.
    pub fn set_meta_features(&self, task_id: &str, features: Vec<f64>) {
        let mut tasks = self.tasks.write();
        let rec = tasks
            .entry(task_id.to_string())
            .or_insert_with(|| TaskRecord {
                task_id: task_id.to_string(),
                meta_features: Vec::new(),
                observations: Vec::new(),
            });
        rec.meta_features = features;
    }

    /// A task's full record, if present.
    pub fn task(&self, task_id: &str) -> Option<TaskRecord> {
        self.tasks.read().get(task_id).cloned()
    }

    /// A task's meta-features alone (`None` when unset or empty) —
    /// cheaper than [`DataRepository::task`], which clones the full
    /// observation history.
    pub fn meta_features(&self, task_id: &str) -> Option<Vec<f64>> {
        self.tasks
            .read()
            .get(task_id)
            .filter(|t| !t.meta_features.is_empty())
            .map(|t| t.meta_features.clone())
    }

    /// All task records except `exclude` (the task being tuned), restricted
    /// to tasks that have both meta-features and history — the usable
    /// meta-learning sources.
    pub fn source_tasks(&self, exclude: &str) -> Vec<TaskRecord> {
        self.tasks
            .read()
            .values()
            .filter(|t| {
                t.task_id != exclude && !t.meta_features.is_empty() && t.observations.len() >= 3
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{Configuration, ParamValue};

    fn obs(v: f64) -> Observation {
        Observation {
            failed: false,
            config: Configuration::new(vec![ParamValue::Int(v as i64)]),
            objective: v,
            runtime: v,
            resource: 1.0,
            context: vec![],
        }
    }

    #[test]
    fn records_accumulate() {
        let repo = DataRepository::new();
        assert!(repo.is_empty());
        repo.record_observation("a", obs(1.0));
        repo.record_observation("a", obs(2.0));
        repo.record_observation("b", obs(3.0));
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.task("a").unwrap().observations.len(), 2);
        assert!(repo.task("zzz").is_none());
    }

    #[test]
    fn source_tasks_filter() {
        let repo = DataRepository::new();
        for i in 0..4 {
            repo.record_observation("full", obs(i as f64));
            repo.record_observation("nometa", obs(i as f64));
        }
        repo.set_meta_features("full", vec![1.0]);
        repo.record_observation("short", obs(0.0));
        repo.set_meta_features("short", vec![1.0]);

        let sources = repo.source_tasks("other");
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].task_id, "full");
        // The tuned task itself is excluded.
        assert!(repo.source_tasks("full").is_empty());
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let repo = Arc::new(DataRepository::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let repo = Arc::clone(&repo);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        repo.record_observation(&format!("task-{t}"), obs(i as f64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(repo.len(), 4);
        for t in 0..4 {
            assert_eq!(
                repo.task(&format!("task-{t}")).unwrap().observations.len(),
                50
            );
        }
    }
}
