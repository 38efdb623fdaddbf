//! The data repository (Figure 1, component 5).
//!
//! Stores each task's workload meta-features, shared between concurrently
//! tuned tasks (hence the lock). A task's runhistory is not copied here:
//! its tuner is the one record of every run, and the controller exports
//! meta-learning sources from the tuners. The repository lives in memory:
//! a job engine campaign's durable runhistory is its journal, and the
//! durable fleet-wide history is the `TuningCorpus`.

use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Thread-safe store of per-task meta-features.
#[derive(Debug, Default)]
pub struct DataRepository {
    features: RwLock<BTreeMap<String, Vec<f64>>>,
}

impl DataRepository {
    /// An empty repository.
    pub fn new() -> Self {
        DataRepository::default()
    }

    /// Set (or update) a task's meta-features.
    pub fn set_meta_features(&self, task_id: &str, features: Vec<f64>) {
        self.features.write().insert(task_id.to_string(), features);
    }

    /// A task's meta-features (`None` when unset or empty).
    pub fn meta_features(&self, task_id: &str) -> Option<Vec<f64>> {
        self.features
            .read()
            .get(task_id)
            .filter(|f| !f.is_empty())
            .cloned()
    }

    /// The ids of every task with non-empty meta-features, in task-id
    /// order.
    pub fn featured_tasks(&self) -> Vec<String> {
        self.features
            .read()
            .iter()
            .filter(|(_, f)| !f.is_empty())
            .map(|(id, _)| id.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_features_are_stored_per_task_in_id_order() {
        let repo = DataRepository::new();
        assert!(repo.featured_tasks().is_empty());
        repo.set_meta_features("b", vec![2.0]);
        repo.set_meta_features("a", vec![1.0]);
        repo.set_meta_features("empty", Vec::new());
        assert_eq!(repo.featured_tasks(), vec!["a", "b"]);
        assert_eq!(repo.meta_features("a"), Some(vec![1.0]));
        assert_eq!(repo.meta_features("empty"), None);
        assert_eq!(repo.meta_features("zzz"), None);
        // An update replaces the stored features.
        repo.set_meta_features("a", vec![3.0, 4.0]);
        assert_eq!(repo.meta_features("a"), Some(vec![3.0, 4.0]));
        repo.set_meta_features("b", Vec::new());
        assert_eq!(repo.featured_tasks(), vec!["a"]);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::{Arc, Barrier};
        let repo = Arc::new(DataRepository::new());
        // All four writers start together, so their updates overlap.
        let start = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let repo = Arc::clone(&repo);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        repo.set_meta_features(&format!("task-{t}"), vec![i as f64]);
                        assert!(repo.featured_tasks().contains(&format!("task-{t}")));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(repo.featured_tasks().len(), 4);
        for t in 0..4 {
            assert_eq!(repo.meta_features(&format!("task-{t}")), Some(vec![49.0]));
        }
    }
}
