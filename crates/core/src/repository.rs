//! The data repository (Figure 1, component 5).
//!
//! Stores per-task runhistory and workload meta-features, shared between
//! concurrently tuned tasks (hence the lock). The JSON export/import pair
//! is the durable representation the Tencent deployment keeps in its
//! storage service.

use otune_bo::Observation;
use otune_meta::TaskRecord;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The exported document. Exports from builds that also stored tuner
/// snapshots carry a `snapshots` key, which import ignores.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Repo {
    tasks: BTreeMap<String, TaskRecord>,
}

/// Thread-safe store of tuning history across tasks.
#[derive(Debug, Default)]
pub struct DataRepository {
    inner: RwLock<Repo>,
}

impl DataRepository {
    /// An empty repository.
    pub fn new() -> Self {
        DataRepository::default()
    }

    /// Number of tasks with stored history.
    pub fn len(&self) -> usize {
        self.inner.read().tasks.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an observation to a task's runhistory (creating the task
    /// record if needed).
    pub fn record_observation(&self, task_id: &str, obs: Observation) {
        let mut repo = self.inner.write();
        let rec = repo
            .tasks
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
        let mut repo = self.inner.write();
        let rec = repo
            .tasks
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
        self.inner.read().tasks.get(task_id).cloned()
    }

    /// A task's meta-features alone (`None` when unset or empty) —
    /// cheaper than [`DataRepository::task`], which clones the full
    /// observation history.
    pub fn meta_features(&self, task_id: &str) -> Option<Vec<f64>> {
        self.inner
            .read()
            .tasks
            .get(task_id)
            .filter(|t| !t.meta_features.is_empty())
            .map(|t| t.meta_features.clone())
    }

    /// All task records except `exclude` (the task being tuned), restricted
    /// to tasks that have both meta-features and history — the usable
    /// meta-learning sources.
    pub fn source_tasks(&self, exclude: &str) -> Vec<TaskRecord> {
        self.inner
            .read()
            .tasks
            .values()
            .filter(|t| {
                t.task_id != exclude && !t.meta_features.is_empty() && t.observations.len() >= 3
            })
            .cloned()
            .collect()
    }

    /// Serialize the entire repository to JSON.
    pub fn export_json(&self) -> String {
        serde_json::to_string(&*self.inner.read()).expect("repository is always serializable")
    }

    /// Load a repository from JSON.
    pub fn import_json(json: &str) -> Result<Self, serde_json::Error> {
        let repo: Repo = serde_json::from_str(json)?;
        Ok(DataRepository {
            inner: RwLock::new(repo),
        })
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
    fn json_round_trip() {
        let repo = DataRepository::new();
        repo.record_observation("t", obs(1.5));
        repo.set_meta_features("t", vec![0.1, 0.2]);
        let json = repo.export_json();
        let back = DataRepository::import_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        let t = back.task("t").unwrap();
        assert_eq!(t.meta_features, vec![0.1, 0.2]);
        assert_eq!(t.observations.len(), 1);
    }

    #[test]
    fn exports_with_snapshots_still_import() {
        // Older builds also exported a `snapshots` map of tuner
        // snapshots; import keeps the task records and ignores it.
        let json = r#"{"tasks": {"t": {"task_id": "t", "meta_features": [0.5],
            "observations": []}}, "snapshots": {"t": {"task_id": "t", "seed": 7,
            "budget": 20, "history": [], "seeded_idx": [], "pending": null,
            "stopped": false, "degraded_streak": 0, "failure_streak": 1,
            "restarts": 0, "round_iterations": 0, "own_records": []}}}"#;
        let repo = DataRepository::import_json(json).unwrap();
        assert_eq!(repo.meta_features("t"), Some(vec![0.5]));
        assert!(!repo.export_json().contains("snapshots"));
    }

    #[test]
    fn old_exports_without_snapshots_still_import() {
        let json = r#"{"tasks": {}}"#;
        let repo = DataRepository::import_json(json).unwrap();
        assert!(repo.is_empty());
    }

    #[test]
    fn corrupt_json_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[]",
            r#"{"tasks": 3}"#,
            r#"{"tasks": {"t": "nope"}}"#,
        ] {
            assert!(DataRepository::import_json(bad).is_err(), "{bad:?}");
        }
    }

    mod roundtrip_properties {
        use super::*;
        use proptest::prelude::*;

        fn any_obs() -> impl Strategy<Value = Observation> {
            (
                -50i64..50,
                0.01f64..1e6,
                0.01f64..1e5,
                any::<bool>(),
                proptest::collection::vec(-10.0f64..10.0, 0..3),
            )
                .prop_map(|(v, runtime, resource, failed, context)| Observation {
                    failed,
                    config: Configuration::new(vec![ParamValue::Int(v)]),
                    objective: runtime * 0.5 + resource,
                    runtime,
                    resource,
                    context,
                })
        }

        fn any_task_id() -> impl Strategy<Value = String> {
            proptest::collection::vec(0u8..26, 1..8)
                .prop_map(|v| v.into_iter().map(|c| (b'a' + c) as char).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// `import_json(export_json())` is the identity on the whole
            /// repository — several tasks' observations with failure flags,
            /// contexts and meta-features — verified via a second export.
            #[test]
            fn export_import_is_identity(
                records in proptest::collection::vec((any_task_id(), any_obs()), 1..12),
                features in proptest::collection::vec(-5.0f64..5.0, 0..4),
            ) {
                let repo = DataRepository::new();
                for (task_id, o) in &records {
                    repo.record_observation(task_id, o.clone());
                }
                repo.set_meta_features(&records[0].0, features.clone());

                let json = repo.export_json();
                let back = DataRepository::import_json(&json).unwrap();
                prop_assert_eq!(back.export_json(), json, "round trip changed the payload");
                prop_assert_eq!(back.len(), repo.len());
                prop_assert_eq!(back.task(&records[0].0).unwrap().meta_features, features);
                for (task_id, rec) in records.iter().map(|(t, _)| (t, back.task(t).unwrap())) {
                    let sent: Vec<&Observation> =
                        records.iter().filter(|(t, _)| t == task_id).map(|(_, o)| o).collect();
                    prop_assert_eq!(rec.observations.len(), sent.len());
                    for (a, b) in rec.observations.iter().zip(sent) {
                        prop_assert_eq!(a.failed, b.failed);
                        prop_assert_eq!(a.runtime.to_bits(), b.runtime.to_bits());
                        prop_assert_eq!(a.resource.to_bits(), b.resource.to_bits());
                    }
                }
            }

            /// Corrupt inputs — truncations, wrong types, junk — are
            /// rejected with `Err`, never a panic.
            #[test]
            fn corrupt_imports_error_gracefully(
                observations in proptest::collection::vec(any_obs(), 1..6),
                cut in 1usize..40,
                junk_bytes in proptest::collection::vec(32u8..127, 0..40),
            ) {
                let junk: String = junk_bytes.into_iter().map(char::from).collect();
                let repo = DataRepository::new();
                for o in observations {
                    repo.record_observation("t", o);
                }
                let json = repo.export_json();
                // Truncation never parses (the document can't be complete).
                let truncated = &json[..json.len().saturating_sub(cut)];
                prop_assert!(DataRepository::import_json(truncated).is_err());
                // Arbitrary junk either parses as a repo or errors; both
                // are fine — the property is "no panic".
                let _ = DataRepository::import_json(&junk);
            }
        }
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
