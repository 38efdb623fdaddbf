//! The data repository (Figure 1, component 5).
//!
//! Stores per-task runhistory and workload meta-features, shared between
//! concurrently tuned tasks (hence the lock). The JSON export/import pair
//! is the durable representation the Tencent deployment keeps in its
//! storage service.

use crate::snapshot::TunerSnapshot;
use otune_bo::Observation;
use otune_meta::TaskRecord;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Default, Serialize, Deserialize)]
struct Repo {
    tasks: BTreeMap<String, TaskRecord>,
    /// Latest crash-recovery snapshot per task (absent in repositories
    /// exported before snapshots existed).
    #[serde(default)]
    snapshots: BTreeMap<String, TunerSnapshot>,
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

    /// Store a task's latest crash-recovery snapshot (replacing any
    /// previous one — only the newest is ever resumed).
    pub fn record_snapshot(&self, snap: TunerSnapshot) {
        self.inner
            .write()
            .snapshots
            .insert(snap.task_id.clone(), snap);
    }

    /// A task's latest crash-recovery snapshot, if one was stored.
    pub fn snapshot(&self, task_id: &str) -> Option<TunerSnapshot> {
        self.inner.read().snapshots.get(task_id).cloned()
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

    fn snap(task_id: &str, n_obs: usize) -> TunerSnapshot {
        TunerSnapshot {
            task_id: task_id.to_string(),
            seed: 7,
            budget: 20,
            history: (0..n_obs).map(|i| obs(i as f64)).collect(),
            seeded_idx: vec![0],
            pending: None,
            stopped: false,
            degraded_streak: 0,
            failure_streak: 1,
            restarts: 0,
            round_iterations: n_obs.saturating_sub(1),
            own_records: Vec::new(),
        }
    }

    #[test]
    fn snapshots_survive_json_round_trip() {
        let repo = DataRepository::new();
        repo.record_observation("t", obs(1.0));
        repo.record_snapshot(snap("t", 3));
        repo.record_snapshot(snap("t", 5)); // newest wins
        let back = DataRepository::import_json(&repo.export_json()).unwrap();
        let s = back.snapshot("t").unwrap();
        assert_eq!(s.history.len(), 5);
        assert_eq!(s.failure_streak, 1);
        assert!(back.snapshot("other").is_none());
    }

    #[test]
    fn old_exports_without_snapshots_still_import() {
        // A pre-snapshot export has no `snapshots` key at all.
        let json = r#"{"tasks": {}}"#;
        let repo = DataRepository::import_json(json).unwrap();
        assert!(repo.snapshot("t").is_none());
    }

    #[test]
    fn corrupt_json_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[]",
            r#"{"tasks": 3}"#,
            r#"{"tasks": {}, "snapshots": "nope"}"#,
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

        fn any_snapshot() -> impl Strategy<Value = TunerSnapshot> {
            (
                any_task_id(),
                any::<u64>(),
                1usize..100,
                proptest::collection::vec(any_obs(), 0..6),
                any::<bool>(),
                0usize..5,
                0usize..5,
                0usize..4,
            )
                .prop_map(
                    |(
                        task_id,
                        seed,
                        budget,
                        history,
                        stopped,
                        degraded_streak,
                        failure_streak,
                        restarts,
                    )| {
                        let seeded_idx = if history.is_empty() { vec![] } else { vec![0] };
                        let round_iterations = history.len().saturating_sub(seeded_idx.len());
                        TunerSnapshot {
                            task_id,
                            seed,
                            budget,
                            history,
                            seeded_idx,
                            pending: None,
                            stopped,
                            degraded_streak,
                            failure_streak,
                            restarts,
                            round_iterations,
                            own_records: Vec::new(),
                        }
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// `import_json(export_json())` is the identity on the whole
            /// repository — observations with failure flags and snapshot
            /// fields included — verified via a second export.
            #[test]
            fn export_import_is_identity(
                observations in proptest::collection::vec(any_obs(), 1..8),
                features in proptest::collection::vec(-5.0f64..5.0, 0..4),
                snapshot in any_snapshot(),
            ) {
                let repo = DataRepository::new();
                for o in &observations {
                    repo.record_observation("t", o.clone());
                }
                repo.set_meta_features("t", features.clone());
                repo.record_snapshot(snapshot.clone());

                let json = repo.export_json();
                let back = DataRepository::import_json(&json).unwrap();
                prop_assert_eq!(back.export_json(), json, "round trip changed the payload");
                let t = back.task("t").unwrap();
                prop_assert_eq!(t.observations.len(), observations.len());
                for (a, b) in t.observations.iter().zip(&observations) {
                    prop_assert_eq!(a.failed, b.failed);
                    prop_assert_eq!(a.runtime.to_bits(), b.runtime.to_bits());
                }
                let s = back.snapshot(&snapshot.task_id).unwrap();
                prop_assert_eq!(s.history.len(), snapshot.history.len());
                prop_assert_eq!(s.failure_streak, snapshot.failure_streak);
                prop_assert_eq!(s.stopped, snapshot.stopped);
            }

            /// Corrupt inputs — truncations, wrong types, junk — are
            /// rejected with `Err`, never a panic.
            #[test]
            fn corrupt_imports_error_gracefully(
                snapshot in any_snapshot(),
                cut in 1usize..40,
                junk_bytes in proptest::collection::vec(32u8..127, 0..40),
            ) {
                let junk: String = junk_bytes.into_iter().map(char::from).collect();
                let repo = DataRepository::new();
                repo.record_snapshot(snapshot);
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
