//! The persisted set: every type a file or line protocol carries, checked
//! at compile time to serialize and deserialize through `serde_json`.
//!
//! The formats are journal lines, `tune-serve` lines, telemetry events,
//! metrics sidecars, corpus lines and `tune --out`. No other product type
//! derives serde: a format that starts carrying one has to add the derive,
//! and the type then belongs on this list. These are the types an
//! exact-at-the-edges round-trip test must cover.

use otune_bo::Observation;
use otune_core::telemetry::{
    Event, EventKind, HistogramSnapshot, MetricsSnapshot, ResizeDirection, SpanRecord, StopReason,
    SuggestionKind,
};
use otune_jobs::{
    CampaignSpec, DlqEntry, FailureRecord, FleetSummary, ItemOutcome, ItemResult, JobCheckpoint,
    JobEvent, JournalEntry, PendingItem, PendingWave, TaskFault, TaskSummary,
};
use otune_meta::{CorpusRecord, CorpusStats};
use otune_space::{Configuration, ParamValue};
use otune_sparksim::FaultKind;

/// Compiles only if every listed type is written by `serde_json`.
macro_rules! written {
    ($($t:ty),* $(,)?) => {
        $(let _ = |v: &$t| serde_json::to_string(v);)*
    };
}

/// Compiles only if every listed type is written and read back by
/// `serde_json`.
macro_rules! round_tripped {
    ($($t:ty),* $(,)?) => {
        written!($($t),*);
        $(let _ = |s: &str| serde_json::from_str::<$t>(s);)*
    };
}

#[test]
fn every_persisted_type_is_serde() {
    // Journal lines: one entry per line, embedding the campaign spec.
    round_tripped!(
        JournalEntry,
        JobEvent,
        CampaignSpec,
        TaskFault,
        FaultKind,
        ItemOutcome,
        FailureRecord,
        DlqEntry,
        TaskSummary,
        FleetSummary,
        JobCheckpoint,
    );
    // `tune-serve` lines: pending waves out, item results in.
    written!(PendingWave, PendingItem);
    round_tripped!(ItemResult);
    // Telemetry event streams and metrics sidecars.
    round_tripped!(
        Event,
        EventKind,
        SuggestionKind,
        ResizeDirection,
        StopReason,
        SpanRecord,
        MetricsSnapshot,
        HistogramSnapshot,
    );
    // Corpus lines: records (and the retired statistics lines).
    round_tripped!(CorpusRecord, CorpusStats);
    // `tune --out`: the runhistory.
    round_tripped!(Observation, Configuration, ParamValue);
}
