//! The execution cost model.
//!
//! [`simulate`] maps `(cluster, workload, configuration, data size)` to a
//! runtime, resource metrics, and an event log. The model is analytic and
//! deterministic up to seeded multiplicative noise; see the crate docs for
//! the qualitative behaviours it is calibrated to reproduce.

use crate::cluster::ClusterSpec;
use crate::eventlog::{EventLog, StageEvent, TaskStats};
use crate::fault::FaultProfile;
use crate::metrics::{resource_amount, ExecutionResult};
use crate::workload::WorkloadProfile;
use otune_space::{Configuration, SparkParam};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference HDFS block size in GB — determines scan-stage partitioning.
const BLOCK_GB: f64 = 0.128;

/// Per-executor JVM startup seconds.
const EXECUTOR_STARTUP_S: f64 = 0.02;

/// Base application startup overhead (AM negotiation, driver init).
const APP_STARTUP_S: f64 = 4.0;

/// Fixed per-task overhead (launch, deserialization, result handling).
/// Spark's tuning guide recommends tasks well above ~100 ms for this reason.
const TASK_OVERHEAD_S: f64 = 0.1;

/// Global CPU-work scale: calibrates per-GB processing costs so that a
/// well-tuned job is still compute-dominated (minutes, not seconds) on the
/// test cluster — matching HiBench behaviour, and keeping the tuning
/// surface meaningful at high parallelism.
const CPU_COST_SCALE: f64 = 4.0;

/// Serializer characteristics: (cpu factor, serialized-size factor).
fn serializer_factors(cfg: &Configuration) -> (f64, f64) {
    match cfg[SparkParam::Serializer.index()].as_categorical() {
        Some(1) => {
            // Kryo: faster and denser, but an undersized kryo buffer forces
            // re-allocations that eat part of the benefit.
            let buf_mb = cfg[SparkParam::KryoserializerBufferMax.index()].as_f64();
            let buf_penalty = 1.0 + 0.25 * (64.0 / buf_mb.max(1.0)).min(4.0).sqrt().min(1.0);
            (0.70 * buf_penalty.min(1.25), 0.65)
        }
        _ => (1.0, 1.0), // Java serialization.
    }
}

/// Codec characteristics: (cpu factor, compressed-size ratio).
fn codec_factors(cfg: &Configuration) -> (f64, f64) {
    match cfg[SparkParam::IoCompressionCodec.index()].as_categorical() {
        Some(1) => (0.90, 0.62), // snappy: cheapest, weakest
        Some(2) => (1.55, 0.38), // zstd: expensive, strongest
        _ => (1.00, 0.55),       // lz4
    }
}

/// Normalized workload characteristics that position the sweet spots:
/// shuffle intensity, CPU density, memory expansion, iterativeness, and
/// data scale. *Similar workloads get similar sweet spots* — the property
/// that makes good configurations transferable across related tasks (§5's
/// warm-starting premise, visible in Table 4).
fn workload_stats(w: &WorkloadProfile) -> [f64; 5] {
    let n = w.stages.len().max(1) as f64;
    [
        w.stages.iter().map(|s| s.shuffle_write_frac).sum::<f64>() / n,
        w.stages.iter().map(|s| s.cpu_per_gb).sum::<f64>() / n / 12.0,
        w.stages.iter().map(|s| s.mem_expansion).sum::<f64>() / n / 3.0,
        if w.iterations > 1 { 1.0 } else { 0.0 },
        w.input_gb.max(1.0).ln() / 8.0,
    ]
}

/// Sweet spot in `[0.15, 0.85]` (encoded units) for the `i`th tunable:
/// a smooth (sine-warped) projection of the workload characteristics with
/// fixed per-(tunable, characteristic) weights.
fn sweet_spot(stats: &[f64; 5], i: u64) -> f64 {
    let z: f64 = stats
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let w = (i as f64 * 2.399_963 + k as f64 * 1.703_204).sin() * 1.6;
            w * s
        })
        .sum();
    0.15 + 0.7 * (0.5 + 0.5 * z.sin())
}

/// The mis-tuning multiplier: every workload has its own sweet spot for a
/// handful of second-tier parameters (buffer sizes, memory split,
/// parallelism granularity, locality patience, …); deviating from it costs
/// a smooth multiplicative penalty. This is the mechanism that makes
/// near-optimal configurations *rare* — as they are on real clusters,
/// where random search needs far more than 30 samples to match a tuned
/// configuration (Figure 4's 3–9× gaps).
fn mistuning_penalty(workload: &WorkloadProfile, cfg: &Configuration, iterative: bool) -> f64 {
    use SparkParam as P;
    let stats = workload_stats(workload);
    // (parameter, encoded value, strength)
    let enc = |p: P, lo: f64, hi: f64, log: bool| -> f64 {
        let v = cfg[p.index()].as_f64();
        if log {
            ((v.max(lo).ln() - lo.ln()) / (hi.ln() - lo.ln())).clamp(0.0, 1.0)
        } else {
            ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
        }
    };
    let bowls: [(u64, f64, f64); 8] = [
        (1, enc(P::MemoryFraction, 0.4, 0.9, false), 7.0),
        (
            2,
            enc(P::MemoryStorageFraction, 0.1, 0.9, false),
            if iterative { 7.0 } else { 1.5 },
        ),
        (3, enc(P::DefaultParallelism, 8.0, 4000.0, true), 3.0),
        (4, enc(P::ShuffleFileBuffer, 16.0, 1024.0, true), 2.2),
        (5, enc(P::ReducerMaxSizeInFlight, 16.0, 512.0, true), 0.6),
        (
            6,
            enc(P::ShuffleSortBypassMergeThreshold, 50.0, 1000.0, false),
            0.1,
        ),
        (7, enc(P::LocalityWait, 0.0, 10.0, false), 0.15),
        (8, enc(P::BroadcastBlockSize, 1.0, 16.0, false), 0.08),
    ];
    let mut penalty = 1.0;
    for (i, u, strength) in bowls {
        let opt = sweet_spot(&stats, i);
        // Linear-in-deviation penalty: being "roughly right" is still
        // expensive (precision pays, as on real clusters where a
        // slightly-off memory fraction already triggers spills), yet the
        // surface stays smooth enough for GP surrogates to learn — which
        // is what makes BO viable on real Spark in the first place.
        penalty *= 1.0 + strength * (u - opt).abs();
    }
    // Codec preference: each workload's data compresses best under one
    // codec family, determined by the same characteristics.
    let preferred = ((sweet_spot(&stats, 99) - 0.15) / 0.7 * 2.999) as usize;
    if cfg[P::IoCompressionCodec.index()].as_categorical() != Some(preferred.min(2)) {
        penalty *= 1.12;
    }
    penalty
}

/// A reusable simulated Spark job: cluster + workload + noise model.
#[derive(Debug, Clone)]
pub struct SimJob {
    cluster: ClusterSpec,
    workload: WorkloadProfile,
    /// Log-normal noise σ on the final runtime.
    noise_sigma: f64,
    /// Base seed; combined with the run index for per-run noise.
    seed: u64,
    /// Optional fault schedule applied after the clean simulation.
    faults: Option<FaultProfile>,
}

impl SimJob {
    /// Create a job with the default noise level (σ = 0.04, matching the
    /// run-to-run variation of repeated cluster executions).
    pub fn new(cluster: ClusterSpec, workload: WorkloadProfile) -> Self {
        SimJob {
            cluster,
            workload,
            noise_sigma: 0.04,
            seed: 0,
            faults: None,
        }
    }

    /// Override the noise level (0 disables noise).
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Override the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a fault schedule. Faults rewrite the clean result per run
    /// index (see [`FaultProfile::apply`]); the clean noise stream of
    /// unaffected runs is untouched.
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The workload profile.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Execute the job's baseline input size at the given run index.
    pub fn run(&self, config: &Configuration, run_index: u64) -> ExecutionResult {
        self.run_with_datasize(config, self.workload.input_gb, run_index)
    }

    /// Execute with an explicit input size (periodic data drift).
    pub fn run_with_datasize(
        &self,
        config: &Configuration,
        data_size_gb: f64,
        run_index: u64,
    ) -> ExecutionResult {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ run_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let result = simulate(
            &self.cluster,
            &self.workload,
            config,
            data_size_gb,
            self.noise_sigma,
            &mut rng,
        );
        match &self.faults {
            Some(profile) => profile.apply(result, run_index),
            None => result,
        }
    }
}

struct ResolvedResources {
    requested_instances: f64,
    cores: u32,
    mem_gb: f64,
    mem_total_per_exec: f64,
    granted: u32,
    slots: f64,
    driver_cores: f64,
    driver_mem_gb: f64,
}

fn resolve_resources(cluster: &ClusterSpec, cfg: &Configuration) -> ResolvedResources {
    let requested_instances = cfg[SparkParam::ExecutorInstances.index()].as_f64();
    let cores = cfg[SparkParam::ExecutorCores.index()].as_f64() as u32;
    let mem_gb = cfg[SparkParam::ExecutorMemory.index()].as_f64();
    let overhead_gb = cfg[SparkParam::ExecutorMemoryOverhead.index()].as_f64() / 1024.0;
    let mem_total_per_exec = mem_gb + overhead_gb;
    let granted = cluster.fit_executors(requested_instances as u32, cores, mem_total_per_exec);
    ResolvedResources {
        requested_instances,
        cores,
        mem_gb,
        mem_total_per_exec,
        granted,
        slots: (granted * cores) as f64,
        driver_cores: cfg[SparkParam::DriverCores.index()].as_f64(),
        driver_mem_gb: cfg[SparkParam::DriverMemory.index()].as_f64(),
    }
}

/// Simulate one job execution. See the crate docs for the model outline.
pub fn simulate(
    cluster: &ClusterSpec,
    workload: &WorkloadProfile,
    cfg: &Configuration,
    data_size_gb: f64,
    noise_sigma: f64,
    rng: &mut StdRng,
) -> ExecutionResult {
    let res = resolve_resources(cluster, cfg);
    let (ser_cpu, ser_size) = serializer_factors(cfg);
    let (codec_cpu, codec_ratio) = codec_factors(cfg);

    let parallelism = cfg[SparkParam::DefaultParallelism.index()].as_f64();
    let sql_partitions = cfg[SparkParam::SqlShufflePartitions.index()].as_f64();
    let mem_fraction = cfg[SparkParam::MemoryFraction.index()].as_f64();
    let storage_fraction = cfg[SparkParam::MemoryStorageFraction.index()].as_f64();
    let shuffle_compress = cfg[SparkParam::ShuffleCompress.index()]
        .as_bool()
        .unwrap_or(true);
    let spill_compress = cfg[SparkParam::ShuffleSpillCompress.index()]
        .as_bool()
        .unwrap_or(true);
    let file_buffer_kb = cfg[SparkParam::ShuffleFileBuffer.index()].as_f64();
    let max_in_flight_mb = cfg[SparkParam::ReducerMaxSizeInFlight.index()].as_f64();
    let bypass_threshold = cfg[SparkParam::ShuffleSortBypassMergeThreshold.index()].as_f64();
    let conn_per_peer = cfg[SparkParam::ShuffleIoNumConnectionsPerPeer.index()].as_f64();
    let rdd_compress = cfg[SparkParam::RddCompress.index()]
        .as_bool()
        .unwrap_or(false);
    let broadcast_block_mb = cfg[SparkParam::BroadcastBlockSize.index()].as_f64();
    let broadcast_compress = cfg[SparkParam::BroadcastCompress.index()]
        .as_bool()
        .unwrap_or(true);
    let mmap_threshold_mb = cfg[SparkParam::StorageMemoryMapThreshold.index()].as_f64();
    let locality_wait_s = cfg[SparkParam::LocalityWait.index()].as_f64();
    let fair_scheduler = cfg[SparkParam::SchedulerMode.index()].as_categorical() == Some(1);
    let speculation = cfg[SparkParam::Speculation.index()]
        .as_bool()
        .unwrap_or(false);
    let speculation_mult = cfg[SparkParam::SpeculationMultiplier.index()].as_f64();
    let max_failures = cfg[SparkParam::TaskMaxFailures.index()].as_f64();
    let heartbeat_s = cfg[SparkParam::ExecutorHeartbeatInterval.index()].as_f64();

    // Per-slot bandwidth: total node bandwidth shared by the slots running
    // on that node (approximated cluster-wide).
    let slots = res.slots.max(1.0);
    let disk_per_slot = (cluster.disk_gbps * cluster.nodes as f64 / slots).min(cluster.disk_gbps);
    let net_per_slot = (cluster.net_gbps * cluster.nodes as f64 / slots).min(cluster.net_gbps)
        * (1.0 + 0.05 * (conn_per_peer - 1.0) * (res.granted as f64 / 16.0).min(1.0));

    // Unified memory regions per task (GB).
    let exec_mem_per_task =
        (res.mem_gb * mem_fraction * (1.0 - storage_fraction) / res.cores.max(1) as f64).max(1e-3);
    let storage_mem_total = res.granted as f64 * res.mem_gb * mem_fraction * storage_fraction;

    // Workload-specific mis-tuning multiplier over the second-tier knobs.
    let iterative = workload.iterations > 1 && workload.stages.iter().any(|s| s.cacheable);
    let tune_penalty = mistuning_penalty(workload, cfg, iterative);

    // Executor-shape efficiency: ~5 cores per JVM is the sweet spot
    // (HDFS-client contention above, lost sharing below); very large heaps
    // stretch GC pauses.
    let cores_f = res.cores.max(1) as f64;
    let shape_penalty = 1.0
        + 0.05 * (cores_f - 5.0).abs().powf(1.2) / 3.0
        + if res.cores == 1 { 0.10 } else { 0.0 }
        + 0.03 * (res.mem_gb - 16.0).max(0.0) / 8.0;

    // Broadcast distribution time (driver → executors, once per job).
    let mut total_time = APP_STARTUP_S + EXECUTOR_STARTUP_S * res.granted as f64;
    if workload.broadcast_gb > 0.0 {
        let wire = workload.broadcast_gb * if broadcast_compress { codec_ratio } else { 1.0 };
        let block_overhead = 1.0 + 0.05 * (4.0 / broadcast_block_mb.max(0.5)).sqrt();
        let bcast_cpu = if broadcast_compress {
            wire * 0.2 * codec_cpu
        } else {
            0.0
        };
        total_time +=
            wire / cluster.net_gbps * block_overhead + bcast_cpu + 0.01 * res.granted as f64;
    }

    // Driver task-launch throughput; too little driver memory for the task
    // book-keeping causes driver GC churn.
    let launch_cost_per_task = 0.002 / res.driver_cores.max(1.0);

    let mut stages: Vec<StageEvent> = Vec::new();
    let mut gc_time_total = 0.0;
    let mut cpu_busy_time = 0.0;

    // Cache state for iterative workloads.
    let mut cached_gb;
    let mut cache_hit = 0.0_f64;

    let iterations = workload.iterations.max(1);
    for iter in 0..iterations {
        let mut shuffle_in_logical = 0.0_f64; // uncompressed, deserialized GB
        for (sid, stage) in workload.stages.iter().enumerate() {
            // After the first pass, only the iterative section repeats; the
            // scan stage is replaced by (partial) cache reads.
            let is_scan = stage.input_frac > 0.0;
            if iter > 0 && sid == 0 && !stage.cacheable {
                // Non-cacheable scan stages are re-executed fully.
            }
            let mut stage_input_storage = stage.input_frac * data_size_gb;
            let mut recompute_penalty = 0.0;
            if iter > 0 && stage.cacheable {
                // Cached fraction is served from memory; the rest recomputes.
                recompute_penalty = stage_input_storage
                    * (1.0 - cache_hit)
                    * stage.cpu_per_gb
                    * CPU_COST_SCALE
                    * 0.5;
                stage_input_storage *= 1.0 - cache_hit;
            }
            let stage_in = stage_input_storage + shuffle_in_logical;
            if stage_in <= 1e-9 {
                shuffle_in_logical = 0.0;
                continue;
            }

            // Partitioning.
            let partitions = if is_scan && shuffle_in_logical <= 1e-9 {
                ((stage.input_frac * data_size_gb / BLOCK_GB).ceil()).max(1.0)
            } else if workload.uses_sql {
                sql_partitions.max(1.0)
            } else {
                parallelism.max(1.0)
            };
            let per_task_gb = stage_in / partitions;
            let waves = (partitions / slots).ceil().max(1.0);

            // --- CPU work ---
            let mut cpu_time = per_task_gb * stage.cpu_per_gb * CPU_COST_SCALE / cluster.core_speed
                * tune_penalty
                * shape_penalty;

            // Shuffle read: deserialize + decompress + network fetch.
            let mut io_time = 0.0;
            let mut deser_time = 0.0;
            if shuffle_in_logical > 1e-9 {
                let frac_shuffled = shuffle_in_logical / stage_in;
                let wire_per_task = per_task_gb
                    * frac_shuffled
                    * ser_size
                    * if shuffle_compress { codec_ratio } else { 1.0 };
                // Small in-flight windows serialize fetch round-trips.
                let fetch_penalty = 1.0 + 0.15 * (48.0 / max_in_flight_mb.max(1.0)).sqrt();
                // Memory-mapping tiny blocks adds syscall churn either way;
                // the effect is second-order.
                let mmap_penalty = 1.0 + 0.01 * ((mmap_threshold_mb / 2.0).ln().abs());
                // All-to-all fetches: more executors, more connections and
                // smaller segments per connection.
                let conn_penalty = 1.0 + res.granted as f64 / 300.0;
                io_time +=
                    wire_per_task / net_per_slot * fetch_penalty * mmap_penalty * conn_penalty;
                deser_time +=
                    per_task_gb * frac_shuffled * 0.35 * ser_cpu * workload.ser_sensitivity
                        / cluster.core_speed;
                if shuffle_compress {
                    deser_time += wire_per_task * 0.25 * codec_cpu / cluster.core_speed;
                }
            }

            // Storage input read.
            if stage_input_storage > 1e-9 {
                io_time += stage_input_storage / partitions / disk_per_slot;
            }
            // Cache read for the cached fraction (memory bandwidth ≫ disk —
            // modeled as a small constant cost plus decompression).
            if iter > 0 && stage.cacheable && cache_hit > 0.0 {
                let cached_per_task = stage.input_frac * data_size_gb * cache_hit / partitions;
                let decode = if rdd_compress { 0.3 * codec_cpu } else { 0.05 };
                cpu_time += cached_per_task * decode / cluster.core_speed;
            }
            cpu_time += recompute_penalty / partitions / cluster.core_speed;

            // --- Memory pressure: spill + GC ---
            let working_set = per_task_gb * stage.mem_expansion * ser_size.max(0.8);
            let pressure = working_set / exec_mem_per_task;
            let spill_ratio = (1.0 - 1.0 / pressure.max(1.0)).max(0.0);
            let mut spill_gb_per_task = 0.0;
            if spill_ratio > 0.0 {
                // Spilled bytes are written and read back, with extra merge
                // passes that grow super-linearly as memory shrinks.
                let spill_logical = working_set * spill_ratio;
                let spill_wire = spill_logical * if spill_compress { codec_ratio } else { 1.0 };
                spill_gb_per_task = spill_logical;
                io_time += 2.0 * spill_wire / disk_per_slot;
                if spill_compress {
                    cpu_time += spill_wire * 0.4 * codec_cpu / cluster.core_speed;
                }
                cpu_time *= 1.0 + 2.5 * spill_ratio * spill_ratio;
            }
            let gc_fraction = (0.02 + 0.10 * (pressure.min(4.0)).powi(2) * ser_size).min(0.55);

            // --- Shuffle write ---
            let shuffle_out_logical = stage_in * stage.shuffle_write_frac;
            let mut ser_time = 0.0;
            if shuffle_out_logical > 1e-9 {
                let out_per_task = shuffle_out_logical / partitions;
                let wire_per_task =
                    out_per_task * ser_size * if shuffle_compress { codec_ratio } else { 1.0 };
                ser_time +=
                    out_per_task * 0.5 * ser_cpu * workload.ser_sensitivity / cluster.core_speed;
                if shuffle_compress {
                    ser_time += wire_per_task * 0.35 * codec_cpu / cluster.core_speed;
                }
                // Small file buffers flush more often; the bypass-merge path
                // (few output partitions, no map-side sort) is cheaper.
                let buffer_penalty = 1.0 + 0.25 * (32.0 / file_buffer_kb.max(1.0)).sqrt();
                let next_partitions = if workload.uses_sql {
                    sql_partitions
                } else {
                    parallelism
                };
                let bypass = next_partitions <= bypass_threshold;
                let write_path = if bypass { 0.9 } else { 1.0 };
                io_time += wire_per_task / disk_per_slot * buffer_penalty * write_path;
            }

            // --- Assemble task time ---
            let work_time = cpu_time + deser_time + ser_time + TASK_OVERHEAD_S;
            let task_time = (work_time + io_time) / (1.0 - gc_fraction);
            let gc_time = task_time - (work_time + io_time);

            // Scheduling: per-wave dispatch latency + locality waits when
            // executors are sparse relative to data blocks.
            let locality_miss =
                (1.0 - (res.granted as f64 / cluster.nodes as f64 / 4.0)).clamp(0.1, 1.0);
            let wave_overhead = 0.05 + locality_wait_s * 0.08 * locality_miss;
            let launch_time = partitions
                * launch_cost_per_task
                * if res.driver_mem_gb * 1024.0 < partitions * 0.5 {
                    3.0
                } else {
                    1.0
                };

            // Straggler tail on the final wave.
            let straggler_base = task_time * stage.skew * 2.0;
            let straggler = if speculation {
                // Speculative copies cut the tail; an aggressive multiplier
                // (close to 1) re-launches earlier and cuts more of it.
                let cut = (0.35 + 0.15 * (speculation_mult - 1.0)).clamp(0.3, 0.7);
                straggler_base * cut
            } else {
                straggler_base
            };
            let spec_overhead = if speculation { 1.02 } else { 1.0 };

            let stage_time =
                (waves * (task_time + wave_overhead) + straggler + launch_time) * spec_overhead;

            // Retry expectation: rare task failures rerun work; allowing
            // fewer retries risks full-stage reruns. Second-order.
            let retry_factor = 1.0 + 0.004 * (8.0 - max_failures.min(8.0)) / 8.0;
            let fair_factor = if fair_scheduler { 1.01 } else { 1.0 };
            let heartbeat_factor = 1.0 + 0.002 * (10.0 / heartbeat_s.max(1.0));
            let stage_time = stage_time * retry_factor * fair_factor * heartbeat_factor;

            total_time += stage_time;
            gc_time_total += gc_time * partitions;
            cpu_busy_time += work_time * partitions;

            // Cache fill on the first pass.
            if iter == 0 && stage.cacheable {
                let encoded = stage_in
                    * ser_size
                    * if rdd_compress { codec_ratio } else { 1.0 }
                    * stage.mem_expansion.min(1.2);
                cached_gb = encoded;
                cache_hit = (storage_mem_total / cached_gb.max(1e-9)).min(1.0);
            }

            // Record the stage event once per logical stage (first pass).
            if iter == 0 {
                let frac_total = work_time + io_time + gc_time;
                stages.push(StageEvent {
                    stage_id: sid as u32,
                    name: stage.name.clone(),
                    operations: stage.operations.clone(),
                    num_tasks: partitions as u32,
                    waves: waves as u32,
                    duration_s: stage_time,
                    tasks: TaskStats {
                        mean_duration_s: task_time,
                        max_duration_s: task_time * (1.0 + stage.skew * 2.0),
                        cpu_fraction: (cpu_time / frac_total.max(1e-9)).min(1.0),
                        io_fraction: (io_time / frac_total.max(1e-9)).min(1.0),
                        gc_fraction,
                        spill_gb: spill_gb_per_task,
                        shuffle_read_gb: shuffle_in_logical / partitions,
                        shuffle_write_gb: shuffle_out_logical / partitions,
                        input_gb: stage_input_storage / partitions,
                        peak_memory_gb: working_set.min(exec_mem_per_task * 1.2),
                        ser_fraction: ((ser_time + deser_time) / frac_total.max(1e-9)).min(1.0),
                        scheduler_delay_s: wave_overhead,
                    },
                });
            }

            shuffle_in_logical = shuffle_out_logical;
        }
    }

    // Multiplicative log-normal noise.
    let noise = if noise_sigma > 0.0 {
        let (a, b): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
        let z = (-2.0 * a.ln()).sqrt() * (2.0 * std::f64::consts::PI * b).cos();
        (noise_sigma * z).exp()
    } else {
        1.0
    };
    let runtime_s = total_time * noise;

    let resource = resource_amount(
        res.requested_instances,
        res.cores as f64,
        res.mem_gb,
        res.driver_cores,
        res.driver_mem_gb,
    );
    let billed_mem = res.requested_instances * res.mem_total_per_exec + res.driver_mem_gb;
    let billed_cores = res.requested_instances * res.cores as f64 + res.driver_cores;

    let _ = (gc_time_total, cpu_busy_time); // retained for future metrics

    ExecutionResult {
        runtime_s,
        memory_gb_h: billed_mem * runtime_s / 3600.0,
        cpu_core_h: billed_cores * runtime_s / 3600.0,
        resource,
        granted_executors: res.granted,
        data_size_gb,
        status: crate::fault::ExecutionStatus::Success,
        event_log: EventLog {
            app_name: workload.name.clone(),
            data_size_gb,
            executors: res.granted,
            cores_per_executor: res.cores,
            stages,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{hibench_task, HibenchTask};
    use otune_space::{spark_space, ClusterScale, ParamValue};

    fn setup() -> (ClusterSpec, WorkloadProfile, otune_space::ConfigSpace) {
        (
            ClusterSpec::hibench(),
            hibench_task(HibenchTask::WordCount),
            spark_space(ClusterScale::hibench()),
        )
    }

    fn noiseless(job: &SimJob) -> SimJob {
        job.clone().with_noise(0.0)
    }

    #[test]
    fn default_config_runs_in_plausible_time() {
        let (cluster, wl, space) = setup();
        let job = SimJob::new(cluster, wl).with_noise(0.0);
        let r = job.run(&space.default_configuration(), 0);
        assert!(
            r.runtime_s > 10.0 && r.runtime_s < 5000.0,
            "runtime {}",
            r.runtime_s
        );
        assert!(r.memory_gb_h > 0.0);
        assert!(r.cpu_core_h > 0.0);
        assert!(!r.event_log.stages.is_empty());
    }

    #[test]
    fn deterministic_given_seed_and_run_index() {
        let (cluster, wl, space) = setup();
        let job = SimJob::new(cluster, wl).with_seed(7);
        let cfg = space.default_configuration();
        let a = job.run(&cfg, 3);
        let b = job.run(&cfg, 3);
        assert_eq!(a.runtime_s, b.runtime_s);
        let c = job.run(&cfg, 4);
        assert_ne!(
            a.runtime_s, c.runtime_s,
            "different runs see different noise"
        );
    }

    #[test]
    fn more_executors_speed_up_runtime_but_raise_resource() {
        let (cluster, wl, space) = setup();
        let job = noiseless(&SimJob::new(cluster, wl));
        let mut small = space.default_configuration();
        small.set(0, ParamValue::Int(2));
        let mut large = space.default_configuration();
        large.set(0, ParamValue::Int(32));
        let rs = job.run(&small, 0);
        let rl = job.run(&large, 0);
        assert!(
            rl.runtime_s < rs.runtime_s,
            "{} !< {}",
            rl.runtime_s,
            rs.runtime_s
        );
        assert!(rl.resource > rs.resource);
    }

    #[test]
    fn starving_memory_blows_up_runtime() {
        let (cluster, wl, space) = setup();
        let job = noiseless(&SimJob::new(cluster, wl));
        let default_rt = job.run(&space.default_configuration(), 0).runtime_s;
        let mut starved = space.default_configuration();
        starved.set(SparkParam::ExecutorMemory.index(), ParamValue::Int(1));
        starved.set(SparkParam::MemoryFraction.index(), ParamValue::Float(0.4));
        starved.set(
            SparkParam::MemoryStorageFraction.index(),
            ParamValue::Float(0.9),
        );
        starved.set(SparkParam::DefaultParallelism.index(), ParamValue::Int(8));
        let rt = job.run(&starved, 0).runtime_s;
        assert!(
            rt > default_rt * 2.0,
            "starved {} vs default {}",
            rt,
            default_rt
        );
    }

    #[test]
    fn over_requesting_executors_wastes_money() {
        let (cluster, wl, space) = setup();
        let job = noiseless(&SimJob::new(cluster, wl));
        // Request more than fit: runtime stops improving, resource keeps rising.
        let mut a = space.default_configuration();
        a.set(0, ParamValue::Int(48));
        a.set(1, ParamValue::Int(8));
        let mut b = a.clone();
        b.set(0, ParamValue::Int(64));
        let ra = job.run(&a, 0);
        let rb = job.run(&b, 0);
        assert_eq!(
            ra.granted_executors, rb.granted_executors,
            "cluster caps both"
        );
        assert!((ra.runtime_s - rb.runtime_s).abs() < 1.0);
        assert!(rb.resource > ra.resource);
        assert!(rb.execution_cost() > ra.execution_cost());
    }

    #[test]
    fn kryo_helps_serialization_heavy_workloads() {
        let cluster = ClusterSpec::hibench();
        let wl = hibench_task(HibenchTask::Bayes); // high ser_sensitivity
        let space = spark_space(ClusterScale::hibench());
        let job = SimJob::new(cluster, wl).with_noise(0.0);
        let java = space.default_configuration();
        let mut kryo = java.clone();
        kryo.set(SparkParam::Serializer.index(), ParamValue::Categorical(1));
        assert!(job.run(&kryo, 0).runtime_s < job.run(&java, 0).runtime_s);
    }

    #[test]
    fn parallelism_starves_then_saturates() {
        // With ample memory, too few partitions idle the slots (badly),
        // while pushing partitions far past the slot count only churns
        // waves — returns saturate.
        let (cluster, _, space) = setup();
        let wl = hibench_task(HibenchTask::TeraSort);
        let job = SimJob::new(cluster, wl).with_noise(0.0);
        let rt = |p: i64| {
            let mut c = space.default_configuration();
            c.set(SparkParam::ExecutorInstances.index(), ParamValue::Int(48));
            c.set(SparkParam::ExecutorCores.index(), ParamValue::Int(8));
            c.set(SparkParam::ExecutorMemory.index(), ParamValue::Int(32));
            c.set(SparkParam::DefaultParallelism.index(), ParamValue::Int(p));
            job.run(&c, 0).runtime_s
        };
        let low = rt(8);
        let mid = rt(384); // == slot count
        let high = rt(1000);
        assert!(mid < low * 0.7, "mid {mid} vs low {low}");
        let saturation = (high - mid).abs() / mid;
        assert!(
            saturation < 0.2,
            "returns saturate past the slot count: {saturation}"
        );
    }

    #[test]
    fn high_parallelism_avoids_spill_under_tight_memory() {
        // Under tight memory, raising parallelism shrinks per-task working
        // sets and is the correct mitigation — as in real Spark.
        let (cluster, _, space) = setup();
        let wl = hibench_task(HibenchTask::TeraSort);
        let job = SimJob::new(cluster, wl).with_noise(0.0);
        let rt = |p: i64| {
            let mut c = space.default_configuration();
            c.set(SparkParam::DefaultParallelism.index(), ParamValue::Int(p));
            job.run(&c, 0).runtime_s
        };
        assert!(rt(1000) < rt(128), "{} !< {}", rt(1000), rt(128));
    }

    #[test]
    fn datasize_scales_runtime() {
        let (cluster, wl, space) = setup();
        let job = noiseless(&SimJob::new(cluster, wl));
        let cfg = space.default_configuration();
        let small = job.run_with_datasize(&cfg, 20.0, 0);
        let large = job.run_with_datasize(&cfg, 200.0, 0);
        assert!(large.runtime_s > small.runtime_s * 3.0);
        assert_eq!(small.data_size_gb, 20.0);
    }

    #[test]
    fn event_log_consistent_with_run() {
        let (cluster, wl, space) = setup();
        let job = noiseless(&SimJob::new(cluster, wl));
        let r = job.run(&space.default_configuration(), 0);
        assert_eq!(r.event_log.app_name, "wordcount");
        assert_eq!(r.event_log.executors, r.granted_executors);
        assert!(r.event_log.total_tasks() > 0);
        for s in &r.event_log.stages {
            assert!(s.duration_s > 0.0);
            assert!(s.tasks.cpu_fraction >= 0.0 && s.tasks.cpu_fraction <= 1.0);
            assert!(s.tasks.gc_fraction >= 0.0 && s.tasks.gc_fraction < 1.0);
        }
    }

    #[test]
    fn speculation_tames_skewed_stages() {
        let cluster = ClusterSpec::hibench();
        let wl = hibench_task(HibenchTask::PageRank); // skewed joins
        let space = spark_space(ClusterScale::hibench());
        let job = SimJob::new(cluster, wl).with_noise(0.0);
        let base = space.default_configuration();
        let mut spec = base.clone();
        spec.set(SparkParam::Speculation.index(), ParamValue::Bool(true));
        assert!(job.run(&spec, 0).runtime_s < job.run(&base, 0).runtime_s);
    }

    #[test]
    fn noise_is_modest_and_multiplicative() {
        let (cluster, wl, space) = setup();
        let job = SimJob::new(cluster, wl).with_noise(0.05).with_seed(42);
        let cfg = space.default_configuration();
        let runs: Vec<f64> = (0..30).map(|i| job.run(&cfg, i).runtime_s).collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        let max_dev = runs
            .iter()
            .map(|r| (r / mean - 1.0).abs())
            .fold(0.0, f64::max);
        assert!(max_dev < 0.25, "noise too large: {max_dev}");
        assert!(max_dev > 0.005, "noise absent: {max_dev}");
    }
}
