//! Cluster capacity model.

/// A homogeneous compute cluster (or a Tencent-platform resource group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: u32,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// Memory per node in GB.
    pub mem_per_node_gb: f64,
    /// Relative per-core speed (1.0 = reference core).
    pub core_speed: f64,
    /// Aggregate disk bandwidth per node in GB/s.
    pub disk_gbps: f64,
    /// Network bandwidth per node in GB/s.
    pub net_gbps: f64,
}

impl ClusterSpec {
    /// The four-node HiBench test cluster (§6.1's role). Modeled with 32
    /// usable cores / 256 GB per node — the simulator's calibration point
    /// where a well-tuned job stays compute-bound (the paper's physical
    /// nodes are larger, but Spark-on-YARN rarely exposes every core).
    pub fn hibench() -> Self {
        ClusterSpec {
            nodes: 4,
            cores_per_node: 32,
            mem_per_node_gb: 256.0,
            core_speed: 1.0,
            disk_gbps: 2.0,
            net_gbps: 1.25,
        }
    }

    /// A production resource group from §6.2: 100 units of 20 cores /
    /// 50 GB each.
    pub fn production() -> Self {
        ClusterSpec {
            nodes: 100,
            cores_per_node: 20,
            mem_per_node_gb: 50.0,
            core_speed: 0.9,
            disk_gbps: 1.0,
            net_gbps: 1.25,
        }
    }

    /// How many executors of the given shape actually fit. YARN-style bin
    /// packing approximated per node: an executor needs `cores` vcores and
    /// `mem_gb` memory; executors cannot span nodes.
    pub fn fit_executors(&self, requested: u32, cores: u32, mem_gb: f64) -> u32 {
        if cores == 0 || mem_gb <= 0.0 {
            return 0;
        }
        let per_node_by_cores = self.cores_per_node / cores;
        let per_node_by_mem = (self.mem_per_node_gb / mem_gb).floor() as u32;
        let per_node = per_node_by_cores.min(per_node_by_mem);
        (per_node * self.nodes)
            .min(requested)
            .max(if requested > 0 { 1 } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_respects_request() {
        let c = ClusterSpec::hibench();
        assert_eq!(c.fit_executors(4, 4, 8.0), 4);
    }

    #[test]
    fn fit_caps_at_core_capacity() {
        let c = ClusterSpec::hibench();
        // 32 cores/node at 8 cores each → 4 per node, 16 total.
        assert_eq!(c.fit_executors(1000, 8, 1.0), 16);
    }

    #[test]
    fn fit_caps_at_memory_capacity() {
        let c = ClusterSpec::hibench();
        // 256 GB/node at 200 GB each → 1 per node, 4 total.
        assert_eq!(c.fit_executors(1000, 1, 200.0), 4);
    }

    #[test]
    fn fit_grants_at_least_one_when_requested() {
        let c = ClusterSpec::hibench();
        // Oversized executor: even if nothing fits cleanly, a request gets
        // one executor (mirrors YARN's minimum-allocation behaviour within
        // our capacity granularity).
        assert_eq!(c.fit_executors(5, 8, 10_000.0), 1);
        assert_eq!(c.fit_executors(0, 8, 1.0), 0);
    }

    #[test]
    fn degenerate_shapes() {
        let c = ClusterSpec::hibench();
        assert_eq!(c.fit_executors(10, 0, 1.0), 0);
        assert_eq!(c.fit_executors(10, 1, 0.0), 0);
    }
}
