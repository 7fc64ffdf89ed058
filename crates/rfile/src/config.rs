//! Remote-file configuration: the design choices of Table 1 as data.

use std::sync::Arc;

use remem_net::Protocol;
use remem_sim::{FaultLog, MetricsRegistry, SimDuration};

/// How remote accesses complete (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Spin for the few microseconds an RDMA completion takes; no context
    /// switch. The paper's choice for Custom.
    SyncSpin,
    /// Treat the access as an asynchronous I/O: yield, take the context
    /// switch, wait to be re-scheduled after completion. What stock SQL
    /// Server does for BPExt I/O — and why SMBDirect sees 272 µs page reads
    /// where Custom sees 13 µs (§6.2.1).
    Async,
    /// The paper's proposed future extension (§4.1.3 / §4.2): spin up to
    /// `spin_budget`, and fall back to the asynchronous path when the
    /// transfer takes longer (large transfers, saturated links) — small
    /// transfers get spin latency, large ones stop burning CPU.
    Adaptive {
        /// Longest time worth spinning before yielding.
        spin_budget: remem_sim::SimDuration,
    },
}

impl AccessMode {
    /// The adaptive mode with the paper's suggested "a few tens of
    /// microseconds" budget.
    pub fn adaptive() -> AccessMode {
        AccessMode::Adaptive {
            spin_budget: remem_sim::SimDuration::from_micros(30),
        }
    }
}

/// How local buffers get registered for RDMA (§4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistrationMode {
    /// Copy through a pre-registered per-scheduler staging MR (memcpy ≈2 µs
    /// per page). The paper's choice.
    Staged,
    /// Register the source/destination buffer on demand for every transfer
    /// (≈50 µs per registration). Kept for the ablation benchmark.
    Dynamic,
}

/// Full configuration of a remote file.
#[derive(Debug, Clone)]
pub struct RFileConfig {
    /// Wire protocol (Table 5's Custom / SMBDirect+RamDrive / SMB+RamDrive).
    pub protocol: Protocol,
    pub access: AccessMode,
    pub registration: RegistrationMode,
    /// How many times a chunk transfer hitting a *transient* network fault
    /// is retried (with exponential backoff charged to virtual time) before
    /// the access fails with [`remem_storage::StorageError::Transient`].
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub retry_backoff: SimDuration,
    /// Self-heal on *fatal* faults: re-lease lost stripes from surviving
    /// donors (contents lost, reported via `Device::drain_lost_ranges`) and
    /// migrate off donors that signal memory pressure. Safe only for caches
    /// whose contents can be re-fetched elsewhere — keep it off for spill
    /// files, where a silently zeroed stripe would corrupt results.
    pub self_heal: bool,
    /// Replication factor `k` of the backing remote memory. `1` (the
    /// default) is the paper's design: one copy, lost with its donor. `k ≥
    /// 2` leases every stripe from `k` distinct donor servers (broker
    /// anti-affinity), fans writes out as quorum writes that complete at
    /// `⌈(k+1)/2⌉` acks, serves reads one-sided from a preferred replica
    /// with automatic failover, and survives a donor crash without losing
    /// bytes — which makes even spill files (`self_heal: false`) safe in
    /// remote memory. With `k ≥ 2`, `self_heal` only governs whether a slot
    /// that loses *every* copy may be zero-filled and reported through
    /// `Device::drain_lost_ranges` (cache semantics) or must fail loudly
    /// (spill semantics).
    pub replicas: usize,
    /// Queue depth of the pipelined vectored path: how many chunk work
    /// requests are fanned out per doorbell in `read_vectored` /
    /// `write_vectored`. 1 degenerates to the scalar path; the paper's
    /// staging design sustains up to 128 in-flight transfers per scheduler
    /// (§4.2), so the default sits well below that.
    pub queue_depth: usize,
    /// Chaos-audit log retries/repairs/migrations are recorded into.
    pub fault_log: Option<Arc<FaultLog>>,
    /// Telemetry registry reads/writes/retries/repairs publish into (under
    /// `rfile.*`, with `rfile.read` / `rfile.write` spans so network time
    /// nests as child time).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for RFileConfig {
    fn default() -> RFileConfig {
        RFileConfig {
            protocol: Protocol::Custom,
            access: AccessMode::SyncSpin,
            registration: RegistrationMode::Staged,
            max_retries: 4,
            retry_backoff: SimDuration::from_micros(50),
            self_heal: false,
            replicas: 1,
            queue_depth: 32,
            fault_log: None,
            metrics: None,
        }
    }
}

impl RFileConfig {
    /// The paper's Custom design.
    pub fn custom() -> RFileConfig {
        RFileConfig::default()
    }

    /// Off-the-shelf SMB Direct + RamDrive: RDMA underneath, but a full file
    /// protocol treated as async I/O and no staging optimization needed
    /// (the RamDrive stack does its own buffering).
    pub fn smb_direct() -> RFileConfig {
        RFileConfig {
            protocol: Protocol::SmbDirect,
            access: AccessMode::Async,
            ..RFileConfig::default()
        }
    }

    /// Off-the-shelf SMB over TCP + RamDrive.
    pub fn smb_tcp() -> RFileConfig {
        RFileConfig {
            protocol: Protocol::SmbTcp,
            access: AccessMode::Async,
            ..RFileConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table5() {
        assert_eq!(RFileConfig::custom().protocol, Protocol::Custom);
        assert_eq!(RFileConfig::custom().access, AccessMode::SyncSpin);
        assert_eq!(RFileConfig::smb_direct().protocol, Protocol::SmbDirect);
        assert_eq!(RFileConfig::smb_direct().access, AccessMode::Async);
        assert_eq!(RFileConfig::smb_tcp().protocol, Protocol::SmbTcp);
    }
}
