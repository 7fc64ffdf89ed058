//! The remote file: Table 2's five operations over leased MRs.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use remem_broker::{BrokerError, Lease, MemoryBroker};
use remem_net::{
    Fabric, MrHandle, NetError, Protocol, PushdownRequest, ReadSge, ServerId, WorkRequest, WriteSge,
};
use remem_sim::metrics::Counter;
use remem_sim::{Clock, FaultOrigin, MetricsRegistry, SimDuration, SimTime};
use remem_storage::{Device, PartialAgg, PushdownProgram, StorageError, EVAL_PAGE_SIZE};

use crate::config::{AccessMode, RFileConfig, RegistrationMode};
use crate::staging::{StagingBuffers, SCHEDULERS, STAGING_BYTES};

/// Base backoff between self-heal (re-lease) attempts; doubles per failed
/// attempt up to [`REPAIR_BACKOFF_CAP`] so a dead cluster isn't hammered
/// with broker RPCs on every access.
const REPAIR_BACKOFF_BASE: SimDuration = SimDuration::from_millis(1);
const REPAIR_BACKOFF_CAP: SimDuration = SimDuration::from_secs(5);
/// Safety valve: fatal-fault heal attempts per I/O call before giving up.
const MAX_HEALS_PER_IO: u32 = 4;
/// Attempts to zero a freshly re-leased stripe before giving up (the range
/// is reported lost either way, so caches above discard it).
const ZERO_ATTEMPTS: u32 = 16;

/// Cached handles into an attached [`MetricsRegistry`]; resolved once at
/// create time so per-I/O mirroring of the local counters is lock-free.
struct RfMetrics {
    registry: Arc<MetricsRegistry>,
    read_ops: Arc<Counter>,
    write_ops: Arc<Counter>,
    read_bytes: Arc<Counter>,
    write_bytes: Arc<Counter>,
    read_lat: Arc<remem_sim::Histogram>,
    write_lat: Arc<remem_sim::Histogram>,
    retries: Arc<Counter>,
    repairs: Arc<Counter>,
    migrations: Arc<Counter>,
    failovers: Arc<Counter>,
    pushdown_ops: Arc<Counter>,
    /// Reply payload bytes streamed back by pushdown scans.
    pushdown_bytes: Arc<Counter>,
    pushdown_lat: Arc<remem_sim::Histogram>,
    /// Chunks that fell back to one-sided read + client eval because the
    /// donor's compute budget was exhausted.
    pushdown_fallbacks: Arc<Counter>,
    read_span: remem_sim::SpanId,
    write_span: remem_sim::SpanId,
    read_vectored_span: remem_sim::SpanId,
    write_vectored_span: remem_sim::SpanId,
    pushdown_span: remem_sim::SpanId,
}

impl RfMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> RfMetrics {
        RfMetrics {
            read_ops: registry.counter("rfile.read.ops"),
            write_ops: registry.counter("rfile.write.ops"),
            read_bytes: registry.counter("rfile.read.bytes"),
            write_bytes: registry.counter("rfile.write.bytes"),
            read_lat: registry.histogram("rfile.read.lat"),
            write_lat: registry.histogram("rfile.write.lat"),
            retries: registry.counter("rfile.retries"),
            repairs: registry.counter("rfile.repairs"),
            migrations: registry.counter("rfile.migrations"),
            failovers: registry.counter("rfile.failovers"),
            pushdown_ops: registry.counter("rfile.pushdown.ops"),
            pushdown_bytes: registry.counter("rfile.pushdown.bytes"),
            pushdown_lat: registry.histogram("rfile.pushdown.lat"),
            pushdown_fallbacks: registry.counter("rfile.pushdown.fallbacks"),
            read_span: registry.span("rfile.read"),
            write_span: registry.span("rfile.write"),
            read_vectored_span: registry.span("rfile.read_vectored"),
            write_vectored_span: registry.span("rfile.write_vectored"),
            pushdown_span: registry.span("rfile.pushdown"),
            registry,
        }
    }
}

/// One contiguous run of file bytes and the MR region backing it.
///
/// `(start, len)` boundaries are fixed for the life of the file; repair
/// swaps `mr`/`mr_off` (or splits the run into several sub-extents covering
/// the same range) when a stripe is re-leased from a different donor.
#[derive(Debug, Clone, Copy)]
struct Extent {
    /// File offset this extent starts at.
    start: u64,
    /// Bytes of file space it covers.
    len: u64,
    mr: MrHandle,
    /// Offset within `mr` where this extent's bytes begin.
    mr_off: u64,
}

/// Mutable file state behind one lock: the extent map and lease evolve
/// together during repair, so they share a guard.
struct FileState {
    extents: Vec<Extent>,
    lease: Lease,
    /// Replica groups of a `k ≥ 2` file, one per extent slot in file order:
    /// `groups[i][0]` is the preferred (read) replica backing `extents[i]`.
    /// Empty for unreplicated files.
    groups: Vec<Vec<MrHandle>>,
    /// Fencing epoch of `groups`, mirrored from the broker. A mismatch
    /// against the broker's epoch means membership changed and the extent
    /// map must be re-pointed before trusting any cached handle.
    epoch: u64,
    /// Byte ranges whose contents were lost and replaced with zeroed
    /// storage, awaiting collection via `Device::drain_lost_ranges`.
    lost_ranges: Vec<(u64, u64)>,
    /// Ranges already in `lost_ranges` and not yet drained: a stripe lost
    /// *again* while its heal is still awaiting collection must not be
    /// reported twice, or the cache above double-counts the invalidation.
    pending_heal: BTreeSet<(u64, u64)>,
    /// Earliest virtual time the next self-heal attempt is allowed.
    next_repair: SimTime,
    repair_backoff: SimDuration,
}

impl FileState {
    /// Record a lost byte range for `Device::drain_lost_ranges`, suppressing
    /// duplicate reports of a range whose previous loss is still undrained.
    fn report_lost(&mut self, start: u64, len: u64) {
        if self.pending_heal.insert((start, len)) {
            self.lost_ranges.push((start, len));
        }
    }
}

/// Outcome of [`RemoteFile::read_pushdown`]: the compacted payload plus the
/// accounting the planner and broker care about.
#[derive(Debug, Clone)]
pub struct PushdownScan {
    /// Replies streamed in extent order: concatenated row encodings, or —
    /// when the program carries an aggregate — exactly one merged
    /// `PartialAgg` encoding covering the whole span.
    pub payload: Vec<u8>,
    /// Rows the memory servers' eval engines visited.
    pub rows_scanned: u64,
    /// Rows that survived predicates (and projection).
    pub rows_matched: u64,
    /// Memory-server CPU charged across all chunks (broker-debited).
    pub server_cpu: SimDuration,
    /// Chunks evaluated on the *client* after a one-sided read because the
    /// donor's compute budget was exhausted.
    pub fallback_chunks: u64,
}

/// Folded quorum accounting for one [`RemoteFile::write_tracked`] call:
/// the per-chunk [`remem_net::QuorumWrite`] outcomes summed/maxed into the
/// numbers the WAL append path publishes. Retried chunks (failover, heal)
/// count each quorum write actually issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumAppend {
    /// Extent chunks the write was split into (quorum writes issued).
    pub chunks: u64,
    /// Total replica acks across all chunks.
    pub acks: u64,
    /// Largest quorum gate seen across chunks (0 on an unreplicated file).
    pub quorum: usize,
    /// Worst straggler lag across chunks: the longest a slow replica's NIC
    /// stayed busy past the commit ack.
    pub straggler_lag: SimDuration,
}

impl QuorumAppend {
    fn fold(&mut self, q: &remem_net::QuorumWrite) {
        self.chunks += 1;
        self.acks += q.acks as u64;
        self.quorum = self.quorum.max(q.quorum);
        self.straggler_lag = self.straggler_lag.max(q.straggler_lag);
    }
}

/// The caller's bytes behind one chunk of a vectored request: a read fills
/// `Read`, a write drains `Write`. The wave engine looks inside only where
/// it builds a work request's SGEs and where it takes them apart again.
enum Span<'b> {
    Read(&'b mut [u8]),
    Write(&'b [u8]),
}

impl<'b> Span<'b> {
    fn len(&self) -> u64 {
        match self {
            Span::Read(buf) => buf.len() as u64,
            Span::Write(data) => data.len() as u64,
        }
    }

    fn split_at(self, at: u64) -> (Span<'b>, Span<'b>) {
        match self {
            Span::Read(buf) => {
                let (head, tail) = buf.split_at_mut(at as usize);
                (Span::Read(head), Span::Read(tail))
            }
            Span::Write(data) => {
                let (head, tail) = data.split_at(at as usize);
                (Span::Write(head), Span::Write(tail))
            }
        }
    }

    /// Append this span at `offset` of `mr` to the work-request list: as
    /// one more SGE of the last WR when `coalesce`, else as a new WR.
    fn push_sge(self, wrs: &mut Vec<WorkRequest<'b>>, mr: MrHandle, offset: u64, coalesce: bool) {
        match (self, wrs.last_mut()) {
            (Span::Read(buf), Some(WorkRequest::Read(sges))) if coalesce => {
                sges.push(ReadSge { mr, offset, buf });
            }
            (Span::Write(data), Some(WorkRequest::Write(sges))) if coalesce => {
                sges.push(WriteSge { mr, offset, data });
            }
            (Span::Read(buf), _) => wrs.push(WorkRequest::Read(vec![ReadSge { mr, offset, buf }])),
            (Span::Write(data), _) => {
                wrs.push(WorkRequest::Write(vec![WriteSge { mr, offset, data }]));
            }
        }
    }
}

/// `(request, file offset, tries)` of a chunk riding in a work request.
type ChunkMeta = (usize, u64, u32);

/// One queued chunk of a vectored request: which request it belongs to and
/// the part of that request's bytes still unserved. Chunks split at extent
/// boundaries and carry their own retry schedule, so one chunk backing off
/// never stalls the rest of the batch.
struct Chunk<'b> {
    req: usize,
    file_off: u64,
    tries: u32,
    not_before: SimTime,
    span: Span<'b>,
}

impl<'b> Chunk<'b> {
    /// Take a failed work request apart into its chunks again, in SGE
    /// order, given each SGE's [`ChunkMeta`].
    fn unpack(wr: WorkRequest<'b>, meta: Vec<ChunkMeta>) -> impl Iterator<Item = Chunk<'b>> {
        let spans: Vec<Span<'b>> = match wr {
            WorkRequest::Read(sges) => sges.into_iter().map(|s| Span::Read(s.buf)).collect(),
            WorkRequest::Write(sges) => sges.into_iter().map(|s| Span::Write(s.data)).collect(),
        };
        spans
            .into_iter()
            .zip(meta)
            .map(|(span, (req, file_off, tries))| Chunk {
                req,
                file_off,
                tries,
                not_before: SimTime::ZERO,
                span,
            })
    }
}

/// A file whose bytes live in remote memory, accessed via RDMA.
///
/// | File operation (Table 2) | Implementation                     |
/// |--------------------------|------------------------------------|
/// | Create (size)            | [`RemoteFile::create`] — lease MRs |
/// | Open                     | [`RemoteFile::open`] — connect QPs |
/// | Read/Write (offset,size) | [`RemoteFile::read`] / [`write`](RemoteFile::write) — RDMA verbs |
/// | Close                    | [`RemoteFile::close`] — disconnect |
/// | Delete                   | [`RemoteFile::delete`] — release lease |
///
/// Offsets are translated to `(MR, offset-within-MR)` through a prefix
/// table; operations spanning MR boundaries are split transparently.
///
/// # Failure semantics
///
/// Transient verb failures (flaky links, brief partitions) are retried with
/// exponential backoff charged to virtual time; exhausted retries surface as
/// [`StorageError::Transient`]. Fatal failures (donor crash, lease loss)
/// surface as [`StorageError::Unavailable`] — unless `cfg.self_heal` is on,
/// in which case the file *repairs itself*: dead stripes are re-leased from
/// surviving donors (their contents lost, reported through
/// [`Device::drain_lost_ranges`]), donors signalling memory pressure are
/// migrated off during the revocation grace window (no data loss), and a
/// fully lost lease is re-acquired from scratch.
pub struct RemoteFile {
    fabric: Arc<Fabric>,
    broker: Arc<MemoryBroker>,
    local: ServerId,
    cfg: RFileConfig,
    size: u64,
    state: Mutex<FileState>,
    staging: StagingBuffers,
    is_open: AtomicBool,
    bytes_read: Counter,
    bytes_written: Counter,
    retries: Counter,
    repairs: Counter,
    migrations: Counter,
    failovers: Counter,
    metrics: Option<Arc<RfMetrics>>,
}

/// A freshly acquired lease as a file sees it: the lease, its replica epoch
/// and groups (`0` and none when unreplicated), and the extents laid over
/// it.
type Acquired = (Lease, u64, Vec<Vec<MrHandle>>, Vec<Extent>);

impl RemoteFile {
    /// **Create**: obtain a lease on MRs covering `size` bytes. Does not yet
    /// connect; call [`RemoteFile::open`] (or use [`RemoteFile::create_open`]).
    pub fn create(
        clock: &mut Clock,
        fabric: Arc<Fabric>,
        broker: Arc<MemoryBroker>,
        local: ServerId,
        size: u64,
        cfg: RFileConfig,
    ) -> Result<RemoteFile, StorageError> {
        assert!(size > 0, "cannot create an empty remote file");
        let (lease, epoch, groups, extents) =
            Self::acquire(clock, &broker, local, size, cfg.replicas)
                .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        let staging = StagingBuffers::new(SCHEDULERS, STAGING_BYTES, 8192);
        Ok(RemoteFile {
            fabric,
            broker,
            local,
            size,
            state: Mutex::new(FileState {
                extents,
                lease,
                groups,
                epoch,
                lost_ranges: Vec::new(),
                pending_heal: BTreeSet::new(),
                next_repair: SimTime::ZERO,
                repair_backoff: REPAIR_BACKOFF_BASE,
            }),
            staging,
            is_open: AtomicBool::new(false),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            retries: Counter::new(),
            repairs: Counter::new(),
            migrations: Counter::new(),
            failovers: Counter::new(),
            metrics: cfg.metrics.clone().map(|r| Arc::new(RfMetrics::new(r))),
            cfg,
        })
    }

    /// Lease `size` bytes (k-way replicated when `replicas > 1`), register
    /// the holder's renewal daemon so the lease never lapses between
    /// accesses, and lay the file out over it.
    fn acquire(
        clock: &mut Clock,
        broker: &MemoryBroker,
        local: ServerId,
        size: u64,
        replicas: usize,
    ) -> Result<Acquired, BrokerError> {
        let replicated = replicas > 1;
        let lease = if replicated {
            broker.request_replicated_lease(clock, local, size, replicas)?
        } else {
            broker.request_lease(clock, local, size)?
        };
        broker.enable_auto_renew(lease.id);
        if !replicated {
            let extents = Self::extents_from(&lease.mrs);
            return Ok((lease, 0, Vec::new(), extents));
        }
        let (epoch, groups) = broker
            .replica_view(lease.id)
            .ok_or(BrokerError::Internal("replica set missing"))?;
        let extents = Self::extents_from_groups(&groups);
        Ok((lease, epoch, groups, extents))
    }

    fn extents_from(mrs: &[MrHandle]) -> Vec<Extent> {
        let mut extents = Vec::with_capacity(mrs.len());
        let mut off = 0u64;
        for mr in mrs {
            extents.push(Extent {
                start: off,
                len: mr.len,
                mr: *mr,
                mr_off: 0,
            });
            off += mr.len;
        }
        extents
    }

    /// Replicated extent map: strictly one extent per replica group, in
    /// slot order, backed by the group's preferred (first) member at
    /// `mr_off = 0`. All members of a group have equal length, so a file
    /// offset maps to the same MR offset on every replica — failover is a
    /// handle swap, never a re-carve.
    fn extents_from_groups(groups: &[Vec<MrHandle>]) -> Vec<Extent> {
        let mut extents = Vec::with_capacity(groups.len());
        let mut off = 0u64;
        for g in groups {
            let Some(&mr) = g.first() else { continue };
            extents.push(Extent {
                start: off,
                len: mr.len,
                mr,
                mr_off: 0,
            });
            off += mr.len;
        }
        extents
    }

    /// Whether this file's stripes are k-way replicated (`cfg.replicas ≥ 2`).
    pub fn replicated(&self) -> bool {
        self.cfg.replicas > 1
    }

    /// **Open**: connect a queue pair to every donor server and register the
    /// staging buffers with the local NIC (pre-registration, paid once).
    pub fn open(&self, clock: &mut Clock) -> Result<(), StorageError> {
        if self.is_open.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let servers = self.state.lock().lease.servers();
        for server in servers {
            self.fabric
                .connect(clock, self.local, server)
                .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        }
        if self.cfg.registration == RegistrationMode::Staged {
            let staging_total = STAGING_BYTES * SCHEDULERS as u64;
            clock.advance(self.fabric.config().registration_cost(staging_total));
        }
        Ok(())
    }

    /// Create and open in one call — the common path in the engine.
    pub fn create_open(
        clock: &mut Clock,
        fabric: Arc<Fabric>,
        broker: Arc<MemoryBroker>,
        local: ServerId,
        size: u64,
        cfg: RFileConfig,
    ) -> Result<RemoteFile, StorageError> {
        let f = RemoteFile::create(clock, fabric, broker, local, size, cfg)?;
        f.open(clock)?;
        Ok(f)
    }

    /// **Close**: tear down queue pairs. The lease remains held.
    pub fn close(&self, _clock: &mut Clock) {
        if self.is_open.swap(false, Ordering::AcqRel) {
            for server in self.state.lock().lease.servers() {
                self.fabric.disconnect(self.local, server);
            }
        }
    }

    /// **Delete**: close and relinquish the lease, returning the MRs to the
    /// cluster pool.
    pub fn delete(&self, clock: &mut Clock) -> Result<(), StorageError> {
        self.close(clock);
        let id = self.state.lock().lease.id;
        self.broker
            .release(clock, id)
            .map_err(|e| StorageError::Unavailable(e.to_string()))
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn protocol(&self) -> Protocol {
        self.cfg.protocol
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }

    /// Transient-fault retries performed (successful or not).
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Stripe re-leases + full lease re-acquisitions performed.
    pub fn repairs(&self) -> u64 {
        self.repairs.get()
    }

    /// Grace-window migrations off pressured donors performed.
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// Preferred-replica failovers performed: reads (or quorum writes) that
    /// hit a dead replica and were re-pointed at a survivor after an epoch
    /// fence, without any repair or data loss.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// The current replica-fencing epoch (0 for unreplicated files).
    pub fn replica_epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Donor servers currently backing this file.
    pub fn donors(&self) -> Vec<ServerId> {
        self.state.lock().lease.servers()
    }

    /// The broker lease currently backing this file.
    pub fn lease_id(&self) -> remem_broker::LeaseId {
        self.state.lock().lease.id
    }

    /// The fabric this file's verbs run on (for callers that attribute
    /// extra telemetry to traffic they drive through the file).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    fn note(&self, at: SimTime, origin: FaultOrigin, kind: &'static str, detail: String) {
        if let Some(log) = &self.cfg.fault_log {
            log.record(at, origin, kind, detail);
        }
    }

    /// Check lease validity. The holder's background renewal daemon
    /// (registered whenever a lease is acquired) keeps the lease alive, so
    /// only revocation or release can invalidate it, never timeout expiry.
    /// Self-healing files additionally answer revocation notices here
    /// (migrating off the pressured donor inside the grace window) and
    /// re-acquire a lost lease from scratch.
    fn ensure_lease(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let id = self.state.lock().lease.id;
        if self.replicated() {
            if let Some((server, deadline)) = self.broker.revocation_notice(id) {
                if clock.now() < deadline {
                    // replicated files answer memory pressure by *shedding*
                    // the copies on the pressured donor — redundancy absorbs
                    // the loss, no bulk migration copy is needed
                    let _ = self.shed_replicas(clock, server);
                }
            }
            self.refresh_replicas();
            if !self.broker.is_valid(id, clock.now()) {
                if self.cfg.self_heal {
                    return self.try_repair(clock);
                }
                return Err(StorageError::Unavailable("remote memory lease lost".into()));
            }
            if self.broker.replication_deficit(id) > 0 {
                // best effort: reads still serve from the survivors, so a
                // heal that can't find donors yet must not fail the access
                let _ = self.try_repair(clock);
            }
            return Ok(());
        }
        if self.cfg.self_heal {
            if let Some((server, deadline)) = self.broker.revocation_notice(id) {
                if clock.now() < deadline {
                    // best effort: if migration fails the broker revokes at
                    // the deadline and the full re-lease path takes over
                    let _ = self.migrate_off(clock, server);
                }
            }
        }
        if !self.broker.is_valid(id, clock.now()) {
            if self.cfg.self_heal {
                return self.try_repair(clock);
            }
            return Err(StorageError::Unavailable("remote memory lease lost".into()));
        }
        Ok(())
    }

    /// Move this file's stripes off `server` while the lease is still alive
    /// (two-phase reclaim grace window): lease replacement MRs elsewhere,
    /// copy the still-readable bytes over, then surrender the old MRs. No
    /// data is lost and no `lost_ranges` are recorded.
    fn migrate_off(&self, clock: &mut Clock, server: ServerId) -> Result<(), StorageError> {
        let (id, old_mrs, needs) = {
            let st = self.state.lock();
            let old_mrs: Vec<MrHandle> = st
                .lease
                .mrs
                .iter()
                .filter(|m| m.server == server)
                .copied()
                .collect();
            let needs: Vec<Extent> = st
                .extents
                .iter()
                .filter(|e| e.mr.server == server)
                .copied()
                .collect();
            (st.lease.id, old_mrs, needs)
        };
        if old_mrs.is_empty() {
            return Ok(());
        }
        let bytes: u64 = old_mrs.iter().map(|m| m.len).sum();
        let replacements = self
            .broker
            .request_extra(clock, id, bytes, server)
            .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        for mr in &replacements {
            self.fabric
                .connect(clock, self.local, mr.server)
                .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        }
        let groups = Self::carve(&replacements, &needs)?;
        let fresh: Vec<Extent> = groups.iter().flatten().copied().collect();
        // copy old → new; the old MRs stay readable until surrendered
        for (old, new) in needs.iter().zip(groups.iter()) {
            debug_assert_eq!(old.start, new[0].start);
            let mut buf = vec![0u8; old.len as usize];
            self.fabric
                .read(
                    clock,
                    self.cfg.protocol,
                    self.local,
                    old.mr,
                    old.mr_off,
                    &mut buf,
                )
                .map_err(|e| StorageError::Unavailable(e.to_string()))?;
            for part in new {
                let lo = (part.start - old.start) as usize;
                let hi = lo + part.len as usize;
                self.fabric
                    // audit: allow(quorum-write, unreplicated grace-window migration copies one stripe)
                    .write(
                        clock,
                        self.cfg.protocol,
                        self.local,
                        part.mr,
                        part.mr_off,
                        &buf[lo..hi],
                    )
                    .map_err(|e| StorageError::Unavailable(e.to_string()))?;
            }
        }
        {
            let mut st = self.state.lock();
            st.extents.retain(|e| e.mr.server != server);
            st.extents.extend(fresh.iter().copied());
            st.extents.sort_by_key(|e| e.start);
            st.lease.mrs.retain(|m| m.server != server);
            st.lease.mrs.extend(replacements.iter().copied());
        }
        self.broker
            .surrender_mrs(clock, id, server, &self.fabric)
            .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        self.migrations.add(1);
        if let Some(m) = &self.metrics {
            m.migrations.incr();
        }
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.migrate",
            format!("{bytes} B migrated off {server:?}"),
        );
        Ok(())
    }

    // ─── replication (cfg.replicas ≥ 2) ──────────────────────────────────

    /// Epoch fence: pull the broker's view of this lease's replica groups
    /// and, if membership changed since we last looked, re-point every
    /// extent at its group's current preferred member and adopt the new
    /// epoch. Returns whether anything changed. Free of virtual-time cost:
    /// the fence piggybacks on lease-validity traffic the holder already
    /// pays for.
    fn refresh_replicas(&self) -> bool {
        let id = self.state.lock().lease.id;
        let Some((epoch, groups)) = self.broker.replica_view(id) else {
            return false;
        };
        let mut st = self.state.lock();
        if epoch == st.epoch {
            return false;
        }
        for (e, g) in st.extents.iter_mut().zip(&groups) {
            // an empty group is a wholly lost slot; its extent keeps the
            // stale handle until heal_replicas re-seeds it
            if let Some(&first) = g.first() {
                e.mr = first;
                e.mr_off = 0;
            }
        }
        st.lease.mrs = groups.iter().flatten().copied().collect();
        st.groups = groups;
        st.epoch = epoch;
        true
    }

    /// Local read failover without broker traffic: the failed member moves
    /// to the back of its group and the extent re-points at the next
    /// candidate. Used when a replica stops answering *before* the broker
    /// has fenced a new epoch (e.g. a network blackout the broker never
    /// sees). Returns whether the preferred member actually changed — a
    /// rotation that leaves the head in place would just retry the same
    /// failing target.
    fn rotate_preferred(&self, failed: MrHandle) -> bool {
        let mut st = self.state.lock();
        let Some(gi) = st.groups.iter().position(|g| {
            g.iter()
                .any(|m| m.server == failed.server && m.mr == failed.mr)
        }) else {
            return false;
        };
        if st.groups[gi].len() < 2 {
            return false;
        }
        let before = st.groups[gi][0];
        let Some(pos) = st.groups[gi]
            .iter()
            .position(|m| m.server == failed.server && m.mr == failed.mr)
        else {
            return false;
        };
        let mr = st.groups[gi].remove(pos);
        st.groups[gi].push(mr);
        let after = st.groups[gi][0];
        if after.server == before.server && after.mr == before.mr {
            return false;
        }
        if let Some(e) = st.extents.get_mut(gi) {
            e.mr = after;
            e.mr_off = 0;
        }
        true
    }

    /// All live replicas backing the stripe served by `preferred`, each
    /// paired with the (shared) intra-MR offset — the target list of a
    /// quorum write. Replica groups are carved 1:1 from equal-length MRs at
    /// `mr_off = 0`, so one offset addresses the same bytes on every member.
    fn replica_targets(&self, preferred: MrHandle, within: u64) -> Vec<(MrHandle, u64)> {
        let st = self.state.lock();
        for g in &st.groups {
            if g.iter()
                .any(|m| m.server == preferred.server && m.mr == preferred.mr)
            {
                return g.iter().map(|&m| (m, within)).collect();
            }
        }
        vec![(preferred, within)]
    }

    /// Memory pressure on `server` (two-phase reclaim grace window): drop
    /// this file's replicas hosted there instead of migrating bytes — the
    /// surviving copies keep every stripe readable, and the next heal
    /// restores full redundancy from unpressured donors. If any group's
    /// *sole* member sits on the pressured server, redundancy is restored
    /// first so shedding never drops the last copy.
    fn shed_replicas(&self, clock: &mut Clock, server: ServerId) -> Result<(), StorageError> {
        let id = self.state.lock().lease.id;
        let sole_on = |st: &FileState| {
            st.groups
                .iter()
                .any(|g| g.len() == 1 && g[0].server == server)
        };
        let holds = {
            let st = self.state.lock();
            if !st
                .groups
                .iter()
                .any(|g| g.iter().any(|m| m.server == server))
            {
                return Ok(());
            }
            sole_on(&st)
        };
        if holds {
            self.heal_replicas(clock)?;
            self.refresh_replicas();
            if sole_on(&self.state.lock()) {
                // can't re-replicate elsewhere: leave the grace window to
                // run out; the broker's forced revocation takes over
                return Err(StorageError::Unavailable(
                    "cannot shed the sole surviving replica".into(),
                ));
            }
        }
        self.broker
            .surrender_mrs(clock, id, server, &self.fabric)
            .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        self.refresh_replicas();
        self.migrations.add(1);
        if let Some(m) = &self.metrics {
            m.migrations.incr();
        }
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.shed",
            format!("replicas shed from {server:?} under memory pressure"),
        );
        Ok(())
    }

    /// Restore every degraded replica group to `k` members: ask the broker
    /// for replacement MRs on donors that don't already host the group,
    /// connect, seed each new member (copy from a surviving replica, or —
    /// when the whole group died — zero-fill and report the range lost),
    /// then adopt the bumped epoch. All-or-nothing on the broker side, so a
    /// failed heal leaves the file serving from the survivors it had.
    fn heal_replicas(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let id = self.state.lock().lease.id;
        if !self.cfg.self_heal {
            // spill semantics: a slot with every copy dead is unrecoverable
            // data, and must fail loudly *before* the broker hands out
            // fresh MRs that would silently read as garbage
            let lost_slot = self
                .broker
                .replica_view(id)
                .is_some_and(|(_, gs)| gs.iter().any(|g| g.is_empty()));
            if lost_slot {
                return Err(StorageError::Unavailable(
                    "replica group lost every copy; spill contents unrecoverable".into(),
                ));
            }
        }
        let repairs = self.broker.re_replicate(clock, id).map_err(|e| match e {
            BrokerError::InsufficientMemory { .. } => {
                StorageError::Unavailable(format!("re-replication short of memory: {e}"))
            }
            other => StorageError::Unavailable(other.to_string()),
        })?;
        if repairs.is_empty() {
            self.refresh_replicas();
            return Ok(());
        }
        for r in &repairs {
            for mr in &r.added {
                self.fabric
                    .connect(clock, self.local, mr.server)
                    .map_err(|e| StorageError::Unavailable(e.to_string()))?;
            }
        }
        // (file range, scratch) per repaired slot, from the fixed extent map
        let slots: Vec<(u64, u64)> = {
            let st = self.state.lock();
            repairs
                .iter()
                .map(|r| {
                    let e = &st.extents[r.slot.min(st.extents.len() - 1)];
                    (e.start, e.len)
                })
                .collect()
        };
        let mut healed_bytes = 0u64;
        for (r, &(start, len)) in repairs.iter().zip(&slots) {
            match r.source {
                Some(src) => {
                    // survivor → new member copy; the source stays live and
                    // readable, so only transient faults are retried here
                    let mut buf = vec![0u8; src.len as usize];
                    self.seed_io(clock, |clock, fab| {
                        fab.read(clock, self.cfg.protocol, self.local, src, 0, &mut buf)
                    })?;
                    for mr in &r.added {
                        self.seed_io(clock, |clock, fab| {
                            // audit: allow(quorum-write, replica seeding writes one member by design)
                            fab.write(clock, self.cfg.protocol, self.local, *mr, 0, &buf)
                        })?;
                    }
                }
                None => {
                    // the whole group died: contents are gone. self_heal was
                    // checked up front, so zero-fill and report the range.
                    let zeros = vec![0u8; len as usize];
                    for mr in &r.added {
                        self.seed_io(clock, |clock, fab| {
                            // audit: allow(quorum-write, zero-seeding a lost slot precedes quorum service)
                            fab.write(clock, self.cfg.protocol, self.local, *mr, 0, &zeros)
                        })?;
                    }
                    let end = (start + len).min(self.size);
                    if start < end {
                        self.state.lock().report_lost(start, end - start);
                    }
                }
            }
            healed_bytes += len * r.added.len() as u64;
        }
        self.refresh_replicas();
        self.repairs.add(1);
        if let Some(m) = &self.metrics {
            m.repairs.incr();
        }
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.re_replicate",
            format!(
                "{healed_bytes} B re-replicated across {} slots",
                repairs.len()
            ),
        );
        Ok(())
    }

    /// One replica-seeding transfer with transient-fault retries (same
    /// budget as stripe zeroing). A fatal fault aborts the heal — the
    /// backoff machinery of `try_repair` schedules the next attempt.
    fn seed_io<F>(&self, clock: &mut Clock, mut op: F) -> Result<(), StorageError>
    where
        F: FnMut(&mut Clock, &Fabric) -> Result<(), NetError>,
    {
        for attempt in 0..ZERO_ATTEMPTS {
            match op(clock, &self.fabric) {
                Ok(()) => return Ok(()),
                Err(NetError::Transient { .. }) if attempt + 1 < ZERO_ATTEMPTS => {
                    clock.advance(self.cfg.retry_backoff * (1 << attempt.min(6)));
                }
                Err(e) => {
                    return Err(StorageError::Unavailable(format!("replica seed: {e}")));
                }
            }
        }
        Err(StorageError::Unavailable(
            "replica seed retries exhausted".into(),
        ))
    }

    /// Re-back the file ranges in `needs` with the `replacements` MRs,
    /// splitting ranges across MR boundaries as needed. Returns the new
    /// extents grouped per need, in order. The broker is supposed to hand
    /// back at least as many bytes as were lost; if it short-changes us
    /// that is a metadata bug this layer surfaces as an error rather than
    /// a panic mid-repair.
    fn carve(
        replacements: &[MrHandle],
        needs: &[Extent],
    ) -> Result<Vec<Vec<Extent>>, StorageError> {
        let mut out = Vec::with_capacity(needs.len());
        let mut ri = 0usize;
        let mut roff = 0u64;
        for need in needs {
            let mut parts = Vec::new();
            let mut start = need.start;
            let mut rem = need.len;
            while rem > 0 {
                let Some(&mr) = replacements.get(ri) else {
                    return Err(StorageError::Unavailable(
                        "replacement MRs cover fewer bytes than the lost ranges".into(),
                    ));
                };
                let take = rem.min(mr.len - roff);
                parts.push(Extent {
                    start,
                    len: take,
                    mr,
                    mr_off: roff,
                });
                start += take;
                rem -= take;
                roff += take;
                if roff == mr.len {
                    ri += 1;
                    roff = 0;
                }
            }
            out.push(parts);
        }
        Ok(out)
    }

    /// Self-heal after a fatal fault, gated by exponential backoff:
    /// re-lease dead stripes (donor crash) or re-acquire the whole lease
    /// (revocation/expiry). Repaired ranges come back zeroed and are
    /// reported through [`Device::drain_lost_ranges`].
    fn try_repair(&self, clock: &mut Clock) -> Result<(), StorageError> {
        {
            let st = self.state.lock();
            if clock.now() < st.next_repair {
                return Err(StorageError::Unavailable(
                    "remote file awaiting repair".into(),
                ));
            }
        }
        let id = self.state.lock().lease.id;
        let outcome = if self.broker.is_valid(id, clock.now()) {
            if self.replicated() {
                self.heal_replicas(clock)
            } else {
                self.repair_stripes(clock, id)
            }
        } else {
            self.relearn_lease(clock)
        };
        let mut st = self.state.lock();
        match outcome {
            Ok(()) => {
                st.repair_backoff = REPAIR_BACKOFF_BASE;
                st.next_repair = clock.now();
                Ok(())
            }
            Err(e) => {
                st.next_repair = clock.now() + st.repair_backoff;
                st.repair_backoff = (st.repair_backoff * 2).min(REPAIR_BACKOFF_CAP);
                Err(e)
            }
        }
    }

    /// Replace the stripes the broker recorded as lost (donor crash) with
    /// fresh MRs from surviving donors, zeroing them and recording the file
    /// ranges as lost.
    fn repair_stripes(
        &self,
        clock: &mut Clock,
        id: remem_broker::LeaseId,
    ) -> Result<(), StorageError> {
        let (lost, replacements) = self.broker.repair_lease(clock, id).map_err(|e| match e {
            BrokerError::InsufficientMemory { .. } => {
                StorageError::Unavailable(format!("stripe repair short of memory: {e}"))
            }
            other => StorageError::Unavailable(other.to_string()),
        })?;
        if lost.is_empty() {
            return Ok(());
        }
        for mr in &replacements {
            self.fabric
                .connect(clock, self.local, mr.server)
                .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        }
        let (needs, fresh) = {
            let mut st = self.state.lock();
            let dead = |m: &MrHandle| lost.iter().any(|l| l.server == m.server && l.mr == m.mr);
            let needs: Vec<Extent> = st.extents.iter().filter(|e| dead(&e.mr)).copied().collect();
            let fresh: Vec<Extent> = Self::carve(&replacements, &needs)?
                .into_iter()
                .flatten()
                .collect();
            st.extents.retain(|e| !dead(&e.mr));
            st.extents.extend(fresh.iter().copied());
            st.extents.sort_by_key(|e| e.start);
            st.lease.mrs.retain(|m| !dead(m));
            st.lease.mrs.extend(replacements.iter().copied());
            for need in &needs {
                let end = (need.start + need.len).min(self.size);
                if need.start < end {
                    st.report_lost(need.start, end - need.start);
                }
            }
            (needs, fresh)
        };
        // Pool MRs carry whatever bytes the previous lessee left; zero them
        // so unwritten space still reads as zero after repair.
        self.zero_extents(clock, &fresh);
        let bytes: u64 = needs.iter().map(|e| e.len).sum();
        self.repairs.add(1);
        if let Some(m) = &self.metrics {
            m.repairs.incr();
        }
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.repair",
            format!("{bytes} B re-leased across {} stripes", needs.len()),
        );
        Ok(())
    }

    /// The lease itself is gone (revoked or expired): acquire a fresh one
    /// covering the whole file. All contents are lost.
    fn relearn_lease(&self, clock: &mut Clock) -> Result<(), StorageError> {
        let (lease, epoch, groups, extents) = Self::acquire(
            clock,
            &self.broker,
            self.local,
            self.size,
            self.cfg.replicas,
        )
        .map_err(|e| StorageError::Unavailable(format!("re-lease failed: {e}")))?;
        for server in lease.servers() {
            self.fabric
                .connect(clock, self.local, server)
                .map_err(|e| StorageError::Unavailable(e.to_string()))?;
        }
        // every member of every group starts with pool garbage: zero the
        // preferred extents below, plus the non-preferred members here
        let spares: Vec<Extent> = groups
            .iter()
            .zip(&extents)
            .flat_map(|(g, e)| {
                g.iter().skip(1).map(|&mr| Extent {
                    start: e.start,
                    len: e.len,
                    mr,
                    mr_off: 0,
                })
            })
            .collect();
        {
            let mut st = self.state.lock();
            st.extents = extents.clone();
            st.lease = lease;
            st.groups = groups;
            st.epoch = epoch;
            st.lost_ranges.clear();
            st.pending_heal.clear();
            st.report_lost(0, self.size);
        }
        self.zero_extents(clock, &extents);
        self.zero_extents(clock, &spares);
        self.repairs.add(1);
        if let Some(m) = &self.metrics {
            m.repairs.incr();
        }
        self.note(
            clock.now(),
            FaultOrigin::Recovery,
            "rfile.repair",
            format!("full re-lease of {} B", self.size),
        );
        Ok(())
    }

    /// Zero freshly (re-)leased extents, retrying through transient faults.
    /// Persistent failure is recorded but not fatal: the covering ranges are
    /// already in `lost_ranges`, so caches above discard them regardless.
    fn zero_extents(&self, clock: &mut Clock, extents: &[Extent]) {
        // one scratch buffer sized for the largest extent, reused across the
        // loop — repair must not allocate per stripe
        let max = extents.iter().map(|e| e.len).max().unwrap_or(0) as usize;
        let zeros = vec![0u8; max];
        for e in extents {
            let zeros = &zeros[..e.len as usize];
            let mut ok = false;
            for attempt in 0..ZERO_ATTEMPTS {
                match self
                    .fabric
                    // audit: allow(quorum-write, zeroing one freshly leased stripe before it serves I/O)
                    .write(clock, self.cfg.protocol, self.local, e.mr, e.mr_off, zeros)
                {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err(NetError::Transient { .. }) => {
                        clock.advance(self.cfg.retry_backoff * (1 << attempt.min(6)));
                    }
                    Err(_) => break,
                }
            }
            if !ok {
                self.note(
                    clock.now(),
                    FaultOrigin::Observed,
                    "rfile.zero_failed",
                    format!("stripe at {} ({} B) left unzeroed", e.start, e.len),
                );
            }
        }
    }

    /// Translate `offset` to `(backing MR, offset within it, bytes this
    /// extent can serve)` under the state lock.
    fn locate(&self, offset: u64, want: u64) -> (MrHandle, u64, u64) {
        let st = self.state.lock();
        let idx = match st.extents.binary_search_by(|e| e.start.cmp(&offset)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let e = &st.extents[idx];
        let within = offset - e.start;
        (e.mr, e.mr_off + within, (e.len - within).min(want))
    }

    /// Per-chunk local preparation cost and staging-slot gating.
    fn prepare_transfer(&self, clock: &mut Clock, bytes: u64) {
        match self.cfg.registration {
            RegistrationMode::Staged => {
                // estimate the slot occupancy: memcpy + unloaded wire time
                let cfg = self.fabric.config();
                let est = cfg.memcpy(bytes)
                    + cfg.propagation
                    + SimDuration::for_transfer(bytes, cfg.nic_bandwidth);
                self.staging.acquire_slot(clock, est);
                clock.advance(cfg.memcpy(bytes));
            }
            RegistrationMode::Dynamic => {
                // register the caller's buffer on demand — the expensive
                // alternative of §4.1.4, kept for the ablation bench
                clock.advance(self.fabric.config().registration_cost(bytes));
            }
        }
    }

    /// The asynchronous-I/O penalty when the Custom protocol is driven in
    /// async or adaptive mode (§4.1.3). The SMB protocols already include
    /// it in their cost model.
    fn access_mode_penalty(&self, clock: &mut Clock, op_duration: SimDuration) {
        if self.cfg.protocol != Protocol::Custom {
            return;
        }
        let cfg = self.fabric.config();
        match self.cfg.access {
            AccessMode::SyncSpin => {}
            AccessMode::Async => clock.advance(cfg.async_completion - cfg.sync_completion),
            AccessMode::Adaptive { spin_budget } => {
                // spun through the budget; if the transfer outlasted it, the
                // scheduler yielded and the completion pays the switch +
                // re-schedule delay
                if op_duration > spin_budget {
                    clock.advance(cfg.async_completion - cfg.sync_completion);
                }
            }
        }
    }

    /// `[offset, offset+len)` must lie inside the file — the one bounds
    /// check of the scalar loop and the wave engine.
    fn check_bounds(&self, offset: u64, len: u64) -> Result<(), StorageError> {
        if offset + len > self.size {
            return Err(StorageError::OutOfBounds {
                offset,
                len,
                capacity: self.size,
            });
        }
        Ok(())
    }

    /// Log that the chunk at `file_off` went through after `tries` transient
    /// retries (nothing to log on a first-attempt success).
    fn note_retried_ok(&self, at: SimTime, file_off: u64, tries: u32) {
        if tries > 0 {
            self.note(
                at,
                FaultOrigin::Recovery,
                "rfile.retry",
                format!("chunk at {file_off} ok after {tries} retries"),
            );
        }
    }

    /// The transient rung of the fault ladder: the chunk at `file_off` just
    /// failed its `tries`-th attempt against `server`. Counts the retry and
    /// returns the backoff to wait before the next attempt or, once
    /// `max_retries` is spent, logs the give-up and returns the error.
    fn transient_retry(
        &self,
        at: SimTime,
        file_off: u64,
        tries: u32,
        server: ServerId,
        reason: &str,
    ) -> Result<SimDuration, StorageError> {
        if tries > self.cfg.max_retries {
            self.note(
                at,
                FaultOrigin::Observed,
                "rfile.retry",
                format!(
                    "chunk at {file_off} gave up after {} retries",
                    self.cfg.max_retries
                ),
            );
            return Err(StorageError::Transient(format!(
                "{} retries exhausted reaching {server:?}: {reason}",
                self.cfg.max_retries
            )));
        }
        self.retries.add(1);
        if let Some(m) = &self.metrics {
            m.retries.incr();
        }
        Ok(self.cfg.retry_backoff * (1 << (tries - 1)))
    }

    /// The scalar chunk loop: locate, charge, issue, and retry/fail-over/
    /// heal until `[offset, offset+len)` is covered. `staged` charges the
    /// per-chunk staging-buffer preparation (true for reads/writes that
    /// move the whole chunk; pushdown charges its own reply-sized copy).
    ///
    /// Chunks run one after another rather than as a one-op wave: a retried
    /// chunk holds its place instead of queueing behind its own tail, the
    /// access-mode penalty is paid per successful chunk, and no doorbell is
    /// rung, so the `fabric.batch.*` counters see vectored traffic only.
    fn io<F>(
        &self,
        clock: &mut Clock,
        offset: u64,
        len: u64,
        staged: bool,
        mut chunk_op: F,
    ) -> Result<(), StorageError>
    where
        F: FnMut(&mut Clock, MrHandle, u64, u64, u64) -> Result<(), NetError>,
    {
        if !self.is_open.load(Ordering::Acquire) {
            return Err(StorageError::Unavailable("file is not open".into()));
        }
        self.check_bounds(offset, len)?;
        self.ensure_lease(clock)?;
        let mut cur = offset;
        let mut done = 0u64;
        let mut transient_tries = 0u32;
        let mut heals = 0u32;
        while done < len {
            // re-locate every attempt: a repair may have swapped the backing
            let (mr, mr_off, chunk) = self.locate(cur, len - done);
            if staged {
                self.prepare_transfer(clock, chunk);
            }
            let issued = clock.now();
            match chunk_op(clock, mr, mr_off, done, chunk) {
                Ok(()) => {
                    self.note_retried_ok(clock.now(), cur, transient_tries);
                    transient_tries = 0;
                    self.access_mode_penalty(clock, clock.now().since(issued));
                    cur += chunk;
                    done += chunk;
                }
                Err(NetError::Transient { server, reason }) => {
                    transient_tries += 1;
                    let wait =
                        self.transient_retry(clock.now(), cur, transient_tries, server, reason)?;
                    clock.advance(wait);
                }
                Err(fatal) => self.heal_once(clock, &mut heals, &fatal, mr)?,
            }
        }
        Ok(())
    }

    /// **Read** `buf.len()` bytes at `offset` via RDMA.
    pub fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let len = buf.len() as u64;
        let fabric = Arc::clone(&self.fabric);
        let proto = self.cfg.protocol;
        let local = self.local;
        let t0 = clock.now();
        let span = self
            .metrics
            .as_ref()
            .map(|m| m.registry.span_enter_id(m.read_span, t0));
        let res = self.io(
            clock,
            offset,
            len,
            true,
            |clock, handle, within, done, chunk| {
                let dst = &mut buf[done as usize..(done + chunk) as usize];
                fabric.read(clock, proto, local, handle, within, dst)
            },
        );
        if let Some(m) = &self.metrics {
            if let Some(span) = span {
                m.registry.span_exit(span, clock.now());
            }
            if res.is_ok() {
                m.read_ops.incr();
                m.read_bytes.add(len);
                m.read_lat.record(clock.now().since(t0));
            }
        }
        if res.is_ok() {
            self.bytes_read.add(len);
        }
        res
    }

    /// **Pushdown read**: run `program` over the whole-page span
    /// `[offset, offset + len)` *near the memory* and stream back only the
    /// compacted replies, in extent order.
    ///
    /// One RPC per extent chunk, routed to the preferred replica member and
    /// failed over on an epoch bump exactly like [`RemoteFile::read`]
    /// (transient faults are retried with backoff, fatal ones re-point or
    /// re-lease). Each successful chunk debits the donor's broker compute
    /// account; a donor whose budget is exhausted is skipped — that chunk
    /// falls back to a one-sided read with the same eval run on the
    /// client's own core, so results are identical either way.
    pub fn read_pushdown(
        &self,
        clock: &mut Clock,
        offset: u64,
        len: u64,
        program: &PushdownProgram,
    ) -> Result<PushdownScan, StorageError> {
        let page = EVAL_PAGE_SIZE as u64;
        if len == 0 || !offset.is_multiple_of(page) || !len.is_multiple_of(page) {
            return Err(StorageError::Unavailable(format!(
                "pushdown span [{offset}, {}) is not whole 8 KiB pages",
                offset + len
            )));
        }
        let fabric = Arc::clone(&self.fabric);
        let proto = self.cfg.protocol;
        let local = self.local;
        let t0 = clock.now();
        let span = self
            .metrics
            .as_ref()
            .map(|m| m.registry.span_enter_id(m.pushdown_span, t0));
        #[derive(Default)]
        struct ChunkOut {
            payload: Vec<u8>,
            rows_scanned: u64,
            rows_matched: u64,
            server_cpu: SimDuration,
            fallback: bool,
        }
        // keyed by position in the span: a retried chunk overwrites its own
        // slot instead of duplicating, and the fold below runs in file order
        let mut chunks: std::collections::BTreeMap<u64, ChunkOut> =
            std::collections::BTreeMap::new();
        let res = self.io(
            clock,
            offset,
            len,
            false,
            |clock, handle, within, done, chunk| {
                let cfg = fabric.config();
                let mut out = ChunkOut::default();
                if self.broker.pushdown_admit(handle.server) {
                    let reply = fabric.pushdown(
                        clock,
                        proto,
                        local,
                        &PushdownRequest {
                            handle,
                            offset: within,
                            len: chunk,
                            program,
                        },
                    )?;
                    self.broker
                        .note_pushdown(handle.server, reply.server_cpu, reply.rows_scanned);
                    // land the (small) reply in the client's result buffer
                    clock.advance(cfg.memcpy(reply.payload.len() as u64));
                    out.payload = reply.payload;
                    out.rows_scanned = reply.rows_scanned;
                    out.rows_matched = reply.rows_matched;
                    out.server_cpu = reply.server_cpu;
                } else {
                    // compute budget exhausted: ship the pages and eval here —
                    // same result, full wire bytes, eval burned on our own core
                    let mut span_bytes = vec![0u8; chunk as usize];
                    fabric.read(clock, proto, local, handle, within, &mut span_bytes)?;
                    clock.advance(cfg.memcpy(chunk));
                    let mut payload = Vec::new();
                    let stats = remem_storage::eval_pages(&span_bytes, program, &mut payload)
                        .map_err(|_| NetError::BadPushdown {
                            reason: "span is not a whole number of 8 KiB pages",
                        })?;
                    clock.advance(cfg.pushdown_eval_cost(stats.rows_scanned, chunk));
                    out.payload = payload;
                    out.rows_scanned = stats.rows_scanned;
                    out.rows_matched = stats.rows_matched;
                    out.fallback = true;
                }
                chunks.insert(done, out);
                Ok(())
            },
        );
        let scan = res.map(|()| {
            let mut scan = PushdownScan {
                payload: Vec::new(),
                rows_scanned: 0,
                rows_matched: 0,
                server_cpu: SimDuration::ZERO,
                fallback_chunks: 0,
            };
            let mut agg: Option<PartialAgg> = None;
            for out in chunks.values() {
                scan.rows_scanned += out.rows_scanned;
                scan.rows_matched += out.rows_matched;
                scan.server_cpu += out.server_cpu;
                scan.fallback_chunks += out.fallback as u64;
                if program.aggregate.is_some() {
                    // merge partials in extent order — deterministic floats
                    if let Some(part) = PartialAgg::decode(&out.payload) {
                        match &mut agg {
                            Some(a) => a.merge(&part),
                            None => agg = Some(part),
                        }
                    }
                } else {
                    scan.payload.extend_from_slice(&out.payload);
                }
            }
            if let Some(a) = agg {
                a.encode(&mut scan.payload);
            }
            scan
        });
        if let Some(m) = &self.metrics {
            if let Some(span) = span {
                m.registry.span_exit(span, clock.now());
            }
            if let Ok(scan) = &scan {
                m.pushdown_ops.incr();
                m.pushdown_bytes.add(scan.payload.len() as u64);
                m.pushdown_fallbacks.add(scan.fallback_chunks);
                m.pushdown_lat.record(clock.now().since(t0));
            }
        }
        if let Ok(scan) = &scan {
            self.bytes_read.add(scan.payload.len() as u64);
        }
        scan
    }

    /// **Write** `data` at `offset` via RDMA.
    pub fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.write_impl(clock, offset, data, None).map(|_| ())
    }

    /// **Write** `data` at `offset` and return the folded quorum accounting.
    ///
    /// Same data path and cost model as [`RemoteFile::write`]; the extra
    /// return value carries the per-chunk [`QuorumWrite`] outcomes folded
    /// into one [`QuorumAppend`], which the WAL append path feeds into its
    /// `wal.quorum.*` telemetry. On an unreplicated file the accounting is
    /// all-zero (chunks still count).
    ///
    /// [`QuorumWrite`]: remem_net::QuorumWrite
    pub fn write_tracked(
        &self,
        clock: &mut Clock,
        offset: u64,
        data: &[u8],
    ) -> Result<QuorumAppend, StorageError> {
        self.write_impl(clock, offset, data, Some(QuorumAppend::default()))
            .map(|acc| acc.unwrap_or_default())
    }

    fn write_impl(
        &self,
        clock: &mut Clock,
        offset: u64,
        data: &[u8],
        mut track: Option<QuorumAppend>,
    ) -> Result<Option<QuorumAppend>, StorageError> {
        let len = data.len() as u64;
        let fabric = Arc::clone(&self.fabric);
        let proto = self.cfg.protocol;
        let local = self.local;
        let t0 = clock.now();
        let span = self
            .metrics
            .as_ref()
            .map(|m| m.registry.span_enter_id(m.write_span, t0));
        let replicated = self.replicated();
        let res = self.io(
            clock,
            offset,
            len,
            true,
            |clock, handle, within, done, chunk| {
                let src = &data[done as usize..(done + chunk) as usize];
                if replicated {
                    // fan out to every live replica; the op completes at the
                    // quorum ack, stragglers catch up in the background
                    let targets = self.replica_targets(handle, within);
                    let q = fabric.write_quorum(clock, proto, local, &targets, src)?;
                    if let Some(acc) = track.as_mut() {
                        acc.fold(&q);
                    }
                    Ok(())
                } else {
                    if let Some(acc) = track.as_mut() {
                        acc.chunks += 1;
                    }
                    // audit: allow(quorum-write, unreplicated file: the single copy is the quorum)
                    fabric.write(clock, proto, local, handle, within, src)
                }
            },
        );
        if let Some(m) = &self.metrics {
            if let Some(span) = span {
                m.registry.span_exit(span, clock.now());
            }
            if res.is_ok() {
                m.write_ops.incr();
                m.write_bytes.add(len);
                m.write_lat.record(clock.now().since(t0));
            }
        }
        if res.is_ok() {
            self.bytes_written.add(len);
        }
        res.map(|()| track)
    }

    /// Validate the batch shape and lease once up front. Requests that fail
    /// validation get their error slot set and are skipped by the wave
    /// engine; a dead lease (or closed file) fails the whole batch. Returns
    /// whether any request may proceed.
    fn vectored_preflight(
        &self,
        clock: &mut Clock,
        shape: &[(u64, u64)],
        results: &mut [Result<(), StorageError>],
    ) -> bool {
        if !self.is_open.load(Ordering::Acquire) {
            for r in results.iter_mut() {
                *r = Err(StorageError::Unavailable("file is not open".into()));
            }
            return false;
        }
        for (r, &(offset, len)) in results.iter_mut().zip(shape) {
            *r = self.check_bounds(offset, len);
        }
        if let Err(e) = self.ensure_lease(clock) {
            for r in results.iter_mut() {
                if r.is_ok() {
                    *r = Err(e.clone());
                }
            }
            return false;
        }
        results.iter().any(|r| r.is_ok())
    }

    /// The fatal rung of the fault ladder, shared by the scalar loop and the
    /// wave engine: a verb against `failed` died with `fatal`. Without
    /// self-heal or replicas that is the end. Otherwise fail over to a
    /// survivor the broker already fenced (free), else spend one of
    /// [`MAX_HEALS_PER_IO`] heal attempts: rotate blind to a peer replica,
    /// or re-lease the dead stripes. `Ok` means "retry the chunk".
    fn heal_once(
        &self,
        clock: &mut Clock,
        heals: &mut u32,
        fatal: &NetError,
        failed: MrHandle,
    ) -> Result<(), StorageError> {
        if !self.cfg.self_heal && !self.replicated() {
            return Err(StorageError::Unavailable(fatal.to_string()));
        }
        // failover before repair: if the broker already fenced a new replica
        // epoch, re-pointing at a survivor is enough — no re-lease, no data
        // loss, no heal budget spent
        if self.replicated() && self.refresh_replicas() {
            self.failovers.add(1);
            if let Some(m) = &self.metrics {
                m.failovers.incr();
            }
            self.note(
                clock.now(),
                FaultOrigin::Recovery,
                "rfile.failover",
                format!("re-pointed at surviving replica after: {fatal}"),
            );
            return Ok(());
        }
        *heals += 1;
        if *heals > MAX_HEALS_PER_IO {
            return Err(StorageError::Unavailable(format!(
                "giving up after {MAX_HEALS_PER_IO} repair attempts: {fatal}"
            )));
        }
        // blind rotation (broker epoch unchanged, e.g. blackout): costs heal
        // budget so an all-dead group can't spin
        if self.replicated() && self.rotate_preferred(failed) {
            self.failovers.add(1);
            if let Some(m) = &self.metrics {
                m.failovers.incr();
            }
            self.note(
                clock.now(),
                FaultOrigin::Recovery,
                "rfile.failover",
                format!("rotated to peer replica after: {fatal}"),
            );
            return Ok(());
        }
        self.note(
            clock.now(),
            FaultOrigin::Observed,
            "rfile.fatal",
            fatal.to_string(),
        );
        self.ensure_lease(clock)?;
        self.try_repair(clock)
    }

    /// **Vectored read**: fan the request list out across stripes and donor
    /// servers in waves of up to `cfg.queue_depth` chunks, one doorbell per
    /// wave. Chunks landing in the same MR at adjacent offsets coalesce into
    /// a single multi-SGE work request (one op overhead for the run), and a
    /// chunk backing off after a transient fault only costs wall time when
    /// nothing else is ready to issue — retries overlap other in-flight work.
    /// Results come back per request; one request failing never poisons its
    /// neighbours.
    pub fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        let spans = reqs
            .iter_mut()
            .map(|(offset, buf)| (*offset, Span::Read(buf)))
            .collect();
        self.vectored(clock, false, spans)
    }

    /// **Vectored write**: the gather-side twin of
    /// [`RemoteFile::read_vectored`] — same wave engine, with adjacent dirty
    /// ranges coalesced into single multi-SGE work requests.
    pub fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        if self.replicated() {
            // every chunk of a replicated file must reach a write quorum of
            // its replica group; route through the scalar quorum path per
            // request (quorum-aware vectored doorbells are future work)
            return reqs
                .iter()
                .map(|(off, data)| self.write(clock, *off, data))
                .collect();
        }
        let spans = reqs
            .iter()
            .map(|&(offset, data)| (offset, Span::Write(data)))
            .collect();
        self.vectored(clock, true, spans)
    }

    /// The front half shared by both vectored calls: span, preflight, queue
    /// the non-empty valid requests for the wave engine, then account the
    /// requests that succeeded.
    fn vectored<'b>(
        &self,
        clock: &mut Clock,
        write: bool,
        reqs: Vec<(u64, Span<'b>)>,
    ) -> Vec<Result<(), StorageError>> {
        let t0 = clock.now();
        let span = self.metrics.as_ref().map(|m| {
            let id = if write {
                m.write_vectored_span
            } else {
                m.read_vectored_span
            };
            m.registry.span_enter_id(id, t0)
        });
        let shape: Vec<(u64, u64)> = reqs.iter().map(|(o, s)| (*o, s.len())).collect();
        let mut results: Vec<Result<(), StorageError>> = vec![Ok(()); reqs.len()];
        if self.vectored_preflight(clock, &shape, &mut results) {
            let mut queue: VecDeque<Chunk<'b>> = reqs
                .into_iter()
                .enumerate()
                .filter(|(i, (_, s))| results[*i].is_ok() && s.len() > 0)
                .map(|(req, (file_off, span))| Chunk {
                    req,
                    file_off,
                    tries: 0,
                    not_before: SimTime::ZERO,
                    span,
                })
                .collect();
            self.drive_waves(clock, &mut queue, &mut results);
        }
        let (mut ok_n, mut ok_bytes) = (0u64, 0u64);
        for (r, &(_, len)) in results.iter().zip(&shape) {
            if r.is_ok() {
                ok_n += 1;
                ok_bytes += len;
            }
        }
        let local = if write {
            &self.bytes_written
        } else {
            &self.bytes_read
        };
        local.add(ok_bytes);
        if let Some(m) = &self.metrics {
            if let Some(span) = span {
                m.registry.span_exit(span, clock.now());
            }
            let (ops, bytes, lat) = if write {
                (&m.write_ops, &m.write_bytes, &m.write_lat)
            } else {
                (&m.read_ops, &m.read_bytes, &m.read_lat)
            };
            ops.add(ok_n);
            bytes.add(ok_bytes);
            lat.record(clock.now().since(t0));
        }
        results
    }

    /// The wave engine: issue `queue` in waves of up to `cfg.queue_depth`
    /// ready chunks, one doorbell per wave, until every chunk has landed or
    /// its request has failed. Each wave re-locates its chunks (a repair may
    /// have swapped the backing), splits them at extent boundaries, and
    /// coalesces MR-adjacent ones into multi-SGE work requests. Failed work
    /// requests climb the same fault ladder as the scalar loop: transient
    /// ones re-queue their chunks behind a backoff, fatal ones heal once per
    /// wave and re-queue.
    fn drive_waves<'b>(
        &self,
        clock: &mut Clock,
        queue: &mut VecDeque<Chunk<'b>>,
        results: &mut [Result<(), StorageError>],
    ) {
        let qd = self.cfg.queue_depth.max(1);
        let mut heals = 0u32;
        loop {
            // drop chunks whose request already failed through a sibling
            queue.retain(|c| results[c.req].is_ok());
            // only when *every* queued chunk is backing off (the earliest
            // deadline is in the future) does backoff cost virtual time —
            // otherwise retries hide behind other waves
            let Some(t) = queue.iter().map(|c| c.not_before).min() else {
                return;
            };
            if t > clock.now() {
                clock.advance_to(t);
            }
            // carve one wave of ready chunks, splitting at extent boundaries
            let mut wave: Vec<(MrHandle, u64, Chunk<'b>)> = Vec::new();
            let mut scan = queue.len();
            while wave.len() < qd && scan > 0 {
                scan -= 1;
                let Some(chunk) = queue.pop_front() else {
                    break;
                };
                if chunk.not_before > clock.now() {
                    queue.push_back(chunk);
                    continue;
                }
                let (mr, mr_off, avail) = self.locate(chunk.file_off, chunk.span.len());
                if avail < chunk.span.len() {
                    let (head, tail) = chunk.span.split_at(avail);
                    queue.push_front(Chunk {
                        file_off: chunk.file_off + avail,
                        span: tail,
                        ..chunk
                    });
                    wave.push((
                        mr,
                        mr_off,
                        Chunk {
                            span: head,
                            ..chunk
                        },
                    ));
                } else {
                    wave.push((mr, mr_off, chunk));
                }
            }
            if wave.is_empty() {
                continue;
            }
            // local prep (staging memcpy / dynamic registration) serializes
            // on the issuing scheduler, exactly as in the scalar path
            for (_, _, c) in &wave {
                self.prepare_transfer(clock, c.span.len());
            }
            // coalesce MR-adjacent chunks into multi-SGE WRs: a sequential
            // readahead batch or a run of dirty neighbours becomes one WR.
            // Each WR keeps its first MR (the heal target) and its chunks'
            // `(request, file offset, tries)`.
            wave.sort_by_key(|&(mr, mr_off, _)| (mr.server.0, mr.mr, mr_off));
            let mut wrs: Vec<WorkRequest<'b>> = Vec::new();
            let mut metas: Vec<(MrHandle, Vec<ChunkMeta>)> = Vec::new();
            let mut end = None;
            for (mr, mr_off, c) in wave {
                let coalesce = end == Some((mr.server, mr.mr, mr_off));
                end = Some((mr.server, mr.mr, mr_off + c.span.len()));
                c.span.push_sge(&mut wrs, mr, mr_off, coalesce);
                match metas.last_mut() {
                    Some((_, meta)) if coalesce => meta.push((c.req, c.file_off, c.tries)),
                    _ => metas.push((mr, vec![(c.req, c.file_off, c.tries)])),
                }
            }
            let issued = clock.now();
            let comps = self
                .fabric
                .execute_batch(clock, self.cfg.protocol, self.local, &mut wrs);
            self.access_mode_penalty(clock, clock.now().since(issued));
            let mut healed_this_wave = false;
            for ((wr, (failed, meta)), comp) in wrs.into_iter().zip(metas).zip(comps) {
                let fatal = match comp.result {
                    Ok(()) => {
                        for (_, file_off, tries) in meta {
                            self.note_retried_ok(clock.now(), file_off, tries);
                        }
                        continue;
                    }
                    Err(e) => e,
                };
                let chunks = Chunk::unpack(wr, meta);
                if let NetError::Transient { server, reason } = fatal {
                    for mut c in chunks {
                        c.tries += 1;
                        match self.transient_retry(clock.now(), c.file_off, c.tries, server, reason)
                        {
                            Ok(wait) => {
                                c.not_before = clock.now() + wait;
                                queue.push_back(c);
                            }
                            Err(e) => results[c.req] = Err(e),
                        }
                    }
                    continue;
                }
                // one heal per wave covers every fatal WR in it: the repair
                // already replaced all the dead stripes
                let heal = if healed_this_wave {
                    Ok(())
                } else {
                    self.heal_once(clock, &mut heals, &fatal, failed)
                };
                match heal {
                    Ok(()) => {
                        healed_this_wave = true;
                        for mut c in chunks {
                            c.not_before = clock.now();
                            queue.push_back(c);
                        }
                    }
                    Err(e) => {
                        for c in chunks {
                            results[c.req] = Err(e.clone());
                        }
                    }
                }
            }
        }
    }
}

impl Device for RemoteFile {
    fn read(&self, clock: &mut Clock, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        RemoteFile::read(self, clock, offset, buf)
    }

    fn write(&self, clock: &mut Clock, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        RemoteFile::write(self, clock, offset, data)
    }

    fn read_vectored(
        &self,
        clock: &mut Clock,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Vec<Result<(), StorageError>> {
        RemoteFile::read_vectored(self, clock, reqs)
    }

    fn write_vectored(
        &self,
        clock: &mut Clock,
        reqs: &[(u64, &[u8])],
    ) -> Vec<Result<(), StorageError>> {
        RemoteFile::write_vectored(self, clock, reqs)
    }

    fn capacity(&self) -> u64 {
        self.size
    }

    fn label(&self) -> String {
        format!("RemoteMemory[{}]", self.cfg.protocol.label())
    }

    fn drain_lost_ranges(&self) -> Vec<(u64, u64)> {
        let mut st = self.state.lock();
        st.pending_heal.clear();
        std::mem::take(&mut st.lost_ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_broker::{BrokerConfig, MetaStore, PlacementPolicy};
    use remem_net::{FaultInjector, NetConfig};

    const MR: u64 = 64 * 1024;

    struct Cluster {
        fabric: Arc<Fabric>,
        broker: Arc<MemoryBroker>,
        db: ServerId,
        donors: Vec<ServerId>,
    }

    fn cluster(donors: usize, mrs_each: usize, placement: PlacementPolicy) -> Cluster {
        let fabric = Arc::new(Fabric::new(NetConfig::default()));
        let db = fabric.add_server("DB1", 20);
        let broker = Arc::new(MemoryBroker::new(
            BrokerConfig {
                placement,
                ..Default::default()
            },
            MetaStore::new(),
        ));
        let mut ids = Vec::new();
        for i in 0..donors {
            let m = fabric.add_server(format!("M{i}"), 20);
            let mut pc = Clock::new();
            remem_broker::MemoryProxy::new(m, MR)
                .donate(&mut pc, &fabric, &broker, mrs_each as u64 * MR)
                .unwrap();
            ids.push(m);
        }
        Cluster {
            fabric,
            broker,
            db,
            donors: ids,
        }
    }

    fn mk_file(c: &Cluster, size: u64, cfg: RFileConfig, clock: &mut Clock) -> RemoteFile {
        RemoteFile::create_open(
            clock,
            Arc::clone(&c.fabric),
            Arc::clone(&c.broker),
            c.db,
            size,
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_spanning_mr_boundaries() {
        let c = cluster(2, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        assert!(
            f.donors().len() >= 2,
            "spread placement should use both donors"
        );
        // write a pattern crossing three MR boundaries
        let data: Vec<u8> = (0..(3 * MR) as usize).map(|i| (i % 255) as u8).collect();
        let offset = MR / 2;
        f.write(&mut clock, offset, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, offset, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(f.bytes_written(), 3 * MR);
        assert_eq!(f.bytes_read(), 3 * MR);
    }

    #[test]
    fn reads_of_unwritten_space_are_zero() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let mut buf = vec![1u8; 512];
        f.read(&mut clock, 100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            f.read(&mut clock, MR - 32, &mut buf),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn closed_file_rejects_io_and_reopen_works() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        f.close(&mut clock);
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
        f.open(&mut clock).unwrap();
        assert!(f.read(&mut clock, 0, &mut buf).is_ok());
    }

    #[test]
    fn delete_returns_memory_to_the_pool() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, 2 * MR, RFileConfig::custom(), &mut clock);
        assert_eq!(c.broker.store().available_bytes(), 0);
        f.delete(&mut clock).unwrap();
        assert_eq!(c.broker.store().available_bytes(), 2 * MR);
    }

    #[test]
    fn donor_failure_surfaces_as_unavailable() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        c.fabric.server(c.donors[0]).unwrap().fail();
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn lease_revocation_surfaces_as_unavailable() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, 2 * MR, RFileConfig::custom(), &mut clock);
        // donor comes under memory pressure and reclaims everything
        c.broker.reclaim(&c.fabric, c.donors[0], 2 * MR);
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn auto_renew_keeps_long_lived_files_alive() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let lease_dur = c.broker.config().lease_duration;
        let mut buf = [0u8; 8];
        // access the file over 10 lease windows; auto-renew must keep it valid
        for _ in 0..100 {
            clock.advance(lease_dur / 10 * 9 / 10);
            f.read(&mut clock, 0, &mut buf).unwrap();
        }
    }

    #[test]
    fn staged_is_cheaper_than_dynamic_for_page_io() {
        let page = vec![0u8; 8192];
        let mut staged_t = SimDuration::ZERO;
        let mut dynamic_t = SimDuration::ZERO;
        for (mode, out) in [
            (RegistrationMode::Staged, &mut staged_t),
            (RegistrationMode::Dynamic, &mut dynamic_t),
        ] {
            let c = cluster(1, 4, PlacementPolicy::Pack);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                registration: mode,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, 2 * MR, cfg, &mut clock);
            let t0 = clock.now();
            for i in 0..16u64 {
                f.write(&mut clock, i * 8192, &page).unwrap();
            }
            *out = clock.now().since(t0);
        }
        // §4.1.4: staging (memcpy 2us) beats dynamic registration (50us)
        assert!(
            dynamic_t.as_nanos() > staged_t.as_nanos() * 2,
            "dynamic {dynamic_t} should be >2x staged {staged_t}"
        );
    }

    #[test]
    fn sync_spin_beats_async_for_custom() {
        let mut lat = Vec::new();
        for access in [AccessMode::SyncSpin, AccessMode::Async] {
            let c = cluster(1, 4, PlacementPolicy::Pack);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                access,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, MR, cfg, &mut clock);
            let t0 = clock.now();
            let mut buf = vec![0u8; 8192];
            f.read(&mut clock, 0, &mut buf).unwrap();
            lat.push(clock.now().since(t0));
        }
        // §4.1.3: the async penalty is comparable to the access itself
        assert!(
            lat[1].as_nanos() > lat[0].as_nanos() * 3,
            "async {} vs sync {}",
            lat[1],
            lat[0]
        );
    }

    #[test]
    fn adaptive_mode_is_sync_for_pages_async_for_bulk() {
        // §4.1.3's proposed adaptive strategy: spin for small transfers,
        // yield for large ones
        let measure = |access: AccessMode, bytes: usize| -> SimDuration {
            let c = cluster(2, 64, PlacementPolicy::Pack);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                access,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, 32 * MR, cfg, &mut clock);
            let data = vec![0u8; bytes];
            let t0 = clock.now();
            f.write(&mut clock, 0, &data).unwrap();
            clock.now().since(t0)
        };
        // 8K page: adaptive == sync (completes inside the spin budget)
        let sync_small = measure(AccessMode::SyncSpin, 8192);
        let adaptive_small = measure(AccessMode::adaptive(), 8192);
        assert_eq!(adaptive_small, sync_small);
        // a 64 KiB chunk (one MR) takes ~19 us on the wire: with a tight
        // 10 us budget the adaptive path yields and pays the async penalty
        let tight = AccessMode::Adaptive {
            spin_budget: SimDuration::from_micros(10),
        };
        let sync_big = measure(AccessMode::SyncSpin, 64 << 10);
        let adaptive_big = measure(tight, 64 << 10);
        let async_big = measure(AccessMode::Async, 64 << 10);
        assert!(
            adaptive_big > sync_big,
            "transfers beyond the budget must yield"
        );
        assert_eq!(adaptive_big, async_big);
    }

    #[test]
    fn device_trait_object_works() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let dev: &dyn Device = &f;
        dev.write(&mut clock, 0, b"via-trait").unwrap();
        let mut out = vec![0u8; 9];
        dev.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(&out, b"via-trait");
        assert_eq!(dev.capacity(), MR);
        assert!(dev.label().contains("Custom"));
    }

    #[test]
    fn transient_faults_are_retried_through() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            max_retries: 8,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        f.write(&mut clock, 0, b"survives flakiness").unwrap();
        // a flaky window: ~40% of verbs to the donor fail; retries (each at
        // a later virtual instant) must push every access through
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(11).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                0.4,
            ))));
        let mut buf = vec![0u8; 18];
        for _ in 0..50 {
            f.read(&mut clock, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"survives flakiness");
        }
        assert!(
            f.retries() > 0,
            "a p=0.4 window over 50 reads must trigger retries"
        );
    }

    #[test]
    fn exhausted_retries_surface_as_transient_not_unavailable() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            retry_backoff: SimDuration::ZERO,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        // p=1.0: every attempt fails, retries can't save it. Zero backoff
        // keeps the clock inside the window for all attempts.
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(5).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                1.0,
            ))));
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Transient(_))
        ));
    }

    #[test]
    fn self_heal_releases_dead_stripes_and_reports_lost_ranges() {
        let c = cluster(3, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        // 4 MR file across 3 donors (spread), 2 MR spare capacity
        let f = mk_file(&c, 4 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 253) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        // one donor crashes: its memory is wiped and the broker degrades
        let dead = c.donors[0];
        c.fabric.server(dead).unwrap().fail();
        c.fabric.server(dead).unwrap().nic().deregister_all();
        c.broker.server_failed(dead);
        c.fabric.server(dead).unwrap().restart();
        // reads succeed again via per-stripe repair; lost stripes read zero,
        // surviving stripes keep their bytes
        let mut out = vec![0u8; (4 * MR) as usize];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert!(f.repairs() >= 1, "expected a stripe repair");
        let lost = f.drain_lost_ranges();
        assert!(!lost.is_empty(), "repair must report the zeroed ranges");
        assert!(f.drain_lost_ranges().is_empty(), "drain clears");
        let in_lost = |off: u64| lost.iter().any(|&(s, l)| off >= s && off < s + l);
        for (i, &b) in out.iter().enumerate() {
            let expect = if in_lost(i as u64) { 0 } else { data[i] };
            assert_eq!(b, expect, "byte {i} wrong after repair");
        }
        // and the file keeps working for writes over the repaired stripes
        f.write(&mut clock, 0, &data).unwrap();
        let mut again = vec![0u8; (4 * MR) as usize];
        f.read(&mut clock, 0, &mut again).unwrap();
        assert_eq!(again, data);
    }

    #[test]
    fn self_heal_migrates_off_a_pressured_donor_without_data_loss() {
        let c = cluster(2, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 241) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let donor = f.donors()[0];
        // two-phase reclaim: the donor asks for its memory back
        let (_, notified) = c
            .broker
            .request_reclaim(clock.now(), &c.fabric, donor, 2 * MR);
        assert_eq!(notified.len(), 1);
        // next access migrates to the other donor inside the grace window
        let mut out = vec![0u8; (2 * MR) as usize];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "migration must not lose bytes");
        assert_eq!(f.migrations(), 1);
        assert!(!f.donors().contains(&donor));
        assert!(f.drain_lost_ranges().is_empty(), "migration loses nothing");
        // the grace deadline passes: nothing left for the broker to take
        clock.advance(c.broker.config().grace_period * 2);
        assert_eq!(c.broker.finalize_revocations(&c.fabric, clock.now()), 0);
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn self_heal_reacquires_a_revoked_lease() {
        let c = cluster(2, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        f.write(&mut clock, 0, b"gone after revoke").unwrap();
        // hard revocation (legacy immediate reclaim — no grace window)
        c.broker.reclaim(&c.fabric, f.donors()[0], 2 * MR);
        let mut buf = vec![1u8; 17];
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 17], "re-leased file starts zeroed");
        let lost = f.drain_lost_ranges();
        assert_eq!(lost, vec![(0, 2 * MR)], "whole file reported lost");
        assert!(f.repairs() >= 1);
    }

    #[test]
    fn telemetry_nests_network_time_under_rfile_spans() {
        let registry = MetricsRegistry::shared();
        let c = cluster(1, 4, PlacementPolicy::Pack);
        c.fabric.set_metrics(Some(Arc::clone(&registry)));
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            metrics: Some(Arc::clone(&registry)),
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data = vec![3u8; 8192];
        f.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; 8192];
        f.read(&mut clock, 0, &mut out).unwrap();

        assert_eq!(registry.counter("rfile.read.ops").get(), 1);
        assert_eq!(registry.counter("rfile.write.bytes").get(), 8192);
        let rf = registry.span_stats("rfile.read");
        let net = registry.span_stats("net.read");
        assert_eq!(rf.count, 1);
        assert!(net.count >= 1);
        // network verb time is charged to the child span, so the rfile span's
        // self time excludes it
        assert!(
            rf.self_time < rf.total,
            "net child time must be attributed: {rf:?}"
        );
        assert!(net.total <= rf.total);
    }

    #[test]
    fn vectored_read_matches_scalar_across_stripe_boundaries() {
        let c = cluster(2, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 251) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        // request list straddling MR boundaries, unsorted, including the tail
        let spec: Vec<(u64, u64)> = vec![
            (MR - 100, 300),
            (0, 8192),
            (3 * MR + 100, MR - 100), // runs to the file tail
            (2 * MR - 1, 2),
        ];
        let mut bufs: Vec<Vec<u8>> = spec.iter().map(|&(_, l)| vec![0u8; l as usize]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = spec
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&(o, _), b)| (o, b.as_mut_slice()))
            .collect();
        let results = f.read_vectored(&mut clock, &mut reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        for (&(o, l), buf) in spec.iter().zip(&bufs) {
            assert_eq!(buf[..], data[o as usize..(o + l) as usize], "req at {o}");
        }
        let expect: u64 = spec.iter().map(|&(_, l)| l).sum();
        assert_eq!(f.bytes_read(), expect);
    }

    #[test]
    fn vectored_write_round_trips_and_coalesces() {
        let c = cluster(1, 4, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        // adjacent dirty ranges — the engine should gather them, but the
        // observable contract is byte identity with the scalar sequence
        let pages: Vec<(u64, Vec<u8>)> = (0..16u64)
            .map(|i| (i * 8192, vec![(i + 1) as u8; 8192]))
            .collect();
        let reqs: Vec<(u64, &[u8])> = pages.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        let results = f.write_vectored(&mut clock, &reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        let mut out = vec![0u8; 16 * 8192];
        f.read(&mut clock, 0, &mut out).unwrap();
        for (i, chunk) in out.chunks(8192).enumerate() {
            assert!(chunk.iter().all(|&b| b == (i + 1) as u8), "page {i}");
        }
        assert_eq!(f.bytes_written(), 16 * 8192);
    }

    #[test]
    fn pipelined_reads_beat_serial_at_equal_bytes() {
        let mk = |qd: usize| -> (SimDuration, Vec<u8>) {
            let c = cluster(2, 8, PlacementPolicy::Spread);
            let mut clock = Clock::new();
            let cfg = RFileConfig {
                queue_depth: qd,
                ..RFileConfig::custom()
            };
            let f = mk_file(&c, 8 * MR, cfg, &mut clock);
            let data: Vec<u8> = (0..(8 * MR) as usize).map(|i| (i % 241) as u8).collect();
            f.write(&mut clock, 0, &data).unwrap();
            let mut bufs: Vec<Vec<u8>> = (0..64).map(|_| vec![0u8; 8192]).collect();
            let t0 = clock.now();
            let mut reqs: Vec<(u64, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (i as u64 * 8192, b.as_mut_slice()))
                .collect();
            let results = f.read_vectored(&mut clock, &mut reqs);
            assert!(results.iter().all(|r| r.is_ok()));
            (clock.now().since(t0), bufs.concat())
        };
        let (deep, deep_bytes) = mk(32);
        let (scalar, scalar_bytes) = mk(1);
        assert_eq!(deep_bytes, scalar_bytes, "bytes must not depend on depth");
        assert!(
            deep.as_nanos() * 2 < scalar.as_nanos(),
            "qd=32 ({deep}) should be far cheaper than qd=1 ({scalar})"
        );
    }

    #[test]
    fn vectored_errors_are_isolated_per_request() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        f.write(&mut clock, 0, &vec![9u8; 1024]).unwrap();
        let mut good = vec![0u8; 512];
        let mut oob = vec![0u8; 512];
        let mut good2 = vec![0u8; 512];
        let mut reqs: Vec<(u64, &mut [u8])> = vec![
            (0, good.as_mut_slice()),
            (MR - 100, oob.as_mut_slice()), // runs past the file end
            (512, good2.as_mut_slice()),
        ];
        let results = f.read_vectored(&mut clock, &mut reqs);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(StorageError::OutOfBounds { .. })));
        assert!(results[2].is_ok());
        assert!(good.iter().all(|&b| b == 9));
        assert!(good2.iter().all(|&b| b == 9));
    }

    #[test]
    fn vectored_reads_retry_through_transient_faults() {
        let c = cluster(1, 4, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            max_retries: 10,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 4 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 239) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(77).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                0.3,
            ))));
        let mut bufs: Vec<Vec<u8>> = (0..32).map(|_| vec![0u8; 8192]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (i as u64 * 8192, b.as_mut_slice()))
            .collect();
        let results = f.read_vectored(&mut clock, &mut reqs);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(b[..], data[i * 8192..(i + 1) * 8192], "page {i}");
        }
        assert!(f.retries() > 0, "p=0.3 over 32 pages must hit retries");
    }

    #[test]
    fn repair_backs_off_while_capacity_is_short() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        // the only donor dies: repair has nowhere to go
        let dead = c.donors[0];
        c.fabric.server(dead).unwrap().fail();
        c.fabric.server(dead).unwrap().nic().deregister_all();
        c.broker.server_failed(dead);
        let mut buf = [0u8; 8];
        assert!(f.read(&mut clock, 0, &mut buf).is_err());
        // immediately after, the gate holds (no broker hammering)
        assert!(matches!(
            f.read(&mut clock, 0, &mut buf),
            Err(StorageError::Unavailable(_))
        ));
        // donor comes back with fresh memory
        c.fabric.server(dead).unwrap().restart();
        c.broker.server_recovered(dead);
        let mut pc = Clock::new();
        remem_broker::MemoryProxy::new(dead, MR)
            .donate(&mut pc, &c.fabric, &c.broker, 2 * MR)
            .unwrap();
        // past the backoff, the next access repairs and succeeds
        clock.advance(SimDuration::from_secs(6));
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert!(f.repairs() >= 1);
    }

    // ─── replication ─────────────────────────────────────────────────────

    fn crash(c: &Cluster, s: ServerId) {
        c.fabric.server(s).unwrap().fail();
        c.fabric.server(s).unwrap().nic().deregister_all();
        c.broker.server_failed(s);
        c.fabric.server(s).unwrap().restart();
    }

    #[test]
    fn replicated_write_lands_on_every_group_member() {
        let c = cluster(3, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 239) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
        // verify the bytes on every member of every group directly
        assert_eq!(c.broker.store().active_leases(), 1);
        let (_, groups) = c.broker.replica_view(remem_broker::LeaseId(0)).unwrap();
        assert_eq!(groups.len(), 2);
        let mut off = 0usize;
        for g in &groups {
            assert_eq!(g.len(), 2, "every slot holds k=2 members");
            assert_ne!(g[0].server, g[1].server, "anti-affinity");
            for m in g {
                let mut got = vec![0u8; m.len as usize];
                c.fabric
                    .read(&mut clock, Protocol::Custom, c.db, *m, 0, &mut got)
                    .unwrap();
                assert_eq!(
                    got,
                    &data[off..off + m.len as usize],
                    "replica on {:?} diverged",
                    m.server
                );
            }
            off += g[0].len as usize;
        }
    }

    #[test]
    fn replicated_file_survives_donor_crash_without_data_loss() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 233) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let epoch0 = f.replica_epoch();
        let dead = f.donors()[0];
        crash(&c, dead);
        // the next read fails over to the survivors and heals: no zeroed
        // ranges, no wrong bytes, full redundancy restored
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "crash must not lose replicated bytes");
        assert!(f.drain_lost_ranges().is_empty(), "no range was lost");
        assert!(f.replica_epoch() > epoch0, "membership change fences epoch");
        let id = remem_broker::LeaseId(0);
        assert_eq!(c.broker.replication_deficit(id), 0, "healed back to k");
        assert!(f.repairs() >= 1, "re-replication counts as a repair");
        // and writes keep reaching a quorum afterwards
        f.write(&mut clock, 0, &data).unwrap();
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn replicated_spill_survives_crash_with_self_heal_off() {
        // the tentpole claim: k >= 2 lifts the must-not-zero-fill
        // restriction — a spill file (self_heal: false) survives a donor
        // crash with its bytes intact
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            self_heal: false,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 229) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        crash(&c, f.donors()[0]);
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "spill bytes must survive the crash");
        assert!(f.drain_lost_ranges().is_empty(), "nothing zero-filled");
    }

    #[test]
    fn losing_every_copy_of_a_slot_fails_a_spill_loudly() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            self_heal: false,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        f.write(&mut clock, 0, &vec![7u8; MR as usize]).unwrap();
        // kill both members of the (single) slot's group
        let (_, groups) = c.broker.replica_view(remem_broker::LeaseId(0)).unwrap();
        for m in &groups[0] {
            crash(&c, m.server);
        }
        let mut out = vec![0u8; MR as usize];
        assert!(
            matches!(
                f.read(&mut clock, 0, &mut out),
                Err(StorageError::Unavailable(_))
            ),
            "a spill slot with every copy dead must fail, not read zeros"
        );
        assert!(
            f.drain_lost_ranges().is_empty(),
            "no silent zero-fill for spill semantics"
        );
    }

    #[test]
    fn replicated_read_rotates_through_a_blackout() {
        // the broker never learns of the fault here: one-sided reads fail
        // over locally to the peer replica
        let log = Arc::new(remem_sim::FaultLog::new());
        let c = cluster(2, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            fault_log: Some(Arc::clone(&log)),
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        let data: Vec<u8> = (0..MR as usize).map(|i| (i % 227) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let preferred = f.donors()[0];
        let inj = remem_net::FaultInjector::new(11).blackout(
            preferred,
            clock.now(),
            clock.now() + SimDuration::from_secs(3600),
        );
        c.fabric.set_fault_injector(Some(Arc::new(inj)));
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "blackout failover must serve correct bytes");
        assert!(f.failovers() >= 1, "rotation counts as a failover");
        assert!(log.count("rfile.failover", FaultOrigin::Recovery) >= 1);
        c.fabric.set_fault_injector(None);
    }

    #[test]
    fn replicated_file_sheds_pressured_replicas_without_data_loss() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let data: Vec<u8> = (0..(2 * MR) as usize).map(|i| (i % 223) as u8).collect();
        f.write(&mut clock, 0, &data).unwrap();
        let pressured = f.donors()[0];
        let (_, notified) = c
            .broker
            .request_reclaim(clock.now(), &c.fabric, pressured, 3 * MR);
        assert_eq!(notified.len(), 1);
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "shedding must not lose bytes");
        assert!(f.migrations() >= 1, "shed counts as a migration");
        assert!(f.drain_lost_ranges().is_empty());
        // after the grace window the broker finds nothing left to revoke
        clock.advance(c.broker.config().grace_period * 2);
        assert_eq!(c.broker.finalize_revocations(&c.fabric, clock.now()), 0);
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn repeated_stripe_loss_reports_each_range_once_per_drain() {
        // satellite: a stripe lost again while the previous loss is still
        // awaiting collection must not be double-reported
        let c = cluster(3, 1, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        f.write(&mut clock, 0, &vec![9u8; MR as usize]).unwrap();
        let mut buf = vec![0u8; 64];
        // first donor dies; repair re-leases and reports (0, MR) lost
        crash(&c, f.donors()[0]);
        f.read(&mut clock, 0, &mut buf).unwrap();
        // the replacement donor dies too, before anyone drained the report
        crash(&c, f.donors()[0]);
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert!(f.repairs() >= 2, "two distinct repairs ran");
        let lost = f.drain_lost_ranges();
        assert_eq!(lost, vec![(0, MR)], "one report per undrained range");
        // after a drain the same range may be reported again — but the
        // repair needs fresh capacity: the first casualty re-donates
        let m0 = c.donors[0];
        c.broker.server_recovered(m0);
        let mut pc = Clock::new();
        remem_broker::MemoryProxy::new(m0, MR)
            .donate(&mut pc, &c.fabric, &c.broker, MR)
            .unwrap();
        crash(&c, f.donors()[0]);
        f.read(&mut clock, 0, &mut buf).unwrap();
        assert_eq!(f.drain_lost_ranges(), vec![(0, MR)]);
    }

    /// Build `npages` engine-format slotted pages of `(key, key*1.5, pad)`
    /// rows, `rpp` rows per page, keys dense from 0.
    fn table_pages(npages: usize, rpp: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(npages * EVAL_PAGE_SIZE);
        for p in 0..npages {
            let mut page = vec![0u8; EVAL_PAGE_SIZE];
            let mut free = EVAL_PAGE_SIZE;
            for j in 0..rpp {
                let k = (p * rpp + j) as i64;
                let mut rec = Vec::new();
                rec.extend_from_slice(&3u16.to_le_bytes());
                rec.push(0);
                rec.extend_from_slice(&k.to_le_bytes());
                rec.push(1);
                rec.extend_from_slice(&(k as f64 * 1.5).to_le_bytes());
                rec.push(2);
                rec.extend_from_slice(&4u32.to_le_bytes());
                rec.extend_from_slice(b"padx");
                free -= rec.len();
                page[free..free + rec.len()].copy_from_slice(&rec);
                let base = 4 + j * 4;
                page[base..base + 2].copy_from_slice(&(free as u16).to_le_bytes());
                page[base + 2..base + 4].copy_from_slice(&(rec.len() as u16).to_le_bytes());
            }
            page[0..2].copy_from_slice(&(rpp as u16).to_le_bytes());
            page[2..4].copy_from_slice(&(free as u16).to_le_bytes());
            data.extend_from_slice(&page);
        }
        data
    }

    fn key_lt(v: i64) -> PushdownProgram {
        PushdownProgram {
            predicates: vec![remem_storage::Predicate {
                col: 0,
                op: remem_storage::CmpOp::Lt,
                value: remem_storage::EvalValue::Int(v),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn pushdown_scan_matches_client_side_oracle() {
        let c = cluster(2, 4, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 4 * MR, RFileConfig::custom(), &mut clock);
        let npages = (4 * MR) as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 16);
        f.write(&mut clock, 0, &data).unwrap();
        let prog = key_lt(40);
        let scan = f.read_pushdown(&mut clock, 0, 4 * MR, &prog).unwrap();
        // oracle: fetch every page, eval on the client
        let mut full = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut full).unwrap();
        let mut expect = Vec::new();
        let stats = remem_storage::eval_pages(&full, &prog, &mut expect).unwrap();
        assert_eq!(scan.payload, expect);
        assert_eq!(scan.rows_scanned, stats.rows_scanned);
        assert_eq!(scan.rows_matched, 40);
        assert_eq!(scan.fallback_chunks, 0);
        assert!(scan.server_cpu > SimDuration::ZERO);
        // both donors were debited (Spread stripes across them)
        for d in &c.donors {
            assert!(c.broker.compute_account(*d).ops > 0, "{d:?} not debited");
        }
    }

    #[test]
    fn pushdown_aggregate_merges_partials_across_extents() {
        let c = cluster(2, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let f = mk_file(&c, 2 * MR, RFileConfig::custom(), &mut clock);
        let npages = (2 * MR) as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 16);
        f.write(&mut clock, 0, &data).unwrap();
        let mut prog = key_lt(100);
        prog.aggregate = Some(remem_storage::Aggregate::Sum(0));
        let scan = f.read_pushdown(&mut clock, 0, 2 * MR, &prog).unwrap();
        assert_eq!(scan.payload.len(), remem_storage::PARTIAL_AGG_BYTES);
        let agg = PartialAgg::decode(&scan.payload).unwrap();
        assert_eq!(agg.rows, 100);
        // sum of integer keys 0..100 is exact regardless of chunking
        assert_eq!(agg.sum_int, (0..100i64).sum::<i64>());
    }

    #[test]
    fn pushdown_retries_through_transient_faults() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            max_retries: 8,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, MR, cfg, &mut clock);
        let npages = MR as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let mut expect = Vec::new();
        remem_storage::eval_pages(&data, &key_lt(5), &mut expect).unwrap();
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(11).flaky_window(
                c.donors[0],
                SimTime::ZERO,
                SimTime(1 << 40),
                0.4,
            ))));
        for _ in 0..25 {
            let scan = f.read_pushdown(&mut clock, 0, MR, &key_lt(5)).unwrap();
            assert_eq!(scan.payload, expect);
        }
        assert!(f.retries() > 0, "p=0.4 over 25 scans must trigger retries");
    }

    #[test]
    fn pushdown_fails_over_to_surviving_replica() {
        let c = cluster(3, 3, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            replicas: 2,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        let npages = (2 * MR) as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let mut expect = Vec::new();
        remem_storage::eval_pages(&data, &key_lt(30), &mut expect).unwrap();
        let epoch0 = f.replica_epoch();
        crash(&c, f.donors()[0]);
        // the scan re-points at survivors via the fenced epoch, like reads
        let scan = f.read_pushdown(&mut clock, 0, 2 * MR, &key_lt(30)).unwrap();
        assert_eq!(scan.payload, expect, "failover must not corrupt the scan");
        assert!(f.replica_epoch() > epoch0, "membership change fences epoch");
        // and the scan path keeps working at the new epoch
        let scan = f.read_pushdown(&mut clock, 0, 2 * MR, &key_lt(30)).unwrap();
        assert_eq!(scan.payload, expect);
    }

    #[test]
    fn pushdown_falls_back_when_compute_budget_exhausted() {
        let c = cluster(1, 2, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        let npages = MR as usize / EVAL_PAGE_SIZE;
        let data = table_pages(npages, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let prog = key_lt(10);
        let mut expect = Vec::new();
        remem_storage::eval_pages(&data, &prog, &mut expect).unwrap();
        // no compute for tenants on this donor
        c.broker
            .set_compute_budget(c.donors[0], Some(SimDuration::ZERO));
        let scan = f.read_pushdown(&mut clock, 0, MR, &prog).unwrap();
        assert_eq!(
            scan.payload, expect,
            "fallback must produce identical bytes"
        );
        assert!(scan.fallback_chunks > 0);
        assert_eq!(scan.server_cpu, SimDuration::ZERO, "no server CPU burned");
        assert_eq!(c.broker.compute_account(c.donors[0]).ops, 0);
        assert!(c.broker.compute_account(c.donors[0]).denied > 0);
    }

    #[test]
    fn pushdown_rejects_partial_page_spans() {
        let c = cluster(1, 1, PlacementPolicy::Pack);
        let mut clock = Clock::new();
        let f = mk_file(&c, MR, RFileConfig::custom(), &mut clock);
        assert!(f.read_pushdown(&mut clock, 0, 100, &key_lt(1)).is_err());
        assert!(f.read_pushdown(&mut clock, 17, 8192, &key_lt(1)).is_err());
        assert!(f.read_pushdown(&mut clock, 0, 0, &key_lt(1)).is_err());
    }

    // ─── the fault ladder, pinned ────────────────────────────────────────

    #[derive(Clone, Copy, Debug)]
    enum Entry {
        Read,
        Write,
        ReadVectored,
        WriteVectored,
        Pushdown,
    }

    /// `(clock nanos, requests ok, retries, failovers, repairs, fault-log
    /// fingerprint)` of one [`ladder_run`].
    type Ladder = (u64, usize, u64, u64, u64, u64);

    /// The [`Ladder`] outcome of one whole-file call through `entry` under a
    /// seeded flaky window on one donor and the crash of another. With
    /// `blackout`, a third donor also goes dark without the broker noticing,
    /// so replicated files must rotate to a peer replica blind.
    fn ladder_run(entry: Entry, replicas: usize, blackout: bool) -> Ladder {
        const PAGE: usize = 8192;
        let log = Arc::new(remem_sim::FaultLog::new());
        let c = cluster(4, 12, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            replicas,
            max_retries: 6,
            fault_log: Some(Arc::clone(&log)),
            ..RFileConfig::custom()
        };
        let size = 16 * MR;
        let f = mk_file(&c, size, cfg, &mut clock);
        let data = table_pages(size as usize / PAGE, 8);
        f.write(&mut clock, 0, &data).unwrap();
        let window = clock.now() + SimDuration::from_secs(1);
        let mut inj = FaultInjector::with_log(23, Arc::clone(&log)).flaky_window(
            c.donors[1],
            clock.now(),
            window,
            0.6,
        );
        if blackout {
            inj = inj.blackout(c.donors[2], clock.now(), window);
        }
        c.fabric.set_fault_injector(Some(Arc::new(inj)));
        crash(&c, c.donors[0]);
        let ok = match entry {
            Entry::Read => {
                let mut out = vec![0u8; data.len()];
                f.read(&mut clock, 0, &mut out).is_ok() as usize
            }
            Entry::Write => f.write(&mut clock, 0, &data).is_ok() as usize,
            Entry::ReadVectored => {
                let mut bufs = vec![vec![0u8; PAGE]; data.len() / PAGE];
                let mut reqs: Vec<(u64, &mut [u8])> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, b)| ((i * PAGE) as u64, b.as_mut_slice()))
                    .collect();
                let results = f.read_vectored(&mut clock, &mut reqs);
                results.iter().filter(|r| r.is_ok()).count()
            }
            Entry::WriteVectored => {
                let reqs: Vec<(u64, &[u8])> = data
                    .chunks(PAGE)
                    .enumerate()
                    .map(|(i, d)| ((i * PAGE) as u64, d))
                    .collect();
                let results = f.write_vectored(&mut clock, &reqs);
                results.iter().filter(|r| r.is_ok()).count()
            }
            Entry::Pushdown => f.read_pushdown(&mut clock, 0, size, &key_lt(100)).is_ok() as usize,
        };
        c.fabric.set_fault_injector(None);
        (
            clock.now().0,
            ok,
            f.retries(),
            f.failovers(),
            f.repairs(),
            log.fingerprint(),
        )
    }

    /// Every entry point walks the same retry → failover → self-heal ladder.
    /// The numbers are pinned exactly: merging or reordering the ladder must
    /// not move one virtual nanosecond, counter or fault-log byte.
    #[test]
    fn fault_ladder_is_pinned_per_entry_point() {
        use Entry::*;
        #[rustfmt::skip]
        let pinned: [(Entry, usize, bool, Ladder); 15] = [
            (Read, 1, false, (7662272, 1, 11, 0, 1, 12497583020861045712)),
            (Write, 1, false, (7662272, 1, 11, 0, 1, 12497583020861045712)),
            (ReadVectored, 1, false, (7317601, 120, 64, 0, 1, 7799183602651408096)),
            (WriteVectored, 1, false, (7317601, 120, 64, 0, 1, 7799183602651408096)),
            (Pushdown, 1, false, (19082203, 1, 15, 0, 1, 6097843502366903682)),
            (Read, 2, false, (8969696, 1, 10, 0, 1, 13755994505305982690)),
            (Write, 2, false, (7669856, 1, 0, 0, 1, 15167886033482549353)),
            (ReadVectored, 2, false, (10774578, 120, 104, 0, 1, 13162154081708991405)),
            (WriteVectored, 2, false, (9445120, 128, 0, 0, 1, 17995464235600048880)),
            (Pushdown, 2, false, (11596877, 1, 15, 0, 1, 5415072228498307883)),
            (Read, 2, true, (3939272, 0, 3, 5, 0, 14403913949795628566)),
            (Write, 2, true, (3431920, 0, 0, 5, 0, 2824587707050904550)),
            (ReadVectored, 2, true, (4362964, 96, 64, 5, 0, 11211298356935175533)),
            (WriteVectored, 2, true, (8453070, 33, 0, 380, 0, 11807560566123614991)),
            (Pushdown, 2, true, (7775907, 0, 14, 4, 0, 7756581632299633350)),
        ];
        for (entry, replicas, blackout, want) in pinned {
            assert_eq!(
                ladder_run(entry, replicas, blackout),
                want,
                "{entry:?} replicas={replicas} blackout={blackout}"
            );
        }
    }

    #[test]
    fn vectored_write_exhausted_retries_fail_only_the_affected_requests() {
        let c = cluster(2, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            retry_backoff: SimDuration::ZERO,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 2 * MR, cfg, &mut clock);
        // Spread puts one MR-sized stripe on each donor
        let flaky = f.state.lock().extents[0].mr.server;
        c.fabric
            .set_fault_injector(Some(Arc::new(FaultInjector::new(5).flaky_window(
                flaky,
                SimTime::ZERO,
                SimTime(1 << 40),
                1.0,
            ))));
        let pages: Vec<(u64, Vec<u8>)> = (0..4u64)
            .map(|i| (i * MR / 2, vec![(i + 1) as u8; 4096]))
            .collect();
        let reqs: Vec<(u64, &[u8])> = pages.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        let results = f.write_vectored(&mut clock, &reqs);
        for (i, r) in results.iter().enumerate() {
            if i < 2 {
                assert!(
                    matches!(r, Err(StorageError::Transient(_))),
                    "request {i} on the flaky stripe: {r:?}"
                );
            } else {
                assert!(r.is_ok(), "request {i} on the healthy stripe: {r:?}");
            }
        }
        assert_eq!(f.bytes_written(), 2 * 4096, "only the survivors count");
        c.fabric.set_fault_injector(None);
        for (i, (off, d)) in pages.iter().enumerate() {
            let mut out = vec![0u8; d.len()];
            f.read(&mut clock, *off, &mut out).unwrap();
            let expect = if i < 2 { vec![0u8; d.len()] } else { d.clone() };
            assert_eq!(out, expect, "request {i}");
        }
    }

    #[test]
    fn vectored_write_heals_through_a_donor_crash_and_reports_the_loss() {
        let c = cluster(3, 2, PlacementPolicy::Spread);
        let mut clock = Clock::new();
        let cfg = RFileConfig {
            self_heal: true,
            ..RFileConfig::custom()
        };
        let f = mk_file(&c, 4 * MR, cfg, &mut clock);
        let old = vec![0xAAu8; (4 * MR) as usize];
        f.write(&mut clock, 0, &old).unwrap();
        let dead = c.donors[0];
        let dead_ranges: Vec<(u64, u64)> = f
            .state
            .lock()
            .extents
            .iter()
            .filter(|e| e.mr.server == dead)
            .map(|e| (e.start, e.len))
            .collect();
        assert!(!dead_ranges.is_empty(), "spread placement uses every donor");
        crash(&c, dead);
        let data: Vec<u8> = (0..(4 * MR) as usize).map(|i| (i % 251) as u8).collect();
        let reqs: Vec<(u64, &[u8])> = data
            .chunks(8192)
            .enumerate()
            .map(|(i, d)| (i as u64 * 8192, d))
            .collect();
        let results = f.write_vectored(&mut clock, &reqs);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        assert!(f.repairs() >= 1, "the crash must be healed");
        assert_eq!(f.drain_lost_ranges(), dead_ranges);
        let mut out = vec![0u8; data.len()];
        f.read(&mut clock, 0, &mut out).unwrap();
        assert_eq!(out, data, "every write landed after the heal");
    }
}
