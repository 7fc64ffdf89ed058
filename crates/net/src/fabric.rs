//! The cluster fabric: servers wired by an Infiniband switch, and the three
//! remote-memory access protocols of Table 5.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use remem_audit::Auditor;
use remem_sim::resource::Grant;
use remem_sim::{Clock, MetricsRegistry, SimDuration, SimTime};
use std::collections::BTreeSet;

use crate::config::NetConfig;
use crate::error::NetError;
use crate::fault::FaultInjector;
use crate::mr::MrHandle;
use crate::server::{Server, ServerId};
use crate::verbs::{Post, ReadSge, WorkRequest, WriteSge};
use remem_storage::eval::PushdownProgram;

/// The protocol used to reach remote memory (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's implementation: one-sided NDSPI RDMA verbs, synchronous
    /// spin completion, no remote CPU involvement.
    Custom,
    /// SMB 3.0 + SMB Direct to a RamDrive: RDMA transfers, but behind a full
    /// file-system + network-file protocol, treated as asynchronous I/O.
    SmbDirect,
    /// SMB over TCP/IP to a RamDrive: kernel network stack at both ends,
    /// remote CPU fully involved in every transfer.
    SmbTcp,
}

impl Protocol {
    pub const ALL: [Protocol; 3] = [Protocol::Custom, Protocol::SmbDirect, Protocol::SmbTcp];

    pub fn label(self) -> &'static str {
        match self {
            Protocol::Custom => "Custom",
            Protocol::SmbDirect => "SMBDirect+RamDrive",
            Protocol::SmbTcp => "SMB+RamDrive",
        }
    }
}

/// Cached handles into an attached [`MetricsRegistry`], resolved once at
/// [`Fabric::set_metrics`] so the per-verb hot path never does a name
/// lookup. Spans still go through the registry (they carry the nesting
/// stack that attributes rfile time to network verbs).
struct FabricMetrics {
    registry: Arc<MetricsRegistry>,
    read: VerbMeters,
    write: VerbMeters,
    /// `bytes` are the wire bytes a pushdown actually moved (request
    /// program + reply).
    pushdown: VerbMeters,
    mr_registrations: Arc<remem_sim::Counter>,
    mr_bytes: Arc<remem_sim::Counter>,
    connects: Arc<remem_sim::Counter>,
    batch_doorbells: Arc<remem_sim::Counter>,
    /// Work requests per doorbell. Histograms are duration-typed; batch
    /// sizes are recorded as unitless nanoseconds (1 WR = 1 ns).
    batch_size: Arc<remem_sim::Histogram>,
    quorum_writes: Arc<remem_sim::Counter>,
    /// Gap between the quorum ack (when the client unblocks) and the
    /// slowest replica's completion; that tail stays on the straggler's
    /// NIC pipe and is paid by whoever touches it next.
    quorum_straggler_lag: Arc<remem_sim::Histogram>,
    /// WAL append-path slice of the quorum traffic: group commits the
    /// engine shipped to the replicated log ring. A subset of
    /// `fabric.quorum.*`, split out so commit latency diagnostics don't
    /// have to untangle log appends from page re-replication.
    wal_appends: Arc<remem_sim::Counter>,
    wal_bytes: Arc<remem_sim::Counter>,
    wal_straggler_lag: Arc<remem_sim::Histogram>,
    /// Rows that survived the server-side predicates.
    pushdown_rows: Arc<remem_sim::Counter>,
    /// Fabric bytes a full-page fetch of the same span would have moved
    /// minus what pushdown moved — the verb's whole reason to exist.
    pushdown_bytes_saved: Arc<remem_sim::Counter>,
    read_span: remem_sim::SpanId,
    write_span: remem_sim::SpanId,
    quorum_write_span: remem_sim::SpanId,
    batch_span: remem_sim::SpanId,
    pushdown_span: remem_sim::SpanId,
}

impl FabricMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> FabricMetrics {
        let meters = |ops: &str, lat: &str, bytes: &str, errors: &str| VerbMeters {
            ops: registry.counter(ops),
            lat: registry.histogram(lat),
            bytes: registry.counter(bytes),
            errors: registry.counter(errors),
        };
        FabricMetrics {
            read: meters(
                "nic.read.ops",
                "nic.read.lat",
                "fabric.read.bytes",
                "fabric.read.errors",
            ),
            write: meters(
                "nic.write.ops",
                "nic.write.lat",
                "fabric.write.bytes",
                "fabric.write.errors",
            ),
            pushdown: meters(
                "nic.pushdown.ops",
                "nic.pushdown.lat",
                "fabric.pushdown.bytes",
                "fabric.pushdown.errors",
            ),
            mr_registrations: registry.counter("fabric.mr.registrations"),
            mr_bytes: registry.counter("fabric.mr.bytes"),
            connects: registry.counter("fabric.connects"),
            batch_doorbells: registry.counter("fabric.batch.doorbells"),
            batch_size: registry.histogram("fabric.batch.size"),
            quorum_writes: registry.counter("fabric.quorum.writes"),
            quorum_straggler_lag: registry.histogram("fabric.quorum.straggler_lag"),
            wal_appends: registry.counter("wal.quorum.appends"),
            wal_bytes: registry.counter("wal.quorum.bytes"),
            wal_straggler_lag: registry.histogram("wal.quorum.straggler_lag"),
            pushdown_rows: registry.counter("fabric.pushdown.rows"),
            pushdown_bytes_saved: registry.counter("fabric.pushdown.bytes_saved"),
            read_span: registry.span("net.read"),
            write_span: registry.span("net.write"),
            quorum_write_span: registry.span("net.quorum_write"),
            batch_span: registry.span("net.batch"),
            pushdown_span: registry.span("net.pushdown"),
            registry,
        }
    }

    fn meters(&self, read: bool) -> &VerbMeters {
        if read {
            &self.read
        } else {
            &self.write
        }
    }
}

/// The four meters a data verb files its outcome under.
struct VerbMeters {
    ops: Arc<remem_sim::Counter>,
    lat: Arc<remem_sim::Histogram>,
    bytes: Arc<remem_sim::Counter>,
    errors: Arc<remem_sim::Counter>,
}

impl VerbMeters {
    /// File one outcome: `Some((ops, bytes))` and its latency on success,
    /// one error otherwise (failed verbs never reach the histogram).
    fn file(&self, ok: Option<(u64, u64)>, lat: SimDuration) {
        match ok {
            Some((ops, bytes)) => {
                self.ops.add(ops);
                self.bytes.add(bytes);
                self.lat.record(lat);
            }
            None => self.errors.incr(),
        }
    }
}

/// A verb between [`Fabric::open`] and [`Fabric::close`]: the WRs it
/// posted on the pair ledger, its open span and when it was posted.
struct InFlight<I> {
    local: ServerId,
    peers: I,
    fm: Option<Arc<FabricMetrics>>,
    span: Option<remem_sim::SpanToken>,
    t0: SimTime,
}

/// Lifetime work-request bookkeeping for one (ordered) server pair: the
/// auditor's no-leaked-WR invariant is `posted == completed` at teardown.
#[derive(Debug, Default, Clone, Copy)]
struct WrStats {
    posted: u64,
    completed: u64,
}

/// Outcome of one work request inside a doorbell batch
/// ([`Fabric::execute_batch`]).
#[derive(Debug)]
pub struct BatchCompletion {
    /// Virtual instant this WR's bytes finished serializing (monotone in
    /// post order; the last WR lands at the doorbell's completion).
    pub completed_at: remem_sim::SimTime,
    /// Bytes this WR asked to move.
    pub bytes: u64,
    /// Per-WR outcome; failed WRs move no bytes and are not charged.
    pub result: Result<(), NetError>,
}

impl BatchCompletion {
    /// The slot [`Fabric::post`] fills in for one WR.
    const PENDING: BatchCompletion = BatchCompletion {
        completed_at: SimTime::ZERO,
        bytes: 0,
        result: Ok(()),
    };
}

/// Outcome of a replicated fan-out write ([`Fabric::write_quorum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumWrite {
    /// Replicas targeted (the group size `n`).
    pub replicas: usize,
    /// Replicas that received the bytes and will complete (live ones).
    pub acks: usize,
    /// Acks the client waited for: `⌈(n+1)/2⌉`.
    pub quorum: usize,
    /// Virtual instant the quorum-th ack landed (the client unblocked).
    pub completed_at: remem_sim::SimTime,
    /// Lag between the quorum ack and the slowest replica's completion.
    /// That tail is clock-charged to the straggler's NIC pipe, not the
    /// caller: the next verb touching that NIC pays the catch-up.
    pub straggler_lag: SimDuration,
}

/// One near-memory eval request ([`Fabric::pushdown`]): run `program` over
/// the whole-page span `[offset, offset + len)` of `handle` on the memory
/// server that owns it.
#[derive(Debug, Clone)]
pub struct PushdownRequest<'a> {
    pub handle: MrHandle,
    pub offset: u64,
    pub len: u64,
    pub program: &'a PushdownProgram,
}

/// Outcome of one pushdown RPC: the compacted payload (filtered/projected
/// row encodings, or one `PartialAgg` encoding) plus the eval accounting
/// callers use for compute-capacity bookkeeping.
#[derive(Debug, Clone)]
pub struct PushdownReply {
    pub payload: Vec<u8>,
    /// Rows the server's eval engine visited (charged per row).
    pub rows_scanned: u64,
    /// Rows that survived the predicates (and projection).
    pub rows_matched: u64,
    /// Page bytes streamed through the server's eval engine (`len`).
    pub bytes_scanned: u64,
    /// CPU charged on the memory server's cores for this eval — what
    /// brokers debit against a server's compute capacity.
    pub server_cpu: SimDuration,
}

/// Per-protocol cost parameters resolved from [`NetConfig`].
#[derive(Clone, Copy)]
struct ProtocolCosts {
    bandwidth: u64,
    op_overhead: SimDuration,
    fixed_latency: SimDuration,
    remote_cpu_per_op: SimDuration,
    remote_cpu_per_kib: SimDuration,
}

impl ProtocolCosts {
    /// Remote CPU spent serving `ops` requests that move `bytes`. TCP
    /// involves the remote CPU per transfer and RDMA bypasses it: this is
    /// the entire mechanism behind Fig. 13, and batching doorbells does
    /// not hide it.
    fn remote_cpu(&self, ops: u64, bytes: u64) -> SimDuration {
        self.remote_cpu_per_op * ops
            + SimDuration::from_nanos(self.remote_cpu_per_kib.as_nanos() * bytes.div_ceil(1024))
    }

    /// Reserve one send on the NIC pipes. The sender's pipe serializes
    /// `sent` bytes behind one op overhead from `at`. Each receiver's pipe
    /// then serializes its `(bytes, cpu)` share from the sender's start:
    /// the transfer is pipelined through both pipes, so the busier one
    /// gates it, not the sum. A receiver's CPU work runs once its pipe
    /// drains. Returns the sender's grant and, reserved as they are
    /// iterated, each receiver's end.
    fn reserve_pipes<S: Deref<Target = Server>>(
        self,
        at: SimTime,
        sender: &Server,
        sent: u64,
        receivers: impl IntoIterator<Item = (S, u64, SimDuration)>,
    ) -> (Grant, impl Iterator<Item = SimTime>) {
        let g = sender
            .nic()
            .reserve(at, sent, self.bandwidth, self.op_overhead);
        let ends = receivers.into_iter().map(move |(server, bytes, cpu)| {
            let end = server
                .nic()
                .reserve(g.start, bytes, self.bandwidth, self.op_overhead)
                .end;
            if cpu.is_zero() {
                end
            } else {
                server.cpu().execute(end, cpu).end
            }
        });
        (g, ends)
    }
}

/// The cluster: a set of servers connected by a non-blocking switch.
///
/// All remote-memory data movement goes through one doorbell core:
/// [`Fabric::read`] / [`Fabric::write`] post one WR and
/// [`Fabric::execute_batch`] a chain. It moves real bytes and charges
/// virtual time on both NICs (and, for TCP, the remote CPU — reproducing
/// Fig. 13).
pub struct Fabric {
    cfg: NetConfig,
    servers: RwLock<Vec<Arc<Server>>>,
    // ordered set: connection teardown sweeps iterate it, and hash order
    // would leak into replay
    connections: Mutex<BTreeSet<(ServerId, ServerId)>>,
    injector: RwLock<Option<Arc<FaultInjector>>>,
    auditor: RwLock<Option<Arc<Auditor>>>,
    metrics: RwLock<Option<Arc<FabricMetrics>>>,
    // ordered map: the teardown audit sweep iterates it
    wr_stats: Mutex<std::collections::BTreeMap<(ServerId, ServerId), WrStats>>,
}

impl Fabric {
    pub fn new(cfg: NetConfig) -> Fabric {
        Fabric {
            cfg,
            servers: RwLock::new(Vec::new()),
            connections: Mutex::new(BTreeSet::new()),
            injector: RwLock::new(None),
            auditor: RwLock::new(None),
            metrics: RwLock::new(None),
            wr_stats: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Attach (or detach) a telemetry registry. Verbs, MR registration and
    /// connection setup then publish counters/histograms under `nic.*` /
    /// `fabric.*` and wrap data movement in `net.read` / `net.write` spans.
    pub fn set_metrics(&self, registry: Option<Arc<MetricsRegistry>>) {
        *self.metrics.write() = registry.map(|r| Arc::new(FabricMetrics::new(r)));
    }

    /// Attach (or detach) a runtime invariant auditor to every NIC in the
    /// fabric — including servers added later.
    pub fn set_auditor(&self, auditor: Option<Arc<Auditor>>) {
        for s in self.servers.read().iter() {
            s.nic().set_auditor(auditor.clone());
        }
        *self.auditor.write() = auditor;
    }

    /// Attach (or detach, with `None`) a fault schedule. Every subsequent
    /// verb consults it.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.write() = injector;
    }

    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector.read().clone()
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Add a server (Table 3 hardware by default has 20 cores).
    pub fn add_server(&self, name: impl Into<String>, cores: usize) -> ServerId {
        let mut servers = self.servers.write();
        let id = ServerId(servers.len());
        let server = Arc::new(Server::new(id, name, cores, &self.cfg));
        if let Some(a) = self.auditor.read().as_ref() {
            server.nic().set_auditor(Some(Arc::clone(a)));
        }
        servers.push(server);
        id
    }

    pub fn server(&self, id: ServerId) -> Result<Arc<Server>, NetError> {
        self.servers
            .read()
            .get(id.0)
            .cloned()
            .ok_or(NetError::NoSuchServer(id))
    }

    pub fn server_count(&self) -> usize {
        self.servers.read().len()
    }

    fn live_server(&self, id: ServerId) -> Result<Arc<Server>, NetError> {
        let s = self.server(id)?;
        if !s.is_alive() {
            return Err(NetError::ServerDown(id));
        }
        Ok(s)
    }

    /// Set up a queue pair between two servers ("Open" in Table 2). Charges
    /// the connection setup time to `clock`. Idempotent.
    pub fn connect(&self, clock: &mut Clock, from: ServerId, to: ServerId) -> Result<(), NetError> {
        self.live_server(from)?;
        self.live_server(to)?;
        let mut conns = self.connections.lock();
        if conns.insert(ordered(from, to)) {
            clock.advance(self.cfg.connect_time);
            if let Some(m) = self.metrics.read().as_ref() {
                m.connects.incr();
            }
        }
        Ok(())
    }

    /// Tear down the queue pair ("Close" in Table 2). If an auditor is
    /// attached, the pair's work-request ledger is checked: every WR ever
    /// posted between the two servers must have produced a completion
    /// (successful or errored) — a real QP transitioning to error state
    /// flushes its queues the same way.
    pub fn disconnect(&self, from: ServerId, to: ServerId) {
        self.connections.lock().remove(&ordered(from, to));
        self.verify_wr_balance(from, to);
    }

    fn note_posted(&self, a: ServerId, b: ServerId, n: u64) {
        self.wr_stats
            .lock()
            .entry(ordered(a, b))
            .or_default()
            .posted += n;
    }

    fn note_completed(&self, a: ServerId, b: ServerId, n: u64) {
        self.wr_stats
            .lock()
            .entry(ordered(a, b))
            .or_default()
            .completed += n;
    }

    /// Lifetime (posted, completed) work-request counts between two servers.
    pub fn wr_counts(&self, a: ServerId, b: ServerId) -> (u64, u64) {
        let s = self
            .wr_stats
            .lock()
            .get(&ordered(a, b))
            .copied()
            .unwrap_or_default();
        (s.posted, s.completed)
    }

    /// Audit the WR ledger of one pair: posts == completions (no WR leaked
    /// in flight). Registration happens at teardown, so violations are
    /// stamped `SimTime::ZERO` like the NIC's registration invariants.
    fn verify_wr_balance(&self, a: ServerId, b: ServerId) {
        let guard = self.auditor.read();
        let Some(aud) = guard.as_ref() else { return };
        let s = self
            .wr_stats
            .lock()
            .get(&ordered(a, b))
            .copied()
            .unwrap_or_default();
        aud.check_balance(
            remem_sim::SimTime::ZERO,
            "qp",
            "wr-conservation",
            ("posted", s.posted as i128),
            &[("completed", s.completed as i128)],
        );
    }

    /// Audit every pair's WR ledger (used at full-fabric teardown).
    pub fn verify_all_wr_balances(&self) {
        let pairs: Vec<(ServerId, ServerId)> = self.wr_stats.lock().keys().copied().collect();
        for (a, b) in pairs {
            self.verify_wr_balance(a, b);
        }
    }

    /// Attribute an already-costed quorum write to the WAL append path.
    ///
    /// Pure telemetry: the caller (the engine's remote WAL, via the ring)
    /// has already paid the clock inside [`Fabric::write_quorum`]; this
    /// just files the group commit under `wal.quorum.*` so log traffic is
    /// separable from page re-replication in the same registry.
    pub fn note_wal_append(&self, bytes: u64, straggler_lag: SimDuration) {
        if let Some(fm) = self.metrics.read().as_ref() {
            fm.wal_appends.incr();
            fm.wal_bytes.add(bytes);
            fm.wal_straggler_lag.record(straggler_lag);
        }
    }

    pub fn is_connected(&self, a: ServerId, b: ServerId) -> bool {
        a == b || self.connections.lock().contains(&ordered(a, b))
    }

    /// Register `len` bytes of pinned memory on `server`, charging the
    /// registration cost to `clock` (the memory-broker proxy pays this once
    /// at startup — the pre-registration decision of Table 1).
    pub fn register_mr(
        &self,
        clock: &mut Clock,
        server: ServerId,
        len: u64,
    ) -> Result<MrHandle, NetError> {
        let s = self.live_server(server)?;
        let id = s.nic().register_mr(len)?;
        clock.advance(self.cfg.registration_cost(len));
        if let Some(m) = self.metrics.read().as_ref() {
            m.mr_registrations.incr();
            m.mr_bytes.add(len);
        }
        Ok(MrHandle {
            server,
            mr: id,
            len,
        })
    }

    /// Deregister (unpin) an MR, e.g. when the proxy detects local memory
    /// pressure and returns memory to the OS.
    pub fn deregister_mr(&self, handle: MrHandle) -> Result<(), NetError> {
        let s = self.server(handle.server)?;
        if s.nic().deregister_mr(handle.mr) {
            Ok(())
        } else {
            Err(NetError::NoSuchMr {
                server: handle.server,
                mr: handle.mr,
            })
        }
    }

    fn costs(&self, proto: Protocol) -> ProtocolCosts {
        let c = &self.cfg;
        match proto {
            Protocol::Custom => ProtocolCosts {
                bandwidth: c.nic_bandwidth,
                op_overhead: c.rdma_op_overhead,
                fixed_latency: c.propagation + c.sync_completion,
                remote_cpu_per_op: SimDuration::ZERO,
                remote_cpu_per_kib: SimDuration::ZERO,
            },
            Protocol::SmbDirect => ProtocolCosts {
                bandwidth: c.nic_bandwidth,
                op_overhead: c.rdma_op_overhead + c.smbdirect_op_overhead,
                fixed_latency: c.propagation + c.async_completion,
                remote_cpu_per_op: SimDuration::from_micros(2),
                remote_cpu_per_kib: SimDuration::ZERO,
            },
            Protocol::SmbTcp => ProtocolCosts {
                bandwidth: c.tcp_bandwidth,
                op_overhead: c.tcp_op_overhead,
                fixed_latency: c.tcp_fixed_latency,
                remote_cpu_per_op: c.tcp_remote_cpu_per_op,
                remote_cpu_per_kib: c.tcp_remote_cpu_per_kib,
            },
        }
    }

    /// Check that `local` may touch `[offset, offset + len)` of `handle`:
    /// both servers live and connected, the MR registered, the span in
    /// bounds. Returns the remote server and the resolved region.
    pub(crate) fn validate(
        &self,
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        len: u64,
    ) -> Result<(Arc<Server>, crate::mr::MemoryRegion), NetError> {
        self.live_server(local)?;
        let remote = self.live_server(handle.server)?;
        if !self.is_connected(local, handle.server) {
            return Err(NetError::NotConnected {
                from: local,
                to: handle.server,
            });
        }
        let mr = remote.nic().mr(handle.mr).ok_or(NetError::NoSuchMr {
            server: handle.server,
            mr: handle.mr,
        })?;
        if offset + len > mr.len() {
            return Err(NetError::OutOfBounds {
                mr: handle.mr,
                offset,
                len,
                mr_len: mr.len(),
            });
        }
        Ok((remote, mr))
    }

    /// Consult the attached fault schedule (if any) for one verb. An injected
    /// failure still costs the protocol's fixed latency (the time to detect
    /// the lost completion); injected slowness is charged after the normal
    /// transfer cost by the caller.
    fn consult_injector(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        remote: ServerId,
        offset: u64,
    ) -> Result<SimDuration, NetError> {
        let Some(inj) = self.injector.read().clone() else {
            return Ok(SimDuration::ZERO);
        };
        match inj.inject(clock.now(), local, remote, offset) {
            Ok(extra) => Ok(extra),
            Err(e) => {
                clock.advance(self.costs(proto).fixed_latency);
                Err(e)
            }
        }
    }

    /// Open a verb posted at `t0`: enter its `span` and post one WR per
    /// peer on the pair ledger.
    fn open<I>(
        &self,
        t0: SimTime,
        span: fn(&FabricMetrics) -> remem_sim::SpanId,
        local: ServerId,
        peers: I,
    ) -> InFlight<I>
    where
        I: IntoIterator<Item = ServerId> + Clone,
    {
        let fm = self.metrics.read().clone();
        let span = fm
            .as_ref()
            .map(|fm| fm.registry.span_enter_id(span(fm), t0));
        for peer in peers.clone() {
            self.note_posted(local, peer, 1);
        }
        InFlight {
            local,
            peers,
            fm,
            span,
            t0,
        }
    }

    /// Close a verb at `now`: complete its WRs on the ledger (errored ones
    /// too) and exit its span. Returns the meters to file its outcome
    /// under, with its post instant, when a registry is attached.
    fn close<I>(&self, v: InFlight<I>, now: SimTime) -> Option<(Arc<FabricMetrics>, SimTime)>
    where
        I: IntoIterator<Item = ServerId>,
    {
        for peer in v.peers {
            self.note_completed(v.local, peer, 1);
        }
        let fm = v.fm?;
        if let Some(span) = v.span {
            fm.registry.span_exit(span, now);
        }
        Some((fm, v.t0))
    }

    /// Read `buf.len()` bytes from `handle` at `offset` into `buf`
    /// (an RDMA read / SMB read depending on `proto`).
    pub fn read(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), NetError> {
        let sge = ReadSge {
            mr: handle,
            offset,
            buf,
        };
        self.post_one(clock, proto, local, sge)
    }

    /// Write `data` into `handle` at `offset`.
    pub fn write(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        handle: MrHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<(), NetError> {
        let sge = WriteSge {
            mr: handle,
            offset,
            data,
        };
        self.post_one(clock, proto, local, sge)
    }

    /// A scalar verb: `wr` posted alone through the doorbell core. It runs
    /// under its own `net.read`/`net.write` span and meters, never rings
    /// `fabric.batch.*`, and its latency is taken when the caller unblocks.
    fn post_one<P: Post>(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        mut wr: P,
    ) -> Result<(), NetError> {
        let read = wr.is_read();
        let span: fn(&FabricMetrics) -> remem_sim::SpanId = if read {
            |m| m.read_span
        } else {
            |m| m.write_span
        };
        let peer = wr.target().map(|(server, _)| server);
        let v = self.open(clock.now(), span, local, peer);
        let mut out = [BatchCompletion::PENDING];
        self.post(clock, proto, local, std::slice::from_mut(&mut wr), &mut out);
        let [c] = out;
        if let Some((fm, t0)) = self.close(v, clock.now()) {
            let ok = c.result.is_ok().then_some((1, c.bytes));
            fm.meters(read).file(ok, clock.now().since(t0));
        }
        c.result
    }

    /// Run a pushdown program over a page span of `handle` *near the
    /// memory*: a two-sided RPC that ships the tiny program out, evaluates
    /// predicates/projection/partial-aggregates on the memory server's own
    /// cores, and returns only the compacted payload.
    ///
    /// Cost model (all on virtual time, deterministic):
    /// * request: `program.encoded_len()` bytes through both NIC pipes;
    /// * eval: [`NetConfig::pushdown_eval_cost`] executed on the **memory
    ///   server's CPU pool**, where it contends with every other tenant —
    ///   plus the protocol's usual remote-CPU charge on the reply bytes
    ///   (TCP pays the kernel path, RDMA-based protocols don't);
    /// * reply: `payload.len()` bytes back through both pipes, then the
    ///   protocol's fixed latency.
    ///
    /// Unlike one-sided reads, wire bytes scale with the *result*, not the
    /// span — the Farview/REMOP trade the planner prices against plain
    /// [`Fabric::read`].
    pub fn pushdown(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        req: &PushdownRequest<'_>,
    ) -> Result<PushdownReply, NetError> {
        let v = self.open(
            clock.now(),
            |m| m.pushdown_span,
            local,
            Some(req.handle.server),
        );
        let res = self.pushdown_inner(clock, proto, local, req);
        if let Some((fm, t0)) = self.close(v, clock.now()) {
            let wire =
                |r: &PushdownReply| req.program.encoded_len() as u64 + r.payload.len() as u64;
            let ok = res.as_ref().ok().map(|r| (1, wire(r)));
            fm.pushdown.file(ok, clock.now().since(t0));
            if let Ok(reply) = &res {
                fm.pushdown_rows.add(reply.rows_matched);
                fm.pushdown_bytes_saved
                    .add(reply.bytes_scanned.saturating_sub(wire(reply)));
            }
        }
        res
    }

    fn pushdown_inner(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        req: &PushdownRequest<'_>,
    ) -> Result<PushdownReply, NetError> {
        let (remote, mr) = self.validate(local, req.handle, req.offset, req.len)?;
        let extra = self.consult_injector(clock, proto, local, req.handle.server, req.offset)?;
        let mut span_bytes = vec![0u8; req.len as usize];
        mr.read_into(req.offset, &mut span_bytes);
        let mut payload = Vec::new();
        let stats =
            remem_storage::eval_pages(&span_bytes, req.program, &mut payload).map_err(|_| {
                NetError::BadPushdown {
                    reason: "span is not a whole number of 8 KiB pages",
                }
            })?;
        let costs = self.costs(proto);
        let local_srv = self.live_server(local)?;
        let request_bytes = req.program.encoded_len() as u64;
        let reply_bytes = payload.len() as u64;
        // Request out: a tiny send carrying the program. The eval then runs
        // on the memory server's cores, contending with other tenants.
        let eval_cpu = self.cfg.pushdown_eval_cost(stats.rows_scanned, req.len);
        let server_cpu = eval_cpu + costs.remote_cpu(1, reply_bytes);
        let request = [(&*remote, request_bytes, server_cpu)];
        let (g, ends) = costs.reserve_pipes(clock.now(), &local_srv, request_bytes, request);
        let cpu_done = ends.fold(g.end, SimTime::max);
        // Reply back: only the compacted payload crosses the fabric.
        let reply = [(&*local_srv, reply_bytes, SimDuration::ZERO)];
        let (g, ends) = costs.reserve_pipes(cpu_done, &remote, reply_bytes, reply);
        clock.advance_to(ends.fold(g.end, SimTime::max) + costs.fixed_latency);
        clock.advance(extra);
        Ok(PushdownReply {
            payload,
            rows_scanned: stats.rows_scanned,
            rows_matched: stats.rows_matched,
            bytes_scanned: req.len,
            server_cpu,
        })
    }

    /// Fan `data` out to every replica in `targets` behind one doorbell,
    /// completing at the **quorum-th** ack (`⌈(n+1)/2⌉` of `n` targets).
    ///
    /// Semantics:
    /// * the bytes land on **every live** replica — only the caller's wait
    ///   is quorum-gated, so an acked write is readable from any survivor;
    /// * a dead replica (`ServerDown`, or its MR deregistered by the crash)
    ///   moves no bytes and never acks; if the live count drops below the
    ///   quorum the whole write fails after one detection latency and the
    ///   caller must refresh its replica view;
    /// * a replica inside a transient fault window still gets the bytes —
    ///   the reliable transport retransmits — but its ack is delayed, which
    ///   can push the quorum instant out (straggler);
    /// * replicas slower than the quorum ack keep their NIC pipes busy past
    ///   the caller's unblock: the catch-up is charged to whoever touches
    ///   that NIC next, not to this write;
    /// * malformed requests (`OutOfBounds`, `NotConnected`, unknown server)
    ///   fail the write as a unit without moving bytes or charging time.
    pub fn write_quorum(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        targets: &[(MrHandle, u64)],
        data: &[u8],
    ) -> Result<QuorumWrite, NetError> {
        assert!(
            !targets.is_empty(),
            "quorum write needs at least one replica"
        );
        let peers = targets.iter().map(|(h, _)| h.server);
        let v = self.open(clock.now(), |m| m.quorum_write_span, local, peers);
        let res = self.write_quorum_inner(clock, proto, local, targets, data);
        if let Some((fm, t0)) = self.close(v, clock.now()) {
            let ok = res.as_ref().ok();
            let acks = |q: &QuorumWrite| q.acks as u64;
            let moved = ok.map(|q| (acks(q), data.len() as u64 * acks(q)));
            fm.write.file(moved, clock.now().since(t0));
            if let Some(q) = ok {
                fm.quorum_writes.incr();
                fm.quorum_straggler_lag.record(q.straggler_lag);
            }
        }
        res
    }

    fn write_quorum_inner(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        targets: &[(MrHandle, u64)],
        data: &[u8],
    ) -> Result<QuorumWrite, NetError> {
        let costs = self.costs(proto);
        let n = targets.len();
        let quorum = (n + 2) / 2; // ⌈(n+1)/2⌉: 1→1, 2→2, 3→2, 5→3
        let local_srv = self.live_server(local)?;
        let bytes = data.len() as u64;
        // resolve replicas: a dead one just can't ack; anything structurally
        // wrong fails the WR as a unit
        let mut live: Vec<(Arc<Server>, crate::mr::MemoryRegion, u64)> = Vec::new();
        let mut down: Option<NetError> = None;
        for (handle, offset) in targets {
            match self.validate(local, *handle, *offset, bytes) {
                Ok((remote, mr)) => live.push((remote, mr, *offset)),
                Err(e @ (NetError::ServerDown(_) | NetError::NoSuchMr { .. })) => {
                    down.get_or_insert(e);
                }
                Err(structural) => return Err(structural),
            }
        }
        // fault schedule: a transient window delays that replica's ack (the
        // transport retransmits, bytes still land); a blackout kills it
        let inj = self.injector.read().clone();
        let mut acking = Vec::with_capacity(live.len());
        for (remote, mr, offset) in live {
            let outcome = match &inj {
                Some(inj) => inj.inject(clock.now(), local, remote.id(), offset),
                None => Ok(SimDuration::ZERO),
            };
            match outcome {
                Ok(extra) => acking.push((remote, mr, offset, extra)),
                Err(NetError::Transient { .. }) => {
                    // retransmit penalty: the ack arrives, late
                    acking.push((remote, mr, offset, costs.fixed_latency * 4));
                }
                Err(e) => {
                    down.get_or_insert(e);
                }
            }
        }
        if acking.len() < quorum {
            // not enough acks can ever arrive: one detection latency, no
            // bytes move anywhere (the client must re-issue against a
            // refreshed replica view, so partial delivery never counts)
            clock.advance(costs.fixed_latency);
            return Err(down.unwrap_or(NetError::ServerDown(targets[0].0.server)));
        }
        // one doorbell posts the whole fan-out chain: the local NIC pays a
        // single op overhead and serializes every replica's copy of the
        // payload; each remote pays its own op + serialization
        let tax = costs.remote_cpu(1, bytes);
        let replicas = acking.iter().map(|(remote, ..)| (&**remote, bytes, tax));
        let fan_bytes = bytes * acking.len() as u64;
        let (_, ends) = costs.reserve_pipes(clock.now(), &local_srv, fan_bytes, replicas);
        let mut acks: Vec<SimTime> = ends
            .zip(&acking)
            .map(|(end, (.., extra))| end + costs.fixed_latency + *extra)
            .collect();
        acks.sort_unstable();
        let ack_at = acks[quorum - 1];
        let slowest = acks.last().copied().unwrap_or(ack_at);
        clock.advance_to(ack_at);
        for (_, mr, offset, _) in &acking {
            mr.write_from(*offset, data);
        }
        Ok(QuorumWrite {
            replicas: n,
            acks: acking.len(),
            quorum,
            completed_at: ack_at,
            straggler_lag: slowest.since(ack_at),
        })
    }

    /// Execute a chain of vectored work requests behind **one doorbell**
    /// (cost model and per-WR semantics: [`Fabric::post`]). This is what
    /// makes deep queues approach NIC bandwidth while scalar verbs flatline
    /// at the per-op ceiling (`repro_qd_sweep`).
    pub fn execute_batch(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        wrs: &mut [WorkRequest<'_>],
    ) -> Vec<BatchCompletion> {
        if wrs.is_empty() {
            return Vec::new();
        }
        let peers: Vec<ServerId> = wrs.iter().filter_map(|wr| Some(wr.target()?.0)).collect();
        let v = self.open(clock.now(), |m| m.batch_span, local, peers);
        let mut out: Vec<BatchCompletion> = wrs.iter().map(|_| BatchCompletion::PENDING).collect();
        self.post(clock, proto, local, wrs, &mut out);
        if let Some((fm, t0)) = self.close(v, clock.now()) {
            fm.batch_doorbells.incr();
            fm.batch_size
                .record(SimDuration::from_nanos(wrs.len() as u64));
            for (wr, c) in wrs.iter().zip(&out) {
                let ok = c.result.is_ok().then_some((1, c.bytes));
                fm.meters(wr.is_read()).file(ok, c.completed_at.since(t0));
            }
        }
        out
    }

    /// The doorbell core every read and write posts through, one WR or a
    /// chain (Appendix A + "The End of Slow Networks").
    ///
    /// Each WR, in post order, has every SGE validated and then the fault
    /// schedule consulted. A WR that fails either completes with that
    /// error: it fails as a unit, moves no bytes and is not charged, and
    /// the rest of the chain still executes. A survivor's bytes move at
    /// once, since data movement does not depend on virtual time.
    ///
    /// Then one doorbell charges the survivors: a single `op_overhead` on
    /// the local pipe, after which all bytes serialize at line rate. Each
    /// remote NIC touched pays one `op_overhead` for its half of the
    /// pipeline plus its share of the bytes, and its remote-CPU tax per WR.
    /// `fixed_latency` is paid once, because the caller only spins on the
    /// last completion, and injected slowness delays the chain by the
    /// worst window hit.
    ///
    /// Finally `out` (one slot per WR) is stamped: WR i completes once the
    /// chain has serialized the cumulative bytes through i, so completions
    /// are monotone in post order and the last lands at the doorbell's end.
    fn post<P: Post>(
        &self,
        clock: &mut Clock,
        proto: Protocol,
        local: ServerId,
        wrs: &mut [P],
        out: &mut [BatchCompletion],
    ) {
        let costs = self.costs(proto);
        let sender = self.live_server(local);
        let mut extra = SimDuration::ZERO;
        for (wr, c) in wrs.iter_mut().zip(out.iter_mut()) {
            c.bytes = wr.bytes();
            c.result = sender
                .as_ref()
                .map_err(NetError::clone)
                .and_then(|_| wr.resolve(self, local))
                .and_then(|regions| {
                    if let Some((server, offset)) = wr.target() {
                        let slow = self.consult_injector(clock, proto, local, server, offset)?;
                        extra = extra.max(slow);
                    }
                    wr.execute(regions);
                    Ok(())
                });
        }

        let mut doorbell = None;
        if let (Ok(sender), true) = (&sender, out.iter().any(|c| c.result.is_ok())) {
            // one receive leg per remote NIC the survivors touch, in server
            // order, found by scanning rather than collecting so that a
            // one-WR post allocates nothing
            let survivors = || {
                wrs.iter()
                    .zip(out.iter())
                    .filter(|(_, c)| c.result.is_ok())
                    .filter_map(|(wr, c)| Some((wr.target()?.0, c.bytes)))
            };
            let next_after = |prev: Option<ServerId>| {
                survivors()
                    .map(|(server, _)| server)
                    .filter(|&server| Some(server) > prev)
                    .min()
            };
            let legs = std::iter::successors(next_after(None), |&s| next_after(Some(s)))
                .filter_map(|server| {
                    let (bytes, ops) = survivors()
                        .filter(|&(s, _)| s == server)
                        .fold((0, 0), |(b, n), (_, len)| (b + len, n + 1));
                    Some((
                        self.server(server).ok()?,
                        bytes,
                        costs.remote_cpu(ops, bytes),
                    ))
                });
            let total = survivors().map(|(_, bytes)| bytes).sum();
            // a receiver starts no earlier than the sender; with one WR it
            // serializes the same bytes, so the post ends at its receiver's
            // end, exactly as a scalar verb always did
            let (g, ends) = costs.reserve_pipes(clock.now(), sender, total, legs);
            clock.advance_to(ends.fold(g.end, SimTime::max) + costs.fixed_latency);
            clock.advance(extra);
            doorbell = Some(g.start);
        }

        let done = clock.now();
        let mut cum = 0;
        for c in out.iter_mut() {
            c.completed_at = done;
            if let (Ok(()), Some(start)) = (&c.result, doorbell) {
                cum += c.bytes;
                let serialized = start
                    + costs.op_overhead
                    + SimDuration::for_transfer(cum, costs.bandwidth)
                    + costs.fixed_latency;
                c.completed_at = serialized.min(done);
            }
        }
    }

    /// Direct peek at remote memory without charging time — used only by
    /// tests and assertions, never by the modelled system.
    pub fn peek(&self, handle: MrHandle, offset: u64, buf: &mut [u8]) -> Result<(), NetError> {
        let s = self.server(handle.server)?;
        let mr = s.nic().mr(handle.mr).ok_or(NetError::NoSuchMr {
            server: handle.server,
            mr: handle.mr,
        })?;
        if offset + buf.len() as u64 > mr.len() {
            return Err(NetError::OutOfBounds {
                mr: handle.mr,
                offset,
                len: buf.len() as u64,
                mr_len: mr.len(),
            });
        }
        mr.read_into(offset, buf);
        Ok(())
    }
}

fn ordered(a: ServerId, b: ServerId) -> (ServerId, ServerId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remem_sim::{ClosedLoopDriver, Histogram, SimTime};

    fn two_server_fabric() -> (Fabric, ServerId, ServerId, MrHandle) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let mem = fabric.add_server("M1", 20);
        let mut proxy_clock = Clock::new();
        let handle = fabric.register_mr(&mut proxy_clock, mem, 1 << 20).unwrap();
        let mut clock = Clock::new();
        fabric.connect(&mut clock, db, mem).unwrap();
        (fabric, db, mem, handle)
    }

    #[test]
    fn rdma_moves_real_bytes() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 4096, &data)
            .unwrap();
        let mut out = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 4096, &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    /// Build one engine-format slotted page of `(key, key as f64 * 10.0)`
    /// rows for keys `0..n`.
    fn rows_page(n: usize) -> Vec<u8> {
        let mut page = vec![0u8; 8192];
        let mut free = 8192usize;
        for i in 0..n {
            let mut rec = Vec::new();
            rec.extend_from_slice(&2u16.to_le_bytes());
            rec.push(0);
            rec.extend_from_slice(&(i as i64).to_le_bytes());
            rec.push(1);
            rec.extend_from_slice(&(i as f64 * 10.0).to_le_bytes());
            free -= rec.len();
            page[free..free + rec.len()].copy_from_slice(&rec);
            let base = 4 + i * 4;
            page[base..base + 2].copy_from_slice(&(free as u16).to_le_bytes());
            page[base + 2..base + 4].copy_from_slice(&(rec.len() as u16).to_le_bytes());
        }
        page[0..2].copy_from_slice(&(n as u16).to_le_bytes());
        page[2..4].copy_from_slice(&(free as u16).to_le_bytes());
        page
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
    fn pushdown_filters_near_memory_and_shrinks_wire_bytes() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let registry = Arc::new(MetricsRegistry::new());
        fabric.set_metrics(Some(Arc::clone(&registry)));
        let mut clock = Clock::new();
        let page = rows_page(16);
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &page)
            .unwrap();
        let prog = key_lt(4);
        let reply = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap();
        assert_eq!((reply.rows_scanned, reply.rows_matched), (16, 4));
        // payload is exactly the 4 matching rows, engine row encoding
        let mut expect = Vec::new();
        remem_storage::eval_pages(&page, &prog, &mut expect).unwrap();
        assert_eq!(reply.payload, expect);
        assert!(reply.server_cpu > SimDuration::ZERO);
        // far fewer wire bytes than the full page fetch it replaces
        let wire = registry.counter("fabric.pushdown.bytes").get();
        assert!(wire < 8192 / 4, "wire bytes {wire}");
        assert_eq!(registry.counter("nic.pushdown.ops").get(), 1);
        assert_eq!(
            registry.counter("fabric.pushdown.bytes_saved").get(),
            8192 - wire
        );
        assert_eq!(registry.span_stats("net.pushdown").count, 1);
    }

    #[test]
    fn pushdown_charges_the_memory_servers_cpu() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let page = rows_page(32);
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &page)
            .unwrap();
        let remote = fabric.server(mem).unwrap();
        let before = clock.now();
        let prog = key_lt(1);
        let reply = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap();
        // the eval cost showed up on the memory server's core pool, not
        // just as latency — Custom reads never touch that pool
        assert!(remote.cpu().utilization(clock.now()) > 0.0);
        assert_eq!(
            reply.server_cpu,
            fabric.config().pushdown_eval_cost(32, 8192)
        );
        assert!(clock.now() > before);
    }

    #[test]
    fn pushdown_rejects_unaligned_spans() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let prog = key_lt(1);
        let err = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 100,
                    program: &prog,
                },
            )
            .unwrap_err();
        assert!(matches!(err, NetError::BadPushdown { .. }));
    }

    #[test]
    fn pushdown_respects_fault_windows() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let inj = crate::fault::FaultInjector::new(7).flaky_window(
            mem,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(1),
            1.0,
        );
        fabric.set_fault_injector(Some(Arc::new(inj)));
        let mut clock = Clock::new();
        let prog = key_lt(1);
        let err = fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Transient { .. }), "{err:?}");
        // after the window clears, the same request succeeds
        clock.advance(SimDuration::from_secs(2));
        fabric
            .pushdown(
                &mut clock,
                Protocol::Custom,
                db,
                &PushdownRequest {
                    handle,
                    offset: 0,
                    len: 8192,
                    program: &prog,
                },
            )
            .unwrap();
    }

    fn replica_fabric(k: usize) -> (Fabric, ServerId, Vec<ServerId>, Vec<MrHandle>) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 20);
        let mut donors = Vec::new();
        let mut handles = Vec::new();
        let mut clock = Clock::new();
        for i in 0..k {
            let m = fabric.add_server(format!("M{i}"), 20);
            let h = fabric.register_mr(&mut clock, m, 1 << 20).unwrap();
            fabric.connect(&mut clock, db, m).unwrap();
            donors.push(m);
            handles.push(h);
        }
        (fabric, db, donors, handles)
    }

    #[test]
    fn quorum_write_lands_on_every_live_replica() {
        let (fabric, db, _donors, handles) = replica_fabric(3);
        let mut clock = Clock::new();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
        let q = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &data)
            .unwrap();
        assert_eq!((q.replicas, q.acks, q.quorum), (3, 3, 2));
        for h in &handles {
            let mut out = vec![0u8; 8192];
            fabric
                .read(&mut clock, Protocol::Custom, db, *h, 0, &mut out)
                .unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn quorum_survives_minority_crash_and_fails_below_quorum() {
        let (fabric, db, donors, handles) = replica_fabric(3);
        let mut clock = Clock::new();
        let data = vec![7u8; 4096];
        let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
        fabric.server(donors[2]).unwrap().fail();
        let q = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &data)
            .unwrap();
        assert_eq!((q.replicas, q.acks, q.quorum), (3, 2, 2));
        for h in &handles[..2] {
            let mut out = vec![0u8; 4096];
            fabric
                .read(&mut clock, Protocol::Custom, db, *h, 0, &mut out)
                .unwrap();
            assert_eq!(out, data);
        }
        // a second crash drops the live count below the quorum: the write
        // fails as a unit and must not leave partial bytes anywhere
        fabric.server(donors[1]).unwrap().fail();
        let fresh = vec![9u8; 4096];
        let err = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &fresh)
            .unwrap_err();
        assert!(matches!(err, NetError::ServerDown(_)));
        let mut out = vec![0u8; 4096];
        fabric
            .read(&mut clock, Protocol::Custom, db, handles[0], 0, &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn straggler_ack_does_not_gate_the_quorum() {
        let run = |slow: bool| {
            let (fabric, db, donors, handles) = replica_fabric(3);
            if slow {
                let inj = FaultInjector::new(1).slow_window(
                    donors[2],
                    SimTime::ZERO,
                    SimTime(1_000_000_000),
                    SimDuration::from_millis(2),
                );
                fabric.set_fault_injector(Some(Arc::new(inj)));
            }
            let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
            let mut clock = Clock::new();
            let q = fabric
                .write_quorum(
                    &mut clock,
                    Protocol::Custom,
                    db,
                    &targets,
                    &vec![3u8; 65536],
                )
                .unwrap();
            (clock.now(), q.straggler_lag)
        };
        let (t_base, lag_base) = run(false);
        let (t_slow, lag_slow) = run(true);
        assert!(lag_base.is_zero(), "symmetric replicas complete together");
        assert_eq!(
            t_base, t_slow,
            "the quorum ack gates the client, not the straggler"
        );
        assert!(lag_slow >= SimDuration::from_millis(2));
    }

    #[test]
    fn transient_replica_still_receives_the_bytes() {
        let (fabric, db, donors, handles) = replica_fabric(3);
        let inj = FaultInjector::new(2).flaky_window(
            donors[1],
            SimTime::ZERO,
            SimTime(1_000_000_000),
            1.0,
        );
        fabric.set_fault_injector(Some(Arc::new(inj)));
        let mut clock = Clock::new();
        let data = vec![5u8; 8192];
        let targets: Vec<(MrHandle, u64)> = handles.iter().map(|h| (*h, 0)).collect();
        let q = fabric
            .write_quorum(&mut clock, Protocol::Custom, db, &targets, &data)
            .unwrap();
        assert_eq!(q.acks, 3, "a flaky replica acks late, it does not drop out");
        assert!(!q.straggler_lag.is_zero());
        fabric.set_fault_injector(None);
        let mut out = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handles[1], 0, &mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unloaded_rdma_page_read_is_about_10us() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        let us = clock.now().as_micros_f64();
        assert!(
            (5.0..=15.0).contains(&us),
            "RDMA 8K read took {us}us, paper says ~10us"
        );
    }

    #[test]
    fn protocol_latency_ordering_matches_fig4() {
        // Unloaded single 8K read: Custom < SMBDirect < SMB+TCP.
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut lat = Vec::new();
        for proto in Protocol::ALL {
            let mut clock = Clock::new();
            let mut buf = vec![0u8; 8192];
            fabric
                .read(&mut clock, proto, db, handle, 0, &mut buf)
                .unwrap();
            lat.push(clock.now().as_micros_f64());
        }
        assert!(lat[0] < lat[1], "Custom {} !< SMBDirect {}", lat[0], lat[1]);
        assert!(lat[1] < lat[2], "SMBDirect {} !< SMB {}", lat[1], lat[2]);
    }

    /// Reproduces the shape of Fig. 3: with 20 concurrent readers of random
    /// 8K pages, Custom sustains ~4 GB/s, SMBDirect ~1.4 GB/s, TCP ~0.7 GB/s.
    #[test]
    fn fig3_random_read_throughput_shape() {
        let mut tput = Vec::new();
        for proto in Protocol::ALL {
            let (fabric, db, _mem, handle) = two_server_fabric();
            let horizon = SimTime(50_000_000); // 50 ms
            let mut driver = ClosedLoopDriver::new(20, horizon);
            let h = Histogram::new();
            let mut buf = vec![0u8; 8192];
            let ops = driver.run(&h, |_, clock| {
                fabric.read(clock, proto, db, handle, 0, &mut buf).unwrap();
            });
            let gbps = ops as f64 * 8192.0 / horizon.as_secs_f64() / 1e9;
            tput.push(gbps);
        }
        let (custom, smbd, tcp) = (tput[0], tput[1], tput[2]);
        assert!(
            (3.0..=5.0).contains(&custom),
            "Custom random {custom} GB/s (paper 4.27)"
        );
        assert!(
            (1.0..=2.2).contains(&smbd),
            "SMBDirect random {smbd} GB/s (paper 1.36)"
        );
        assert!(
            (0.4..=1.0).contains(&tcp),
            "TCP random {tcp} GB/s (paper 0.64)"
        );
        // paper: Custom ≈ 3.4x SMBDirect on random I/O
        assert!(
            custom / smbd > 2.0,
            "Custom/SMBDirect ratio {}",
            custom / smbd
        );
    }

    #[test]
    fn tcp_consumes_remote_cpu_rdma_does_not() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let horizon = SimTime(10_000_000);
        let mut buf = vec![0u8; 8192];

        let mut driver = ClosedLoopDriver::new(8, horizon);
        let h = Histogram::new();
        driver.run(&h, |_, clock| {
            fabric
                .read(clock, Protocol::Custom, db, handle, 0, &mut buf)
                .unwrap();
        });
        let rdma_cpu = fabric.server(mem).unwrap().cpu().utilization(horizon);

        let (fabric2, db2, mem2, handle2) = two_server_fabric();
        let mut driver2 = ClosedLoopDriver::new(8, horizon);
        let h2 = Histogram::new();
        driver2.run(&h2, |_, clock| {
            fabric2
                .read(clock, Protocol::SmbTcp, db2, handle2, 0, &mut buf)
                .unwrap();
        });
        let tcp_cpu = fabric2.server(mem2).unwrap().cpu().utilization(horizon);

        assert!(rdma_cpu < 0.001, "RDMA remote CPU {rdma_cpu}");
        assert!(tcp_cpu > 0.005, "TCP remote CPU {tcp_cpu}");
    }

    #[test]
    fn dead_server_fails_best_effort() {
        let (fabric, db, mem, handle) = two_server_fabric();
        fabric.server(mem).unwrap().fail();
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 16];
        assert_eq!(
            fabric.read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::ServerDown(mem))
        );
        // restart: connection and MR metadata still exist in this model,
        // but contents are zeroed only on reregistration — the caller's job.
        fabric.server(mem).unwrap().restart();
        assert!(fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .is_ok());
    }

    #[test]
    fn unconnected_access_is_rejected() {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB1", 4);
        let mem = fabric.add_server("M1", 4);
        let mut clock = Clock::new();
        let handle = fabric.register_mr(&mut clock, mem, 1024).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            fabric.read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::NotConnected { from: db, to: mem })
        );
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let mut buf = [0u8; 64];
        let err = fabric.read(
            &mut clock,
            Protocol::Custom,
            db,
            handle,
            handle.len - 32,
            &mut buf,
        );
        assert!(matches!(err, Err(NetError::OutOfBounds { .. })));
    }

    #[test]
    fn injected_blackout_fails_verbs_then_clears() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let inj = Arc::new(FaultInjector::new(3).blackout(mem, SimTime(0), SimTime(1_000_000)));
        fabric.set_fault_injector(Some(inj.clone()));
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 64];
        assert_eq!(
            fabric.read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf),
            Err(NetError::ServerDown(mem))
        );
        assert!(
            clock.now() > SimTime::ZERO,
            "failure detection must cost time"
        );
        // past the window the same verb succeeds
        clock.advance_to(SimTime(1_000_000));
        assert!(fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .is_ok());
        assert!(
            inj.log()
                .count("net.blackout", remem_sim::FaultOrigin::Observed)
                >= 1
        );
    }

    #[test]
    fn injected_slowness_adds_latency() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        let baseline = clock.now();

        let (fabric2, db2, mem2, handle2) = two_server_fabric();
        let _ = mem;
        let extra = SimDuration::from_micros(250);
        fabric2.set_fault_injector(Some(Arc::new(FaultInjector::new(3).slow_window(
            mem2,
            SimTime::ZERO,
            SimTime(1 << 40),
            extra,
        ))));
        let mut clock2 = Clock::new();
        fabric2
            .read(&mut clock2, Protocol::Custom, db2, handle2, 0, &mut buf)
            .unwrap();
        assert_eq!(clock2.now(), baseline + extra);
    }

    #[test]
    fn metrics_record_verbs_registrations_and_spans() {
        let registry = MetricsRegistry::shared();
        let fabric = Fabric::new(NetConfig::default());
        fabric.set_metrics(Some(Arc::clone(&registry)));
        let db = fabric.add_server("DB1", 4);
        let mem = fabric.add_server("M1", 4);
        let mut clock = Clock::new();
        let handle = fabric.register_mr(&mut clock, mem, 1 << 20).unwrap();
        fabric.connect(&mut clock, db, mem).unwrap();
        let mut buf = vec![0u8; 8192];
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &buf)
            .unwrap();
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();

        assert_eq!(registry.counter("nic.read.ops").get(), 2);
        assert_eq!(registry.counter("nic.write.ops").get(), 1);
        assert_eq!(registry.counter("fabric.read.bytes").get(), 16384);
        assert_eq!(registry.counter("fabric.write.bytes").get(), 8192);
        assert_eq!(registry.counter("fabric.mr.registrations").get(), 1);
        assert_eq!(registry.counter("fabric.connects").get(), 1);
        let span = registry.span_stats("net.read");
        assert_eq!(span.count, 2);
        assert!(span.total > SimDuration::ZERO);

        // failed verbs land in the error counter, not the latency histogram
        let mut big = vec![0u8; 64];
        let _ = fabric.read(
            &mut clock,
            Protocol::Custom,
            db,
            handle,
            handle.len - 8,
            &mut big,
        );
        assert_eq!(registry.counter("fabric.read.errors").get(), 1);
        assert_eq!(registry.counter("nic.read.ops").get(), 2);
    }

    #[test]
    fn wr_ledger_balances_at_disconnect() {
        let (fabric, db, mem, handle) = two_server_fabric();
        let aud = Arc::new(remem_audit::Auditor::recording());
        fabric.set_auditor(Some(Arc::clone(&aud)));
        let mut clock = Clock::new();
        let mut buf = vec![0u8; 4096];
        fabric
            .read(&mut clock, Protocol::Custom, db, handle, 0, &mut buf)
            .unwrap();
        fabric
            .write(&mut clock, Protocol::Custom, db, handle, 0, &buf)
            .unwrap();
        // errored verbs still complete (no leaked WRs)
        let mut big = vec![0u8; 64];
        let _ = fabric.read(
            &mut clock,
            Protocol::Custom,
            db,
            handle,
            handle.len - 8,
            &mut big,
        );
        let (posted, completed) = fabric.wr_counts(db, mem);
        assert_eq!(posted, 3);
        assert_eq!(completed, 3);
        fabric.disconnect(db, mem);
        fabric.verify_all_wr_balances();
        assert_eq!(aud.violation_count(), 0, "{}", aud.report());
    }

    /// The fluid-queue saturation story of `repro_qd_sweep` in miniature: a
    /// deep batch of page reads approaches NIC line rate, while the scalar
    /// loop is capped by per-op overhead + fixed latency.
    #[test]
    fn deep_batches_approach_nic_bandwidth() {
        let n = 256usize;
        let (fabric, db, _mem, handle) = two_server_fabric();
        let mut clock = Clock::new();
        let t0 = clock.now();
        let mut bufs = vec![vec![0u8; 8192]; n];
        let mut wrs: Vec<crate::verbs::WorkRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| {
                crate::verbs::WorkRequest::Read(vec![crate::verbs::ReadSge {
                    mr: handle,
                    offset: ((i * 8192) % (1 << 20)) as u64,
                    buf: b,
                }])
            })
            .collect();
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert!(completions.iter().all(|c| c.result.is_ok()));
        let secs = clock.now().since(t0).as_secs_f64();
        let gbps = (n as f64 * 8192.0) / secs / 1e9;
        // line rate is 5.5 GB/s; one doorbell over 2 MiB should get close
        assert!(gbps > 4.0, "batched throughput {gbps} GB/s");
    }

    #[test]
    fn connect_is_idempotent_and_charged_once() {
        let fabric = Fabric::new(NetConfig::default());
        let a = fabric.add_server("A", 4);
        let b = fabric.add_server("B", 4);
        let mut clock = Clock::new();
        fabric.connect(&mut clock, a, b).unwrap();
        let after_first = clock.now();
        fabric.connect(&mut clock, a, b).unwrap();
        assert_eq!(clock.now(), after_first);
        // symmetric
        assert!(fabric.is_connected(b, a));
        fabric.disconnect(b, a);
        assert!(!fabric.is_connected(a, b));
    }

    /// The scalar verbs are one-WR posts of the doorbell core. On every
    /// protocol, with no fault, inside a slow window and through a
    /// blackout, a scalar `read`/`write` and the same access posted as a
    /// one-WR `execute_batch` end at the same virtual instant, move the
    /// same bytes and fail with the same error. Only the batch rings
    /// `fabric.batch.*`.
    #[test]
    fn scalar_verbs_match_one_wr_batches() {
        use crate::verbs::{ReadSge, WorkRequest, WriteSge};
        let faults: [fn(ServerId) -> Option<FaultInjector>; 3] = [
            |_| None,
            |mem| {
                let extra = SimDuration::from_micros(250);
                Some(FaultInjector::new(5).slow_window(
                    mem,
                    SimTime(30_000),
                    SimTime(1 << 40),
                    extra,
                ))
            },
            |mem| Some(FaultInjector::new(5).blackout(mem, SimTime::ZERO, SimTime(40_000))),
        ];
        let data: Vec<u8> = (0..65536u32).map(|i| (i % 253) as u8).collect();
        for proto in Protocol::ALL {
            for (f, fault) in faults.iter().enumerate() {
                let run = |batched: bool| {
                    let (fabric, db, mem, handle) = two_server_fabric();
                    let registry = MetricsRegistry::shared();
                    fabric.set_metrics(Some(Arc::clone(&registry)));
                    fabric.set_fault_injector(fault(mem).map(Arc::new));
                    // two tenants post at once, so one queues behind the
                    // other on both NIC pipes (and, for TCP, the remote CPU)
                    let mut clocks = [Clock::new(), Clock::new()];
                    let mut trace = Vec::new();
                    let lens = [8192, 65536, 100, 8192, 0, 65536, 4096, 8192];
                    for (i, len) in lens.into_iter().enumerate() {
                        let clock = &mut clocks[i % 2];
                        // the last access runs off the end of the MR
                        let offset = if i == 7 {
                            handle.len - 4096
                        } else {
                            i as u64 * 4096
                        };
                        let src = &data[..len];
                        let wrote = if batched {
                            let sge = WriteSge {
                                mr: handle,
                                offset,
                                data: src,
                            };
                            let mut wrs = [WorkRequest::Write(vec![sge])];
                            fabric
                                .execute_batch(clock, proto, db, &mut wrs)
                                .remove(0)
                                .result
                        } else {
                            fabric.write(clock, proto, db, handle, offset, src)
                        };
                        let after_write = clock.now();
                        let mut buf = vec![0u8; len];
                        let read = if batched {
                            let sge = ReadSge {
                                mr: handle,
                                offset,
                                buf: &mut buf,
                            };
                            let mut wrs = [WorkRequest::Read(vec![sge])];
                            fabric
                                .execute_batch(clock, proto, db, &mut wrs)
                                .remove(0)
                                .result
                        } else {
                            fabric.read(clock, proto, db, handle, offset, &mut buf)
                        };
                        trace.push((wrote, after_write, read, clock.now(), buf));
                    }
                    let bytes = |name: &str| registry.counter(name).get();
                    let moved = (bytes("fabric.read.bytes"), bytes("fabric.write.bytes"));
                    (
                        trace,
                        moved,
                        fabric.wr_counts(db, mem),
                        bytes("fabric.batch.doorbells"),
                    )
                };
                let (scalar, batch) = (run(false), run(true));
                let ctx = format!("{proto:?}, fault #{f}");
                assert_eq!(scalar.0, batch.0, "{ctx}");
                assert_eq!(scalar.1, batch.1, "{ctx}");
                assert_eq!(scalar.2, batch.2, "{ctx}");
                assert_eq!(scalar.3, 0, "{ctx}: the scalar path rang a doorbell");
                assert_eq!(batch.3, 16, "{ctx}");
                // every fault case both succeeds and fails somewhere
                let oks = scalar
                    .0
                    .iter()
                    .filter(|t| t.0.is_ok() && t.2.is_ok())
                    .count();
                assert!(oks > 0 && oks < 8, "{ctx}: {oks} ok");
            }
        }
    }
}
