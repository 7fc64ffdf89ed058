//! Property-based tests for the replicated fan-out write path: whatever the
//! replica count, payload shapes and crash points, an **acked** quorum write
//! is readable from every surviving replica (no partial fan-outs become
//! visible), a failed one leaves the previously-acked image intact, and the
//! whole workload replays byte-identically from the same seed.

use std::cell::Cell;
use std::sync::Arc;

use proptest::prelude::*;
use remem_net::{Fabric, MrHandle, NetConfig, NetError, Protocol, ServerId};
use remem_sim::{Clock, ClosedLoopDriver, FaultLog, FaultOrigin, SimTime};

const MR: u64 = 1 << 20;

struct QuorumRig {
    fabric: Arc<Fabric>,
    db: ServerId,
    donors: Vec<ServerId>,
    handles: Vec<MrHandle>,
}

fn rig(k: usize) -> QuorumRig {
    let fabric = Arc::new(Fabric::new(NetConfig::default()));
    let db = fabric.add_server("DB", 8);
    let mut donors = Vec::new();
    let mut handles = Vec::new();
    let mut setup = Clock::new();
    for i in 0..k {
        let m = fabric.add_server(format!("M{i}"), 8);
        let h = fabric.register_mr(&mut setup, m, MR).unwrap();
        fabric.connect(&mut setup, db, m).unwrap();
        donors.push(m);
        handles.push(h);
    }
    QuorumRig {
        fabric,
        db,
        donors,
        handles,
    }
}

/// Deterministic payload for (seed, op) — distinct per write so a stale or
/// torn replica can't masquerade as the acked image.
fn payload(seed: u64, op: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31) as usize + op * 131 + i * 7 % 251) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Linearizability under crashes: interleave quorum writes with donor
    /// crashes at arbitrary points in the sequence. While a quorum of
    /// replicas survives, every acked write must be readable from **every**
    /// live replica; once too few survive, writes fail as a unit and the
    /// last acked image stays intact on the survivors.
    #[test]
    fn acked_writes_readable_from_every_survivor(
        k in prop_oneof![Just(2usize), Just(3), Just(5)],
        seed in 0u64..1024,
        ops in prop::collection::vec((any::<bool>(), 1usize..32_000, 0u64..8), 1..24),
    ) {
        let r = rig(k);
        let quorum = (k + 2) / 2; // ⌈(k+1)/2⌉
        let mut clock = Clock::new();
        let mut alive = vec![true; k];
        // the last acked image per offset slot (all writes here go to 0)
        let mut acked: Option<Vec<u8>> = None;
        for (op, (crash, len, which)) in ops.into_iter().enumerate() {
            if crash {
                // crash a (possibly already dead) donor chosen by the seed
                let victim = (which as usize) % k;
                if alive[victim] {
                    r.fabric.server(r.donors[victim]).unwrap().fail();
                    alive[victim] = false;
                }
                continue;
            }
            let data = payload(seed, op, len);
            let targets: Vec<(MrHandle, u64)> =
                r.handles.iter().map(|h| (*h, 0)).collect();
            let live = alive.iter().filter(|a| **a).count();
            let res = r
                .fabric
                .write_quorum(&mut clock, Protocol::Custom, r.db, &targets, &data);
            if live >= quorum {
                let q = res.unwrap();
                prop_assert_eq!(q.acks, live, "every live replica acks");
                prop_assert_eq!(q.quorum, quorum);
                acked = Some(data);
            } else {
                prop_assert!(
                    matches!(res, Err(NetError::ServerDown(_))),
                    "below-quorum writes fail as a unit: {res:?}"
                );
            }
            // every surviving replica serves the last acked image — a write
            // is never visible on some replicas and missing on others
            if let Some(img) = &acked {
                for (i, h) in r.handles.iter().enumerate() {
                    if !alive[i] {
                        continue;
                    }
                    let mut out = vec![0u8; img.len()];
                    r.fabric
                        .read(&mut clock, Protocol::Custom, r.db, *h, 0, &mut out)
                        .unwrap();
                    prop_assert_eq!(
                        &out, img,
                        "replica {} diverged after op {}", i, op
                    );
                }
            }
        }
    }

    /// Same-seed replay: a closed-loop quorum workload with a mid-run
    /// donor crash produces the identical fault-log fingerprint, makespan
    /// and ack tally when run twice.
    #[test]
    fn quorum_workload_replays_identically(
        seed in 0u64..256,
        workers in 2usize..5,
    ) {
        let run_once = || -> Result<(u64, SimTime, u64), String> {
            let r = rig(3);
            let log = Arc::new(FaultLog::new());
            let horizon = SimTime(4_000_000);
            let crash_at = SimTime(horizon.0 / 2);
            let crashed = Cell::new(false);
            let mut acks_total = 0u64;
            let lat = remem_sim::MetricsRegistry::new().histogram("q.lat");
            let mut driver = ClosedLoopDriver::new(workers, horizon);
            let outcome = driver.run_outcome(&lat, |w, clock| {
                if !crashed.get() && clock.now() >= crash_at {
                    crashed.set(true);
                    r.fabric.server(r.donors[2]).unwrap().fail();
                    log.record(clock.now(), FaultOrigin::Injected, "crash", "M2");
                }
                let op = acks_total as usize;
                let len = 512 + ((seed as usize + op * 37) % 4096);
                let data = payload(seed, op, len);
                // each worker owns a disjoint slot so writes never overlap
                let off = (w as u64) * 16_384;
                let targets: Vec<(MrHandle, u64)> =
                    r.handles.iter().map(|h| (*h, off)).collect();
                let q = r
                    .fabric
                    .write_quorum(clock, Protocol::Custom, r.db, &targets, &data)
                    .unwrap();
                acks_total += q.acks as u64;
                log.record(
                    clock.now(),
                    FaultOrigin::Observed,
                    "quorum.write",
                    format!("w{w} acks={} lag={:?}", q.acks, q.straggler_lag),
                );
            });
            prop_assert!(outcome.started > 0);
            Ok((log.fingerprint(), outcome.makespan, acks_total))
        };
        let base = run_once()?;
        prop_assert_eq!(run_once()?, base, "a same-seed rerun must replay exactly");
    }
}
