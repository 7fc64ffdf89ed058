//! Work requests: the Appendix A vocabulary underneath [`crate::Fabric`].
//!
//! RDMA communication is based on queues (Appendix A): the application posts
//! work requests and the NIC reports each one's completion. The NIC
//! implements the protocol, flow control and reliability in hardware;
//! network failures surface as terminated connections.
//!
//! [`crate::Fabric::read`]/[`write`](crate::Fabric::write) post one
//! single-element request and wait for it. A [`WorkRequest`] carries a
//! scatter/gather list instead, and [`crate::Fabric::execute_batch`] rings
//! one doorbell for a whole chain of them — how the staging-buffer design of
//! §4.2 keeps many transfers in flight per scheduler.

use crate::mr::{MemoryRegion, MrHandle};
use crate::server::ServerId;

/// One scatter element of a vectored read: a contiguous span of a remote MR
/// landing in a local buffer segment.
#[derive(Debug)]
pub struct ReadSge<'a> {
    pub mr: MrHandle,
    pub offset: u64,
    pub buf: &'a mut [u8],
}

/// One gather element of a vectored write: a local buffer segment headed
/// for a contiguous span of a remote MR.
#[derive(Debug)]
pub struct WriteSge<'a> {
    pub mr: MrHandle,
    pub offset: u64,
    pub data: &'a [u8],
}

/// A vectored work request: one verb with a scatter/gather list. Like a
/// real WQE, all elements of one WR should target MRs of a single remote
/// server (each WR travels one queue pair); the cost model attributes the
/// WR's op overhead to the first element's server.
#[derive(Debug)]
pub enum WorkRequest<'a> {
    Read(Vec<ReadSge<'a>>),
    Write(Vec<WriteSge<'a>>),
}

impl WorkRequest<'_> {
    /// Total bytes this WR moves across all its elements.
    pub fn bytes(&self) -> u64 {
        match self {
            WorkRequest::Read(sges) => sges.iter().map(|s| s.buf.len() as u64).sum(),
            WorkRequest::Write(sges) => sges.iter().map(|s| s.data.len() as u64).sum(),
        }
    }

    pub(crate) fn sge_count(&self) -> usize {
        match self {
            WorkRequest::Read(sges) => sges.len(),
            WorkRequest::Write(sges) => sges.len(),
        }
    }

    /// (server, first offset) of the WR's first element — the address the
    /// fault schedule and op-overhead accounting key on.
    pub(crate) fn target(&self) -> Option<(ServerId, u64)> {
        match self {
            WorkRequest::Read(sges) => sges.first().map(|s| (s.mr.server, s.offset)),
            WorkRequest::Write(sges) => sges.first().map(|s| (s.mr.server, s.offset)),
        }
    }

    /// Iterate `(handle, offset, len)` per element, for validation.
    pub(crate) fn sges(&self) -> Vec<(MrHandle, u64, u64)> {
        match self {
            WorkRequest::Read(sges) => sges
                .iter()
                .map(|s| (s.mr, s.offset, s.buf.len() as u64))
                .collect(),
            WorkRequest::Write(sges) => sges
                .iter()
                .map(|s| (s.mr, s.offset, s.data.len() as u64))
                .collect(),
        }
    }

    /// Move the bytes through the validated regions (parallel to the SGE
    /// list). Time has already been charged by the doorbell.
    pub(crate) fn execute(&mut self, regions: &[MemoryRegion]) {
        match self {
            WorkRequest::Read(sges) => {
                for (sge, region) in sges.iter_mut().zip(regions) {
                    region.read_into(sge.offset, sge.buf);
                }
            }
            WorkRequest::Write(sges) => {
                for (sge, region) in sges.iter().zip(regions) {
                    region.write_from(sge.offset, sge.data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::error::NetError;
    use crate::fabric::{Fabric, Protocol};
    use remem_sim::Clock;

    fn setup() -> (Fabric, ServerId, ServerId, MrHandle) {
        let fabric = Fabric::new(NetConfig::default());
        let db = fabric.add_server("DB", 8);
        let mem = fabric.add_server("M", 8);
        let mut pc = Clock::new();
        let mr = fabric.register_mr(&mut pc, mem, 1 << 20).unwrap();
        let mut clock = Clock::new();
        fabric.connect(&mut clock, db, mem).unwrap();
        (fabric, db, mem, mr)
    }

    #[test]
    fn pipelined_requests_complete_in_order() {
        let (fabric, db, _mem, mr) = setup();
        let mut clock = Clock::new();
        let (a, b) = (*b"first", *b"second");
        let mut buf = [0u8; 5];
        let mut wrs = vec![
            WorkRequest::Write(vec![WriteSge {
                mr,
                offset: 0,
                data: &a,
            }]),
            WorkRequest::Write(vec![WriteSge {
                mr,
                offset: 100,
                data: &b,
            }]),
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: 4096,
                buf: &mut buf,
            }]),
        ];
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        // one completion per WR, in post order, finishing no earlier than
        // the WR before it; the last lands when the doorbell completes
        assert_eq!(
            completions.iter().map(|c| c.bytes).collect::<Vec<_>>(),
            vec![5, 6, 5]
        );
        assert!(completions.iter().all(|c| c.result.is_ok()));
        assert!(completions
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        assert_eq!(completions[2].completed_at, clock.now());
    }

    #[test]
    fn failures_surface_as_errored_completions() {
        let (fabric, db, mem, mr) = setup();
        let mut clock = Clock::new();
        fabric.server(mem).unwrap().fail();
        let mut buf = [0u8; 8];
        let mut wrs = vec![WorkRequest::Read(vec![ReadSge {
            mr,
            offset: 0,
            buf: &mut buf,
        }])];
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].result, Err(NetError::ServerDown(mem)));
    }

    #[test]
    fn batched_reads_cost_one_doorbell() {
        // 16 pages in one batch must beat 16 scalar reads: the chain pays
        // op_overhead + fixed_latency once instead of 16 times.
        let n = 16usize;
        let (fabric, db, _mem, mr) = setup();
        let mut scalar_clock = Clock::new();
        let mut buf = vec![0u8; 8192];
        for i in 0..n {
            fabric
                .read(
                    &mut scalar_clock,
                    Protocol::Custom,
                    db,
                    mr,
                    (i * 8192) as u64,
                    &mut buf,
                )
                .unwrap();
        }

        let (fabric2, db2, _mem2, mr2) = setup();
        let mut clock = Clock::new();
        let mut bufs = vec![vec![0u8; 8192]; n];
        let mut wrs: Vec<WorkRequest<'_>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| {
                WorkRequest::Read(vec![ReadSge {
                    mr: mr2,
                    offset: (i * 8192) as u64,
                    buf: b,
                }])
            })
            .collect();
        let completions = fabric2.execute_batch(&mut clock, Protocol::Custom, db2, &mut wrs);
        assert_eq!(completions.len(), n);
        assert!(completions.iter().all(|c| c.result.is_ok()));
        assert!(completions
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        assert!(
            clock.now() < scalar_clock.now(),
            "batched {:?} must beat scalar {:?}",
            clock.now(),
            scalar_clock.now()
        );
    }

    #[test]
    fn batch_moves_bytes_and_gathers_sges() {
        let (fabric, db, _mem, mr) = setup();
        let mut clock = Clock::new();
        // one gather-write WR with two SGEs, then a scatter-read back
        let (a, b) = (*b"hello ", *b"world!");
        let mut wrs = vec![WorkRequest::Write(vec![
            WriteSge {
                mr,
                offset: 64,
                data: &a,
            },
            WriteSge {
                mr,
                offset: 70,
                data: &b,
            },
        ])];
        let writes = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        let mut lo = [0u8; 4];
        let mut hi = [0u8; 8];
        let mut reads = vec![WorkRequest::Read(vec![
            ReadSge {
                mr,
                offset: 64,
                buf: &mut lo,
            },
            ReadSge {
                mr,
                offset: 68,
                buf: &mut hi,
            },
        ])];
        let reads_done = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut reads);
        drop(reads);
        assert_eq!(&lo, b"hell");
        assert_eq!(&hi, b"o world!");
        assert!(writes.iter().chain(&reads_done).all(|c| c.result.is_ok()));
    }

    #[test]
    fn batch_partial_failure_surfaces_per_wr_errors() {
        let (fabric, db, _mem, mr) = setup();
        let mut clock = Clock::new();
        let mut good1 = [0u8; 128];
        let mut bad = [0u8; 128];
        let mut good2 = [0u8; 128];
        let mut wrs = vec![
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: 0,
                buf: &mut good1,
            }]),
            // out of bounds: fails validation, must not poison the chain
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: mr.len - 16,
                buf: &mut bad,
            }]),
            WorkRequest::Read(vec![ReadSge {
                mr,
                offset: 8192,
                buf: &mut good2,
            }]),
        ];
        let completions = fabric.execute_batch(&mut clock, Protocol::Custom, db, &mut wrs);
        assert_eq!(completions.len(), 3);
        assert!(completions[0].result.is_ok());
        assert!(matches!(
            completions[1].result,
            Err(NetError::OutOfBounds { .. })
        ));
        assert!(completions[2].result.is_ok());
    }
}
