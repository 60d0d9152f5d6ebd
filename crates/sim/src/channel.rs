//! Channel (OpenCL 2.0 *pipe* / CUDA direct-data-transfer) timing model.
//!
//! A [`Channel`] connects a producer kernel to a consumer kernel
//! (Section 3.4, Figure 9). It has the paper's three key parameters: the
//! number of underlying channels `n`, the packet size `p`, and (implied by
//! the workload) the total data size `d`. A work-group binds to one of the
//! `n` ports for a whole batch — port transfers serialize, so aggregate
//! throughput scales with `n` only while there are concurrent work-groups
//! to feed the ports, which is exactly the saturation behaviour of
//! Figure 2 / Figure 23.
//!
//! The timing protocol follows Figure 9: the producer work-group
//! *reserves* space, writes packets, and performs a light-weight
//! work-group-scope *synchronization* that publishes them; the consumer
//! work-group synchronizes and reads. Data consistency is per work-group:
//! a consumer can start as soon as one producer work-group has committed,
//! regardless of the progress of other work-groups. Packet reads replay
//! the written ring-buffer addresses in commit order, so the cache
//! simulator sees the producer→consumer locality the paper attributes to
//! channels (Section 3.4).

use crate::device::ChannelSpec;
use crate::mem::MemRange;
use std::collections::VecDeque;

/// Identifies a channel within a [`crate::engine::Simulator`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

/// Aggregate statistics for one channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    pub packets_pushed: u64,
    pub packets_popped: u64,
}

/// Timing-side state of a producer→consumer channel group.
#[derive(Debug)]
pub struct Channel {
    /// Number of underlying channels (ports), `n` in the cost model.
    pub n: u32,
    /// Packet size in bytes, `p` in the cost model.
    pub packet_bytes: u32,
    /// Capacity in packets *per port*.
    pub capacity_per_port: u32,
    /// Simulated base address of the backing buffers (class `ChannelBuf`).
    pub buf_base: u64,

    reserve_cycles: u64,
    sync_cycles: u64,
    port_bytes_per_cycle: u64,

    /// Next-free time of each port.
    port_free: Vec<u64>,
    /// Round-robin port cursor for producer work-group batches.
    rr_write: u32,
    /// Per-port monotone write sequence numbers for ring addressing.
    write_seq: Vec<u64>,
    /// Reserved-but-uncommitted packets, in reservation order, as runs
    /// of consecutive per-port sequence numbers (a producer batch is one
    /// run, so the queues hold one entry per outstanding batch, not one
    /// per packet).
    staged: VecDeque<PacketRun>,
    staged_packets: u64,
    /// Committed packets in commit (FIFO) order, same run encoding.
    avail: VecDeque<PacketRun>,
    avail_packets: u64,
    eof: bool,
    pub stats: ChannelStats,
}

/// A copy keeps the committed-run queue's spare capacity, which
/// [`Channel::begin_push`] reserved so that commits never allocate.
impl Clone for Channel {
    fn clone(&self) -> Self {
        let mut avail = VecDeque::with_capacity(self.avail.capacity());
        avail.extend(self.avail.iter().copied());
        Channel {
            port_free: self.port_free.clone(),
            write_seq: self.write_seq.clone(),
            staged: self.staged.clone(),
            avail,
            ..*self
        }
    }
}

/// `len` packets written to `port` starting at per-port sequence `seq`.
/// Adjacent same-port runs in a queue always have contiguous sequences
/// (per-port sequences are monotone and nothing is ever dropped), so
/// runs merge freely at the queue tails.
#[derive(Debug, Clone, Copy)]
struct PacketRun {
    port: u32,
    seq: u64,
    len: u64,
}

impl Channel {
    pub fn new(spec: &ChannelSpec, n: u32, packet_bytes: u32, buf_base: u64) -> Self {
        Self::with_capacity(spec, n, packet_bytes, spec.capacity_packets, buf_base)
    }

    /// Like [`Channel::new`] but with an explicit per-port capacity — GPL
    /// sizes channel buffers to the tile (Section 3.3), which is how the
    /// tile-size knob reaches the cache.
    pub fn with_capacity(
        spec: &ChannelSpec,
        n: u32,
        packet_bytes: u32,
        capacity_per_port: u32,
        buf_base: u64,
    ) -> Self {
        assert!(n >= 1, "a channel group needs at least one port");
        assert!(packet_bytes >= 1);
        assert!(capacity_per_port >= 1, "channel needs capacity");
        Channel {
            n,
            packet_bytes,
            capacity_per_port,
            buf_base,
            reserve_cycles: spec.reserve_cycles,
            sync_cycles: spec.sync_cycles,
            port_bytes_per_cycle: spec.port_bytes_per_cycle,
            port_free: vec![0; n as usize],
            rr_write: 0,
            write_seq: vec![0; n as usize],
            staged: VecDeque::new(),
            staged_packets: 0,
            avail: VecDeque::new(),
            avail_packets: 0,
            eof: false,
            stats: ChannelStats::default(),
        }
    }

    /// Buffer bytes with an explicit per-port capacity.
    pub fn buffer_bytes_cap(n: u32, packet_bytes: u32, capacity_per_port: u32) -> u64 {
        n as u64 * capacity_per_port as u64 * packet_bytes as u64
    }

    /// Total packet capacity of the group.
    pub fn capacity(&self) -> u64 {
        self.n as u64 * self.capacity_per_port as u64
    }

    /// Packets the consumer could pop right now.
    pub fn available(&self) -> u64 {
        self.avail_packets
    }

    /// Free packet slots a producer could reserve right now.
    pub fn space(&self) -> u64 {
        self.capacity() - self.staged_packets - self.avail_packets
    }

    pub fn eof(&self) -> bool {
        self.eof
    }

    /// The channel is fully drained: producer done and nothing left to pop.
    pub fn drained(&self) -> bool {
        self.eof && self.avail_packets == 0 && self.staged_packets == 0
    }

    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    fn slot_addr(&self, port: u32, slot: u64) -> u64 {
        let per_port = self.capacity_per_port as u64 * self.packet_bytes as u64;
        self.buf_base + port as u64 * per_port + slot * self.packet_bytes as u64
    }

    fn transfer_cycles(&self) -> u64 {
        (self.packet_bytes as u64).div_ceil(self.port_bytes_per_cycle)
    }

    /// Emit the cache traffic for `len` consecutive packets on `port`
    /// starting at sequence `seq`: consecutive sequences occupy
    /// consecutive ring slots, so the run coalesces into contiguous
    /// ranges split only at ring wrap-around.
    fn emit_slot_ranges(
        &self,
        port: u32,
        seq: u64,
        len: u64,
        write: bool,
        accesses: &mut Vec<MemRange>,
    ) {
        let cap = self.capacity_per_port as u64;
        let mut slot = seq % cap;
        let mut left = len;
        while left > 0 {
            let chunk = left.min(cap - slot);
            let addr = self.slot_addr(port, slot);
            let bytes = chunk * self.packet_bytes as u64;
            accesses.push(if write {
                MemRange::write(addr, bytes)
            } else {
                MemRange::read(addr, bytes)
            });
            slot = 0;
            left -= chunk;
        }
    }

    /// Producer dispatch: reserve `k` packet slots on one port and compute
    /// the serial cycles this work-group spends reserving + writing them,
    /// pushing the generated cache traffic into `accesses`. Caller must
    /// have checked [`Channel::space`].
    pub fn begin_push(&mut self, now: u64, k: u64, accesses: &mut Vec<MemRange>) -> u64 {
        assert!(k <= self.space(), "producer overran channel capacity");
        if k == 0 {
            return 0;
        }
        let port = self.rr_write as usize;
        self.rr_write = (self.rr_write + 1) % self.n;
        // The whole batch queues behind earlier traffic on this port, then
        // streams serially from this work-group's perspective. Space is
        // reserved once per work-group batch (Figure 9), not per packet.
        let start = now.max(self.port_free[port]);
        let end = start + self.reserve_cycles + k * self.transfer_cycles();
        self.port_free[port] = end;
        let seq = self.write_seq[port];
        self.write_seq[port] += k;
        self.emit_slot_ranges(port as u32, seq, k, true, accesses);
        match self.staged.back_mut() {
            Some(r) if r.port == port as u32 && r.seq + r.len == seq => r.len += k,
            _ => self.staged.push_back(PacketRun {
                port: port as u32,
                seq,
                len: k,
            }),
        }
        self.staged_packets += k;
        // Pre-size `avail` so a later commit of everything staged cannot
        // grow it: commits run in the event-drain phase, which must stay
        // allocation-free (see the engine's alloc_guard).
        self.avail.reserve(self.staged.len());
        self.stats.packets_pushed += k;
        end - now + self.sync_cycles
    }

    /// Producer completion: publish `k` previously reserved packets at
    /// commit time `ts` (the work-group-scope synchronization point).
    ///
    /// When producer work-groups complete out of dispatch order the oldest
    /// staged packets are published first, regardless of which work-group
    /// reserved them — this only perturbs timing, never data.
    pub fn commit_push(&mut self, _ts: u64, k: u64) {
        assert!(k <= self.staged_packets, "committing more than reserved");
        let mut left = k;
        while left > 0 {
            let front = self.staged.front_mut().expect("staged packets remain");
            let take = front.len.min(left);
            let (port, seq) = (front.port, front.seq);
            front.seq += take;
            front.len -= take;
            if front.len == 0 {
                self.staged.pop_front();
            }
            match self.avail.back_mut() {
                Some(r) if r.port == port && r.seq + r.len == seq => r.len += take,
                _ => {
                    #[cfg(debug_assertions)]
                    if self.avail.len() == self.avail.capacity() {
                        crate::engine::alloc_guard::tick();
                    }
                    self.avail.push_back(PacketRun {
                        port,
                        seq,
                        len: take,
                    });
                }
            }
            left -= take;
        }
        self.staged_packets -= k;
        self.avail_packets += k;
    }

    /// Consumer dispatch: pop `k` available packets; returns the serial
    /// cycles spent synchronizing + reading, pushing the cache traffic into
    /// `accesses`. Caller must have checked [`Channel::available`].
    pub fn pop(&mut self, now: u64, k: u64, accesses: &mut Vec<MemRange>) -> u64 {
        assert!(
            k <= self.avail_packets,
            "consumer popped unavailable packets"
        );
        if k == 0 {
            return 0;
        }
        let tc = self.transfer_cycles();
        let mut t = now + self.sync_cycles;
        // Reads replay the committed ring addresses in FIFO order; port
        // occupancy is charged on the port each packet was written to. A
        // run of packets on one port streams serially, so the per-packet
        // `start = t.max(port_free); t = start + transfer` recurrence
        // telescopes to one max plus `len * transfer` per run.
        let mut left = k;
        while left > 0 {
            let run = *self.avail.front().expect("available packets remain");
            let take = run.len.min(left);
            let p = run.port as usize;
            let start = t.max(self.port_free[p]);
            let end = start + take * tc;
            self.port_free[p] = end;
            t = end;
            self.emit_slot_ranges(run.port, run.seq, take, false, accesses);
            if take == run.len {
                self.avail.pop_front();
            } else {
                let front = self.avail.front_mut().expect("just peeked");
                front.seq += take;
                front.len -= take;
            }
            left -= take;
        }
        self.avail_packets -= k;
        self.stats.packets_popped += k;
        t - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::amd_a10;

    fn chan(n: u32, p: u32) -> Channel {
        Channel::new(&amd_a10().channel, n, p, 0x1000)
    }

    #[test]
    fn push_then_pop_is_fifo_and_conserves_packets() {
        let mut c = chan(2, 16);
        let mut acc = Vec::new();
        c.begin_push(0, 5, &mut acc);
        assert_eq!(c.available(), 0, "uncommitted packets are invisible");
        c.commit_push(100, 5);
        assert_eq!(c.available(), 5);
        c.pop(200, 3, &mut acc);
        assert_eq!(c.available(), 2);
        c.pop(300, 2, &mut acc);
        assert_eq!(c.available(), 0);
        assert_eq!(c.stats.packets_pushed, 5);
        assert_eq!(c.stats.packets_popped, 5);
    }

    #[test]
    fn space_accounts_for_staged_and_available() {
        let mut c = chan(1, 16);
        let cap = c.capacity();
        let mut acc = Vec::new();
        c.begin_push(0, 10, &mut acc);
        assert_eq!(c.space(), cap - 10);
        c.commit_push(1, 10);
        assert_eq!(c.space(), cap - 10);
        c.pop(2, 4, &mut acc);
        assert_eq!(c.space(), cap - 6);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overfilling_panics() {
        let mut c = chan(1, 16);
        let mut acc = Vec::new();
        c.begin_push(0, c.capacity() + 1, &mut acc);
    }

    #[test]
    fn concurrent_workgroups_parallelize_across_ports() {
        let mut one = chan(1, 64);
        let mut four = chan(4, 64);
        let mut acc = Vec::new();
        // Two work-groups dispatch their batches at the same instant.
        let a1 = one.begin_push(0, 64, &mut acc);
        let b1 = one.begin_push(0, 64, &mut acc);
        let a4 = four.begin_push(0, 64, &mut acc);
        let b4 = four.begin_push(0, 64, &mut acc);
        assert!(b1 > a1, "n=1 serializes the second group behind the first");
        assert_eq!(a4, b4, "n=4 runs the two groups on distinct ports");
        assert_eq!(a1, a4, "a lone group is serial regardless of n");
    }

    #[test]
    fn ring_addresses_stay_inside_buffer() {
        let spec = amd_a10().channel;
        let mut c = chan(2, 16);
        let bytes = Channel::buffer_bytes_cap(2, 16, spec.capacity_packets);
        let mut acc = Vec::new();
        // Push/pop more than capacity to force ring wraparound.
        for _ in 0..3 {
            let k = c.space().min(500);
            c.begin_push(0, k, &mut acc);
            c.commit_push(0, k);
            c.pop(0, k, &mut acc);
        }
        for a in &acc {
            assert!(a.addr >= 0x1000 && a.addr + a.bytes <= 0x1000 + bytes);
        }
    }

    #[test]
    fn reads_replay_written_addresses_in_order() {
        let mut c = chan(3, 16);
        let mut writes = Vec::new();
        c.begin_push(0, 4, &mut writes); // port 0
        c.begin_push(0, 4, &mut writes); // port 1
        c.commit_push(10, 8);
        let mut reads = Vec::new();
        c.pop(20, 8, &mut reads);
        let waddrs: Vec<u64> = writes.iter().map(|a| a.addr).collect();
        let raddrs: Vec<u64> = reads.iter().map(|a| a.addr).collect();
        assert_eq!(
            waddrs, raddrs,
            "consumer must read exactly what was written"
        );
    }

    #[test]
    fn eof_and_drained() {
        let mut c = chan(1, 16);
        let mut acc = Vec::new();
        c.begin_push(0, 1, &mut acc);
        c.set_eof();
        assert!(c.eof());
        assert!(!c.drained(), "staged packet still in flight");
        c.commit_push(5, 1);
        assert!(!c.drained());
        c.pop(6, 1, &mut acc);
        assert!(c.drained());
    }

    #[test]
    fn pop_charges_sync_plus_transfer() {
        let spec = amd_a10().channel;
        let mut c = chan(1, 16);
        let mut acc = Vec::new();
        c.begin_push(0, 1, &mut acc);
        c.commit_push(0, 1);
        // Fresh channel would still have port busy from the push; query the
        // cost well after the port has gone idle.
        let cycles = c.pop(1_000_000, 1, &mut acc);
        let transfer = (16u64).div_ceil(spec.port_bytes_per_cycle);
        assert_eq!(cycles, spec.sync_cycles + transfer);
    }

    #[test]
    fn zero_packet_operations_are_free() {
        let mut c = chan(2, 16);
        let mut acc = Vec::new();
        assert_eq!(c.begin_push(5, 0, &mut acc), 0);
        assert_eq!(c.pop(5, 0, &mut acc), 0);
        assert!(acc.is_empty());
    }
}
