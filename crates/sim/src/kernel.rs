//! Kernel descriptors and the work-source abstraction.
//!
//! The simulator is timing-only: operators (in `gpl-core`) compute real
//! results on real data and *describe* the work to the simulator as a
//! stream of [`WorkUnit`]s — one per work-group quantum. A unit carries
//! the instruction counts and the memory / channel traffic that the
//! corresponding GPU work-group would have generated.
//!
//! A kernel's *program analysis* inputs (Table 2: `pm_Ki`, `lm_Ki`,
//! `wi_Ki`) are declared in [`ResourceUsage`]; together with the number of
//! work-groups `wg_Ki` they determine residency through Eq. 2.

use crate::channel::ChannelId;
use crate::mem::MemRange;
use std::sync::Arc;

/// Per-work-item / per-work-group resource demands (program analysis
/// inputs of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Work-group size in work-items (`wi_Ki`). The paper fixes this to
    /// the wavefront size (64 on AMD) to gain scheduling flexibility
    /// (Section 3.5).
    pub wi_per_wg: u32,
    /// Private memory per work-item in bytes (`pm_Ki`).
    pub private_bytes_per_wi: u32,
    /// Local memory per work-group in bytes (`lm_Ki * wi_Ki`).
    pub local_bytes_per_wg: u32,
}

impl ResourceUsage {
    pub fn new(wi_per_wg: u32, private_bytes_per_wi: u32, local_bytes_per_wg: u32) -> Self {
        ResourceUsage {
            wi_per_wg,
            private_bytes_per_wi,
            local_bytes_per_wg,
        }
    }

    /// Private bytes one resident work-group of this kernel pins on a CU.
    pub fn private_bytes_per_wg(&self) -> u64 {
        self.private_bytes_per_wi as u64 * self.wi_per_wg as u64
    }
}

/// Channel traffic of one work unit.
#[derive(Debug, Clone, Copy)]
pub struct ChannelIo {
    pub channel: ChannelId,
    pub packets: u64,
}

/// One work-group quantum of work.
///
/// For a tile-scanning kernel this is "one work-group's share of the
/// tile"; for a channel consumer it is "process this batch of packets".
#[derive(Debug, Default)]
pub struct WorkUnit {
    /// Compute instructions issued by the work-group (`c_inst` share).
    pub compute_insts: u64,
    /// Memory instructions issued (`m_inst` share). Charged at issue cost
    /// `w` like compute (Eq. 4); the data movement itself is in `accesses`.
    pub mem_insts: u64,
    /// Global-memory traffic (runs through the cache simulator).
    pub accesses: Vec<MemRange>,
    /// Packets consumed from input channels. Must not exceed what the
    /// simulator reported as available when the source was polled.
    pub pops: Vec<ChannelIo>,
    /// Packets produced to output channels. Must not exceed reported space.
    pub pushes: Vec<ChannelIo>,
    /// Rows the work-group consumed (observed-statistics plane; purely
    /// informational — never affects timing).
    pub rows_in: u64,
    /// Rows the work-group emitted downstream.
    pub rows_out: u64,
}

impl WorkUnit {
    pub fn pop(mut self, channel: ChannelId, packets: u64) -> Self {
        if packets > 0 {
            self.pops.push(ChannelIo { channel, packets });
        }
        self
    }
    pub fn push(mut self, channel: ChannelId, packets: u64) -> Self {
        if packets > 0 {
            self.pushes.push(ChannelIo { channel, packets });
        }
        self
    }
    /// Stamp the unit with observed row counts. The engine accumulates
    /// them into the kernel's profile; the drift plane joins them against
    /// the model's predicted λ per kernel.
    pub fn rows(mut self, rows_in: u64, rows_out: u64) -> Self {
        self.rows_in = rows_in;
        self.rows_out = rows_out;
        self
    }
}

/// What a kernel has to offer when polled by the scheduler.
#[derive(Debug)]
pub enum Work {
    /// A dispatchable quantum.
    Unit(WorkUnit),
    /// Blocked: waiting for input packets / EOF, or for output space. The
    /// simulator re-polls when any of the kernel's channels changes state.
    Wait,
    /// The kernel has emitted all of its work.
    Done,
}

/// Read-only channel view handed to [`WorkSource::next`] so sources can
/// size their units to what is actually available.
pub trait ChannelView {
    /// Packets currently available to consume on `ch`.
    fn available(&self, ch: ChannelId) -> u64;
    /// Free packet slots on `ch`.
    fn space(&self, ch: ChannelId) -> u64;
    /// Whether the producer of `ch` has completed.
    fn eof(&self, ch: ChannelId) -> bool;
}

/// The functional side of a kernel: called by the simulator whenever the
/// kernel could dispatch another work-group.
///
/// Contract: if `next` returns a [`Work::Unit`] whose `pops`/`pushes`
/// exceed the view's `available`/`space`, the simulator panics — sources
/// must size their batches to the view. Sources perform their *data*
/// movement (reading tiles, popping their input data queues, appending to
/// output data queues) eagerly inside `next`; the simulator only tracks
/// timing.
pub trait WorkSource {
    fn next(&mut self, view: &dyn ChannelView) -> Work;
}

/// Blanket impl so closures can serve as simple work sources in tests and
/// microbenchmarks.
impl<F> WorkSource for F
where
    F: FnMut(&dyn ChannelView) -> Work,
{
    fn next(&mut self, view: &dyn ChannelView) -> Work {
        self(view)
    }
}

/// A kernel ready to launch: resources, work-group budget, channel wiring
/// and the work source.
pub struct KernelDesc {
    /// Interned display name. An `Arc<str>` so every downstream consumer
    /// (per-kernel profiles, trace spans, the observability recorder)
    /// shares one allocation made when the kernel was lowered, instead of
    /// re-allocating a `String` per launch on the hot path.
    pub name: Arc<str>,
    pub resources: ResourceUsage,
    /// `wg_Ki`: the number of work-groups the kernel is launched with —
    /// the maximum ever concurrently in flight. The cost model tunes this
    /// per kernel (settings S1..S7 in Section 5.2).
    pub wg_count: u32,
    /// Channels this kernel consumes from (it is the unique consumer).
    pub inputs: Vec<ChannelId>,
    /// Channels this kernel produces into (it is the unique producer).
    /// They are marked EOF when the kernel finishes.
    pub outputs: Vec<ChannelId>,
    /// Segment tag for fused multi-segment launches (cross-segment
    /// pipelining): kernels of the same launch carrying different tags
    /// belong to different stages, and the profile preserves the tag so
    /// callers can split per-stage timelines back out. 0 for ordinary
    /// single-segment launches.
    pub segment: u32,
    pub source: Box<dyn WorkSource>,
}

impl KernelDesc {
    pub fn new(
        name: impl Into<Arc<str>>,
        resources: ResourceUsage,
        wg_count: u32,
        source: Box<dyn WorkSource>,
    ) -> Self {
        KernelDesc {
            name: name.into(),
            resources,
            wg_count: wg_count.max(1),
            inputs: Vec::new(),
            outputs: Vec::new(),
            segment: 0,
            source,
        }
    }

    pub fn reads_channel(mut self, ch: ChannelId) -> Self {
        self.inputs.push(ch);
        self
    }

    pub fn writes_channel(mut self, ch: ChannelId) -> Self {
        self.outputs.push(ch);
        self
    }

    /// Tag this kernel as belonging to segment `seg` of a fused launch.
    pub fn in_segment(mut self, seg: u32) -> Self {
        self.segment = seg;
        self
    }

    /// What Eq. 2 ([`crate::DeviceSpec::residency`]) weighs: private and
    /// local bytes per resident work-group, and the work-group count.
    pub(crate) fn budget(&self) -> (u64, u64, u32) {
        let r = &self.resources;
        (
            r.private_bytes_per_wg(),
            r.local_bytes_per_wg as u64,
            self.wg_count,
        )
    }
}

impl std::fmt::Debug for KernelDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDesc")
            .field("name", &self.name)
            .field("resources", &self.resources)
            .field("wg_count", &self.wg_count)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("segment", &self.segment)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_usage_private_per_wg() {
        let r = ResourceUsage::new(64, 128, 2048);
        assert_eq!(r.private_bytes_per_wg(), 64 * 128);
    }

    #[test]
    fn work_unit_builders_skip_empty_io() {
        let u = WorkUnit::default()
            .pop(ChannelId(0), 0)
            .push(ChannelId(1), 3);
        assert!(u.pops.is_empty());
        assert_eq!(u.pushes.len(), 1);
        assert_eq!(u.pushes[0].packets, 3);
    }

    #[test]
    fn kernel_desc_wiring() {
        let src = Box::new(|_: &dyn ChannelView| Work::Done);
        let k = KernelDesc::new("k", ResourceUsage::new(64, 64, 0), 8, src)
            .reads_channel(ChannelId(0))
            .writes_channel(ChannelId(1));
        assert_eq!(k.inputs, vec![ChannelId(0)]);
        assert_eq!(k.outputs, vec![ChannelId(1)]);
        assert_eq!(k.wg_count, 8);
    }

    #[test]
    fn wg_count_is_at_least_one() {
        let src = Box::new(|_: &dyn ChannelView| Work::Done);
        let k = KernelDesc::new("k", ResourceUsage::new(64, 64, 0), 0, src);
        assert_eq!(k.wg_count, 1);
    }
}
