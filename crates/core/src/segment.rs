//! The shared segment IR (Section 3.1's *segment* as data).
//!
//! A [`SegmentIr`] is lowered once per [`Stage`] and describes the
//! kernel DAG every downstream layer agrees on: kernel nodes (name,
//! fused op indices, [`ResourceUsage`], per-row instruction counts, λ)
//! connected by channel edges (shipped slot set, row width), plus the
//! eager/lazy split of the leaf's loaded columns.
//!
//! Before this module existed, three components derived that structure
//! independently by hand — [`crate::gpl`] built `KernelDesc`s, and the
//! cost model's analyzer mirrored the fusion groups and column splits
//! with "must match gpl.rs" comments — a drift bomb where the optimizer
//! could silently model a different pipeline than the one that runs.
//! Now [`crate::gpl`] builds its kernels and channels from IR nodes and
//! edges, [`crate::kbe`] derives its expanded kernel sequence from the
//! same nodes, and `gpl_model`'s analyzer reads its `KernelModel`
//! fields straight off the IR: executor/model agreement holds by
//! construction.
//!
//! Lowering rules (all byte-identical to the pre-IR derivations):
//!
//! * **Fusion** ([`Stage::gpl_fusion`], Section 3.2): the leaf `k_map*`
//!   absorbs the scan and every leading non-probe op; each hash probe
//!   starts a new kernel and absorbs the non-probe ops after it; a
//!   probe that *is* the first op fuses into the scan kernel. The
//!   blocking terminal is one more node.
//! * **Edges**: edge `e` follows node `e` and ships the slots live into
//!   the first op of node `e+1` (into the terminal for the last edge);
//!   its row width is `8 * |ship|`, floored at 8 bytes.
//! * **Leaf columns**: loads read by the leaf's fused ops stream
//!   *eagerly*; loads only shipped onward gather *lazily* post-filter;
//!   loads neither read nor shipped are dead. A pass-through leaf with
//!   no eager column promotes its first lazy column to drive the scan
//!   (recorded in [`SegmentIr::promoted_leaf`]).

use crate::exec::StageConfig;
use crate::expr::Slot;
use crate::ops::{self, live_slots, Chunk};
use crate::plan::{PipeOp, Stage, Terminal};
use gpl_sim::ResourceUsage;
use gpl_storage::Table;
use std::fmt;
use std::fmt::Write as _;

/// What a kernel fundamentally does — the key into the shared resource
/// table of [`KernelFlavour::resources`]. IR nodes take the first four;
/// KBE's compaction adds the last two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFlavour {
    /// The fused leaf `k_map*` (scan + leading non-probe ops); KBE's
    /// per-op `k_map`.
    Map,
    /// A fused `k_hash_probe*` (probe + trailing non-probe ops); KBE's
    /// `k_hash_probe`.
    Probe,
    /// The blocking `k_hash_build` terminal.
    Build,
    /// The blocking `k_reduce*` / `k_groupby*` terminal; KBE's
    /// `k_aggregate`.
    Aggregate,
    /// KBE's `k_prefix_sum` over a selection's flags.
    PrefixSum,
    /// KBE's `k_scatter` compacting the survivors.
    Scatter,
}

impl KernelFlavour {
    /// Program-analysis resource usage (Table 2) — the *single* copy of
    /// the per-flavour declarations both executors and the cost model
    /// consume.
    pub fn resources(self, wavefront: u32) -> ResourceUsage {
        match self {
            KernelFlavour::Map => ResourceUsage::new(wavefront, 64, 0),
            KernelFlavour::Probe => ResourceUsage::new(wavefront, 96, 0),
            KernelFlavour::Build => ResourceUsage::new(wavefront, 96, 2048),
            KernelFlavour::Aggregate => ResourceUsage::new(wavefront, 64, 8192),
            KernelFlavour::PrefixSum => ResourceUsage::new(wavefront, 32, 4096),
            KernelFlavour::Scatter => ResourceUsage::new(wavefront, 48, 0),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            KernelFlavour::Map => "map",
            KernelFlavour::Probe => "probe",
            KernelFlavour::Build => "build",
            KernelFlavour::Aggregate => "aggregate",
            KernelFlavour::PrefixSum => "prefix_sum",
            KernelFlavour::Scatter => "scatter",
        }
    }
}

/// One kernel of the segment's GPL pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelNode {
    /// Display name ([`Stage::gpl_kernel_names`] reads these). Interned
    /// once at lowering; launches and profiles share the allocation.
    pub name: std::sync::Arc<str>,
    pub flavour: KernelFlavour,
    /// Indices into `stage.ops` fused into this kernel, in execution
    /// order (empty for the terminal node).
    pub ops: Vec<usize>,
    /// Resource usage at the device's wavefront size.
    pub resources: ResourceUsage,
    /// Per input row: compute instructions of the fused ops (the leaf's
    /// additional eager/lazy load-issue cost is λ-dependent and derived
    /// from [`SegmentIr::eager`] / [`SegmentIr::lazy`] by the consumer).
    pub per_row_compute: u64,
    /// Per input row: memory instructions of the fused ops.
    pub per_row_mem: u64,
    /// Output rows / input rows. Lowering cannot estimate
    /// selectivities (that needs table statistics), so nodes start at
    /// `None`; the cost model attaches its estimates via
    /// [`SegmentIr::attach_lambdas`]. Executors never read this.
    pub lambda: Option<f64>,
}

/// One loaded driver column of the leaf kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafColumn {
    /// Destination slot (`0..loads.len()`).
    pub slot: Slot,
    /// Column name in the driving table.
    pub name: String,
    /// Column index in the driving table.
    pub col: usize,
    /// Storage width in bytes.
    pub width: u64,
}

/// The channel between two kernel nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelEdge {
    /// Slots shipped across the edge (live into the consumer), sorted.
    pub ship: Vec<Slot>,
    /// Bytes per shipped row: `8 * |ship|`, floored at 8.
    pub row_bytes: u64,
}

/// A configuration that does not fit what it configures — the
/// structured form of the scattered arity panics this IR consolidated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A [`StageConfig`] with the wrong number of wg counts for its
    /// segment's kernels.
    WgCounts {
        /// Stage (segment) name.
        stage: String,
        /// Kernels the segment launches (one wg count needed per kernel).
        kernels: usize,
        /// Entries the rejected config supplied.
        wg_counts: usize,
    },
    /// `what` must have exactly `expected` entries: stage configs per
    /// plan stage, device configs or gamma tables per pool device,
    /// stage anchors per plan stage.
    Arity {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// A stage is anchored on a device index the pool does not have.
    Anchor {
        stage: usize,
        device: usize,
        devices: usize,
    },
    /// A zero packet size: no packet could carry a row.
    ZeroPacket {
        /// Stage (segment) name.
        stage: String,
    },
    /// A shard plan of zero shards: every stage needs at least one.
    ZeroShards,
    /// A channel count the device's pipes cannot provide.
    Channels {
        /// Stage (segment) name.
        stage: String,
        n_channels: u32,
        /// The device's channels-per-edge ceiling.
        max_channels: u32,
    },
}

impl ConfigError {
    /// `Ok` when `what` has exactly the `expected` number of entries.
    pub(crate) fn arity(what: &'static str, expected: usize, got: usize) -> Result<(), Self> {
        if expected == got {
            Ok(())
        } else {
            Err(ConfigError::Arity {
                what,
                expected,
                got,
            })
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::WgCounts {
                stage,
                kernels,
                wg_counts,
            } => write!(
                f,
                "stage {stage} needs {kernels} wg counts, config has {wg_counts}"
            ),
            ConfigError::Arity {
                what,
                expected,
                got,
            } => write!(f, "expected {expected} {what}, got {got}"),
            ConfigError::Anchor {
                stage,
                device,
                devices,
            } => write!(
                f,
                "stage {stage} anchored on device {device} of a {devices}-device pool"
            ),
            ConfigError::ZeroPacket { stage } => write!(f, "stage {stage} has 0-byte packets"),
            ConfigError::ZeroShards => write!(f, "a shard plan needs at least one shard"),
            ConfigError::Channels {
                stage,
                n_channels,
                max_channels,
            } => write!(
                f,
                "stage {stage} asks for {n_channels} channels, device allows 1 to {max_channels}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The lowered form of one [`Stage`]: the kernel DAG that executors,
/// the cost model, and observability all consume. See the module docs
/// for the lowering rules.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentIr {
    /// Stage (segment) name.
    pub stage: String,
    /// Driving table.
    pub driver: String,
    /// Driver cardinality at lowering time.
    pub driver_rows: u64,
    /// Bytes per driver row across loaded columns (tiling input),
    /// floored at 1.
    pub row_bytes: u64,
    /// Kernel nodes in pipeline order; the last is the terminal.
    pub nodes: Vec<KernelNode>,
    /// Edge `e` connects node `e` to node `e + 1`
    /// (`edges.len() == nodes.len() - 1`).
    pub edges: Vec<ChannelEdge>,
    /// Leaf columns streamed eagerly (read by the leaf's fused ops), in
    /// load order.
    pub eager: Vec<LeafColumn>,
    /// Leaf columns gathered lazily for surviving rows only (shipped
    /// onward but not read by the leaf), in load order.
    pub lazy: Vec<LeafColumn>,
    /// True when `eager` holds a promoted lazy column (pass-through
    /// leaf): the column drives the scan but no leaf op reads it.
    pub promoted_leaf: bool,
}

impl SegmentIr {
    /// Lower `stage` over its driving `table`, sizing resources at the
    /// target device's `wavefront`. Pure and deterministic: the same
    /// inputs always lower to the same IR.
    pub fn lower(stage: &Stage, table: &Table, wavefront: u32) -> SegmentIr {
        assert_eq!(
            table.name(),
            stage.driver,
            "stage {} lowered over the wrong table",
            stage.name
        );
        let live = live_slots(stage);
        let groups = stage.gpl_fusion();
        // Intern the kernel names once at lowering: every launch built
        // from this IR (and every profile/span downstream) clones Arcs.
        let names: Vec<std::sync::Arc<str>> = (stage.gpl_kernel_names().into_iter())
            .map(std::sync::Arc::from)
            .collect();

        // Edge e sits after kernel group e; it carries the slots live
        // into the first op of group e+1 (or into the terminal for the
        // last edge).
        let edges: Vec<ChannelEdge> = (0..groups.len())
            .map(|e| {
                let ship = if e + 1 < groups.len() {
                    live[groups[e + 1][0]].clone()
                } else {
                    live[stage.ops.len()].clone()
                };
                let row_bytes = Chunk::row_bytes(&ship).max(8);
                ChannelEdge { ship, row_bytes }
            })
            .collect();

        // Split the loads: columns read by the fused leading ops stream
        // eagerly; columns only shipped onward gather lazily post-filter;
        // the rest are dead.
        let eager_slots: Vec<Slot> = groups[0]
            .iter()
            .flat_map(|&i| stage.ops[i].reads())
            .collect();
        let mut eager = Vec::new();
        let mut lazy = Vec::new();
        for (slot, name) in stage.loads.iter().enumerate() {
            let col = table.col_index(name).expect("load column exists");
            let width = table.col_at(col).data_type().width();
            let lc = LeafColumn {
                slot,
                name: name.clone(),
                col,
                width,
            };
            if eager_slots.contains(&slot) {
                eager.push(lc);
            } else if edges[0].ship.contains(&slot) {
                lazy.push(lc);
            }
        }
        let mut promoted_leaf = false;
        if eager.is_empty() && !lazy.is_empty() {
            // A pure pass-through leaf still needs one streamed column
            // to drive the scan; promote the first lazy column.
            eager.push(lazy.remove(0));
            promoted_leaf = true;
        }

        let mut nodes = Vec::with_capacity(groups.len() + 1);
        for (g, ops_idx) in groups.iter().enumerate() {
            let flavour = if g == 0 {
                KernelFlavour::Map
            } else {
                KernelFlavour::Probe
            };
            nodes.push(KernelNode {
                name: names[g].clone(),
                flavour,
                ops: ops_idx.clone(),
                resources: flavour.resources(wavefront),
                per_row_compute: ops_idx
                    .iter()
                    .map(|&i| ops::op_compute_insts(&stage.ops[i]))
                    .sum(),
                per_row_mem: ops_idx
                    .iter()
                    .map(|&i| ops::op_mem_insts(&stage.ops[i]))
                    .sum(),
                lambda: None,
            });
        }
        let term_flavour = match &stage.terminal {
            Terminal::HashBuild { .. } => KernelFlavour::Build,
            Terminal::Aggregate { .. } => KernelFlavour::Aggregate,
        };
        nodes.push(KernelNode {
            name: names.last().expect("terminal name").clone(),
            flavour: term_flavour,
            ops: Vec::new(),
            resources: term_flavour.resources(wavefront),
            per_row_compute: ops::terminal_compute_insts(&stage.terminal),
            per_row_mem: ops::terminal_mem_insts(&stage.terminal),
            lambda: None,
        });

        let row_bytes = stage
            .loads
            .iter()
            .map(|c| table.col(c).data_type().width())
            .sum::<u64>()
            .max(1);

        SegmentIr {
            stage: stage.name.clone(),
            driver: stage.driver.clone(),
            driver_rows: table.rows() as u64,
            row_bytes,
            nodes,
            edges,
            eager,
            lazy,
            promoted_leaf,
        }
    }

    /// Attach the cost model's per-group selectivity estimates:
    /// `lambdas[g]` becomes node `g`'s λ, and the terminal gets 0.0
    /// (it emits no channel rows).
    pub fn attach_lambdas(&mut self, lambdas: &[f64]) {
        assert_eq!(
            lambdas.len(),
            self.nodes.len() - 1,
            "segment {} has {} non-terminal nodes",
            self.stage,
            self.nodes.len() - 1
        );
        for (n, &l) in self.nodes.iter_mut().zip(lambdas) {
            n.lambda = Some(l);
        }
        self.nodes.last_mut().expect("terminal").lambda = Some(0.0);
    }

    /// Op execution order for kernel-at-a-time engines: the nodes'
    /// fused op indices, flattened. [`crate::kbe`] derives its expanded
    /// map / prefix-sum / scatter sequence from this.
    pub fn op_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().flat_map(|n| n.ops.iter().copied())
    }

    /// Kernel names in launch order (equals [`Stage::gpl_kernel_names`]
    /// by construction).
    pub fn kernel_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| &*n.name).collect()
    }

    /// Check that `cfg` supplies one work-group count per kernel node —
    /// the single implementation behind what used to be three scattered
    /// `wg_counts.len() == gpl_kernel_names().len()` panics (GPL
    /// launch, cost evaluation, config construction).
    pub fn validate_config(&self, cfg: &StageConfig) -> Result<(), ConfigError> {
        if cfg.wg_counts.len() == self.nodes.len() {
            Ok(())
        } else {
            Err(ConfigError::WgCounts {
                stage: self.stage.clone(),
                kernels: self.nodes.len(),
                wg_counts: cfg.wg_counts.len(),
            })
        }
    }

    /// Check the channel knobs a GPL launch divides by, against the
    /// device's `max_channels` per edge (which the simulator asserts).
    pub fn validate_channels(
        &self,
        cfg: &StageConfig,
        max_channels: u32,
    ) -> Result<(), ConfigError> {
        let stage = || self.stage.clone();
        if cfg.packet_bytes == 0 {
            return Err(ConfigError::ZeroPacket { stage: stage() });
        }
        if !(1..=max_channels).contains(&cfg.n_channels) {
            return Err(ConfigError::Channels {
                stage: stage(),
                n_channels: cfg.n_channels,
                max_channels,
            });
        }
        Ok(())
    }

    /// Deterministic plain-text dump of the lowered segment, pinned by
    /// the golden tests in `tests/determinism.rs`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "segment {} over {} (rows={}, row_bytes={})",
            self.stage, self.driver, self.driver_rows, self.row_bytes
        );
        let col_list = |cols: &[LeafColumn]| {
            cols.iter()
                .map(|c| format!("s{} {}(col {}, {}B)", c.slot, c.name, c.col, c.width))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if !self.eager.is_empty() {
            let tag = if self.promoted_leaf {
                "eager(promoted)"
            } else {
                "eager"
            };
            let _ = writeln!(s, "  {tag}: {}", col_list(&self.eager));
        }
        if !self.lazy.is_empty() {
            let _ = writeln!(s, "  lazy: {}", col_list(&self.lazy));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let ops_str = n
                .ops
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                s,
                "  k{i}: {} [{}] ops=[{ops_str}] per_row(c={}, m={})",
                n.name,
                n.flavour.tag(),
                n.per_row_compute,
                n.per_row_mem
            );
            if let Some(e) = self.edges.get(i) {
                let ship_str = e
                    .ship
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(s, "  e{i}: ship=[{ship_str}] row_bytes={}", e.row_bytes);
            }
        }
        s
    }
}

/// An inter-segment channel (the cross-segment pipelining extension):
/// the blocking hash-build terminal of `build_stage` publishes its hash
/// table in `slices` deterministic slices, and the paired probe kernel
/// of `probe_stage` admits rows against published slices only — so the
/// consumer segment's leaf can start tiling while later slices are still
/// installing. Sits *alongside* [`ChannelEdge`]: channel edges connect
/// kernels within a segment, inter-segment edges connect the terminal of
/// one segment to a probe of the next.
///
/// Slice assignment is [`crate::ht::SimHashTable::slice_of`] (splitmix64
/// over the key, mod `slices`) on both ends, so publisher and gate agree
/// on slice membership by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterSegmentEdge {
    /// Stage whose hash-build terminal produces the shared table.
    pub build_stage: usize,
    /// Stage whose probe consumes it (always `build_stage + 1`).
    pub probe_stage: usize,
    /// The shared hash-table slot.
    pub ht: usize,
    /// Index (into the probe stage's `ops`) of the paired probe. Always
    /// `> 0`: the probe starts its own kernel, which is the gated one.
    pub probe_op: usize,
    /// Number of deterministic installation slices (K). `overlap_pairs`
    /// leaves this at 1; the scheduler re-slices from the build stage's
    /// configured `overlap_slices` knob.
    pub slices: u32,
    /// Estimated bytes published per slice (`ht bytes / slices`), filled
    /// in by [`InterSegmentEdge::with_slices`].
    pub slice_bytes: u64,
}

impl InterSegmentEdge {
    /// Re-slice the edge: `slices = k`, `slice_bytes = table_bytes / k`.
    pub fn with_slices(mut self, k: u32, table_bytes: u64) -> Self {
        let k = k.max(1);
        self.slices = k;
        self.slice_bytes = table_bytes.div_ceil(k as u64);
        self
    }
}

/// Detect the build→probe stage pairs eligible for cross-segment
/// overlap. A pair is two *adjacent* stages where stage `i` ends in a
/// `HashBuild{ht}` terminal and stage `i + 1` probes that `ht` exactly
/// once, at an op index `> 0` (so the paired probe starts its own
/// kernel under [`Stage::gpl_fusion`] and can be slice-gated without
/// touching the leaf's tile loop). Every other hash table stage `i + 1`
/// probes was built *before* stage `i`, so overlapping the pair is
/// always safe. Pairs are chosen greedily left to right and never
/// share a stage.
///
/// This is the single structural derivation the scheduler, the cost
/// model's overlap predicate, and the IR drift guard all consume —
/// agreement by construction, like the rest of the segment IR.
pub fn overlap_pairs(stages: &[Stage]) -> Vec<InterSegmentEdge> {
    let mut pairs = Vec::new();
    let mut i = 0;
    while i + 1 < stages.len() {
        let Terminal::HashBuild { ht, .. } = &stages[i].terminal else {
            i += 1;
            continue;
        };
        let probes: Vec<usize> = stages[i + 1]
            .ops
            .iter()
            .enumerate()
            .filter_map(|(op, p)| match p {
                PipeOp::Probe { ht: h, .. } if h == ht => Some(op),
                _ => None,
            })
            .collect();
        match probes.as_slice() {
            [op] if *op > 0 => {
                pairs.push(InterSegmentEdge {
                    build_stage: i,
                    probe_stage: i + 1,
                    ht: *ht,
                    probe_op: *op,
                    slices: 1,
                    slice_bytes: 0,
                });
                i += 2;
            }
            _ => i += 1,
        }
    }
    pairs
}

impl Stage {
    /// GPL kernel fusion (Section 3.2): the leaf `k_map` kernel absorbs
    /// the scan and every leading non-probe op; each hash probe starts a
    /// new kernel and absorbs the non-probe ops that follow it — except
    /// the very first op: a pipeline with no leading selection fuses its
    /// first probe into the scan kernel, so the first channel carries
    /// only surviving rows. Returns the op indices of each kernel; the
    /// blocking terminal is an additional kernel not listed here.
    pub fn gpl_fusion(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new()];
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op, PipeOp::Probe { .. }) && !groups[0].is_empty() {
                groups.push(Vec::new());
            }
            groups.last_mut().expect("non-empty").push(i);
        }
        groups
    }

    /// Kernel names under GPL decomposition (Figure 7c): the fused leaf
    /// map kernel, one kernel per probe (with fused trailing maps), and
    /// the terminal kernel. Identical to the node names of the stage's
    /// lowered [`SegmentIr`].
    pub fn gpl_kernel_names(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (g, ops) in self.gpl_fusion().into_iter().enumerate() {
            if g == 0 {
                v.push(format!("k_map*(scan {})", self.driver));
            } else {
                let PipeOp::Probe { ht, .. } = &self.ops[ops[0]] else {
                    unreachable!("group {g} must start with a probe");
                };
                let fused = if ops.len() > 1 { "+map" } else { "" };
                v.push(format!("k_hash_probe*(ht{ht}{fused})"));
            }
        }
        v.push(match &self.terminal {
            Terminal::HashBuild { ht, .. } => format!("k_hash_build(ht{ht})"),
            Terminal::Aggregate { groups, .. } if groups.is_empty() => "k_reduce*".to_string(),
            Terminal::Aggregate { .. } => "k_groupby*".to_string(),
        });
        v
    }

    /// Kernel names under KBE decomposition, as [`crate::kbe`] launches
    /// them: selections and probes expand to map + prefix-sum + scatter
    /// (Figure 7b, the GDB selection \[13\]).
    pub fn kbe_kernel_names(&self) -> Vec<String> {
        let mut v = Vec::new();
        for op in &self.ops {
            match op {
                PipeOp::Filter(_) => v.extend(["k_map", "k_prefix_sum", "k_scatter"]),
                PipeOp::Probe { .. } => v.extend(["k_hash_probe", "k_prefix_sum", "k_scatter"]),
                PipeOp::Compute { .. } => v.push("k_map"),
            }
        }
        v.push(match &self.terminal {
            Terminal::HashBuild { .. } => "k_hash_build",
            Terminal::Aggregate { .. } => "k_aggregate",
        });
        v.into_iter().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_for, q14_plan, q8_plan};
    use gpl_tpch::{Q14Params, QueryId, TpchDb};

    fn db() -> TpchDb {
        TpchDb::at_scale(0.002)
    }

    #[test]
    fn lowering_matches_stage_name_derivations() {
        let db = db();
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&db, q);
            for stage in &plan.stages {
                let ir = SegmentIr::lower(stage, db.table(&stage.driver), 64);
                assert_eq!(ir.kernel_names(), stage.gpl_kernel_names());
                assert_eq!(ir.edges.len() + 1, ir.nodes.len());
                let flat: Vec<usize> = ir.op_order().collect();
                assert_eq!(flat, (0..stage.ops.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn q14_leaf_split_is_one_eager_three_lazy() {
        let db = db();
        let plan = q14_plan(&db, Q14Params::default());
        let ir = SegmentIr::lower(&plan.stages[1], db.table("lineitem"), 64);
        // Only l_shipdate is read by the leaf's filter; the other three
        // loads ship onward and gather lazily.
        assert_eq!(ir.eager.len(), 1);
        assert_eq!(ir.eager[0].name, "l_shipdate");
        assert_eq!(ir.lazy.len(), 3);
        assert!(!ir.promoted_leaf);
    }

    #[test]
    fn pass_through_build_promotes_a_lazy_column() {
        let db = db();
        // Q14's build_part has no ops: both loads ship straight into the
        // hash build, so the scan promotes the first.
        let plan = q14_plan(&db, Q14Params::default());
        let ir = SegmentIr::lower(&plan.stages[0], db.table("part"), 64);
        assert!(ir.promoted_leaf);
        assert_eq!(ir.eager.len(), 1);
        assert_eq!(ir.eager[0].slot, 0);
        assert_eq!(ir.lazy.len(), 1);
    }

    #[test]
    fn q8_probe_stage_fuses_like_the_executor_expects() {
        let db = db();
        let plan = q8_plan(&db);
        let stage = plan.stages.last().unwrap();
        let ir = SegmentIr::lower(stage, db.table("lineitem"), 64);
        assert_eq!(ir.nodes.len(), 5, "4 pipeline kernels + terminal");
        assert_eq!(ir.nodes[0].ops, vec![0], "leaf absorbs the semi-probe");
        assert_eq!(ir.nodes[3].ops.len(), 4, "last probe absorbs 3 computes");
        assert!(ir.nodes[0].flavour == KernelFlavour::Map);
        assert!(ir.nodes[4].flavour == KernelFlavour::Aggregate);
    }

    #[test]
    fn validate_config_rejects_wrong_wg_count_with_structured_error() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q14);
        let stage = &plan.stages[1];
        let ir = SegmentIr::lower(stage, db.table("lineitem"), 64);
        let mut cfg = StageConfig::default_for(&gpl_sim::amd_a10(), stage);
        assert!(ir.validate_config(&cfg).is_ok());
        cfg.wg_counts.pop();
        let err = ir.validate_config(&cfg).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::WgCounts {
                kernels: 3,
                wg_counts: 2,
                ..
            }
        ));
        assert!(err.to_string().contains("needs 3 wg counts"));
    }

    #[test]
    fn render_is_pure_and_mentions_every_node_and_edge() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q9);
        let stage = plan.stages.last().unwrap();
        let ir = SegmentIr::lower(stage, db.table("lineitem"), 64);
        let r = ir.render();
        assert_eq!(r, ir.render(), "render must be deterministic");
        for n in &ir.nodes {
            assert!(r.contains(&*n.name), "missing node {}: {r}", n.name);
        }
        for (i, _) in ir.edges.iter().enumerate() {
            assert!(r.contains(&format!("e{i}:")), "missing edge {i}: {r}");
        }
    }

    #[test]
    fn q14_pairs_build_part_with_probe_lineitem() {
        let db = db();
        let plan = q14_plan(&db, Q14Params::default());
        let pairs = overlap_pairs(&plan.stages);
        assert_eq!(pairs.len(), 1);
        let p = &pairs[0];
        assert_eq!((p.build_stage, p.probe_stage), (0, 1));
        assert_eq!(p.ht, 0);
        assert!(p.probe_op > 0, "paired probe must start its own kernel");
        assert!(matches!(
            plan.stages[1].ops[p.probe_op],
            PipeOp::Probe { ht: 0, .. }
        ));
    }

    #[test]
    fn overlap_pairs_never_share_a_stage() {
        let db = db();
        for q in QueryId::all() {
            let plan = crate::plan::plan_for(&db, q);
            let pairs = overlap_pairs(&plan.stages);
            let mut used = std::collections::HashSet::new();
            for p in &pairs {
                assert_eq!(p.probe_stage, p.build_stage + 1, "{}", q.name());
                assert!(used.insert(p.build_stage), "{}", q.name());
                assert!(used.insert(p.probe_stage), "{}", q.name());
                assert!(matches!(
                    plan.stages[p.build_stage].terminal,
                    Terminal::HashBuild { ht, .. } if ht == p.ht
                ));
            }
        }
    }

    #[test]
    fn with_slices_divides_the_table_volume() {
        let e = InterSegmentEdge {
            build_stage: 0,
            probe_stage: 1,
            ht: 0,
            probe_op: 1,
            slices: 1,
            slice_bytes: 0,
        }
        .with_slices(8, 1000);
        assert_eq!(e.slices, 8);
        assert_eq!(e.slice_bytes, 125);
        assert_eq!(e.clone().with_slices(0, 1000).slices, 1, "K floors at 1");
    }

    #[test]
    fn attach_lambdas_fills_every_node() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q14);
        let mut ir = SegmentIr::lower(&plan.stages[1], db.table("lineitem"), 64);
        assert!(ir.nodes.iter().all(|n| n.lambda.is_none()));
        ir.attach_lambdas(&[0.02, 1.0]);
        assert_eq!(ir.nodes[0].lambda, Some(0.02));
        assert_eq!(ir.nodes[2].lambda, Some(0.0), "terminal emits no rows");
    }
}
