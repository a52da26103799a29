//! The headline kernel: distributed delta-stepping with the extreme-scale
//! optimization stack.
//!
//! Bulk-synchronous structure, one bucket at a time:
//!
//! ```text
//! loop:
//!     one agreement (`epoch.rs`): each rank offers its minimum bucket, that
//!     bucket's frontier sums, its queue size and unsettled arcs; out come
//!     the lowest bucket k, its sums and the totals   (no bucket → done)
//!     if the global residue is tiny, most arcs belong to settled vertices
//!     and fusion is on: finish in one fused Bellman-Ford tail  (→ done)
//!     repeat                                   (light-edge inner loop)
//!         frontier ← live entries of local bucket k
//!         agree on its sums (the boundary already has, the first time) and
//!         from them on direction (push / pull), by estimated cost
//!         push: relax light out-edges, exchange updates, apply
//!         pull: broadcast frontier, scan unsettled vertices' light arcs
//!               up to the weight that could still improve them
//!     until bucket k is globally empty
//!     heavy edges of S, the vertices bucket k settled, by the cheaper side:
//!         push: relax every heavy arc out of S, exchange once
//!         pull: each vertex walks its heavy arcs while min d(S) + w < d(v),
//!               fetches d(u) of the sources it met (∞ unless u ∈ S), relaxes
//! ```
//!
//! A run makes no allreduce outside the driver's agreements and the fused
//! tail's rounds: Δ's statistics were reduced once, with the graph.
//!
//! Every optimization is toggleable via [`OptConfig`]; with everything off
//! this degenerates to the plain textbook distributed delta-stepping that
//! the ablation experiments measure against.

use crate::bucket::BucketQueue;
use crate::codec::Update;
use crate::config::{Direction, OptConfig};
use crate::delta::suggest_delta;
use crate::epoch::{run_bucket_epochs, BucketKernel, Offer, SuperstepSpan};
use crate::exchange::{exchange_into, ExchangeBufs};
use g500_graph::hash::VertexIdBuild;
use g500_graph::{VertexId, Weight};
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use rayon::prelude::*;
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::stats::json_f64;
use simnet::{RankCtx, TraceCode, Wire};
use std::cmp::Ordering;
use std::collections::HashMap;

/// What one agreement carries. Of the bucket: frontier size `f`, its light
/// arcs `F`, and (from a rank with no frontier, for the round that finds none
/// anywhere) the heavy arcs `H` and nearest distance of what the bucket
/// settled. Of the queue: live entries, unsettled arcs `U` and `U_h`.
type Sums = ((u64, u64, u64, f32), (u64, u64, u64));

impl Offer for Sums {
    fn merge(&self, other: &Sums, buckets: Ordering) -> Sums {
        let ((a, x), (b, y)) = (self, other);
        let bucket = match buckets {
            Ordering::Less => *a,
            Ordering::Greater => *b,
            Ordering::Equal => (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3.min(b.3)),
        };
        (bucket, (x.0 + y.0, x.1 + y.1, x.2 + y.2))
    }
}

/// Per-vertex result of the parallel pull scan: arcs examined, and (if the
/// vertex improved) its new `(dist, parent)`.
type PullScan = (u64, Option<(f32, u64)>);

/// Operations one pushed light arc costs end to end: the relaxation, then
/// what [`exchange_into`] and the receiver charge per record — dedup
/// (offered), encode (shipped), decode and apply (received).
const PUSH_OPS_PER_ARC: f64 = 5.0;

/// Wire bytes of one broadcast frontier entry, `(vertex, dist)`.
const FRONTIER_ENTRY_BYTES: usize = <(u64, f32) as Wire>::SIZE;

/// Operations one heavy arc costs a fetch at most: scanned, offered to the
/// request dedup, answered by its owner, its reply received, scanned again.
const FETCH_OPS_PER_ARC: f64 = 5.0;

/// Per-chunk result of the parallel heavy-phase scan: relaxation count and
/// the improving candidates `(target_global, new_dist, parent_global,
/// owner_rank)` in (source, arc) order.
type HeavyScan = (u64, Vec<(u64, f32, u64, usize)>);

/// Per-bucket phase timing record (for the breakdown figure F4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseRecord {
    /// Bucket index.
    pub bucket: u64,
    /// Global frontier size summed over the bucket's inner iterations.
    pub frontier: u64,
    /// Virtual compute seconds this rank spent in the bucket.
    pub compute_s: f64,
    /// Virtual communication seconds this rank spent in the bucket.
    pub comm_s: f64,
}

/// Counters one run of the distributed kernel produces (per rank; counts
/// like `supersteps` are identical on every rank by construction).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SsspRunStats {
    /// Global communication rounds (inner light iterations + heavy phases
    /// + fused-tail rounds).
    pub supersteps: u64,
    /// Buckets processed.
    pub buckets: u64,
    /// Local edge relaxations performed.
    pub relaxations: u64,
    /// Update records shipped by this rank (post-dedup).
    pub updates_sent: u64,
    /// Update records offered before dedup.
    pub updates_offered: u64,
    /// Inner iterations that ran in push mode.
    pub push_iterations: u64,
    /// Inner iterations that ran in pull mode.
    pub pull_iterations: u64,
    /// Buckets whose heavy phase fetched distances instead of pushing.
    pub heavy_pulls: u64,
    /// Whether the fused Bellman-Ford tail was taken.
    pub tail_fused: bool,
    /// Virtual seconds from kernel start to finish on this rank.
    pub sim_time_s: f64,
    /// Virtual compute seconds inside the kernel.
    pub compute_s: f64,
    /// Virtual communication seconds inside the kernel.
    pub comm_s: f64,
    /// Per-bucket phases (only when `OptConfig::record_phases`).
    pub phases: Vec<PhaseRecord>,
}

impl PhaseRecord {
    /// Render as a JSON object (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bucket\":{},\"frontier\":{},\"compute_s\":{},\"comm_s\":{}}}",
            self.bucket,
            self.frontier,
            json_f64(self.compute_s),
            json_f64(self.comm_s)
        )
    }
}

impl SsspRunStats {
    /// Render as a JSON object (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self.phases.iter().map(|p| p.to_json()).collect();
        format!(
            "{{\"supersteps\":{},\"buckets\":{},\"relaxations\":{},\"updates_sent\":{},\
             \"updates_offered\":{},\"push_iterations\":{},\"pull_iterations\":{},\
             \"heavy_pulls\":{},\"tail_fused\":{},\"sim_time_s\":{},\"compute_s\":{},\"comm_s\":{},\
             \"phases\":[{}]}}",
            self.supersteps,
            self.buckets,
            self.relaxations,
            self.updates_sent,
            self.updates_offered,
            self.push_iterations,
            self.pull_iterations,
            self.heavy_pulls,
            self.tail_fused,
            json_f64(self.sim_time_s),
            json_f64(self.compute_s),
            json_f64(self.comm_s),
            phases.join(",")
        )
    }
}

impl SsspRunStats {
    /// Append to a checkpoint. Time fields are included so rollback is
    /// exact, even though crash runs legitimately report different virtual
    /// times than fault-free runs.
    pub(crate) fn save_ckpt(&self, out: &mut Vec<u8>) {
        codec::put(out, self.supersteps);
        codec::put(out, self.buckets);
        codec::put(out, self.relaxations);
        codec::put(out, self.updates_sent);
        codec::put(out, self.updates_offered);
        codec::put(out, self.push_iterations);
        codec::put(out, self.pull_iterations);
        codec::put(out, self.heavy_pulls);
        codec::put(out, self.tail_fused as u64);
        codec::put(out, self.sim_time_s);
        codec::put(out, self.compute_s);
        codec::put(out, self.comm_s);
        codec::put(out, self.phases.len() as u64);
        for p in &self.phases {
            codec::put(out, p.bucket);
            codec::put(out, p.frontier);
            codec::put(out, p.compute_s);
            codec::put(out, p.comm_s);
        }
    }

    /// Restore from a checkpoint written by
    /// [`save_ckpt`](SsspRunStats::save_ckpt).
    pub(crate) fn load_ckpt(&mut self, buf: &[u8], pos: &mut usize) {
        self.supersteps = codec::get(buf, pos);
        self.buckets = codec::get(buf, pos);
        self.relaxations = codec::get(buf, pos);
        self.updates_sent = codec::get(buf, pos);
        self.updates_offered = codec::get(buf, pos);
        self.push_iterations = codec::get(buf, pos);
        self.pull_iterations = codec::get(buf, pos);
        self.heavy_pulls = codec::get(buf, pos);
        self.tail_fused = codec::get::<u64>(buf, pos) != 0;
        self.sim_time_s = codec::get(buf, pos);
        self.compute_s = codec::get(buf, pos);
        self.comm_s = codec::get(buf, pos);
        let n = codec::get::<u64>(buf, pos) as usize;
        self.phases = (0..n)
            .map(|_| PhaseRecord {
                bucket: codec::get(buf, pos),
                frontier: codec::get(buf, pos),
                compute_s: codec::get(buf, pos),
                comm_s: codec::get(buf, pos),
            })
            .collect();
    }
}

/// Working state threaded through the phases.
struct Kernel<'a, P: VertexPartition> {
    graph: &'a LocalGraph<P>,
    opts: OptConfig,
    delta: Weight,
    sp: DistShortestPaths,
    buckets: BucketQueue,
    /// Generation stamps: `frontier_seen[v] == frontier_epoch` means v is
    /// already in the current inner iteration's frontier (drain, fused
    /// tail) or already expanded in the current push superstep.
    frontier_seen: Vec<u64>,
    frontier_epoch: u64,
    /// `settled_seen[v] == settled_epoch` means v is already in the current
    /// bucket's settled list.
    settled_seen: Vec<u64>,
    settled_epoch: u64,
    /// `light_end[l]` arcs of local vertex `l` are lighter than Δ: rows
    /// are weight-sorted, so they are the prefix and the heavy arcs the
    /// suffix. Derived from graph + Δ, so not checkpointed.
    light_end: Vec<u32>,
    /// Light and heavy arcs of local vertices no bucket has settled yet:
    /// upper bounds on what a light pull scan and a heavy fetch scan examine.
    unsettled_light: u64,
    unsettled_heavy: u64,
    stats: SsspRunStats,
    /// Superstep scratch arenas, reused across the whole run: the exchange
    /// buckets/incoming buffer and the two parallel-scan result buffers.
    /// Every superstep used to reallocate all of these from nothing.
    xbufs: ExchangeBufs<Update>,
    pull_scratch: Vec<PullScan>,
    heavy_scratch: Vec<HeavyScan>,
    /// The frontier the last offer summarised: drained from its bucket (not
    /// by a boundary's offer) for the light step it was agreed for.
    frontier: Vec<u32>,
    /// Open-bucket scratch, reset by `open_bucket`: the vertices the bucket
    /// settled (the heavy pass's sources) and what the last light round
    /// agreed about them (their heavy arcs `H`, the heavy arcs still
    /// unsettled `U_h`, their minimum distance), the global frontier size
    /// summed over its light steps, and the compute/comm clocks at its start.
    settled: Vec<u32>,
    heavy_sums: (u64, u64, f32),
    phase_frontier: u64,
    phase_start: (f64, f64),
}

/// Everything live across a superstep boundary is checkpointed; the
/// scratch (`xbufs`, `pull_scratch`, `heavy_scratch`, and the agreement and
/// open-bucket fields) is excluded on purpose — it is fully overwritten
/// before being read, in every superstep, offer or at the next
/// `open_bucket`.
impl<P: VertexPartition> Checkpoint for Kernel<'_, P> {
    fn save(&self, out: &mut Vec<u8>) {
        codec::put_slice(out, &self.sp.dist);
        codec::put_slice(out, &self.sp.parent);
        self.buckets.save(out);
        codec::put_slice(out, &self.frontier_seen);
        codec::put(out, self.frontier_epoch);
        codec::put_slice(out, &self.settled_seen);
        codec::put(out, self.settled_epoch);
        codec::put(out, self.unsettled_light);
        codec::put(out, self.unsettled_heavy);
        self.stats.save_ckpt(out);
    }

    fn load(&mut self, buf: &[u8]) {
        let pos = &mut 0;
        self.sp.dist = codec::get_vec(buf, pos);
        self.sp.parent = codec::get_vec(buf, pos);
        self.buckets.load(buf, pos);
        self.frontier_seen = codec::get_vec(buf, pos);
        self.frontier_epoch = codec::get(buf, pos);
        self.settled_seen = codec::get_vec(buf, pos);
        self.settled_epoch = codec::get(buf, pos);
        self.unsettled_light = codec::get(buf, pos);
        self.unsettled_heavy = codec::get(buf, pos);
        self.stats.load_ckpt(buf, pos);
        assert_eq!(*pos, buf.len(), "trailing bytes in kernel checkpoint");
    }
}

/// Run the distributed kernel from `root`. Collective: all ranks call with
/// identical `opts`. Returns this rank's slice of the result and the run
/// statistics.
///
/// Panics on an unmasked fault; [`try_distributed_delta_stepping`] is the
/// typed-error variant for crash-injected machines.
pub fn distributed_delta_stepping<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
    opts: &OptConfig,
) -> (DistShortestPaths, SsspRunStats) {
    match try_distributed_delta_stepping(ctx, graph, root, opts) {
        Ok(out) => out,
        Err(e) => panic!("rank {}: {e}", ctx.rank()),
    }
}

/// [`distributed_delta_stepping`] with crash recovery surfaced as a typed
/// error: under a [`simnet::CrashPlan`] the kernel checkpoints at bucket
/// boundaries, probes for crashes every superstep, and rolls back and
/// replays on an agreed verdict; a crash schedule the budget cannot absorb
/// comes back as `Err` — identically on every rank, from the same
/// collective point.
pub fn try_distributed_delta_stepping<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
    opts: &OptConfig,
) -> Result<(DistShortestPaths, SsspRunStats), FaultEscalation> {
    run_kernel(ctx, graph, root, opts).map(|k| (k.sp, k.stats))
}

/// The run itself; the finished kernel still holds its counters.
fn run_kernel<'a, P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &'a LocalGraph<P>,
    root: VertexId,
    opts: &OptConfig,
) -> Result<Kernel<'a, P>, FaultEscalation> {
    let n_local = graph.local_vertices();
    let start_now = ctx.now();
    let start_stats = ctx.stats().clone();

    // Δ selection, from the statistics assembly reduced with the graph.
    let delta = opts.delta.unwrap_or_else(|| {
        let (arcs, verts) = (graph.global_arcs(), graph.global_vertices());
        let avg_degree = arcs as f64 / verts.max(1) as f64;
        let mean_w = if arcs == 0 {
            0.5
        } else {
            graph.global_weight() / arcs as f64
        };
        suggest_delta(avg_degree, mean_w)
    });

    let light_end: Vec<u32> = (0..n_local)
        .map(|l| graph.edge_weights(l).partition_point(|&w| w < delta) as u32)
        .collect();
    let unsettled_light: u64 = light_end.iter().map(|&e| u64::from(e)).sum();
    let mut k = Kernel {
        graph,
        opts: *opts,
        delta,
        sp: DistShortestPaths::unreached(n_local),
        buckets: BucketQueue::new(delta),
        frontier_seen: vec![0; n_local],
        frontier_epoch: 0,
        settled_seen: vec![0; n_local],
        settled_epoch: 0,
        unsettled_light,
        unsettled_heavy: graph.local_arcs() as u64 - unsettled_light,
        light_end,
        stats: SsspRunStats::default(),
        xbufs: ExchangeBufs::new(ctx.size()),
        pull_scratch: Vec::new(),
        heavy_scratch: Vec::new(),
        frontier: Vec::new(),
        settled: Vec::new(),
        heavy_sums: (0, 0, f32::INFINITY),
        phase_frontier: 0,
        phase_start: (0.0, 0.0),
    };

    let part = graph.part();
    if part.owner(root) == ctx.rank() {
        let l = part.to_local(root);
        k.sp.dist[l] = 0.0;
        k.sp.parent[l] = root;
        k.buckets.insert(l as u32, 0.0);
    }

    run_bucket_epochs(ctx, &mut k)?;

    k.stats.sim_time_s = ctx.now() - start_now;
    k.stats.compute_s = ctx.stats().compute_s - start_stats.compute_s;
    k.stats.comm_s = ctx.stats().comm_s - start_stats.comm_s;
    Ok(k)
}

impl<P: VertexPartition> BucketKernel for Kernel<'_, P> {
    type Offer = Sums;
    const BOUNDARY_AGREES_FIRST_STEP: bool = true;

    fn offer(&mut self, open: Option<u64>) -> (u64, Sums) {
        // Queue size as `close_bucket` left it: the fused tail's trigger.
        let active = self.buckets.len() as u64;
        let mut bucket = (0, 0, 0, f32::INFINITY);
        let k = open.map_or_else(|| self.buckets.min_bucket(), |k| Some(k as usize));
        if let Some(k) = k {
            // A boundary neither drains nor settles: whose bucket opens?
            self.collect_frontier(k, open.is_some());
            bucket.0 = self.frontier.len() as u64;
            for &v in &self.frontier {
                bucket.1 += u64::from(self.light_end[v as usize]);
            }
            // The round that finds the frontier globally empty closes the
            // settled set, so it also carries what the heavy phase must
            // agree on; a rank with a frontier left knows this round is not
            // that one.
            if open.is_some() && self.frontier.is_empty() {
                for &v in &self.settled {
                    bucket.2 += self.heavy_arcs(v as usize);
                    bucket.3 = bucket.3.min(self.sp.dist[v as usize]);
                }
            }
        }
        let queue = (active, self.unsettled_light, self.unsettled_heavy);
        (k.map_or(u64::MAX, |k| k as u64), (bucket, queue))
    }

    /// The fused-tail decision, then the bucket's opening.
    fn open_bucket(&mut self, ctx: &mut RankCtx, k: u64, agreed: &mut Sums) -> bool {
        let (bucket, (active, unsettled_light, unsettled_heavy)) = agreed;
        // Two conditions gate the fusion: the live residue is tiny AND
        // the vertices holding most of the arcs are settled. The second
        // guard matters: right after bucket 0 the queue is also tiny
        // (the search has barely started), and fusing there would run
        // an unbucketed Bellman-Ford over the entire graph. Arcs settled,
        // not arcs relaxed: a fetch examines few and must not delay this.
        // (The residue is not empty: some rank named bucket `k`.)
        let arcs = self.graph.global_arcs();
        let bulk_done = (arcs - (*unsettled_light + *unsettled_heavy)) * 2 > arcs;
        if self.opts.bucket_fusion
            && *active < self.opts.tail_threshold * ctx.size() as u64
            && bulk_done
        {
            // The tail ends with every queue empty and its last round
            // agreed on that, so the run is over without another agreement.
            self.fused_tail(ctx);
            self.stats.tail_fused = true;
            return false;
        }
        self.stats.buckets += 1;
        ctx.trace_begin(TraceCode::Bucket, k, 0);
        self.phase_start = (ctx.stats().compute_s, ctx.stats().comm_s);
        self.phase_frontier = 0;
        self.settled_epoch += 1;
        self.settled.clear();
        // Make `agreed` the first light step's: that step counts unsettled
        // arcs with its frontier settled, and a bucket's first frontier is
        // all newly settled, so `U` falls by exactly its light arcs.
        self.collect_frontier(k as usize, true);
        *unsettled_light -= bucket.1;
        true
    }

    /// One light-edge iteration over the agreed frontier: choose the
    /// direction, then push or pull.
    fn light_step(&mut self, ctx: &mut RankCtx, k: u64, agreed: &Sums) -> bool {
        let ((f_size, f_light, h, nearest), (_, unsettled_light, unsettled_heavy)) = *agreed;
        if f_size == 0 {
            self.heavy_sums = (h, unsettled_heavy, nearest);
            return false;
        }
        let frontier = std::mem::take(&mut self.frontier);
        let span = SuperstepSpan::open(ctx, self.stats.supersteps, 0, self.stats.relaxations);
        self.phase_frontier += f_size;
        let use_pull = match self.opts.direction {
            Direction::Push => false,
            Direction::Pull => true,
            // Per-rank cost of each side, in compute operations: push works
            // 1/P of the frontier's light arcs; pull scans at most 1/P of
            // the unsettled light arcs after every rank has received and
            // indexed the whole frontier — one operation and
            // `FRONTIER_ENTRY_BYTES` on the wire per entry — over a ring
            // whose P−1 steps each wait out a latency the exchange's
            // all-to-all overlaps.
            Direction::Hybrid => {
                let (p, net) = (ctx.size() as f64, ctx.loggp());
                let ops_per_sec = ctx.compute_model().ops_per_sec;
                let entry = 1.0 + FRONTIER_ENTRY_BYTES as f64 * net.per_byte * ops_per_sec;
                let ring = (p - 1.0) * net.latency * ops_per_sec;
                let push = f_light as f64 * PUSH_OPS_PER_ARC / p;
                unsettled_light as f64 / p + f_size as f64 * entry + ring < push
            }
        };
        if use_pull {
            self.stats.pull_iterations += 1;
            self.pull_iteration(ctx, &frontier);
        } else {
            self.stats.push_iterations += 1;
            self.push_iteration(ctx, k as usize, frontier);
        }
        self.stats.supersteps += 1;
        span.close(ctx, self.stats.supersteps, self.stats.relaxations);
        true
    }

    /// The heavy-edge phase (once per settled vertex) and the per-bucket
    /// records.
    fn close_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        let span = SuperstepSpan::open(ctx, self.stats.supersteps, 1, self.stats.relaxations);
        ctx.trace_count(TraceCode::Settled, self.settled.len() as u64, k);
        self.heavy_phase(ctx);
        self.stats.supersteps += 1;
        span.close(ctx, self.stats.supersteps, self.stats.relaxations);

        let dc = ctx.stats().compute_s - self.phase_start.0;
        let dm = ctx.stats().comm_s - self.phase_start.1;
        if self.opts.record_phases {
            self.stats.phases.push(PhaseRecord {
                bucket: k,
                frontier: self.phase_frontier,
                compute_s: dc,
                comm_s: dm,
            });
        }
        if ctx.trace_enabled() {
            ctx.trace_count(TraceCode::BucketFrontier, self.phase_frontier, k);
            ctx.trace_count_f64(TraceCode::BucketCompute, dc, k);
            ctx.trace_count_f64(TraceCode::BucketComm, dm, k);
        }
        // The fused tail (the next boundary's decision) is deliberately
        // outside the bucket span: its rounds carry flavor 2 and the
        // per-bucket counters above keep the same semantics as
        // `PhaseRecord` (tail excluded).
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }

    fn abandon_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }
}

impl<P: VertexPartition> Kernel<'_, P> {
    /// The live, deduplicated frontier of bucket `k`, into `self.frontier`.
    /// `take` it for a light step: empty the bucket, settle the vertices.
    fn collect_frontier(&mut self, k: usize, take: bool) {
        self.frontier_epoch += 1;
        self.frontier.clear();
        for &v in self.buckets.bucket(k) {
            let d = self.sp.dist[v as usize];
            if d.is_finite()
                && self.buckets.bucket_of(d) == k
                && self.frontier_seen[v as usize] != self.frontier_epoch
            {
                self.frontier_seen[v as usize] = self.frontier_epoch;
                self.frontier.push(v);
            }
        }
        if take {
            self.buckets.take_bucket(k);
            let frontier = std::mem::take(&mut self.frontier);
            for &v in &frontier {
                self.settle(v);
            }
            self.frontier = frontier;
        }
    }

    /// Heavy arcs of local vertex `l`: its row past the light prefix.
    fn heavy_arcs(&self, l: usize) -> u64 {
        self.graph.degree(l) as u64 - u64::from(self.light_end[l])
    }

    /// The open bucket settles `v`: the one place a vertex joins `settled`,
    /// found by a frontier drain or by the cascade, and so the one place its
    /// arcs leave the unsettled counters. Once per run — a distance only
    /// falls, so no later bucket holds it — hence the exact subtraction.
    fn settle(&mut self, v: u32) {
        let l = v as usize;
        if self.settled_seen[l] != self.settled_epoch {
            debug_assert_eq!(self.settled_seen[l], 0, "settled by two buckets");
            self.settled_seen[l] = self.settled_epoch;
            self.settled.push(v);
            self.unsettled_light -= u64::from(self.light_end[l]);
            self.unsettled_heavy -= self.heavy_arcs(l);
        }
    }

    /// Apply one incoming/locally-generated update. Returns `Some(local)`
    /// if it improved the vertex.
    fn apply(&mut self, v_global: u64, nd: Weight, parent: u64) -> Option<u32> {
        let l = self.graph.part().to_local(v_global);
        if nd < self.sp.dist[l] {
            self.sp.dist[l] = nd;
            self.sp.parent[l] = parent;
            self.buckets.insert(l as u32, nd);
            Some(l as u32)
        } else {
            None
        }
    }

    /// Ship the staged updates, apply what arrives, and hand the scratch
    /// back to the kernel — the tail of every bucketed push superstep.
    fn exchange_and_apply(&mut self, ctx: &mut RankCtx, mut xbufs: ExchangeBufs<Update>) {
        let outcome = exchange_into(ctx, &mut xbufs, &self.opts);
        self.stats.updates_sent += outcome.records_sent;
        self.stats.updates_offered += outcome.records_offered;
        ctx.charge_compute(xbufs.incoming().len() as u64);
        for &(v, nd, parent) in xbufs.incoming() {
            self.apply(v, nd, parent);
        }
        self.xbufs = xbufs;
    }

    /// One push-mode light iteration over `frontier`. Cascaded vertices
    /// (local improvements that stay in bucket `k` when fusion is on) are
    /// processed within this superstep and recorded in `settled` so the
    /// heavy phase covers them too.
    fn push_iteration(&mut self, ctx: &mut RankCtx, k: usize, frontier: Vec<u32>) {
        let me = ctx.rank();
        let delta = self.delta;
        let cascade = self.opts.bucket_fusion;
        let graph = self.graph;
        let mut xbufs = std::mem::take(&mut self.xbufs);
        let mut stack = frontier;
        let mut relaxed = 0u64;
        // A vertex expands at most once per superstep; one that improves
        // again waits in bucket `k` for the next iteration, where all ranks
        // share the work. (Re-expanding in LIFO order is label-correcting:
        // one rank can re-relax its slice of the crest bucket many times
        // over while the others wait.)
        self.frontier_epoch += 1;
        let expanded = self.frontier_epoch;

        while let Some(u) = stack.pop() {
            if self.frontier_seen[u as usize] == expanded {
                continue;
            }
            self.frontier_seen[u as usize] = expanded;
            let du = self.sp.dist[u as usize];
            let u_global = graph.part().to_global(me, u as usize);
            let light = self.light_end[u as usize] as usize;
            let vs = &graph.neighbors(u as usize)[..light];
            let ws = &graph.edge_weights(u as usize)[..light];
            relaxed += light as u64;
            for (&v, &w) in vs.iter().zip(ws) {
                let nd = du + w;
                let owner = graph.part().owner(v);
                if owner == me {
                    let l = graph.part().to_local(v);
                    if nd < self.sp.dist[l] {
                        self.sp.dist[l] = nd;
                        self.sp.parent[l] = u_global;
                        if cascade
                            && (nd / delta) as usize == k
                            && self.frontier_seen[l] != expanded
                        {
                            // process within this superstep; it settles in
                            // bucket k, so the heavy phase must see it
                            self.settle(l as u32);
                            stack.push(l as u32);
                        } else {
                            self.buckets.insert(l as u32, nd);
                        }
                    }
                } else {
                    xbufs.bucket_mut(owner).push((v, nd, u_global));
                }
            }
        }
        self.stats.relaxations += relaxed;
        ctx.charge_compute(relaxed);

        self.exchange_and_apply(ctx, xbufs);
    }

    /// One pull-mode light iteration: broadcast the frontier, scan local
    /// unsettled adjacency. All improvements are local — zero point-to-point
    /// update traffic.
    fn pull_iteration(&mut self, ctx: &mut RankCtx, frontier: &[u32]) {
        let me = ctx.rank();
        let graph = self.graph;
        let mine: Vec<(u64, f32)> = frontier
            .iter()
            .map(|&v| {
                (
                    graph.part().to_global(me, v as usize),
                    self.sp.dist[v as usize],
                )
            })
            .collect();
        let blocks = ctx.allgatherv(&mine);
        // Min-merge the per-rank frontier blocks in the (possibly fuzzed)
        // delivery order — the min makes the merge order-free.
        let order = ctx.delivery_order(blocks.len());
        // probed once per scanned arc and never iterated: ids the graph
        // made need no SipHash, and the hasher cannot change a result
        let mut fmap: HashMap<u64, f32, VertexIdBuild> = HashMap::default();
        let mut nearest = f32::INFINITY;
        for s in order {
            for &(v, d) in &blocks[s] {
                fmap.entry(v).and_modify(|e| *e = e.min(d)).or_insert(d);
                nearest = nearest.min(d);
            }
        }
        ctx.charge_compute(fmap.len() as u64);
        let found = |_: &Self, t: u64| fmap.get(&t).copied().unwrap_or(f32::INFINITY);
        self.pull_scan(ctx, false, nearest, found);
    }

    /// One parallel pull scan of every local vertex's light prefix or
    /// (`heavy`) heavy suffix against sources no nearer than `nearest`;
    /// `source(self, t)` is the distance t offers, `∞` for none. Each vertex
    /// reads only frozen state and its *own* distance slot, so vertices are
    /// independent and the result is the same at any thread count. An arc of
    /// weight w can improve v only while nearest + w < d(v): the
    /// weight-sorted scan stops at the first arc that fails, the bound
    /// tightens as d(v) drops, and a vertex settled earlier stops before
    /// its first arc. Results are applied in vertex order; the arcs examined
    /// are counted, charged and left per vertex in `pull_scratch`.
    fn pull_scan(
        &mut self,
        ctx: &mut RankCtx,
        heavy: bool,
        nearest: f32,
        source: impl Fn(&Self, u64) -> f32 + Sync,
    ) {
        let n_local = self.graph.local_vertices();
        ctx.trace_begin(TraceCode::TaskWave, n_local as u64, heavy as u64);
        let mut per_l = std::mem::take(&mut self.pull_scratch);
        let this = &*self;
        (0..n_local)
            .into_par_iter()
            .with_min_len(256)
            .map(|l| {
                let (mut scanned, mut dl, mut pl) = (0u64, this.sp.dist[l], u64::MAX);
                let light = this.light_end[l] as usize;
                let row = if heavy {
                    light..this.graph.degree(l)
                } else {
                    0..light
                };
                let ts = &this.graph.neighbors(l)[row.clone()];
                let ws = &this.graph.edge_weights(l)[row];
                for (&t, &w) in ts.iter().zip(ws) {
                    if nearest + w >= dl {
                        break;
                    }
                    scanned += 1;
                    let nd = source(this, t) + w;
                    if nd < dl {
                        (dl, pl) = (nd, t);
                    }
                }
                (scanned, (pl != u64::MAX).then_some((dl, pl)))
            })
            .collect_into_vec(&mut per_l);

        let mut scanned = 0u64;
        for (l, &(s, upd)) in per_l.iter().enumerate() {
            scanned += s;
            if let Some((dl, pl)) = upd {
                self.sp.dist[l] = dl;
                self.sp.parent[l] = pl;
                self.buckets.insert(l as u32, dl);
            }
        }
        self.pull_scratch = per_l;
        self.stats.relaxations += scanned;
        ctx.charge_compute(scanned);
        ctx.trace_end(TraceCode::TaskWave, n_local as u64, heavy as u64);
    }

    /// Heavy-edge phase over the bucket's settled set `S`, by the side the
    /// policy names or, under `Hybrid`, the cheaper per rank: push works 1/P
    /// of the `H` heavy arcs out of `S`; a fetch at most 1/P of the `U_h`
    /// heavy arcs nothing has settled, plus a reply all-to-all that cannot
    /// overlap the request — P−1 sends, P−1 receives, one latency.
    fn heavy_phase(&mut self, ctx: &mut RankCtx) {
        let (h, u_h, nearest) = self.heavy_sums;
        let use_pull = match self.opts.direction {
            Direction::Push => false,
            Direction::Pull => true,
            Direction::Hybrid => {
                let (p, net) = (ctx.size() as f64, ctx.loggp());
                let reply = 2.0 * (p - 1.0) * net.overhead + net.latency;
                let fetch = u_h as f64 * FETCH_OPS_PER_ARC / p;
                fetch + reply * ctx.compute_model().ops_per_sec < h as f64 * PUSH_OPS_PER_ARC / p
            }
        };
        if use_pull {
            self.stats.heavy_pulls += 1;
            self.heavy_pull(ctx, nearest);
        } else {
            self.heavy_push(ctx);
        }
    }

    /// What local vertex `u` offers a heavy fetch: its distance if the open
    /// bucket settled it, nothing otherwise.
    fn settled_dist(&self, u: usize) -> f32 {
        if self.settled_seen[u] == self.settled_epoch {
            self.sp.dist[u]
        } else {
            f32::INFINITY
        }
    }

    /// Heavy phase, pull side. `nearest` is the minimum distance in `S`, so
    /// the scan bound holds for heavy suffixes as it does for light
    /// prefixes. A first scan relaxes nothing and leaves how far each row
    /// lies inside the bound; the remote sources met there go to their
    /// owners as sorted owner-local ids, the owners answer in request order,
    /// and a second scan relaxes. Every candidate a push would win with is
    /// examined, in the same `f32` arithmetic.
    fn heavy_pull(&mut self, ctx: &mut RankCtx, nearest: f32) {
        let (me, graph) = (ctx.rank(), self.graph);
        let part = graph.part();
        self.pull_scan(ctx, true, nearest, |_, _| f32::INFINITY);
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); ctx.size()];
        for (l, &(inside, _)) in self.pull_scratch.iter().enumerate() {
            let lo = self.light_end[l] as usize;
            for &t in &graph.neighbors(l)[lo..lo + inside as usize] {
                let owner = part.owner(t);
                if owner != me {
                    want[owner].push(part.to_local(t) as u32);
                }
            }
        }
        ctx.charge_compute(want.iter().map(|ids| ids.len() as u64).sum());
        for ids in &mut want {
            ids.sort_unstable();
            ids.dedup();
        }
        let asked = ctx.alltoallv(want.clone());
        ctx.charge_compute(asked.iter().map(|ids| ids.len() as u64).sum());
        let answer = |ids: &Vec<u32>| ids.iter().map(|&u| self.settled_dist(u as usize)).collect();
        let got: Vec<Vec<f32>> = ctx.alltoallv(asked.iter().map(answer).collect());
        ctx.charge_compute(got.iter().map(|ds| ds.len() as u64).sum());
        self.pull_scan(ctx, true, nearest, |k, t| {
            let (owner, u) = (part.owner(t), part.to_local(t));
            if owner == me {
                return k.settled_dist(u);
            }
            let at = want[owner].binary_search(&(u as u32));
            got[owner][at.expect("requested by the first scan")]
        });
    }

    /// Heavy phase, push side: one pass over the bucket's settled set.
    fn heavy_push(&mut self, ctx: &mut RankCtx) {
        let me = ctx.rank();
        let settled = std::mem::take(&mut self.settled);
        let graph = self.graph;
        let mut xbufs = std::mem::take(&mut self.xbufs);
        // Parallel candidate scan. Distances of settled vertices cannot
        // change during this phase (for settled u, du < (k+1)δ, and any
        // heavy relaxation delivers nd = du' + w ≥ kδ + δ, which `apply`
        // rejects against dist < (k+1)δ), so the scan reads a frozen view.
        // Candidates are re-walked sequentially in (source, arc) order
        // below, so local applies and per-destination buffers are byte-
        // identical to the sequential schedule at any thread count.
        ctx.trace_begin(TraceCode::TaskWave, settled.len() as u64, 1);
        let dist = &self.sp.dist;
        let light_end = &self.light_end;
        let mut per_chunk = std::mem::take(&mut self.heavy_scratch);
        settled
            .par_chunks(256)
            .map(|chunk| {
                let mut relaxed = 0u64;
                let mut cands: Vec<(u64, f32, u64, usize)> = Vec::new();
                for &u in chunk {
                    let du = dist[u as usize];
                    let u_global = graph.part().to_global(me, u as usize);
                    let light = light_end[u as usize] as usize;
                    let vs = &graph.neighbors(u as usize)[light..];
                    let ws = &graph.edge_weights(u as usize)[light..];
                    relaxed += vs.len() as u64;
                    for (&v, &w) in vs.iter().zip(ws) {
                        cands.push((v, du + w, u_global, graph.part().owner(v)));
                    }
                }
                (relaxed, cands)
            })
            .collect_into_vec(&mut per_chunk);

        let mut relaxed = 0u64;
        for (r, cands) in per_chunk.iter_mut() {
            relaxed += *r;
            for (v, nd, u_global, owner) in cands.drain(..) {
                if owner == me {
                    self.apply(v, nd, u_global);
                } else {
                    xbufs.bucket_mut(owner).push((v, nd, u_global));
                }
            }
        }
        self.heavy_scratch = per_chunk;
        self.stats.relaxations += relaxed;
        ctx.charge_compute(relaxed);
        ctx.trace_end(TraceCode::TaskWave, settled.len() as u64, 1);

        self.exchange_and_apply(ctx, xbufs);
        self.settled = settled;
    }

    /// Fused Bellman-Ford tail: once the global residue is tiny, bucket
    /// discipline only adds synchronization — drain everything and relax to
    /// fixpoint, all edge classes at once.
    fn fused_tail(&mut self, ctx: &mut RankCtx) {
        let me = ctx.rank();
        self.frontier_epoch += 1;
        let mut frontier: Vec<u32> = Vec::new();
        for v in self.buckets.drain_all() {
            if self.sp.dist[v as usize].is_finite()
                && self.frontier_seen[v as usize] != self.frontier_epoch
            {
                self.frontier_seen[v as usize] = self.frontier_epoch;
                frontier.push(v);
            }
        }

        let mut xbufs = std::mem::take(&mut self.xbufs);
        loop {
            let span = SuperstepSpan::open(ctx, self.stats.supersteps, 2, self.stats.relaxations);
            let mut next: Vec<u32> = Vec::new();
            let mut relaxed = 0u64;
            let mut stack = std::mem::take(&mut frontier);
            self.frontier_epoch += 1;
            let graph = self.graph;
            while let Some(u) = stack.pop() {
                let du = self.sp.dist[u as usize];
                let u_global = graph.part().to_global(me, u as usize);
                let vs = graph.neighbors(u as usize);
                let ws = graph.edge_weights(u as usize);
                for (&v, &w) in vs.iter().zip(ws) {
                    relaxed += 1;
                    let nd = du + w;
                    let owner = graph.part().owner(v);
                    if owner == me {
                        let l = graph.part().to_local(v);
                        if nd < self.sp.dist[l] {
                            self.sp.dist[l] = nd;
                            self.sp.parent[l] = u_global;
                            // round-synchronous: defer to the next round.
                            // (an in-round LIFO cascade is label-correcting
                            // with worst-case re-relaxation blowup)
                            if self.frontier_seen[l] != self.frontier_epoch {
                                self.frontier_seen[l] = self.frontier_epoch;
                                next.push(l as u32);
                            }
                        }
                    } else {
                        xbufs.bucket_mut(owner).push((v, nd, u_global));
                    }
                }
            }
            self.stats.relaxations += relaxed;
            ctx.charge_compute(relaxed);

            let outcome = exchange_into(ctx, &mut xbufs, &self.opts);
            self.stats.updates_sent += outcome.records_sent;
            self.stats.updates_offered += outcome.records_offered;
            self.stats.supersteps += 1;
            ctx.charge_compute(xbufs.incoming().len() as u64);
            for &(v, nd, parent) in xbufs.incoming() {
                let l = self.graph.part().to_local(v);
                if nd < self.sp.dist[l] {
                    self.sp.dist[l] = nd;
                    self.sp.parent[l] = parent;
                    if self.frontier_seen[l] != self.frontier_epoch {
                        self.frontier_seen[l] = self.frontier_epoch;
                        next.push(l as u32);
                    }
                }
            }
            let remaining = ctx.allreduce_sum(next.len() as u64);
            frontier = next;
            span.close(ctx, self.stats.supersteps, self.stats.relaxations);
            if remaining == 0 {
                break;
            }
        }
        self.xbufs = xbufs;
        // Buckets were drained; `drain_all` plus direct dist writes keep the
        // queue empty on every rank, which the last round just agreed on.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness, EdgeList, ShortestPaths};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    fn run_dist(
        el: &EdgeList,
        n: u64,
        p: usize,
        root: u64,
        opts: OptConfig,
    ) -> (ShortestPaths, SsspRunStats) {
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (sp, stats) = distributed_delta_stepping(ctx, &g, root, &opts);
            (sp.gather_to_all(ctx, g.part()), stats)
        });
        rep.results.into_iter().next().expect("at least one rank")
    }

    fn exact(el: &EdgeList, n: usize, root: u64) -> ShortestPaths {
        let csr = Csr::from_edges(n, el, Directedness::Undirected);
        dijkstra(&csr, root)
    }

    #[test]
    fn all_on_matches_dijkstra_random() {
        let el = g500_gen::simple::erdos_renyi(64, 320, 13);
        let oracle = exact(&el, 64, 3);
        for p in [1, 2, 4] {
            let (sp, _) = run_dist(&el, 64, p, 3, OptConfig::all_on());
            assert!(sp.distances_match(&oracle, 1e-4), "p={p}");
        }
    }

    #[test]
    fn all_off_matches_dijkstra_random() {
        let el = g500_gen::simple::erdos_renyi(48, 200, 17);
        let oracle = exact(&el, 48, 0);
        let (sp, _) = run_dist(&el, 48, 3, 0, OptConfig::all_off());
        assert!(sp.distances_match(&oracle, 1e-4));
    }

    #[test]
    fn every_single_knob_off_still_exact() {
        let el = g500_gen::simple::erdos_renyi(56, 280, 23);
        let oracle = exact(&el, 56, 7);
        let configs = [
            OptConfig::all_on().without_coalescing(),
            OptConfig::all_on().without_dedup(),
            OptConfig::all_on().without_compression(),
            OptConfig::all_on().without_fusion(),
            OptConfig::all_on().with_direction(Direction::Push),
            OptConfig::all_on().with_direction(Direction::Pull),
        ];
        for (i, opts) in configs.into_iter().enumerate() {
            let (sp, _) = run_dist(&el, 56, 3, 7, opts);
            assert!(sp.distances_match(&oracle, 1e-4), "config {i}");
        }
    }

    #[test]
    fn kronecker_exactness() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(8, 42));
        let el = gen.generate_all();
        let oracle = exact(&el, 256, 5);
        let (sp, stats) = run_dist(&el, 256, 4, 5, OptConfig::all_on());
        assert!(sp.distances_match(&oracle, 1e-4));
        assert!(stats.relaxations > 0);
        assert!(stats.supersteps > 0);
    }

    #[test]
    fn fixed_delta_values_all_exact() {
        let el = g500_gen::simple::erdos_renyi(40, 180, 29);
        let oracle = exact(&el, 40, 1);
        for delta in [0.02f32, 0.1, 0.5, 10.0] {
            let (sp, _) = run_dist(&el, 40, 2, 1, OptConfig::all_on().with_delta(delta));
            assert!(sp.distances_match(&oracle, 1e-4), "delta {delta}");
        }
    }

    #[test]
    fn disconnected_root_touches_only_component() {
        let el = g500_gen::simple::path(6, 0.4); // vertices 6..9 isolated
        let (sp, _) = run_dist(&el, 10, 2, 0, OptConfig::all_on());
        assert_eq!(sp.reached_count(), 6);
        assert!(sp.dist[7].is_infinite());
    }

    #[test]
    fn fusion_reduces_supersteps_on_paths() {
        // a long path is the worst case for bucket discipline; the fused
        // tail + cascade should cut the superstep count substantially
        let el = g500_gen::simple::path(64, 0.09);
        let (_, with) = run_dist(&el, 64, 2, 0, OptConfig::all_on());
        let (_, without) = run_dist(&el, 64, 2, 0, OptConfig::all_on().without_fusion());
        assert!(
            with.supersteps < without.supersteps,
            "fusion {} vs plain {}",
            with.supersteps,
            without.supersteps
        );
    }

    #[test]
    fn dedup_reduces_shipped_updates() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 4));
        let el = gen.generate_all();
        let (_, with) = run_dist(&el, 512, 4, 0, OptConfig::all_on());
        let (_, without) = run_dist(&el, 512, 4, 0, OptConfig::all_on().without_dedup());
        assert!(
            with.updates_sent <= without.updates_sent,
            "dedup shipped more: {} vs {}",
            with.updates_sent,
            without.updates_sent
        );
    }

    #[test]
    fn hybrid_uses_both_directions_on_dense_graph() {
        // All arcs light. The root's own push is cheaper than a scan of the
        // untouched graph; the next frontier is rank 1's 20 vertices × 39
        // light arcs with nothing left unsettled, where pull is cheaper.
        let el = g500_gen::simple::complete(40, 0.5);
        let (sp, stats) = run_dist(&el, 40, 2, 0, OptConfig::all_on().with_delta(1.0));
        assert_eq!(sp.reached_count(), 40);
        assert!(stats.push_iterations > 0, "{stats:?}");
        assert!(stats.pull_iterations > 0, "{stats:?}");
    }

    #[test]
    fn hybrid_never_pulls_on_a_long_path() {
        // a one-vertex frontier with two light arcs never pays for a
        // broadcast plus a scan of everything still unsettled
        let el = g500_gen::simple::path(64, 0.09);
        let (sp, stats) = run_dist(&el, 64, 2, 0, OptConfig::all_on());
        assert_eq!(sp.reached_count(), 64);
        assert_eq!(stats.pull_iterations, 0, "{stats:?}");
    }

    /// This rank's slice of the scale-9 Kronecker graph the direction
    /// tests share, assembled over 4 block-partitioned ranks.
    fn kron9(ctx: &mut RankCtx) -> LocalGraph<Block1D> {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 4));
        let el = gen.generate_all();
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
        assemble_local_graph(ctx, mine.into_iter(), Block1D::new(512, 4))
    }

    #[test]
    fn heavy_pull_examines_bounded_suffixes_only() {
        // Δ = 1/8, pull-only, no fused tail: every relaxation is a
        // pull-scanned light arc, or a heavy arc walked by one of the two
        // scans of a bucket that closed before its vertex was settled.
        let delta = 0.125;
        let opts = OptConfig::all_on()
            .with_direction(Direction::Pull)
            .with_delta(delta)
            .without_fusion();
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            let g = kron9(ctx);
            let (sp, stats) = distributed_delta_stepping(ctx, &g, 0, &opts);
            let bucket = |d: f32| (d / delta) as u64;
            let all = sp.gather_to_all(ctx, g.part());
            let mut closed: Vec<u64> = all
                .dist
                .iter()
                .filter(|d| d.is_finite())
                .map(|&d| bucket(d))
                .collect();
            closed.sort_unstable();
            closed.dedup();
            let (mut light, mut fetched) = (0u64, 0u64);
            for l in 0..g.local_vertices() {
                let l_light = g.arcs(l).filter(|&(_, w)| w < delta).count() as u64;
                let d = sp.dist[l];
                let waited = closed.iter().filter(|&&k| d.is_infinite() || k < bucket(d));
                light += l_light;
                fetched += 2 * waited.count() as u64 * (g.degree(l) as u64 - l_light);
            }
            (stats, light, fetched)
        });
        let mut total = 0;
        for (stats, light, fetched) in &rep.results {
            assert_eq!(stats.heavy_pulls, stats.buckets);
            assert!(
                stats.relaxations <= stats.pull_iterations * light + fetched,
                "{stats:?} light {light} fetched {fetched}"
            );
            total += stats.relaxations;
        }
        // scanning every arc of every unsettled vertex in every pull step
        // relaxed 163268 arcs on this input; bounded light scans with a
        // pushed heavy phase, 17545
        assert!(total < 17_545, "relaxed {total}");
    }

    #[test]
    fn unsettled_counters_end_at_the_unreached_vertices_arcs() {
        // The cascade on, the fused tail (which settles nothing) off: every
        // reached vertex went through `settle`, whichever way it was found.
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            let opts = OptConfig {
                tail_threshold: 0,
                ..OptConfig::all_on().with_direction(dir)
            };
            let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
                let g = kron9(ctx);
                let k = run_kernel(ctx, &g, 0, &opts).expect("no crash");
                let unreached: u64 = (0..g.local_vertices())
                    .filter(|&l| k.sp.dist[l].is_infinite())
                    .map(|l| g.degree(l) as u64)
                    .sum();
                (k.unsettled_light + k.unsettled_heavy, unreached, k.stats)
            });
            for (left, unreached, stats) in &rep.results {
                assert!(!stats.tail_fused);
                assert_eq!(left, unreached, "{dir:?} {stats:?}");
            }
        }
    }

    #[test]
    fn fused_tail_fires_under_every_direction() {
        // The trigger counts arcs settled, so it cannot depend on how few
        // arcs a heavy fetch examined.
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 4));
        let el = gen.generate_all();
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            let opts = OptConfig::all_on().with_direction(dir);
            let (_, stats) = run_dist(&el, 512, 4, 0, opts);
            assert!(stats.tail_fused, "{dir:?} {stats:?}");
        }
    }

    #[test]
    fn push_superstep_expands_each_vertex_at_most_once() {
        // One rank, one bucket, every arc light: however often the in-bucket
        // cascade improves a vertex, a superstep walks its row once.
        let el = g500_gen::simple::erdos_renyi(64, 1500, 5);
        let opts = OptConfig::all_on()
            .with_direction(Direction::Push)
            .with_delta(64.0);
        let (sp, stats) = run_dist(&el, 64, 1, 0, opts);
        assert!(sp.distances_match(&exact(&el, 64, 0), 0.0));
        let arcs = 2 * el.len() as u64;
        assert!(
            stats.relaxations <= stats.push_iterations * arcs,
            "{stats:?}"
        );
        // re-expanding on every improvement relaxed 84132 arcs (of 3000)
        // in one superstep on this input
        assert!(stats.relaxations < 84_132, "{stats:?}");
    }

    #[test]
    fn phase_records_when_requested() {
        let el = g500_gen::simple::erdos_renyi(32, 128, 3);
        let (_, stats) = run_dist(&el, 32, 2, 0, OptConfig::all_on().with_phases());
        assert!(!stats.phases.is_empty());
        let total: u64 = stats.phases.iter().map(|p| p.frontier).sum();
        assert!(total > 0);
    }

    #[test]
    fn root_on_last_rank() {
        let el = g500_gen::simple::cycle(15, 0.2);
        let oracle = exact(&el, 15, 14);
        let (sp, _) = run_dist(&el, 15, 4, 14, OptConfig::all_on());
        assert!(sp.distances_match(&oracle, 1e-4));
    }

    #[test]
    fn crash_recovery_is_byte_identical_to_fault_free() {
        let el = g500_gen::simple::erdos_renyi(64, 320, 13);
        let run = |crash: Option<simnet::CrashPlan>| {
            let mut cfg = MachineConfig::with_ranks(4);
            if let Some(plan) = crash {
                cfg = cfg.crashes(plan);
            }
            let el = &el;
            Machine::new(cfg).run(move |ctx| {
                let part = Block1D::new(64, 4);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (sp, stats) = try_distributed_delta_stepping(ctx, &g, 3, &OptConfig::all_on())
                    .expect("in-budget crashes must be recovered");
                (sp.gather_to_all(ctx, g.part()), stats)
            })
        };
        let clean = run(None);
        let plan = simnet::CrashPlan::random(0xD1E, 0.01).with_checkpoint_interval(2);
        let crashed = run(Some(plan));
        assert!(
            crashed.total_stats().saw_crashes(),
            "the schedule must actually crash someone: {:?}",
            crashed.total_stats()
        );
        for (c, f) in clean.results.iter().zip(crashed.results.iter()) {
            let (csp, cst) = c;
            let (fsp, fst) = f;
            let cbits: Vec<u32> = csp.dist.iter().map(|d| d.to_bits()).collect();
            let fbits: Vec<u32> = fsp.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(cbits, fbits, "distances must be byte-identical");
            assert_eq!(csp.parent, fsp.parent, "parents must be byte-identical");
            // structural counters are identical; only virtual time moves
            let strip = |s: &SsspRunStats| {
                let mut s = s.clone();
                s.sim_time_s = 0.0;
                s.compute_s = 0.0;
                s.comm_s = 0.0;
                s.phases.iter_mut().for_each(|p| {
                    p.compute_s = 0.0;
                    p.comm_s = 0.0;
                });
                s
            };
            assert_eq!(strip(cst), strip(fst));
        }
    }
}
