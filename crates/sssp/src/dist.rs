//! The headline kernel: distributed delta-stepping with the extreme-scale
//! optimization stack — the only 1D kernel. It runs one search
//! ([`try_distributed_delta_stepping`]) or a batch of them
//! ([`crate::multi`]) as *lanes*.
//!
//! Bulk-synchronous structure, one bucket at a time:
//!
//! ```text
//! loop:
//!     one agreement allreduce (`epoch.rs`): each rank offers, per lane, its
//!     minimum bucket, that bucket's frontier sums, its queue size and
//!     unsettled arcs; out come each lane's lowest bucket, its sums and the
//!     totals, and k, the lowest of all         (no bucket → done)
//!     if the global residue is tiny, most arcs belong to settled vertices
//!     and fusion is on: finish in one fused Bellman-Ford tail  (→ done)
//!     lanes whose target has settled retire     (none left → done)
//!     the lanes whose lowest bucket is k are in it; the rest sit it out;
//!     each drains its frontier ← live entries of its bucket k
//!     while the last agreement says some lane drained a frontier:
//!         per lane, on direction (push / pull), by estimated cost, from
//!         what that agreement says of it: the boundary's sums, or after a
//!         push the records it sent towards k
//!         if every lane pushes: relax light out-edges, one exchange whose
//!               header carries every rank's sums of what it relaxed
//!         else (a lane would pull, or pulled last): open with those sums
//!               as the header of an empty exchange, choose again from the
//!               frontiers' own sums (empty everywhere → skip), then
//!               pushing lanes: relax light out-edges, one exchange
//!               pulling lanes: one frontier broadcast, each scans its
//!               unsettled vertices' light arcs up to the weight that
//!               could still improve them
//!         the last header merged is the next agreement: a lane whose
//!         frontier was empty everywhere waits at its fixpoint, the others
//!         drain their next frontier
//!     (so bucket k ends on one empty exchange, whose header says so)
//!     heavy edges of each lane's S, the vertices bucket k settled, by the
//!     lane's cheaper side:
//!         push: relax every heavy arc out of S, one exchange
//!         pull: each vertex walks its heavy arcs while min d(S) + w < d(v),
//!               fetches d(u) of the sources it met (∞ unless u ∈ S) — one
//!               request/reply pair for all lanes — relaxes
//! ```
//!
//! Graph, Δ, the light rows, options, scratch and run counters belong to
//! the [`Kernel`]; everything that belongs to one search — result,
//! queue, stamps, unsettled counters, frontier, settled set — to a [`Lane`],
//! with what a [`BatchSpec`] adds (target, bound, retirement record). Every
//! superstep body is `for lane in lanes { the solo body }` around one
//! collective of each kind, skipped when the agreed sums say no lane chose
//! it. The kernel is generic over the exchange record ([`Record`]): one
//! lane ships [`Update`] with a zero-byte lane tag — no wire record of a
//! solo run carries a lane — a batch ships [`TaggedUpdate`].
//! (DESIGN.md, "Bucket-epoch driver → Lanes".)
//!
//! A run makes no allreduce outside the driver's boundary agreements and
//! the fused tail's rounds: Δ's statistics were reduced once, with the
//! graph, and a light step's agreement rides on its own exchange.
//!
//! Every exchange — a push's updates, a fetch's requests and replies, a
//! tail round's — and every gather — a light pull's frontier, a retirement
//! epoch's tentatives — goes by the cheaper of the machine's two routes for
//! it (`simnet/collectives.rs`, "Routes"), priced per call from numbers
//! every rank holds: the arcs the pushing lanes are about to relax, the `U_h`
//! a fetch may ask about, the tail's residue, the pulling lanes' frontier
//! sizes, the live lanes with a target. The route changes how bytes travel,
//! never which records arrive or in what per-source order.
//!
//! The host pays for the sweeps the model charges, not for set-up around
//! them. The light prefixes a push relaxes and a light pull scans are the
//! graph's packed [`LightRows`]: 12 bytes an arc in flat arrays of their
//! own, built once for a Δ and kept on the graph, so every later root or
//! serve window at that Δ reads them as they stand (heavy suffixes and a
//! tail round read the graph's rows past them). A light pull's index of the
//! broadcast frontier is kernel scratch: one map a lane, emptied each pull
//! step and never reallocated, as large as the frontier entries it has
//! held, never the global vertex count.
//!
//! Every optimization is toggleable via [`OptConfig`]; with everything off
//! this degenerates to the plain textbook distributed delta-stepping that
//! the ablation experiments measure against.

use crate::bucket::BucketQueue;
use crate::codec::{Record, TaggedUpdate, Update};
use crate::config::{Direction, OptConfig};
use crate::delta::machine_delta;
use crate::epoch::{merge_agreed, run_bucket_epochs, Agreed, BucketKernel, Offer, SuperstepSpan};
use crate::exchange::{exchange_into, shipped_bytes, ExchangeBufs};
use crate::multi::BatchSpec;
use g500_graph::hash::VertexIdBuild;
use g500_graph::{VertexId, Weight, INF_WEIGHT, NO_PARENT};
use g500_partition::{DistShortestPaths, LightRows, LocalGraph, VertexPartition};
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::{Header, RankCtx, Route, TraceCode, Wire};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// What one agreement carries. Of the bucket: frontier size `f`, its light
/// arcs `F`, (from a rank with no frontier, for the step that finds none
/// anywhere) the heavy arcs `H` and nearest distance of what the bucket
/// settled, and what a light push sent towards it ([`Sent`]). Of the queue:
/// live entries, unsettled arcs `U` and `U_h`.
type Sums = ((u64, u64, u64, f32, Sent), (u64, u64, u64));

/// What a light push sent towards the open bucket: every record (or local
/// insertion) that lands in it `s`, and of those the local insertions `c`
/// and their light arcs `L` — a sample of the next frontier's light degree.
type Sent = (u64, u64, u64);

impl Offer for Sums {
    fn merge(&self, other: &Sums, buckets: Ordering) -> Sums {
        let ((a, x), (b, y)) = (self, other);
        let bucket = match buckets {
            Ordering::Less => *a,
            Ordering::Greater => *b,
            Ordering::Equal => {
                let sent = (a.4 .0 + b.4 .0, a.4 .1 + b.4 .1, a.4 .2 + b.4 .2);
                (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3.min(b.3), sent)
            }
        };
        (bucket, (x.0 + y.0, x.1 + y.1, x.2 + y.2))
    }

    fn drained_nothing(&self) -> bool {
        self.0 .0 == 0
    }
}

/// Per-vertex result of the parallel pull scan: arcs examined, and (if the
/// vertex improved) its new `(dist, parent)`.
type PullScan = (u64, Option<(f32, u64)>);

/// A light pull's index of one lane's broadcast frontier: the distance each
/// frontier vertex offers, and the nearest of them.
type FrontierIndex = (HashMap<u64, f32, VertexIdBuild>, f32);

/// Operations one pushed light arc costs end to end: the relaxation, then
/// what [`exchange_into`] and the receiver charge per record — dedup
/// (offered), encode (shipped), decode and apply (received).
pub(crate) const PUSH_OPS_PER_ARC: f64 = 5.0;

/// Wire bytes of one broadcast frontier entry of a lane alone, `(vertex,
/// dist)`: what the light switch prices a pull's broadcast by.
const FRONTIER_ENTRY_BYTES: usize = <(u64, f32) as Wire>::SIZE;

/// Operations one heavy arc costs a fetch at most: scanned, offered to the
/// request dedup, answered by its owner, its reply received, scanned again.
const FETCH_OPS_PER_ARC: f64 = 5.0;

/// With `bucket_fusion` on, the tail is fused once fewer than this many
/// vertices a rank are still queued, machine-wide.
const TAIL_THRESHOLD: u64 = 64;

/// Counters one run of the distributed kernel produces (per rank; counts
/// like `supersteps` are identical on every rank by construction). BFS
/// reports in them too ([`crate::bfs`]): a level is a bucket and a
/// superstep, an edge examined a relaxation, a claim an update.
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
}

simnet::json_fields! {
    SsspRunStats:
    supersteps, buckets, relaxations, updates_sent, updates_offered, push_iterations,
    pull_iterations, heavy_pulls, tail_fused, sim_time_s, compute_s, comm_s,
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
    }
}

/// What every lane reads and none writes.
struct Rows<'a, P: VertexPartition> {
    graph: &'a LocalGraph<P>,
    delta: Weight,
    /// The arcs lighter than Δ, packed: rows are weight-sorted, so they are
    /// each row's prefix and the heavy arcs its suffix in `graph`. Derived
    /// from graph + Δ and kept on the graph across runs, so not
    /// checkpointed.
    light: Arc<LightRows>,
}

impl<P: VertexPartition> Rows<'_, P> {
    /// Light arcs of local vertex `l`: the length of its row's light prefix.
    fn light_arcs(&self, l: usize) -> u64 {
        self.light.degree(l) as u64
    }

    /// Heavy arcs of local vertex `l`: its row past the light prefix.
    fn heavy_arcs(&self, l: usize) -> u64 {
        (self.graph.degree(l) - self.light.degree(l)) as u64
    }
}

/// Where a lane stands in the open bucket.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stand {
    /// Not in it: retired, or its own lowest bucket is a later one.
    Out,
    /// Draining it, one light step at a time.
    Light,
    /// At its light fixpoint, waiting for the heavy phase.
    Heavy,
}

/// What the agreement a light step reads knows of a lane's frontier.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Known {
    /// Its sums: the boundary's, or an opening step's header.
    Exact,
    /// The records the lane's last push sent towards the bucket.
    Sent,
    /// Nothing: the lane pulled last, and a pull's improvements are found
    /// after its broadcast left.
    Nothing,
}

/// What a lane's push relaxes: which rows of which sources.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arcs {
    /// The light prefixes of the frontier drained from open bucket `k`,
    /// each vertex once a superstep, cascading when `cascade` is on.
    Light { k: usize, cascade: bool },
    /// The heavy suffixes of the bucket's settled set, in settling order.
    /// Distances of settled vertices cannot change during the pass (for
    /// settled u, du < (k+1)δ, and any heavy relaxation delivers
    /// nd = du' + w ≥ kδ + δ, which `apply` rejects against
    /// dist < (k+1)δ), so every `du` read is the bucket's final one.
    Heavy,
    /// A fused-tail round: whole rows of the frontier, all edge classes at
    /// once.
    Tail,
}

/// Where a lane's improved vertex waits to be expanded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// In the bucket its new distance falls in.
    Bucket,
    /// In the frontier of the fused tail's next round: rounds are
    /// synchronous (an in-round LIFO cascade is label-correcting, with
    /// worst-case re-relaxation blowup).
    Round,
}

/// What a lane outside the agreement offers: no bucket, nothing in it.
const NO_OFFER: Agreed<Sums> = (u64::MAX, ((0, 0, 0, f32::INFINITY, (0, 0, 0)), (0, 0, 0)));

/// One search: everything that belongs to a source rather than to the
/// graph. The solo entry runs one, the batched entry one per [`BatchSpec`].
pub(crate) struct Lane {
    /// What the spec adds to a plain search: the vertex whose settling
    /// retires the lane, the ceiling above which no distance matters, and
    /// the retirement record — still running (only retirement stops a
    /// lane), when it stopped, and the target's `(distance, parent)` as its
    /// owner last published it: final once the lane has retired or the run
    /// is over.
    target: Option<VertexId>,
    bound: Weight,
    pub(crate) live: bool,
    pub(crate) finished_at: f64,
    pub(crate) answer: (Weight, u64),
    /// Arcs the bound kept a push from relaxing.
    pub(crate) pruned: u64,
    pub(crate) sp: DistShortestPaths,
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
    /// Light and heavy arcs of local vertices no bucket has settled yet:
    /// upper bounds on what a light pull scan and a heavy fetch scan examine.
    unsettled_light: u64,
    unsettled_heavy: u64,
    /// Scratch. The frontier the last offer summarised: at a boundary its
    /// lowest bucket's, left in place; inside a bucket the one drained for
    /// the coming light step.
    frontier: Vec<u32>,
    /// Open-bucket scratch, reset by `open_bucket`: where the lane stands,
    /// the side it takes in the superstep under way, the vertices the
    /// bucket settled (the heavy pass's sources), what the last light round
    /// agreed about them (their heavy arcs `H`, the heavy arcs still
    /// unsettled `U_h`, their minimum distance), what the agreement the
    /// next light step reads knows of its frontier, and the records its
    /// last light push sent towards the bucket (local insertions into it
    /// too).
    stand: Stand,
    pull: bool,
    settled: Vec<u32>,
    heavy_sums: (u64, u64, f32),
    known: Known,
    toward: Sent,
}

/// Working state threaded through the phases: the graph side, the lanes,
/// and what the lanes share — options, run counters, scratch.
pub(crate) struct Kernel<'a, P: VertexPartition, R: Record> {
    rows: Rows<'a, P>,
    opts: OptConfig,
    /// Whether the run may end in the fused tail: a solo run's does, a
    /// batch's never (`crate::multi`).
    tail: bool,
    /// Whether exchanges go by the priced route (every entry point) or all
    /// by the direct one (the tests' reference).
    routed: bool,
    pub(crate) lanes: Vec<Lane>,
    pub(crate) stats: SsspRunStats,
    /// Superstep scratch arenas, reused across the whole run: the exchange
    /// buckets/incoming buffer, the parallel pull scan's result buffer and,
    /// per lane, a light pull's frontier index, emptied every pull step and
    /// never shrunk: it holds as many entries as the largest frontier the
    /// lane pulled from, however many vertices the graph has.
    xbufs: ExchangeBufs<R>,
    pull_scratch: Vec<PullScan>,
    pull_index: Vec<FrontierIndex>,
    /// Open-bucket scratch: the global frontier size summed over the
    /// bucket's light steps and lanes, and the compute/comm clocks at its
    /// start.
    phase_frontier: u64,
    phase_start: (f64, f64),
}

/// Everything live across a superstep boundary is checkpointed: every
/// lane's `dist` and `parent`, then the rest of every lane (its bucket
/// queue, epochs and counters), then the run's counters. The arrays go
/// first because a queue changes length between checkpoints: behind one,
/// a later lane's arrays would shift and its word delta would ship them
/// whole. The scratch (`xbufs`, the scan buffers and frontier index, and
/// the agreement and open-bucket fields) is excluded on purpose — it is
/// fully overwritten before being read, in every superstep, offer or at
/// the next `open_bucket`. No lane count: the lanes were built from the specs
/// before any load, and the solo kernel's checkpoint is one plain lane and
/// nothing else (its size is pinned).
impl<P: VertexPartition, R: Record> Checkpoint for Kernel<'_, P, R> {
    fn save(&self, out: &mut Vec<u8>) {
        for lane in &self.lanes {
            codec::put_slice(out, &lane.sp.dist);
            codec::put_slice(out, &lane.sp.parent);
        }
        for lane in &self.lanes {
            lane.save(out);
        }
        self.stats.save_ckpt(out);
    }

    fn load(&mut self, buf: &[u8]) {
        let pos = &mut 0;
        for lane in &mut self.lanes {
            lane.sp.dist = codec::get_vec(buf, pos);
            lane.sp.parent = codec::get_vec(buf, pos);
        }
        for lane in &mut self.lanes {
            lane.load(buf, pos);
        }
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
    let lane = [BatchSpec::full(root)];
    let mut k = run_kernel::<P, Update>(ctx, graph, &lane, opts, true, true)?;
    Ok((k.lanes.swap_remove(0).sp, k.stats))
}

/// The run itself, one lane a spec, shipping `R`, free to end in the fused
/// tail or (`tail` false) not, its exchanges by the priced route or
/// (`routed` false) all direct; the finished kernel still holds its lanes
/// and counters.
pub(crate) fn run_kernel<'a, P: VertexPartition, R: Record>(
    ctx: &mut RankCtx,
    graph: &'a LocalGraph<P>,
    specs: &[BatchSpec],
    opts: &OptConfig,
    tail: bool,
    routed: bool,
) -> Result<Kernel<'a, P, R>, FaultEscalation> {
    let n_local = graph.local_vertices();
    let start_now = ctx.now();
    let start_stats = ctx.stats().clone();

    // Δ selection, from the statistics assembly reduced with the graph and
    // the machine every rank prices alike: the same Δ everywhere, however
    // many lanes run.
    let delta = opts.delta.unwrap_or_else(|| {
        machine_delta(
            ctx,
            graph.global_vertices(),
            graph.global_arcs(),
            graph.global_weight(),
        )
    });

    let light = graph.light_rows(delta);
    let unsettled = (light.arcs(), graph.local_arcs() as u64 - light.arcs());
    let part = graph.part();
    let lanes = specs
        .iter()
        .map(|spec| {
            let mut lane = Lane::new(spec, n_local, delta, unsettled);
            // Sources go in before the driver takes its epoch-0
            // checkpoint, so a restore can always rewind to a state that
            // already holds them.
            if part.owner(spec.source) == ctx.rank() {
                lane.apply(part.to_local(spec.source), 0.0, spec.source, Wait::Bucket);
            }
            lane
        })
        .collect();
    let mut k = Kernel {
        rows: Rows {
            graph,
            delta,
            light,
        },
        opts: *opts,
        tail,
        routed,
        lanes,
        stats: SsspRunStats::default(),
        xbufs: ExchangeBufs::new(ctx.size()),
        pull_scratch: Vec::new(),
        pull_index: Vec::new(),
        phase_frontier: 0,
        phase_start: (0.0, 0.0),
    };

    run_bucket_epochs(ctx, &mut k)?;

    k.stats.sim_time_s = ctx.now() - start_now;
    k.stats.compute_s = ctx.stats().compute_s - start_stats.compute_s;
    k.stats.comm_s = ctx.stats().comm_s - start_stats.comm_s;
    Ok(k)
}

/// Per-rank cost of each side of a light step, in compute operations: push
/// works 1/P of the frontier's light arcs; pull scans at most 1/P of the
/// unsettled light arcs after every rank has received and indexed the whole
/// frontier, one operation an entry. The pull's fixed cost is its broadcast,
/// [`RankCtx::allgatherv_seconds`] of a block of the frontier's 1/P entries,
/// less the sends and receives the push's exchange would post
/// ([`RankCtx::posting_seconds`]), each on its cheaper route, at
/// `ops_per_sec`. The broadcast's flight stays on the pull's side: a pull
/// step gives up the in-superstep cascade a push step runs, so a pull that
/// only breaks even costs supersteps. Priced as the lane alone would be,
/// from what the agreement says of its frontier — its sums, or after a push
/// the records that push sent towards the bucket ([`Lane::price`]) — a
/// solo record and the machine's routes whichever the run takes: a lane
/// takes the side it takes alone, whatever company it keeps (pull and push
/// can break a distance tie differently).
fn light_pulls(ctx: &RankCtx, opts: &OptConfig, (f_size, f_light, u_l): (u64, u64, u64)) -> bool {
    match opts.direction {
        Direction::Push => false,
        Direction::Pull => true,
        Direction::Hybrid => {
            let p = ctx.size() as f64;
            let block = f_size as f64 / p * FRONTIER_ENTRY_BYTES as f64;
            let broadcast = ctx.allgatherv_seconds(ctx.allgatherv_route(block), block);
            let shipped = shipped_bytes::<Update>(ctx, opts, f_light as f64);
            let posting = ctx.posting_seconds(ctx.alltoallv_route(shipped));
            let fixed = (broadcast - posting) * ctx.compute_model().ops_per_sec;
            let push = f_light as f64 * PUSH_OPS_PER_ARC / p;
            u_l as f64 / p + f_size as f64 + fixed < push
        }
    }
}

/// Bytes a rank ships at most in a fetch's reply over `u_h` unsettled heavy
/// arcs machine-wide: one `f32` for every arc its scan may have asked about.
fn fetch_reply_bytes(ctx: &RankCtx, u_h: u64) -> f64 {
    u_h as f64 / ctx.size() as f64 * <f32 as Wire>::SIZE as f64
}

/// The same for a heavy phase over a settled set `S`: push works 1/P of the
/// `H` heavy arcs out of `S`; a fetch at most 1/P of the `U_h` heavy arcs
/// nothing has settled, plus a reply all-to-all that cannot overlap the
/// request — its sends, receives and latency by the route the reply will
/// take ([`RankCtx::alltoallv_route`] of [`fetch_reply_bytes`]): P−1 of each
/// and one hop direct, G+S−2 and two grouped.
fn heavy_pulls(ctx: &RankCtx, dir: Direction, (h, u_h): (u64, u64)) -> bool {
    match dir {
        Direction::Push => false,
        Direction::Pull => true,
        Direction::Hybrid => {
            let p = ctx.size() as f64;
            let route = ctx.alltoallv_route(fetch_reply_bytes(ctx, u_h));
            let reply = ctx.alltoallv_seconds(route, 0.0);
            let fetch = u_h as f64 * FETCH_OPS_PER_ARC / p;
            fetch + reply * ctx.compute_model().ops_per_sec < h as f64 * PUSH_OPS_PER_ARC / p
        }
    }
}

/// A heavy fetch reads its reply by the request's positions, so owner `o`'s
/// reply must be exactly as long as the request it answers; one that is not
/// leaves as the typed decode error, like any undecodable block.
fn check_fetch_reply<I>(ctx: &RankCtx, want: &[Vec<I>], got: &[Vec<f32>]) {
    const DIST_BYTES: usize = <f32 as Wire>::SIZE;
    for (o, (ids, ds)) in want.iter().zip(got).enumerate() {
        if ds.len() != ids.len() {
            ctx.decode_failure(o, ds.len() * DIST_BYTES, DIST_BYTES);
        }
    }
}

impl<P: VertexPartition, R: Record> BucketKernel for Kernel<'_, P, R> {
    type Offer = Sums;

    fn offer(&mut self) -> Vec<Agreed<Sums>> {
        let rows = &self.rows;
        self.lanes.iter_mut().map(|lane| lane.offer(rows)).collect()
    }

    /// The fused-tail decision, the retirements, then the bucket's opening
    /// for the lanes whose lowest bucket it is.
    fn open_bucket(&mut self, ctx: &mut RankCtx, k: u64, agreed: &mut [Agreed<Sums>]) -> bool {
        // Two conditions gate the fusion: the live residue is tiny AND
        // the vertices holding most of the arcs are settled. The second
        // guard matters: right after bucket 0 the queue is also tiny
        // (the search has barely started), and fusing there would run
        // an unbucketed Bellman-Ford over the entire graph. Arcs settled,
        // not arcs relaxed: a fetch examines few and must not delay this.
        // (The residue is not empty: some rank named bucket `k`.) Over
        // every lane: the tail takes the whole machine out of bucket
        // discipline.
        let (mut active, mut unsettled) = (0, 0);
        for (_, (_, (queued, u_l, u_h))) in agreed.iter() {
            active += queued;
            unsettled += u_l + u_h;
        }
        let arcs = self.rows.graph.global_arcs() * agreed.len() as u64;
        let bulk_done = (arcs - unsettled) * 2 > arcs;
        let fuses = self.tail && self.opts.bucket_fusion;
        if fuses && active < TAIL_THRESHOLD * ctx.size() as u64 && bulk_done {
            // The tail ends with every queue empty and its last round
            // agreed on that, so the run is over without another agreement.
            self.fused_tail(ctx, active);
            self.stats.tail_fused = true;
            return false;
        }
        if !self.retire(ctx, k) {
            return false;
        }
        self.stats.buckets += 1;
        ctx.trace_begin(TraceCode::Bucket, k, 0);
        self.phase_start = (ctx.stats().compute_s, ctx.stats().comm_s);
        self.phase_frontier = 0;
        for (lane, agreed) in self.lanes.iter_mut().zip(agreed.iter_mut()) {
            // A lane whose lowest bucket comes later sits this one out —
            // alone it would not open it — and a lane just retired is out
            // for good; neither's boundary sums are read again, and to the
            // first light step each drained nothing.
            if !lane.live || agreed.0 != k {
                lane.stand = Stand::Out;
                *agreed = NO_OFFER;
                continue;
            }
            lane.stand = Stand::Light;
            lane.known = Known::Exact;
            lane.settled_epoch += 1;
            lane.settled.clear();
            // Make `agreed` the first light step's: that step counts
            // unsettled arcs with its frontier settled, and a bucket's first
            // frontier is all newly settled, so `U` falls by exactly its
            // light arcs.
            lane.collect_frontier(&self.rows, k as usize, true);
            let (bucket, queue) = &mut agreed.1;
            queue.1 -= bucket.1;
        }
        // A lane whose first frontier is empty everywhere (stale entries
        // only) goes straight to the heavy pass.
        for (lane, entry) in self.lanes.iter_mut().zip(agreed.iter()) {
            if lane.stand == Stand::Light {
                lane.drains(entry);
            }
        }
        true
    }

    /// One light-edge iteration over the drained frontiers. Each lane still
    /// draining chooses its direction from what `agreed` knows of its
    /// frontier ([`Known`]): the boundary's sums, or after a push the
    /// records that push sent towards the bucket. The step carries every
    /// rank's sums of the frontiers it relaxes, with the records its pushes
    /// sent, as the header of its exchange (of its broadcast, if no lane
    /// pushes); the merge comes back as the next agreement. A step in which
    /// a lane would pull on a guess, or pulled last (its improvements were
    /// found after its broadcast left), opens with the header on an empty
    /// exchange instead: such a lane then chooses from its frontier's own
    /// sums, or skips the step if its frontier is empty everywhere, and the
    /// pushing lanes' exchange carries the header again with what they
    /// sent. So a pull is never chosen on a guess, and every lane chooses as
    /// it would alone. Each lane that drained something drains its next
    /// frontier for the step after.
    fn light_step(
        &mut self,
        ctx: &mut RankCtx,
        k: u64,
        agreed: &[Agreed<Sums>],
    ) -> Vec<Agreed<Sums>> {
        // The lanes that cannot choose without their frontier's own sums;
        // the others choose as they would alone, whatever company they keep.
        let opts = &self.opts;
        let exact: Vec<bool> = (self.lanes.iter().zip(agreed))
            .map(|(lane, entry)| {
                lane.stand == Stand::Light
                    && match lane.known {
                        Known::Exact => false,
                        Known::Sent => light_pulls(ctx, opts, lane.price(entry)),
                        Known::Nothing => true,
                    }
            })
            .collect();
        let rows = &self.rows;
        let mut offers: Vec<Agreed<Sums>> = self
            .lanes
            .iter()
            .map(|lane| lane.step_offer(rows, k))
            .collect();
        let span = SuperstepSpan::open(ctx, self.stats.supersteps, 0, self.stats.relaxations);
        let opened = exact.contains(&true).then(|| {
            let route = self.route(ctx.alltoallv_route(0.0));
            let empty = vec![Vec::<u8>::new(); ctx.size()];
            let header = Header::new(offers.clone(), merge_agreed::<Sums>);
            ctx.alltoallv_routed(route, empty, header).1
        });
        let (mut pushed_arcs, mut pulled) = (0, 0);
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            let mut entry = &agreed[s];
            if let (Some(sums), true) = (&opened, exact[s]) {
                entry = &sums[s];
                lane.known = Known::Exact;
                if !lane.drains(entry) {
                    continue;
                }
            }
            if lane.stand != Stand::Light {
                continue;
            }
            let (f_size, f_light, u_l) = lane.price(entry);
            lane.pull = light_pulls(ctx, &self.opts, (f_size, f_light, u_l));
            if lane.pull {
                self.stats.pull_iterations += 1;
                pulled += f_size;
                lane.known = Known::Nothing;
            } else {
                self.stats.push_iterations += 1;
                pushed_arcs += f_light;
                lane.known = Known::Sent;
            }
        }
        let pushed = self.stage(ctx, (Stand::Light, k as usize));
        for (offer, lane) in offers.iter_mut().zip(&self.lanes) {
            if lane.acts(Stand::Light, false) {
                offer.1 .0 .4 = lane.toward;
            }
        }
        let header = Header::new(offers, merge_agreed::<Sums>);
        let next = if pushed {
            let next = self.exchange_and_apply(ctx, pushed_arcs as f64, header, Wait::Bucket);
            self.light_pull(ctx, pulled, Header::none());
            next
        } else if let Some(exact) = opened {
            self.light_pull(ctx, pulled, Header::none());
            exact
        } else {
            let next = self.light_pull(ctx, pulled, header);
            next.expect("a step that neither opens nor pushes pulls")
        };
        self.stats.supersteps += 1;
        span.close(ctx, self.stats.supersteps, self.stats.relaxations);
        self.phase_frontier += next.iter().map(|(_, (bucket, _))| bucket.0).sum::<u64>();
        self.follow(k, &next);
        next
    }

    /// The heavy-edge phase (once per settled vertex), each lane by the
    /// side the policy names or, under `Hybrid`, the cheaper; then the
    /// per-bucket records.
    fn close_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        let span = SuperstepSpan::open(ctx, self.stats.supersteps, 1, self.stats.relaxations);
        // What the two sides may ship, from the lanes' agreed sums: the heavy
        // arcs out of the pushing lanes' settled sets, the unsettled heavy
        // arcs the fetching lanes may ask about.
        let (mut settled, mut pushed_arcs, mut fetched_arcs) = (0, 0, 0);
        for lane in self.lanes.iter_mut().filter(|l| l.stand == Stand::Heavy) {
            settled += lane.settled.len() as u64;
            let (h, u_h, _) = lane.heavy_sums;
            lane.pull = heavy_pulls(ctx, self.opts.direction, (h, u_h));
            self.stats.heavy_pulls += u64::from(lane.pull);
            if lane.pull {
                fetched_arcs += u_h;
            } else {
                pushed_arcs += h;
            }
        }
        ctx.trace_count(TraceCode::Settled, settled, k);
        if self.stage(ctx, (Stand::Heavy, k as usize)) {
            self.exchange_and_apply(ctx, pushed_arcs as f64, Header::none(), Wait::Bucket);
        }
        self.heavy_pull(ctx, fetched_arcs);
        self.stats.supersteps += 1;
        span.close(ctx, self.stats.supersteps, self.stats.relaxations);

        if ctx.trace_enabled() {
            let dc = ctx.stats().compute_s - self.phase_start.0;
            let dm = ctx.stats().comm_s - self.phase_start.1;
            ctx.trace_count(TraceCode::BucketFrontier, self.phase_frontier, k);
            ctx.trace_count_f64(TraceCode::BucketCompute, dc, k);
            ctx.trace_count_f64(TraceCode::BucketComm, dm, k);
        }
        // The fused tail (the next boundary's decision) is deliberately
        // outside the bucket span: its rounds carry flavor 2, and the
        // per-bucket counters above exclude it.
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }

    fn abandon_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }
}

impl Lane {
    fn new(spec: &BatchSpec, n_local: usize, delta: Weight, unsettled: (u64, u64)) -> Lane {
        Lane {
            target: spec.target,
            bound: spec.bound,
            live: true,
            finished_at: 0.0,
            answer: (INF_WEIGHT, NO_PARENT),
            pruned: 0,
            sp: DistShortestPaths::unreached(n_local),
            buckets: BucketQueue::new(delta),
            frontier_seen: vec![0; n_local],
            frontier_epoch: 0,
            settled_seen: vec![0; n_local],
            settled_epoch: 0,
            unsettled_light: unsettled.0,
            unsettled_heavy: unsettled.1,
            frontier: Vec::new(),
            stand: Stand::Out,
            pull: false,
            settled: Vec::new(),
            heavy_sums: (0, 0, f32::INFINITY),
            known: Known::Exact,
            toward: (0, 0, 0),
        }
    }

    /// Whether the lane acts in the superstep under way, on this side.
    fn acts(&self, stand: Stand, pull: bool) -> bool {
        self.stand == stand && self.pull == pull
    }

    /// The lane's state past its `dist` and `parent`, which the kernel
    /// saves ahead of every lane's. A plain lane is the search state alone.
    /// What only a spec can make move follows it: a lane with a target
    /// carries its retirement record, a lane with a ceiling its prune
    /// count. The stamp arrays stay out, their epochs in: past a boundary
    /// every stamp is read after a bump of its epoch (a drain, a push, the
    /// tail's entry, a bucket's opening), which no stored stamp can equal,
    /// so a load refills them with 0.
    fn save(&self, out: &mut Vec<u8>) {
        self.buckets.save(out);
        codec::put(out, self.frontier_epoch);
        codec::put(out, self.settled_epoch);
        codec::put(out, self.unsettled_light);
        codec::put(out, self.unsettled_heavy);
        if self.target.is_some() {
            codec::put(out, self.live);
            codec::put(out, self.finished_at);
            codec::put(out, self.answer);
        }
        if self.bound.is_finite() {
            codec::put(out, self.pruned);
        }
    }

    fn load(&mut self, buf: &[u8], pos: &mut usize) {
        self.buckets.load(buf, pos);
        self.frontier_seen.fill(0);
        self.frontier_epoch = codec::get(buf, pos);
        self.settled_seen.fill(0);
        self.settled_epoch = codec::get(buf, pos);
        self.unsettled_light = codec::get(buf, pos);
        self.unsettled_heavy = codec::get(buf, pos);
        if self.target.is_some() {
            self.live = codec::get(buf, pos);
            self.finished_at = codec::get(buf, pos);
            self.answer = codec::get(buf, pos);
        }
        if self.bound.is_finite() {
            self.pruned = codec::get(buf, pos);
        }
    }

    /// The lane's side of a boundary's agreement: its own lowest bucket,
    /// which a boundary neither drains nor settles — whose bucket opens? —
    /// and its queue.
    fn offer<P: VertexPartition>(&mut self, rows: &Rows<P>) -> Agreed<Sums> {
        if !self.live {
            return NO_OFFER;
        }
        let Some(k) = self.buckets.min_bucket() else {
            return (u64::MAX, (NO_OFFER.1 .0, self.queue()));
        };
        self.collect_frontier(rows, k, false);
        (k as u64, (self.frontier_sums(rows, false), self.queue()))
    }

    /// The lane's side of a light step's header: of bucket `k` and the
    /// frontier it drained for the step, if it is still draining it.
    fn step_offer<P: VertexPartition>(&self, rows: &Rows<P>, k: u64) -> Agreed<Sums> {
        if self.stand != Stand::Light {
            return NO_OFFER;
        }
        (k, (self.frontier_sums(rows, true), self.queue()))
    }

    /// Whether the lane, still draining, drained something anywhere by
    /// `entry`; if not, it has reached its light fixpoint and waits for the
    /// heavy pass with what `entry` says of its settled set.
    fn drains(&mut self, &(_, ((f_size, _, h, nearest, _), (_, _, u_h))): &Agreed<Sums>) -> bool {
        if f_size == 0 {
            self.heavy_sums = (h, u_h, nearest);
            self.stand = Stand::Heavy;
        }
        f_size > 0
    }

    /// The frontier size, light arcs and unsettled light arcs the lane's
    /// direction is priced from, by what `entry` knows of its frontier.
    /// After a push, the frontier it relaxed is a poor guess at the one
    /// drained since: the records it sent towards the bucket are a better
    /// one, at the mean light degree of those that stayed on their rank
    /// (the relaxed frontier's, when none did).
    fn price(
        &self,
        &(_, ((f_size, f_light, _, _, (s, c, l)), (_, u_l, _))): &Agreed<Sums>,
    ) -> (u64, u64, u64) {
        match self.known {
            Known::Sent => {
                let (arcs, of) = if c > 0 { (l, c) } else { (f_light, f_size) };
                let scaled = u128::from(arcs) * u128::from(s) / u128::from(of.max(1));
                (s, scaled as u64, u_l)
            }
            Known::Exact | Known::Nothing => (f_size, f_light, u_l),
        }
    }

    /// The drained or counted frontier's size and light arcs. The step that
    /// finds the frontier globally empty closes the settled set, so inside a
    /// bucket a rank with no frontier also sends what the heavy phase must
    /// agree on; a rank with a frontier left knows this step is not that one.
    fn frontier_sums<P: VertexPartition>(
        &self,
        rows: &Rows<P>,
        open: bool,
    ) -> (u64, u64, u64, f32, Sent) {
        let mut bucket = (self.frontier.len() as u64, 0, 0, f32::INFINITY, (0, 0, 0));
        for &v in &self.frontier {
            bucket.1 += rows.light_arcs(v as usize);
        }
        if open && self.frontier.is_empty() {
            for &v in &self.settled {
                bucket.2 += rows.heavy_arcs(v as usize);
                bucket.3 = bucket.3.min(self.sp.dist[v as usize]);
            }
        }
        bucket
    }

    /// Queue size as `close_bucket` left it (the fused tail's trigger) and
    /// the unsettled arcs.
    fn queue(&self) -> (u64, u64, u64) {
        (
            self.buckets.len() as u64,
            self.unsettled_light,
            self.unsettled_heavy,
        )
    }

    /// The live, deduplicated frontier of bucket `k`, into `self.frontier`.
    /// `take` it for a light step: empty the bucket, settle the vertices.
    fn collect_frontier<P: VertexPartition>(&mut self, rows: &Rows<P>, k: usize, take: bool) {
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
                self.settle(rows, v);
            }
            self.frontier = frontier;
        }
    }

    /// The open bucket settles `v`: the one place a vertex joins `settled`,
    /// found by a frontier drain or by the cascade, and so the one place its
    /// arcs leave the unsettled counters. Once per run — a distance only
    /// falls, so no later bucket holds it — hence the exact subtraction.
    fn settle<P: VertexPartition>(&mut self, rows: &Rows<P>, v: u32) {
        let l = v as usize;
        if self.settled_seen[l] != self.settled_epoch {
            debug_assert_eq!(self.settled_seen[l], 0, "settled by two buckets");
            self.settled_seen[l] = self.settled_epoch;
            self.settled.push(v);
            self.unsettled_light -= rows.light_arcs(l);
            self.unsettled_heavy -= rows.heavy_arcs(l);
        }
    }

    /// Apply one incoming or locally generated update to local vertex `l`;
    /// `true` if it improved, and then `l` waits where `wait` says.
    fn apply(&mut self, l: usize, nd: Weight, parent: u64, wait: Wait) -> bool {
        if nd >= self.sp.dist[l] {
            return false;
        }
        self.sp.dist[l] = nd;
        self.sp.parent[l] = parent;
        match wait {
            Wait::Bucket => self.buckets.insert(l as u32, nd),
            Wait::Round if self.frontier_seen[l] != self.frontier_epoch => {
                self.frontier_seen[l] = self.frontier_epoch;
                self.frontier.push(l as u32);
            }
            Wait::Round => {}
        }
        true
    }

    /// Whether the bound rules `nd` out; counted if so. A plain lane's
    /// `INF_WEIGHT` never does.
    fn prunes(&mut self, nd: Weight) -> bool {
        let over = nd > self.bound;
        if over {
            self.pruned += 1;
        }
        over
    }

    /// One push superstep of the lane, staged as lane `tag`: every arc of
    /// `arcs`' rows out of its sources, relaxed in stack order; returns the
    /// arcs relaxed. A light push leaves in `toward` the improvements that
    /// land in the open bucket for a later step; with the cascade on, a
    /// local one that stays there is expanded within this superstep instead
    /// and recorded in `settled`, so the heavy phase covers it too. A tail
    /// round leaves the next round's local part in `self.frontier`.
    fn push<P: VertexPartition, R: Record>(
        &mut self,
        rows: &Rows<P>,
        (me, tag): (usize, u32),
        arcs: Arcs,
        xbufs: &mut ExchangeBufs<R>,
    ) -> u64 {
        let (graph, part) = (rows.graph, rows.graph.part());
        let mut stack = std::mem::take(&mut self.frontier);
        let (open, cascade, wait) = match arcs {
            Arcs::Light { k, cascade } => (Some(k), cascade, Wait::Bucket),
            Arcs::Heavy => {
                debug_assert!(stack.is_empty(), "a lane's light fixpoint has no frontier");
                stack.extend(self.settled.iter().rev());
                (None, false, Wait::Bucket)
            }
            Arcs::Tail => (None, false, Wait::Round),
        };
        self.toward = (0, 0, 0);
        // A light push expands a vertex at most once per superstep; one that
        // improves again waits in bucket `k` for the next iteration, where
        // all ranks share the work. (Re-expanding in LIFO order is
        // label-correcting: one rank can re-relax its slice of the crest
        // bucket many times over while the others wait.) A tail round marks
        // the next round's frontier with the same stamp.
        self.frontier_epoch += 1;
        let stamp = self.frontier_epoch;
        let mut relaxed = 0u64;
        while let Some(u) = stack.pop() {
            let u = u as usize;
            if open.is_some() {
                if self.frontier_seen[u] == stamp {
                    continue;
                }
                self.frontier_seen[u] = stamp;
            }
            let (ts, ws) = match arcs {
                Arcs::Light { .. } => (rows.light.neighbors(u), rows.light.edge_weights(u)),
                Arcs::Heavy => {
                    let light = rows.light.degree(u);
                    (
                        &graph.neighbors(u)[light..],
                        &graph.edge_weights(u)[light..],
                    )
                }
                Arcs::Tail => (graph.neighbors(u), graph.edge_weights(u)),
            };
            let (du, u_global) = (self.sp.dist[u], part.to_global(me, u));
            relaxed += ts.len() as u64;
            for (&v, &w) in ts.iter().zip(ws) {
                let nd = du + w;
                if self.prunes(nd) {
                    continue;
                }
                let owner = part.owner(v);
                let in_k = open.is_some_and(|k| (nd / rows.delta) as usize == k);
                if owner != me {
                    xbufs
                        .bucket_mut(owner)
                        .push(R::pack(tag, (v, nd, u_global)));
                    self.toward.0 += u64::from(in_k);
                    continue;
                }
                let l = part.to_local(v);
                if cascade && in_k && self.frontier_seen[l] != stamp && nd < self.sp.dist[l] {
                    self.sp.dist[l] = nd;
                    self.sp.parent[l] = u_global;
                    self.settle(rows, l as u32);
                    stack.push(l as u32);
                } else if self.apply(l, nd, u_global, wait) && in_k {
                    self.toward.0 += 1;
                    self.toward.1 += 1;
                    self.toward.2 += rows.light_arcs(l);
                }
            }
        }
        // the stack is spent: keep its buffer, unless a tail round has
        // started the next frontier
        if self.frontier.is_empty() {
            self.frontier = stack;
        }
        relaxed
    }

    /// One parallel pull scan of every local vertex's light prefix or
    /// (`heavy`) heavy suffix against sources no nearer than `nearest`;
    /// `source(self, t)` is the distance t offers, `∞` for none. Each vertex
    /// reads only frozen state and its *own* distance slot, so vertices are
    /// independent and the result is the same at any thread count. An arc of
    /// weight w can improve v only while nearest + w < d(v), and matters
    /// only while nearest + w ≤ the lane's bound: the weight-sorted scan
    /// stops at the first arc that fails either, the first bound tightens
    /// as d(v) drops, and a vertex settled earlier stops before its first
    /// arc. Results are applied in vertex order; the arcs examined are
    /// charged, returned, and left per vertex in `scratch`.
    fn pull_scan<P: VertexPartition>(
        &mut self,
        ctx: &mut RankCtx,
        rows: &Rows<P>,
        scratch: &mut Vec<PullScan>,
        (heavy, nearest): (bool, f32),
        source: impl Fn(&Self, u64) -> f32 + Sync,
    ) -> u64 {
        let graph = rows.graph;
        let n_local = graph.local_vertices();
        ctx.trace_begin(TraceCode::TaskWave, n_local as u64, heavy as u64);
        let this = &*self;
        let scan = |l: usize| -> PullScan {
            let (mut scanned, mut dl, mut pl) = (0u64, this.sp.dist[l], u64::MAX);
            let (ts, ws) = if heavy {
                let light = rows.light.degree(l);
                (
                    &graph.neighbors(l)[light..],
                    &graph.edge_weights(l)[light..],
                )
            } else {
                (rows.light.neighbors(l), rows.light.edge_weights(l))
            };
            for (&t, &w) in ts.iter().zip(ws) {
                let least = nearest + w;
                if least >= dl || least > this.bound {
                    break;
                }
                scanned += 1;
                let nd = source(this, t) + w;
                if nd < dl && nd <= this.bound {
                    (dl, pl) = (nd, t);
                }
            }
            (scanned, (pl != u64::MAX).then_some((dl, pl)))
        };
        // every slot is overwritten below, so a resize is all it needs
        scratch.resize(n_local, (0, None));
        let chunk = rayon::fixed_chunk_size(n_local, 256);
        rayon::for_each_chunk_mut(scratch, chunk, |lo, out| {
            for (l, slot) in (lo..).zip(out) {
                *slot = scan(l);
            }
        });

        let mut scanned = 0u64;
        for (l, &(s, upd)) in scratch.iter().enumerate() {
            scanned += s;
            if let Some((dl, pl)) = upd {
                self.apply(l, dl, pl, Wait::Bucket);
            }
        }
        ctx.charge_compute(scanned);
        ctx.trace_end(TraceCode::TaskWave, n_local as u64, heavy as u64);
        scanned
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

    /// The fused tail's entry: everything still queued, each vertex once,
    /// into `self.frontier`.
    fn drain_queue(&mut self) {
        self.frontier_epoch += 1;
        self.frontier.clear();
        for v in self.buckets.drain_all() {
            if self.sp.dist[v as usize].is_finite()
                && self.frontier_seen[v as usize] != self.frontier_epoch
            {
                self.frontier_seen[v as usize] = self.frontier_epoch;
                self.frontier.push(v);
            }
        }
    }
}

/// The lanes acting on one side of the superstep under way, with their
/// indices, in index order: with dedup off a lane's records so arrive in
/// the order they arrive in alone.
fn acting(lanes: &mut [Lane], stand: Stand, pull: bool) -> impl Iterator<Item = (u32, &mut Lane)> {
    let acts = move |(_, lane): &(usize, &mut Lane)| lane.acts(stand, pull);
    let indexed = |(s, lane): (usize, _)| (s as u32, lane);
    lanes.iter_mut().enumerate().filter(acts).map(indexed)
}

impl<P: VertexPartition, R: Record> Kernel<'_, P, R> {
    /// The `(lane, target, dist, parent)` tentatives of the live lanes
    /// whose target this rank owns.
    fn target_tentatives(&self, me: usize) -> Vec<TaggedUpdate> {
        let part = self.rows.graph.part();
        let owned = |(s, lane): (usize, &Lane)| {
            let t = lane.target.filter(|&t| lane.live && part.owner(t) == me)?;
            let l = part.to_local(t);
            Some((s as u32, t, lane.sp.dist[l], lane.sp.parent[l]))
        };
        self.lanes.iter().enumerate().filter_map(owned).collect()
    }

    /// Retirement epoch, while a lane with a target is live: target owners
    /// publish live tentatives — a lane's `answer` from here on — and every
    /// rank applies the identical rule: a target whose tentative bucket lies
    /// below the opening bucket `k` is settled, since any later improvement
    /// would need `nd ≥ kΔ`. A retired lane's slice is frozen and its queue
    /// dropped. (Once the run is over every tentative is final: `k = 0`
    /// retires nobody and leaves every rank the same answers.) `false` when
    /// no lane is left running. Collective; the gather is priced from the
    /// live lanes with a target, a count every rank holds.
    pub(crate) fn retire(&mut self, ctx: &mut RankCtx, k: u64) -> bool {
        let publishing = self
            .lanes
            .iter()
            .filter(|l| l.live && l.target.is_some())
            .count();
        if publishing > 0 {
            let bytes = (publishing * TaggedUpdate::SIZE) as f64 / ctx.size() as f64;
            let route = self.route(ctx.allgatherv_route(bytes));
            let tentatives = self.target_tentatives(ctx.rank());
            for block in ctx.allgatherv_routed(route, &tentatives, Header::none()).0 {
                for (s, _, d, parent) in block {
                    let lane = &mut self.lanes[s as usize];
                    lane.answer = (d, parent);
                    if d.is_finite() && (lane.buckets.bucket_of(d) as u64) < k {
                        lane.live = false;
                        lane.finished_at = ctx.now();
                        lane.buckets = BucketQueue::new(self.rows.delta);
                        ctx.trace_count(TraceCode::QueryRetired, u64::from(s), k);
                    }
                }
            }
        }
        self.lanes.iter().any(|l| l.live)
    }

    /// Each lane still draining bucket `k` reads `agreed`, the agreement on
    /// the frontiers it drained: one whose frontier was globally empty has
    /// reached its light fixpoint and waits for the heavy phase with what
    /// `agreed` says of its settled set; any other drains its next frontier
    /// from the bucket now.
    fn follow(&mut self, k: u64, agreed: &[Agreed<Sums>]) {
        for (lane, entry) in self.lanes.iter_mut().zip(agreed) {
            if lane.stand == Stand::Light && lane.drains(entry) {
                lane.collect_frontier(&self.rows, k as usize, true);
            }
        }
    }

    /// The `priced` route, unless the run was told to keep to the direct.
    fn route(&self, priced: Route) -> Route {
        if self.routed {
            priced
        } else {
            Route::Direct
        }
    }

    /// The route of an exchange of about `records` update records
    /// machine-wide.
    fn exchange_route(&self, ctx: &RankCtx, records: f64) -> Route {
        self.route(ctx.alltoallv_route(shipped_bytes::<R>(ctx, &self.opts, records)))
    }

    /// Ship the staged updates — about `records` of them machine-wide —
    /// behind `header`, and apply what arrives, each record to its lane,
    /// an improvement waiting where `wait` says: the end of every push
    /// superstep. Returns the merged header.
    fn exchange_and_apply<H: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        records: f64,
        header: Header<H>,
        wait: Wait,
    ) -> Vec<H> {
        let route = self.exchange_route(ctx, records);
        let (outcome, merged) = exchange_into(ctx, &mut self.xbufs, &self.opts, route, header);
        self.stats.updates_sent += outcome.records_sent;
        self.stats.updates_offered += outcome.records_offered;
        ctx.charge_compute(self.xbufs.incoming().len() as u64);
        let part = self.rows.graph.part();
        for &record in self.xbufs.incoming() {
            let (s, (v, nd, parent)) = record.unpack();
            self.lanes[s as usize].apply(part.to_local(v), nd, parent, wait);
        }
        merged
    }

    /// The pushing lanes' side of a light step (each relaxes its frontier's
    /// light arcs) or of the heavy phase (every heavy arc out of each settled
    /// set), staged in lane order for one exchange. `false`, on every rank
    /// alike, when the agreed sums put no lane on this side: there is no
    /// exchange to make.
    fn stage(&mut self, ctx: &mut RankCtx, (stand, k): (Stand, usize)) -> bool {
        let cascade = self.opts.bucket_fusion;
        let mut pushed = false;
        for (s, lane) in acting(&mut self.lanes, stand, false) {
            pushed = true;
            // a heavy pass is a task wave over the settled set
            let (arcs, wave) = match stand {
                Stand::Light => (Arcs::Light { k, cascade }, None),
                _ => (Arcs::Heavy, Some(lane.settled.len() as u64)),
            };
            if let Some(n) = wave {
                ctx.trace_begin(TraceCode::TaskWave, n, 1);
            }
            let relaxed = lane.push(&self.rows, (ctx.rank(), s), arcs, &mut self.xbufs);
            ctx.charge_compute(relaxed);
            if let Some(n) = wave {
                ctx.trace_end(TraceCode::TaskWave, n, 1);
            }
            self.stats.relaxations += relaxed;
        }
        pushed
    }

    /// The pulling lanes' light iteration: one broadcast of their
    /// frontiers, then each scans its unsettled adjacency. All improvements
    /// are local — zero point-to-point update traffic. The broadcast goes by
    /// the route priced for `entries`, the pulling lanes' agreed frontier
    /// sizes summed: a rank brings its share of them.
    fn light_pull<H: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        entries: u64,
        header: Header<H>,
    ) -> Option<Vec<H>> {
        let (me, part) = (ctx.rank(), self.rows.graph.part());
        let mut mine: Vec<(R::Tag, u64, f32)> = Vec::new();
        let mut pulled = false;
        for (s, lane) in acting(&mut self.lanes, Stand::Light, true) {
            pulled = true;
            let entry = |&v: &u32| {
                let l = v as usize;
                (R::tag(s), part.to_global(me, l), lane.sp.dist[l])
            };
            mine.extend(lane.frontier.iter().map(entry));
        }
        if !pulled {
            return None;
        }
        let entry = <(R::Tag, u64, f32) as Wire>::SIZE as f64;
        let block = entries as f64 / ctx.size() as f64 * entry;
        let route = self.route(ctx.allgatherv_route(block));
        let (blocks, merged) = ctx.allgatherv_routed(route, &mine, header);
        // Min-merge the per-rank frontier blocks in the (possibly fuzzed)
        // delivery order — the min makes the merge order-free — into each
        // lane's index (kernel scratch, emptied here). The maps are probed
        // once per scanned arc and never iterated: ids the graph made need
        // no SipHash, and the hasher cannot change a result. Each map makes
        // room for its lane's entries up front — a vertex has one owner, so
        // none repeats — and never rehashes while it fills.
        let order = ctx.delivery_order(blocks.len());
        let mut sizes = vec![0; self.lanes.len()];
        for &(tag, ..) in blocks.iter().flatten() {
            sizes[R::lane(tag) as usize] += 1;
        }
        let heard = &mut self.pull_index;
        heard.resize_with(self.lanes.len(), Default::default);
        for ((offers, nearest), n) in heard.iter_mut().zip(sizes) {
            offers.clear();
            offers.reserve(n);
            *nearest = f32::INFINITY;
        }
        for b in order {
            for &(tag, v, d) in &blocks[b] {
                let (offers, nearest) = &mut heard[R::lane(tag) as usize];
                offers.entry(v).and_modify(|e| *e = e.min(d)).or_insert(d);
                *nearest = nearest.min(d);
            }
        }
        ctx.charge_compute(heard.iter().map(|(offers, _)| offers.len() as u64).sum());
        for (s, lane) in acting(&mut self.lanes, Stand::Light, true) {
            let (offers, nearest) = &self.pull_index[s as usize];
            let found = |_: &Lane, t: u64| offers.get(&t).copied().unwrap_or(f32::INFINITY);
            let scratch = &mut self.pull_scratch;
            self.stats.relaxations +=
                lane.pull_scan(ctx, &self.rows, scratch, (false, *nearest), found);
        }
        Some(merged)
    }

    /// The fetching lanes' heavy phase. A lane's `nearest` is the minimum
    /// distance in its `S`, so the scan bound holds for heavy suffixes as it
    /// does for light prefixes. A first scan relaxes nothing and leaves how
    /// far each row lies inside the bound; the remote sources met there go
    /// to their owners as sorted owner-local ids — one request for all
    /// lanes — the owners answer in request order, and a second scan
    /// relaxes. Every candidate a push would win with is examined, in the
    /// same `f32` arithmetic. Request and reply each go by the route priced
    /// for `arcs`, the unsettled heavy arcs the fetching lanes agreed on: a
    /// rank asks about its share of them at most.
    fn heavy_pull(&mut self, ctx: &mut RankCtx, arcs: u64) {
        let (me, rows) = (ctx.rank(), &self.rows);
        let part = rows.graph.part();
        let mut want: Vec<Vec<(R::Tag, u32)>> = vec![Vec::new(); ctx.size()];
        let mut pulled = false;
        for (s, lane) in acting(&mut self.lanes, Stand::Heavy, true) {
            pulled = true;
            let first = (true, lane.heavy_sums.2);
            let nothing = |_: &Lane, _| f32::INFINITY;
            self.stats.relaxations +=
                lane.pull_scan(ctx, rows, &mut self.pull_scratch, first, nothing);
            for (l, &(inside, _)) in self.pull_scratch.iter().enumerate() {
                let lo = rows.light.degree(l);
                for &t in &rows.graph.neighbors(l)[lo..lo + inside as usize] {
                    let owner = part.owner(t);
                    if owner != me {
                        want[owner].push((R::tag(s), part.to_local(t) as u32));
                    }
                }
            }
        }
        if !pulled {
            return;
        }
        ctx.charge_compute(want.iter().map(|ids| ids.len() as u64).sum());
        for ids in &mut want {
            ids.sort_unstable();
            ids.dedup();
        }
        // the reply is an `f32` an id, so the request is the reply's bytes
        // scaled by what an id takes
        let reply_bytes = fetch_reply_bytes(ctx, arcs);
        let per_id = <(R::Tag, u32) as Wire>::SIZE as f64 / <f32 as Wire>::SIZE as f64;
        let (request, reply) = (
            self.route(ctx.alltoallv_route(reply_bytes * per_id)),
            self.route(ctx.alltoallv_route(reply_bytes)),
        );
        let asked = ctx
            .alltoallv_routed(request, want.clone(), Header::none())
            .0;
        ctx.charge_compute(asked.iter().map(|ids| ids.len() as u64).sum());
        let lanes = &self.lanes;
        let answer = |ids: &Vec<(R::Tag, u32)>| {
            let settled =
                |&(tag, u): &(R::Tag, u32)| lanes[R::lane(tag) as usize].settled_dist(u as usize);
            ids.iter().map(settled).collect()
        };
        let replies = asked.iter().map(answer).collect();
        let got: Vec<Vec<f32>> = ctx.alltoallv_routed(reply, replies, Header::none()).0;
        check_fetch_reply(ctx, &want, &got);
        ctx.charge_compute(got.iter().map(|ds| ds.len() as u64).sum());
        for (s, lane) in acting(&mut self.lanes, Stand::Heavy, true) {
            let second = (true, lane.heavy_sums.2);
            let fetched = |lane: &Lane, t: u64| {
                let (owner, u) = (part.owner(t), part.to_local(t));
                if owner == me {
                    return lane.settled_dist(u);
                }
                let at = want[owner].binary_search(&(R::tag(s), u as u32));
                got[owner][at.expect("requested by the first scan")]
            };
            self.stats.relaxations +=
                lane.pull_scan(ctx, rows, &mut self.pull_scratch, second, fetched);
        }
    }

    /// Fused Bellman-Ford tail: once the global residue is tiny, bucket
    /// discipline only adds synchronization — drain everything and relax to
    /// fixpoint, all edge classes at once, every lane in every round. A
    /// round's exchange is priced from its residue — the `queued` vertices
    /// the boundary agreed on, then what the round before left — at the
    /// graph's mean degree.
    fn fused_tail(&mut self, ctx: &mut RankCtx, queued: u64) {
        let (me, graph) = (ctx.rank(), self.rows.graph);
        let mean_degree = graph.global_arcs() as f64 / graph.global_vertices().max(1) as f64;
        let mut residue = queued;
        for lane in &mut self.lanes {
            lane.drain_queue();
        }
        loop {
            let span = SuperstepSpan::open(ctx, self.stats.supersteps, 2, self.stats.relaxations);
            let mut relaxed = 0u64;
            for (s, lane) in self.lanes.iter_mut().enumerate() {
                relaxed += lane.push(&self.rows, (me, s as u32), Arcs::Tail, &mut self.xbufs);
            }
            self.stats.relaxations += relaxed;
            ctx.charge_compute(relaxed);
            let records = residue as f64 * mean_degree;
            self.exchange_and_apply(ctx, records, Header::none(), Wait::Round);
            self.stats.supersteps += 1;
            let next: u64 = self.lanes.iter().map(|l| l.frontier.len() as u64).sum();
            residue = ctx.allreduce_sum(next);
            span.close(ctx, self.stats.supersteps, self.stats.relaxations);
            if residue == 0 {
                break;
            }
        }
        // Buckets were drained; `drain_all` plus direct dist writes keep the
        // queues empty on every rank, which the last round just agreed on.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness, EdgeList, ShortestPaths, WEdge};
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
            (sp.gather(ctx, g.part()), stats)
        });
        rep.results.into_iter().next().expect("at least one rank")
    }

    impl<P: VertexPartition, R: Record> Kernel<'_, P, R> {
        /// The bucket width the run took.
        pub(crate) fn delta(&self) -> Weight {
            self.rows.delta
        }
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
    fn a_gather_leaves_the_next_roots_time_alone() {
        // kernel, slowest, gather, kernel on the same root, as the driver
        // runs roots back to back. Rank 0 leaves the gather last; without
        // its closing barrier the other ranks would start the second run
        // early and count the wait for rank 0 as kernel time.
        let opts = OptConfig::all_on();
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            let g = kron9(ctx);
            let time = |ctx: &mut RankCtx| {
                let (sp, stats) = distributed_delta_stepping(ctx, &g, 0, &opts);
                (ctx.allreduce(stats.sim_time_s, |a, b| a.max(*b)), sp)
            };
            let (first, sp) = time(ctx);
            sp.gather(ctx, g.part());
            (first, time(ctx).0)
        });
        let (first, second) = rep.results[0];
        assert!(
            (second - first).abs() <= 0.005 * first,
            "first run {first} s, second {second} s"
        );
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
            let mine: Vec<u64> = sp
                .dist
                .iter()
                .filter(|d| d.is_finite())
                .map(|&d| bucket(d))
                .collect();
            let mut closed = ctx.allgatherv(&mine).concat();
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
    fn fetch_reply_of_the_wrong_length_is_a_typed_error() {
        use simnet::{FaultEscalation, TransportError};
        // owner 1 was asked about three ids
        let want: Vec<Vec<(u8, u32)>> = vec![vec![], vec![(0, 4), (0, 7), (0, 9)]];
        let reply = |n: usize| {
            let got = vec![vec![], vec![0.5f32; n]];
            Machine::new(MachineConfig::with_ranks(2))
                .try_run(|ctx| check_fetch_reply(ctx, &want, &got))
                .map(|rep| rep.results.len())
        };
        assert_eq!(
            reply(3).ok(),
            Some(2),
            "a reply of the request's length passes"
        );
        for n in [2, 5] {
            match reply(n) {
                Err(FaultEscalation::Transport(TransportError::Decode {
                    src,
                    len,
                    elem_size,
                    ..
                })) => assert_eq!((src, len, elem_size), (1, 4 * n, 4), "{n} answers"),
                other => panic!("{n} answers to 3 ids: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsettled_counters_end_at_the_unreached_vertices_arcs() {
        // The cascade on, the fused tail (which settles nothing) off: every
        // reached vertex went through `settle`, whichever way it was found.
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            let opts = OptConfig::all_on().with_direction(dir);
            let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
                let g = kron9(ctx);
                let k = run_kernel::<_, Update>(ctx, &g, &[BatchSpec::full(0)], &opts, false, true)
                    .expect("no crash");
                let lane = &k.lanes[0];
                let unreached: u64 = (0..g.local_vertices())
                    .filter(|&l| lane.sp.dist[l].is_infinite())
                    .map(|l| g.degree(l) as u64)
                    .sum();
                let left = lane.unsettled_light + lane.unsettled_heavy;
                (left, unreached, k.stats)
            });
            for (left, unreached, stats) in &rep.results {
                assert!(!stats.tail_fused);
                assert_eq!(left, unreached, "{dir:?} {stats:?}");
            }
        }
    }

    /// The counters of a run with its clocks zeroed: what two runs that
    /// did the same work agree on.
    fn work(stats: &SsspRunStats) -> SsspRunStats {
        SsspRunStats {
            sim_time_s: 0.0,
            compute_s: 0.0,
            comm_s: 0.0,
            ..stats.clone()
        }
    }

    fn bits(sp: &DistShortestPaths) -> (Vec<u32>, &[u64]) {
        (sp.dist.iter().map(|d| d.to_bits()).collect(), &sp.parent)
    }

    /// `tests/common`'s `almost_line`: a 220-vertex path with a few heavy
    /// chords, weights jittered from `mix2`.
    fn almost_line() -> (u64, EdgeList) {
        let jitter = |i: u64| g500_graph::hash::to_unit_f64(g500_graph::hash::mix2(0xA11E, i));
        let n = 220u64;
        let path = (0..n - 1).map(|i| WEdge::new(i, i + 1, 0.9 + 0.2 * jitter(i) as f32));
        let chords = (0..n / 20).map(|c| {
            let (a, b) = (jitter(1000 + c) * n as f64, jitter(2000 + c) * n as f64);
            WEdge::new(
                a as u64,
                (b as u64 + 1) % n,
                5.0 + 10.0 * jitter(3000 + c) as f32,
            )
        });
        (n, EdgeList::from_edges(path.chain(chords)))
    }

    /// `tests/common`'s `max_dense_zero`: six zero-weight 8-cliques bridged
    /// in a ring by positive edges and a few zero ones — every distance a
    /// tie.
    fn max_dense_zero() -> (u64, EdgeList) {
        let (clusters, size) = (6u64, 8u64);
        let mut el = EdgeList::new();
        for base in (0..clusters).map(|c| c * size) {
            for a in 0..size {
                for b in a + 1..size {
                    el.push(WEdge::new(base + a, base + b, 0.0));
                }
            }
            let next = (base + size) % (clusters * size);
            el.push(WEdge::new(base + 3, next + 5, 0.25 + base as f32 / 100.0));
            el.push(WEdge::new(
                base + 1,
                next + 2,
                if base % 16 == 0 { 0.0 } else { 0.7 },
            ));
        }
        (clusters * size, el)
    }

    #[test]
    fn one_lane_batch_is_the_solo_kernel() {
        // The batched entry point over one full lane against the solo
        // kernel with the one switch a batch flips (no fused tail): the same
        // distances and the same tree, bit for bit, from the same work
        // counters — supersteps, relaxations, records, directions taken,
        // buckets — on a graph with room to pull
        // and fetch, on one that is all boundaries, and on one where every
        // choice is a tie. Both record types break an exact (target,
        // distance) tie by the one canonical order, deduplicated or sorted
        // for the wire, and shipped raw both arrive in staging order.
        let kron = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 4));
        let graphs = [(512, kron.generate_all()), almost_line(), max_dense_zero()];
        let all_on = OptConfig::all_on();
        let rows = [
            all_on,
            all_on.without_dedup(),
            all_on.without_dedup().without_compression(),
        ];
        for (n, el) in &graphs {
            for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
                for opts in rows.map(|o| o.with_direction(dir)) {
                    let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
                        let m = el.len();
                        let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
                        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                        let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(*n, 4));
                        let lane = [BatchSpec::full(n / 3)];
                        let solo =
                            run_kernel::<_, Update>(ctx, &g, &lane, &opts, false, true).unwrap();
                        let (lanes, stats) =
                            crate::try_batched_delta_stepping(ctx, &g, &lane, &opts).unwrap();
                        let what = format!("n {n} {opts:?}");
                        assert_eq!(bits(&lanes[0].paths), bits(&solo.lanes[0].sp), "{what}");
                        assert_eq!(work(&stats), work(&solo.stats), "{what}");
                        stats
                    });
                    let sent: u64 = rep.results.iter().map(|s| s.updates_sent).sum();
                    assert_eq!(sent == 0, dir == Direction::Pull, "n {n} {dir:?}");
                }
            }
        }
    }

    /// This rank's slice of the scale-9 Kronecker graph the route tests
    /// share, block-partitioned over the machine.
    fn kron9_on(ctx: &mut RankCtx) -> LocalGraph<Block1D> {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 6));
        let el = gen.generate_all();
        let (m, p) = (el.len(), ctx.size());
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
        assemble_local_graph(ctx, mine.into_iter(), Block1D::new(512, p))
    }

    #[test]
    fn priced_route_is_the_direct_route_to_the_bit() {
        // The route moves bytes, never records: with every exchange priced
        // (grouped wherever that is cheaper — most of a scale-9 run on 8
        // ranks, all of it on 16) and with every exchange forced direct, a
        // solo run and a 4-lane batch leave the same distances, the same
        // tree and the same work counters on every rank, under every
        // direction policy and toggle.
        let all_on = OptConfig::all_on();
        let toggles = [
            all_on,
            OptConfig::all_off(),
            all_on.without_coalescing(),
            all_on.without_dedup(),
            all_on.without_compression(),
            all_on.without_fusion(),
        ];
        let batch = [
            BatchSpec::full(5),
            BatchSpec::p2p(300, 33),
            BatchSpec::full(401),
            BatchSpec::p2p(5, 440).with_bound(1.5),
        ];
        for p in [8, 16] {
            Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let g = kron9_on(ctx);
                for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
                    for opts in toggles.map(|o| o.with_direction(dir)) {
                        let what = format!("p {p} {opts:?}");
                        let solo = [BatchSpec::full(5)];
                        let [priced, direct] = [true, false].map(|routed| {
                            run_kernel::<_, Update>(ctx, &g, &solo, &opts, true, routed).unwrap()
                        });
                        assert_eq!(
                            bits(&priced.lanes[0].sp),
                            bits(&direct.lanes[0].sp),
                            "{what}"
                        );
                        assert_eq!(work(&priced.stats), work(&direct.stats), "{what}");
                        let [priced, direct] = [true, false].map(|routed| {
                            run_kernel::<_, TaggedUpdate>(ctx, &g, &batch, &opts, false, routed)
                                .unwrap()
                        });
                        for (a, b) in priced.lanes.iter().zip(&direct.lanes) {
                            assert_eq!(bits(&a.sp), bits(&b.sp), "batch, {what}");
                            assert_eq!((a.answer, a.pruned), (b.answer, b.pruned), "{what}");
                        }
                        assert_eq!(work(&priced.stats), work(&direct.stats), "batch, {what}");
                    }
                }
            });
        }
    }

    #[test]
    fn every_superstep_flavour_takes_the_grouped_route_at_16_ranks() {
        // From rank 0's trace: the grouped hops (subgroup all-to-alls — the
        // 1D kernel has no other) and the direct exchanges inside each
        // superstep span. A fetch is the heavy superstep with two exchanges,
        // request and reply. A pull's broadcast hops are gathers, not
        // all-to-alls (`light_pull_broadcasts_by_the_priced_route`), so they
        // leave these counts alone; the empty all-to-all a pull step opens
        // with carries its header alone, outside any update `Exchange` span,
        // and is counted apart. Δ is the degree rule's, narrow enough to
        // leave heavy arcs: on 32 vertices a rank the machine's price would
        // make every arc light.
        let grouped_by_flavour = |dir: Direction| {
            let opts = OptConfig::all_on().with_direction(dir).with_delta(0.125);
            let rep = Machine::new(MachineConfig::with_ranks(16).traced(true)).run(|ctx| {
                let g = kron9_on(ctx);
                distributed_delta_stepping(ctx, &g, 5, &opts).1
            });
            // [light, heavy push, heavy fetch, tail] supersteps that grouped,
            // and light supersteps whose header went grouped on its own
            let (mut seen, mut headers) = ([0u64; 4], 0u64);
            let (mut flavour, mut direct, mut hops) = (None, 0u64, 0u64);
            let mut updates = false;
            for ev in &rep.traces[0].events {
                match (ev.code, ev.kind) {
                    (TraceCode::Exchange, kind) => updates = kind == simnet::TraceKind::Begin,
                    (TraceCode::Superstep, simnet::TraceKind::Begin) => {
                        (flavour, direct, hops) = (Some(ev.b), 0, 0);
                    }
                    (TraceCode::Superstep, simnet::TraceKind::End) => {
                        let fetch = direct + hops / 2 == 2;
                        let slot = match flavour.take() {
                            Some(0) => 0,
                            Some(1) => 1 + usize::from(fetch),
                            _ => 3,
                        };
                        seen[slot] += u64::from(hops > 0);
                    }
                    (TraceCode::Alltoallv, simnet::TraceKind::Begin) if flavour.is_some() => {
                        if flavour == Some(0) && !updates {
                            headers += u64::from(ev.b != 0);
                        } else if ev.b == 0 {
                            direct += 1;
                        } else {
                            hops += 1;
                        }
                    }
                    _ => {}
                }
            }
            (seen, headers / 2, rep.results[0].clone())
        };
        let ([light, heavy_push, fetch, tail], headers, stats) =
            grouped_by_flavour(Direction::Push);
        assert!(light > 0 && heavy_push > 0 && tail > 0, "{stats:?}");
        assert_eq!((fetch, stats.heavy_pulls, headers), (0, 0, 0));
        let ([light, heavy_push, fetch, _], headers, stats) = grouped_by_flavour(Direction::Pull);
        assert_eq!((light, heavy_push), (0, 0), "a pull ships no updates");
        assert!(fetch > 0 && fetch <= stats.heavy_pulls, "{stats:?}");
        assert!(headers > 0 && headers <= stats.pull_iterations, "{stats:?}");
    }

    #[test]
    fn light_pull_broadcasts_by_the_priced_route() {
        // From rank 0's trace, the gathers inside light supersteps of a
        // pull-only run. On 16 ranks a frontier block of this graph is at
        // most 32 entries, far under the break-even: two subgroup gathers a
        // step (the grid's column and row) and no world one. 7 ranks have no
        // grid: one world gather a step.
        let gathers = |p: usize| {
            let opts = OptConfig::all_on().with_direction(Direction::Pull);
            let rep = Machine::new(MachineConfig::with_ranks(p).traced(true)).run(|ctx| {
                let g = kron9_on(ctx);
                distributed_delta_stepping(ctx, &g, 5, &opts).1
            });
            let (mut light, mut world, mut hops) = (false, 0u64, 0u64);
            for ev in &rep.traces[0].events {
                match (ev.code, ev.kind) {
                    (TraceCode::Superstep, simnet::TraceKind::Begin) => light = ev.b == 0,
                    (TraceCode::Superstep, simnet::TraceKind::End) => light = false,
                    (TraceCode::Allgatherv, simnet::TraceKind::Begin) if light => {
                        if ev.b == 0 {
                            world += 1;
                        } else {
                            hops += 1;
                        }
                    }
                    _ => {}
                }
            }
            (world, hops, rep.results[0].pull_iterations)
        };
        let (world, hops, pulls) = gathers(16);
        assert!(pulls > 0);
        assert_eq!((world, hops), (0, 2 * pulls), "16 ranks");
        let (world, hops, pulls) = gathers(7);
        assert!(pulls > 0);
        assert_eq!((world, hops), (pulls, 0), "7 ranks");
    }

    #[test]
    fn lanes_choose_direction_independently() {
        // K40 (20 vertices a rank, every arc light) and a 64-vertex path in
        // one graph, a lane rooted in each: alone the clique's second
        // frontier pulls and the path never does
        // (`hybrid_uses_both_directions_on_dense_graph`,
        // `hybrid_never_pulls_on_a_long_path`). Together they must do the
        // same — supersteps that both exchange and broadcast — because each
        // decides from its own sums.
        let clique = |i: u64| if i < 20 { i } else { i + 32 };
        let path = |i: u64| if i < 32 { 20 + i } else { 40 + i };
        let mut el = EdgeList::new();
        for e in g500_gen::simple::complete(40, 0.5).iter() {
            el.push(WEdge::new(clique(e.u), clique(e.v), e.w));
        }
        for e in g500_gen::simple::path(64, 0.09).iter() {
            el.push(WEdge::new(path(e.u), path(e.v), e.w));
        }
        let opts = OptConfig::all_on().with_delta(1.0);
        let roots = [clique(0), path(0)];
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            let mine: Vec<_> = el
                .iter()
                .filter(|e| e.u as usize % 2 == ctx.rank())
                .collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(104, 2));
            let lanes = roots.map(BatchSpec::full);
            let k = run_kernel::<_, TaggedUpdate>(ctx, &g, &lanes, &opts, false, true).unwrap();
            let mut alone = Vec::new();
            for (lane, &root) in k.lanes.iter().zip(&roots) {
                let solo = [BatchSpec::full(root)];
                let solo = run_kernel::<_, Update>(ctx, &g, &solo, &opts, false, true).unwrap();
                assert_eq!(bits(&lane.sp), bits(&solo.lanes[0].sp), "root {root}");
                alone.push(solo.stats);
            }
            (k.stats, alone)
        });
        let (batch, alone) = &rep.results[0];
        assert!(alone[0].pull_iterations > 0, "{:?}", alone[0]);
        assert_eq!(alone[1].pull_iterations, 0, "{:?}", alone[1]);
        assert!(batch.push_iterations > 0, "{batch:?}");
        assert_eq!(batch.pull_iterations, alone[0].pull_iterations, "{batch:?}");
        // the lanes shared supersteps instead of queueing for them
        assert!(batch.supersteps < alone[0].supersteps + alone[1].supersteps);
    }

    #[test]
    fn lanes_close_a_bucket_at_different_steps() {
        // Four lanes, each also run alone; light steps a bucket, from rank
        // 0's trace. A bucket the batch opens holds the lanes whose lowest
        // bucket it is, and runs as many light steps as the longest of them
        // takes alone: a lane whose step said it drained nothing waits at
        // its fixpoint while the others go on, and all share the heavy
        // pass. Some bucket must hold two lanes that close it at different
        // steps, and every lane's result is its solo run's to the bit.
        let opts = OptConfig::all_on().with_delta(0.125);
        let specs = [0, 21, 300, 401].map(BatchSpec::full);
        let light_steps = |lanes: &[BatchSpec]| {
            let rep = Machine::new(MachineConfig::with_ranks(4).traced(true)).run(|ctx| {
                let g = kron9(ctx);
                let k = if lanes.len() == 1 {
                    let solo = run_kernel::<_, Update>(ctx, &g, lanes, &opts, false, true);
                    solo.unwrap().lanes
                } else {
                    let batch = run_kernel::<_, TaggedUpdate>(ctx, &g, lanes, &opts, false, true);
                    batch.unwrap().lanes
                };
                k.iter().map(|lane| bits(&lane.sp).0).collect::<Vec<_>>()
            });
            let mut steps: HashMap<u64, u64> = HashMap::new();
            let mut open = 0;
            for ev in &rep.traces[0].events {
                match (ev.code, ev.kind) {
                    (TraceCode::Bucket, simnet::TraceKind::Begin) => {
                        open = ev.a;
                        steps.insert(open, 0);
                    }
                    (TraceCode::Superstep, simnet::TraceKind::Begin) if ev.b == 0 => {
                        *steps.get_mut(&open).expect("inside a bucket") += 1;
                    }
                    _ => {}
                }
            }
            (steps, rep.results)
        };
        let (batch, batch_bits) = light_steps(&specs);
        let alone: Vec<_> = specs.iter().map(|spec| light_steps(&[*spec])).collect();
        let mut closed_apart = false;
        for (&k, &steps) in &batch {
            let each: Vec<u64> = alone
                .iter()
                .filter_map(|(s, _)| s.get(&k).copied())
                .collect();
            assert_eq!(
                Some(steps),
                each.iter().copied().max(),
                "bucket {k}: {each:?}"
            );
            closed_apart |= each.iter().any(|&n| n != steps);
        }
        assert!(closed_apart, "every shared bucket closed on the same step");
        for (s, (_, solo_bits)) in alone.iter().enumerate() {
            for (rank, (b, a)) in batch_bits.iter().zip(solo_bits).enumerate() {
                assert_eq!(b[s], a[0], "lane {s}, rank {rank}");
            }
        }
    }

    #[test]
    fn fused_tail_runs_every_lane() {
        // No entry point builds more than one lane with the tail on, but
        // the kernel is one kernel: the tail drains and relaxes every lane.
        let el = g500_gen::simple::erdos_renyi(64, 320, 13);
        let roots = [3u64, 40, 17];
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(64, 4));
            let lanes = roots.map(BatchSpec::full);
            let k =
                run_kernel::<_, TaggedUpdate>(ctx, &g, &lanes, &OptConfig::all_on(), true, true)
                    .unwrap();
            let gathered: Vec<ShortestPaths> = k
                .lanes
                .iter()
                .map(|lane| lane.sp.gather(ctx, g.part()))
                .collect();
            (k.stats.tail_fused, gathered)
        });
        let (fused, gathered) = &rep.results[0];
        assert!(fused);
        for (sp, &root) in gathered.iter().zip(&roots) {
            assert!(
                sp.distances_match(&exact(&el, 64, root), 1e-4),
                "root {root}"
            );
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
                (sp.gather(ctx, g.part()), stats)
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
            assert_eq!(work(cst), work(fst));
        }
    }
}
