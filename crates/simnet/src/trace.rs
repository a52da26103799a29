//! Virtual-time tracing: structured span/counter events per rank.
//!
//! Every rank owns a private [`TraceBuf`] (lock-free because it is only ever
//! touched by that rank's thread) into which instrumented code records
//! [`TraceEvent`]s stamped with the rank's *virtual* clock. At run end the
//! per-rank buffers are merged deterministically into a [`Trace`], which can
//! be exported as Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! or Perfetto) or condensed into a [`TraceSummary`] table.
//!
//! ## Determinism contract
//!
//! Trace events carry only virtual time and deterministic payloads, never
//! wall-clock or thread identity. Under `SchedMode::Deterministic` the
//! scheduler totally orders delivery and the thread pool has a fixed-chunk
//! contract, so the merged trace — and therefore the rendered summary and
//! the Chrome export — is **byte-identical** across repeated runs and across
//! `G500_THREADS` settings. The golden-trace test suite exploits exactly
//! this property.
//!
//! ## Zero cost when off
//!
//! Recording sites live behind an `Option<Box<TraceBuf>>` in `RankCtx`; when
//! tracing is disabled the option is `None` and every instrumentation call
//! is a branch on a `None` discriminant. Tracing never advances the virtual
//! clock and never touches [`crate::NetStats`], so enabling it cannot change
//! simulation results.

use crate::json::{self, number, ToJson};

/// Whether tracing is enabled for a run. `Copy` so it can live inside
/// [`crate::MachineConfig`]; output paths are handled at the CLI layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record trace events when true.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing enabled.
    pub fn on() -> Self {
        TraceConfig { enabled: true }
    }
}

/// Event flavor: span delimiters or a point counter sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Span opening edge.
    Begin,
    /// Span closing edge (matches the innermost open `Begin` of same code).
    End,
    /// Instantaneous counter sample.
    Count,
}

/// Declares [`TraceCode`] from one table of `(doc, variant = number,
/// name)` rows, with `ALL_CODES` in row order and [`TraceCode::name`].
macro_rules! trace_codes {
    ($($(#[$doc:meta])* $code:ident = $num:literal, $name:literal;)+) => {
        /// What a trace event describes. Span codes delimit regions of
        /// virtual time; counter codes carry a value in `a` (u64, or f64
        /// bits for the `*Compute`/`*Comm` seconds counters).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u16)]
        pub enum TraceCode {
            $($(#[$doc])* $code = $num,)+
        }

        /// All codes, in declaration order (the summary's span table order).
        const ALL_CODES: &[TraceCode] = &[$(TraceCode::$code),+];

        impl TraceCode {
            /// Stable kebab-case name (used in Chrome exports and summaries).
            pub fn name(self) -> &'static str {
                match self {
                    $(TraceCode::$code => $name,)+
                }
            }
        }
    };
}

trace_codes! {
    /// Graph construction + distribution (span; driver level).
    Build = 0, "build";
    /// One SSSP/BFS root run, the kernel alone (span; `a` = root index).
    RootRun = 1, "root-run";
    /// One delta-stepping bucket (span; `a` = bucket index).
    Bucket = 2, "bucket";
    /// One superstep / relaxation round (span; `b`: 0 light, 1 heavy,
    /// 2 fused tail).
    Superstep = 3, "superstep";
    /// One update exchange (span; `a` = records offered).
    Exchange = 4, "exchange";
    /// One parallel task wave on the pool (span; `a` = item count).
    TaskWave = 5, "task-wave";
    /// Broadcast from root (collective span).
    Bcast = 7, "bcast";
    /// Allreduce (collective span).
    Allreduce = 8, "allreduce";
    /// Barrier (collective span).
    Barrier = 9, "barrier";
    /// Variable allgather (collective span).
    Allgatherv = 10, "allgatherv";
    /// Personalized all-to-all (collective span).
    Alltoallv = 11, "alltoallv";
    /// Variable gather into rank 0 (collective span).
    Gatherv = 12, "gatherv";
    /// One admission-windowed query batch through the serving engine
    /// (span; `a` = batch ordinal, `b` = lane width).
    QueryBatch = 15, "query-batch";
    /// One superstep-boundary checkpoint write (span; `a` = snapshot bytes,
    /// `b` = checkpoint epoch).
    CheckpointWrite = 16, "checkpoint-write";
    /// One rollback to the last checkpoint after an agreed crash verdict
    /// (span; `a` = crashed-rank count, `b` = checkpoint epoch restored to).
    Restore = 17, "restore";
    /// Re-execution of supersteps lost to a rollback, from the restored
    /// epoch until the pre-crash epoch is re-reached (span; `a` = restored
    /// epoch, `b` = epoch being replayed toward).
    Replay = 18, "replay";
    /// Edge relaxations performed this superstep (counter).
    Relaxations = 100, "relaxations";
    /// Vertices settled so far in the current bucket (counter).
    Settled = 101, "settled";
    /// Update records sent by one exchange (counter).
    UpdatesSent = 102, "updates-sent";
    /// Update records received by one exchange (counter).
    UpdatesReceived = 103, "updates-received";
    /// One reliable-transport retransmission (counter; `a` = frame seq,
    /// `b` = attempt).
    Retransmit = 104, "retransmit";
    /// One retransmit-timer expiry (counter; `a` = frame seq,
    /// `b` = attempt).
    Timeout = 105, "timeout";
    /// Virtual compute seconds accrued during the superstep just ended
    /// (counter; `a` = f64 bits).
    SuperstepCompute = 106, "superstep-compute";
    /// Virtual communication seconds accrued during the superstep just
    /// ended (counter; `a` = f64 bits).
    SuperstepComm = 107, "superstep-comm";
    /// Global frontier size of a bucket (counter; `a` = size,
    /// `b` = bucket index).
    BucketFrontier = 108, "bucket-frontier";
    /// Virtual compute seconds accrued over a bucket (counter;
    /// `a` = f64 bits, `b` = bucket index).
    BucketCompute = 109, "bucket-compute";
    /// Virtual communication seconds accrued over a bucket (counter;
    /// `a` = f64 bits, `b` = bucket index).
    BucketComm = 110, "bucket-comm";
    /// One query admitted into a batch (counter; `a` = query ordinal in
    /// the stream, `b` = 0 lane run / 1 cache hit).
    QueryAdmitted = 111, "query-admitted";
    /// One point-to-point lane retired early (counter; `a` = query
    /// ordinal, `b` = bucket epoch at retirement).
    QueryRetired = 112, "query-retired";
    /// One query shed by the serving engine after recovery failed or a
    /// deadline blew (counter; `a` = query ordinal, `b` = 0 kernel
    /// failure / 1 deadline).
    QueryShed = 113, "query-shed";
}

impl TraceCode {
    /// The code numbered `x`, if any.
    pub fn from_u16(x: u16) -> Option<TraceCode> {
        ALL_CODES.iter().copied().find(|c| *c as u16 == x)
    }

    /// True for span codes (delimited by Begin/End pairs).
    pub fn is_span(self) -> bool {
        (self as u16) < 100
    }

    /// True for collective-operation span codes.
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            TraceCode::Bcast
                | TraceCode::Allreduce
                | TraceCode::Barrier
                | TraceCode::Allgatherv
                | TraceCode::Alltoallv
                | TraceCode::Gatherv
        )
    }
}

/// One recorded event: a span edge or counter sample at a virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time in seconds (the recording rank's clock).
    pub t_s: f64,
    /// Span edge or counter sample.
    pub kind: TraceKind,
    /// What the event describes.
    pub code: TraceCode,
    /// First payload word (counter value, f64 bits for seconds counters).
    pub a: u64,
    /// Second payload word (bucket index, attempt number, flavor, …).
    pub b: u64,
}

impl TraceEvent {
    /// Interpret `a` as f64 bits (seconds counters).
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.a)
    }
}

/// Per-rank event buffer. Owned by exactly one rank thread, so recording
/// is lock-free; buffers are handed back to the machine at rank exit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBuf {
    /// Owning rank.
    pub rank: u32,
    /// Events in recording order (per-rank virtual time is monotone).
    pub events: Vec<TraceEvent>,
}

impl TraceBuf {
    /// Empty buffer for `rank`.
    pub fn new(rank: usize) -> TraceBuf {
        TraceBuf {
            rank: rank as u32,
            events: Vec::new(),
        }
    }

    /// Record one event at virtual time `t_s`.
    pub fn record(&mut self, t_s: f64, kind: TraceKind, code: TraceCode, a: u64, b: u64) {
        self.events.push(TraceEvent {
            t_s,
            kind,
            code,
            a,
            b,
        });
    }
}

/// A merged, totally ordered trace across all ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Number of ranks that contributed buffers.
    pub ranks: u32,
    /// `(rank, event)` pairs ordered by `(virtual time, rank, per-rank
    /// sequence)` — a deterministic total order because virtual times are
    /// non-negative and finite and each rank's clock is monotone.
    pub events: Vec<(u32, TraceEvent)>,
}

impl Trace {
    /// Deterministically merge per-rank buffers.
    pub fn merge(bufs: Vec<TraceBuf>) -> Trace {
        let ranks = bufs.len() as u32;
        let mut tagged: Vec<(u64, u32, u64, TraceEvent)> = Vec::new();
        for buf in bufs {
            for (idx, ev) in buf.events.into_iter().enumerate() {
                tagged.push((ev.t_s.to_bits(), buf.rank, idx as u64, ev));
            }
        }
        // Non-negative finite f64 bit patterns order the same as the values,
        // so sorting on bits gives the numeric order without NaN hazards.
        tagged.sort_unstable_by_key(|&(t, r, i, _)| (t, r, i));
        Trace {
            ranks,
            events: tagged.into_iter().map(|(_, r, _, ev)| (r, ev)).collect(),
        }
    }

    /// Export as Chrome `trace_event` JSON (object format, `traceEvents`
    /// array). Spans map to `ph:"B"`/`ph:"E"`, counters to thread-scoped
    /// instants (`ph:"i"`, `s:"t"`). `pid` is 0, `tid` is the rank, and
    /// `ts` is virtual microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        json::object(&mut out, |doc| {
            doc.array("traceEvents", |evs| {
                for rank in 0..self.ranks {
                    evs.object(|e| {
                        e.field("name", "thread_name")
                            .field("ph", "M")
                            .field("pid", 0u32)
                            .field("tid", rank)
                            .object("args", |a| {
                                a.field("name", format!("rank {rank}"));
                            });
                    });
                }
                for (rank, ev) in &self.events {
                    let ph = match ev.kind {
                        TraceKind::Begin => "B",
                        TraceKind::End => "E",
                        TraceKind::Count => "i",
                    };
                    evs.object(|e| {
                        e.field("name", ev.code.name()).field("ph", ph);
                        if ev.kind == TraceKind::Count {
                            e.field("s", "t");
                        }
                        e.field("pid", 0u32)
                            .field("tid", *rank)
                            .field("ts", ev.t_s * 1e6);
                        if ev.kind != TraceKind::End {
                            e.object("args", |a| {
                                a.field("a", ev.a).field("b", ev.b);
                            });
                        }
                    });
                }
            });
        });
        out
    }

    /// Condense the trace into the summary tables.
    pub fn summary(&self) -> TraceSummary {
        summarize(self)
    }
}

/// Aggregate row for one span code.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    /// Span code.
    pub code: TraceCode,
    /// Completed Begin/End pairs across all ranks.
    pub count: u64,
    /// Total inclusive virtual seconds across all ranks.
    pub total_s: f64,
}

/// Aggregate row for one superstep (matched across ranks by per-rank
/// occurrence order, which is identical on every rank).
#[derive(Clone, Debug, PartialEq)]
pub struct SuperstepRow {
    /// Occurrence index of the superstep within the run.
    pub index: u64,
    /// Flavor: 0 light, 1 heavy, 2 fused tail.
    pub flavor: u64,
    /// Maximum span duration over ranks (the superstep's critical path).
    pub span_s: f64,
    /// Summed per-rank compute seconds within the superstep.
    pub compute_s: f64,
    /// Summed per-rank communication seconds within the superstep.
    pub comm_s: f64,
    /// Summed per-rank idle remainder `max(0, span − compute − comm)`.
    pub wait_s: f64,
}

/// Aggregate row for one delta-stepping bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketRow {
    /// Bucket index.
    pub bucket: u64,
    /// Global frontier size (max over ranks — the value is an allreduced
    /// global, so every rank reports the same number).
    pub frontier: u64,
    /// Summed per-rank compute seconds in the bucket.
    pub compute_s: f64,
    /// Summed per-rank communication seconds in the bucket.
    pub comm_s: f64,
}

/// Compact roll-up of a merged trace: per-superstep compute/comm/wait
/// split, per-bucket totals, span table, and top collectives.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total merged events.
    pub events: u64,
    /// Ranks that contributed.
    pub ranks: u32,
    /// Per-span-code aggregate rows (declaration order, only codes seen).
    pub spans: Vec<SpanRow>,
    /// Matched superstep rows in run order.
    pub supersteps: Vec<SuperstepRow>,
    /// Bucket rows in bucket order.
    pub buckets: Vec<BucketRow>,
    /// Total retransmit events.
    pub retransmits: u64,
    /// Total timeout events.
    pub timeouts: u64,
    /// Top collectives by total inclusive virtual time (at most 5).
    pub top_collectives: Vec<SpanRow>,
}

fn summarize(trace: &Trace) -> TraceSummary {
    use std::collections::BTreeMap;
    let nranks = trace.ranks as usize;
    // Per-rank event streams in per-rank order (merge preserved it).
    let mut per_rank: Vec<Vec<&TraceEvent>> = vec![Vec::new(); nranks.max(1)];
    for (rank, ev) in &trace.events {
        let r = *rank as usize;
        if r < per_rank.len() {
            per_rank[r].push(ev);
        }
    }

    // Span table: per (rank, code) begin stacks -> inclusive totals.
    let mut span_count: BTreeMap<TraceCode, u64> = BTreeMap::new();
    let mut span_total: BTreeMap<TraceCode, f64> = BTreeMap::new();
    // Per-rank superstep occurrences: (duration, flavor) in order.
    let mut steps: Vec<Vec<(f64, u64)>> = vec![Vec::new(); nranks.max(1)];
    // Per-rank superstep compute/comm samples in order.
    let mut step_compute: Vec<Vec<f64>> = vec![Vec::new(); nranks.max(1)];
    let mut step_comm: Vec<Vec<f64>> = vec![Vec::new(); nranks.max(1)];
    // Bucket accumulators keyed by bucket index.
    let mut bucket_frontier: BTreeMap<u64, u64> = BTreeMap::new();
    let mut bucket_compute: BTreeMap<u64, f64> = BTreeMap::new();
    let mut bucket_comm: BTreeMap<u64, f64> = BTreeMap::new();
    let mut retransmits = 0u64;
    let mut timeouts = 0u64;

    for (r, evs) in per_rank.iter().enumerate() {
        let mut stacks: BTreeMap<TraceCode, Vec<f64>> = BTreeMap::new();
        for ev in evs {
            match ev.kind {
                TraceKind::Begin => stacks.entry(ev.code).or_default().push(ev.t_s),
                TraceKind::End => {
                    if let Some(t0) = stacks.entry(ev.code).or_default().pop() {
                        let dur = (ev.t_s - t0).max(0.0);
                        *span_count.entry(ev.code).or_insert(0) += 1;
                        *span_total.entry(ev.code).or_insert(0.0) += dur;
                        if ev.code == TraceCode::Superstep {
                            steps[r].push((dur, ev.b));
                        }
                    }
                }
                TraceKind::Count => match ev.code {
                    TraceCode::Retransmit => retransmits += 1,
                    TraceCode::Timeout => timeouts += 1,
                    TraceCode::SuperstepCompute => step_compute[r].push(ev.value_f64()),
                    TraceCode::SuperstepComm => step_comm[r].push(ev.value_f64()),
                    TraceCode::BucketFrontier => {
                        let e = bucket_frontier.entry(ev.b).or_insert(0);
                        *e = (*e).max(ev.a);
                    }
                    TraceCode::BucketCompute => {
                        *bucket_compute.entry(ev.b).or_insert(0.0) += ev.value_f64();
                    }
                    TraceCode::BucketComm => {
                        *bucket_comm.entry(ev.b).or_insert(0.0) += ev.value_f64();
                    }
                    _ => {}
                },
            }
        }
    }

    let spans: Vec<SpanRow> = ALL_CODES
        .iter()
        .filter_map(|&code| {
            span_count.get(&code).map(|&count| SpanRow {
                code,
                count,
                total_s: *span_total.get(&code).unwrap_or(&0.0),
            })
        })
        .collect();

    // Superstep rows: every rank executes the same superstep sequence, so
    // occurrence i on each rank is the same global superstep.
    let nsteps = steps.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut supersteps = Vec::with_capacity(nsteps);
    for i in 0..nsteps {
        let mut span_s = 0.0f64;
        let mut flavor = 0u64;
        let mut compute_s = 0.0f64;
        let mut comm_s = 0.0f64;
        let mut wait_s = 0.0f64;
        for r in 0..nranks.max(1) {
            if let Some(&(dur, fl)) = steps[r].get(i) {
                span_s = span_s.max(dur);
                flavor = fl;
                let comp = step_compute[r].get(i).copied().unwrap_or(0.0);
                let comm = step_comm[r].get(i).copied().unwrap_or(0.0);
                compute_s += comp;
                comm_s += comm;
                wait_s += (dur - comp - comm).max(0.0);
            }
        }
        supersteps.push(SuperstepRow {
            index: i as u64,
            flavor,
            span_s,
            compute_s,
            comm_s,
            wait_s,
        });
    }

    let buckets: Vec<BucketRow> = bucket_frontier
        .keys()
        .chain(bucket_compute.keys())
        .chain(bucket_comm.keys())
        .copied()
        .collect::<std::collections::BTreeSet<u64>>()
        .into_iter()
        .map(|bucket| BucketRow {
            bucket,
            frontier: bucket_frontier.get(&bucket).copied().unwrap_or(0),
            compute_s: bucket_compute.get(&bucket).copied().unwrap_or(0.0),
            comm_s: bucket_comm.get(&bucket).copied().unwrap_or(0.0),
        })
        .collect();

    let mut top_collectives: Vec<SpanRow> = spans
        .iter()
        .filter(|row| row.code.is_collective())
        .cloned()
        .collect();
    top_collectives.sort_by(|x, y| {
        y.total_s
            .total_cmp(&x.total_s)
            .then_with(|| (x.code as u16).cmp(&(y.code as u16)))
    });
    top_collectives.truncate(5);

    TraceSummary {
        events: trace.events.len() as u64,
        ranks: trace.ranks,
        spans,
        supersteps,
        buckets,
        retransmits,
        timeouts,
        top_collectives,
    }
}

impl TraceSummary {
    /// Render as an aligned text block (virtual-time only, so the output is
    /// identical at any thread count — the golden-trace files store exactly
    /// this text).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("trace summary\n");
        s.push_str(&format!("  events            : {}\n", self.events));
        s.push_str(&format!("  ranks             : {}\n", self.ranks));
        s.push_str(&format!(
            "  retransmits       : {}   timeouts: {}\n",
            self.retransmits, self.timeouts
        ));
        if !self.spans.is_empty() {
            s.push_str("  spans (count, total virtual s):\n");
            for row in &self.spans {
                s.push_str(&format!(
                    "    {:<18} count={:<8} total_s={}\n",
                    row.code.name(),
                    row.count,
                    number(row.total_s)
                ));
            }
        }
        if !self.supersteps.is_empty() {
            s.push_str("  supersteps (flavor 0=light 1=heavy 2=tail):\n");
            let head = 8.min(self.supersteps.len());
            for row in &self.supersteps[..head] {
                s.push_str(&format!(
                    "    step {:<4} flavor={} span_s={} compute_s={} comm_s={} wait_s={}\n",
                    row.index,
                    row.flavor,
                    number(row.span_s),
                    number(row.compute_s),
                    number(row.comm_s),
                    number(row.wait_s)
                ));
            }
            if self.supersteps.len() > head {
                let rest = &self.supersteps[head..];
                let span: f64 = rest.iter().map(|r| r.span_s).sum();
                let comp: f64 = rest.iter().map(|r| r.compute_s).sum();
                let comm: f64 = rest.iter().map(|r| r.comm_s).sum();
                let wait: f64 = rest.iter().map(|r| r.wait_s).sum();
                s.push_str(&format!(
                    "    +{} more: span_s={} compute_s={} comm_s={} wait_s={}\n",
                    rest.len(),
                    number(span),
                    number(comp),
                    number(comm),
                    number(wait)
                ));
            }
        }
        if !self.buckets.is_empty() {
            s.push_str("  buckets:\n");
            let head = 12.min(self.buckets.len());
            for row in &self.buckets[..head] {
                s.push_str(&format!(
                    "    bucket {:<4} frontier={:<8} compute_s={} comm_s={}\n",
                    row.bucket,
                    row.frontier,
                    number(row.compute_s),
                    number(row.comm_s)
                ));
            }
            if self.buckets.len() > head {
                let rest = &self.buckets[head..];
                let fr: u64 = rest.iter().map(|r| r.frontier).sum();
                let comp: f64 = rest.iter().map(|r| r.compute_s).sum();
                let comm: f64 = rest.iter().map(|r| r.comm_s).sum();
                s.push_str(&format!(
                    "    +{} more: frontier={} compute_s={} comm_s={}\n",
                    rest.len(),
                    fr,
                    number(comp),
                    number(comm)
                ));
            }
        }
        if !self.top_collectives.is_empty() {
            s.push_str("  top collectives by inclusive virtual time:\n");
            for row in &self.top_collectives {
                s.push_str(&format!(
                    "    {:<18} count={:<8} total_s={}\n",
                    row.code.name(),
                    row.count,
                    number(row.total_s)
                ));
            }
        }
        s
    }
}

impl ToJson for SpanRow {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("name", self.code.name())
                .field("count", self.count)
                .field("total_s", self.total_s);
        });
    }
}

crate::json_fields! {
    SuperstepRow:
    index, flavor, span_s, compute_s, comm_s, wait_s,
}

crate::json_fields! {
    BucketRow:
    bucket, frontier, compute_s, comm_s,
}

crate::json_fields! {
    TraceSummary:
    events, ranks, retransmits, timeouts, spans, supersteps, buckets, top_collectives,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_time_then_rank() {
        let mut b0 = TraceBuf::new(0);
        b0.record(2.0, TraceKind::Count, TraceCode::Relaxations, 1, 0);
        let mut b1 = TraceBuf::new(1);
        b1.record(1.0, TraceKind::Count, TraceCode::Relaxations, 2, 0);
        b1.record(2.0, TraceKind::Count, TraceCode::Relaxations, 3, 0);
        let t = Trace::merge(vec![b0, b1]);
        assert_eq!(t.ranks, 2);
        let order: Vec<(u32, u64)> = t.events.iter().map(|(r, e)| (*r, e.a)).collect();
        assert_eq!(order, vec![(1, 2), (0, 1), (1, 3)]);
    }

    #[test]
    fn summary_matches_simple_trace() {
        let mut b = TraceBuf::new(0);
        b.record(0.0, TraceKind::Begin, TraceCode::Superstep, 0, 0);
        b.record(1.0, TraceKind::End, TraceCode::Superstep, 0, 0);
        b.record(
            1.0,
            TraceKind::Count,
            TraceCode::SuperstepCompute,
            0.25f64.to_bits(),
            0,
        );
        b.record(
            1.0,
            TraceKind::Count,
            TraceCode::SuperstepComm,
            0.5f64.to_bits(),
            0,
        );
        b.record(1.0, TraceKind::Count, TraceCode::BucketFrontier, 17, 4);
        b.record(1.5, TraceKind::Count, TraceCode::Timeout, 0, 1);
        let sum = Trace::merge(vec![b]).summary();
        assert_eq!(sum.supersteps.len(), 1);
        let row = &sum.supersteps[0];
        assert!((row.span_s - 1.0).abs() < 1e-12);
        assert!((row.compute_s - 0.25).abs() < 1e-12);
        assert!((row.comm_s - 0.5).abs() < 1e-12);
        assert!((row.wait_s - 0.25).abs() < 1e-12);
        assert_eq!(sum.buckets.len(), 1);
        assert_eq!(sum.buckets[0].bucket, 4);
        assert_eq!(sum.buckets[0].frontier, 17);
        assert_eq!(sum.timeouts, 1);
        assert_eq!(sum.retransmits, 0);
    }

    #[test]
    fn chrome_json_has_span_edges() {
        let mut b = TraceBuf::new(0);
        b.record(0.0, TraceKind::Begin, TraceCode::Allreduce, 1, 0);
        b.record(0.0005, TraceKind::Count, TraceCode::Relaxations, 7, 3);
        b.record(0.001, TraceKind::End, TraceCode::Allreduce, 1, 0);
        let j = Trace::merge(vec![b]).to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.contains("\"ph\":\"B\""), "{j}");
        assert!(j.contains("\"ph\":\"E\""), "{j}");
        assert!(j.contains("\"name\":\"allreduce\""), "{j}");
        assert!(j.contains("\"ts\":1000"), "{j}");
        assert!(j.ends_with("]}"), "{j}");
        let doc = json::parse(&j).expect("Chrome export parses");
        let evs = doc.get("traceEvents").and_then(json::Value::as_array);
        let ph: Vec<&str> = evs
            .unwrap()
            .iter()
            .map(|e| e.get("ph").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(ph, ["M", "B", "i", "E"]);
        let counter = &evs.unwrap()[2];
        assert_eq!(counter.get("s").and_then(json::Value::as_str), Some("t"));
        let b = counter.get("args").and_then(|a| a.get("b"));
        assert_eq!(b.and_then(json::Value::as_u64), Some(3));
    }

    /// Every field of every merged event, `t_s` as its bits.
    fn fields(t: &Trace) -> Vec<(u32, u64, TraceKind, TraceCode, u64, u64)> {
        let f = |(r, e): &(u32, TraceEvent)| (*r, e.t_s.to_bits(), e.kind, e.code, e.a, e.b);
        t.events.iter().map(f).collect()
    }

    #[test]
    fn to_bytes_is_stable_across_rebuilds() {
        let mut b0 = TraceBuf::new(0);
        b0.record(0.5, TraceKind::Count, TraceCode::Settled, 9, 0);
        let t1 = Trace::merge(vec![b0.clone()]);
        let t2 = Trace::merge(vec![b0]);
        assert_eq!((t1.ranks, fields(&t1)), (t2.ranks, fields(&t2)));
    }
}
