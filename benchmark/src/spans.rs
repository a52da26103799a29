//! Host-clock spans recorded by the harness around every call into a layer.
//!
//! A span is (name, start, end, parent, op id). Spans stay in memory until
//! the run ends. Inside the simulated machine only rank 0 records, and each
//! span is closed behind a host-side rendezvous of all rank threads, so its
//! end is the moment the *slowest* rank left the layer — without touching the
//! machine's virtual clock or its counters.

use crate::json::Json;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `partition.assemble`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// `u64::MAX` while the span is open.
    pub end_ns: u64,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<SpanId>,
    /// Operation id shared by the spans of one root / window (0 otherwise).
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log, shared by the harness thread and rank 0.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent,
            op,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned by a panic")[id].end_ns = end_ns;
    }

    /// Time `f` as a span on the calling thread.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span log poisoned by a panic")
    }
}

/// A reusable rendezvous of the machine's rank threads on the *host* clock.
/// `std::sync::Barrier` would do, but a rank that dies (a transport
/// escalation unwinds its thread) would leave the others parked forever; this
/// one gives up after a deadline so the run fails instead of hanging.
pub struct HostBarrier {
    parties: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(120);

impl HostBarrier {
    pub fn new(parties: usize) -> Self {
        HostBarrier {
            parties,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    pub fn wait(&self) {
        let mut st = self.state.lock().expect("a rank panicked at a rendezvous");
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.parties {
            *st = (0, gen + 1);
            self.cv.notify_all();
            return;
        }
        let deadline = Instant::now() + RENDEZVOUS_DEADLINE;
        while st.1 == gen {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "a rank never reached the span rendezvous");
            st = self
                .cv
                .wait_timeout(st, left)
                .expect("a rank panicked at a rendezvous")
                .0;
        }
    }
}

/// What rank threads need to record spans inside the machine.
pub struct Probe<'a> {
    pub rec: &'a Recorder,
    pub gate: &'a HostBarrier,
    /// The harness span around the whole `Machine::run` call.
    pub parent: SpanId,
}

impl Probe<'_> {
    /// Run `f` on every rank; rank 0 records it as a span that closes once
    /// every rank has finished `f`.
    pub fn span<R>(&self, rank: usize, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = (rank == 0).then(|| self.rec.begin(name, Some(self.parent), op));
        let r = f();
        self.gate.wait();
        if let Some(id) = id {
            self.rec.end(id);
        }
        r
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (clipped to the interval): overlapping children count once.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it that its
/// direct children (by parent id) cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur - covered_ns(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Share of the root span (span 0) that lies inside a named layer call.
/// Layer calls are the leaves of the tree under span 0; a span with children
/// (`run`, `simnet.machine`) only holds other spans, so its self time is the
/// unattributed gap.
pub fn layer_coverage(spans: &[Span]) -> f64 {
    let Some(root) = spans.first() else {
        return 0.0;
    };
    // parents are recorded before their children
    let mut under_root = vec![false; spans.len()];
    let mut has_child = vec![false; spans.len()];
    under_root[0] = true;
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            under_root[i] = under_root[p];
            has_child[p] = true;
        }
    }
    let gap_ns: u64 = self_times_ns(spans)
        .iter()
        .enumerate()
        .filter(|&(i, _)| under_root[i] && has_child[i])
        .map(|(_, own)| own)
        .sum();
    let dur = root.end_ns.saturating_sub(root.start_ns);
    if dur == 0 {
        0.0
    } else {
        1.0 - gap_ns as f64 / dur as f64
    }
}

/// Total seconds of all spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    // an empty float sum is -0.0; keep "no such span" a plain zero
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum::<f64>()
        + 0.0
}

/// Per-span milliseconds of all spans called `name`, in recording order.
pub fn each_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.seconds() * 1e3)
        .collect()
}

/// The trace file: every span, plus count / total / self seconds per name.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let layers = names
        .iter()
        .map(|&name| {
            let (mut count, mut total, mut own) = (0u64, 0u64, 0u64);
            for (s, &self_ns) in spans.iter().zip(&selfs) {
                if s.name == name {
                    count += 1;
                    total += s.end_ns.saturating_sub(s.start_ns);
                    own += self_ns;
                }
            }
            (
                name.to_string(),
                Json::obj([
                    ("count", Json::Num(count as f64)),
                    ("total_s", Json::Num(total as f64 * 1e-9)),
                    ("self_s", Json::Num(own as f64 * 1e-9)),
                ]),
            )
        })
        .collect();
    let span_rows = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
                ("start_us", Json::Num(s.start_ns as f64 * 1e-3)),
                ("end_us", Json::Num(s.end_ns as f64 * 1e-3)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("clock", Json::Str("host".to_string())),
        ("layer_coverage", Json::Num(layer_coverage(spans))),
        ("layers", Json::Obj(layers)),
        ("spans", Json::Arr(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; children 10..40 and 30..60 overlap by 10; a
        // grandchild must not be subtracted from the root
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 50, "union of 10..60 is 50");
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 8);
    }

    #[test]
    fn coverage_counts_every_span_with_children_as_a_container() {
        // run 0..100: a 20 ns phase, then a machine span 20..100 whose
        // rank-0 calls cover 30..90; gaps: 20..30 and 90..100
        let spans = vec![
            span("run", 0, 100, None),
            span("gen.generate", 0, 20, Some(0)),
            span("simnet.machine", 20, 100, Some(0)),
            span("dist.root", 30, 90, Some(2)),
            // a later root of the harness's own does not count
            span("dist2d.machine", 100, 200, None),
            span("dist2d.root", 150, 160, Some(4)),
        ];
        assert!((layer_coverage(&spans) - 0.8).abs() < 1e-12);
        assert_eq!(layer_coverage(&[]), 0.0);
    }

    #[test]
    fn nesting_follows_parent_ids_not_time() {
        // "b" lies inside "a" in time but names the root as its parent
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 10, 20, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[1], 50, "b is not a's child");
        assert_eq!(selfs[0], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recorder_and_rendezvous_close_spans_after_the_slowest_rank() {
        let rec = Recorder::new();
        let gate = HostBarrier::new(3);
        let root = rec.begin("run", None, 0);
        let probe = Probe {
            rec: &rec,
            gate: &gate,
            parent: root,
        };
        // when the slow rank left each call, on the recorder's clock
        let slow_left = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for rank in 0..3 {
                let (probe, slow_left) = (&probe, &slow_left);
                s.spawn(move || {
                    for op in 0..4 {
                        probe.span(rank, "layer.call", op, || {
                            if rank == 2 {
                                std::thread::sleep(Duration::from_millis(2));
                                slow_left.lock().unwrap().push(probe.rec.now_ns());
                            }
                        });
                    }
                });
            }
        });
        rec.end(root);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 5, "only rank 0 records");
        for (s, &left) in spans[1..].iter().zip(slow_left.lock().unwrap().iter()) {
            assert_eq!(s.parent, Some(root));
            assert!(s.end_ns >= left, "closed before the slow rank left");
        }
        assert_eq!(each_ms(&spans, "layer.call").len(), 4);
        assert!(total_s(&spans, "layer.call") <= spans[0].seconds());
        let text = trace_json("w", 1, &spans).to_string();
        assert!(text.contains("\"layer.call\""));
    }
}
