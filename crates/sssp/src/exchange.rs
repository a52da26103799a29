//! The update-exchange step: how relaxation requests cross rank boundaries.
//!
//! This is where three of the ablatable optimizations live:
//!
//! * **dedup** — per-destination sort + min-per-target before injection,
//! * **coalescing** — one aggregated message per destination (vs one
//!   message per update, which pays the LogGP per-message overhead `o`
//!   per *edge* and is exactly what makes naive distributed SSSP collapse),
//! * **compression** — the gap+varint codec of [`crate::codec`].
//!
//! All three change only traffic, never semantics: the same set of updates
//! arrives either way (dedup drops only updates that a later min() would
//! discard anyway).
//!
//! The exchange is generic over the record ([`Record`], beside the codec):
//! the solo kernel's `Update` and the batched kernel's `TaggedUpdate` take
//! the same path through the same dedup in the same canonical order.
//!
//! A coalesced exchange travels by the [`Route`] its caller names — one
//! message a rank, or one a group forwarded inside it
//! (`simnet/collectives.rs`, "Routes") — and the caller names it from sums
//! every rank agrees on ([`shipped_bytes`]). The route moves bytes, not
//! records: blocks are encoded before it and decoded after it, a forwarder
//! never looks inside one, and either way one block per source rank comes
//! back, so dedup's canonical order, `delivery_order` and every result are
//! the route's to ignore. A block that does not decode leaves as the typed
//! [`simnet::TransportError::Decode`], like any undecodable collective
//! payload.
//!
//! An exchange also carries its caller's [`Header`] — a light step's
//! offers — on the all-to-all it makes anyway (the counts all-to-all, on
//! the one-message-per-update path), and returns every rank's merged.

use crate::codec::{dedup_min, Record};
use crate::config::OptConfig;
use simnet::{Header, RankCtx, Route, TraceCode, Wire};

/// What one exchange did, for the run statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeOutcome {
    /// Records handed in by the caller (before dedup).
    pub records_offered: u64,
    /// Records actually shipped (after dedup).
    pub records_sent: u64,
    /// Records received from all peers.
    pub records_received: u64,
}

/// Reusable per-superstep exchange scratch: the per-destination outgoing
/// buckets and the flattened incoming buffer. A kernel keeps one of these
/// alive for its whole run and calls [`exchange_into`] each superstep, so
/// bucket capacity (sized by the first big superstep) is paid once instead
/// of reallocated per exchange. The non-coalesced and `alltoallv` wire
/// paths still consume the bucket Vecs (they are handed to the transport),
/// but the container and the hot dedup/encode paths reuse capacity.
#[derive(Debug, Default)]
pub struct ExchangeBufs<R> {
    out: Vec<Vec<R>>,
    incoming: Vec<R>,
}

impl<R> ExchangeBufs<R> {
    /// Scratch for a `p`-rank exchange, with one (empty) bucket per rank.
    pub fn new(p: usize) -> Self {
        ExchangeBufs {
            out: (0..p).map(|_| Vec::new()).collect(),
            incoming: Vec::new(),
        }
    }

    /// The outgoing bucket for destination rank `d`.
    pub fn bucket_mut(&mut self, d: usize) -> &mut Vec<R> {
        &mut self.out[d]
    }

    /// Updates received by the last [`exchange_into`] call.
    pub fn incoming(&self) -> &[R] {
        &self.incoming
    }
}

/// Bytes a rank ships in an exchange of about `records` records
/// machine-wide — what [`RankCtx::alltoallv_route`] prices a route by: its
/// `1/P` of them, at the raw record size or — the codec's gap+varint columns
/// roughly halve a record (F6) — half of it.
pub fn shipped_bytes<R: Record>(ctx: &RankCtx, opts: &OptConfig, records: f64) -> f64 {
    let wire = R::SIZE as f64 / if opts.compression { 2.0 } else { 1.0 };
    records / ctx.size() as f64 * wire
}

/// Ship the staged buckets of `bufs` to every rank by `route`, leaving the
/// flattened incoming updates in `bufs.incoming` (cleared first), and return
/// what the exchange did with every rank's `header` merged.
/// Collective: every rank must call with the same `opts` and `route` (the
/// non-coalesced path has no blocks to group and ignores it). On return
/// every bucket is empty;
/// on the compressed path (which only *reads* the buckets to encode) their
/// capacity survives for the next superstep, while the uncompressed paths
/// hand the Vecs themselves to the transport.
pub fn exchange_into<R: Record, H: Wire + Clone>(
    ctx: &mut RankCtx,
    bufs: &mut ExchangeBufs<R>,
    opts: &OptConfig,
    route: Route,
    header: Header<H>,
) -> (ExchangeOutcome, Vec<H>) {
    let ExchangeBufs { out, incoming } = bufs;
    let p = ctx.size();
    assert_eq!(out.len(), p);
    let mut outcome = ExchangeOutcome {
        records_offered: out.iter().map(|b| b.len() as u64).sum(),
        ..Default::default()
    };
    ctx.trace_begin(
        TraceCode::Exchange,
        outcome.records_offered,
        R::TRACE_FLAVOR,
    );

    if opts.dedup {
        let work = outcome.records_offered;
        // Dedup each destination bucket, a pure function of its contents.
        ctx.trace_begin(TraceCode::TaskWave, p as u64, 2);
        for b in out.iter_mut() {
            dedup_min(b);
        }
        // the sort is the modeled "on-chip sort" cost
        ctx.charge_compute(work);
        ctx.trace_end(TraceCode::TaskWave, p as u64, 2);
    }
    outcome.records_sent = out.iter().map(|b| b.len() as u64).sum();

    incoming.clear();
    let merged = if !opts.coalescing {
        let taken: Vec<Vec<R>> = out.iter_mut().map(std::mem::take).collect();
        exchange_one_message_per_update(ctx, taken, incoming, header)
    } else if opts.compression {
        // encode per destination; sortedness comes from dedup when enabled
        ctx.trace_begin(TraceCode::TaskWave, p as u64, 3);
        let enc: Vec<Vec<u8>> = out.iter().map(|b| R::encode(b, opts.dedup)).collect();
        ctx.charge_compute(outcome.records_sent);
        ctx.trace_end(TraceCode::TaskWave, p as u64, 3);
        // encoding only read the buckets: clear them, keeping capacity
        for b in out.iter_mut() {
            b.clear();
        }
        let (mut blocks, merged) = ctx.alltoallv_routed(route, enc, header);
        // Apply per-source blocks in the (possibly fuzzed) delivery order:
        // min-relaxation makes the merge order-free, and the schedule fuzzer
        // verifies exactly that by permuting it.
        let order = ctx.delivery_order(blocks.len());
        for s in order {
            let block = std::mem::take(&mut blocks[s]);
            let mut dec =
                R::decode(&block).unwrap_or_else(|| ctx.decode_failure(s, block.len(), R::SIZE));
            ctx.charge_compute(dec.len() as u64);
            incoming.append(&mut dec);
        }
        merged
    } else {
        let taken: Vec<Vec<R>> = out.iter_mut().map(std::mem::take).collect();
        let (mut blocks, merged) = ctx.alltoallv_routed(route, taken, header);
        let order = ctx.delivery_order(blocks.len());
        for s in order {
            incoming.append(&mut blocks[s]);
        }
        merged
    };

    outcome.records_received = incoming.len() as u64;
    ctx.trace_count(
        TraceCode::UpdatesSent,
        outcome.records_sent,
        R::TRACE_FLAVOR,
    );
    ctx.trace_count(
        TraceCode::UpdatesReceived,
        outcome.records_received,
        R::TRACE_FLAVOR,
    );
    ctx.trace_end(
        TraceCode::Exchange,
        outcome.records_offered,
        R::TRACE_FLAVOR,
    );
    (outcome, merged)
}

/// The no-coalescing path: every update is its own message. Counts are
/// agreed via a (cheap, aggregated) direct all-to-all first, which carries
/// the header, so receivers know how many singletons to expect from each
/// peer; per-sender FIFO ordering makes the tag reuse across supersteps
/// safe.
fn exchange_one_message_per_update<R: Record, H: Wire + Clone>(
    ctx: &mut RankCtx,
    out: Vec<Vec<R>>,
    incoming: &mut Vec<R>,
    header: Header<H>,
) -> Vec<H> {
    let me = ctx.rank();
    let counts: Vec<Vec<u64>> = out.iter().map(|b| vec![b.len() as u64]).collect();
    let (counts_in, merged) = ctx.alltoallv_routed(Route::Direct, counts, header);

    for (d, block) in out.into_iter().enumerate() {
        if d == me {
            incoming.extend(block); // local updates never hit the wire
        } else {
            for u in block {
                ctx.send(d, R::SINGLE_TAG, &[u]);
            }
        }
    }
    // Drain peers in the (possibly fuzzed) delivery order; each per-sender
    // stream stays FIFO, but the interleave across senders is order-free.
    let order = ctx.delivery_order(counts_in.len());
    for s in order {
        if s == me {
            continue;
        }
        for _ in 0..counts_in[s][0] {
            incoming.push(ctx.recv_one::<R>(s, R::SINGLE_TAG));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{TaggedUpdate, Update};
    use simnet::{Machine, MachineConfig};

    fn run_exchange(p: usize, opts: OptConfig) -> Vec<(Vec<Update>, ExchangeOutcome, u64, u64)> {
        run_exchange_by(p, opts, Route::Direct)
    }

    fn run_exchange_by(
        p: usize,
        opts: OptConfig,
        route: Route,
    ) -> Vec<(Vec<Update>, ExchangeOutcome, u64, u64)> {
        Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let me = ctx.rank() as u64;
                // rank r sends to every rank d two updates for target d*10
                // (one strictly better), so dedup has something to remove
                let mut bufs = ExchangeBufs::new(ctx.size());
                for d in 0..ctx.size() {
                    let t = d as u64 * 10;
                    bufs.bucket_mut(d)
                        .extend([(t, 0.5 + me as f32, me), (t, 0.4 + me as f32, me)]);
                }
                let (outcome, _) = exchange_into(ctx, &mut bufs, &opts, route, Header::none());
                let stats = ctx.stats();
                let incoming = bufs.incoming().to_vec();
                (incoming, outcome, stats.user_msgs, stats.total_bytes())
            })
            .results
    }

    #[test]
    fn all_paths_deliver_same_updates() {
        let configs = [
            OptConfig::all_on(),
            OptConfig::all_on().without_compression(),
            OptConfig::all_on().without_dedup(),
            OptConfig::all_on().without_dedup().without_compression(),
            OptConfig::all_off(),
        ];
        let mut reference: Option<Vec<Vec<(u64, u64)>>> = None;
        let routes = [Route::Direct, Route::Grouped];
        for (ci, (opts, route)) in configs
            .iter()
            .flat_map(|o| routes.map(|r| (o, r)))
            .enumerate()
        {
            let results = run_exchange_by(4, *opts, route);
            // compare the *set* of (target, parent-of-min) pairs per rank:
            // dedup may drop dominated records, so compare post-min state
            let view: Vec<Vec<(u64, u64)>> = results
                .iter()
                .map(|(inc, _, _, _)| {
                    let mut best: std::collections::HashMap<u64, (f32, u64)> =
                        std::collections::HashMap::new();
                    for &(t, d, par) in inc {
                        let e = best.entry(t).or_insert((f32::INFINITY, u64::MAX));
                        if d < e.0 {
                            *e = (d, par);
                        }
                    }
                    let mut v: Vec<(u64, u64)> =
                        best.into_iter().map(|(t, (_, par))| (t, par)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            match &reference {
                None => reference = Some(view),
                Some(r) => assert_eq!(r, &view, "config {ci} delivered different state"),
            }
        }
    }

    #[test]
    fn dedup_halves_the_records() {
        let (_, outcome, _, _) = run_exchange(3, OptConfig::all_on())[0].clone();
        assert_eq!(outcome.records_offered, 6);
        assert_eq!(outcome.records_sent, 3);
    }

    #[test]
    fn no_coalescing_sends_per_update_messages() {
        let with = run_exchange(4, OptConfig::all_on().without_dedup());
        let without = run_exchange(4, OptConfig::all_on().without_dedup().without_coalescing());
        let msgs_with: u64 = with.iter().map(|r| r.2).sum();
        let msgs_without: u64 = without.iter().map(|r| r.2).sum();
        // coalesced path sends zero *user* messages (alltoallv is
        // collective-class); naive path sends one per update
        assert_eq!(msgs_with, 0);
        assert_eq!(msgs_without, 4 * 3 * 2); // p ranks × (p-1) peers × 2 updates
    }

    #[test]
    fn compression_reduces_bytes() {
        // many clustered targets so the codec has gaps to exploit
        let run = |opts: OptConfig| -> u64 {
            Machine::new(MachineConfig::with_ranks(2))
                .run(move |ctx| {
                    let mut bufs = ExchangeBufs::<Update>::new(2);
                    for d in 0..2 {
                        bufs.bucket_mut(d)
                            .extend((0..500u64).map(|i| (d as u64 * 1000 + i, 0.25, 42)));
                    }
                    exchange_into(ctx, &mut bufs, &opts, Route::Direct, Header::none());
                    ctx.stats().total_bytes()
                })
                .results
                .iter()
                .sum()
        };
        let compressed = run(OptConfig::all_on());
        let raw = run(OptConfig::all_on().without_compression());
        assert!(
            compressed * 3 < raw * 2,
            "compression saved too little: {compressed} vs {raw}"
        );
    }

    #[test]
    fn tagged_paths_deliver_same_state() {
        let configs = [
            OptConfig::all_on(),
            OptConfig::all_on().without_compression(),
            OptConfig::all_on().without_dedup(),
            OptConfig::all_on().without_dedup().without_compression(),
            OptConfig::all_off(),
        ];
        let run = |opts: OptConfig| {
            Machine::new(MachineConfig::with_ranks(3))
                .run(move |ctx| {
                    let me = ctx.rank() as u64;
                    let mut bufs = ExchangeBufs::<TaggedUpdate>::new(ctx.size());
                    for d in 0..ctx.size() {
                        // two lanes, duplicate targets per lane so dedup bites
                        bufs.bucket_mut(d).extend([
                            (0u32, d as u64 * 10, 0.5 + me as f32, me),
                            (0, d as u64 * 10, 0.4 + me as f32, me),
                            (1, d as u64 * 10, 0.3 + me as f32, me + 100),
                        ]);
                    }
                    exchange_into(ctx, &mut bufs, &opts, Route::Direct, Header::none());
                    bufs.incoming().to_vec()
                })
                .results
        };
        let mut reference: Option<Vec<Vec<(u32, u64, u64)>>> = None;
        for (ci, opts) in configs.iter().enumerate() {
            let view: Vec<Vec<(u32, u64, u64)>> = run(*opts)
                .iter()
                .map(|inc| {
                    let mut best: std::collections::HashMap<(u32, u64), (f32, u64)> =
                        std::collections::HashMap::new();
                    for &(lane, t, d, par) in inc {
                        let e = best.entry((lane, t)).or_insert((f32::INFINITY, u64::MAX));
                        if (d, par) < (e.0, e.1) {
                            *e = (d, par);
                        }
                    }
                    let mut v: Vec<(u32, u64, u64)> = best
                        .into_iter()
                        .map(|((lane, t), (_, par))| (lane, t, par))
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            match &reference {
                None => reference = Some(view),
                Some(r) => assert_eq!(r, &view, "tagged config {ci} diverged"),
            }
        }
    }

    #[test]
    fn tagged_dedup_keeps_min_per_lane_target() {
        let results = Machine::new(MachineConfig::with_ranks(2))
            .run(|ctx| {
                let mut bufs = ExchangeBufs::<TaggedUpdate>::new(ctx.size());
                for d in 0..ctx.size() {
                    bufs.bucket_mut(d).extend([
                        (0u32, 4u64, 0.9f32, 1u64),
                        (0, 4, 0.2, 2),
                        (1, 4, 0.1, 3),
                    ]);
                }
                let (outcome, _) = exchange_into(
                    ctx,
                    &mut bufs,
                    &OptConfig::all_on(),
                    Route::Direct,
                    Header::none(),
                );
                (outcome.records_offered, outcome.records_sent)
            })
            .results;
        // lanes dedup independently: 3 offered, 2 shipped per destination
        assert_eq!(results[0], (6, 4));
    }

    #[test]
    fn grouped_exchange_delivers_the_same_records_in_the_same_order() {
        // 16 ranks: the same incoming records in the same order (one block
        // per source, whatever carried it), for the bytes of the second hop
        let opts = OptConfig::all_on();
        let direct = run_exchange_by(16, opts, Route::Direct);
        let grouped = run_exchange_by(16, opts, Route::Grouped);
        for (d, g) in direct.iter().zip(&grouped) {
            assert_eq!(d.0, g.0);
            assert_eq!((d.1.records_sent, d.1.records_received), (16, 16));
            assert_eq!((g.1.records_sent, g.1.records_received), (16, 16));
            assert!(g.3 > d.3, "forwarded bytes are shipped twice");
        }
        // the price: empty-ish blocks group at 16 ranks and never at 4
        let priced = |p: usize| {
            Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| {
                    let bytes = shipped_bytes::<Update>(ctx, &OptConfig::all_on(), 100.0);
                    ctx.alltoallv_route(bytes)
                })
                .results[0]
        };
        assert_eq!(priced(16), Route::Grouped);
        assert_eq!(priced(4), Route::Direct);
    }

    #[test]
    fn undecodable_block_is_a_typed_error() {
        // rank 1 ships every rank three bytes no update block starts with
        // (a count of 2^21 - 1 and nothing behind it), by either route
        use simnet::{FaultEscalation, TransportError};
        for route in [Route::Direct, Route::Grouped] {
            let res = Machine::new(MachineConfig::with_ranks(4)).try_run(|ctx| {
                if ctx.rank() == 1 {
                    ctx.alltoallv_routed(route, vec![vec![0xFFu8, 0xFF, 0x7F]; 4], Header::none());
                    return 0;
                }
                let mut bufs = ExchangeBufs::<Update>::new(4);
                exchange_into(ctx, &mut bufs, &OptConfig::all_on(), route, Header::none())
                    .0
                    .records_received
            });
            match res {
                Err(FaultEscalation::Transport(TransportError::Decode { src, len, .. })) => {
                    assert_eq!((src, len), (1, 3), "{route:?}");
                }
                other => panic!(
                    "{route:?}: expected a typed decode error, got {:?}",
                    other.map(|r| r.results)
                ),
            }
        }
    }

    #[test]
    fn empty_exchange_is_fine() {
        let results = run_exchange(1, OptConfig::all_on());
        // single rank: everything is a local copy
        assert_eq!(results[0].1.records_received, 1);
    }
}
