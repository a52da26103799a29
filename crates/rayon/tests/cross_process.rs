//! Cross-process byte-identity for the pool, and the traffic the product
//! makes of it.
//!
//! The pool is process-global and fixed at first use, so comparing thread
//! counts honestly requires separate processes. Each parent test re-execs
//! this test binary with `RAYON_XPROC_CHILD` naming a report under
//! `G500_THREADS=1`, `=2` and `=4` (whatever the environment sets) and
//! compares the children's stdout byte for byte.
//!
//! * `pipeline`: one submitter, `with_max_len(1)` over thousands of items,
//!   so at 4 threads every chunk run is claimed off a contended cursor —
//!   the machinery that must not be able to change results.
//! * `submitters`: what `g500` does — eight threads (simnet's ranks) all
//!   opening regions at once on a pool of zero, one or three workers. It is
//!   the test the crate's three `SAFETY` arguments name: the erased body
//!   pointer (`pool.rs`), the disjoint `&mut` hand-out (`iter.rs`) and the
//!   sort's merge (`sort.rs`) are all driven from several submitters at
//!   the same time, with their `debug_assert`s live in a debug build.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;

const CHILD_ENV: &str = "RAYON_XPROC_CHILD";

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100000001b3)
}

const FNV_SEED: u64 = 0xcbf29ce484222325;

/// A chunk-heavy deterministic pipeline: float sums (combine-order
/// sensitive), an order-sensitive collect, and a duplicate-key sort.
fn pipeline_report() -> String {
    let weights: Vec<f32> = (0..100_000u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f32 * 1e-3)
        .collect();
    let sum: f64 = weights.par_iter().with_max_len(64).map(|&w| w as f64).sum();

    let collected: Vec<u64> = (0..50_000u64)
        .into_par_iter()
        .with_max_len(1)
        .map(|i| i.wrapping_mul(6364136223846793005))
        .collect();
    let h = collected.iter().fold(FNV_SEED, |h, &x| fnv(h, x));

    let mut pairs: Vec<(u32, u32)> = (0..60_000u32).map(|i| (i % 13, i)).collect();
    pairs.par_sort_unstable_by_key(|&(k, _)| k);
    let sh = pairs
        .iter()
        .fold(FNV_SEED, |h, &(k, v)| fnv(h, (k as u64) << 32 | v as u64));

    format!(
        "sum={:016x} collect={h:016x} sort={sh:016x}\n",
        sum.to_bits()
    )
}

const SUBMITTERS: usize = 8;
const REGIONS: usize = 240;

/// One submitter's share of the traffic: `REGIONS` regions of ragged sizes
/// and chunk lengths, of five kinds in rotation, one of them panicking.
/// Returns a digest of every sum, collect and sort it made.
fn submit(s: usize) -> u64 {
    let mut digest = FNV_SEED;
    let mut panics = 0;
    for r in 0..REGIONS {
        let n = 3 + (s * 131 + r * 37) % 700;
        let max_len = 1 + r % 5;
        if r == 100 + s {
            // the panicking region: the payload names this submitter, and
            // must come back here and nowhere else
            let caught = catch_unwind(AssertUnwindSafe(|| {
                (0..n).into_par_iter().with_max_len(1).for_each(|i| {
                    if i == n / 2 {
                        panic!("submitter {s}");
                    }
                });
            }));
            let payload = caught.expect_err("the region's panic reaches its opener");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("submitter {s}").as_str())
            );
            panics += 1;
            continue;
        }
        match r % 5 {
            0 => {
                // every chunk index of the region runs exactly once
                let ran: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                (0..n).into_par_iter().with_max_len(1).for_each(|i| {
                    ran[i].fetch_add(1, Ordering::Relaxed);
                });
                let once = |c: &AtomicU32| c.load(Ordering::Relaxed) == 1;
                assert!(ran.iter().all(once), "submitter {s} region {r}");
            }
            1 => {
                // every element is handed out as `&mut` exactly once
                let mut v = vec![0u32; n];
                v.par_iter_mut().with_max_len(max_len).for_each(|x| *x += 1);
                assert!(v.iter().all(|&x| x == 1), "submitter {s} region {r}");
            }
            2 => {
                let sum: f64 = (0..n)
                    .into_par_iter()
                    .with_max_len(max_len)
                    .map(|i| ((i * 2654435761 + s) % 1000) as f64 * 1e-3)
                    .sum();
                digest = fnv(digest, sum.to_bits());
            }
            3 => {
                // an order-sensitive collect; the digest takes every third
                // item, in order
                let out: Vec<Option<u64>> = (0..n as u64)
                    .into_par_iter()
                    .with_max_len(max_len)
                    .map(|i| {
                        let keep = (i + r as u64) % 3 == 1;
                        keep.then(|| i.wrapping_mul(6364136223846793005) ^ s as u64)
                    })
                    .collect();
                digest = out.iter().flatten().fold(digest, |h, &x| fnv(h, x));
            }
            _ => {
                // nested: each chunk sorts a vector longer than the sort's
                // sequential cutoff, so it opens `join` regions of its own
                // and merges; only every fourth such region, they are heavy
                if r % 20 != 4 {
                    continue;
                }
                let sorted: Vec<Vec<(u32, u32)>> = (0..3 + s % 3)
                    .into_par_iter()
                    .with_max_len(1)
                    .map(|c| {
                        let mut v: Vec<(u32, u32)> = (0..5000 + 100 * c as u32)
                            .map(|k| (k.wrapping_mul(2654435761) % 17, k ^ r as u32))
                            .collect();
                        v.par_sort_unstable_by_key(|&(k, _)| k);
                        v
                    })
                    .collect();
                for v in &sorted {
                    assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
                    digest = v
                        .iter()
                        .fold(digest, |h, &(k, x)| fnv(h, (k as u64) << 32 | x as u64));
                }
            }
        }
    }
    assert_eq!(panics, 1, "submitter {s} saw its own panic and no other");
    digest
}

/// Eight submitters at once, released together; then the pool must still
/// serve. A panic that surfaced on the wrong submitter fails its thread's
/// `join` (no other region is under `catch_unwind`).
fn submitters_report() -> String {
    let start = Barrier::new(SUBMITTERS);
    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    submit(s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a submitter saw only its own panic"))
            .collect()
    });
    let after: u64 = (0..100_000u64).into_par_iter().with_max_len(64).sum();
    assert_eq!(after, 4_999_950_000, "the pool still serves");
    let line: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{}\n", line.join(" "))
}

fn run_child(report: &str, threads: usize) -> String {
    let exe = std::env::current_exe().expect("test exe path");
    let out = Command::new(exe)
        .args(["--exact", "child_emit_report", "--nocapture"])
        .env(CHILD_ENV, report)
        .env("G500_THREADS", threads.to_string())
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "{report} child failed under {threads} threads: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    // Under --nocapture the harness's own "test ... " prefix shares the
    // line, so locate the marker anywhere and slice from there.
    stdout
        .lines()
        .find_map(|l| l.find("REPORT ").map(|p| l[p..].to_string()))
        .unwrap_or_else(|| panic!("no REPORT line in child output:\n{stdout}"))
}

/// Child half: prints the digest of the report the env flag names when
/// re-exec'd with it; a no-op under the normal test run.
#[test]
fn child_emit_report() {
    match std::env::var(CHILD_ENV).as_deref() {
        Ok("pipeline") => print!("REPORT {}", pipeline_report()),
        Ok("submitters") => print!("REPORT {}", submitters_report()),
        Ok(other) => panic!("unknown report {other:?}"),
        Err(_) => {}
    }
}

#[test]
fn batched_claim_results_identical_at_1_and_4_threads() {
    let one = run_child("pipeline", 1);
    let four = run_child("pipeline", 4);
    assert_eq!(
        one, four,
        "the pool changed results between G500_THREADS=1 and =4"
    );
}

#[test]
fn many_submitters_run_every_chunk_exactly_once() {
    // the exactly-once, own-panic and still-serves assertions run inside
    // each child; the parent checks the bytes against the one-thread child
    let one = run_child("submitters", 1);
    for threads in [2, 4] {
        assert_eq!(
            one,
            run_child("submitters", threads),
            "eight submitters' results differ between G500_THREADS=1 and ={threads}"
        );
    }
}
