//! Cross-process byte-identity for the pool, and the traffic the product
//! makes of it.
//!
//! The pool is process-global and fixed at first use, so comparing thread
//! counts honestly requires separate processes. Each parent test re-execs
//! this test binary with `RAYON_XPROC_CHILD` naming a report under
//! `G500_THREADS=1`, `=2` and `=4` (whatever the environment sets) and
//! compares the children's stdout byte for byte.
//!
//! * `pipeline`: one submitter, one-item chunks over thousands of items,
//!   so at 4 threads every chunk run is claimed off a contended cursor —
//!   the machinery that must not be able to change results.
//! * `submitters`: host callers on several threads at once, such as the
//!   test harness running tests in parallel — eight threads all opening
//!   regions at once, each region with zero, one or three helpers of its
//!   own, beside the chunk slots that hand each `&mut` chunk out once
//!   (`lib.rs`).

use rayon::{for_each_chunk_mut, map_chunks};
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
/// sensitive), an order-sensitive map, and an index-dependent write pass.
fn pipeline_report() -> String {
    let weights: Vec<f32> = (0..100_000u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f32 * 1e-3)
        .collect();
    let mut sums = Vec::new();
    map_chunks(weights.len(), 64, &mut sums, |r| {
        weights[r].iter().map(|&w| w as f64).sum::<f64>()
    });
    let sum: f64 = sums.iter().sum();

    let mut mapped = Vec::new();
    map_chunks(50_000, 1, &mut mapped, |r| {
        (r.start as u64).wrapping_mul(6364136223846793005)
    });
    let h = mapped.iter().fold(FNV_SEED, |h, &x| fnv(h, x));

    let mut pairs = vec![0u64; 60_000];
    for_each_chunk_mut(&mut pairs, 7, |lo, xs| {
        for (i, x) in (lo as u64..).zip(xs) {
            *x = (i % 13) << 32 | i;
        }
    });
    let wh = pairs.iter().fold(FNV_SEED, |h, &x| fnv(h, x));

    format!("sum={:016x} map={h:016x} write={wh:016x}\n", sum.to_bits())
}

const SUBMITTERS: usize = 8;
const REGIONS: usize = 240;

/// One submitter's share of the traffic: `REGIONS` regions of ragged sizes
/// and chunk lengths, of five kinds in rotation, one of them panicking.
/// Returns a digest of every sum and map it made.
fn submit(s: usize) -> u64 {
    let mut digest = FNV_SEED;
    let mut panics = 0;
    for r in 0..REGIONS {
        let n = 3 + (s * 131 + r * 37) % 700;
        let chunk = 1 + r % 5;
        if r == 100 + s {
            // the panicking region: the payload names this submitter, and
            // must come back here and nowhere else
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_chunks(n, 1, &mut Vec::new(), |c| {
                    if c.start == n / 2 {
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
                map_chunks(n, 1, &mut Vec::new(), |c| {
                    ran[c.start].fetch_add(1, Ordering::Relaxed);
                });
                let once = |c: &AtomicU32| c.load(Ordering::Relaxed) == 1;
                assert!(ran.iter().all(once), "submitter {s} region {r}");
            }
            1 => {
                // every element is handed out as `&mut` exactly once
                let mut v = vec![0u32; n];
                for_each_chunk_mut(&mut v, chunk, |_, xs| xs.iter_mut().for_each(|x| *x += 1));
                assert!(v.iter().all(|&x| x == 1), "submitter {s} region {r}");
            }
            2 => {
                let mut parts = Vec::new();
                map_chunks(n, chunk, &mut parts, |c| {
                    c.map(|i| ((i * 2654435761 + s) % 1000) as f64 * 1e-3)
                        .sum::<f64>()
                });
                let sum: f64 = parts.iter().sum();
                digest = fnv(digest, sum.to_bits());
            }
            3 => {
                // an order-sensitive map; the digest takes every third
                // item, in order
                let mut out: Vec<Vec<u64>> = Vec::new();
                map_chunks(n, chunk, &mut out, |c| {
                    c.map(|i| i as u64)
                        .filter(|i| (i + r as u64) % 3 == 1)
                        .map(|i| i.wrapping_mul(6364136223846793005) ^ s as u64)
                        .collect()
                });
                digest = out.iter().flatten().fold(digest, |h, &x| fnv(h, x));
            }
            _ => {
                // nested: each chunk opens a region of its own, many chunks
                // long; only every fourth such region, they are heavy
                if r % 20 != 4 {
                    continue;
                }
                let mut nested: Vec<Vec<u64>> = Vec::new();
                map_chunks(3 + s % 3, 1, &mut nested, |c| {
                    let len = 5000 + 100 * c.start;
                    let mut inner = Vec::new();
                    map_chunks(len, 16, &mut inner, |k| {
                        k.map(|k| ((k as u64).wrapping_mul(2654435761) % 17) ^ r as u64)
                            .fold(FNV_SEED, fnv)
                    });
                    inner
                });
                for inner in &nested {
                    digest = inner.iter().fold(digest, |h, &x| fnv(h, x));
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
    let mut sums = Vec::new();
    map_chunks(100_000, 64, &mut sums, |r| r.map(|i| i as u64).sum::<u64>());
    assert_eq!(
        sums.iter().sum::<u64>(),
        4_999_950_000,
        "the pool still serves"
    );
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
