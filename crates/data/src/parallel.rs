//! Minimal data-parallel helpers built on scoped threads.
//!
//! The simulations are round-synchronous, so all parallelism is simple
//! fork-join over per-user work; no async runtime is warranted.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of worker threads to use.
///
/// The `CIA_THREADS` environment variable pins the count explicitly (CI and
/// golden-transcript jobs set `CIA_THREADS=2` so runs are reproducible and
/// cheap regardless of the host); `1` disables worker spawning entirely.
/// Unset — or set to `0` or garbage — falls back to available parallelism,
/// capped at 16. Every helper in this module produces results that are
/// byte-identical for *any* thread count (fixed work assignment, ordered
/// reduction), so the variable only affects wall-clock time.
///
/// The variable is re-read on every call (a few times per protocol round —
/// negligible) so tests can flip it at runtime.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("CIA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(64);
            }
        }
    }
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4).min(16)
}

/// Applies `f` to paired elements of two equal-length slices in parallel.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn par_zip_mut<A: Send, B: Send, F>(a: &mut [A], b: &mut [B], f: F)
where
    F: Fn(usize, &mut A, &mut B) + Sync,
{
    assert_eq!(a.len(), b.len(), "par_zip_mut length mismatch");
    let threads = num_threads();
    if a.len() <= 1 || threads <= 1 {
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            f(i, x, y);
        }
        return;
    }
    let chunk = a.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (c, (sa, sb)) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, (x, y)) in sa.iter_mut().zip(sb.iter_mut()).enumerate() {
                    f(c * chunk + i, x, y);
                }
            });
        }
    });
}

/// Indices per block in [`par_zip_fold`]. Workers take blocks round-robin
/// and fold a block as a whole, so a block is also the unit a worker may
/// run ahead of the fold turn by. Timed on paper-scale FedAvg runs on 2
/// cores, 8 tied with 4 and beat 16 and 32 on wall time and peak memory.
pub const FOLD_BLOCK: usize = 8;

/// Runs `work(lane, i, &mut a[i], &mut b[i])` for every index in parallel,
/// and `fold(acc, lane, i, &mut a[i], &mut b[i])` exactly once per index,
/// strictly in index order, each on the worker that did that index's work.
///
/// A reduction into `acc` thus reads each index's output while it is still
/// in the cache of the core that produced it, and sums in index order for
/// any thread count.
///
/// Workers take [`FOLD_BLOCK`]-sized blocks of indices round-robin. After
/// each block a worker folds its finished blocks whose turn has come, if the
/// fold lock is free (`try_lock`); once its own work is done it waits for
/// the turn to reach each block it still holds. `lanes` carries one piece of
/// per-worker state (a buffer pool, say): it grows to the worker count, the
/// caller keeps it across calls, and `work` and `fold` of one index see the
/// same lane.
///
/// Returns the wall time workers spent waiting for the fold turn, summed
/// over workers; zero when everything runs on the calling thread.
///
/// # Panics
///
/// Panics if the slices have different lengths, or if `work` or `fold`
/// panics on any worker.
pub fn par_zip_fold<A, B, L, C, W, F>(
    a: &mut [A],
    b: &mut [B],
    lanes: &mut Vec<L>,
    acc: &mut C,
    work: W,
    fold: F,
) -> Duration
where
    A: Send,
    B: Send,
    L: Default + Send,
    C: Send,
    W: Fn(&mut L, usize, &mut A, &mut B) + Sync,
    F: Fn(&mut C, &mut L, usize, &mut A, &mut B) + Sync,
{
    zip_fold_on(num_threads(), a, b, lanes, acc, work, fold)
}

/// The fold turn [`par_zip_fold`]'s workers pass around: the next block to
/// fold, the accumulator, and whether a worker died holding unfolded blocks.
struct Turn<'a, C> {
    next: usize,
    acc: &'a mut C,
    abandoned: bool,
}

/// Block `k` of a [`par_zip_fold`] run: its index and its stretch of both
/// slices.
type Block<'s, A, B> = (usize, &'s mut [A], &'s mut [B]);

/// Marks the turn abandoned if its worker unwinds, so the others stop
/// waiting for blocks that will never be folded.
struct Abandon<'s, 'a, C>(&'s Mutex<Turn<'a, C>>, &'s Condvar);

impl<C> Drop for Abandon<'_, '_, C> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).abandoned = true;
            self.1.notify_all();
        }
    }
}

/// [`par_zip_fold`] on at most `threads` workers.
fn zip_fold_on<A, B, L, C, W, F>(
    threads: usize,
    a: &mut [A],
    b: &mut [B],
    lanes: &mut Vec<L>,
    acc: &mut C,
    work: W,
    fold: F,
) -> Duration
where
    A: Send,
    B: Send,
    L: Default + Send,
    C: Send,
    W: Fn(&mut L, usize, &mut A, &mut B) + Sync,
    F: Fn(&mut C, &mut L, usize, &mut A, &mut B) + Sync,
{
    assert_eq!(a.len(), b.len(), "par_zip_fold length mismatch");
    let workers = threads.min(a.len().div_ceil(FOLD_BLOCK)).max(1);
    if lanes.len() < workers {
        lanes.resize_with(workers, L::default);
    }
    if workers == 1 {
        let lane = &mut lanes[0];
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            work(lane, i, x, y);
            fold(acc, lane, i, x, y);
        }
        return Duration::ZERO;
    }
    // Block `k` goes to worker `k % workers`.
    let mut shares: Vec<Vec<Block<'_, A, B>>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, (sa, sb)) in a.chunks_mut(FOLD_BLOCK).zip(b.chunks_mut(FOLD_BLOCK)).enumerate() {
        shares[k % workers].push((k, sa, sb));
    }
    let turn = Mutex::new(Turn { next: 0, acc, abandoned: false });
    let wake = Condvar::new();
    let fold_block = |t: &mut Turn<'_, C>, lane: &mut L, block: &mut Block<'_, A, B>| {
        let (k, sa, sb) = block;
        for (o, (x, y)) in sa.iter_mut().zip(sb.iter_mut()).enumerate() {
            fold(t.acc, lane, *k * FOLD_BLOCK + o, x, y);
        }
        t.next += 1;
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .zip(lanes.iter_mut())
            .map(|(mut share, lane)| {
                let (turn, wake, work, fold_block) = (&turn, &wake, &work, &fold_block);
                s.spawn(move || {
                    let _abandon = Abandon(turn, wake);
                    let mut folded = 0;
                    for j in 0..share.len() {
                        let (k, sa, sb) = &mut share[j];
                        for (o, (x, y)) in sa.iter_mut().zip(sb.iter_mut()).enumerate() {
                            work(lane, *k * FOLD_BLOCK + o, x, y);
                        }
                        // Fold what is due without waiting: a busy lock
                        // means another worker is folding, so work on.
                        if let Ok(mut t) = turn.try_lock() {
                            let before = folded;
                            while folded <= j && t.next == share[folded].0 {
                                fold_block(&mut t, lane, &mut share[folded]);
                                folded += 1;
                            }
                            drop(t);
                            if folded > before {
                                wake.notify_all();
                            }
                        }
                    }
                    let mut waited = Duration::ZERO;
                    while folded < share.len() {
                        // cia-lint: allow(D02, times only the wait for the fold turn, reported as the timing-class fold_wait_us counter; no result reads it)
                        let t0 = Instant::now();
                        let mut t = turn.lock().expect("par_zip_fold: a worker panicked");
                        while t.next != share[folded].0 {
                            assert!(!t.abandoned, "par_zip_fold: a worker panicked");
                            t = wake.wait(t).expect("par_zip_fold: a worker panicked");
                        }
                        waited += t0.elapsed();
                        fold_block(&mut t, lane, &mut share[folded]);
                        folded += 1;
                        drop(t);
                        wake.notify_all();
                    }
                    waited
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("par_zip_fold worker panicked")).sum()
    })
}

/// Computes `f(i)` for `i in 0..n` in parallel and returns the results in
/// index order.
///
/// Workers each fill a per-chunk `Vec<R>` which are concatenated in chunk
/// order, so results need no `Option` wrapping or unwrap re-scan.
pub fn par_map<R: Send, F>(n: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
{
    let threads = num_threads();
    if n <= 1 || threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let f = &f;
                let end = (start + chunk).min(n);
                s.spawn(move || (start..end).map(f).collect::<Vec<R>>())
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("par_map worker panicked"));
        }
    });
    out
}

/// Applies `f` to consecutive `chunk`-sized windows of `items` in parallel;
/// `f` receives the chunk index and the chunk (the last one may be shorter).
/// Used to fill row-major matrices row-by-row without collecting row
/// references.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn par_chunks_mut<T: Send, F>(items: &mut [T], chunk: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let total = items.len().div_ceil(chunk);
    let threads = num_threads();
    if total <= 1 || threads <= 1 {
        for (i, c) in items.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    // Chunks-per-thread groups stay contiguous so indices are recoverable.
    let per_thread = total.div_ceil(threads);
    std::thread::scope(|s| {
        for (g, group) in items.chunks_mut(chunk * per_thread).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, c) in group.chunks_mut(chunk).enumerate() {
                    f(g * per_thread + i, c);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(257, |i| i * i);
        for (i, x) in out.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_chunks_mut_indexes_every_chunk() {
        let mut v: Vec<u64> = vec![0; 103]; // deliberately not a multiple
        par_chunks_mut(&mut v, 10, |ci, chunk| {
            for (o, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 10 + o) as u64;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
        // Degenerate cases: empty slice, chunk larger than the slice.
        par_chunks_mut(&mut [] as &mut [u64], 4, |_, _| panic!("no chunks"));
        let mut one = vec![7u64; 3];
        par_chunks_mut(&mut one, 100, |ci, c| {
            assert_eq!(ci, 0);
            assert_eq!(c.len(), 3);
        });
    }

    /// Busy work whose length varies with `i`, so blocks finish out of
    /// index order.
    fn spin(i: usize) {
        let mut x = i as u64;
        for _ in 0..(i * 7919 % 13) * 20_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
    }

    /// Terms of wildly different magnitude: their f32 sum depends on order.
    fn term(i: usize) -> f32 {
        let mantissa = (i * 2_654_435_761 % 1000) as f32 + 0.5;
        let sign = if i.is_multiple_of(3) { -1.0 } else { 1.0 };
        const SCALES: [f32; 9] = [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4];
        sign * mantissa * SCALES[i % 9]
    }

    #[test]
    fn par_zip_fold_folds_each_index_once_in_order() {
        for threads in 1..=4 {
            for n in [0, 1, FOLD_BLOCK - 1, FOLD_BLOCK + 1, 3 * FOLD_BLOCK + 5] {
                let ctx = format!("{threads} threads, {n} indices");
                // With two or more blocks on two or more workers, index 0
                // waits until block 1 (on worker 1) is worked, so the fold
                // turn must hold block 1 back whatever the scheduler does.
                let block1_last =
                    (threads > 1 && n > FOLD_BLOCK).then(|| n.min(2 * FOLD_BLOCK) - 1);
                let block1_done = AtomicBool::new(false);
                let mut worked = vec![0u32; n];
                let mut folded = vec![0u32; n];
                // Each lane holds the indices it worked and has not folded.
                let mut lanes: Vec<Vec<usize>> = Vec::new();
                let mut acc = (Vec::new(), 0.0f32);
                zip_fold_on(
                    threads,
                    &mut worked,
                    &mut folded,
                    &mut lanes,
                    &mut acc,
                    |lane, i, w, _| {
                        if i == 0 && block1_last.is_some() {
                            while !block1_done.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                        spin(i);
                        *w += 1;
                        lane.push(i);
                        if Some(i) == block1_last {
                            block1_done.store(true, Ordering::Release);
                        }
                    },
                    |(order, sum), lane, i, w, f| {
                        assert_eq!(*w, 1, "{ctx}: index {i} folded before its work");
                        let at = lane.iter().position(|&j| j == i);
                        lane.swap_remove(at.expect("folded on another worker's lane"));
                        *f += 1;
                        order.push(i);
                        *sum += term(i);
                    },
                );
                assert!(worked.iter().all(|&c| c == 1), "{ctx}: worked {worked:?}");
                assert!(folded.iter().all(|&c| c == 1), "{ctx}: folded {folded:?}");
                assert_eq!(acc.0, (0..n).collect::<Vec<_>>(), "{ctx}: fold order");
                let serial = (0..n).fold(0.0f32, |s, i| s + term(i));
                assert_eq!(acc.1.to_bits(), serial.to_bits(), "{ctx}: sum bits");
                assert!(lanes.iter().all(Vec::is_empty), "{ctx}: an index was not folded");
            }
        }
        // The fold above has teeth: another order changes the bits.
        let n = 3 * FOLD_BLOCK + 5;
        let forward = (0..n).fold(0.0f32, |s, i| s + term(i));
        let backward = (0..n).rev().fold(0.0f32, |s, i| s + term(i));
        assert_ne!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    #[should_panic(expected = "par_zip_fold")]
    fn par_zip_fold_propagates_a_worker_panic_instead_of_hanging() {
        // Block 1 never gets folded; the worker holding block 2 must not
        // wait for it forever.
        let mut a = vec![0u8; 3 * FOLD_BLOCK];
        let mut b = vec![0u8; 3 * FOLD_BLOCK];
        zip_fold_on(
            2,
            &mut a,
            &mut b,
            &mut Vec::<()>::new(),
            &mut (),
            |(), i, _, _| assert_ne!(i, FOLD_BLOCK, "work failed"),
            |(), (), _, _, _| {},
        );
    }

    #[test]
    fn par_zip_mut_pairs_correctly() {
        let mut a: Vec<usize> = (0..500).collect();
        let mut b: Vec<usize> = vec![0; 500];
        par_zip_mut(&mut a, &mut b, |i, x, y| {
            *x += 1;
            *y = i * 10;
        });
        for i in 0..500 {
            assert_eq!(a[i], i + 1);
            assert_eq!(b[i], i * 10);
        }
    }
}
