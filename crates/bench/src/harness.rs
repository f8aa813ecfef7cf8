//! Parallel run helper shared by the runner's executors.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(0..n)` across up to `threads` OS threads, preserving result
/// order. Each job must be independent (every simulator run owns its
/// state, so this is trivially true).
///
/// The pool defaults to the machine's available parallelism;
/// `QPRAC_JOBS` caps it (useful on 2-core CI containers and laptops
/// where full-width figure sweeps oversubscribe the machine).
pub fn parallel<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = pool_width(n);
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots: Vec<std::sync::Mutex<&mut Option<T>>> =
        out.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                **slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    out.into_iter().map(|v| v.expect("job completed")).collect()
}

/// Threads [`parallel`] runs `n` jobs on: the machine's available
/// parallelism, capped by `QPRAC_JOBS` and by `n`.
pub fn pool_width(n: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8);
    thread_count(n, sim::env_usize("QPRAC_JOBS", 0), available)
}

/// Worker-thread count for `n` jobs: the `QPRAC_JOBS` cap (0 = uncapped)
/// bounded by the machine's available parallelism and the job count.
fn thread_count(n: usize, cap: usize, available: usize) -> usize {
    let width = if cap == 0 {
        available
    } else {
        cap.min(available)
    };
    width.min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let v = parallel(100, |i| i * 2);
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_zero_jobs() {
        let v: Vec<u32> = parallel(0, |_| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn qprac_jobs_caps_but_never_raises_the_pool() {
        // Uncapped: machine width (bounded by job count).
        assert_eq!(thread_count(100, 0, 8), 8);
        assert_eq!(thread_count(3, 0, 8), 3);
        // Capped below the machine width.
        assert_eq!(thread_count(100, 2, 8), 2);
        // A cap above the machine width does not oversubscribe.
        assert_eq!(thread_count(100, 64, 8), 8);
        // Degenerate inputs stay sane.
        assert_eq!(thread_count(0, 2, 8), 1);
    }
}
