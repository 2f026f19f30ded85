//! The workspace's one data-parallel primitive: an ordered, bounded,
//! panic-propagating parallel map over a slice, on `std::thread::scope`.
//!
//! * **Ordered** — results come back in input order whichever worker
//!   computed them.
//! * **Bounded** — at most [`workers`] closures run at once. Items are
//!   handed out one at a time through an atomic cursor, so one slow item
//!   does not stall a statically assigned chunk behind it.
//! * **Panic-propagating** — a panicking closure aborts the map with the
//!   original payload.
//!
//! With one hardware thread (or one item) the map runs inline on the
//! caller's thread, so single-core CI behaves exactly like
//! `iter().map().collect()`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads a [`map_ordered`] call uses at most.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`workers`] threads and return the
/// results in input order.
pub fn map_ordered<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let n = items.len();
    let threads = workers().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (f, cursor) = (&f, &cursor);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        local.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled = map_ordered(&xs, |x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let xs: Vec<u32> = Vec::new();
        assert!(map_ordered(&xs, |x| x + 1).is_empty());
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Make early items slow so late items finish first on any
        // multi-threaded run; order must survive.
        let xs: Vec<u64> = (0..64).collect();
        let ys = map_ordered(&xs, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(ys, xs);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        map_ordered(&[1, 2, 3], |&x| if x == 2 { panic!("boom") } else { x });
    }

    #[test]
    fn never_runs_more_than_workers_closures_at_once() {
        let (running, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let xs: Vec<usize> = (0..1000).collect();
        let ys = map_ordered(&xs, |&x| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            running.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(ys, xs);
        let peak = high_water.load(Ordering::SeqCst);
        assert!((1..=workers()).contains(&peak), "peak {peak}");
    }
}
