//! Arrival-order fairness of the quota book survives its immediate grant.
//!
//! `TenantSlots::acquire` grants at once when nobody is queued, the pool
//! has room and the tenant is under quota; otherwise it takes a ticket.
//! These tests force the interleavings that would tell a grant that
//! overtakes a waiter from one that does not — with channels and the
//! book's own `waiting` count, never with a sleep.

// Test harness: threads report grants and wait on go signals over channels (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet::daemon::{QuotaBook, TenantSlots};
use cornet::orchestrator::AdmissionSlots;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Spin until `tenant` has `n` waiters queued on the book.
fn until_waiting(book: &QuotaBook, tenant: &str, n: usize) {
    while book.snapshot().get(tenant).map_or(0, |s| s.waiting) != n {
        std::thread::yield_now();
    }
}

fn overrides(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
    pairs.iter().map(|&(t, q)| (t.to_string(), q)).collect()
}

#[test]
fn a_later_arrival_under_quota_does_not_overtake_a_queued_waiter() {
    // Pool of one: alpha holds it, beta queues. Alpha then releases and
    // arrives again at once — under quota, the pool just freed, beta not
    // yet awake. The permit is beta's all the same.
    let book = QuotaBook::new(1, 2, BTreeMap::new());
    let (alpha, beta) = (book.handle("alpha"), book.handle("beta"));
    // The ledger lists a tenant from its first permit on.
    beta.acquire();
    beta.release();
    alpha.acquire();
    let (granted_tx, granted) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        beta.acquire();
        granted_tx.send("beta").unwrap();
        beta.release();
    });
    until_waiting(&book, "beta", 1);
    alpha.release();
    alpha.acquire();
    assert_eq!(
        granted.try_recv(),
        Ok("beta"),
        "alpha's second permit was granted before the waiter that arrived first"
    );
    alpha.release();
    waiter.join().unwrap();
    let snap = book.snapshot();
    assert_eq!((snap["alpha"].in_flight, snap["alpha"].waiting), (0, 0));
    assert_eq!((snap["beta"].in_flight, snap["beta"].waiting), (0, 0));
    assert_eq!(book.global(), (0, 1, 1));
}

#[test]
fn queued_waiters_are_granted_in_arrival_order_across_tenants() {
    // Pool of two, both held. Beta queues first, alpha (one of its two
    // permits in use) second; each release admits exactly the next in line.
    let book = QuotaBook::new(2, 2, BTreeMap::new());
    let (alpha, beta) = (book.handle("alpha"), book.handle("beta"));
    alpha.acquire();
    beta.acquire();
    let (granted_tx, granted) = mpsc::channel();
    let mut waiters = Vec::new();
    for (name, slots) in [("beta", &beta), ("alpha", &alpha)] {
        let (slots, tx) = (Arc::clone(slots), granted_tx.clone());
        let (go_tx, go) = mpsc::channel::<()>();
        waiters.push((
            go_tx,
            std::thread::spawn(move || {
                slots.acquire();
                tx.send(name).unwrap();
                go.recv().unwrap();
                slots.release();
            }),
        ));
        until_waiting(&book, name, 1);
    }
    alpha.release();
    assert_eq!(granted.recv_timeout(Duration::from_secs(30)), Ok("beta"));
    assert_eq!(
        book.snapshot()["alpha"].waiting,
        1,
        "alpha is still in line"
    );
    beta.release();
    assert_eq!(granted.recv_timeout(Duration::from_secs(30)), Ok("alpha"));
    for (go, waiter) in waiters {
        go.send(()).unwrap();
        waiter.join().unwrap();
    }
    assert_eq!(book.global(), (0, 2, 2));
}

#[test]
fn a_saturated_tenant_does_not_block_others() {
    let book = QuotaBook::new(4, 4, overrides(&[("hog", 1)]));
    let (hog, other) = (book.handle("hog"), book.handle("other"));
    hog.acquire();
    let queued = {
        let hog = Arc::clone(&hog);
        std::thread::spawn(move || {
            hog.acquire();
            hog.release();
        })
    };
    until_waiting(&book, "hog", 1);
    // The queue is not empty, so `other` takes a ticket — and is the first
    // eligible one, because the hog's waiter is at quota.
    let (done_tx, done) = mpsc::channel();
    let passer = std::thread::spawn(move || {
        other.acquire();
        other.release();
        done_tx.send(()).unwrap();
    });
    assert_eq!(
        done.recv_timeout(Duration::from_secs(30)),
        Ok(()),
        "a tenant under quota waited behind a saturated one"
    );
    assert_eq!(book.snapshot()["hog"].waiting, 1);
    hog.release();
    queued.join().unwrap();
    passer.join().unwrap();
}

#[test]
fn capacity_is_the_quota_bounded_by_the_pool() {
    let book = QuotaBook::new(3, 2, overrides(&[("big", 7), ("small", 1), ("zero", 0)]));
    assert_eq!(book.handle("anyone").capacity(), 2);
    assert_eq!(book.handle("big").capacity(), 3, "the pool bounds a quota");
    assert_eq!(book.handle("small").capacity(), 1);
    assert_eq!(book.handle("zero").capacity(), 1, "a quota is at least one");
    assert_eq!(book.quota_for("big"), 7);
}

/// Splitmix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

#[test]
fn random_interleavings_never_exceed_a_quota_or_the_pool() {
    const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
    const QUOTAS: [usize; 3] = [1, 2, 3];
    const POOL: usize = 4;
    for seed in 0..8u64 {
        let book = QuotaBook::new(POOL, 2, overrides(&[("alpha", 1), ("gamma", 3)]));
        let held: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for (t, tenant) in TENANTS.iter().enumerate() {
                for thread in 0..4u64 {
                    let slots: Arc<TenantSlots> = book.handle(tenant);
                    let (held, total) = (&held[t], &total);
                    let mut rng = Rng(seed << 8 | (t as u64) << 4 | thread);
                    scope.spawn(move || {
                        for _ in 0..200 {
                            slots.acquire();
                            let mine = held.fetch_add(1, Ordering::SeqCst) + 1;
                            let all = total.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(mine <= QUOTAS[t], "{tenant} held {mine}");
                            assert!(all <= POOL, "{all} permits out of a pool of {POOL}");
                            for _ in 0..rng.below(4) {
                                std::thread::yield_now();
                            }
                            total.fetch_sub(1, Ordering::SeqCst);
                            held.fetch_sub(1, Ordering::SeqCst);
                            slots.release();
                            for _ in 0..rng.below(3) {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            }
        });
        // Every thread finished (the scope joined them): nobody was left
        // parked behind a wake-up that was never sent.
        let (in_flight, high_water, _) = book.global();
        assert_eq!(in_flight, 0, "seed {seed}");
        assert!(high_water <= POOL, "seed {seed}");
        for (tenant, quota) in TENANTS.iter().zip(QUOTAS) {
            let snap = &book.snapshot()[*tenant];
            assert_eq!((snap.in_flight, snap.waiting), (0, 0), "seed {seed}");
            assert!(snap.high_water <= quota, "seed {seed}: {tenant}");
        }
    }
}
