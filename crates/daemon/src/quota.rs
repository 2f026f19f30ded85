//! Per-tenant admission quotas.
//!
//! The dispatcher executes instances on a worker pool and asks an
//! [`AdmissionSlots`] for a permit around every execution. The daemon
//! gives each campaign a tenant-tagged handle onto one shared
//! [`QuotaBook`], so concurrent campaigns from many tenants contend for
//! a single global pool while each tenant is capped at its own quota.
//!
//! A permit is granted at once — no ticket, no wake-up — when nobody is
//! queued, the pool has room and the tenant is under quota; otherwise the
//! caller takes a ticket and waits. Waiting is FIFO with tenant headroom:
//! permits are granted in arrival order (the immediate grant needs an
//! empty queue, so it overtakes no one), except that a waiter whose tenant
//! is at quota is skipped so a saturated tenant cannot head-of-line-block
//! everyone else. High-water marks are recorded per tenant and globally —
//! the e2e tests use them to prove quotas actually bound concurrency while
//! the pool saturates.

use cornet_orchestrator::AdmissionSlots;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Point-in-time view of one tenant's admission accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuotaSnapshot {
    /// Permits currently held.
    pub in_flight: usize,
    /// Most permits ever held at once.
    pub high_water: usize,
    /// The tenant's cap.
    pub quota: usize,
    /// Waiters currently queued.
    pub waiting: usize,
}

#[derive(Default)]
struct TenantBook {
    in_flight: usize,
    high_water: usize,
}

struct BookState {
    tenants: BTreeMap<String, TenantBook>,
    /// Arrival-ordered wait queue of (ticket, tenant).
    queue: Vec<(u64, String)>,
    next_ticket: u64,
    global_in_flight: usize,
    global_high_water: usize,
}

struct BookInner {
    state: Mutex<BookState>,
    /// Signalled only while `queue` is non-empty.
    cond: Condvar,
    pool: usize,
    default_quota: usize,
    overrides: BTreeMap<String, usize>,
}

/// The shared admission ledger: a global execution pool carved into
/// per-tenant quotas.
pub struct QuotaBook {
    inner: Arc<BookInner>,
}

impl QuotaBook {
    /// A book with `pool` global permits and `default_quota` per tenant;
    /// `overrides` replaces the default for named tenants.
    pub fn new(pool: usize, default_quota: usize, overrides: BTreeMap<String, usize>) -> QuotaBook {
        QuotaBook {
            inner: Arc::new(BookInner {
                state: Mutex::new(BookState {
                    tenants: BTreeMap::new(),
                    queue: Vec::new(),
                    next_ticket: 0,
                    global_in_flight: 0,
                    global_high_water: 0,
                }),
                cond: Condvar::new(),
                pool: pool.max(1),
                default_quota: default_quota.max(1),
                overrides: overrides.into_iter().map(|(t, q)| (t, q.max(1))).collect(),
            }),
        }
    }

    /// The cap applied to `tenant`.
    pub fn quota_for(&self, tenant: &str) -> usize {
        self.inner.quota_for(tenant)
    }

    /// A tenant-tagged [`AdmissionSlots`] handle for one campaign.
    pub fn handle(&self, tenant: &str) -> Arc<TenantSlots> {
        Arc::new(TenantSlots {
            inner: Arc::clone(&self.inner),
            tenant: tenant.to_string(),
        })
    }

    /// Per-tenant accounting, for the API's quota listing.
    pub fn snapshot(&self) -> BTreeMap<String, QuotaSnapshot> {
        let state = self.inner.lock();
        state
            .tenants
            .iter()
            .map(|(tenant, book)| {
                (
                    tenant.clone(),
                    QuotaSnapshot {
                        in_flight: book.in_flight,
                        high_water: book.high_water,
                        quota: self.quota_for(tenant),
                        waiting: state.queue.iter().filter(|(_, t)| t == tenant).count(),
                    },
                )
            })
            .collect()
    }

    /// (in_flight, high_water, pool) for the whole book.
    pub fn global(&self) -> (usize, usize, usize) {
        let state = self.inner.lock();
        (
            state.global_in_flight,
            state.global_high_water,
            self.inner.pool,
        )
    }
}

/// One campaign's view of the shared [`QuotaBook`]: every permit it
/// acquires is charged to its tenant.
pub struct TenantSlots {
    inner: Arc<BookInner>,
    tenant: String,
}

impl BookInner {
    /// Poison is ignored: the state is counters and a queue, each updated
    /// in one step, so no panic can leave it half-written.
    fn lock(&self) -> MutexGuard<'_, BookState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quota_for(&self, tenant: &str) -> usize {
        self.overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }

    /// Whether `tenant` holds fewer permits than its quota.
    fn under_quota(&self, state: &BookState, tenant: &str) -> bool {
        state.tenants.get(tenant).map_or(0, |book| book.in_flight) < self.quota_for(tenant)
    }

    /// The first queued ticket that could be granted right now, honouring
    /// arrival order but skipping tenants that are at quota.
    fn first_eligible(&self, state: &BookState) -> Option<u64> {
        if state.global_in_flight >= self.pool {
            return None;
        }
        state
            .queue
            .iter()
            .find(|(_, tenant)| self.under_quota(state, tenant))
            .map(|(ticket, _)| *ticket)
    }
}

impl AdmissionSlots for TenantSlots {
    fn acquire(&self) {
        let inner = &*self.inner;
        let mut state = inner.lock();
        let at_once = state.queue.is_empty()
            && state.global_in_flight < inner.pool
            && inner.under_quota(&state, &self.tenant);
        if !at_once {
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            state.queue.push((ticket, self.tenant.clone()));
            while inner.first_eligible(&state) != Some(ticket) {
                state = inner.cond.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.queue.retain(|(t, _)| *t != ticket);
        }
        state.global_in_flight += 1;
        state.global_high_water = state.global_high_water.max(state.global_in_flight);
        let book = state.tenants.entry(self.tenant.clone()).or_default();
        book.in_flight += 1;
        book.high_water = book.high_water.max(book.in_flight);
        // A ticket behind this one may be the first eligible now.
        if !state.queue.is_empty() {
            inner.cond.notify_all();
        }
    }

    fn release(&self) {
        let inner = &*self.inner;
        let mut state = inner.lock();
        state.global_in_flight = state.global_in_flight.saturating_sub(1);
        if let Some(book) = state.tenants.get_mut(&self.tenant) {
            book.in_flight = book.in_flight.saturating_sub(1);
        }
        if !state.queue.is_empty() {
            inner.cond.notify_all();
        }
    }

    fn capacity(&self) -> usize {
        self.inner.quota_for(&self.tenant).min(self.inner.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn tenant_quota_caps_concurrency_while_pool_saturates() {
        let book = QuotaBook::new(4, 2, BTreeMap::new());
        let a = book.handle("alpha");
        let b = book.handle("beta");
        thread::scope(|scope| {
            for _ in 0..8 {
                for slots in [&a, &b] {
                    let slots = Arc::clone(slots);
                    scope.spawn(move || {
                        slots.acquire();
                        thread::sleep(Duration::from_millis(5));
                        slots.release();
                    });
                }
            }
        });
        let snap = book.snapshot();
        assert!(snap["alpha"].high_water <= 2);
        assert!(snap["beta"].high_water <= 2);
        assert_eq!(snap["alpha"].in_flight + snap["beta"].in_flight, 0);
        let (in_flight, high_water, pool) = book.global();
        assert_eq!(in_flight, 0);
        assert!(high_water <= pool);
        assert!(
            high_water >= 3,
            "two tenants of quota 2 should overlap past a single quota (saw {high_water})"
        );
    }

    #[test]
    fn override_replaces_the_default_quota() {
        let mut overrides = BTreeMap::new();
        overrides.insert("big".into(), 7);
        let book = QuotaBook::new(16, 2, overrides);
        assert_eq!(book.quota_for("big"), 7);
        assert_eq!(book.quota_for("anyone-else"), 2);
    }
}
