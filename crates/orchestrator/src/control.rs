//! Campaign lifecycle control and admission throttling.
//!
//! Two hooks let a long-lived service drive the dispatcher without
//! touching its internals:
//!
//! * [`CampaignControl`] — a shared pause/resume/cancel switch consulted
//!   at every admission point. Pausing blocks new admissions (in-flight
//!   instances finish; the campaign idles); cancelling halts admission
//!   exactly like a breaker trip: in-flight work drains, the journal gets
//!   its `campaign_closed` record, and the campaign is terminal.
//! * [`AdmissionSlots`] — a capacity gate acquired around each instance
//!   execution. The daemon's per-tenant quota book implements it so one
//!   tenant's campaigns cannot monopolise the worker pool; a standalone
//!   run uses no gate at all.
//!
//! Both are deliberately tiny trait/struct surfaces: the dispatcher knows
//! *when* to ask, the service layer decides *what* the answer is.

use std::sync::{Arc, Condvar, Mutex};

/// Lifecycle state of a controlled campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlState {
    /// Admitting instances normally.
    Running,
    /// Admission suspended; in-flight instances finish and the campaign
    /// idles until resumed or cancelled.
    Paused,
    /// Terminal: admission halts, in-flight work drains, the journal is
    /// closed. A cancelled campaign is never resumed.
    Cancelled,
}

impl ControlState {
    /// Status label used in API responses and journals.
    pub fn label(&self) -> &'static str {
        match self {
            ControlState::Running => "running",
            ControlState::Paused => "paused",
            ControlState::Cancelled => "cancelled",
        }
    }
}

struct ControlInner {
    state: Mutex<ControlState>,
    cond: Condvar,
}

/// Shared pause/resume/cancel switch for one campaign. Clone-cheap; the
/// HTTP front-end holds one end, the dispatcher consults the other at
/// every admission point.
#[derive(Clone)]
pub struct CampaignControl {
    inner: Arc<ControlInner>,
}

impl Default for CampaignControl {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignControl {
    /// A control in the `Running` state.
    pub fn new() -> Self {
        CampaignControl {
            inner: Arc::new(ControlInner {
                state: Mutex::new(ControlState::Running),
                cond: Condvar::new(),
            }),
        }
    }

    /// Current state.
    pub fn state(&self) -> ControlState {
        *self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Suspend admission. No-op on a cancelled campaign (cancel is
    /// terminal). Returns `true` if the state changed.
    pub fn pause(&self) -> bool {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if *state == ControlState::Running {
            *state = ControlState::Paused;
            true
        } else {
            false
        }
    }

    /// Resume a paused campaign. Returns `true` if the state changed.
    pub fn resume(&self) -> bool {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if *state == ControlState::Paused {
            *state = ControlState::Running;
            self.inner.cond.notify_all();
            true
        } else {
            false
        }
    }

    /// Cancel the campaign: all admission points return "halt" from now
    /// on, including ones currently blocked in a pause.
    pub fn cancel(&self) -> bool {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if *state == ControlState::Cancelled {
            false
        } else {
            *state = ControlState::Cancelled;
            self.inner.cond.notify_all();
            true
        }
    }

    /// True once [`CampaignControl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.state() == ControlState::Cancelled
    }

    /// Admission checkpoint: blocks while paused, then reports whether
    /// admission may continue (`false` once cancelled).
    pub fn admit(&self) -> bool {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        while *state == ControlState::Paused {
            state = self
                .inner
                .cond
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        *state != ControlState::Cancelled
    }
}

/// Capacity gate acquired around each instance execution. Implementations
/// must be deadlock-free under the dispatcher's usage: one `acquire` per
/// running instance, matched by exactly one `release`, with no nesting.
pub trait AdmissionSlots: Send + Sync {
    /// Block until a slot is available and claim it.
    fn acquire(&self);
    /// Return a previously claimed slot.
    fn release(&self);
    /// The most slots one caller can ever hold at once: the dispatcher
    /// starts no more workers per slot (more could only wait in `acquire`).
    fn capacity(&self) -> usize {
        usize::MAX
    }
}

/// RAII guard pairing [`AdmissionSlots::acquire`] with its release.
pub struct SlotGuard<'a> {
    slots: &'a dyn AdmissionSlots,
}

impl<'a> SlotGuard<'a> {
    /// Acquire a slot, releasing it when the guard drops.
    pub fn acquire(slots: &'a dyn AdmissionSlots) -> SlotGuard<'a> {
        slots.acquire();
        SlotGuard { slots }
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.slots.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn lifecycle_transitions() {
        let ctl = CampaignControl::new();
        assert_eq!(ctl.state(), ControlState::Running);
        assert!(ctl.admit());
        assert!(ctl.pause());
        assert!(!ctl.pause(), "double pause is a no-op");
        assert_eq!(ctl.state(), ControlState::Paused);
        assert!(ctl.resume());
        assert!(!ctl.resume());
        assert!(ctl.cancel());
        assert!(!ctl.cancel());
        assert!(!ctl.pause(), "cancel is terminal");
        assert!(!ctl.resume(), "cancel is terminal");
        assert!(!ctl.admit());
    }

    #[test]
    fn admit_blocks_while_paused_and_unblocks_on_resume() {
        let ctl = CampaignControl::new();
        ctl.pause();
        let admitted = Arc::new(AtomicUsize::new(0));
        let (ctl2, admitted2) = (ctl.clone(), admitted.clone());
        let handle = std::thread::spawn(move || {
            let ok = ctl2.admit();
            admitted2.store(1 + ok as usize, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(admitted.load(Ordering::SeqCst), 0, "blocked while paused");
        ctl.resume();
        handle.join().unwrap();
        assert_eq!(admitted.load(Ordering::SeqCst), 2, "admitted after resume");
    }

    #[test]
    fn cancel_releases_a_paused_admission_with_a_veto() {
        let ctl = CampaignControl::new();
        ctl.pause();
        let ctl2 = ctl.clone();
        let handle = std::thread::spawn(move || ctl2.admit());
        std::thread::sleep(Duration::from_millis(10));
        ctl.cancel();
        assert!(!handle.join().unwrap(), "cancelled admission is vetoed");
    }
}
