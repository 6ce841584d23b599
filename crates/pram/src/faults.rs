//! Deterministic fault injection for the failure-model test harness.
//!
//! Each context's [`Workspace`](crate::Workspace) owns one [`Faults`]
//! injector (reached through [`Workspace::faults`](crate::Workspace::faults)),
//! so arming it affects that context alone and concurrent tests need no
//! lock.  Like the per-context [`crate::trace`] recorder it is **zero-cost
//! when disabled** (a single relaxed atomic load per hook, the lock taken
//! only while the gate is on) and charges nothing to the cost model in any
//! state, so arming it never perturbs tracked work/depth.
//!
//! Two hook families thread through the stack:
//!
//! * the checkout hook — fired by `Workspace::take` **before** any counter
//!   increments or pool pops, so an injected fault at a checkout leaves the
//!   workspace counters reconciled (`outstanding()` unaffected);
//! * the engine-pass hook — fired by [`Ctx::pass`](crate::Ctx::pass), which
//!   every `sfcp-parprim` engine primitive calls at its entry to open its
//!   trace span.  The hook is crate-private, so no pass can announce itself
//!   without the span.
//!
//! A test *arms* an injection with [`Faults::arm`]: when the `k`-th event at
//! the chosen [`FaultSite`] occurs, the hook unwinds with a typed
//! [`InjectedFault`] payload, which the `try_` wrappers downcast into
//! [`crate::Error::Injected`].  The unwind starts with
//! [`std::panic::resume_unwind`], which skips the process-wide panic hook, so
//! a sweep of thousands of injections prints nothing.
//! [`FaultKind::AllocFail`] simulates an allocation failure at that point
//! (real Rust OOM aborts the process, so the simulation unwinds with the
//! typed payload instead); both kinds exercise the identical
//! unwind-recovery path.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Where an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The `k`-th `Workspace::take` checkout.
    Checkout,
    /// The `k`-th engine-primitive entry in `sfcp-parprim`.
    EnginePass,
}

/// What failure an injection simulates.  Both kinds unwind with the typed
/// [`InjectedFault`] payload; the kind is carried through to the surfaced
/// error so tests can distinguish the scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A forced panic (an invariant violation mid-pass).
    Panic,
    /// A simulated allocation failure (a checkout or engine pass that could
    /// not obtain memory).
    AllocFail,
}

/// The panic payload of an injected fault — the typed value `try_` wrappers
/// downcast into [`crate::Error::Injected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Which hook fired.
    pub site: FaultSite,
    /// The zero-based event index at which it fired.
    pub index: u64,
    /// The simulated failure kind.
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FaultKind::Panic => "forced panic",
            FaultKind::AllocFail => "simulated allocation failure",
        };
        let site = match self.site {
            FaultSite::Checkout => "workspace checkout",
            FaultSite::EnginePass => "engine pass",
        };
        write!(f, "injected fault: {kind} at {site} #{}", self.index)
    }
}

#[derive(Debug, Default)]
struct FaultState {
    checkouts: u64,
    passes: u64,
    armed: Option<(FaultSite, u64, FaultKind)>,
}

/// One context's fault injector: an enable gate plus the event counters and
/// the armed injection.  The default injector is disabled.
#[derive(Debug, Default)]
pub struct Faults {
    /// Fast-path gate: hooks return after one relaxed load while the
    /// injector is disabled, so production runs never take the state lock.
    /// The gate publishes no data: the state is only read under its lock.
    active: AtomicBool,
    state: Mutex<FaultState>,
}

impl Faults {
    /// Disable the injector and zero the event counters.
    pub fn reset(&self) {
        self.restart(None, false);
    }

    /// Enable counting: hooks tally events without firing, so a test can
    /// learn how many injection points a workload has (read them with
    /// [`Faults::counts`]).
    pub fn start_counting(&self) {
        self.restart(None, true);
    }

    /// Events observed since the last [`Faults::start_counting`] /
    /// [`Faults::arm`]: `(checkouts, engine_passes)`.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.checkouts, st.passes)
    }

    /// Arm an injection: the `index`-th (zero-based) event at `site` unwinds
    /// with an [`InjectedFault`] payload of the given `kind`.  Counters
    /// restart at zero.  The injection fires at most once; [`Faults::reset`]
    /// disarms.
    pub fn arm(&self, site: FaultSite, index: u64, kind: FaultKind) {
        self.restart(Some((site, index, kind)), true);
    }

    fn restart(&self, armed: Option<(FaultSite, u64, FaultKind)>, active: bool) {
        *self.state.lock() = FaultState {
            checkouts: 0,
            passes: 0,
            armed,
        };
        self.active.store(active, Ordering::SeqCst);
    }

    /// Hook: a workspace checkout is about to happen.  Called by
    /// `Workspace::take` before any counter increment or pool pop.
    #[inline]
    pub(crate) fn on_checkout(&self) {
        if self.active.load(Ordering::Relaxed) {
            self.hit(FaultSite::Checkout);
        }
    }

    /// Hook: an engine primitive is entered.  Called only by `Ctx::pass`,
    /// which opens the pass's span right after.
    #[inline]
    pub(crate) fn on_engine_pass(&self) {
        if self.active.load(Ordering::Relaxed) {
            self.hit(FaultSite::EnginePass);
        }
    }

    #[cold]
    fn hit(&self, site: FaultSite) {
        let fired = {
            let mut st = self.state.lock();
            let counter = match site {
                FaultSite::Checkout => &mut st.checkouts,
                FaultSite::EnginePass => &mut st.passes,
            };
            let index = *counter;
            *counter += 1;
            match st.armed {
                Some((armed_site, armed_index, kind))
                    if armed_site == site && armed_index == index =>
                {
                    st.armed = None;
                    Some(InjectedFault { site, index, kind })
                }
                _ => None,
            }
        };
        // Unwind outside the lock so the state mutex is never held across
        // the unwind, and without the panic hook: an injected fault is an
        // expected event, not a crash report.
        if let Some(fault) = fired {
            std::panic::resume_unwind(Box::new(fault));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_count_nothing() {
        let faults = Faults::default();
        faults.on_checkout();
        faults.on_engine_pass();
        assert_eq!(faults.counts(), (0, 0));
    }

    #[test]
    fn counting_tallies_both_sites() {
        let faults = Faults::default();
        faults.start_counting();
        faults.on_checkout();
        faults.on_checkout();
        faults.on_engine_pass();
        assert_eq!(faults.counts(), (2, 1));
        faults.reset();
        assert_eq!(faults.counts(), (0, 0));
    }

    #[test]
    fn armed_fault_fires_at_exact_index_with_typed_payload() {
        let faults = Faults::default();
        faults.arm(FaultSite::Checkout, 2, FaultKind::AllocFail);
        faults.on_checkout();
        faults.on_checkout();
        faults.on_engine_pass(); // different site: never fires
        let caught = std::panic::catch_unwind(|| faults.on_checkout()).unwrap_err();
        let fault = caught
            .downcast::<InjectedFault>()
            .expect("payload must be the typed fault");
        assert_eq!(
            *fault,
            InjectedFault {
                site: FaultSite::Checkout,
                index: 2,
                kind: FaultKind::AllocFail,
            }
        );
        // One-shot: the same index does not re-fire.
        faults.on_checkout();
    }
}
