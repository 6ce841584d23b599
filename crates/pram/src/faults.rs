//! Deterministic fault injection for the failure-model test harness.
//!
//! A process-global layer that is **zero-cost when disabled** (a single
//! relaxed atomic load per hook) and charges nothing to the cost model in any
//! state, so arming it never perturbs tracked work/depth.  Being global, it
//! is shared by every context in the process (unlike the per-context
//! [`crate::trace`] recorder); see the serialization note below.
//!
//! Two hook families thread through the stack:
//!
//! * [`on_checkout`] — called by `Workspace::take` **before** any counter
//!   increments or pool pops, so an injected fault at a checkout leaves the
//!   workspace counters reconciled (`outstanding()` unaffected);
//! * [`on_engine_pass`] — called at the entry of every `sfcp-parprim` engine
//!   primitive that checks out buffers (list ranking, pointer jumping, CSR
//!   build, sorting, scans, compaction, scatters, Euler-tour passes).
//!
//! A test *arms* an injection with [`arm`]: when the `k`-th event at the
//! chosen [`FaultSite`] occurs, the hook panics with a typed
//! [`InjectedFault`] payload, which the `try_` wrappers downcast into
//! [`crate::Error::Injected`].  [`FaultKind::AllocFail`] simulates an
//! allocation failure at that point (real Rust OOM aborts the process, so
//! the simulation unwinds with the typed payload instead); both kinds
//! exercise the identical unwind-recovery path.
//!
//! The state is process-global, so tests that use this module must
//! serialize themselves (e.g. behind a `static Mutex`) — the fault-injection
//! integration suite runs in its own test binary for exactly that reason.

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

struct FaultState {
    checkouts: u64,
    passes: u64,
    armed: Option<(FaultSite, u64, FaultKind)>,
}

/// Fast-path gate: hooks return after one relaxed load while the layer is
/// disabled, so production runs never take the state lock.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<FaultState> = Mutex::new(FaultState {
    checkouts: 0,
    passes: 0,
    armed: None,
});

/// Disable the layer and zero the event counters.
pub fn reset() {
    ACTIVE.store(false, Ordering::SeqCst);
    let mut st = STATE.lock();
    st.checkouts = 0;
    st.passes = 0;
    st.armed = None;
}

/// Enable counting: hooks tally events without firing, so a test can learn
/// how many injection points a workload has (read them with [`counts`]).
pub fn start_counting() {
    let mut st = STATE.lock();
    st.checkouts = 0;
    st.passes = 0;
    st.armed = None;
    drop(st);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Events observed since the last [`start_counting`] / [`arm`]:
/// `(checkouts, engine_passes)`.
#[must_use]
pub fn counts() -> (u64, u64) {
    let st = STATE.lock();
    (st.checkouts, st.passes)
}

/// Arm an injection: the `index`-th (zero-based) event at `site` unwinds
/// with an [`InjectedFault`] payload of the given `kind`.  Counters restart
/// at zero.  The injection fires at most once; [`reset`] disarms.
pub fn arm(site: FaultSite, index: u64, kind: FaultKind) {
    let mut st = STATE.lock();
    st.checkouts = 0;
    st.passes = 0;
    st.armed = Some((site, index, kind));
    drop(st);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Hook: a workspace checkout is about to happen.  Called by
/// `Workspace::take` before any counter increment or pool pop.
#[inline]
pub fn on_checkout() {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    hit(FaultSite::Checkout);
}

/// Hook: an engine primitive is entered.  Called at the top of every
/// `sfcp-parprim` entry point that checks out buffers.
#[inline]
pub fn on_engine_pass() {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    hit(FaultSite::EnginePass);
}

#[cold]
fn hit(site: FaultSite) {
    let fired = {
        let mut st = STATE.lock();
        let counter = match site {
            FaultSite::Checkout => &mut st.checkouts,
            FaultSite::EnginePass => &mut st.passes,
        };
        let index = *counter;
        *counter += 1;
        match st.armed {
            Some((armed_site, armed_index, kind)) if armed_site == site && armed_index == index => {
                // Fire at most once even if the same index recurs after a
                // counter reset race.
                st.armed = None;
                Some(InjectedFault { site, index, kind })
            }
            _ => None,
        }
    };
    // Panic outside the lock so the state mutex is never held across the
    // unwind.
    if let Some(fault) = fired {
        std::panic::panic_any(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fault layer is process-global; these unit tests run in the same
    // binary as the rest of the crate's tests, so they serialize on a local
    // lock and always leave the layer reset.
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_hooks_count_nothing() {
        let _g = GUARD.lock().unwrap();
        reset();
        on_checkout();
        on_engine_pass();
        assert_eq!(counts(), (0, 0));
    }

    #[test]
    fn counting_tallies_both_sites() {
        let _g = GUARD.lock().unwrap();
        start_counting();
        on_checkout();
        on_checkout();
        on_engine_pass();
        assert_eq!(counts(), (2, 1));
        reset();
        assert_eq!(counts(), (0, 0));
    }

    #[test]
    fn armed_fault_fires_at_exact_index_with_typed_payload() {
        let _g = GUARD.lock().unwrap();
        arm(FaultSite::Checkout, 2, FaultKind::AllocFail);
        on_checkout();
        on_checkout();
        on_engine_pass(); // different site: never fires
        let caught = std::panic::catch_unwind(on_checkout).unwrap_err();
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
        on_checkout();
        reset();
    }
}
