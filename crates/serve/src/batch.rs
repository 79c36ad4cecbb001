//! Same-matrix request coalescing.
//!
//! Power requests naming the same matrix fingerprint and the same `k`
//! that arrive while one of them is executing are folded into a single
//! multi-vector SpMM ([`fbmpk_sparse::spmm::block_power`]): the matrix
//! is read once for all of them, which is exactly the traffic
//! amortization the paper pursues across iterations, applied across
//! *requests*. The SpMM inner loop accumulates every vector column with
//! the same per-row operation sequence a width-1 run uses, so a batched
//! response is bit-identical to serving the request alone — asserted in
//! `tests/serve_props.rs`.
//!
//! The mechanism is leader/follower: the first arrival for an idle
//! `(fingerprint, k)` slot becomes the leader and executes; requests
//! that arrive while it runs park their vectors in the slot, and the
//! leader drains them as its next batch. At low load every batch has
//! width 1 and no latency is added; under load the batch width grows
//! with the arrival rate.
//!
//! Two liveness guarantees bound the cost of leadership:
//!
//! * **Bounded tenure.** A leader runs at most [`MAX_LEADER_BATCHES`]
//!   SpMM executions (its own batch plus one follow-up), then hands
//!   leadership to a parked follower and returns its own result. Under
//!   sustained arrivals no request's latency grows with the arrival
//!   rate — each leader's wait is capped at two executions.
//! * **Panic abdication.** If the kernel panics under a leader, a drop
//!   guard resets the slot and drops every parked sender, so followers
//!   wake with a `RecvError` (mapped to a typed 500) instead of
//!   blocking forever, and the next arrival for the slot becomes a
//!   fresh leader. A panic costs exactly the requests in flight on the
//!   slot, never the slot itself.
//!
//! Slots whose last leader steps down with nothing pending are removed
//! from the map, so the per-`(fingerprint, k)` state is bounded by the
//! number of *concurrently active* keys, not every key ever seen.

use fbmpk_sparse::spmm::{block_power, MultiVec};
use fbmpk_sparse::Csr;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

/// One coalesced execution's result for one request.
#[derive(Debug)]
pub struct PowerOutcome {
    /// This request's output column.
    pub y: Vec<f64>,
    /// Width of the SpMM batch that produced it (1 = ran alone).
    pub width: usize,
}

/// What a parked request receives through its channel.
enum Msg {
    /// Its result: the shared execution finished.
    Done(PowerOutcome),
    /// Leadership handoff: run the next batches, then keep receiving.
    Lead,
}

struct Pending {
    x: Vec<f64>,
    tx: Sender<Msg>,
}

#[derive(Default)]
struct SlotState {
    pending: Vec<Pending>,
    leader_active: bool,
}

/// One shared `(fingerprint, k)` coalescing slot.
type SharedSlot = Arc<Mutex<SlotState>>;

/// SpMM executions one leader runs before handing leadership to a
/// parked follower. The leader's own result is produced by its first
/// execution, so its extra latency is bounded by one more batch — it
/// can never be held hostage by an open-loop arrival stream.
const MAX_LEADER_BATCHES: usize = 2;

/// Locks a slot, recovering the guard when a panicking peer poisoned
/// the mutex (slot state is a plain list + flag, valid at every step).
fn lock_slot(slot: &SharedSlot) -> MutexGuard<'_, SlotState> {
    match slot.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Resets a slot when its leader unwinds: parked senders are dropped so
/// every follower wakes with a `RecvError` (→ typed 500), and the slot
/// is reopened so the next arrival becomes a fresh leader. Disarmed on
/// every normal exit path.
struct AbdicateOnUnwind {
    slot: SharedSlot,
    armed: bool,
}

impl Drop for AbdicateOnUnwind {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = lock_slot(&self.slot);
        st.leader_active = false;
        st.pending.clear();
    }
}

/// Per-`(fingerprint, k)` coalescing state.
pub struct PowerBatcher {
    slots: Mutex<HashMap<(u64, usize), SharedSlot>>,
}

impl Default for PowerBatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl PowerBatcher {
    /// An empty batcher.
    pub fn new() -> Self {
        PowerBatcher { slots: Mutex::new(HashMap::new()) }
    }

    /// Number of live coalescing slots (tests assert idle slots are
    /// collected).
    pub fn slot_count(&self) -> usize {
        self.slots.lock().expect("batch slots").len()
    }

    /// Computes `Aᵏ x`, coalescing with concurrent requests for the same
    /// `(fp, k)`. Blocks until the (possibly shared) execution finishes.
    /// `on_execute(width)` is called once per SpMM execution this call
    /// performs as leader (the server counts executions there, distinct
    /// from per-request counters).
    ///
    /// All callers for one `fp` must pass the same matrix (the
    /// fingerprint guarantees it) and `x.len() == a.nrows()` (the
    /// handler validates before calling).
    ///
    /// # Errors
    /// An error means the batch leader unwound mid-execution; the
    /// request maps it to a typed 500.
    pub fn power(
        &self,
        fp: u64,
        k: usize,
        a: &Csr,
        x: Vec<f64>,
        on_execute: &dyn Fn(usize),
    ) -> Result<PowerOutcome, String> {
        let key = (fp, k);
        let slot = {
            let mut slots = self.slots.lock().expect("batch slots");
            Arc::clone(slots.entry(key).or_default())
        };
        let (tx, rx) = channel();
        let lead = {
            let mut st = lock_slot(&slot);
            st.pending.push(Pending { x, tx });
            if st.leader_active {
                false
            } else {
                st.leader_active = true;
                true
            }
        };
        if lead {
            self.lead(&slot, key, a, k, on_execute);
        }
        // Both leaders and followers receive their own column through the
        // channel. A follower may first be handed leadership (its result
        // arrives in the batch it executes); a RecvError means the leader
        // unwound before distributing (its send never happened).
        loop {
            match rx.recv() {
                Ok(Msg::Done(out)) => return Ok(out),
                Ok(Msg::Lead) => self.lead(&slot, key, a, k, on_execute),
                Err(_) => return Err("batch leader failed before distributing results".to_string()),
            }
        }
    }

    /// The leader loop: drain parked requests in batches until the slot
    /// is empty or the tenure cap is reached (then hand off to a parked
    /// follower). On unwind the guard resets the slot (see
    /// [`AbdicateOnUnwind`]).
    fn lead(
        &self,
        slot: &SharedSlot,
        key: (u64, usize),
        a: &Csr,
        k: usize,
        on_execute: &dyn Fn(usize),
    ) {
        let mut guard = AbdicateOnUnwind { slot: Arc::clone(slot), armed: true };
        let mut rounds = 0;
        loop {
            let batch = {
                let mut st = lock_slot(slot);
                if st.pending.is_empty() {
                    st.leader_active = false;
                    break;
                }
                if rounds >= MAX_LEADER_BATCHES {
                    // Tenure over: promote a parked follower (its channel
                    // is alive — it is blocked in recv — so the send only
                    // fails for an abandoned request; then try the next).
                    let mut handed = false;
                    for p in &st.pending {
                        if p.tx.send(Msg::Lead).is_ok() {
                            handed = true;
                            break;
                        }
                    }
                    if handed {
                        // leader_active stays true: leadership moved, the
                        // slot is never left attended-but-leaderless.
                        break;
                    }
                    // Every parked peer is gone; keep draining (nobody is
                    // waiting on the extra batches).
                }
                std::mem::take(&mut st.pending)
            };
            rounds += 1;
            let width = batch.len();
            let (cols, txs): (Vec<Vec<f64>>, Vec<_>) =
                batch.into_iter().map(|p| (p.x, p.tx)).unzip();
            let y = block_power(a, &MultiVec::from_columns(&cols), k);
            on_execute(width);
            for (v, tx) in txs.into_iter().enumerate() {
                // A follower that gave up (disconnected) is fine.
                let _ = tx.send(Msg::Done(PowerOutcome { y: y.column(v), width }));
            }
        }
        guard.armed = false;
        self.collect_idle(key);
    }

    /// Removes `key`'s slot if it is idle, bounding the map by the set
    /// of concurrently active keys. A racing request that already cloned
    /// the `Arc` keeps working on the orphaned slot (it only loses the
    /// chance to coalesce with arrivals that allocate a fresh one).
    fn collect_idle(&self, key: (u64, usize)) {
        let mut slots = self.slots.lock().expect("batch slots");
        if let Some(slot) = slots.get(&key) {
            let idle = {
                let st = lock_slot(slot);
                st.pending.is_empty() && !st.leader_active
            };
            if idle {
                slots.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk::tune::fingerprint;
    use fbmpk_gen::poisson::grid2d_5pt;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const NOOP: &dyn Fn(usize) = &|_| {};

    #[test]
    fn solo_power_matches_direct_block_power() {
        let a = grid2d_5pt(8, 8);
        let fp = fingerprint(&a);
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).sin()).collect();
        let b = PowerBatcher::new();
        let execs = AtomicUsize::new(0);
        let out = b.power(fp, 3, &a, x.clone(), &|w| {
            assert_eq!(w, 1);
            execs.fetch_add(1, Ordering::Relaxed);
        });
        let out = out.unwrap();
        assert_eq!(out.width, 1);
        assert_eq!(execs.load(Ordering::Relaxed), 1, "one solo call, one execution");
        let want = block_power(&a, &MultiVec::from_columns(&[x]), 3).column(0);
        assert_eq!(out.y, want, "solo batch must be the direct result");
    }

    #[test]
    fn concurrent_same_matrix_requests_coalesce_bit_identically() {
        let a = Arc::new(grid2d_5pt(12, 12));
        let fp = fingerprint(&a);
        let batcher = Arc::new(PowerBatcher::new());
        let n = a.nrows();
        let handles: Vec<_> = (0..16)
            .map(|r| {
                let (a, batcher) = (Arc::clone(&a), Arc::clone(&batcher));
                std::thread::spawn(move || {
                    let x: Vec<f64> = (0..n).map(|i| ((i + 7 * r) as f64).cos()).collect();
                    let out = batcher.power(fp, 4, &a, x.clone(), NOOP).unwrap();
                    (r, x, out)
                })
            })
            .collect();
        let mut widths = Vec::new();
        for h in handles {
            let (r, x, out) = h.join().unwrap();
            let solo = block_power(&a, &MultiVec::from_columns(&[x]), 4).column(0);
            assert_eq!(out.y, solo, "request {r}: batched must be bit-identical to sequential");
            widths.push(out.width);
        }
        assert!(widths.iter().all(|&w| w >= 1));
    }

    #[test]
    fn distinct_k_do_not_share_a_batch() {
        let a = grid2d_5pt(6, 6);
        let fp = fingerprint(&a);
        let b = PowerBatcher::new();
        let x = vec![1.0; a.nrows()];
        let y1 = b.power(fp, 1, &a, x.clone(), NOOP).unwrap().y;
        let y2 = b.power(fp, 2, &a, x.clone(), NOOP).unwrap().y;
        assert_ne!(y1, y2);
        assert_eq!(y2, block_power(&a, &MultiVec::from_columns(&[x]), 2).column(0));
    }

    /// A panicking leader must not wedge the slot: the guard reopens it,
    /// so the next request for the same `(fp, k)` elects a fresh leader
    /// and succeeds.
    #[test]
    fn leader_panic_reopens_the_slot() {
        let a = grid2d_5pt(6, 6);
        let fp = fingerprint(&a);
        let b = PowerBatcher::new();
        // A wrong-length x trips the SpMM dimension assert inside the
        // leader's execution — the shape of any kernel panic.
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.power(fp, 2, &a, vec![1.0; 3], NOOP);
        }));
        assert!(bad.is_err(), "wrong-length x must panic in the kernel");
        let out = b.power(fp, 2, &a, vec![1.0; a.nrows()], NOOP);
        let out = out.expect("slot must serve again after a leader panic");
        assert_eq!(out.width, 1);
        assert_eq!(
            out.y,
            block_power(&a, &MultiVec::from_columns(&[vec![1.0; a.nrows()]]), 2).column(0)
        );
    }

    /// Sustained hammering of one `(fp, k)` must never deadlock or
    /// starve a request: leadership hands off after the tenure cap and
    /// every call completes with the right bits.
    #[test]
    fn sustained_arrivals_hand_off_leadership_and_all_complete() {
        let a = Arc::new(grid2d_5pt(10, 10));
        let fp = fingerprint(&a);
        let batcher = Arc::new(PowerBatcher::new());
        let n = a.nrows();
        let handles: Vec<_> = (0..8)
            .map(|r| {
                let (a, batcher) = (Arc::clone(&a), Arc::clone(&batcher));
                std::thread::spawn(move || {
                    for i in 0..6 {
                        let x: Vec<f64> = (0..n).map(|j| ((j + 13 * r + i) as f64).sin()).collect();
                        let out = batcher.power(fp, 3, &a, x.clone(), NOOP).unwrap();
                        let solo = block_power(&a, &MultiVec::from_columns(&[x]), 3).column(0);
                        assert_eq!(out.y, solo, "request {r}.{i}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no request may starve or deadlock");
        }
    }

    /// Idle slots are collected: after traffic drains, the map does not
    /// retain one entry per `(fp, k)` ever seen.
    #[test]
    fn idle_slots_are_collected() {
        let a = grid2d_5pt(5, 5);
        let fp = fingerprint(&a);
        let b = PowerBatcher::new();
        for k in 1..=5 {
            b.power(fp, k, &a, vec![1.0; a.nrows()], NOOP).unwrap();
        }
        assert_eq!(b.slot_count(), 0, "drained slots must be removed");
    }
}
