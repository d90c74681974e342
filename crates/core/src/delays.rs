//! The protocol delay functions `Δprop` and `Δntry` (paper §3.5) and the
//! adaptive variant for an unknown delay bound (§1).
//!
//! * `Δprop : rank → time` delays a party's own proposal by its rank, so
//!   that when the leader is honest and the network synchronous nobody
//!   else floods the network with proposals;
//! * `Δntry : rank → time` delays *supporting* (echoing/notarization-
//!   sharing) a rank-`r` block, giving lower ranks priority.
//!
//! The liveness requirement is `2δ + Δprop(0) ≤ Δntry(1)` (Lemma
//! *Liveness*, condition (v)). The paper's recommended instantiation
//! (eq. 2) is `Δprop(r) = 2·Δbnd·r`, `Δntry(r) = 2·Δbnd·r + ε`; this
//! module spends the governor before the proposal instead of after it:
//!
//! ```text
//! Δprop(r) = max(2·Δbnd·r, ε)   Δntry(r) = 2·Δbnd·r + ε
//! ```
//!
//! The parameter `ε` is a *governor*: zero gives maximum speed
//! (optimistic responsiveness), a positive value paces the chain (the
//! Internet Computer runs with a governor — its small subnets finalize
//! ≈1 block/s, far slower than the network allows; the Table-1 harness
//! sets `ε` accordingly). The rank-0 leader waits ε collecting commands
//! and the notaries support its block on arrival, so a command given
//! during ε rides the round's own block. The requirement still holds
//! whenever the actual network delay is bounded by `δ ≤ Δbnd`:
//! `2δ + ε ≤ 2·Δbnd + ε`. Ranks ≥ 1 propose at `2·Δbnd·r` whenever
//! `ε ≤ 2·Δbnd`, as in eq. (2); with `ε = 0` the two instantiations are
//! the same.

use icc_types::{Rank, SimDuration};

/// A (possibly adaptive) source of the two delay functions.
pub trait Delays {
    /// Delay before proposing, given own rank.
    fn prop(&self, rank: Rank) -> SimDuration;

    /// Delay before supporting a rank-`r` block.
    fn ntry(&self, rank: Rank) -> SimDuration;

    /// Feedback after each finished round: how long the round took and
    /// whether the round's leader block was the one notarized. Static
    /// policies ignore this; the adaptive policy tunes `Δbnd` with it.
    fn observe_round(&mut self, duration: SimDuration, leader_block_won: bool) {
        let _ = (duration, leader_block_won);
    }

    /// The current `Δbnd` estimate (for diagnostics and tests).
    fn delta_bound(&self) -> SimDuration;
}

/// The paper's recommended static delay functions (eq. 2) with explicit
/// `Δbnd` and governor `ε`, the governor spent before the proposal (see
/// the module docs).
#[derive(Debug, Clone, Copy)]
pub struct StaticDelays {
    delta_bound: SimDuration,
    epsilon: SimDuration,
}

impl StaticDelays {
    /// Creates the delay policy `Δprop(r) = max(2·Δbnd·r, ε)`,
    /// `Δntry(r) = 2·Δbnd·r + ε`.
    pub fn new(delta_bound: SimDuration, epsilon: SimDuration) -> StaticDelays {
        StaticDelays {
            delta_bound,
            epsilon,
        }
    }

    /// A policy with `ε = 0` (fastest; used by the latency experiments).
    pub fn responsive(delta_bound: SimDuration) -> StaticDelays {
        StaticDelays::new(delta_bound, SimDuration::ZERO)
    }
}

impl Delays for StaticDelays {
    fn prop(&self, rank: Rank) -> SimDuration {
        (self.delta_bound * 2 * u64::from(rank.get())).max(self.epsilon)
    }

    fn ntry(&self, rank: Rank) -> SimDuration {
        self.delta_bound * 2 * u64::from(rank.get()) + self.epsilon
    }

    fn delta_bound(&self) -> SimDuration {
        self.delta_bound
    }
}

/// An adaptive policy for an *unknown* network-delay bound (§1: "the ICC
/// protocols can be modified to adaptively adjust to an unknown
/// communication-delay bound. However, some care must be taken.").
///
/// Strategy (standard multiplicative-increase, cautious-decrease):
///
/// * if a round ends **without** the leader's block winning, or takes
///   longer than `4·Δbnd` (the synchronous-honest-leader envelope is
///   `2δ + ε ≤ 2Δbnd + ε`), the current guess is presumed too small:
///   `Δbnd ← 2·Δbnd` (capped);
/// * after `shrink_after` consecutive fast leader-won rounds, `Δbnd`
///   decays by 25% (floored) — the "care" the paper mentions: shrinking
///   too eagerly oscillates and sacrifices liveness, so decrease is slow
///   and bounded below.
#[derive(Debug, Clone)]
pub struct AdaptiveDelays {
    current: SimDuration,
    floor: SimDuration,
    cap: SimDuration,
    epsilon: SimDuration,
    fast_streak: u32,
    shrink_after: u32,
}

impl AdaptiveDelays {
    /// Starts adapting from `initial`, never going below `floor` nor
    /// above `cap`.
    ///
    /// # Panics
    ///
    /// Panics unless `floor <= initial <= cap`.
    pub fn new(initial: SimDuration, floor: SimDuration, cap: SimDuration) -> AdaptiveDelays {
        assert!(
            floor <= initial && initial <= cap,
            "need floor <= initial <= cap"
        );
        AdaptiveDelays {
            current: initial,
            floor,
            cap,
            epsilon: SimDuration::ZERO,
            fast_streak: 0,
            shrink_after: 8,
        }
    }

    /// Sets the governor `ε`.
    pub fn with_epsilon(mut self, epsilon: SimDuration) -> AdaptiveDelays {
        self.epsilon = epsilon;
        self
    }
}

impl Delays for AdaptiveDelays {
    fn prop(&self, rank: Rank) -> SimDuration {
        (self.current * 2 * u64::from(rank.get())).max(self.epsilon)
    }

    fn ntry(&self, rank: Rank) -> SimDuration {
        self.current * 2 * u64::from(rank.get()) + self.epsilon
    }

    fn observe_round(&mut self, duration: SimDuration, leader_block_won: bool) {
        let slow = !leader_block_won || duration > self.current * 4 + self.epsilon;
        if slow {
            self.fast_streak = 0;
            self.current = (self.current * 2).min(self.cap);
        } else {
            self.fast_streak += 1;
            if self.fast_streak >= self.shrink_after {
                self.fast_streak = 0;
                self.current = (self.current - self.current / 4).max(self.floor);
            }
        }
    }

    fn delta_bound(&self) -> SimDuration {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Eq. (2) with the governor before the proposal: the leader
    /// proposes at ε and its block is supported on arrival; every other
    /// rank keeps eq. (2)'s times.
    #[test]
    fn static_matches_equation_2() {
        let d = StaticDelays::new(ms(100), ms(30));
        assert_eq!(d.prop(Rank::new(0)), ms(30));
        assert_eq!(d.prop(Rank::new(1)), ms(200));
        assert_eq!(d.prop(Rank::new(3)), ms(600));
        assert_eq!(d.ntry(Rank::new(0)), ms(30));
        assert_eq!(d.ntry(Rank::new(1)), ms(230));
        // Without a governor it is eq. (2) to the letter.
        let d = StaticDelays::responsive(ms(100));
        assert_eq!(d.prop(Rank::new(0)), ms(0));
        assert_eq!(d.prop(Rank::new(1)), ms(200));
        assert_eq!(d.ntry(Rank::new(0)), ms(0));
    }

    #[test]
    fn static_satisfies_liveness_condition() {
        // 2δ + Δprop(0) <= Δntry(1) whenever δ <= Δbnd, for a governor
        // of none, half of Δbnd and 2·Δbnd — static or adaptive; up to
        // 2·Δbnd the rank-1 fallback proposes where eq. (2) puts it.
        let delta_bnd = ms(50);
        let delta = delta_bnd; // worst allowed network delay
        for epsilon in [ms(0), delta_bnd / 2, delta_bnd * 2] {
            let adaptive = AdaptiveDelays::new(delta_bnd, ms(1), ms(1000)).with_epsilon(epsilon);
            let policies: [&dyn Delays; 2] = [&StaticDelays::new(delta_bnd, epsilon), &adaptive];
            for d in policies {
                assert!(
                    delta * 2 + d.prop(Rank::new(0)) <= d.ntry(Rank::new(1)),
                    "ε = {epsilon:?}"
                );
                assert_eq!(d.prop(Rank::new(0)), epsilon);
                assert_eq!(d.prop(Rank::new(1)), delta_bnd * 2);
            }
        }
    }

    #[test]
    fn delays_are_non_decreasing_in_rank() {
        let d = StaticDelays::new(ms(7), ms(3));
        for r in 0..20u32 {
            assert!(d.prop(Rank::new(r)) <= d.prop(Rank::new(r + 1)));
            assert!(d.ntry(Rank::new(r)) <= d.ntry(Rank::new(r + 1)));
        }
    }

    #[test]
    fn adaptive_grows_on_slow_rounds() {
        let mut d = AdaptiveDelays::new(ms(10), ms(5), ms(1000));
        d.observe_round(ms(500), false);
        assert_eq!(d.delta_bound(), ms(20));
        d.observe_round(ms(500), false);
        assert_eq!(d.delta_bound(), ms(40));
    }

    #[test]
    fn adaptive_growth_is_capped() {
        let mut d = AdaptiveDelays::new(ms(10), ms(5), ms(25));
        d.observe_round(ms(500), false);
        d.observe_round(ms(500), false);
        assert_eq!(d.delta_bound(), ms(25));
    }

    #[test]
    fn adaptive_shrinks_slowly_after_streak() {
        let mut d = AdaptiveDelays::new(ms(100), ms(10), ms(1000));
        for _ in 0..7 {
            d.observe_round(ms(50), true);
        }
        assert_eq!(
            d.delta_bound(),
            ms(100),
            "no shrink before the streak completes"
        );
        d.observe_round(ms(50), true);
        assert_eq!(d.delta_bound(), ms(75));
    }

    #[test]
    fn adaptive_shrink_floored_and_streak_resets_on_slow() {
        let mut d = AdaptiveDelays::new(ms(12), ms(10), ms(1000));
        for _ in 0..8 {
            d.observe_round(ms(1), true);
        }
        assert_eq!(d.delta_bound(), ms(10), "floored");
        for _ in 0..7 {
            d.observe_round(ms(1), true);
        }
        d.observe_round(ms(500), false); // resets streak, doubles
        assert_eq!(d.delta_bound(), ms(20));
    }

    #[test]
    fn adaptive_slow_duration_alone_triggers_growth() {
        let mut d = AdaptiveDelays::new(ms(10), ms(5), ms(1000));
        // Leader won but the round took far longer than 4·Δbnd.
        d.observe_round(ms(100), true);
        assert_eq!(d.delta_bound(), ms(20));
    }

    #[test]
    #[should_panic(expected = "floor <= initial <= cap")]
    fn adaptive_rejects_bad_bounds() {
        AdaptiveDelays::new(ms(1), ms(5), ms(10));
    }
}
