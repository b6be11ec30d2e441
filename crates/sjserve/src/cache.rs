//! The plan-compilation cache: the upper level of the service's
//! two-level cache.
//!
//! Level 1 (here) memoizes the *derivation search*: a normalized,
//! canonicalized [`Query`] plus the engine knobs that shape plans maps to
//! the solved [`Plan`]. The search is the expensive combinatorial part of
//! ScrubJay (§5.2), and two clients asking for the same dimensions in a
//! different order land on the same entry. Level 2, in the service, is
//! keyed by [`Plan::fingerprint`](sjcore::engine::Plan::fingerprint) and
//! memoizes *materialized rows*, each entry with the wire encoding of
//! the rows its first response showed; the service wires both together.
//! Both levels are [`Lru`]s; the router keeps a plan cache of the same
//! shape.
//!
//! [`Lru`]: sjcore::cache::Lru
//! [`Plan`]: sjcore::engine::Plan

use sjcore::engine::Query;

/// Most solved plans a plan cache keeps: its [`Lru`] costs each plan 1
/// and gets this budget. Every distinct (query, window, step) is its own
/// entry, so a client sweeping knobs would otherwise grow the cache
/// without bound.
///
/// [`Lru`]: sjcore::cache::Lru
pub const PLAN_CACHE_ENTRIES: usize = 1024;

/// Cache key: the normalized query plus every engine knob that can change
/// the solved plan. Window and step are carried as microsecond integers
/// so the key stays `Eq + Hash` without hashing raw floats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    query: Query,
    window_us: u64,
    step_us: u64,
}

impl PlanKey {
    /// Build a key from a *canonicalized* query (aliases resolved) and
    /// the effective engine knobs. Normalization makes domain/value order
    /// irrelevant.
    ///
    /// Returns `None` for knobs no plan can be keyed on — NaN, infinite,
    /// or negative values — instead of silently collapsing them all to
    /// key 0 where they would collide with each other and with legitimate
    /// zero-window queries. Finite values beyond ~5.8e5 years saturate to
    /// `u64::MAX` microseconds (the `as` cast saturates), which keeps
    /// them distinct from every practical knob.
    pub fn new(canonical_query: &Query, window_secs: f64, step_secs: f64) -> Option<Self> {
        Some(PlanKey {
            query: canonical_query.normalized(),
            window_us: knob_to_us(window_secs)?,
            step_us: knob_to_us(step_secs)?,
        })
    }
}

/// Microsecond representation of a window/step knob; `None` when the
/// knob is not a usable duration (non-finite or negative).
fn knob_to_us(secs: f64) -> Option<u64> {
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some((secs * 1e6) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcore::engine::QueryValue;

    fn q(domains: &[&str], values: &[&str]) -> Query {
        Query {
            domains: domains.iter().map(|s| s.to_string()).collect(),
            values: values.iter().map(|v| QueryValue::dim(v)).collect(),
        }
    }

    #[test]
    fn order_insensitive_keys() {
        let a = PlanKey::new(&q(&["rack", "job"], &["heat", "application"]), 120.0, 60.0).unwrap();
        let b = PlanKey::new(&q(&["job", "rack"], &["application", "heat"]), 120.0, 60.0).unwrap();
        assert_eq!(a, b);
        let c = PlanKey::new(&q(&["job", "rack"], &["application", "heat"]), 300.0, 60.0).unwrap();
        assert_ne!(a, c, "different window must be a different key");
    }

    #[test]
    fn invalid_knobs_are_rejected_not_collapsed_to_zero() {
        // Regression: NaN, infinities, and negatives used to all cast to
        // key 0 via `as u64`, colliding with each other and with a real
        // zero-window query.
        let query = q(&["rack"], &["heat"]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-9] {
            assert!(PlanKey::new(&query, bad, 60.0).is_none(), "window {bad}");
            assert!(PlanKey::new(&query, 60.0, bad).is_none(), "step {bad}");
        }
        // A genuine zero window remains a valid, unique key.
        let zero = PlanKey::new(&query, 0.0, 0.0).unwrap();
        let normal = PlanKey::new(&query, 120.0, 60.0).unwrap();
        assert_ne!(zero, normal);
        // Huge finite knobs saturate but stay distinct from zero.
        let huge = PlanKey::new(&query, 1e300, 60.0).unwrap();
        assert_ne!(huge, PlanKey::new(&query, 0.0, 60.0).unwrap());
    }
}
