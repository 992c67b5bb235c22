//! The SLO search: the highest offered rate whose step meets the
//! latency limit without a growing backlog.
//!
//! The search brackets the knee geometrically from a starting rate,
//! then bisects the bracket (geometric midpoints) until its ends are
//! within `resolution` of each other or the step budget runs out. The
//! probe is a whole open-loop step, so the budget is in steps.

/// One probed rate and whether its step met the SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Whether the step met the SLO.
    pub pass: bool,
}

/// Search parameters.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    /// First rate probed.
    pub start: f64,
    /// Bracketing factor per step (rates move by ×`growth` or ÷`growth`).
    pub growth: f64,
    /// Stop once `hi / lo ≤ 1 + resolution`.
    pub resolution: f64,
    /// Most steps probed.
    pub max_steps: usize,
}

/// What the search found.
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// Highest rate that passed, if any did.
    pub best: Option<f64>,
    /// Lowest rate that failed, if any did.
    pub failed_at: Option<f64>,
    /// Every step in probe order.
    pub steps: Vec<Step>,
}

impl SearchResult {
    /// Whether the bracket closed to the requested resolution.
    #[must_use]
    pub fn converged(&self, resolution: f64) -> bool {
        matches!((self.best, self.failed_at), (Some(lo), Some(hi)) if hi / lo <= 1.0 + resolution)
    }
}

/// Run the search, calling `probe(rate)` once per step.
pub fn search(spec: SearchSpec, mut probe: impl FnMut(f64) -> bool) -> SearchResult {
    let mut result = SearchResult::default();
    let mut run = |rate: f64, result: &mut SearchResult| {
        let pass = probe(rate);
        result.steps.push(Step { rate, pass });
        if pass {
            result.best = Some(result.best.map_or(rate, |b| b.max(rate)));
        } else {
            result.failed_at = Some(result.failed_at.map_or(rate, |f| f.min(rate)));
        }
        pass
    };
    let first = run(spec.start, &mut result);
    // Bracket: walk away from the start until the outcome flips.
    let mut rate = spec.start;
    while result.steps.len() < spec.max_steps
        && (result.best.is_none() || result.failed_at.is_none())
    {
        rate = if first {
            rate * spec.growth
        } else {
            rate / spec.growth
        };
        run(rate, &mut result);
    }
    // Bisect the bracket.
    while result.steps.len() < spec.max_steps && !result.converged(spec.resolution) {
        let (Some(lo), Some(hi)) = (result.best, result.failed_at) else {
            break;
        };
        run((lo * hi).sqrt(), &mut result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic M/D/1-style latency model: deterministic service time
    /// `s`, utilisation `ρ = λs`, tail latency `s + k·s·ρ/(1−ρ)`.
    fn md1_tail(rate: f64, service_s: f64, k: f64) -> f64 {
        let rho = rate * service_s;
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        service_s + k * service_s * rho / (1.0 - rho)
    }

    /// The analytic knee: the rate whose tail equals `limit`.
    fn md1_knee(service_s: f64, k: f64, limit: f64) -> f64 {
        // s + k s ρ/(1−ρ) = L  ⇒  ρ = (L − s) / (L − s + k s)
        let x = (limit - service_s) / (k * service_s);
        x / (1.0 + x) / service_s
    }

    const SPEC: SearchSpec = SearchSpec {
        start: 10_000.0,
        growth: 1.25,
        resolution: 0.02,
        max_steps: 24,
    };

    #[test]
    fn finds_the_md1_knee_within_resolution_from_either_side() {
        let limit = 2e-3;
        for (service_s, k) in [(100e-6, 10.0), (40e-6, 25.0), (150e-6, 3.0), (20e-6, 60.0)] {
            let knee = md1_knee(service_s, k, limit);
            let result = search(SPEC, |rate| md1_tail(rate, service_s, k) <= limit);
            let best = result.best.expect("some rate passes");
            assert!(best <= knee, "best {best} above knee {knee}");
            assert!(
                best >= knee / 1.02,
                "best {best} more than 2% below knee {knee}"
            );
            assert!(result.converged(0.02));
            assert!(result.steps.len() <= 12, "{} steps", result.steps.len());
        }
    }

    #[test]
    fn respects_the_step_budget_and_reports_what_it_saw() {
        let mut calls = 0;
        let result = search(
            SearchSpec {
                max_steps: 3,
                ..SPEC
            },
            |rate| {
                calls += 1;
                rate < 1_000.0
            },
        );
        assert_eq!(calls, 3);
        assert_eq!(result.best, None);
        assert_eq!(result.failed_at, Some(SPEC.start / 1.25 / 1.25));
        assert!(!result.converged(0.02));
    }
}
