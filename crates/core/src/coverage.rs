//! Security-requirement coverage tracking.
//!
//! "This also allows the security experts to observe the coverage of the
//! security requirements during the testing phase" (Section I). The
//! tracker counts, per requirement id, how often the requirement was
//! exercised and how often a violation verdict was recorded while it was
//! in play.

use crate::monitor::Verdict;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Counters for one requirement (a point-in-time snapshot of the
/// tracker's live atomic cells).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequirementCoverage {
    /// Times a request exercised the requirement.
    pub exercised: u64,
    /// Times the verdict was a violation while this requirement was
    /// exercised.
    pub violations: u64,
}

/// Live counters for one requirement.
#[derive(Debug, Default)]
struct CovCell {
    exercised: AtomicU64,
    violations: AtomicU64,
}

impl CovCell {
    fn snapshot(&self) -> RequirementCoverage {
        RequirementCoverage {
            exercised: self.exercised.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
        }
    }
}

/// Coverage across all specified requirements.
///
/// Recording is lock-free in the common case: each requirement's counters
/// are atomics, and the cell list is behind a read-write lock taken for
/// writing only when a request exercises a requirement id never seen
/// before. Many monitor shards can therefore record concurrently through
/// a shared reference.
#[derive(Debug, Default)]
pub struct CoverageTracker {
    cells: RwLock<Vec<(String, Arc<CovCell>)>>,
    total_requests: AtomicU64,
    total_violations: AtomicU64,
}

impl Clone for CoverageTracker {
    fn clone(&self) -> Self {
        let cells = self
            .cells
            .read()
            .unwrap()
            .iter()
            .map(|(id, cell)| {
                let snap = cell.snapshot();
                (
                    id.clone(),
                    Arc::new(CovCell {
                        exercised: AtomicU64::new(snap.exercised),
                        violations: AtomicU64::new(snap.violations),
                    }),
                )
            })
            .collect();
        CoverageTracker {
            cells: RwLock::new(cells),
            total_requests: AtomicU64::new(self.total_requests.load(Ordering::Relaxed)),
            total_violations: AtomicU64::new(self.total_violations.load(Ordering::Relaxed)),
        }
    }
}

impl CoverageTracker {
    /// Create a tracker pre-seeded with the specified requirement ids (so
    /// never-exercised requirements still show up in the report).
    #[must_use]
    pub fn new(specified: &[String]) -> Self {
        CoverageTracker {
            cells: RwLock::new(
                specified
                    .iter()
                    .map(|id| (id.clone(), Arc::new(CovCell::default())))
                    .collect(),
            ),
            total_requests: AtomicU64::new(0),
            total_violations: AtomicU64::new(0),
        }
    }

    /// The live cell for `req`, creating it when first exercised.
    fn cell(&self, req: &str) -> Arc<CovCell> {
        if let Some(cell) = self
            .cells
            .read()
            .unwrap()
            .iter()
            .find(|(id, _)| id == req)
            .map(|(_, c)| Arc::clone(c))
        {
            return cell;
        }
        let mut cells = self.cells.write().unwrap();
        // Another thread may have inserted it between our read and write.
        if let Some(cell) = cells
            .iter()
            .find(|(id, _)| id == req)
            .map(|(_, c)| Arc::clone(c))
        {
            return cell;
        }
        let cell = Arc::new(CovCell::default());
        cells.push((req.to_string(), Arc::clone(&cell)));
        cell
    }

    /// Record one request's verdict and the requirements it exercised.
    pub fn record(&self, verdict: &Verdict, requirements: &[String]) {
        self.total_requests.fetch_add(1, Ordering::Relaxed);
        let violation = verdict.is_violation();
        if violation {
            self.total_violations.fetch_add(1, Ordering::Relaxed);
        }
        for req in requirements {
            let cell = self.cell(req);
            cell.exercised.fetch_add(1, Ordering::Relaxed);
            if violation {
                cell.violations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Coverage for one requirement (a snapshot of its counters).
    #[must_use]
    pub fn requirement(&self, id: &str) -> Option<RequirementCoverage> {
        self.cells
            .read()
            .unwrap()
            .iter()
            .find(|(i, _)| i == id)
            .map(|(_, c)| c.snapshot())
    }

    /// Requirement ids never exercised so far.
    #[must_use]
    pub fn unexercised(&self) -> Vec<String> {
        self.cells
            .read()
            .unwrap()
            .iter()
            .filter(|(_, c)| c.exercised.load(Ordering::Relaxed) == 0)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Total requests seen.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.total_requests.load(Ordering::Relaxed)
    }

    /// Total violation verdicts seen.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.total_violations.load(Ordering::Relaxed)
    }

    /// Fraction of specified requirements exercised at least once
    /// (`1.0` when nothing is specified).
    #[must_use]
    pub fn coverage_ratio(&self) -> f64 {
        let cells = self.cells.read().unwrap();
        if cells.is_empty() {
            return 1.0;
        }
        let hit = cells
            .iter()
            .filter(|(_, c)| c.exercised.load(Ordering::Relaxed) > 0)
            .count();
        hit as f64 / cells.len() as f64
    }
}

impl fmt::Display for CoverageTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requirement coverage: {:.0}% ({} requests, {} violations)",
            self.coverage_ratio() * 100.0,
            self.total_requests(),
            self.total_violations()
        )?;
        for (id, cell) in self.cells.read().unwrap().iter() {
            let e = cell.snapshot();
            writeln!(
                f,
                "  SecReq {id}: exercised {} time(s), {} violation(s)",
                e.exercised, e.violations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exercised_and_violations() {
        let t = CoverageTracker::new(&["1.1".into(), "1.4".into()]);
        t.record(&Verdict::Pass, &["1.4".to_string()]);
        t.record(&Verdict::WrongAcceptance, &["1.4".to_string()]);
        assert_eq!(t.requirement("1.4").unwrap().exercised, 2);
        assert_eq!(t.requirement("1.4").unwrap().violations, 1);
        assert_eq!(t.total_requests(), 2);
        assert_eq!(t.total_violations(), 1);
        assert_eq!(t.unexercised(), vec!["1.1"]);
        assert!((t.coverage_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_requirements_are_added() {
        let t = CoverageTracker::new(&[]);
        t.record(&Verdict::Pass, &["9.9".to_string()]);
        assert_eq!(t.requirement("9.9").unwrap().exercised, 1);
        assert!((t.coverage_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_each_requirement() {
        let t = CoverageTracker::new(&["1.1".into()]);
        t.record(&Verdict::PostViolation, &["1.1".to_string()]);
        let text = t.to_string();
        assert!(text.contains("SecReq 1.1"));
        assert!(text.contains("1 violation"));
    }
}
