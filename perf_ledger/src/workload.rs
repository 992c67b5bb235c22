//! The four workloads: what each sends, what each expects back, and the
//! rates frozen for it from the seed commit.
//!
//! A workload's seed only orders and picks requests; arrival times are
//! fixed by the rate. Every request carries the outcome the oracle
//! expects (status, verdict label, and for a create the predicted id).

use cm_cloudsim::PrivateCloud;
use cm_core::SnapshotPolicy;
use cm_model::HttpMethod;
use cm_obs::XorShift64Star;
use cm_rest::{Json, RestRequest};
use std::sync::Arc;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure-2 mix (authorized read / forbidden delete /
    /// unmodelled read, 1:1:1) with paper-faithful `Full` binding: every
    /// modelled request pays pre- and post-probe batches.
    Figure2Probe,
    /// The same traffic with `Replica` binding: zero probes in steady
    /// state. The control for `Figure2Probe`.
    Figure2Replica,
    /// POST → GET → PUT → DELETE loops, one project per connection,
    /// `Replica` binding: writes beside reads.
    VolumeLifecycle,
    /// Reads and denies spread over 64 projects and 8192 tenant tokens,
    /// twice the identity-cache capacity: a working set larger than the
    /// monitor's caches.
    TenantSpread,
}

/// Every workload, in run order.
pub const ALL: [Workload; 4] = [
    Workload::Figure2Probe,
    Workload::Figure2Replica,
    Workload::VolumeLifecycle,
    Workload::TenantSpread,
];

/// Projects in the `TenantSpread` cloud.
pub const TENANT_PROJECTS: usize = 64;
/// Tenant tokens per project and role. 64 projects × 2 roles × 64 =
/// 8192 tokens, twice `cm_core::DEFAULT_IDENTITY_CAP`.
pub const TENANT_TOKENS: usize = 64;

/// Rates frozen from the seed commit (see `REFERENCE.json`); never
/// re-anchored to the code under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// The fixed light rate, about 25% of the seed's `slo_rps`.
    pub light: f64,
    /// The fixed heavy rate: the rate at which the topology would be
    /// busy half the time at the seed's median CPU cost per request,
    /// 50–65% of the seed's `slo_rps` (the knee is fuzzy on a shared VM;
    /// see `README.md`).
    pub heavy: f64,
    /// Where the SLO search starts: the seed's `slo_rps`.
    pub slo_start: f64,
}

impl Workload {
    /// The name used on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure2Probe => "figure2_probe",
            Workload::Figure2Replica => "figure2_replica",
            Workload::VolumeLifecycle => "volume_lifecycle",
            Workload::TenantSpread => "tenant_spread",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the monitor binds its evaluation environment.
    #[must_use]
    pub fn binding(self) -> SnapshotPolicy {
        match self {
            Workload::Figure2Probe => SnapshotPolicy::Full,
            _ => SnapshotPolicy::Replica,
        }
    }

    /// Projects in the cloud: `None` is the paper's single `myProject`.
    #[must_use]
    pub fn projects(self) -> Option<usize> {
        match self {
            Workload::Figure2Probe | Workload::Figure2Replica => None,
            Workload::VolumeLifecycle => Some(2),
            Workload::TenantSpread => Some(TENANT_PROJECTS),
        }
    }

    /// The frozen rates.
    #[must_use]
    pub fn rates(self) -> Rates {
        let (light, heavy, slo_start) = match self {
            Workload::Figure2Probe => (1_700.0, 3_350.0, 6_800.0),
            Workload::Figure2Replica => (2_600.0, 5_300.0, 10_350.0),
            Workload::VolumeLifecycle => (1_775.0, 3_550.0, 7_100.0),
            Workload::TenantSpread => (1_425.0, 3_650.0, 5_700.0),
        };
        Rates {
            light,
            heavy,
            slo_start,
        }
    }
}

/// The verdict the monitor must record for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verdict {
    /// Contract satisfied.
    Pass,
    /// Pre-condition failed; blocked with 412.
    PreBlocked,
    /// Outside the model; forwarded unchecked.
    NotModelled,
}

impl Verdict {
    /// Every expected verdict.
    pub const ALL: [Verdict; 3] = [Verdict::Pass, Verdict::PreBlocked, Verdict::NotModelled];

    /// The label `MetricsRegistry::verdicts` counts it under.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::PreBlocked => "pre-blocked",
            Verdict::NotModelled => "not-modelled",
        }
    }
}

/// What the oracle expects back for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// HTTP status.
    pub status: u16,
    /// Verdict the monitor records.
    pub verdict: Verdict,
    /// For a create, the volume id the cloud's allocator will assign.
    pub created_id: Option<u64>,
}

/// Tokens and ids the generators draw from, created on the cloud before
/// it is served (not part of set-up time).
#[derive(Debug, Clone, Default)]
pub struct Fixtures {
    /// Project ids, indexed like `readers` and `deniers`.
    pub projects: Vec<u64>,
    /// Per project: tokens allowed to read (and, in the lifecycle, to
    /// write) volumes.
    pub readers: Vec<Vec<String>>,
    /// Per project: tokens whose DELETE the policy forbids.
    pub deniers: Vec<Vec<String>>,
    /// Per project: the seed volume reads and denies address.
    pub seed_volume: Vec<Option<u64>>,
}

impl Fixtures {
    /// Issue the workload's tokens and seed volumes on `cloud`.
    ///
    /// # Errors
    ///
    /// When the cloud refuses a fixture.
    pub fn issue(workload: Workload, cloud: &PrivateCloud) -> Result<Fixtures, String> {
        let projects: Vec<u64> = match workload.projects() {
            None => vec![cloud.project_id()],
            Some(n) => (1..=n as u64).collect(),
        };
        let tokens_per = if workload == Workload::TenantSpread {
            TENANT_TOKENS
        } else {
            1
        };
        let token = |user: &str, pid: u64| {
            cloud
                .issue_token_scoped(user, &format!("{user}-pw"), pid)
                .map(|t| t.token)
                .map_err(|e| format!("fixture token for {user} in project {pid}: {e:?}"))
        };
        let mut fixtures = Fixtures::default();
        for &pid in &projects {
            let readers = (0..tokens_per)
                .map(|_| token("alice", pid))
                .collect::<Result<Vec<_>, _>>()?;
            let deniers = (0..tokens_per)
                .map(|_| token("carol", pid))
                .collect::<Result<Vec<_>, _>>()?;
            // The lifecycle starts from an empty project so its creates
            // land on predictable ids; the other mixes read a seed volume.
            let seed_volume = if workload == Workload::VolumeLifecycle {
                None
            } else {
                let id = cloud
                    .state_of(pid)
                    .create_volume(pid, "seed", 1, false)
                    .map_err(|e| format!("seed volume in project {pid}: {e}"))?
                    .id;
                Some(id)
            };
            fixtures.readers.push(readers);
            fixtures.deniers.push(deniers);
            fixtures.seed_volume.push(seed_volume);
        }
        fixtures.projects = projects;
        Ok(fixtures)
    }
}

/// The request stream of one connection.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    conn: usize,
    rng: XorShift64Star,
    fixtures: Arc<Fixtures>,
    seq: u64,
    /// Figure-2 classes of the current block of three, in send order.
    block: [u8; 3],
}

impl Generator {
    /// The generator for connection `conn` under `seed`.
    ///
    /// # Panics
    ///
    /// When the lifecycle has no project for `conn`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, conn: usize, fixtures: Arc<Fixtures>) -> Generator {
        assert!(
            workload != Workload::VolumeLifecycle || conn < fixtures.projects.len(),
            "the lifecycle owns one project per connection"
        );
        let stream = (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Generator {
            workload,
            conn,
            rng: XorShift64Star::new(seed ^ stream),
            fixtures,
            seq: 0,
            block: [0, 1, 2],
        }
    }

    /// The next request and its expected outcome.
    pub fn next_request(&mut self) -> (RestRequest, Expect) {
        let seq = self.seq;
        self.seq += 1;
        match self.workload {
            Workload::Figure2Probe | Workload::Figure2Replica => self.figure2(seq),
            Workload::VolumeLifecycle => self.lifecycle(seq),
            Workload::TenantSpread => self.tenant(),
        }
    }

    fn figure2(&mut self, seq: u64) -> (RestRequest, Expect) {
        let slot = (seq % 3) as usize;
        if slot == 0 {
            // Seeded Fisher-Yates over each block keeps the mix exactly
            // 1:1:1 while the seed decides the order.
            for i in (1..3).rev() {
                let j = self.rng.gen_usize(0..i + 1);
                self.block.swap(i, j);
            }
        }
        let f = &self.fixtures;
        let pid = f.projects[0];
        let vid = f.seed_volume[0].expect("figure-2 mixes have a seed volume");
        match self.block[slot] {
            0 => (
                RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/{vid}"))
                    .auth_token(&f.readers[0][0]),
                expect(200, Verdict::Pass),
            ),
            1 => (
                RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}"))
                    .auth_token(&f.deniers[0][0]),
                expect(412, Verdict::PreBlocked),
            ),
            _ => (
                RestRequest::new(HttpMethod::Get, format!("/unmodelled/{}/{seq}", self.conn))
                    .auth_token(&f.readers[0][0]),
                expect(404, Verdict::NotModelled),
            ),
        }
    }

    fn lifecycle(&mut self, seq: u64) -> (RestRequest, Expect) {
        let f = Arc::clone(&self.fixtures);
        let pid = f.projects[self.conn];
        let token = &f.readers[self.conn][0];
        // Project k of an n-project cloud allocates ids k, k+n, k+2n, …
        // and only this connection creates volumes in it.
        let cycle = seq / 4;
        let vid = pid + cycle * f.projects.len() as u64;
        let item = format!("/v3/{pid}/volumes/{vid}");
        match seq % 4 {
            0 => {
                let body = self.volume_body();
                (
                    RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                        .auth_token(token)
                        .json(body),
                    Expect {
                        created_id: Some(vid),
                        ..expect(201, Verdict::Pass)
                    },
                )
            }
            1 => (
                RestRequest::new(HttpMethod::Get, item).auth_token(token),
                expect(200, Verdict::Pass),
            ),
            2 => {
                let body = self.volume_body();
                (
                    RestRequest::new(HttpMethod::Put, item)
                        .auth_token(token)
                        .json(body),
                    expect(200, Verdict::Pass),
                )
            }
            _ => (
                RestRequest::new(HttpMethod::Delete, item).auth_token(token),
                expect(204, Verdict::Pass),
            ),
        }
    }

    fn volume_body(&mut self) -> Json {
        let name = format!("vol-{:x}", self.rng.next_u64() & 0xffff_ffff);
        let size = self.rng.gen_i64(1..100);
        Json::object(vec![(
            "volume",
            Json::object(vec![("name", Json::Str(name)), ("size", Json::Int(size))]),
        )])
    }

    fn tenant(&mut self) -> (RestRequest, Expect) {
        let f = &self.fixtures;
        let k = self.rng.gen_usize(0..f.projects.len());
        let deny = self.rng.next_u64() & 1 == 1;
        let t = self.rng.gen_usize(0..f.readers[k].len());
        let pid = f.projects[k];
        let vid = f.seed_volume[k].expect("tenant projects have a seed volume");
        let path = format!("/v3/{pid}/volumes/{vid}");
        if deny {
            (
                RestRequest::new(HttpMethod::Delete, path).auth_token(&f.deniers[k][t]),
                expect(412, Verdict::PreBlocked),
            )
        } else {
            (
                RestRequest::new(HttpMethod::Get, path).auth_token(&f.readers[k][t]),
                expect(200, Verdict::Pass),
            )
        }
    }
}

fn expect(status: u16, verdict: Verdict) -> Expect {
    Expect {
        status,
        verdict,
        created_id: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures(projects: usize, tokens: usize) -> Arc<Fixtures> {
        let ids: Vec<u64> = (1..=projects as u64).collect();
        Arc::new(Fixtures {
            readers: ids
                .iter()
                .map(|p| (0..tokens).map(|t| format!("r{p}.{t}")).collect())
                .collect(),
            deniers: ids
                .iter()
                .map(|p| (0..tokens).map(|t| format!("d{p}.{t}")).collect())
                .collect(),
            seed_volume: ids.iter().map(|&p| Some(p)).collect(),
            projects: ids,
        })
    }

    fn sequence(workload: Workload, seed: u64, conn: usize, n: usize) -> Vec<String> {
        let f = match workload {
            Workload::TenantSpread => fixtures(TENANT_PROJECTS, TENANT_TOKENS),
            Workload::VolumeLifecycle => fixtures(2, 1),
            _ => fixtures(1, 1),
        };
        let mut generator = Generator::new(workload, seed, conn, f);
        (0..n)
            .map(|_| {
                let (req, exp) = generator.next_request();
                format!(
                    "{} {} {:?} {:?} {exp:?}",
                    req.method,
                    req.path,
                    req.token(),
                    req.body.as_ref().map(Json::to_compact_string)
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for workload in ALL {
            let a = sequence(workload, 7, 0, 60);
            assert_eq!(a, sequence(workload, 7, 0, 60), "{}", workload.name());
            assert_ne!(a, sequence(workload, 8, 0, 60), "{}", workload.name());
        }
        // Connections draw independent streams from one seed.
        assert_ne!(
            sequence(Workload::TenantSpread, 7, 0, 60),
            sequence(Workload::TenantSpread, 7, 1, 60)
        );
    }

    #[test]
    fn figure2_mix_is_exactly_one_to_one_to_one() {
        let mut g = Generator::new(Workload::Figure2Probe, 3, 0, fixtures(1, 1));
        let mut counts = [0; 3];
        for _ in 0..300 {
            let (_, e) = g.next_request();
            counts[e.verdict as usize] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn lifecycle_predicts_strided_ids_per_project() {
        let mut g = Generator::new(Workload::VolumeLifecycle, 1, 1, fixtures(2, 1));
        let created: Vec<u64> = (0..12)
            .filter_map(|_| g.next_request().1.created_id)
            .collect();
        assert_eq!(created, [2, 4, 6]);
    }
}
