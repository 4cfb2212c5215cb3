//! Seeded request streams, one per workload. The service sees only the
//! `OptimizeRequest`s built here; the seed decides every parameter.

use std::collections::HashSet;

use arithgen::UnitRole;
use coolserved::ResultSource;
use postplace::{
    CacheKey, FlowConfig, OptimizeRequest, OptimizeRequestBuilder, Strategy, WorkloadSpec,
};

use crate::rng::{zipf, Rng};

/// The two lateral meshes every workload uses.
pub const MESHES: [(usize, usize); 2] = [(40, 40), (64, 64)];

/// The base configuration the service resolves each request on.
pub fn base_config() -> FlowConfig {
    FlowConfig::scattered_small()
}

/// The paper's three workload presets.
pub fn presets() -> [WorkloadSpec; 3] {
    [
        FlowConfig::concentrated_large().workload,
        FlowConfig::scattered_small().workload,
        WorkloadSpec::clustered_hotspot(),
    ]
}

fn request(
    spec: &WorkloadSpec,
    mesh: (usize, usize),
    goal: impl FnOnce(OptimizeRequestBuilder) -> OptimizeRequestBuilder,
) -> OptimizeRequest {
    goal(
        OptimizeRequest::builder()
            .workload(spec.clone())
            .mesh(mesh.0, mesh.1),
    )
    .build()
    .expect("generated requests are complete")
}

/// One paper technique at a fractional area budget. Empty row insertion
/// is quantized to rows the way `postplace::rows_for_budget` does it;
/// `rows0` is the base floorplan's row count, which depends on the
/// benchmark netlist only.
fn technique(which: usize, budget: f64, rows0: usize) -> Strategy {
    match which {
        0 => Strategy::UniformSlack {
            area_overhead: budget,
        },
        1 => Strategy::EmptyRowInsertion {
            rows: ((budget * rows0 as f64).floor() as usize).max(1),
        },
        _ => Strategy::HotspotWrapper {
            area_overhead: budget,
        },
    }
}

fn spec_of(mask: u16, toggle: f64) -> WorkloadSpec {
    WorkloadSpec {
        active: UnitRole::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, r)| *r)
            .collect(),
        toggle_probability: toggle,
    }
}

/// Unit-count strata of a `cold_flow` spec (inclusive ranges).
const SIZE_STRATA: [(usize, usize); 4] = [(1, 2), (3, 4), (5, 6), (7, 9)];
const TOGGLES: [f64; 3] = [0.3, 0.5, 0.7];

/// `cold_flow`: distinct workload specs (a random non-empty subset of the
/// nine units, toggle probability from {0.3, 0.5, 0.7}), each request
/// issued at 40×40 and then again at 64×64, with one paper technique at
/// a budget in 0.08–0.32.
///
/// Draws walk shuffled rotations, so a run covers the input space evenly
/// whatever the seed: unit-count strata and toggles per spec, techniques
/// per spec (each block of three specs uses each technique once), and
/// budget quarters per technique.
pub struct ColdFlowGen {
    rng: Rng,
    rows0: usize,
    seen: HashSet<(u16, u64)>,
    /// The 64×64 twin of the last 40×40 request.
    pending: Option<OptimizeRequest>,
    specs: usize,
    sizes: [usize; 4],
    toggles: [usize; 3],
    order: [usize; 3],
    per_technique: [usize; 3],
    quarters: [[usize; 4]; 3],
}

impl ColdFlowGen {
    pub fn new(seed: u64, rows0: usize) -> ColdFlowGen {
        ColdFlowGen {
            rng: Rng::stream(seed, 1),
            rows0,
            seen: HashSet::new(),
            pending: None,
            specs: 0,
            sizes: [0, 1, 2, 3],
            toggles: [0, 1, 2],
            order: [0, 1, 2],
            per_technique: [0; 3],
            quarters: [[0, 1, 2, 3]; 3],
        }
    }

    /// A spec never issued before, with `lo..=hi` active units.
    fn spec(&mut self, (lo, hi): (usize, usize), toggle: f64) -> WorkloadSpec {
        loop {
            let size = lo + self.rng.below(hi - lo + 1);
            let mut units: Vec<usize> = (0..UnitRole::ALL.len()).collect();
            self.rng.shuffle(&mut units);
            let mask = units[..size].iter().fold(0u16, |m, u| m | 1 << u);
            if self.seen.insert((mask, toggle.to_bits())) {
                return spec_of(mask, toggle);
            }
        }
    }

    /// The set-up request: a spec no measured request uses.
    pub fn warmup(&mut self) -> OptimizeRequest {
        let spec = self.spec((1, 9), 0.5);
        request(&spec, MESHES[0], |b| {
            b.strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
        })
    }

    pub fn next_request(&mut self) -> OptimizeRequest {
        if let Some(r) = self.pending.take() {
            return r;
        }
        if self.specs.is_multiple_of(4) {
            self.rng.shuffle(&mut self.sizes);
        }
        if self.specs.is_multiple_of(3) {
            self.rng.shuffle(&mut self.toggles);
            self.rng.shuffle(&mut self.order);
        }
        let size = SIZE_STRATA[self.sizes[self.specs % 4]];
        let toggle = TOGGLES[self.toggles[self.specs % 3]];
        let which = self.order[self.specs % 3];
        self.specs += 1;
        let spec = self.spec(size, toggle);
        let k = self.per_technique[which];
        if k.is_multiple_of(4) {
            self.rng.shuffle(&mut self.quarters[which]);
        }
        self.per_technique[which] += 1;
        let lo = 0.08 + 0.06 * self.quarters[which][k % 4] as f64;
        let budget = self.rng.range(lo, lo + 0.06, 3);
        let strategy = technique(which, budget, self.rows0);
        self.pending = Some(request(&spec, MESHES[1], |b| b.strategy(strategy)));
        request(&spec, MESHES[0], |b| b.strategy(strategy))
    }
}

/// The six flows `optimize_warm` keeps resident: presets × meshes.
pub fn warm_flows() -> Vec<(WorkloadSpec, (usize, usize))> {
    presets()
        .into_iter()
        .flat_map(|w| MESHES.map(|m| (w.clone(), m)))
        .collect()
}

/// The request that builds one flow during set-up: the identity
/// strategy, which no measured request asks for.
pub fn priming_request(spec: &WorkloadSpec, mesh: (usize, usize)) -> OptimizeRequest {
    request(spec, mesh, |b| b.strategy(Strategy::None))
}

/// `optimize_warm`: store-missing search goals on the six warm flows.
///
/// Every block of 18 requests asks each flow × goal kind (budget,
/// rows-for-target, frontier) once, in a shuffled order, and each flow ×
/// kind's parameter walks shuffled quarters of its range, so a run
/// covers the goal space evenly whatever the seed.
pub struct WarmGen {
    rng: Rng,
    flows: Vec<(WorkloadSpec, (usize, usize))>,
    seen: HashSet<CacheKey>,
    combos: Vec<(usize, usize)>,
    n: usize,
    /// Per flow × kind: requests so far and the current quarter order.
    walks: Vec<(usize, [usize; 4])>,
}

impl WarmGen {
    pub fn new(seed: u64) -> WarmGen {
        let flows = warm_flows();
        let combos: Vec<(usize, usize)> = (0..flows.len())
            .flat_map(|f| (0..3).map(move |k| (f, k)))
            .collect();
        WarmGen {
            rng: Rng::stream(seed, 2),
            flows,
            seen: HashSet::new(),
            walks: vec![(0, [0, 1, 2, 3]); combos.len()],
            combos,
            n: 0,
        }
    }

    pub fn next_request(&mut self) -> OptimizeRequest {
        if self.n.is_multiple_of(self.combos.len()) {
            self.rng.shuffle(&mut self.combos);
        }
        let (f, kind) = self.combos[self.n % self.combos.len()];
        self.n += 1;
        let (k, quarters) = &mut self.walks[f * 3 + kind];
        if k.is_multiple_of(4) {
            self.rng.shuffle(quarters);
        }
        let q = quarters[*k % 4] as f64;
        *k += 1;
        let (spec, mesh) = self.flows[f].clone();
        loop {
            let r = match kind {
                0 => {
                    let budget = self.rng.range(0.08 + 0.06 * q, 0.14 + 0.06 * q, 4);
                    request(&spec, mesh, |b| b.budget(budget))
                }
                1 => {
                    let target = self.rng.range(4.0 + 2.0 * q, 6.0 + 2.0 * q, 2);
                    request(&spec, mesh, |b| b.rows_for_target(target, 40))
                }
                _ => {
                    let budgets = [
                        self.rng.range(0.06, 0.12, 3),
                        self.rng.range(0.14, 0.22, 3),
                        self.rng.range(0.24, 0.32, 3),
                    ];
                    request(&spec, mesh, |b| b.frontier(budgets))
                }
            };
            if self.seen.insert(CacheKey::of_request(&r, &base_config())) {
                return r;
            }
        }
    }
}

/// The documents `restart_replay` populates its store with, and which
/// flow each belongs to.
pub struct Corpus {
    pub flows: Vec<(WorkloadSpec, (usize, usize))>,
    pub requests: Vec<OptimizeRequest>,
    pub flow_of: Vec<usize>,
}

impl Corpus {
    /// The corpus without the documents `keep` rejects.
    pub fn retain(self, keep: impl Fn(usize) -> bool) -> Corpus {
        let (requests, flow_of) = self
            .requests
            .into_iter()
            .zip(self.flow_of)
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, d)| d)
            .unzip();
        Corpus {
            flows: self.flows,
            requests,
            flow_of,
        }
    }
}

/// Flows of the `restart_replay` corpus: ten workloads at 64×64, more
/// than the service's 8-slot flow cache holds. One mesh keeps each
/// store outcome a single latency mode (a disk hit always rebuilds a
/// 64×64 flow; a memory hit always hashes a 64×64 power map).
pub const CORPUS_MESH: (usize, usize) = (64, 64);
const CORPUS_FLOWS: usize = 10;

/// The three presets, the checkerboard, and six specs drawn from a
/// fixed stream, so every seed serves the same set of workloads.
fn corpus_workloads() -> Vec<WorkloadSpec> {
    let mut workloads = presets().to_vec();
    workloads.push(WorkloadSpec::checkerboard());
    let mut rng = Rng::stream(0, 5);
    while workloads.len() < CORPUS_FLOWS {
        let spec = spec_of(1 + rng.below(511) as u16, [0.3, 0.5, 0.7][rng.below(3)]);
        if !workloads.contains(&spec) {
            workloads.push(spec);
        }
    }
    workloads
}

/// Two single-technique documents per flow (uniform at a seeded budget,
/// ERI at a seeded row count), plus a frontier document on every other
/// flow. The frontier documents are the set-up's dominant cost, so they
/// sit on the same flows for every seed.
pub fn corpus(seed: u64, rows0: usize) -> Corpus {
    let mut rng = Rng::stream(seed, 3);
    let flows: Vec<_> = corpus_workloads()
        .into_iter()
        .map(|w| (w, CORPUS_MESH))
        .collect();
    let mut requests = Vec::new();
    let mut flow_of = Vec::new();
    for (f, (spec, mesh)) in flows.iter().enumerate() {
        for which in [0, 1] {
            let budget = rng.range(0.08, 0.32, 3);
            requests.push(request(spec, *mesh, |b| {
                b.strategy(technique(which, budget, rows0))
            }));
            flow_of.push(f);
        }
        if f % 2 == 0 {
            requests.push(request(spec, *mesh, |b| {
                b.frontier([0.08, 0.16, 0.24, 0.32])
            }));
            flow_of.push(f);
        }
    }
    Corpus {
        flows,
        requests,
        flow_of,
    }
}

/// First touches per epoch, each on a distinct flow.
pub const EPOCH_FIRST: usize = 8;
/// Repeats of already-touched documents per epoch. Kept to a quarter of
/// the epoch so the latency median lies among the disk hits: a median
/// of sub-millisecond memory hits tracks the host's thread wake-up
/// latency, which drifts by more than any end-to-end bound allows.
pub const EPOCH_REPEATS: usize = 3;
/// Fresh keys (cold solves) per epoch.
pub const EPOCH_FRESH: usize = 1;

/// `restart_replay`: the epoch plan. Flows are ranked by a seeded
/// permutation and drawn Zipf-skewed; each epoch first-touches
/// [`EPOCH_FIRST`] documents on distinct flows (disk hits), repeats
/// touched documents [`EPOCH_REPEATS`] times (memory hits) and mixes in
/// [`EPOCH_FRESH`] fresh single-technique keys (cold solves).
pub struct EpochGen {
    rng: Rng,
    weights: Vec<f64>,
    rows0: usize,
    seen: HashSet<CacheKey>,
}

impl EpochGen {
    pub fn new(seed: u64, corpus: &Corpus, rows0: usize) -> EpochGen {
        let mut rng = Rng::stream(seed, 4);
        let mut rank: Vec<usize> = (0..corpus.flows.len()).collect();
        rng.shuffle(&mut rank);
        let z = zipf(rank.len());
        let mut weights = vec![0.0; rank.len()];
        for (r, &f) in rank.iter().enumerate() {
            weights[f] = z[r];
        }
        let seen = corpus
            .requests
            .iter()
            .map(|r| CacheKey::of_request(r, &base_config()))
            .collect();
        EpochGen {
            rng,
            weights,
            rows0,
            seen,
        }
    }

    pub fn epoch(&mut self, corpus: &Corpus) -> Vec<(OptimizeRequest, ResultSource)> {
        // First touches: distinct flows (that have documents) drawn
        // without replacement.
        let mut w = self.weights.clone();
        for (f, wf) in w.iter_mut().enumerate() {
            if !corpus.flow_of.contains(&f) {
                *wf = 0.0;
            }
        }
        let mut firsts = Vec::new();
        for _ in 0..EPOCH_FIRST.min(w.iter().filter(|x| **x > 0.0).count()) {
            let f = self.rng.weighted(&w);
            w[f] = 0.0;
            let docs: Vec<usize> = (0..corpus.requests.len())
                .filter(|&d| corpus.flow_of[d] == f)
                .collect();
            firsts.push(docs[self.rng.below(docs.len())]);
        }
        let mut bag: Vec<ResultSource> = [
            vec![ResultSource::DiskCache; firsts.len()],
            vec![ResultSource::MemoryCache; EPOCH_REPEATS],
            vec![ResultSource::ColdSolve; EPOCH_FRESH],
        ]
        .concat();
        self.rng.shuffle(&mut bag);
        // A repeat needs a touched document: open with a first touch.
        let first_disk = bag
            .iter()
            .position(|e| *e == ResultSource::DiskCache)
            .expect("epoch has first touches");
        bag.swap(0, first_disk);
        let mut touched: Vec<usize> = Vec::new();
        let mut out = Vec::with_capacity(bag.len());
        for e in bag {
            let r = match e {
                ResultSource::DiskCache => {
                    let d = firsts[touched.len()];
                    touched.push(d);
                    corpus.requests[d].clone()
                }
                ResultSource::MemoryCache => {
                    let tw: Vec<f64> = touched
                        .iter()
                        .map(|&d| self.weights[corpus.flow_of[d]])
                        .collect();
                    corpus.requests[touched[self.rng.weighted(&tw)]].clone()
                }
                ResultSource::ColdSolve => self.fresh(corpus),
            };
            out.push((r, e));
        }
        out
    }

    fn fresh(&mut self, corpus: &Corpus) -> OptimizeRequest {
        loop {
            let (spec, mesh) = &corpus.flows[self.rng.weighted(&self.weights)];
            let budget = self.rng.range(0.05, 0.35, 6);
            let r = request(spec, *mesh, |b| {
                b.strategy(technique(0, budget, self.rows0))
            });
            if self.seen.insert(CacheKey::of_request(&r, &base_config())) {
                return r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS0: usize = 139;

    fn keys(requests: &[OptimizeRequest]) -> Vec<CacheKey> {
        requests
            .iter()
            .map(|r| CacheKey::of_request(r, &base_config()))
            .collect()
    }

    #[test]
    fn cold_flow_is_seeded_paired_and_distinct() {
        let take = |seed| {
            let mut g = ColdFlowGen::new(seed, ROWS0);
            let warmup = g.warmup();
            (
                warmup,
                (0..60).map(|_| g.next_request()).collect::<Vec<_>>(),
            )
        };
        let (w1, a) = take(7);
        let (_, b) = take(7);
        let (_, c) = take(8);
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
        let mut specs = HashSet::new();
        for pair in a.chunks(2) {
            assert_eq!(pair[0].workload, pair[1].workload);
            assert_eq!(pair[0].goal, pair[1].goal);
            assert_eq!((pair[0].mesh, pair[1].mesh), (MESHES[0], MESHES[1]));
            assert!(!pair[0].workload.active.is_empty());
            assert_ne!(pair[0].workload, w1.workload);
            assert!(specs.insert(format!("{:?}", pair[0].workload)));
        }
        for block in a.chunks(6) {
            let techniques: HashSet<String> = block
                .iter()
                .map(|r| match &r.goal {
                    postplace::OptimizeGoal::Strategy(s) => {
                        format!("{s:?}").chars().take(3).collect()
                    }
                    other => panic!("unexpected goal {other:?}"),
                })
                .collect();
            assert_eq!(techniques.len(), 3);
        }
    }

    #[test]
    fn optimize_warm_asks_every_flow_and_goal_kind_once_per_block() {
        let mut g = WarmGen::new(3);
        let requests: Vec<_> = (0..36).map(|_| g.next_request()).collect();
        for block in requests.chunks(18) {
            let combos: HashSet<String> = block
                .iter()
                .map(|r| {
                    let kind = match r.goal {
                        postplace::OptimizeGoal::BestWithinBudget { .. } => 0,
                        postplace::OptimizeGoal::RowsForTarget { .. } => 1,
                        postplace::OptimizeGoal::Frontier { .. } => 2,
                        _ => 3,
                    };
                    format!("{:?}{:?}{kind}", r.workload, r.mesh)
                })
                .collect();
            assert_eq!(combos.len(), 18);
        }
        assert_eq!(
            keys(&requests).into_iter().collect::<HashSet<_>>().len(),
            requests.len()
        );
    }

    #[test]
    fn restart_epochs_touch_before_they_repeat() {
        let corpus = corpus(5, ROWS0);
        assert_eq!(corpus.flows.len(), 10);
        assert!(corpus.flows.iter().all(|(_, mesh)| *mesh == CORPUS_MESH));
        let corpus_keys: HashSet<CacheKey> = keys(&corpus.requests).into_iter().collect();
        let mut epochs = EpochGen::new(5, &corpus, ROWS0);
        for _ in 0..3 {
            let plan = epochs.epoch(&corpus);
            assert_eq!(plan.len(), EPOCH_FIRST + EPOCH_REPEATS + EPOCH_FRESH);
            let mut touched = HashSet::new();
            for (r, expect) in &plan {
                let key = CacheKey::of_request(r, &base_config());
                match expect {
                    ResultSource::DiskCache => {
                        assert!(corpus_keys.contains(&key) && touched.insert(key))
                    }
                    ResultSource::MemoryCache => assert!(touched.contains(&key)),
                    ResultSource::ColdSolve => assert!(!corpus_keys.contains(&key)),
                }
            }
        }
    }
}
