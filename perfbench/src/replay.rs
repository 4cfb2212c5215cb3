//! The replay: every request the service answered is run again on the
//! benchmark's thread, in the order the service's execute path runs it
//! (flow lookup → flow build on a miss → content key → store get →
//! optimize → store put), directly against the crates' public
//! functions. It is the correctness oracle of every run, and with
//! tracing on it also records the spans the per-layer metrics come
//! from:
//!
//! * a flow-cache miss is split into the public sub-calls of
//!   `Flow::new` + `prime_baseline`, whose `Activity`, power report and
//!   power map must equal the real flow's bit for bit;
//! * each cold answer gets a `Detail` re-run: the search goal's
//!   screening pass on a fresh delta evaluator, the answer's winning
//!   transform re-run through `Flow::run_transform`, and that exact run
//!   split into transform apply, power map, model build, solve, STA and
//!   wirelength.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use arithgen::build_benchmark;
use coolserved::json::Json;
use coolserved::{wire, ResultSource, ResultStore, ServiceError};
use logicsim::{Simulator, Workload};
use netlist::topo_order;
use placement::{total_hpwl, Placer, PlacerConfig};
use postplace::{
    config_fingerprint, detect_hotspots, CacheKey, CandidateEvaluator, Flow, FlowConfig,
    FlowReport, KeyedCache, OptimizeGoal, OptimizeOutcome, OptimizeRequest, OptimizeResponse,
    PlacementTransform, Strategy, TransformContext, TransformRegistry, TransformState,
};
use powerest::{estimate_power, power_map};
use thermalsim::FactorizedThermalModel;
use timan::analyze;

use crate::service::Sample;
use crate::spans::{Recorder, Root};

/// Capacity of `coolserved`'s flow cache, mirrored here so the replay
/// misses exactly where the service built a flow.
const SERVICE_FLOW_SLOTS: usize = 8;
/// Flows the replay keeps for itself (more than the service's slots,
/// so a flow the service rebuilds after eviction is built only once
/// here).
const ORACLE_FLOW_SLOTS: usize = 12;
/// Memory-tier capacity, as `ServiceConfig::new` sets it.
const STORE_CAPACITY: usize = 256;
/// With tracing off, one cold answer in this many is re-solved directly;
/// the others are checked for key, source and wire round trip, and
/// become the cold answer later hits are compared with. The traced run
/// re-solves every answer.
const DIRECT_EVERY: usize = 8;
/// Backends `FactorizedThermalModel::solver_name` can report.
pub const BACKENDS: [&str; 3] = ["spectral-dct", "stencil-multigrid", "csr-mic0"];

/// What the checks found.
#[derive(Default)]
pub struct Checks {
    /// Answers, keys, sources or replayed intermediates that differ.
    pub mismatches: Vec<String>,
    /// Typed refusals the direct library call reproduces, by class.
    pub refused: BTreeMap<&'static str, usize>,
    /// Answers checked (key, source, wire round trip, and against a
    /// direct or cold answer where one was computed).
    pub verified: usize,
    /// Cold answers re-solved through a direct `Flow::optimize`.
    pub solved_directly: usize,
    /// Rendered size of every checked answer document.
    pub doc_bytes: Vec<usize>,
}

pub struct Replayer<'a> {
    rec: &'a Recorder,
    base: FlowConfig,
    disk: Option<PathBuf>,
    mirror: KeyedCache<u64, ()>,
    oracle: KeyedCache<u64, Flow>,
    store: ResultStore,
    /// Rendered cold answer of every key seen so far.
    cold_docs: HashMap<CacheKey, String>,
    pub checks: RefCell<Checks>,
    /// Flow-cache misses while replaying measured requests.
    pub measured_flow_builds: u64,
    /// Samples with at least one mismatch.
    pub failed: usize,
    /// Measured cold answers seen so far (for [`DIRECT_EVERY`]).
    cold_seen: usize,
    next_id: u64,
}

/// A replayed answer: its key, the answer, where the store found it,
/// and the flow that answered.
type Answer = (
    CacheKey,
    Arc<OptimizeResponse>,
    ResultSource,
    Option<Arc<Flow>>,
);

fn render(response: &OptimizeResponse) -> String {
    wire::response_to_json(response).render()
}

fn render_report(report: &FlowReport) -> String {
    wire::report_to_json(report).render()
}

/// The report an answer stands on: the single run, the search's
/// winner, or a frontier's best point.
pub fn answer_report(response: &OptimizeResponse) -> Option<&FlowReport> {
    match &response.outcome {
        OptimizeOutcome::Frontier(f) => f
            .points
            .iter()
            .map(|p| &p.report)
            .max_by(|a, b| a.reduction_pct().total_cmp(&b.reduction_pct())),
        _ => response.report(),
    }
}

/// `(screened, exact runs)` as the answer accounts them.
pub fn answer_effort(response: &OptimizeResponse) -> (usize, usize) {
    match &response.outcome {
        OptimizeOutcome::Report(_) => (0, 1),
        OptimizeOutcome::Budget(b) => (b.screened, b.evaluations),
        OptimizeOutcome::Rows(r) => (r.screened, r.evaluations),
        OptimizeOutcome::Frontier(f) => (f.screened, f.exact_runs),
    }
}

fn same_bits(a: &geom::Grid2d<f64>, b: &geom::Grid2d<f64>) -> bool {
    a.nx() == b.nx()
        && a.ny() == b.ny()
        && (0..a.ny())
            .all(|iy| (0..a.nx()).all(|ix| a.get(ix, iy).to_bits() == b.get(ix, iy).to_bits()))
}

impl<'a> Replayer<'a> {
    /// A replayer over `base` resolved at `threads` solver threads (as
    /// `serve` resolves it), with a disk store at `disk` or memory only.
    pub fn new(
        rec: &'a Recorder,
        base: &FlowConfig,
        threads: usize,
        disk: Option<PathBuf>,
    ) -> Self {
        let mut base = base.clone();
        base.thermal.threads = threads;
        Replayer {
            rec,
            base,
            store: ResultStore::new(STORE_CAPACITY, disk.clone()),
            disk,
            mirror: KeyedCache::with_capacity(SERVICE_FLOW_SLOTS),
            oracle: KeyedCache::with_capacity(ORACLE_FLOW_SLOTS),
            cold_docs: HashMap::new(),
            checks: RefCell::new(Checks::default()),
            measured_flow_builds: 0,
            failed: 0,
            cold_seen: 0,
            next_id: 1,
        }
    }

    fn fail(&self, what: String) {
        self.checks.borrow_mut().mismatches.push(what);
    }

    /// A fresh `serve()` over the store at `disk`: empty memory tier
    /// and empty flow cache.
    pub fn restart(&mut self, disk: Option<PathBuf>) {
        self.disk = disk;
        self.store = ResultStore::new(STORE_CAPACITY, self.disk.clone());
        self.mirror = KeyedCache::with_capacity(SERVICE_FLOW_SLOTS);
    }

    /// Records `response` as the cold answer of `key` after checking its
    /// content key — and, when traced or sampled (see [`DIRECT_EVERY`]),
    /// the answer itself against a direct `Flow::optimize`. Used for
    /// answers the service produced before a restart, which the replay
    /// does not re-serve.
    pub fn adopt_cold(
        &mut self,
        request: &OptimizeRequest,
        key: CacheKey,
        response: &OptimizeResponse,
    ) {
        let before = self.checks.borrow().mismatches.len();
        self.adopt_cold_inner(request, key, response);
        if self.checks.borrow().mismatches.len() > before {
            self.failed += 1;
        }
    }

    fn adopt_cold_inner(
        &mut self,
        request: &OptimizeRequest,
        key: CacheKey,
        response: &OptimizeResponse,
    ) {
        let (resolved, fp) = self.resolve(request);
        let flow = match self.oracle_flow(resolved, fp) {
            Ok(f) => f,
            Err(e) => return self.fail(format!("oracle flow for {}: {e}", request.label())),
        };
        let rec = self.rec;
        let solve = rec.enabled() || self.take_direct();
        let direct = rec.root(Root::Setup, 0, || {
            let key_now = rec.span("postplace.content_key", || flow.content_key(request))?;
            let answer = if solve {
                Some(rec.span("postplace.optimize", || flow.optimize(request))?)
            } else {
                None
            };
            Ok::<_, postplace::FlowError>((key_now, answer))
        });
        match direct {
            Ok((key_now, answer)) => {
                let doc = render(response);
                if key_now != key {
                    self.fail(format!(
                        "{}: content key {key_now} != service key {key}",
                        request.label()
                    ));
                }
                let mut checks = self.checks.borrow_mut();
                checks.verified += 1;
                if let Some(answer) = &answer {
                    checks.solved_directly += 1;
                    if render(answer) != doc {
                        checks.mismatches.push(format!(
                            "{}: service answer differs from direct Flow::optimize",
                            request.label()
                        ));
                    }
                }
                drop(checks);
                self.cold_docs.insert(key, doc);
                if let (true, Some(answer)) = (rec.enabled(), &answer) {
                    rec.root(Root::Setup, 0, || self.detail(&flow, request, answer));
                }
            }
            Err(e) => self.fail(format!("{}: direct solve failed: {e}", request.label())),
        }
    }

    /// Whether the next cold answer checked with tracing off is the one
    /// in [`DIRECT_EVERY`] that gets a direct re-solve.
    fn take_direct(&mut self) -> bool {
        self.cold_seen += 1;
        (self.cold_seen - 1).is_multiple_of(DIRECT_EVERY)
    }

    fn resolve(&self, request: &OptimizeRequest) -> (FlowConfig, u64) {
        let resolved = request.resolve_config(&self.base);
        // The service's flow key: the config fingerprint mixed with the
        // normalized thread count.
        let fp = config_fingerprint(&resolved)
            ^ (resolved.thermal.threads.max(1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (resolved, fp)
    }

    fn oracle_flow(&self, resolved: FlowConfig, fp: u64) -> Result<Arc<Flow>, ServiceError> {
        self.oracle.get_or_compute(fp, || {
            let flow = Flow::new(resolved)?;
            flow.prime_baseline()?;
            Ok::<_, ServiceError>(flow)
        })
    }

    /// Replays one service sample under a root of kind `root` (`Setup`
    /// for the set-up requests, `Request` for measured ones) and checks
    /// the service's outcome against it.
    pub fn replay(&mut self, sample: &Sample, root: Root) {
        let id = self.next_id;
        self.next_id += 1;
        let request = &sample.request;
        let (resolved, fp) = self.resolve(request);
        let service_cold = match &sample.outcome {
            Ok(r) if r.source == ResultSource::ColdSolve => Some(r),
            _ => None,
        };
        let light = service_cold.is_some()
            && root == Root::Request
            && !self.rec.enabled()
            && !self.take_direct();
        let rec = self.rec;
        let misses_before = self.mirror.stats().misses;
        let direct = if let (true, Some(record)) = (light, service_cold) {
            // Checked without a re-solve: the store must miss where the
            // service's did, and the answer becomes the key's cold one.
            let _ = self.mirror.get_or_compute(fp, || Ok::<_, ()>(()));
            self.store.get(record.key).and_then(|hit| match hit {
                Some((response, source)) => Ok((record.key, response, source, None)),
                None => self
                    .store
                    .put(record.key, Arc::clone(&record.response))
                    .map(|()| {
                        (
                            record.key,
                            Arc::clone(&record.response),
                            ResultSource::ColdSolve,
                            None,
                        )
                    }),
            })
        } else {
            // The real flow is built (or reused) before the request span
            // opens: with tracing on, the span pays for the split
            // sub-calls instead.
            let flow_or_err = self.oracle_flow(resolved.clone(), fp);
            rec.root(root, id, || {
                rec.span("coolserved.flow_lookup", || {
                    let _ = self.mirror.get_or_compute(fp, || Ok::<_, ()>(()));
                });
                let flow = flow_or_err?;
                if self.mirror.stats().misses > misses_before && rec.enabled() {
                    self.split_flow_build(&resolved, &flow);
                }
                let key = rec.span("postplace.content_key", || flow.content_key(request))?;
                if let Some((response, source)) =
                    rec.span("coolserved.store_get", || self.store.get(key))?
                {
                    return Ok((key, response, source, Some(flow)));
                }
                let response = Arc::new(rec.span("postplace.optimize", || flow.optimize(request))?);
                rec.span("coolserved.store_put", || {
                    self.store.put(key, Arc::clone(&response))
                })?;
                self.checks.borrow_mut().solved_directly += 1;
                Ok::<_, ServiceError>((key, response, ResultSource::ColdSolve, Some(flow)))
            })
        };
        if root == Root::Request {
            self.measured_flow_builds += self.mirror.stats().misses - misses_before;
        }
        let before = self.checks.borrow().mismatches.len();
        self.check(sample, id, root, direct);
        if self.checks.borrow().mismatches.len() > before {
            self.failed += 1;
        }
    }

    fn check(
        &mut self,
        sample: &Sample,
        id: u64,
        root: Root,
        direct: Result<Answer, ServiceError>,
    ) {
        let label = sample.request.label();
        let rec = self.rec;
        match (&sample.outcome, direct) {
            (Ok(record), Ok((key, response, source, flow))) => {
                if record.key != key {
                    self.fail(format!(
                        "{label}: service key {} != replayed key {key}",
                        record.key
                    ));
                }
                if record.source != source {
                    self.fail(format!(
                        "{label}: service answered from {} but the replay from {source}",
                        record.source
                    ));
                }
                if let Some(expect) = sample.expect {
                    if expect != source {
                        self.fail(format!(
                            "{label}: planned a {expect} answer, service gave {}",
                            record.source
                        ));
                    }
                }
                let check_root = if root == Root::Request {
                    Root::Check
                } else {
                    Root::Setup
                };
                let (doc, decoded) = rec.root(check_root, id, || {
                    let doc = rec.span("coolserved.wire_encode", || render(&record.response));
                    let decoded = rec.span("coolserved.wire_decode", || {
                        Json::parse(&doc)
                            .map_err(|e| ServiceError::Codec { detail: e })
                            .and_then(|j| wire::response_from_json(&j))
                    });
                    (doc, decoded)
                });
                match decoded {
                    Ok(back) if render(&back) == doc => {}
                    Ok(_) => self.fail(format!(
                        "{label}: answer does not survive a wire round trip"
                    )),
                    Err(e) => self.fail(format!("{label}: answer does not decode: {e}")),
                }
                if render(&response) != doc {
                    self.fail(format!(
                        "{label}: service answer differs from the replayed {source} answer"
                    ));
                }
                match source {
                    ResultSource::ColdSolve => {
                        self.cold_docs.insert(key, doc.clone());
                    }
                    _ => match self.cold_docs.get(&key) {
                        Some(cold) if *cold == doc => {}
                        Some(_) => self.fail(format!(
                            "{label}: {source} hit differs from the cold answer of its key"
                        )),
                        None => {
                            self.fail(format!("{label}: {source} hit for a key never solved cold"))
                        }
                    },
                }
                let mut checks = self.checks.borrow_mut();
                checks.verified += 1;
                checks.doc_bytes.push(doc.len());
                drop(checks);
                if let (true, ResultSource::ColdSolve, Some(flow)) = (rec.enabled(), source, flow) {
                    let detail_root = if root == Root::Request {
                        Root::Detail
                    } else {
                        Root::Setup
                    };
                    rec.root(detail_root, id, || {
                        self.detail(&flow, &sample.request, &response)
                    });
                }
            }
            (Err(service), Err(direct)) => {
                let rendered = direct.to_string();
                let same = service.class() == direct.class()
                    && match service {
                        ServiceError::Job { detail, .. } => *detail == rendered,
                        other => other.to_string() == rendered,
                    };
                if same {
                    *self
                        .checks
                        .borrow_mut()
                        .refused
                        .entry(direct.class().name())
                        .or_insert(0) += 1;
                } else {
                    self.fail(format!(
                        "{label}: service error `{service}` but direct error `{rendered}`"
                    ));
                }
            }
            (Ok(record), Err(direct)) => {
                self.fail(format!(
                    "{label}: service answered from {} but the direct path failed: {direct}",
                    record.source
                ));
            }
            (Err(service), Ok(_)) => {
                self.fail(format!(
                    "{label}: service failed (`{service}`) but the direct path answered"
                ));
            }
        }
    }

    /// `Flow::new` + `prime_baseline` replayed as their public
    /// sub-calls on the same config, checked bit for bit against the
    /// real flow.
    fn split_flow_build(&self, cfg: &FlowConfig, flow: &Flow) {
        let rec = self.rec;
        let built = rec.span("postplace.flow_new", || {
            let netlist = rec
                .span("arithgen.build", || build_benchmark(&cfg.benchmark))
                .map_err(|e| e.to_string())?;
            rec.count("arithgen.builds", 1.0);
            rec.count("arithgen.cells", netlist.cell_count() as f64);
            let active: Vec<netlist::UnitId> =
                cfg.workload.active.iter().map(|r| r.unit_id()).collect();
            let activity = rec.span("logicsim.simulate", || {
                let workload =
                    Workload::with_active_units(&netlist, &active, cfg.workload.toggle_probability);
                let mut sim = Simulator::new(&netlist);
                sim.run_workload(&workload, cfg.warmup_cycles, cfg.seed);
                sim.reset_activity();
                sim.run_workload(&workload, cfg.cycles, cfg.seed.wrapping_add(1));
                sim.activity()
            });
            // The simulator settles every combinational cell once at
            // construction and once per simulated cycle.
            let comb_cells = topo_order(&netlist).map_err(|e| e.to_string())?.len();
            rec.count(
                "logicsim.cell_evals",
                (comb_cells * (1 + cfg.warmup_cycles + cfg.cycles)) as f64,
            );
            let base = rec
                .span("placement.place", || {
                    Placer::new(PlacerConfig::with_utilization(cfg.base_utilization))
                        .place(&netlist)
                })
                .map_err(|e| e.to_string())?;
            rec.count("placement.calls", 1.0);
            let power = rec.span("powerest.estimate", || {
                estimate_power(
                    &netlist,
                    &activity,
                    Some((&base.floorplan, &base.placement)),
                    None,
                    &cfg.power,
                )
            });
            rec.count("powerest.calls", 1.0);
            Ok::<_, String>((netlist, activity, base, power))
        });
        let (netlist, activity, base, power) = match built {
            Ok(b) => b,
            Err(e) => return self.fail(format!("split flow build failed: {e}")),
        };
        if activity != *flow.activity() {
            self.fail("replayed Activity differs from the flow's".to_string());
        }
        if power != *flow.power() {
            self.fail("replayed power report differs from the flow's".to_string());
        }
        let (fp, pl) = (&base.floorplan, &base.placement);
        let (nx, ny) = (cfg.thermal.grid.nx, cfg.thermal.grid.ny);
        let primed = rec.span("postplace.prime_baseline", || {
            let pmap = rec.span("powerest.power_map", || {
                power_map(&netlist, fp, pl, &power, nx, ny)
            });
            rec.count("powerest.calls", 1.0);
            let model = rec
                .span("thermalsim.model_build", || {
                    FactorizedThermalModel::build(&cfg.thermal, fp.core())
                })
                .map_err(|e| e.to_string())?;
            rec.count("thermalsim.model_builds", 1.0);
            let tmap = rec
                .span("thermalsim.solve", || model.solve(&pmap))
                .map_err(|e| e.to_string())?;
            self.count_solve(&model);
            let hotspots = rec.span("postplace.hotspot", || detect_hotspots(&tmap, &cfg.hotspot));
            let _ = rec
                .span("timan.sta", || {
                    analyze(&netlist, fp, pl, Some(&tmap), &cfg.timing)
                })
                .map_err(|e| e.to_string())?;
            rec.count("timan.calls", 1.0);
            rec.span("placement.hpwl", || total_hpwl(&netlist, fp, pl));
            Ok::<_, String>((pmap, hotspots))
        });
        match (primed, flow.baseline_power_map(), flow.baseline_hotspots()) {
            (Ok((pmap, hotspots)), Ok(flow_pmap), Ok(flow_hotspots)) => {
                if !same_bits(&pmap, flow_pmap) {
                    self.fail("replayed baseline power map differs from the flow's".to_string());
                }
                if hotspots != flow_hotspots {
                    self.fail("replayed baseline hotspots differ from the flow's".to_string());
                }
            }
            (Err(e), _, _) => self.fail(format!("split baseline failed: {e}")),
            (_, Err(e), _) | (_, _, Err(e)) => self.fail(format!("flow baseline failed: {e}")),
        }
    }

    fn count_solve(&self, model: &FactorizedThermalModel) {
        self.rec.count("thermalsim.solves", 1.0);
        let name = model.solver_name();
        if let Some(b) = BACKENDS.iter().find(|b| **b == name) {
            self.rec.count(backend_metric(b), 1.0);
        }
    }

    /// The layer split of one cold answer: the goal's screening pass,
    /// the winning transform's exact run re-timed, and that run split
    /// into its public sub-calls.
    fn detail(&self, flow: &Flow, request: &OptimizeRequest, response: &OptimizeResponse) {
        let rec = self.rec;
        let (screened, exact) = answer_effort(response);
        rec.count("postplace.screened", screened as f64);
        rec.count("postplace.exact_runs", exact as f64);
        if let Err(e) = self.screen(flow, &request.goal) {
            self.fail(format!("{}: screening replay failed: {e}", request.label()));
        }
        let Some(report) = answer_report(response) else {
            return;
        };
        if let Err(e) = self.exact_run(flow, report) {
            self.fail(format!("{}: exact-run replay failed: {e}", request.label()));
        }
    }

    /// Prices the goal's candidates on a fresh delta evaluator, the way
    /// the optimizer screens them. Single-transform goals do not screen.
    fn screen(&self, flow: &Flow, goal: &OptimizeGoal) -> Result<(), postplace::FlowError> {
        let rec = self.rec;
        let candidates: Vec<Box<dyn PlacementTransform>> = match goal {
            OptimizeGoal::BestWithinBudget { budget } => {
                let rows = postplace::rows_for_budget(flow, *budget);
                let cap = budget * 100.0 + postplace::OptimizeConfig::default().budget_slack_pct;
                let mut out = Vec::new();
                for s in [
                    Strategy::UniformSlack {
                        area_overhead: *budget,
                    },
                    Strategy::EmptyRowInsertion { rows },
                    Strategy::HotspotWrapper {
                        area_overhead: *budget,
                    },
                ] {
                    let t = s.to_transform();
                    if t.planned_overhead(flow)? * 100.0 <= cap {
                        out.push(t);
                    }
                }
                out
            }
            OptimizeGoal::Frontier { budgets } => {
                let slack = postplace::OptimizeConfig::default().budget_slack_pct;
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for &b in budgets {
                    for factory in TransformRegistry::standard().factories() {
                        let Ok(t) = factory.at_budget(flow, b) else {
                            continue;
                        };
                        if seen.contains(&t.id())
                            || t.planned_overhead(flow)? * 100.0 > b * 100.0 + slack
                        {
                            continue;
                        }
                        seen.insert(t.id());
                        out.push(t);
                    }
                }
                out
            }
            OptimizeGoal::RowsForTarget { max_rows, .. } => {
                // The surrogate bisection's probe points, without the
                // target test: max, then halvings toward one row.
                let mut rows = *max_rows;
                let mut out = Vec::new();
                while rows >= 1 {
                    out.push(Strategy::EmptyRowInsertion { rows }.to_transform());
                    rows /= 2;
                }
                out
            }
            _ => return Ok(()),
        };
        let evaluator = rec.span("thermalsim.delta_build", || flow.delta_evaluator())?;
        for t in candidates {
            let delta = match rec.span("postplace.power_delta", || t.power_delta(flow)) {
                Ok(d) => d,
                Err(postplace::FlowError::BadStrategy { .. }) => continue,
                Err(e) => return Err(e),
            };
            rec.span("thermalsim.delta_eval", || evaluator.evaluate(&delta))?;
            rec.count("thermalsim.delta_evals", 1.0);
        }
        rec.count(
            "thermalsim.delta_superposed",
            evaluator.model().superposed_evaluations() as f64,
        );
        rec.count(
            "thermalsim.delta_exact_fallbacks",
            evaluator.model().exact_fallbacks() as f64,
        );
        Ok(())
    }

    /// Re-runs the answer's winning transform, checks it reproduces the
    /// report, and splits that exact run into its sub-calls.
    fn exact_run(&self, flow: &Flow, report: &FlowReport) -> Result<(), String> {
        let rec = self.rec;
        let transform =
            TransformRegistry::parse(&report.transform_id).map_err(|e| e.to_string())?;
        let again = rec
            .span("postplace.run_transform", || {
                flow.run_transform(transform.as_ref())
            })
            .map_err(|e| e.to_string())?;
        if render_report(&again) != render_report(report) {
            self.fail(format!(
                "re-run of `{}` does not reproduce the answer's report",
                report.transform_id
            ));
        }
        let cfg = flow.config();
        let ctx = TransformContext::new(flow).map_err(|e| e.to_string())?;
        let base = flow.base_placement();
        let (_, tmap0) = flow.baseline_maps().map_err(|e| e.to_string())?;
        let hotspots = flow
            .baseline_hotspots()
            .map_err(|e| e.to_string())?
            .to_vec();
        let mut state = TransformState::with_thermal(
            base.floorplan.clone(),
            base.placement.clone(),
            base.regions.clone(),
            tmap0,
            hotspots,
        );
        let next = rec
            .span("placement.transform_apply", || {
                transform.apply(&ctx, &mut state)
            })
            .map_err(|e| e.to_string())?;
        rec.count("placement.calls", 1.0);
        let (fp, pl) = (&next.floorplan, &next.placement);
        let pmap = rec.span("powerest.power_map", || {
            power_map(
                flow.netlist(),
                fp,
                pl,
                flow.power(),
                cfg.thermal.grid.nx,
                cfg.thermal.grid.ny,
            )
        });
        rec.count("powerest.calls", 1.0);
        let model = rec
            .span("thermalsim.model_build", || {
                FactorizedThermalModel::build(&cfg.thermal, fp.core())
            })
            .map_err(|e| e.to_string())?;
        rec.count("thermalsim.model_builds", 1.0);
        let tmap = rec
            .span("thermalsim.solve", || model.solve(&pmap))
            .map_err(|e| e.to_string())?;
        self.count_solve(&model);
        let _ = rec
            .span("timan.sta", || {
                analyze(flow.netlist(), fp, pl, Some(&tmap), &cfg.timing)
            })
            .map_err(|e| e.to_string())?;
        rec.count("timan.calls", 1.0);
        let hpwl = rec.span("placement.hpwl", || total_hpwl(flow.netlist(), fp, pl));
        if tmap.peak_bin().1.to_bits() != report.after.peak_c.to_bits()
            || hpwl.to_bits() != report.hpwl_after_um.to_bits()
        {
            self.fail(format!(
                "split exact run of `{}` does not reproduce the report",
                report.transform_id
            ));
        }
        Ok(())
    }

    /// In the traced run, exercises every layer once on `request`'s flow
    /// under a `Setup` root — a budget search's screening and its exact
    /// run — so per-call timings exist on workloads whose requests
    /// bypass a layer.
    pub fn calibrate(&self, request: &OptimizeRequest) {
        if !self.rec.enabled() {
            return;
        }
        let (resolved, fp) = self.resolve(request);
        let flow = match self.oracle_flow(resolved.clone(), fp) {
            Ok(f) => f,
            Err(e) => return self.fail(format!("calibration flow: {e}")),
        };
        let goal = OptimizeRequest {
            goal: OptimizeGoal::BestWithinBudget { budget: 0.16 },
            ..request.clone()
        };
        self.rec.root(Root::Setup, 0, || {
            self.split_flow_build(&resolved, &flow);
            match self.rec.span("postplace.optimize", || flow.optimize(&goal)) {
                Ok(answer) => self.detail(&flow, &goal, &answer),
                Err(e) => self.fail(format!("calibration solve failed: {e}")),
            }
        });
    }
}

pub fn backend_metric(backend: &str) -> &'static str {
    match backend {
        "spectral-dct" => "thermalsim.solves_by_backend.spectral-dct",
        "stencil-multigrid" => "thermalsim.solves_by_backend.stencil-multigrid",
        _ => "thermalsim.solves_by_backend.csr-mic0",
    }
}
