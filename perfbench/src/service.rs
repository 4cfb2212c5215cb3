//! The three workloads as runs of `coolserved::serve`: set-up (done
//! several times, timed each time), the measured closed loop, and — on
//! the workloads whose own stream has no store hits — a read-back
//! probe of disk and memory hits.
//!
//! Load shape: one process, one service worker with one solver thread
//! and one client with one request outstanding, so one thread is busy
//! at a time. The loop is closed because every `ServiceHandle::wait`
//! caller blocks on its own reply.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coolserved::{
    serve, JobRecord, ResultSource, ResultStore, ServiceConfig, ServiceError, ServiceHandle,
    ServiceStats,
};
use postplace::{OptimizeRequest, OptimizeResponse};

use crate::gen::{self, ColdFlowGen, WarmGen};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Solver threads of the service (and of the replay). Not auto: a
/// threaded solve meets its team at barriers many times per request,
/// and on a small shared VM each meeting can wait for the other vCPU to
/// be woken, which makes latency partly a measure of the host scheduler.
pub const SOLVER_THREADS: usize = 1;
/// Documents the read-back probe restores (one per distinct 64×64
/// flow; one mesh keeps each hit kind a single latency mode).
const PROBE_DOCS: usize = 6;
const PROBE_MESH: (usize, usize) = (64, 64);
/// Measured requests between two read-back probe restarts, so the
/// probe's disk hits are spread over the whole measured phase.
const PROBE_EVERY: usize = 18;
/// Memory-hit rounds per probe restart.
const PROBE_ROUNDS: usize = 8;
/// `peak_rss_mb` is read after this many measured requests (or at the
/// end of a shorter run): the memory tier and job table grow with every
/// answer, so a fixed point keeps the figure independent of throughput.
const RSS_AFTER_REQUESTS: usize = 48;

pub struct Sample {
    pub request: OptimizeRequest,
    pub epoch: usize,
    pub latency_ms: f64,
    pub outcome: Result<JobRecord, ServiceError>,
    /// The store outcome the plan predicts, where it predicts one.
    pub expect: Option<ResultSource>,
}

/// Counters of one `serve()` over the measured phase.
pub struct StatsWindow {
    pub before: ServiceStats,
    pub after: ServiceStats,
}

#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Set-up requests of the kept set-up (replayed before the measured
    /// requests, in order).
    pub setup: Vec<Sample>,
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub windows: Vec<StatsWindow>,
    pub epochs: usize,
    pub probe: Vec<Sample>,
    pub peak_rss_mb: f64,
    /// `restart_replay`: a copy of the store as set-up left it.
    pub snapshot: Option<PathBuf>,
}

impl Measured {
    fn note_rss(&mut self) {
        if self.samples.len() == RSS_AFTER_REQUESTS {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    fn note_rss_at_end(&mut self) {
        if self.samples.len() < RSS_AFTER_REQUESTS {
            self.peak_rss_mb = peak_rss_mb();
        }
    }
}

fn config(disk: Option<&Path>) -> ServiceConfig {
    let c = ServiceConfig::new(gen::base_config())
        .workers(1)
        .solver_threads(SOLVER_THREADS);
    match disk {
        Some(d) => c.disk_root(d),
        None => c,
    }
}

/// One closed-loop request: submit, then block on the reply.
fn issue(
    handle: &ServiceHandle<'_>,
    request: OptimizeRequest,
    epoch: usize,
    expect: Option<ResultSource>,
) -> Sample {
    let t = Instant::now();
    let id = handle.submit(request.clone());
    let outcome = handle.wait(id);
    Sample {
        request,
        epoch,
        latency_ms: t.elapsed().as_secs_f64() * 1e3,
        outcome,
        expect,
    }
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The base floorplan's row count (benchmark netlist + base
/// utilization; the same for every workload spec).
pub fn base_rows() -> Result<usize, String> {
    let base = gen::base_config();
    let netlist = arithgen::build_benchmark(&base.benchmark).map_err(|e| e.to_string())?;
    let placed = placement::Placer::new(placement::PlacerConfig::with_utilization(
        base.base_utilization,
    ))
    .place(&netlist)
    .map_err(|e| e.to_string())?;
    Ok(placed.floorplan.num_rows())
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `cold_flow`: set-up is an empty disk store plus one warm-up request
/// on a spec no measured request uses; then distinct specs, each at
/// both meshes, until the time is up.
pub fn cold_flow(seed: u64, run: Duration, scratch: &Path) -> Result<Measured, String> {
    let mut gen = ColdFlowGen::new(seed, base_rows()?);
    let warmup = [gen.warmup()];
    closed_loop(
        run,
        scratch,
        |rep| Some(scratch.join(format!("cold-store-{rep}"))),
        &warmup,
        || gen.next_request(),
    )
}

/// `optimize_warm`: set-up builds the six preset × mesh flows through
/// the service (memory-only store); then search goals that miss the
/// store until the time is up.
pub fn optimize_warm(seed: u64, run: Duration, scratch: &Path) -> Result<Measured, String> {
    let mut gen = WarmGen::new(seed);
    let priming: Vec<OptimizeRequest> = gen::warm_flows()
        .iter()
        .map(|(spec, mesh)| gen::priming_request(spec, *mesh))
        .collect();
    closed_loop(run, scratch, |_| None, &priming, || gen.next_request())
}

/// One `serve()` per set-up (store at `disk(rep)`), each answering the
/// `setup` requests; the last one then runs the measured closed loop on
/// `next` until the time is up, with a read-back probe restart after
/// every [`PROBE_EVERY`] measured requests. Probe time is not measured
/// wall time.
fn closed_loop(
    run: Duration,
    scratch: &Path,
    disk: impl Fn(usize) -> Option<PathBuf>,
    setup: &[OptimizeRequest],
    mut next: impl FnMut() -> OptimizeRequest,
) -> Result<Measured, String> {
    let mut m = Measured {
        epochs: 1,
        ..Measured::default()
    };
    let mut probe_result = Ok(());
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        serve(config(disk(rep).as_deref()), |h| {
            let answered: Vec<Sample> = setup
                .iter()
                .map(|r| issue(h, r.clone(), 0, Some(ResultSource::ColdSolve)))
                .collect();
            m.setup_s.push(secs(t));
            if rep + 1 < SETUP_REPS {
                return;
            }
            m.setup = answered;
            let before = h.stats();
            let mut probe = Probe::new(scratch.join("probe"));
            let mut probing = Duration::ZERO;
            let start = Instant::now();
            while start.elapsed() < run {
                let s = issue(h, next(), 0, Some(ResultSource::ColdSolve));
                probe.collect(&s);
                m.samples.push(s);
                m.note_rss();
                if m.samples.len().is_multiple_of(PROBE_EVERY) && start.elapsed() < run {
                    let t = Instant::now();
                    probe_result = probe.restart(&mut m.probe);
                    probing += t.elapsed();
                    if probe_result.is_err() {
                        break;
                    }
                }
            }
            m.wall_s = (start.elapsed() - probing).as_secs_f64();
            // A run too short for one probe restart still probes once.
            if probe.restarts == 0 && probe_result.is_ok() {
                probe_result = probe.restart(&mut m.probe);
            }
            m.windows.push(StatsWindow {
                before,
                after: h.stats(),
            });
        });
    }
    probe_result?;
    m.note_rss_at_end();
    Ok(m)
}

/// `restart_replay`: set-up populates a disk store with the corpus
/// (one `serve()`); then epochs, each a fresh `serve()` over that store
/// replaying a Zipf-skewed plan, until the time is up.
pub fn restart_replay(seed: u64, run: Duration, scratch: &Path) -> Result<Measured, String> {
    let rows0 = base_rows()?;
    let mut m = Measured::default();
    let corpus = gen::corpus(seed, rows0);
    let mut store = PathBuf::new();
    for rep in 0..SETUP_REPS {
        store = scratch.join(format!("replay-store-{rep}"));
        let t = Instant::now();
        let setup = serve(config(Some(&store)), |h| {
            corpus
                .requests
                .iter()
                .map(|r| issue(h, r.clone(), 0, Some(ResultSource::ColdSolve)))
                .collect::<Vec<_>>()
        });
        m.setup_s.push(secs(t));
        m.setup = setup;
    }
    // Documents the set-up could not solve (typed refusals) are not in
    // the store; the epochs draw from the rest.
    let corpus = corpus.retain(|i| m.setup[i].outcome.is_ok());
    let snapshot = scratch.join("replay-snapshot");
    copy_dir(&store, &snapshot)?;
    m.snapshot = Some(snapshot);
    let mut epochs = gen::EpochGen::new(seed, &corpus, rows0);
    let start = Instant::now();
    while start.elapsed() < run {
        let plan = epochs.epoch(&corpus);
        let epoch = m.epochs;
        serve(config(Some(&store)), |h| {
            let before = h.stats();
            for (r, expect) in plan {
                if start.elapsed() >= run {
                    break;
                }
                m.samples.push(issue(h, r, epoch, Some(expect)));
                m.note_rss();
            }
            m.windows.push(StatsWindow {
                before,
                after: h.stats(),
            });
        });
        m.epochs += 1;
    }
    m.wall_s = secs(start);
    m.note_rss_at_end();
    Ok(m)
}

/// The read-back probe: the first successful 64×64 answer of up to
/// [`PROBE_DOCS`] distinct flows, restored into a disk store of its own
/// the first time it is asked for; each restart is then a fresh
/// `serve()` over that store that asks for every document once (a disk
/// hit) and [`PROBE_ROUNDS`] more times (memory hits).
struct Probe {
    dir: PathBuf,
    flows: HashSet<(String, (usize, usize))>,
    docs: Vec<(OptimizeRequest, postplace::CacheKey, Arc<OptimizeResponse>)>,
    stored: bool,
    restarts: usize,
}

impl Probe {
    fn new(dir: PathBuf) -> Probe {
        Probe {
            dir,
            flows: HashSet::new(),
            docs: Vec::new(),
            stored: false,
            restarts: 0,
        }
    }

    fn collect(&mut self, s: &Sample) {
        if let (Ok(record), true) = (&s.outcome, s.request.mesh == PROBE_MESH) {
            if !self.stored
                && self.docs.len() < PROBE_DOCS
                && self
                    .flows
                    .insert((format!("{:?}", s.request.workload), s.request.mesh))
            {
                self.docs
                    .push((s.request.clone(), record.key, Arc::clone(&record.response)));
            }
        }
    }

    fn restart(&mut self, out: &mut Vec<Sample>) -> Result<(), String> {
        if self.docs.is_empty() {
            return Ok(());
        }
        if !self.stored {
            let store = ResultStore::new(PROBE_DOCS, Some(self.dir.clone()));
            for (_, key, response) in &self.docs {
                store
                    .put(*key, Arc::clone(response))
                    .map_err(|e| e.to_string())?;
            }
            self.stored = true;
        }
        let epoch = self.restarts;
        self.restarts += 1;
        serve(config(Some(&self.dir)), |h| {
            for (r, _, _) in &self.docs {
                out.push(issue(h, r.clone(), epoch, Some(ResultSource::DiskCache)));
            }
            for _ in 0..PROBE_ROUNDS {
                for (r, _, _) in &self.docs {
                    out.push(issue(h, r.clone(), epoch, Some(ResultSource::MemoryCache)));
                }
            }
        });
        Ok(())
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name())).map_err(|e| e.to_string())?;
        } else if path.is_dir() {
            copy_dir(&path, &to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
