//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload restart_replay --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run drives `coolserved::serve` in-process with the seeded request
//! stream of one workload (`cold_flow`, `optimize_warm`,
//! `restart_replay`; see `perfbench/README.md`), then replays every
//! answered request directly against the library to check it. With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` the replay records spans and the last line
//! carries the per-layer metrics instead. Lines before it are a
//! readable report (metric, unit, sample count, provenance, checks).
//! The process exits non-zero when any check fails.

mod gen;
mod replay;
mod report;
mod rng;
mod service;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use spans::{Recorder, Root};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdFlow,
    OptimizeWarm,
    RestartReplay,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold_flow" => Some(Workload::ColdFlow),
            "optimize_warm" => Some(Workload::OptimizeWarm),
            "restart_replay" => Some(Workload::RestartReplay),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFlow => "cold_flow",
            Workload::OptimizeWarm => "optimize_warm",
            Workload::RestartReplay => "restart_replay",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload is required (cold_flow, optimize_warm, restart_replay)")?,
        seed,
        seconds,
        trace,
    })
}

/// Scratch space under the working directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new()?;
    let dur = Duration::from_secs(args.seconds);
    let m = match args.workload {
        Workload::ColdFlow => service::cold_flow(args.seed, dur, &scratch.0)?,
        Workload::OptimizeWarm => service::optimize_warm(args.seed, dur, &scratch.0)?,
        Workload::RestartReplay => service::restart_replay(args.seed, dur, &scratch.0)?,
    };

    let rec = Recorder::new(args.trace);
    let disk = match args.workload {
        Workload::ColdFlow => Some(scratch.0.join("replay-cold-store")),
        Workload::OptimizeWarm => None,
        Workload::RestartReplay => m.snapshot.clone(),
    };
    let mut replayer = replay::Replayer::new(
        &rec,
        &gen::base_config(),
        service::SOLVER_THREADS,
        disk.clone(),
    );
    match args.workload {
        Workload::RestartReplay => {
            for s in &m.setup {
                if let Ok(record) = &s.outcome {
                    replayer.adopt_cold(&s.request, record.key, &record.response);
                }
            }
        }
        _ => {
            for s in &m.setup {
                replayer.replay(s, Root::Setup);
            }
        }
    }
    if let Some(first) = m.setup.first() {
        replayer.calibrate(&first.request);
    }
    let mut epoch = 0;
    for s in &m.samples {
        if s.epoch != epoch {
            epoch = s.epoch;
            replayer.restart(disk.clone());
        }
        replayer.replay(s, Root::Request);
    }
    let mut probe_epoch = None;
    for s in &m.probe {
        if probe_epoch != Some(s.epoch) {
            probe_epoch = Some(s.epoch);
            replayer.restart(Some(scratch.0.join("probe")));
        }
        replayer.replay(s, Root::Setup);
    }
    if args.trace {
        let path = Path::new(".perfbench").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(report::emit(args, &m, &replayer, &rec))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
