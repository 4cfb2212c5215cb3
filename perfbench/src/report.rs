//! Metrics, the readable report, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use coolserved::ResultSource;

use crate::replay::{answer_report, backend_metric, Replayer, BACKENDS};
use crate::service::{self, Measured, Sample};
use crate::spans::Recorder;
use crate::{Args, Workload};

/// Stage coverage below this share of replayed wall time fails the
/// traced run.
const MIN_COVERAGE: f64 = 0.9;

/// Linear-interpolation percentile (`q` in 0–1) of `values`.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One metric: name, value, unit, and the samples it rests on.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

/// Latencies of requests answered from `source`: from the measured
/// stream where it has hits (`restart_replay`), from the read-back probe
/// otherwise.
fn hit_latencies(m: &Measured, source: ResultSource) -> Vec<f64> {
    m.samples
        .iter()
        .chain(&m.probe)
        .filter(|s| matches!(&s.outcome, Ok(r) if r.source == source))
        .map(|s| s.latency_ms)
        .collect()
}

fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    let n = m.samples.len();
    let ok: Vec<&Sample> = m.samples.iter().filter(|s| s.outcome.is_ok()).collect();
    let latency: Vec<f64> = m.samples.iter().map(|s| s.latency_ms).collect();
    out.put("setup_s", percentile(&m.setup_s, 0.5), "s", m.setup_s.len());
    out.put("latency_p50_ms", percentile(&latency, 0.5), "ms", n);
    out.put("latency_p90_ms", percentile(&latency, 0.9), "ms", n);
    out.put(
        "throughput_rps",
        ok.len() as f64 / m.wall_s,
        "1/s",
        ok.len(),
    );
    out.put(
        "success_ratio",
        ok.len() as f64 / n.max(1) as f64,
        "ratio",
        n,
    );
    out.put("peak_rss_mb", m.peak_rss_mb, "MB", 1);
    // Each answered key counts once, however often it was served.
    let mut seen = std::collections::HashSet::new();
    let reductions: Vec<f64> = ok
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .filter(|r| seen.insert(r.key))
        .filter_map(|r| answer_report(&r.response))
        .map(|r| r.reduction_pct())
        .collect();
    out.put(
        "reduction_pct_mean",
        mean(&reductions),
        "%",
        reductions.len(),
    );
    let disk = hit_latencies(m, ResultSource::DiskCache);
    out.put("disk_hit_p50_ms", percentile(&disk, 0.5), "ms", disk.len());
    out
}

/// Per-layer metrics of the traced run. Times are means per call over
/// every traced call (set-up and calibration included); counts are per
/// measured request, from the request's own path and its detail re-run.
fn per_layer(m: &Measured, replayer: &Replayer<'_>, rec: &Recorder) -> Metrics {
    let mut out = Metrics::default();
    let per_name = rec.per_name();
    let counts = rec.counts();
    let all_counts = rec.all_counts();
    let n = m.samples.len().max(1) as f64;
    let per_call = |name: &str, scale: f64| {
        per_name.get(name).map_or((0.0, 0), |(calls, total)| {
            (total / *calls as f64 * scale, *calls)
        })
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let timed: [(&str, &str, f64, &'static str); 18] = [
        ("arithgen.build_ms", "arithgen.build", 1e3, "ms"),
        ("logicsim.simulate_ms", "logicsim.simulate", 1e3, "ms"),
        ("placement.place_ms", "placement.place", 1e3, "ms"),
        (
            "placement.transform_apply_ms",
            "placement.transform_apply",
            1e3,
            "ms",
        ),
        ("powerest.estimate_ms", "powerest.estimate", 1e3, "ms"),
        ("powerest.power_map_ms", "powerest.power_map", 1e3, "ms"),
        (
            "thermalsim.model_build_ms",
            "thermalsim.model_build",
            1e3,
            "ms",
        ),
        ("thermalsim.solve_ms", "thermalsim.solve", 1e3, "ms"),
        (
            "thermalsim.delta_eval_us",
            "thermalsim.delta_eval",
            1e6,
            "us",
        ),
        ("timan.sta_ms", "timan.sta", 1e3, "ms"),
        ("postplace.hotspot_ms", "postplace.hotspot", 1e3, "ms"),
        ("postplace.optimize_ms", "postplace.optimize", 1e3, "ms"),
        (
            "postplace.run_transform_ms",
            "postplace.run_transform",
            1e3,
            "ms",
        ),
        (
            "postplace.content_key_us",
            "postplace.content_key",
            1e6,
            "us",
        ),
        ("coolserved.store_get_us", "coolserved.store_get", 1e6, "us"),
        ("coolserved.store_put_ms", "coolserved.store_put", 1e3, "ms"),
        (
            "coolserved.wire_encode_us",
            "coolserved.wire_encode",
            1e6,
            "us",
        ),
        (
            "coolserved.wire_decode_us",
            "coolserved.wire_decode",
            1e6,
            "us",
        ),
    ];
    for (metric, span, scale, unit) in timed {
        let (value, calls) = per_call(span, scale);
        out.put(metric, value, unit, calls);
    }
    let builds = all_counts.get("arithgen.builds").copied().unwrap_or(0.0);
    out.put(
        "arithgen.cells",
        all_counts.get("arithgen.cells").copied().unwrap_or(0.0) / builds.max(1.0),
        "count",
        builds as usize,
    );
    let evals_all = all_counts
        .get("logicsim.cell_evals")
        .copied()
        .unwrap_or(0.0);
    let sim_s = per_name.get("logicsim.simulate").map_or(0.0, |(_, t)| *t);
    out.put(
        "logicsim.cell_evals",
        count("logicsim.cell_evals") / n,
        "1/req",
        m.samples.len(),
    );
    out.put(
        "logicsim.ns_per_cell_eval",
        if evals_all > 0.0 {
            sim_s * 1e9 / evals_all
        } else {
            0.0
        },
        "ns",
        builds as usize,
    );
    for name in [
        "placement.calls",
        "powerest.calls",
        "thermalsim.model_builds",
        "thermalsim.solves",
        "thermalsim.delta_evals",
        "thermalsim.delta_superposed",
        "thermalsim.delta_exact_fallbacks",
        "timan.calls",
        "postplace.screened",
        "postplace.exact_runs",
    ] {
        out.put(name, count(name) / n, "1/req", m.samples.len());
    }
    for b in BACKENDS {
        let name = backend_metric(b);
        out.put(name, count(name) / n, "1/req", m.samples.len());
    }
    let screened = count("postplace.screened");
    out.put(
        "postplace.exact_share",
        if screened > 0.0 {
            count("postplace.exact_runs") / screened
        } else {
            0.0
        },
        "ratio",
        m.samples.len(),
    );

    // Service-side counters over the measured phase.
    let ok: Vec<&coolserved::JobRecord> = m
        .samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .collect();
    let queue_wait: Vec<f64> = m
        .samples
        .iter()
        .filter_map(|s| {
            s.outcome
                .as_ref()
                .ok()
                .map(|r| (s.latency_ms - r.wall_ms).max(0.0))
        })
        .collect();
    let execute: Vec<f64> = ok.iter().map(|r| r.wall_ms).collect();
    out.put(
        "coolserved.queue_wait_ms",
        percentile(&queue_wait, 0.5),
        "ms",
        queue_wait.len(),
    );
    out.put(
        "coolserved.execute_ms",
        percentile(&execute, 0.5),
        "ms",
        execute.len(),
    );
    // A memory hit takes about 0.1 ms, most of it two thread hand-offs,
    // so its median moves with the host's wake-up latency by more than
    // any end-to-end bound allows; it is reported here, ungated.
    let memory = hit_latencies(m, ResultSource::MemoryCache);
    out.put(
        "coolserved.mem_hit_p50_ms",
        percentile(&memory, 0.5),
        "ms",
        memory.len(),
    );
    let docs: Vec<f64> = replayer
        .checks
        .borrow()
        .doc_bytes
        .iter()
        .map(|b| *b as f64)
        .collect();
    out.put("coolserved.doc_bytes", mean(&docs), "bytes", docs.len());
    let delta = |f: fn(&coolserved::ServiceStats) -> u64| -> f64 {
        m.windows
            .iter()
            .map(|w| (f(&w.after) - f(&w.before)) as f64)
            .sum()
    };
    for (name, value) in [
        ("coolserved.flows_built", delta(|s| s.flows_built)),
        ("coolserved.cold_solves", delta(|s| s.cold_solves)),
        ("coolserved.mem_hits", delta(|s| s.store.memory.hits)),
        ("coolserved.disk_hits", delta(|s| s.store.disk_hits)),
        ("coolserved.disk_writes", delta(|s| s.store.disk_writes)),
    ] {
        out.put(name, value / n, "1/req", m.samples.len());
    }
    let hits = ok
        .iter()
        .filter(|r| r.source != ResultSource::ColdSolve)
        .count();
    out.put(
        "coolserved.store_hit_ratio",
        hits as f64 / ok.len().max(1) as f64,
        "ratio",
        ok.len(),
    );
    let (fh, fm) = (delta(|s| s.flows.hits), delta(|s| s.flows.misses));
    out.put(
        "coolserved.flow_cache_hit_ratio",
        fh / (fh + fm).max(1.0),
        "ratio",
        (fh + fm) as usize,
    );

    let cov = rec.request_coverage();
    let wall: f64 = cov.iter().map(|c| c.0).sum();
    let leaf: f64 = cov.iter().map(|c| c.1).sum();
    let min = cov.iter().map(|c| c.1 / c.0).fold(f64::INFINITY, f64::min);
    out.put(
        "trace.coverage",
        if wall > 0.0 { leaf / wall } else { 0.0 },
        "ratio",
        cov.len(),
    );
    out.put(
        "trace.coverage_min",
        if cov.is_empty() { 0.0 } else { min },
        "ratio",
        cov.len(),
    );
    let traced: Vec<f64> = cov.iter().map(|c| c.0 * 1e3).collect();
    let untraced: Vec<f64> = m.samples.iter().map(|s| s.latency_ms).collect();
    out.put(
        "trace.overhead_ms",
        percentile(&traced, 0.5) - percentile(&untraced, 0.5),
        "ms",
        traced.len(),
    );
    out
}

/// The assertions that keep each workload isolating its layer.
fn bypass_checks(
    args: &Args,
    m: &Measured,
    replayer: &Replayer<'_>,
    rec: &Recorder,
) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let sum = |f: fn(&coolserved::ServiceStats) -> u64| -> u64 {
        m.windows.iter().map(|w| f(&w.after) - f(&w.before)).sum()
    };
    let built = sum(|s| s.flows_built);
    out.push((
        format!(
            "replayed flow-cache misses {} == service flows built {built}",
            replayer.measured_flow_builds
        ),
        replayer.measured_flow_builds == built,
    ));
    let ok = m.samples.iter().filter(|s| s.outcome.is_ok()).count() as u64;
    match args.workload {
        Workload::OptimizeWarm => {
            out.push((
                format!("flows built during the measured phase: {built} == 0"),
                built == 0,
            ));
            if args.trace {
                let evals = rec
                    .counts()
                    .get("logicsim.cell_evals")
                    .copied()
                    .unwrap_or(0.0);
                out.push((
                    format!("logicsim cell evaluations per measured request: {evals} == 0"),
                    evals == 0.0,
                ));
            }
        }
        Workload::ColdFlow => {
            let writes = sum(|s| s.store.disk_writes);
            out.push((
                format!("disk writes {writes} == successful requests {ok}"),
                writes == ok,
            ));
        }
        Workload::RestartReplay => {
            let per_epoch: Vec<u64> = m
                .windows
                .iter()
                .map(|w| w.after.store.disk_hits - w.before.store.disk_hits)
                .collect();
            out.push((
                format!("disk hits per epoch {per_epoch:?} all >= 1"),
                !per_epoch.is_empty() && per_epoch.iter().all(|h| *h >= 1),
            ));
        }
    }
    out
}

fn git_commit() -> String {
    // Never look above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the report and the result line; returns whether every check
/// passed.
pub fn emit(args: &Args, m: &Measured, replayer: &Replayer<'_>, rec: &Recorder) -> bool {
    let e2e = end_to_end(m);
    let layers = args.trace.then(|| per_layer(m, replayer, rec));
    let bypass = bypass_checks(args, m, replayer, rec);
    let checks = replayer.checks.borrow();

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# provenance: nproc={} available_parallelism={} workers=1 solver_threads={} commit={} profile={}",
        nproc(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        service::SOLVER_THREADS,
        git_commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    println!(
        "# load: closed loop, 1 client, 1 request outstanding; set-ups={} epochs={} measured={} probe={} wall={:.3}s",
        m.setup_s.len(),
        m.epochs,
        m.samples.len(),
        m.probe.len(),
        m.wall_s
    );
    for metric in &e2e.0 {
        println!(
            "# e2e {} = {} {} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let memory = hit_latencies(m, ResultSource::MemoryCache);
    println!(
        "# memory-hit p50 = {} ms (n={}; ungated, per-layer coolserved.mem_hit_p50_ms)",
        percentile(&memory, 0.5),
        memory.len()
    );
    if let Some(layers) = &layers {
        for metric in &layers.0 {
            println!(
                "# layer {} = {} {} (n={})",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
    }
    let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
    for s in m.samples.iter().chain(&m.probe) {
        if let Err(e) = &s.outcome {
            *by_class.entry(e.class().name().to_string()).or_insert(0) += 1;
        }
    }
    println!("# service errors by class: {by_class:?}; reproduced by the direct library call (typed refusals): {:?}", checks.refused);
    println!(
        "# answers checked: {} ({} re-solved through a direct Flow::optimize)",
        checks.verified, checks.solved_directly
    );
    let mut ok = checks.mismatches.is_empty();
    for m in checks.mismatches.iter().take(20) {
        println!("# MISMATCH {m}");
    }
    for (what, pass) in &bypass {
        println!("# bypass {}: {what}", if *pass { "ok" } else { "FAILED" });
        ok &= pass;
    }
    if let Some(layers) = &layers {
        let cov = layers
            .0
            .iter()
            .find(|x| x.name == "trace.coverage")
            .map_or(0.0, |x| x.value);
        let pass = cov >= MIN_COVERAGE;
        println!(
            "# coverage {}: leaf spans cover {:.1}% of replayed request time (bound {:.0}%)",
            if pass { "ok" } else { "FAILED" },
            cov * 100.0,
            MIN_COVERAGE * 100.0
        );
        ok &= pass;
    }

    let attempted = m.setup.len() + m.samples.len() + m.probe.len();
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        replayer.failed
    );
    let chosen = layers.as_ref().unwrap_or(&e2e);
    for (i, metric) in chosen.0.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_num(metric.value),
            metric.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    ok && replayer.failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
