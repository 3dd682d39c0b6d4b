//! `loadbench --workload <one-conn|mixed> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints, as its last line, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).  A run whose generator fell behind its schedule
//! (send lag above [`SEND_LAG_P50_BOUND_US`] or [`SEND_LAG_P99_BOUND_US`])
//! is invalid: it prints no result and exits 1.

use loadbench::bench::{measure, peak_rss_mb, Measurement, APP_DEADLINE, LAMBDA_DEADLINE};
use loadbench::client::{Sample, Status};
use loadbench::layers::{probe, Metric};
use loadbench::ledger::{quantiles, tail_mean, us, Quantiles, Tracer};
use loadbench::plan::Workload;
use rp_net::span::Phase;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Largest send-lag median of a valid run, µs.  The pacing artefact this
/// catches — a timed-out read used as the pacing sleep, ~8 ms per wait —
/// puts the median lag near 4 ms; a healthy generator's is below 1 µs.
const SEND_LAG_P50_BOUND_US: f64 = 1_000.0;
/// Largest send-lag p99 of a valid run, µs.  On a virtual machine whose
/// CPUs the host preempts, the generator's thread stalls for milliseconds
/// whatever the load, and the p99 reads 1–15 ms; this bound only catches a
/// generator that has fallen behind its schedule for good.
const SEND_LAG_P99_BOUND_US: f64 = 50_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: want 0 < s <= 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Latencies in µs, each failure counted at the class deadline.  A class
/// with no requests (a run too short to draw one) counts as one failure.
fn latencies(samples: &[Sample], deadline: Duration) -> Vec<f64> {
    if samples.is_empty() {
        return vec![us(deadline)];
    }
    samples.iter().map(|s| us(s.latency(deadline))).collect()
}

/// The send-lag quantiles of a run's open-loop requests.
fn send_lag(m: &Measurement) -> Option<Quantiles> {
    quantiles(m.app.iter().map(|s| us(s.sent - s.intended)).collect())
}

/// Completed λ⁴ᵢ submissions per second of the closed loop.
fn lambda_rps(samples: &[Sample]) -> f64 {
    let ok = samples.iter().filter(|s| s.status == Status::Ok).count();
    let first = samples.iter().map(|s| s.sent).min();
    let last = samples.iter().filter_map(|s| s.received).max();
    match (first, last) {
        (Some(a), Some(b)) if b > a => ok as f64 / (b - a).as_secs_f64(),
        _ => 0.0,
    }
}

fn end_to_end(m: &Measurement) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for (class, samples, deadline) in [
        ("app", &m.app, APP_DEADLINE),
        ("lambda", &m.lambda, LAMBDA_DEADLINE),
    ] {
        let latencies = latencies(samples, deadline);
        let tail = tail_mean(&latencies).ok_or("no latencies")?;
        let q = quantiles(latencies).ok_or("no latencies")?;
        eprintln!(
            "{class}: n={} p50 {:.1} us, p{:.2} {:.1} us, slowest-10% mean {tail:.1} us",
            q.n, q.p50, q.tail_pct, q.tail
        );
        out.push((format!("{class}_p50_us"), q.p50, "us"));
        out.push((format!("{class}_tail_us"), tail, "us"));
    }
    let setup = quantiles(m.setup_s.clone()).ok_or("no set-up")?;
    out.extend([
        ("lambda_rps".into(), lambda_rps(&m.lambda), "1/s"),
        ("cpu_us_per_req".into(), m.cpu_us_per_req, "us"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ("setup_s".into(), setup.p50, "s"),
    ]);
    Ok(out)
}

/// The per-layer metrics of a traced run, checking both ledgers.
fn per_layer(
    workload: Workload,
    seed: u64,
    traced: &Measurement,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    tracer.record_samples(&traced.app);
    tracer.record_samples(&traced.lambda);
    let closed = tracer.check_request_ledger()?;
    let (app, lambda) = traced.ledgers()?;
    eprintln!("ledger closes on {closed} requests and both classes");
    let mut out: Vec<Metric> = vec![
        (
            "client.send_lag_p99_us".into(),
            send_lag(traced).map_or(0.0, |q| q.tail),
            "us",
        ),
        ("client.rtt_mean_us.app".into(), app.rtt_mean_us, "us"),
        ("client.rtt_mean_us.lambda".into(), lambda.rtt_mean_us, "us"),
    ];
    for (class, l) in [("app", &app), ("lambda", &lambda)] {
        for phase in Phase::ALL {
            if phase == Phase::Infer && class == "app" {
                continue;
            }
            let name = phase.name().replace('-', "_");
            out.push((
                format!("net.{name}_mean_us.{class}"),
                l.phase_mean_us[phase.index()],
                "us",
            ));
        }
        out.push((
            format!("net.unattributed_mean_us.{class}"),
            l.unattributed_mean_us,
            "us",
        ));
    }
    out.push(("net.threads".into(), traced.server_threads as f64, "count"));
    out.push((
        "net.frames_received".into(),
        traced.stats.frames_received as f64,
        "count",
    ));
    out.push((
        "net.decode_errors".into(),
        traced.stats.decode_errors as f64,
        "count",
    ));
    out.extend(probe(tracer, &traced.config, &traced.refs, &traced.plan)?);
    let cached = traced.stats.per_class[2].max(1) as f64;
    out.push((
        "lambda4i.cache_hit_ratio".into(),
        traced.cache.hits as f64 / cached,
        "ratio",
    ));

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{seed}.csv", workload.name());
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_csv()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("{} spans written to {path}", tracer.spans.len());
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    let epoch = Instant::now();
    let io = |e: std::io::Error| format!("socket: {e}");
    let m = measure(args.workload, args.seed, args.seconds).map_err(io)?;
    let mut layer_errors = Vec::new();
    let metrics = if args.trace {
        let mut tracer = Tracer::new(epoch);
        match per_layer(args.workload, args.seed, &m, &mut tracer) {
            Ok(metrics) => metrics,
            Err(e) => {
                layer_errors.push(e);
                Vec::new()
            }
        }
    } else {
        end_to_end(&m)?
    };
    if let Some(lag) = send_lag(&m) {
        eprintln!(
            "send lag: p50 {:.1} us, p{:.2} {:.1} us",
            lag.p50, lag.tail_pct, lag.tail
        );
        if lag.p50 > SEND_LAG_P50_BOUND_US || lag.tail > SEND_LAG_P99_BOUND_US {
            return Err("invalid run: the generator fell behind its schedule".into());
        }
    }
    eprintln!(
        "host steal: {:.1}% of CPU time in the timed phase",
        100.0 * m.steal_share
    );
    let attempted = m.samples().count();
    let failed = m.failed();
    let mut wrong = layer_errors;
    wrong.extend(m.mismatches());
    wrong.extend(m.reconcile.iter().cloned());
    if m.wedged {
        eprintln!("server wedged: unanswered requests, server abandoned");
    }
    for s in m.samples() {
        if let Status::Failed(why) = &s.status {
            eprintln!("request {} failed: {why}", s.id);
        }
    }
    for w in &wrong {
        eprintln!("incorrect: {w}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        wrong.is_empty()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a number: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(1);
        }
    }
    // A wedged server's threads are abandoned, not joined: end the process
    // without waiting for them.
    std::process::exit(0);
}
