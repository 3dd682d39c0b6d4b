//! Per-layer timings, taken from outside around calls into each crate's
//! public functions.  Every call is a span of the traced run, and every
//! result is checked against the same oracle as the socket replies.

use crate::ledger::{us, Tracer};
use crate::oracle::{References, LAMBDA_POOL};
use crate::plan::{hot_url, AppKind, Planned};
use bytes::Bytes;
use rp_apps::email::{self, EmailState};
use rp_apps::jserver::JobClass;
use rp_apps::proxy::{self, ProxyState};
use rp_icilk::runtime::{Runtime, RuntimeConfig};
use rp_lambda4i::compile::compile_and_run;
use rp_lambda4i::parse::parse_program;
use rp_lambda4i::pretty::expr_to_string;
use rp_lambda4i::run::run_program;
use rp_lambda4i::typecheck::infer_program;
use rp_net::protocol::{AppOp, Request};
use rp_net::server::{NetServerConfig, LEVELS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Calls per app-layer measurement.
const APP_CALLS: usize = 200;
/// Calls of the empty spawn/touch.
const SPAWN_CALLS: usize = 2_000;
/// Runtime start/shutdown cycles.
const RUNTIME_STARTS: usize = 20;
/// A λ⁴ᵢ stage repeats until it has taken this long (and at least three
/// times).
const STAGE_BUDGET: Duration = Duration::from_millis(40);

/// The nearest-rank median of durations, in µs.
fn median_us(mut times: Vec<Duration>) -> f64 {
    times.sort();
    times
        .get(times.len().saturating_sub(1) / 2)
        .map_or(0.0, |d| us(*d))
}

/// Times `f` on each input under a parent span named `name`; every result
/// must equal its expectation.
fn timed_calls<I>(
    tracer: &mut Tracer,
    name: &str,
    inputs: impl IntoIterator<Item = I>,
    mut f: impl FnMut(I) -> (u64, u64),
) -> Result<f64, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut spans = Vec::new();
    for (i, input) in inputs.into_iter().enumerate() {
        let t = Instant::now();
        let (got, want) = f(input);
        let end = Instant::now();
        if got != want {
            return Err(format!("{name} call {i}: got {got}, expected {want}"));
        }
        times.push(end - t);
        spans.push((t, end));
    }
    let parent = tracer.record(name, start, Instant::now(), None, 0);
    for (i, (t, end)) in spans.into_iter().enumerate() {
        tracer.record(format!("{name}.call"), t, end, Some(parent), i as u64);
    }
    Ok(median_us(times))
}

/// Runs every layer probe.  `plan` supplies the app inputs (the workload's
/// own draws); `config` is the server's configuration.
///
/// # Errors
///
/// A result that disagrees with the oracle.
pub fn probe(
    tracer: &mut Tracer,
    config: &NetServerConfig,
    refs: &References,
    plan: &[Planned],
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let rt = Arc::new(Runtime::start(
        RuntimeConfig::new(config.workers, LEVELS.len())
            .with_level_names(LEVELS)
            .with_io_latency(config.io_latency, config.seed),
    ));
    let event = rt.priority_by_name("event").expect("LEVELS has event");
    for _ in 0..200 {
        rt.ftouch_blocking(&rt.fcreate(event, || 0u64));
    }
    let spawn_touch = timed_calls(tracer, "icilk.spawn_touch", 0..SPAWN_CALLS, |_| {
        (rt.ftouch_blocking(&rt.fcreate(event, || 7u64)), 7)
    })?;
    out.push(("icilk.spawn_touch_us".into(), spawn_touch, "us"));

    let fork_join = LAMBDA_POOL.iter().find(|p| p.name == "fork-join");
    let fork_join = fork_join.expect("the pool holds fork-join").source;
    let fork_join = parse_program(fork_join).map_err(|e| format!("fork-join: {e}"))?;
    let fork_join = infer_program(&fork_join).map_err(|e| format!("fork-join: {e}"))?;
    let start_stop = timed_calls(tracer, "icilk.runtime_start", 0..RUNTIME_STARTS, |_| {
        let domain_rt = Runtime::start(RuntimeConfig::for_domain(
            config.pipeline.runtime.workers,
            &fork_join.program.domain,
        ));
        domain_rt.shutdown();
        (0, 0)
    })?;
    out.push(("icilk.runtime_start_us".into(), start_stop, "us"));

    out.extend(app_layers(tracer, &rt, config, refs, plan)?);
    drop(rt);
    out.extend(lambda_layers(tracer, config)?);
    Ok(out)
}

/// The app handlers of `rp_apps`, on a warm runtime with the server's
/// levels and inputs drawn as the workload draws them.
fn app_layers(
    tracer: &mut Tracer,
    rt: &Arc<Runtime>,
    config: &NetServerConfig,
    refs: &References,
    plan: &[Planned],
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let of_kind = |kind: AppKind| {
        plan.iter()
            .filter(move |p| p.kind == kind)
            .cycle()
            .take(APP_CALLS)
    };
    let proxy = ProxyState::new();
    for i in 0..crate::plan::HOT_URLS {
        let url = hot_url(i);
        let body = crate::oracle::page_body(&url);
        proxy.insert(url, Bytes::from(body));
    }
    for (name, kind) in [
        ("apps.proxy_hit", AppKind::ProxyHot),
        ("apps.proxy_miss", AppKind::ProxyFresh),
    ] {
        let mut n = 0;
        let v = timed_calls(tracer, name, of_kind(kind), |p| {
            let Request::App(AppOp::ProxyGet {
                url,
                body_if_missed,
            }) = &p.req
            else {
                unreachable!("proxy kinds carry proxy gets")
            };
            // Misses use URLs of their own, so every call misses.
            n += 1;
            let url = if kind == AppKind::ProxyFresh {
                format!("{url}/layer/{n}")
            } else {
                url.clone()
            };
            let fut = proxy::handle_request(rt, &proxy, url, body_if_missed.clone());
            (rt.ftouch_blocking(&fut), expected(&p.expect))
        })?;
        out.push((format!("{name}_us"), v, "us"));
    }

    let state = EmailState::generate(config.email_users, config.email_messages, config.seed);
    for (name, kind) in [
        ("apps.email_compress", AppKind::EmailCompress),
        ("apps.email_print", AppKind::EmailPrint),
    ] {
        let v = timed_calls(tracer, name, of_kind(kind), |p| {
            let (Request::App(AppOp::EmailCompress { user, msg })
            | Request::App(AppOp::EmailPrint { user, msg })) = p.req
            else {
                unreachable!("email kinds carry email ops")
            };
            let message = state.mailboxes[user as usize].message(msg as usize);
            let fut = if kind == AppKind::EmailCompress {
                email::compress_message(rt, message)
            } else {
                email::print_message(rt, message)
            };
            (rt.ftouch_blocking(&fut), expected(&p.expect))
        })?;
        out.push((format!("{name}_us"), v, "us"));
    }

    for (class, job) in JobClass::default_mix().iter().enumerate() {
        let name = match job {
            JobClass::Matmul { .. } => "matmul",
            JobClass::Fib { .. } => "fib",
            JobClass::Sort { .. } => "sort",
            JobClass::Sw { .. } => "sw",
        };
        let name = format!("apps.jserver_us.{name}");
        let v = timed_calls(tracer, &name, &refs.jobs[class], |&(seed, want)| {
            (job.execute(seed), want)
        })?;
        out.push((name, v, "us"));
    }
    Ok(out)
}

fn expected(expect: &crate::oracle::Expect) -> u64 {
    match expect {
        crate::oracle::Expect::App(v) => *v,
        crate::oracle::Expect::Lambda(_) => unreachable!("app plans expect app results"),
    }
}

/// Repeats one λ⁴ᵢ stage for [`STAGE_BUDGET`] under a span per call and
/// returns the median and the last result.
fn stage<T>(
    tracer: &mut Tracer,
    name: &str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let (result, took) = tracer.time(name, None, times.len() as u64, &mut f);
        times.push(took);
        let result = result?;
        if times.len() >= 3 && begin.elapsed() >= STAGE_BUDGET {
            return Ok((median_us(times), result));
        }
    }
}

/// The λ⁴ᵢ pipeline stages for every pool program, with the server's
/// `PipelineConfig`.
fn lambda_layers(tracer: &mut Tracer, config: &NetServerConfig) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let pipeline = &config.pipeline;
    for p in LAMBDA_POOL {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", p.name);
        let (parse_us, prog) = stage(tracer, &format!("lambda4i.parse.{}", p.name), || {
            parse_program(p.source).map_err(|e| err(&e))
        })?;
        let (infer_us, inference) = stage(tracer, &format!("lambda4i.infer.{}", p.name), || {
            infer_program(&prog).map_err(|e| err(&e))
        })?;
        let program = &inference.program;
        let mut steps = Vec::new();
        let (machine_us, run) = stage(tracer, &format!("lambda4i.machine.{}", p.name), || {
            let run = run_program(program, &pipeline.machine).map_err(|e| err(&e))?;
            steps.push(run.steps);
            Ok(run)
        })?;
        let (compile_us, outcome) =
            stage(tracer, &format!("lambda4i.compile_run.{}", p.name), || {
                compile_and_run(program, &pipeline.runtime).map_err(|e| err(&e))
            })?;
        for (backend, value) in [("machine", &run.value), ("runtime", &outcome.value)] {
            let got = expr_to_string(value);
            if !p.values.contains(&got.as_str()) {
                return Err(format!(
                    "{}: {backend} value {got}, expected one of {:?}",
                    p.name, p.values
                ));
            }
        }
        if run.any_bound_counterexample() {
            return Err(format!("{}: Theorem 2.3 counterexample", p.name));
        }
        if steps.iter().any(|&s| s != run.steps) {
            return Err(format!("{}: machine step counts differ: {steps:?}", p.name));
        }
        out.push((format!("lambda4i.parse_us.{}", p.name), parse_us, "us"));
        out.push((format!("lambda4i.infer_us.{}", p.name), infer_us, "us"));
        out.push((format!("lambda4i.machine_us.{}", p.name), machine_us, "us"));
        out.push((
            format!("lambda4i.compile_run_us.{}", p.name),
            compile_us,
            "us",
        ));
        out.push((
            format!("lambda4i.machine_steps.{}", p.name),
            run.steps as f64,
            "count",
        ));
    }
    Ok(out)
}
