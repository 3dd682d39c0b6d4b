//! One measured run: set-up, the timed phase and the counter
//! reconciliation.

use crate::client::{run_closed, run_open, run_shared, Conn, Riding, Sample, Status};
use crate::ledger::{class_ledger, ClassLedger, ServerTotals};
use crate::oracle::References;
use crate::plan::{app_stream, LambdaDraws, Planned, Workload};
use rp_lambda4i::pipeline::CacheStats;
use rp_net::server::{NetServer, NetServerConfig, NetStatsSnapshot};
use std::net::Shutdown;
use std::time::{Duration, Instant};

/// An app request unanswered this long after it was due has failed.
pub const APP_DEADLINE: Duration = Duration::from_secs(1);
/// A λ⁴ᵢ submission unanswered this long after it was sent has failed.
pub const LAMBDA_DEADLINE: Duration = Duration::from_secs(10);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The server under test: defaults except one worker per CPU, one shard
/// (so two connections share it) and the run's seed.
pub fn server_config(seed: u64) -> NetServerConfig {
    NetServerConfig {
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        shards: 1,
        seed,
        ..NetServerConfig::default()
    }
}

/// Threads of this process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// User + system CPU of this process, in clock ticks (1/100 s).
fn cpu_ticks() -> u64 {
    stat_cpu_ticks("/proc/self/stat")
}

/// User + system CPU of the calling thread, in clock ticks.
fn thread_cpu_ticks() -> u64 {
    stat_cpu_ticks("/proc/thread-self/stat")
}

/// utime + stime of a `/proc` stat file.
fn stat_cpu_ticks(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Clock ticks the host took from the machine's CPUs (`steal` in
/// `/proc/stat`), and all ticks.
fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A started server with its references, plans and connections.
struct Rig {
    server: NetServer,
    refs: References,
    /// The open-loop app plan.
    plan: Vec<Planned>,
    conns: Vec<Conn>,
    threads: usize,
}

fn set_up(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Rig> {
    let config = server_config(seed);
    let before = thread_count();
    let server = NetServer::start(config.clone())?;
    let threads = thread_count().saturating_sub(before);
    let refs = References::build(seed, config.email_users, config.email_messages);
    let plan = app_stream(seed, seconds, &refs);
    let connections = match workload {
        Workload::OneConn => 1,
        Workload::Mixed => 2,
    };
    let conns = (0..connections)
        .map(|_| Conn::connect(server.addr()))
        .collect::<std::io::Result<_>>()?;
    Ok(Rig {
        server,
        refs,
        plan,
        conns,
        threads,
    })
}

/// What one run measured.
#[derive(Debug)]
pub struct Measurement {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// App requests of the timed phase.
    pub app: Vec<Sample>,
    /// λ⁴ᵢ submissions of the timed loop.
    pub lambda: Vec<Sample>,
    /// Process CPU per request answered in the timed phase, less the load
    /// generator's threads, µs.
    pub cpu_us_per_req: f64,
    /// Share of the machine's CPU time the host took during the timed
    /// phase (its `steal`); a diagnostic of noisy runs, not a metric.
    pub steal_share: f64,
    /// OS threads the server started.
    pub server_threads: usize,
    /// Server counters after the run.
    pub stats: NetStatsSnapshot,
    /// Compile-cache counters after the run.
    pub cache: CacheStats,
    /// Server span totals over the run, app class.
    pub server_app: ServerTotals,
    /// Server span totals over the run, both λ⁴ᵢ classes.
    pub server_lambda: ServerTotals,
    /// Counter reconciliation failures.
    pub reconcile: Vec<String>,
    /// Whether requests were left unanswered (the server was abandoned).
    pub wedged: bool,
    /// The server's configuration.
    pub config: NetServerConfig,
    /// The references the replies were checked against.
    pub refs: References,
    /// The app plan (for layer probes drawing the same inputs).
    pub plan: Vec<Planned>,
}

impl Measurement {
    /// Every request of the run.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.app.iter().chain(&self.lambda)
    }

    /// Requests that did not succeed.
    pub fn failed(&self) -> usize {
        self.samples().filter(|s| s.status != Status::Ok).count()
    }

    /// Replies with the wrong content.
    pub fn mismatches(&self) -> Vec<String> {
        self.samples()
            .filter_map(|s| match &s.status {
                Status::Mismatch(m) => Some(format!("request {}: {m}", s.id)),
                _ => None,
            })
            .collect()
    }

    /// The app and λ⁴ᵢ ledgers.
    ///
    /// # Errors
    ///
    /// The first class whose ledger does not close.
    pub fn ledgers(&self) -> Result<(ClassLedger, ClassLedger), String> {
        let app = class_ledger(&self.app, &self.server_app).map_err(|e| format!("app: {e}"))?;
        let lambda =
            class_ledger(&self.lambda, &self.server_lambda).map_err(|e| format!("lambda: {e}"))?;
        Ok((app, lambda))
    }
}

/// What [`drive`] returns: app samples, λ⁴ᵢ samples, and the CPU clock
/// ticks the generator's own threads spent.
type Driven = (Vec<Sample>, Vec<Sample>, u64);

/// Runs the timed phase from `t0`, the closed λ⁴ᵢ loop until `stop`.  With
/// one connection (`one-conn`) both loops share it and the calling thread.
/// With two (`mixed`) the open loop runs on the calling thread and the
/// closed loop on a second one, watched so that a wedged server cannot hold
/// it past its deadline.
fn drive(
    conns: &mut [Conn],
    plan: &[Planned],
    mut draws: LambdaDraws,
    t0: Instant,
    stop: Instant,
) -> std::io::Result<Driven> {
    let caller_before = thread_cpu_ticks();
    let (app, lambda, closed_ticks) = match conns {
        [conn] => {
            let riding = Riding {
                draws: &mut draws,
                stop,
                deadline: LAMBDA_DEADLINE,
            };
            let (app, lambda) = run_shared(conn, plan, t0, APP_DEADLINE, Some(riding))?;
            (app, lambda, 0)
        }
        [open, closed] => std::thread::scope(|s| -> std::io::Result<Driven> {
            let watched = closed.stream.try_clone()?;
            let handle = s.spawn(move || {
                std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                let before = thread_cpu_ticks();
                let until_stop = |_: usize| Instant::now() < stop;
                let samples = run_closed(closed, &mut draws, until_stop, LAMBDA_DEADLINE);
                samples.map(|samples| (samples, thread_cpu_ticks().saturating_sub(before)))
            });
            let app = run_open(open, plan, t0, APP_DEADLINE);
            while !handle.is_finished() && Instant::now() < stop + LAMBDA_DEADLINE {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !handle.is_finished() {
                let _ = watched.shutdown(Shutdown::Both);
            }
            let (lambda, ticks) = handle.join().expect("closed-loop client panicked")?;
            Ok((app?, lambda, ticks))
        })?,
        _ => unreachable!("a workload has one or two connections"),
    };
    let caller = thread_cpu_ticks().saturating_sub(caller_before);
    Ok((app, lambda, caller + closed_ticks))
}

/// Whether requests were left unanswered or the server cannot drain.
fn wedged<'a>(server: &NetServer, samples: impl IntoIterator<Item = &'a Sample>) -> bool {
    samples.into_iter().any(|s| s.status == Status::Unanswered)
        || !server.drain(Duration::from_secs(5))
}

/// Runs one workload: [`SETUP_REPS`] set-ups (all but the last torn down
/// again) and the timed phase of `seconds`.
///
/// # Errors
///
/// Socket errors of set-up or of the load generator.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Measurement> {
    let mut setup_s = Vec::new();
    let mut rig = loop {
        let t = Instant::now();
        let rig = set_up(workload, seed, seconds)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == SETUP_REPS {
            break rig;
        }
        drop(rig.conns);
        rig.server.shutdown();
    };
    let spans_before = rig.server.spans();
    let cpu_before = cpu_ticks();
    let machine_before = machine_ticks();
    let t0 = Instant::now() + Duration::from_millis(5);
    let stop = t0 + Duration::from_secs_f64(seconds);
    let (app, lambda, client_ticks) =
        drive(&mut rig.conns, &rig.plan, LambdaDraws::new(seed), t0, stop)?;
    let server_ticks = cpu_ticks()
        .saturating_sub(cpu_before)
        .saturating_sub(client_ticks);
    let machine_after = machine_ticks();
    let steal_share = machine_after.0.saturating_sub(machine_before.0) as f64
        / machine_after.1.saturating_sub(machine_before.1).max(1) as f64;
    let wedged_server = wedged(&rig.server, app.iter().chain(&lambda));
    let answered = app
        .iter()
        .chain(&lambda)
        .filter(|s| s.received.is_some())
        .count();
    let cpu_us_per_req = server_ticks as f64 * 1e4 / answered.max(1) as f64;

    let spans = rig.server.spans();
    let stats = rig.server.stats();
    let mut m = Measurement {
        setup_s,
        app,
        lambda,
        cpu_us_per_req,
        steal_share,
        server_threads: rig.threads,
        stats,
        cache: rig.server.cache_stats(),
        server_app: ServerTotals::of(&spans, &[0]).since(&ServerTotals::of(&spans_before, &[0])),
        server_lambda: ServerTotals::of(&spans, &[1, 2])
            .since(&ServerTotals::of(&spans_before, &[1, 2])),
        reconcile: Vec::new(),
        wedged: wedged_server,
        config: server_config(seed),
        refs: rig.refs,
        plan: rig.plan,
    };
    m.reconcile = reconcile(&m);
    drop(rig.conns);
    if wedged_server {
        // Joining a wedged server would hang the benchmark: abandon it.
        std::mem::forget(rig.server);
    } else {
        rig.server.shutdown();
    }
    Ok(m)
}

/// Server counters against what the client sent.
fn reconcile(m: &Measurement) -> Vec<String> {
    let mut errors = Vec::new();
    let sent = m.samples().count() as u64;
    if m.stats.frames_received != sent {
        errors.push(format!(
            "server received {} frames, client sent {sent}",
            m.stats.frames_received
        ));
    }
    if m.stats.decode_errors != 0 {
        errors.push(format!("{} decode errors", m.stats.decode_errors));
    }
    for tag in 0..3u8 {
        let client = m.samples().filter(|s| s.tag == tag).count() as u64;
        let server = m.stats.per_class[tag as usize];
        if client != server {
            errors.push(format!(
                "class {tag}: server counted {server}, client sent {client}"
            ));
        }
    }
    errors
}
