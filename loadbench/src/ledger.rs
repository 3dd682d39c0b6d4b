//! Spans, summary statistics and the latency ledger.
//!
//! A traced run keeps spans in memory — `name, start, end, parent, request
//! id` — and writes them as CSV when it ends.  Per class, the server's
//! spans must cover exactly the requests the client saw answered and their
//! phase means must sum to their span mean; the client's mean RTT is then
//! split into those phases and an unattributed remainder.  Per request,
//! send lag + RTT = intended-send → receipt holds by construction (three
//! stamps) and is checked in the span log as written.
//!
//! The remainder can be negative: a server span ends after its reply write
//! returns, and on loopback the client may already have read the reply by
//! then.

use crate::client::Sample;
use rp_net::protocol::RequestClass;
use rp_net::span::{Phase, SpanSnapshot, PHASES};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers (`client.rtt`, `lambda4i.machine`, …).
    pub name: String,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or repetition) the span belongs to.
    pub request: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span so far, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose CSV times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, end - start)
    }

    /// Records each request of a phase as a `request` span with its
    /// `client.send_lag` and `client.rtt` children.
    pub fn record_samples(&mut self, samples: &[Sample]) {
        for s in samples {
            let Some(received) = s.received else { continue };
            let class = if s.tag == RequestClass::App.tag() {
                "app"
            } else {
                "lambda"
            };
            let root = self.record(format!("request.{class}"), s.intended, received, None, s.id);
            self.record("client.send_lag", s.intended, s.sent, Some(root), s.id);
            self.record("client.rtt", s.sent, received, Some(root), s.id);
        }
    }

    /// Checks that every `request` span is exactly the sum of its
    /// children: send lag + RTT = total.
    pub fn check_request_ledger(&self) -> Result<usize, String> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.end - span.start;
            }
        }
        let mut closed = 0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.name.starts_with("request.") {
                let total = span.end - span.start;
                if children[i] != total {
                    return Err(format!(
                        "request {} does not close: children {:?} vs total {:?}",
                        span.request, children[i], total
                    ));
                }
                closed += 1;
            }
        }
        Ok(closed)
    }

    /// The spans as CSV: `id,name,start_us,end_us,parent,request_id`
    /// (`parent` is -1 for a root).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,name,start_us,end_us,parent,request_id\n");
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i},{},{:.3},{:.3},{parent},{}",
                s.name,
                us(s.start),
                us(s.end),
                s.request
            );
        }
        out
    }
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// A median and the tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail value: the 99th percentile, or — below 1100 samples — the
    /// highest percentile that still has 10 samples beyond it.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

/// Nearest-rank median and tail of `values` (`None` when empty).
pub fn quantiles(mut values: Vec<f64>) -> Option<Quantiles> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    // Nearest-rank p99, kept at least 10 samples from the top; with fewer
    // than 11 samples the maximum is the conservative tail.
    let p99 = (99 * n).div_ceil(100) - 1;
    let tail = if n > 10 { p99.min(n - 11) } else { n - 1 };
    Some(Quantiles {
        n,
        p50: values[(n - 1) / 2],
        tail: values[tail],
        tail_pct: 100.0 * (tail + 1) as f64 / n as f64,
    })
}

/// The share of a run's slowest requests whose mean is its tail latency.
pub const TAIL_SHARE: f64 = 0.10;

/// A run's tail latency: the mean of its slowest [`TAIL_SHARE`] (at least
/// 10 values, or all when there are fewer).  Every request in that share
/// moves it, a failure counted at its deadline most of all; a mean over
/// 10% rather than a single percentile keeps it off the cliff a bimodal tail
/// puts a percentile on.  `None` when empty.
pub fn tail_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let k = ((n as f64 * TAIL_SHARE).ceil() as usize).clamp(10.min(n), n);
    Some(sorted[n - k..].iter().sum::<f64>() / k as f64)
}

/// Per-phase totals of one class's server spans (sums, so that two
/// snapshots can be subtracted).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerTotals {
    /// Executed requests.
    pub executed: u64,
    /// Nanoseconds per phase, indexed by [`Phase::index`].
    pub phase_ns: [f64; PHASES],
    /// Nanoseconds of whole spans.
    pub total_ns: f64,
}

impl ServerTotals {
    /// The sums over the given class tags of a span snapshot.
    pub fn of(snapshot: &SpanSnapshot, tags: &[usize]) -> ServerTotals {
        let mut t = ServerTotals::default();
        for &tag in tags {
            let c = &snapshot.classes[tag];
            t.executed += c.executed;
            for phase in Phase::ALL {
                let h = &c.phases[phase.index()];
                t.phase_ns[phase.index()] += h.mean().unwrap_or(0.0) * h.count() as f64;
            }
            t.total_ns += c.total.mean().unwrap_or(0.0) * c.total.count() as f64;
        }
        t
    }

    /// `self − before`.
    pub fn since(&self, before: &ServerTotals) -> ServerTotals {
        ServerTotals {
            executed: self.executed - before.executed,
            phase_ns: std::array::from_fn(|i| self.phase_ns[i] - before.phase_ns[i]),
            total_ns: self.total_ns - before.total_ns,
        }
    }

    /// Mean microseconds of one phase.
    pub fn phase_mean_us(&self, phase: Phase) -> f64 {
        self.phase_ns[phase.index()] / self.executed.max(1) as f64 / 1e3
    }
}

/// One class's closed ledger: client RTT = server phases + unattributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassLedger {
    /// Mean client RTT (actual send → receipt), µs.
    pub rtt_mean_us: f64,
    /// Mean of each server phase, µs.
    pub phase_mean_us: [f64; PHASES],
    /// RTT minus the server span total: kernel, shard pickup and receipt,
    /// less any overlap of the span's end with the client's read.
    pub unattributed_mean_us: f64,
}

/// Builds and checks one class's ledger from its answered samples and the
/// server's span totals over the same requests.
///
/// # Errors
///
/// Describes the first way the ledger fails to close: a request the server
/// spans missed or double-counted, or phases that do not sum to the span
/// total.
pub fn class_ledger(samples: &[Sample], server: &ServerTotals) -> Result<ClassLedger, String> {
    let rtts: Vec<f64> = samples.iter().filter_map(|s| s.rtt()).map(us).collect();
    if rtts.len() as u64 != server.executed {
        return Err(format!(
            "{} replies received but {} server spans",
            rtts.len(),
            server.executed
        ));
    }
    let rtt_mean_us = rtts.iter().sum::<f64>() / rtts.len().max(1) as f64;
    let phase_mean_us = Phase::ALL.map(|p| server.phase_mean_us(p));
    let server_mean_us: f64 = phase_mean_us.iter().sum();
    let span_mean_us = server.total_ns / server.executed.max(1) as f64 / 1e3;
    if (server_mean_us - span_mean_us).abs() > 1e-6 * span_mean_us.max(1.0) {
        return Err(format!(
            "server phases sum to {server_mean_us} µs, spans to {span_mean_us} µs"
        ));
    }
    Ok(ClassLedger {
        rtt_mean_us,
        phase_mean_us,
        unattributed_mean_us: rtt_mean_us - server_mean_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let q = quantiles((1..=100).map(f64::from).collect()).expect("non-empty");
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.tail, 90.0, "100 samples: p90 has 10 beyond it");
        let q = quantiles((1..=4000).map(f64::from).collect()).expect("non-empty");
        assert_eq!(q.tail, 3960.0);
        assert_eq!(q.tail_pct, 99.0);
        let q = quantiles((1..=5).map(f64::from).collect()).expect("non-empty");
        assert_eq!(q.tail, 5.0, "too few samples: the maximum");
    }

    #[test]
    fn tail_mean_is_the_mean_of_the_slowest_share() {
        // 1 ..= 1000: the slowest 10% are 901 ..= 1000.
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_mean(&values), Some(950.5));
        // One failure counted at a 1 s deadline moves it by 1/100 of that.
        let mut failed = values.clone();
        failed[0] = 1e6;
        assert_eq!(tail_mean(&failed), Some(950.5 + (1e6 - 1000.0) / 100.0));
        // Below 100 values the tail keeps 10 of them; below 10, all.
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_mean(&few), Some(45.5));
        assert_eq!(tail_mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(tail_mean(&[]), None);
    }
}
