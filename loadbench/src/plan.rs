//! Seeded request generation for the two workloads.
//!
//! Draws come in shuffled blocks that hold each kind of request in its
//! share of the mix, so two seeds differ in order, keys and arrival times
//! but not in how much of each kind of work a run carries.  Keys inside a
//! kind stay uniform: email messages are drawn uniformly over every
//! mailbox, so same-message print/compress pairs occur as they would.

use crate::oracle::{page_body, proxy_checksum, Expect, References, LAMBDA_POOL};
use crate::rng::Rng;
use bytes::Bytes;
use rp_net::protocol::{AppOp, Request};

/// Mean open-loop arrival rate of the app stream, requests per second.
pub const APP_RATE: f64 = 400.0;
/// Size of the proxy's hot URL pool.
pub const HOT_URLS: usize = 64;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The open-loop app stream and the closed λ⁴ᵢ loop on one connection.
    OneConn,
    /// The open-loop app stream and the closed λ⁴ᵢ loop on two connections
    /// sharing one shard.
    Mixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::OneConn, Workload::Mixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneConn => "one-conn",
            Workload::Mixed => "mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The kind of one app request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// A proxy get of a hot-pool URL (a cache read after its first fetch).
    ProxyHot,
    /// A proxy get of a URL never requested before (a miss).
    ProxyFresh,
    /// Compress one email message.
    EmailCompress,
    /// Print one email message.
    EmailPrint,
    /// One jserver job of the given class.
    Jserver(u8),
}

/// One block of the app mix: 50% proxy gets (3/4 hot), 25% email,
/// 25% jserver jobs (one per class).
const APP_BLOCK: [AppKind; 16] = [
    AppKind::ProxyHot,
    AppKind::ProxyHot,
    AppKind::ProxyHot,
    AppKind::ProxyHot,
    AppKind::ProxyHot,
    AppKind::ProxyHot,
    AppKind::ProxyFresh,
    AppKind::ProxyFresh,
    AppKind::EmailCompress,
    AppKind::EmailCompress,
    AppKind::EmailPrint,
    AppKind::EmailPrint,
    AppKind::Jserver(0),
    AppKind::Jserver(1),
    AppKind::Jserver(2),
    AppKind::Jserver(3),
];

/// One open-loop request: when it is due, what it is, and what must come
/// back.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Due instant, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// The request's kind.
    pub kind: AppKind,
    /// The request.
    pub req: Request,
    /// The expected reply.
    pub expect: Expect,
}

/// The URL of hot-pool page `i`.
pub fn hot_url(i: usize) -> String {
    format!("http://hot.example/page/{i}")
}

/// A proxy get with the origin's body and its expected checksum.
fn proxy_get(url: String) -> (Request, Expect) {
    let body = page_body(&url);
    let expect = Expect::App(proxy_checksum(&body));
    let req = Request::App(AppOp::ProxyGet {
        url,
        body_if_missed: Bytes::from(body),
    });
    (req, expect)
}

/// The open-loop app stream: Poisson arrivals at [`APP_RATE`] for
/// `seconds`.
pub fn app_stream(seed: u64, seconds: f64, refs: &References) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 0xA99);
    let mut plan = Vec::new();
    let mut block = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / APP_RATE;
        if t >= seconds {
            return plan;
        }
        if block.is_empty() {
            block.extend_from_slice(&APP_BLOCK);
            rng.shuffle(&mut block);
        }
        let kind = block.pop().expect("refilled above");
        let (req, expect) = match kind {
            AppKind::ProxyHot => proxy_get(hot_url(rng.below(HOT_URLS))),
            AppKind::ProxyFresh => proxy_get(format!("http://fresh.example/{}", plan.len())),
            AppKind::EmailCompress | AppKind::EmailPrint => {
                let user = rng.below(refs.email.len());
                let msg = rng.below(refs.email[user].len());
                let (sum, saved) = refs.email[user][msg];
                let (user, msg) = (user as u32, msg as u32);
                if kind == AppKind::EmailPrint {
                    (
                        Request::App(AppOp::EmailPrint { user, msg }),
                        Expect::App(sum),
                    )
                } else {
                    (
                        Request::App(AppOp::EmailCompress { user, msg }),
                        Expect::App(saved),
                    )
                }
            }
            AppKind::Jserver(class) => {
                let seeds = &refs.jobs[class as usize];
                let (seed, result) = seeds[rng.below(seeds.len())];
                (
                    Request::App(AppOp::JserverJob { class, seed }),
                    Expect::App(result),
                )
            }
        };
        plan.push(Planned {
            due_ns: (t * 1e9) as u64,
            kind,
            req,
            expect,
        });
    }
}

/// The closed loop's submissions: blocks holding every pool program once
/// as `Lambda` and once as `LambdaCached`, each block shuffled.
#[derive(Debug, Clone)]
pub struct LambdaDraws {
    rng: Rng,
    block: Vec<(usize, bool)>,
}

impl LambdaDraws {
    /// The draws of a run's closed loop.
    pub fn new(seed: u64) -> LambdaDraws {
        LambdaDraws {
            rng: Rng::new(seed, 0x1A3B),
            block: Vec::new(),
        }
    }
}

impl Iterator for LambdaDraws {
    /// The request and its expected reply.
    type Item = (Request, Expect);

    fn next(&mut self) -> Option<Self::Item> {
        if self.block.is_empty() {
            for program in 0..LAMBDA_POOL.len() {
                self.block.push((program, false));
                self.block.push((program, true));
            }
            self.rng.shuffle(&mut self.block);
        }
        let (program, cached) = self.block.pop().expect("refilled above");
        let p = LAMBDA_POOL[program];
        let source = p.source.to_string();
        let req = if cached {
            Request::LambdaCached { source }
        } else {
            Request::Lambda { source }
        };
        Some((req, Expect::Lambda(p.values)))
    }
}
