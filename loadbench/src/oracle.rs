//! Reply oracle: every expected reply comes from a reference computed here,
//! never from the serving path.
//!
//! * proxy — the proxy's checksum of the page body, re-implemented below;
//! * email — the byte sum (print) and the Huffman bits saved (compress) of
//!   each message `EmailState::generate` produces for the server's seed,
//!   with the optimal code length re-derived from symbol counts;
//! * jserver — `JobClass::execute(seed)`, run sequentially during set-up;
//! * λ⁴ᵢ — the hand-written value of each pool program and zero Theorem 2.3
//!   counterexamples.

use crate::rng::Rng;
use rp_apps::email::EmailState;
use rp_apps::jserver::JobClass;
use rp_lambda4i::progs::sources;
use rp_net::protocol::{decode_response, Response};

/// Seeds per jserver job class the workloads draw from.
pub const JOB_SEEDS: usize = 16;

/// What a reply must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// An app reply carrying this result.
    App(u64),
    /// A λ⁴ᵢ reply with one of these pretty-printed values and no
    /// counterexamples.
    Lambda(&'static [&'static str]),
}

/// How one reply compares with its expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The reply is the expected one.
    Ok,
    /// The reply is a well-formed answer with the wrong content.
    Mismatch(String),
    /// The server answered with an error instead of a result.
    Error(String),
}

/// Compares a reply body with its expectation.
pub fn check(expect: &Expect, body: &[u8]) -> Verdict {
    match (decode_response(body), expect) {
        (Ok(Response::App { result }), Expect::App(want)) if result == *want => Verdict::Ok,
        (
            Ok(Response::Lambda {
                counterexamples: 0,
                value,
            }),
            Expect::Lambda(want),
        ) if want.contains(&value.as_str()) => Verdict::Ok,
        (Ok(Response::Error { code, message }), _) => Verdict::Error(format!("{code}: {message}")),
        (reply, want) => Verdict::Mismatch(format!("expected {want:?}, got {reply:?}")),
    }
}

/// The offset basis of the proxy's reply checksum.  It is FNV-1a-64's
/// basis (14695981039346656037) with the last digit dropped, so the
/// checksum is the FNV-1a fold but not FNV-1a-64 itself.
pub const PROXY_BASIS: u64 = 1_469_598_103_934_665_603;

/// The proxy's reply checksum: the FNV-1a fold (prime `0x100000001b3`) from
/// [`PROXY_BASIS`].
pub fn proxy_checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(PROXY_BASIS, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bits an optimal prefix code saves over 8-bit bytes: the code length is
/// the sum of all merged weights of the Huffman construction; a
/// one-symbol text gets one bit per byte.
pub fn huffman_saved_bits(text: &[u8]) -> u64 {
    let mut counts = [0u64; 256];
    for &b in text {
        counts[b as usize] += 1;
    }
    let mut weights: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    let bits = if weights.len() == 1 {
        text.len() as u64
    } else {
        let mut bits = 0;
        while weights.len() > 1 {
            weights.sort_unstable_by(|a, b| b.cmp(a));
            let merged = weights.pop().unwrap_or(0) + weights.pop().unwrap_or(0);
            bits += merged;
            weights.push(merged);
        }
        bits
    };
    text.len() as u64 * 8 - bits
}

/// The page an origin serves for `url`: 512 bytes derived from the URL, so a
/// cache hit and a miss for one URL carry the same body.
pub fn page_body(url: &str) -> Vec<u8> {
    let mut rng = Rng::new(proxy_checksum(url.as_bytes()), 0);
    (0..64).flat_map(|_| rng.next_u64().to_le_bytes()).collect()
}

/// One program of the λ⁴ᵢ pool with its hand-derived values.
#[derive(Debug, Clone, Copy)]
pub struct LambdaProgram {
    /// Report name.
    pub name: &'static str,
    /// `.l4i` source text.
    pub source: &'static str,
    /// Every pretty-printed final value an execution may produce.
    pub values: &'static [&'static str],
}

/// A fork–join over an inferred worker priority (the program `bench_net`
/// serves).
const FORK_JOIN: &str = "\
priorities: lo < hi
program bench-net : nat
main @ lo:
  t <- cmd[lo]{fcreate[worker; nat]{ret 21}};
  v <- cmd[lo]{ftouch t};
  ret (v + v)
";

/// The λ⁴ᵢ programs the lambda workloads submit.
pub const LAMBDA_POOL: [LambdaProgram; 7] = [
    LambdaProgram {
        name: "parallel-fib",
        source: sources::PARALLEL_FIB,
        values: &["5"],
    },
    LambdaProgram {
        name: "server",
        source: sources::SERVER,
        values: &["6"],
    },
    LambdaProgram {
        name: "email-coordination",
        source: sources::EMAIL_COORDINATION,
        values: &["0"],
    },
    LambdaProgram {
        name: "jserver",
        source: sources::JSERVER,
        // Not race-free: `main` reads `stats` while the fire-and-forget
        // components may already have written their sum (8 helpers × 4)
        // into it, so a run returns 0 or 32.
        values: &["0", "32"],
    },
    LambdaProgram {
        name: "cas-counter",
        source: sources::CAS_COUNTER,
        values: &["2"],
    },
    LambdaProgram {
        name: "handoff",
        source: sources::HANDOFF,
        values: &["42"],
    },
    LambdaProgram {
        name: "fork-join",
        source: FORK_JOIN,
        values: &["42"],
    },
];

/// Expected app results that need computing: per email message and per
/// jserver job seed.
#[derive(Debug, Clone)]
pub struct References {
    /// `[user][msg] = (print byte sum, compress bits saved)`.
    pub email: Vec<Vec<(u64, u64)>>,
    /// `[class][i] = (job seed, result)`.
    pub jobs: Vec<Vec<(u64, u64)>>,
}

impl References {
    /// Computes every reference for a server started with `seed` and
    /// `users × messages` mailboxes.
    pub fn build(seed: u64, users: usize, messages: usize) -> References {
        let state = EmailState::generate(users, messages, seed);
        let email = state
            .mailboxes
            .iter()
            .map(|mailbox| {
                (0..mailbox.len())
                    .map(|i| {
                        let body = mailbox.message(i).body.lock().clone();
                        let sum = body.bytes().map(u64::from).sum();
                        (sum, huffman_saved_bits(body.as_bytes()))
                    })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 0x70B5);
        let jobs = JobClass::default_mix()
            .iter()
            .map(|job| {
                (0..JOB_SEEDS)
                    .map(|_| {
                        let job_seed = rng.next_u64();
                        (job_seed, job.execute(job_seed))
                    })
                    .collect()
            })
            .collect();
        References { email, jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_apps::email::HuffmanCode;

    #[test]
    fn huffman_reference_agrees_with_an_explicit_code() {
        for text in ["abracadabra", "aaaa", "the quick brown fox jumps over"] {
            let code = HuffmanCode::build(text.as_bytes()).expect("non-empty");
            let (_, bits) = code.encode(text.as_bytes());
            assert_eq!(
                huffman_saved_bits(text.as_bytes()),
                text.len() as u64 * 8 - bits as u64,
                "{text}"
            );
        }
    }
}
