//! Self-tests of the benchmark: its oracle catches a wrong reply, its
//! inputs depend on the seed alone, and its ledger closes.

use loadbench::bench::{measure, server_config, APP_DEADLINE};
use loadbench::client::{run_open, Conn, Sample, Status};
use loadbench::ledger::{class_ledger, ServerTotals, Tracer};
use loadbench::oracle::{check, Expect, References, Verdict};
use loadbench::plan::{app_stream, LambdaDraws, Workload};
use rp_net::protocol::{encode_response, Response};
use rp_net::server::NetServer;
use rp_net::span::{Phase, PHASES};
use std::time::{Duration, Instant};

#[test]
fn a_corrupted_expected_value_is_reported_as_a_mismatch() {
    let seed = 11;
    let config = server_config(seed);
    let refs = References::build(seed, config.email_users, config.email_messages);
    let mut plan = app_stream(seed, 0.2, &refs);
    let corrupted = plan.len() / 2;
    let Expect::App(right) = plan[corrupted].expect else {
        panic!("app plans expect app results")
    };
    plan[corrupted].expect = Expect::App(right ^ 1);

    let server = NetServer::start(config).expect("server starts");
    let mut conn = Conn::connect(server.addr()).expect("connects");
    let samples = run_open(&mut conn, &plan, Instant::now(), APP_DEADLINE).expect("runs");
    drop(conn);
    server.shutdown();
    assert_eq!(samples.len(), plan.len());
    for (i, s) in samples.iter().enumerate() {
        if i == corrupted {
            assert!(matches!(s.status, Status::Mismatch(_)), "{:?}", s.status);
        } else {
            assert_eq!(s.status, Status::Ok, "request {i}");
        }
    }

    let reply = encode_response(&Response::Lambda {
        counterexamples: 0,
        value: "42".into(),
    });
    assert_eq!(check(&Expect::Lambda(&["42"]), &reply), Verdict::Ok);
    assert!(matches!(
        check(&Expect::Lambda(&["41"]), &reply),
        Verdict::Mismatch(_)
    ));
    let counterexample = encode_response(&Response::Lambda {
        counterexamples: 1,
        value: "42".into(),
    });
    assert!(matches!(
        check(&Expect::Lambda(&["42"]), &counterexample),
        Verdict::Mismatch(_)
    ));
}

#[test]
fn the_same_seed_gives_an_identical_request_sequence() {
    let plan = |seed| app_stream(seed, 2.0, &References::build(seed, 4, 4));
    assert_eq!(plan(5), plan(5));
    assert_ne!(plan(5), plan(6));
    let draws = |seed| LambdaDraws::new(seed).take(100).collect::<Vec<_>>();
    assert_eq!(draws(5), draws(5));
    assert_ne!(draws(5), draws(6));
}

#[test]
fn the_ledger_closes_on_a_short_run() {
    for workload in Workload::ALL {
        let m = measure(workload, 3, 0.5).expect("runs");
        assert!(!m.wedged, "{workload:?}");
        assert_eq!(m.mismatches(), Vec::<String>::new(), "{workload:?}");
        assert_eq!(m.reconcile, Vec::<String>::new(), "{workload:?}");
        assert!(!m.app.is_empty() && !m.lambda.is_empty(), "{workload:?}");

        m.ledgers().expect("both class ledgers close");

        let mut tracer = Tracer::new(Instant::now());
        tracer.record_samples(&m.app);
        tracer.record_samples(&m.lambda);
        let closed = tracer
            .check_request_ledger()
            .expect("send lag + RTT = total");
        assert_eq!(closed, m.app.len() + m.lambda.len(), "{workload:?}");
    }
}

#[test]
fn the_class_ledger_rejects_missing_spans_and_phases_that_do_not_sum() {
    let t0 = Instant::now();
    let samples: Vec<Sample> = (0..4)
        .map(|i| Sample {
            id: i,
            tag: 0,
            intended: t0,
            sent: t0,
            received: Some(t0 + Duration::from_micros(100)),
            status: Status::Ok,
        })
        .collect();
    // Four requests, each 60 µs of server time split over two phases.
    let mut phase_ns = [0.0; PHASES];
    phase_ns[Phase::ALL[0].index()] = 4.0 * 20e3;
    phase_ns[Phase::ALL[1].index()] = 4.0 * 40e3;
    let whole = ServerTotals {
        executed: 4,
        phase_ns,
        total_ns: 4.0 * 60e3,
    };
    let ledger = class_ledger(&samples, &whole).expect("closes");
    assert!((ledger.rtt_mean_us - 100.0).abs() < 1e-9);
    assert!((ledger.unattributed_mean_us - 40.0).abs() < 1e-9);

    let missing = ServerTotals {
        executed: 3,
        ..whole
    };
    let err = class_ledger(&samples, &missing).expect_err("a span is missing");
    assert!(
        err.contains("4 replies received but 3 server spans"),
        "{err}"
    );

    let mut short = whole;
    short.phase_ns[Phase::ALL[1].index()] -= 1e3;
    let err = class_ledger(&samples, &short).expect_err("phases fall short");
    assert!(err.contains("server phases sum to"), "{err}");
}
