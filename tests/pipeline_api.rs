//! The unified pipeline's contract:
//!
//! 1. **One request, every backend** — a single `SpannerRequest` with an
//!    engine-schedule or Baswana–Sen algorithm runs unmodified on
//!    Sequential, Mpc, CongestedClique, Pram and Streaming, and all five
//!    produce identical spanner edges at a fixed seed (shared coins,
//!    identical tie-breaks).
//! 2. **plan() predicts run()** — the predicted epochs/iterations are
//!    exact on every input with edges (property-tested over all four
//!    Corollary 1.2 settings), and the predicted stretch bound always
//!    equals the measured result's bound.
//! 3. **Fan-outs fail per-request** — requests fanned out with
//!    `par_iter().map(SpannerRequest::run)` fail individually (one
//!    malformed request cannot abort its neighbours), and the output is
//!    independent of thread count.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rayon::prelude::*;

use mpc_spanners::core::unweighted_ok::UnweightedOkConfig;
use mpc_spanners::core::TradeoffParams;
use mpc_spanners::graph::generators::{self, Family, WeightModel};
use mpc_spanners::graph::GraphBuilder;
use mpc_spanners::pipeline::{
    Algorithm, Backend, CorollarySetting, PipelineError, SpannerRequest, Verification,
};

fn all_backends() -> [Backend; 5] {
    [
        Backend::Sequential,
        Backend::mpc(),
        Backend::congested_clique(),
        Backend::Pram,
        Backend::Streaming,
    ]
}

#[test]
fn one_request_runs_on_every_backend_with_identical_edges() {
    let families = [
        Family::ErdosRenyi {
            n: 120,
            avg_deg: 8.0,
        },
        Family::CliqueChain {
            cliques: 8,
            size: 8,
        },
    ];
    // Every schedule algorithm, not just General: the README
    // advertises the five-backend agreement for all four.
    let algorithms = [
        Algorithm::General(TradeoffParams::new(8, 3)),
        Algorithm::ClusterMerging { k: 8 },
        Algorithm::Corollary {
            setting: CorollarySetting::LogK,
            k: 8,
        },
        Algorithm::BaswanaSen { k: 4 },
    ];
    for family in families {
        let g = family.generate(WeightModel::Uniform(1, 32), 0xF00D);
        for algorithm in algorithms {
            let request = SpannerRequest::new(&g, algorithm).seed(99);
            let reference = request.run().expect("sequential").result;
            assert!(!reference.edges.is_empty());
            for backend in all_backends() {
                let report = request
                    .clone()
                    .on(backend)
                    .run()
                    .unwrap_or_else(|e| panic!("{} failed: {e}", backend.name()));
                assert_eq!(
                    report.result.edges,
                    reference.edges,
                    "backend {} diverged from the sequential reference ({})",
                    backend.name(),
                    reference.algorithm,
                );
                assert_eq!(report.plan.backend, backend.name());
                // The report names the algorithm the user requested on
                // every backend and always carries the planned bound.
                assert_eq!(report.result.algorithm, reference.algorithm);
                assert_eq!(report.result.stretch_bound, report.plan.stretch_bound);
                // The common stats surface: every model backend reports a
                // headline cost; the sequential reference reports none.
                match backend {
                    Backend::Sequential => assert!(report.stats.model_rounds().is_none()),
                    _ => assert!(report.stats.model_rounds().unwrap() > 0),
                }
                assert!(!report.stats.summary().is_empty());
            }
        }
    }
}

#[test]
fn verification_policy_is_honoured_on_every_backend() {
    let g = generators::connected_erdos_renyi(100, 0.08, WeightModel::Uniform(1, 8), 5);
    for backend in all_backends() {
        let report = SpannerRequest::new(&g, Algorithm::General(TradeoffParams::new(4, 2)))
            .on(backend)
            .seed(3)
            .verification(Verification::Enforce)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
        assert!(
            report.verification.expect("verification ran").ok(),
            "{}",
            backend.name()
        );
    }
}

#[test]
fn an_edgeless_graph_reports_the_planned_bound_on_every_backend() {
    // The run returns the graph itself after no step, and still carries
    // the bound its plan promised.
    let g = GraphBuilder::new(10).build();
    let algorithms = [
        Algorithm::General(TradeoffParams::new(4, 2)),
        Algorithm::BaswanaSen { k: 4 },
        Algorithm::ClusterMerging { k: 4 },
    ];
    for algorithm in algorithms {
        for backend in all_backends() {
            let report = SpannerRequest::new(&g, algorithm)
                .on(backend)
                .run()
                .unwrap_or_else(|e| panic!("{} on {}: {e}", algorithm.label(), backend.name()));
            assert!(report.result.edges.is_empty());
            assert_eq!(
                report.result.stretch_bound,
                report.plan.stretch_bound,
                "{} on {}",
                algorithm.label(),
                backend.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// plan() vs run() over all four Corollary 1.2 settings: every
    /// input has edges, so the engine runs every scheduled step and the
    /// measured schedule equals the prediction, as does the stretch
    /// bound.
    #[test]
    fn plan_matches_run_for_all_corollary_settings(
        n in 40usize..160,
        avg_deg in 4.0f64..10.0,
        k in 2u32..17,
        seed in 0u64..1000,
    ) {
        let g = Family::ErdosRenyi { n, avg_deg }.generate(WeightModel::Uniform(1, 16), seed ^ 0xC0);
        for setting in CorollarySetting::all() {
            let request = SpannerRequest::new(&g, Algorithm::Corollary { setting, k }).seed(seed);
            let plan = request.plan().expect("valid setting");
            let report = request.run().expect("sequential run");
            let params = plan.schedule.expect("corollary resolves to a schedule");
            prop_assert_eq!(plan.epochs, params.epochs());
            prop_assert_eq!(plan.iterations, params.iterations());
            prop_assert_eq!(report.result.epochs, plan.epochs);
            prop_assert_eq!(report.result.iterations, plan.iterations);
            prop_assert_eq!(report.result.stretch_bound, plan.stretch_bound);
        }
    }
}

#[test]
fn plan_matches_run_for_custom_sequential_algorithms() {
    // BaswanaSen / SqrtK / UnweightedOk have no engine schedule, and
    // predict their counts with formulas kept in plan(); pin that they
    // match what the walk and the builders report. SqrtK's
    // black box returns early when the contracted graph has no edges
    // (`Plan` documents it); none of these inputs reaches that, so the
    // counts match exactly. The stretch bound always does.
    let g = generators::connected_erdos_renyi(150, 0.08, WeightModel::Uniform(1, 16), 31);
    let topo = g.unweighted_copy();
    let requests = [
        SpannerRequest::new(&g, Algorithm::BaswanaSen { k: 6 }),
        SpannerRequest::new(&g, Algorithm::BaswanaSen { k: 1 }),
        SpannerRequest::new(&g, Algorithm::SqrtK { k: 9 }),
        SpannerRequest::new(
            &topo,
            Algorithm::UnweightedOk {
                k: 3,
                config: UnweightedOkConfig::default(),
            },
        ),
    ];
    for request in requests {
        let request = request.seed(13);
        let plan = request.plan().expect("valid request");
        assert!(
            plan.schedule.is_none(),
            "{}: no engine schedule runs it",
            plan.algorithm
        );
        let report = request.run().expect("sequential run");
        assert_eq!(
            report.result.iterations, plan.iterations,
            "{}: measured iterations diverge from plan",
            plan.algorithm
        );
        assert_eq!(
            report.result.epochs, plan.epochs,
            "{}: measured epochs diverge from plan",
            plan.algorithm
        );
        assert_eq!(
            report.result.stretch_bound, plan.stretch_bound,
            "{}: stretch bound diverges from plan",
            plan.algorithm
        );
    }
}

#[test]
fn plan_computes_its_bounds_without_overflow_at_the_largest_k() {
    // 2k − 1 and 4k do not fit a u32 at k = u32::MAX; plan() must still
    // answer, with the bounds computed in f64.
    let k = u32::MAX;
    let kf = k as f64;
    let topo = generators::connected_erdos_renyi(40, 0.1, WeightModel::Unit, 3);
    let cases = [
        (Algorithm::BaswanaSen { k }, k - 1, 2.0 * kf - 1.0),
        (
            Algorithm::General(TradeoffParams::baswana_sen(k)),
            k,
            2.0 * kf - 1.0,
        ),
        // k_H = ⌈2/γ⌉ + 1 = 5 at γ = 0.5: ⌈log₂ 4k⌉ + 5 iterations and
        // stretch (2k_H − 1)(8k + 1) + 8k.
        (
            Algorithm::UnweightedOk {
                k,
                config: UnweightedOkConfig::default(),
            },
            34 + 5,
            9.0 * (8.0 * kf + 1.0) + 8.0 * kf,
        ),
    ];
    for (algorithm, iterations, stretch_bound) in cases {
        let plan = SpannerRequest::new(&topo, algorithm)
            .plan()
            .unwrap_or_else(|e| panic!("{}: {e}", algorithm.label()));
        assert_eq!(
            (plan.epochs, plan.iterations, plan.stretch_bound),
            (1, iterations, stretch_bound),
            "{}",
            plan.algorithm
        );
    }
}

#[test]
fn appendix_b_stops_at_its_deadline_inside_the_auxiliary_baswana_sen() {
    // At γ = 1e-10, k_H = ⌈2/γ⌉ + 1 saturates at u32::MAX, so the
    // Baswana–Sen spanner of the auxiliary graph would run ~2³² grow
    // steps. The job's guard rides into that black box, so the deadline
    // ends the build.
    let topo = generators::connected_erdos_renyi(60, 0.1, WeightModel::Unit, 5);
    let config = UnweightedOkConfig {
        gamma: 1e-10,
        ..UnweightedOkConfig::default()
    };
    let request = SpannerRequest::new(&topo, Algorithm::UnweightedOk { k: 3, config })
        .deadline(Duration::from_millis(200));
    let started = Instant::now();
    let err = request
        .run()
        .expect_err("the build cannot finish in 200 ms");
    assert!(
        matches!(err, PipelineError::DeadlineExceeded { .. }),
        "expected a deadline error, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline stopped the build only after {:?}",
        started.elapsed()
    );
}

#[test]
fn every_backend_stops_at_its_deadline_between_grow_steps() {
    // One epoch of about u32::MAX grow steps: no backend can finish it,
    // so each must stop at the deadline, checked before every grow step.
    // Both step lists are lazy, or building them would not end either.
    let g = generators::connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), 5);
    let algorithms = [
        Algorithm::General(TradeoffParams::baswana_sen(u32::MAX)),
        Algorithm::BaswanaSen { k: u32::MAX },
    ];
    for (algorithm, backend) in algorithms
        .into_iter()
        .flat_map(|a| all_backends().map(|b| (a, b)))
    {
        let request = SpannerRequest::new(&g, algorithm)
            .on(backend)
            .deadline(Duration::from_millis(200));
        let started = Instant::now();
        let err = request
            .run()
            .expect_err("the build cannot finish in 200 ms");
        assert!(
            matches!(err, PipelineError::DeadlineExceeded { .. }),
            "{} on {}: expected a deadline error, got {err}",
            algorithm.label(),
            backend.name()
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{} on {}: the deadline stopped the build only after {:?}",
            algorithm.label(),
            backend.name(),
            started.elapsed()
        );
    }
}

#[test]
fn plan_is_exact_when_the_schedule_completes() {
    // Every backend walks every scheduled step, so on any graph with
    // edges the measured schedule equals the plan for every corollary
    // setting.
    let g = generators::connected_erdos_renyi(300, 0.15, WeightModel::Uniform(1, 64), 9);
    for setting in CorollarySetting::all() {
        let request = SpannerRequest::new(&g, Algorithm::Corollary { setting, k: 9 }).seed(17);
        let plan = request.plan().unwrap();
        let report = request.run().unwrap();
        assert_eq!(
            (report.result.epochs, report.result.iterations),
            (plan.epochs, plan.iterations),
            "{}: schedule must run to completion on a dense graph",
            setting.label()
        );
    }
}

#[test]
fn batch_mixes_backends_and_survives_malformed_requests() {
    let g = generators::connected_erdos_renyi(90, 0.1, WeightModel::Uniform(1, 8), 2);
    let topo = g.unweighted_copy();
    let params = TradeoffParams::new(4, 2);
    let requests = [
        SpannerRequest::new(&g, Algorithm::General(params)).seed(5),
        SpannerRequest::new(&g, Algorithm::General(params))
            .on(Backend::Pram)
            .seed(5),
        // Malformed: ε ≤ 0 must fail alone, not abort the batch.
        SpannerRequest::new(
            &g,
            Algorithm::Corollary {
                setting: CorollarySetting::Epsilon(-0.5),
                k: 8,
            },
        ),
        // Unsupported combination: typed error, not a panic.
        SpannerRequest::new(
            &topo,
            Algorithm::UnweightedOk {
                k: 4,
                config: UnweightedOkConfig::default(),
            },
        )
        .on(Backend::Streaming)
        .seed(5),
        SpannerRequest::new(&g, Algorithm::General(params))
            .on(Backend::congested_clique())
            .seed(5),
    ];
    let reports: Vec<_> = requests.par_iter().map(SpannerRequest::run).collect();
    assert_eq!(reports.len(), 5);
    let seq = reports[0].as_ref().expect("sequential ok");
    assert_eq!(
        reports[1].as_ref().expect("pram ok").result.edges,
        seq.result.edges
    );
    assert!(matches!(reports[2], Err(PipelineError::InvalidRequest(_))));
    assert!(matches!(
        reports[3],
        Err(PipelineError::UnsupportedBackend { .. })
    ));
    assert_eq!(
        reports[4].as_ref().expect("cc ok").result.edges,
        seq.result.edges
    );
}

#[test]
fn batch_output_is_thread_count_independent() {
    let g = generators::connected_erdos_renyi(120, 0.08, WeightModel::Uniform(1, 16), 4);
    let requests: Vec<SpannerRequest<'_>> = (0..6u64)
        .map(|s| SpannerRequest::new(&g, Algorithm::General(TradeoffParams::log_k(8))).seed(s))
        .collect();
    let run_sizes = |threads: usize| -> Vec<usize> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            requests
                .par_iter()
                .map(|request| request.run().expect("valid").size())
                .collect()
        })
    };
    assert_eq!(run_sizes(1), run_sizes(8));
}
