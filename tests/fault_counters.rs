//! Pinned fault and joint tolerance results on the serving golden model
//! (`tests/data/serve_model.json`): the certified ε and every search
//! counter of the cascade-tier `FaultChecker` and `JointChecker`
//! tolerance bisections. A change to the screening tiers, the split
//! policy or the float images of fault boxes that is meant to be
//! behaviour-preserving must leave every row here unchanged.

use fannet::faults::{FaultChecker, FaultCheckerConfig, JointChecker, ToleranceSearch};
use fannet::nn::{io, Network};
use fannet::numeric::Rational;

fn model() -> Network<Rational> {
    io::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/serve_model.json"
    ))
    .expect("golden model loads")
}

fn input(values: [i128; 2]) -> Vec<Rational> {
    values.iter().map(|&v| Rational::from_integer(v)).collect()
}

/// The three queried inputs and their labels.
const INPUTS: [([i128; 2], usize); 3] = [([100, 82], 0), ([70, 90], 1), ([41, 40], 0)];

/// One pinned row: certified ε (as `"n/d"` or `"none"`) and
/// `boxes / splits / pruned_correct / proved_wrong / concrete_evals`.
type Row = (&'static str, [u64; 5]);

fn render(eps: Option<Rational>, stats: &fannet::faults::FaultStats) -> (String, [u64; 5]) {
    (
        eps.map_or_else(|| "none".to_string(), |e| e.to_string()),
        [
            stats.boxes_visited,
            stats.splits,
            stats.pruned_correct,
            stats.proved_wrong,
            stats.concrete_evals,
        ],
    )
}

fn assert_rows(kind: &str, got: &[(String, [u64; 5])], want: &[Row]) {
    assert_eq!(got.len(), want.len(), "{kind}: row count");
    for (i, ((eps, counters), (want_eps, want_counters))) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (eps.as_str(), counters),
            (*want_eps, want_counters),
            "{kind} row {i}: got {got:?}"
        );
    }
}

#[test]
fn fault_tolerance_counters_are_pinned() {
    const WANT: [Row; 3] = [
        ("9/100", [3, 0, 3, 0, 35]),
        ("3/25", [2, 0, 2, 0, 35]),
        ("1/100", [2, 0, 2, 0, 40]),
    ];
    let checker = FaultChecker::new(model(), FaultCheckerConfig::default());
    let grid = ToleranceSearch::new(100, 50);
    let got: Vec<_> = INPUTS
        .iter()
        .map(|&(x, label)| {
            let (tol, stats) = checker.tolerance(&input(x), label, &grid).unwrap();
            render(tol.robust_eps, &stats)
        })
        .collect();
    assert_rows("fault", &got, &WANT);
}

#[test]
fn joint_tolerance_counters_are_pinned() {
    const WANT: [Row; 9] = [
        ("9/100", [3, 0, 3, 0, 41]),
        ("7/100", [106, 55, 44, 1, 51]),
        ("1/25", [97, 51, 38, 1, 51]),
        ("3/25", [2, 0, 2, 0, 39]),
        ("1/10", [145, 74, 54, 1, 53]),
        ("7/100", [225, 120, 69, 2, 54]),
        ("1/100", [2, 0, 2, 0, 44]),
        ("none", [7, 5, 1, 1, 8]),
        ("none", [10, 8, 1, 1, 8]),
    ];
    let checker = JointChecker::new(model(), FaultCheckerConfig::default());
    let grid = ToleranceSearch::new(100, 50);
    let mut got = Vec::new();
    for &(x, label) in &INPUTS {
        for delta in [0, 2, 5] {
            let (tol, stats) = checker.tolerance(&input(x), label, delta, &grid).unwrap();
            got.push(render(tol.robust_eps, &stats));
        }
    }
    assert_rows("joint", &got, &WANT);
}

/// A seeded 3-4-2 ReLU network with 8-bit quantized weights: unlike the
/// 2×2 identity golden model it has enough faulted parameters for the
/// fault factor to split, so the split policy is pinned as well.
fn seeded_net() -> Network<Rational> {
    use fannet::nn::{init, quantize, Activation};
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(14);
    let net = init::fresh_network(
        &mut rng,
        &[3, 4, 2],
        Activation::ReLU,
        init::Init::Uniform(1.5),
    );
    quantize::to_rational(&net, 8)
}

#[test]
fn seeded_network_counters_are_pinned() {
    const WANT: [Row; 4] = [
        ("7/50", [1632, 826, 353, 0, 40]),
        ("13/100", [2135, 1086, 595, 0, 54]),
        ("9/20", [1030, 522, 20, 0, 40]),
        ("43/100", [1540, 783, 25, 0, 49]),
    ];
    let net = seeded_net();
    let grid = ToleranceSearch::new(100, 50);
    let mut got = Vec::new();
    for x in [[5, 3, 8], [-2, 7, 1]] {
        let x: Vec<Rational> = x.iter().map(|&v| Rational::from_integer(v)).collect();
        let label = net.classify(&x).unwrap();
        let fault = FaultChecker::new(net.clone(), FaultCheckerConfig::default());
        let (tol, stats) = fault.tolerance(&x, label, &grid).unwrap();
        got.push(render(tol.robust_eps, &stats));
        let joint = JointChecker::new(net.clone(), FaultCheckerConfig::default());
        let (tol, stats) = joint.tolerance(&x, label, 2, &grid).unwrap();
        got.push(render(tol.robust_eps, &stats));
    }
    assert_rows("seeded", &got, &WANT);
}
