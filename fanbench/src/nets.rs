//! Seeded case studies: the run seed is mixed into the paper
//! configuration's dataset and initialisation seeds, so every seed
//! trains its own family of 5–20–2 networks. Network 0 of seed 0 is
//! the paper's own configuration.

use fannet_core::casestudy::{self, CaseStudyConfig};
use fannet_core::{behavior, tolerance};
use fannet_data::Dataset;
use fannet_nn::fingerprint::fingerprint;
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_verify::bab::CheckerConfig;

/// The paper's network noise tolerance (±11 %), which seed 0 must
/// reproduce.
pub const PAPER_TOLERANCE: i64 = 11;

/// One trained network of a run with the five-gene splits it is
/// analysed on (the full-width dataset is dropped after training), and
/// the test inputs it classifies correctly (the paper analyses only
/// those).
pub struct Net {
    pub exact: Network<Rational>,
    pub train: Dataset,
    pub test: Dataset,
    pub correct: Vec<usize>,
}

/// The case-study configuration of network `index` of run `seed`.
pub fn config(seed: u64, index: u64) -> CaseStudyConfig {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut config = CaseStudyConfig::paper();
    config.golub.seed ^= mix;
    config.init_seed ^= mix;
    config
}

pub fn build(seed: u64, index: u64) -> Net {
    let study = casestudy::build(&config(seed, index));
    let correct = behavior::correctly_classified(&study.exact_net, &study.test5);
    Net {
        exact: study.exact_net,
        train: study.train5,
        test: study.test5,
        correct,
    }
}

/// Builds networks `0..count` of `seed`, two at a time.
pub fn build_family(seed: u64, count: usize) -> Vec<Net> {
    let indices: Vec<u64> = (0..count as u64).collect();
    fannet_core::par::ordered_map(&indices, crate::THREADS, |&index| build(seed, index))
}

/// `count` of `net`'s correctly classified inputs at evenly spaced ranks
/// of their classification margin, in index order. Every network then
/// contributes the same spread of near-boundary and robust inputs, which
/// is what a query's cost depends on.
pub fn stratified_inputs(net: &Net, count: usize) -> Vec<usize> {
    let margin = |i: usize| {
        let x = behavior::rational_input(&net.test.samples()[i]);
        let out: Vec<f64> = net
            .exact
            .forward(&x)
            .expect("test inputs match the network")
            .iter()
            .map(Rational::to_f64)
            .collect();
        let label = net.test.labels()[i];
        let rival = out
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != label)
            .map(|(_, &o)| o)
            .fold(f64::NEG_INFINITY, f64::max);
        (out[label] - rival) / (out[label].abs() + rival.abs()).max(f64::MIN_POSITIVE)
    };
    let mut ranked: Vec<(f64, usize)> = net.correct.iter().map(|&i| (margin(i), i)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let m = ranked.len();
    let count = count.min(m);
    let mut chosen: Vec<usize> = (0..count)
        .map(|k| ranked[(2 * k + 1) * m / (2 * count)].1)
        .collect();
    chosen.sort_unstable();
    chosen
}

/// Content fingerprint of a network family: the exact weights of every
/// network and the raw test inputs it is analysed on.
pub fn family_fingerprint<'a>(nets: impl IntoIterator<Item = &'a Net>) -> String {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for net in nets {
        feed(fingerprint(&net.exact).to_hex().as_bytes());
        for sample in net.test.samples() {
            for value in sample {
                feed(&value.to_bits().to_le_bytes());
            }
        }
    }
    format!("{hash:016x}")
}

/// `true` unless this is the paper's configuration and its network
/// tolerance differs from the paper's ±11 %.
pub fn paper_tolerance_holds(seed: u64, net: &Net) -> bool {
    if seed != 0 {
        return true;
    }
    let report = tolerance::par_analyze(
        &net.exact,
        &net.test,
        &net.correct,
        50,
        &CheckerConfig::cascade(),
        2,
    );
    let ok = report.tolerance() == PAPER_TOLERANCE;
    if !ok {
        eprintln!(
            "fanbench: seed 0 network tolerance is ±{}%, the paper's is ±{PAPER_TOLERANCE}%",
            report.tolerance()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_network_zero_is_the_paper_configuration() {
        assert_eq!(config(0, 0), CaseStudyConfig::paper());
        assert_ne!(config(1, 0), CaseStudyConfig::paper());
        assert_ne!(config(0, 1), config(1, 0));
    }

    #[test]
    fn same_seed_gives_a_byte_identical_fingerprint() {
        let a = build_family(7, 2);
        let b = build_family(7, 2);
        assert_eq!(family_fingerprint(&a), family_fingerprint(&b));
        assert_ne!(
            family_fingerprint(&a),
            family_fingerprint(&build_family(8, 2))
        );
    }

    #[test]
    fn stratified_inputs_are_distinct_correct_inputs() {
        let net = build(2, 0);
        let chosen = stratified_inputs(&net, 8);
        assert_eq!(chosen.len(), 8);
        assert!(chosen.windows(2).all(|w| w[0] < w[1]));
        assert!(chosen.iter().all(|i| net.correct.contains(i)));
    }

    #[test]
    fn paper_seed_reproduces_the_paper_tolerance() {
        assert!(paper_tolerance_holds(0, &build(0, 0)));
    }
}
