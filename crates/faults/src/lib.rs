//! # fannet-faults
//!
//! Weight-fault and quantization robustness verification (DESIGN.md §11)
//! — FANNet asks whether a verdict survives perturbation of the *inputs*;
//! this crate asks the same question about the network's *parameters*:
//! hardware faults, quantization error and weight drift ("Fault Tolerance
//! of Neural Networks in Adversarial Settings", Duddu et al.;
//! "Adversarial Examples as an Input-Fault Tolerance Problem", Galloway
//! et al.).
//!
//! * [`model`] — the [`FaultModel`] taxonomy: relative weight noise,
//!   stuck-at neurons, bit flips, quantization error.
//! * [`region`] — the fault space as a box of per-parameter
//!   [`Interval`](fannet_numeric::Interval)s ([`FaultRegion`]), plus
//!   concrete [`FaultedNetwork`] assignments drawn from it.
//! * [`propagate`] — the interval-weight propagators: exact rational
//!   intervals, an outward-rounded [`FloatInterval`](fannet_numeric::FloatInterval)
//!   fast screen, and a zonotope tier that gives every faulted weight its
//!   own shared noise symbol so correlated faults cancel in output
//!   differences — the fault-space mirror of the input-noise cascade.
//! * [`checker`] — the [`FaultChecker`]: screening-tier cascade plus
//!   branch-and-bound over the *fault space* (splitting weight
//!   intervals, not input boxes), and the fault-tolerance binary search
//!   (largest ε whose weight-noise ball provably keeps the label) —
//!   instantiating the generic `fannet-search` core (DESIGN.md §12).
//! * [`joint`] — the joint input×weight product domain
//!   ([`ProductRegion`], [`JointChecker`]): "robust to ±δ input noise
//!   *and* ±ε weight noise simultaneously", with both factors refined
//!   by the same generic search.
//!
//! Verdict semantics differ from the input-noise checker in one
//! fundamental way: the fault space is continuous (or combinatorially
//! huge, for bit flips), so the procedure is **sound but not complete**
//! — [`FaultOutcome::Robust`] and [`FaultOutcome::Vulnerable`] are
//! proofs, [`FaultOutcome::Unknown`] is an honest "the budgeted search
//! could not decide".
//!
//! ## Example
//!
//! ```
//! use fannet_faults::{FaultChecker, FaultCheckerConfig, FaultModel, FaultOutcome};
//! use fannet_nn::{Activation, DenseLayer, Network, Readout};
//! use fannet_numeric::Rational;
//! use fannet_tensor::Matrix;
//!
//! // label 0 iff x0 ≥ x1.
//! let r = |n: i128| Rational::from_integer(n);
//! let net = Network::new(vec![DenseLayer::new(
//!     Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)]])?,
//!     vec![r(0), r(0)],
//!     Activation::Identity,
//! )?], Readout::MaxPool)?;
//!
//! let checker = FaultChecker::new(net, FaultCheckerConfig::default());
//! let x = [r(100), r(82)];
//! // ±5% relative weight noise cannot close an 18% margin…
//! let eps = Rational::new(5, 100);
//! let (outcome, _) = checker.check(&x, 0, &FaultModel::WeightNoise { rel_eps: eps })?;
//! assert_eq!(outcome, FaultOutcome::Robust);
//! // …but ±20% can: the checker finds a concrete faulted network.
//! let eps = Rational::new(20, 100);
//! let (outcome, _) = checker.check(&x, 0, &FaultModel::WeightNoise { rel_eps: eps })?;
//! assert!(matches!(outcome, FaultOutcome::Vulnerable(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checker;
pub mod joint;
pub mod model;
pub mod propagate;
pub mod region;

pub use checker::{
    tolerance_search, FaultChecker, FaultCheckerConfig, FaultOutcome, FaultStats, FaultTolerance,
    FaultWitness, ToleranceSearch,
};
pub use joint::{JointChecker, JointOutcome, JointTolerance, JointWitness, ProductRegion};
pub use model::FaultModel;
pub use region::{FaultRegion, FaultedNetwork};

#[cfg(test)]
mod test_nets {
    use fannet_nn::{Activation, DenseLayer, Network, Readout};
    use fannet_numeric::Rational;
    use fannet_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random `2 → 3 → 2` ReLU network with integer weights and biases
    /// in `[-3, 3]`: float propagation of small integers rounds only by
    /// the enclosures' outward ulp steps, so exact ties survive into the
    /// float enclosure as near-ties.
    pub(crate) fn small_integer_net(seed: u64) -> Network<Rational> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut int = || Rational::from_integer(i128::from(rng.gen_range(-3i64..=3)));
        let mut layer = |rows: usize, cols: usize, activation| {
            let weights = (0..rows)
                .map(|_| (0..cols).map(|_| int()).collect())
                .collect();
            let biases = (0..rows).map(|_| int()).collect();
            DenseLayer::new(Matrix::from_rows(weights).unwrap(), biases, activation).unwrap()
        };
        let hidden = layer(3, 2, Activation::ReLU);
        let output = layer(2, 3, Activation::Identity);
        Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
    }
}
