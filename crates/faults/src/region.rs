//! The fault space as a box of per-parameter intervals, plus concrete
//! faulted-network assignments drawn from it (DESIGN.md §11).
//!
//! A [`FaultRegion`] is the abstract state of the fault-space
//! branch-and-bound: one exact [`Interval`] per weight and bias, with the
//! unfaulted parameters kept as point intervals, plus any stuck-at
//! overrides. [`FaultRegion::lift`] gives each [`FaultModel`] its
//! interval-weight **over-approximation**:
//!
//! * the continuous models (`WeightNoise`, `Quantization`) are boxes by
//!   definition — the lift is exact;
//! * `BitFlips { budget ≥ 1 }` has a *correlated* discrete fault set
//!   (at most `budget` parameters deviate simultaneously); the lift
//!   replaces it with the independent product of per-parameter hulls
//!   `[−|w|, 2|w|] ⊇ {w, −w, 2w, w/2}`. Independence can only **add**
//!   assignments — every legal faulted network picks its parameters
//!   inside the per-parameter hulls, so the product box contains it —
//!   hence verdicts of the form "every assignment in the box is correct"
//!   transfer to the correlated set (the soundness lemma of DESIGN.md
//!   §11). The converse direction does not transfer, which is why the
//!   checker derives `Vulnerable` only from *concrete* in-budget
//!   assignments for this model.
//!
//! Splitting ([`FaultRegion::split`]) bisects the widest parameter
//! interval at its midpoint — the fault-space analogue of the noise-box
//! split, refining the dependency-problem losses of interval-weight
//! propagation.
//!
//! Every parameter interval carries its float image (`ParamImage`),
//! built when the interval is made ([`FaultRegion::lift`], and
//! [`FaultRegion::split`] for the bisected parameter only), so the float
//! and zonotope tiers never convert exact rationals per box.

use fannet_nn::{Activation, Network};
use fannet_numeric::affine::{enclose_rational, ulp_gap};
use fannet_numeric::{FloatInterval, Interval, Rational};
use fannet_tensor::vector;

use crate::model::FaultModel;

/// A box of faulted parameter assignments: per-parameter exact intervals
/// plus stuck-at output overrides.
///
/// Equality compares the exact intervals only: the cached float images
/// are a pure function of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRegion {
    pub(crate) layers: Vec<FaultLayer>,
    pub(crate) inputs: usize,
}

/// One dense layer of the lifted network.
#[derive(Debug, Clone)]
pub(crate) struct FaultLayer {
    /// `rows × cols` weight intervals, row-major.
    pub(crate) weights: Vec<Interval>,
    /// The float image of each weight interval (same order).
    pub(crate) weight_images: Vec<ParamImage>,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) biases: Vec<Interval>,
    /// The float image of each bias interval.
    pub(crate) bias_images: Vec<ParamImage>,
    pub(crate) activation: Activation,
    /// Post-activation overrides `(neuron, value)` — applied after the
    /// activation function, before the next layer.
    pub(crate) stuck: Vec<(usize, Rational)>,
}

impl PartialEq for FaultLayer {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.rows == other.rows
            && self.cols == other.cols
            && self.biases == other.biases
            && self.activation == other.activation
            && self.stuck == other.stuck
    }
}

impl Eq for FaultLayer {}

/// The float image of one exact parameter interval — everything the
/// float-side tiers and the split policy read of it, converted once
/// (DESIGN.md §11).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParamImage {
    /// Outward float enclosure: the interval tier's multiplier.
    pub(crate) float: FloatInterval,
    /// The zonotope's cover `center ± radius` of the interval; for a
    /// point parameter its [`enclose_rational`] pair `(value, slack)`.
    pub(crate) center: f64,
    pub(crate) radius: f64,
    /// `to_f64` of the exact width — zero exactly for points, `+∞` when
    /// the exact width overflows.
    pub(crate) width: f64,
    /// `to_f64` of the exact normalized width
    /// (see [`FaultRegion::normalized_width`]), `+∞` on overflow.
    pub(crate) normalized_width: f64,
}

impl ParamImage {
    /// The image of `iv`: one [`enclose_rational`] per endpoint, shared
    /// by the float enclosure and the zonotope cover.
    pub(crate) fn of(iv: &Interval) -> Self {
        let lo = enclose_rational(iv.lo());
        if iv.is_point() {
            return ParamImage {
                float: FloatInterval::from_enclosure(lo),
                center: lo.0,
                radius: lo.1,
                width: 0.0,
                normalized_width: 0.0,
            };
        }
        let hi = enclose_rational(iv.hi());
        let (center, radius) = center_radius(lo, hi);
        // The same operations as `Interval::width` and
        // `normalized_width`, checked: an estimate is `+∞` exactly when
        // the exact expression would overflow.
        let width = iv.hi().checked_sub(iv.lo());
        let normalized_width = width.and_then(|w| {
            let mid = iv
                .lo()
                .checked_add(iv.hi())?
                .checked_mul(Rational::new(1, 2))?;
            w.checked_div(mid.abs().max(Rational::ONE))
        });
        ParamImage {
            float: FloatInterval::from_endpoint_enclosures(lo, hi),
            center,
            radius,
            width: width.map_or(f64::INFINITY, |w| w.to_f64()),
            normalized_width: normalized_width.map_or(f64::INFINITY, |w| w.to_f64()),
        }
    }
}

/// A `(center, radius)` float cover of an exact interval from the
/// [`enclose_rational`] pairs of its endpoints:
/// `[center − radius, center + radius] ⊇ [lo, hi]`, every rounded step
/// charged upward.
fn center_radius((lc, ls): (f64, f64), (hc, hs): (f64, f64)) -> (f64, f64) {
    let sum = lc + hc;
    let center = sum * 0.5; // ×0.5 is exact; only `sum` rounded
    let diff = hc - lc;
    let mut radius = (diff * 0.5).abs();
    // Cover the rounding of `diff`, the conversion slacks of both
    // endpoints, and the rounding of `sum` (which displaces the center).
    radius = (radius + ulp_gap(diff)).next_up();
    radius = (radius + ls.max(hs)).next_up();
    radius = (radius + ulp_gap(sum)).next_up();
    (center, radius)
}

/// The split pre-filter (DESIGN.md §11): the smallest `to_f64` estimate
/// that can still belong to an exact maximum. Each estimate is the exact
/// value times `1 + θ` with `|θ| < 3.01·2⁻⁵³` (`Rational::to_f64` rounds
/// at most three times), so the exact maximum and all of its exact ties
/// estimate within `7·2⁻⁵³` of the largest estimate, far inside the
/// `2⁻⁴⁰` margin; candidates at or above the floor are then compared
/// exactly. `None` when every estimate is zero: estimates are zero
/// exactly for point parameters, so the region is a point.
fn prefilter_floor(estimates: impl Iterator<Item = f64>) -> Option<f64> {
    const MARGIN: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;
    let max = estimates.fold(0.0, f64::max);
    (max > 0.0).then_some(max * MARGIN)
}

/// Which parameter a split or witness refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamRef {
    Weight { layer: usize, index: usize },
    Bias { layer: usize, index: usize },
}

impl FaultRegion {
    /// Lifts a network into the interval-weight box of `model` (see the
    /// module doc for per-model semantics).
    ///
    /// # Errors
    ///
    /// Returns the message of [`FaultModel::validate`] on an
    /// out-of-domain model, or a message for a non-piecewise-linear
    /// network (the same admissibility condition as the input-noise
    /// propagators — an error rather than a panic so resident servers
    /// can contain it per request).
    pub fn lift(net: &Network<Rational>, model: &FaultModel) -> Result<FaultRegion, String> {
        if !net.is_piecewise_linear() {
            return Err("fault verification requires piecewise-linear activations".to_string());
        }
        model.validate(net)?;
        let lift_param = |w: Rational| -> Interval {
            match model {
                FaultModel::WeightNoise { rel_eps } => {
                    let radius = *rel_eps * w.abs();
                    Interval::new(w - radius, w + radius)
                }
                FaultModel::StuckAt { .. } => Interval::point(w),
                FaultModel::BitFlips { budget } => {
                    if *budget == 0 || w.is_zero() {
                        // Flips of zero are zero (sign and exponent bits
                        // of a zero significand do not change the value).
                        Interval::point(w)
                    } else {
                        // hull{w, −w, 2w, w/2}: [−w, 2w] for positive w,
                        // [2w, −w] for negative.
                        let candidates = [w, -w, w + w, w * Rational::new(1, 2)];
                        let lo = candidates.iter().copied().reduce(Rational::min).expect("4");
                        let hi = candidates.iter().copied().reduce(Rational::max).expect("4");
                        Interval::new(lo, hi)
                    }
                }
                FaultModel::Quantization { denom_bits } => {
                    let e = FaultModel::quantization_error_bound(*denom_bits);
                    Interval::new(w - e, w + e)
                }
            }
        };
        let layers = net
            .layers()
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                let w = layer.weights();
                let stuck = match model {
                    FaultModel::StuckAt {
                        layer: sl,
                        neuron,
                        value,
                    } if *sl == l => vec![(*neuron, *value)],
                    _ => Vec::new(),
                };
                let weights: Vec<Interval> = w.as_slice().iter().map(|&v| lift_param(v)).collect();
                let biases: Vec<Interval> = layer.biases().iter().map(|&v| lift_param(v)).collect();
                FaultLayer {
                    weight_images: weights.iter().map(ParamImage::of).collect(),
                    weights,
                    rows: w.rows(),
                    cols: w.cols(),
                    bias_images: biases.iter().map(ParamImage::of).collect(),
                    biases,
                    activation: layer.activation(),
                    stuck,
                }
            })
            .collect();
        Ok(FaultRegion {
            layers,
            inputs: net.inputs(),
        })
    }

    /// Number of input features of the lifted network.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output nodes of the lifted network.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("networks have ≥1 layer").rows
    }

    /// Number of parameters whose interval is not a single point.
    #[must_use]
    pub fn faulted_params(&self) -> usize {
        self.params().filter(|(_, iv, _)| !iv.is_point()).count()
    }

    /// `true` when every parameter interval is a point — propagation is
    /// then a concrete forward pass and the region cannot be split.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.params().all(|(_, iv, _)| iv.is_point())
    }

    /// All parameter intervals with their images in the canonical order
    /// (per layer: weights row-major, then biases) — the tie-break order
    /// of the split policy. (The zonotope tier allocates its fault
    /// symbols in *propagation* order — per neuron its bias, then its
    /// weights — which only needs to be distinct and deterministic, not
    /// canonical.)
    fn params(&self) -> impl Iterator<Item = (ParamRef, &Interval, &ParamImage)> {
        self.layers.iter().enumerate().flat_map(|(l, layer)| {
            let weights = layer.weights.iter().zip(&layer.weight_images);
            let biases = layer.biases.iter().zip(&layer.bias_images);
            weights
                .enumerate()
                .map(move |(i, (iv, img))| (ParamRef::Weight { layer: l, index: i }, iv, img))
                .chain(
                    biases.enumerate().map(move |(i, (iv, img))| {
                        (ParamRef::Bias { layer: l, index: i }, iv, img)
                    }),
                )
        })
    }

    /// Replaces one parameter interval and refreshes its image.
    fn set_param(&mut self, p: ParamRef, iv: Interval) {
        let (slot, image) = match p {
            ParamRef::Weight { layer, index } => {
                let layer = &mut self.layers[layer];
                (&mut layer.weights[index], &mut layer.weight_images[index])
            }
            ParamRef::Bias { layer, index } => {
                let layer = &mut self.layers[layer];
                (&mut layer.biases[index], &mut layer.bias_images[index])
            }
        };
        *image = ParamImage::of(&iv);
        *slot = iv;
    }

    /// Bisects the widest parameter interval at its midpoint — the split
    /// policy of the fault-space branch-and-bound (DESIGN.md §11): the
    /// widest absolute interval is where the dependency problem loses the
    /// most, ties break toward the canonical parameter order so the
    /// search is deterministic. Only parameters whose cached width
    /// estimate passes the pre-filter (`prefilter_floor`) are compared
    /// exactly, which leaves the choice unchanged.
    ///
    /// Returns `None` for point regions.
    #[must_use]
    pub fn split(&self) -> Option<(FaultRegion, FaultRegion)> {
        let floor = prefilter_floor(self.params().map(|(_, _, img)| img.width))?;
        let (widest, iv, _) = self
            .params()
            .filter(|(_, _, img)| img.width >= floor)
            .max_by(|(pa, a, _), (pb, b, _)| {
                // Strictly-wider wins; on ties the *earlier* parameter
                // wins, so reverse the positional order under max_by.
                a.width()
                    .cmp(&b.width())
                    .then_with(|| position_key(*pb).cmp(&position_key(*pa)))
            })?;
        let (lo_half, hi_half) = iv.bisect();
        let mut a = self.clone();
        a.set_param(widest, lo_half);
        let mut b = self.clone();
        b.set_param(widest, hi_half);
        Some((a, b))
    }

    /// Largest *relative* parameter width — `width / max(|midpoint|, 1)`
    /// over all parameters. Dividing by the midpoint magnitude makes
    /// widths of large and small weights commensurable, and clamping
    /// the denominator at 1 keeps near-zero parameters from dominating;
    /// the adaptive joint split policy (DESIGN.md §12) compares this
    /// against the noise factor's normalized width. Zero for point
    /// regions. Only parameters whose cached estimate passes the split
    /// pre-filter are evaluated exactly.
    #[must_use]
    pub fn normalized_width(&self) -> Rational {
        let one = Rational::from_integer(1);
        let Some(floor) = prefilter_floor(self.params().map(|(_, _, img)| img.normalized_width))
        else {
            return Rational::from_integer(0);
        };
        self.params()
            .filter(|(_, _, img)| img.normalized_width >= floor)
            .map(|(_, iv, _)| iv.width() / iv.midpoint().abs().max(one))
            .max()
            .expect("a parameter passes its own floor")
    }

    /// The concrete network with every parameter at its interval
    /// midpoint — a legal assignment for the continuous fault models
    /// (any sub-box of their lift is entirely in-model).
    #[must_use]
    pub fn midpoint(&self) -> FaultedNetwork {
        self.assignment(Interval::midpoint)
    }

    /// The concrete network with every parameter at its lower bound.
    #[must_use]
    pub fn corner_lo(&self) -> FaultedNetwork {
        self.assignment(|iv| iv.lo())
    }

    /// The concrete network with every parameter at its upper bound.
    #[must_use]
    pub fn corner_hi(&self) -> FaultedNetwork {
        self.assignment(|iv| iv.hi())
    }

    /// A concrete assignment with `pick` choosing one value per interval.
    fn assignment(&self, pick: impl Fn(&Interval) -> Rational) -> FaultedNetwork {
        FaultedNetwork {
            layers: self
                .layers
                .iter()
                .map(|layer| FaultedLayerConcrete {
                    weights: layer.weights.iter().map(&pick).collect(),
                    rows: layer.rows,
                    cols: layer.cols,
                    biases: layer.biases.iter().map(&pick).collect(),
                    activation: layer.activation,
                    stuck: layer.stuck.clone(),
                })
                .collect(),
            inputs: self.inputs,
        }
    }
}

/// Canonical position of a parameter, for deterministic tie-breaks.
fn position_key(p: ParamRef) -> (usize, usize, usize) {
    match p {
        ParamRef::Weight { layer, index } => (layer, 0, index),
        ParamRef::Bias { layer, index } => (layer, 1, index),
    }
}

/// A concrete faulted network: exact parameter values plus stuck-at
/// output overrides — the object sampled by cross-validation tests and
/// evaluated for counterexample witnesses.
///
/// This is *not* a [`Network`] because stuck-at overrides change the
/// layer semantics (a forced post-activation output has no weight-space
/// encoding in general).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultedNetwork {
    layers: Vec<FaultedLayerConcrete>,
    inputs: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultedLayerConcrete {
    weights: Vec<Rational>,
    rows: usize,
    cols: usize,
    biases: Vec<Rational>,
    activation: Activation,
    stuck: Vec<(usize, Rational)>,
}

impl FaultedNetwork {
    /// The unfaulted copy of `net` (identity assignment) — the starting
    /// point for explicit single-fault enumeration.
    #[must_use]
    pub fn from_network(net: &Network<Rational>) -> Self {
        FaultedNetwork {
            layers: net
                .layers()
                .iter()
                .map(|layer| FaultedLayerConcrete {
                    weights: layer.weights().as_slice().to_vec(),
                    rows: layer.weights().rows(),
                    cols: layer.weights().cols(),
                    biases: layer.biases().to_vec(),
                    activation: layer.activation(),
                    stuck: Vec::new(),
                })
                .collect(),
            inputs: net.inputs(),
        }
    }

    /// Number of input features.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Overwrites one weight (`layer`, row-major `index`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_weight(&mut self, layer: usize, index: usize, value: Rational) {
        self.layers[layer].weights[index] = value;
    }

    /// Reads one weight (`layer`, row-major `index`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn weight(&self, layer: usize, index: usize) -> Rational {
        self.layers[layer].weights[index]
    }

    /// Overwrites one bias.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_bias(&mut self, layer: usize, index: usize, value: Rational) {
        self.layers[layer].biases[index] = value;
    }

    /// Reads one bias.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn bias(&self, layer: usize, index: usize) -> Rational {
        self.layers[layer].biases[index]
    }

    /// Per-layer `(weights, biases)` parameter counts, in layer order.
    #[must_use]
    pub fn layer_shapes(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .map(|l| (l.weights.len(), l.biases.len()))
            .collect()
    }

    /// Forces neuron `neuron` of `layer` to post-activation `value`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn set_stuck(&mut self, layer: usize, neuron: usize, value: Rational) {
        assert!(neuron < self.layers[layer].rows, "stuck neuron in range");
        self.layers[layer].stuck.push((neuron, value));
    }

    /// Exact forward pass with stuck-at overrides applied after each
    /// layer's activation.
    ///
    /// # Errors
    ///
    /// Returns a message if `x.len()` does not match the input width.
    pub fn forward(&self, x: &[Rational]) -> Result<Vec<Rational>, String> {
        if x.len() != self.inputs {
            return Err(format!(
                "input of width {} against network with {} inputs",
                x.len(),
                self.inputs
            ));
        }
        let mut acts = x.to_vec();
        for layer in &self.layers {
            let mut next = Vec::with_capacity(layer.rows);
            for r in 0..layer.rows {
                let row = &layer.weights[r * layer.cols..(r + 1) * layer.cols];
                let mut z = layer.biases[r];
                for (w, a) in row.iter().zip(&acts) {
                    z += *w * *a;
                }
                next.push(layer.activation.apply(z));
            }
            for &(neuron, value) in &layer.stuck {
                next[neuron] = value;
            }
            acts = next;
        }
        Ok(acts)
    }

    /// Classifies with the maxpool readout (lower-index tie-break, the
    /// paper's `L0 ≥ L1 → L0` rule — identical to
    /// [`fannet_nn::Readout::MaxPool`]).
    ///
    /// # Errors
    ///
    /// Returns a message if `x.len()` does not match the input width.
    pub fn classify(&self, x: &[Rational]) -> Result<usize, String> {
        let out = self.forward(x)?;
        Ok(vector::argmax(&out).expect("networks have ≥1 output"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fannet_nn::{DenseLayer, Readout};
    use fannet_tensor::Matrix;

    fn r(n: i128) -> Rational {
        Rational::from_integer(n)
    }

    fn rq(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// 2-3-2 ReLU network with mixed-sign weights.
    fn net() -> Network<Rational> {
        let hidden = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(2), r(-1)], vec![r(-1), r(2)], vec![r(1), r(1)]])
                .unwrap(),
            vec![r(-10), r(-10), r(0)],
            Activation::ReLU,
        )
        .unwrap();
        let output = DenseLayer::new(
            Matrix::from_rows(vec![vec![r(1), r(0), r(1)], vec![r(0), r(1), r(1)]]).unwrap(),
            vec![r(0), r(0)],
            Activation::Identity,
        )
        .unwrap();
        Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
    }

    #[test]
    fn weight_noise_lift_brackets_every_parameter() {
        let n = net();
        let eps = Rational::new(1, 10);
        let region = FaultRegion::lift(&n, &FaultModel::WeightNoise { rel_eps: eps }).unwrap();
        assert_eq!(region.inputs(), 2);
        assert_eq!(region.outputs(), 2);
        for (layer, lifted) in n.layers().iter().zip(&region.layers) {
            for (&w, iv) in layer.weights().as_slice().iter().zip(&lifted.weights) {
                assert!(iv.contains(w));
                assert_eq!(iv.width(), Rational::new(2, 10) * w.abs());
            }
            for (&b, iv) in layer.biases().iter().zip(&lifted.biases) {
                assert!(iv.contains(b));
            }
        }
        // Zero-eps lift is the point network.
        let exact = FaultRegion::lift(
            &n,
            &FaultModel::WeightNoise {
                rel_eps: Rational::ZERO,
            },
        )
        .unwrap();
        assert!(exact.is_point());
        assert_eq!(exact.faulted_params(), 0);
    }

    #[test]
    fn bit_flip_lift_hulls_all_flip_values() {
        let n = net();
        let region = FaultRegion::lift(&n, &FaultModel::BitFlips { budget: 1 }).unwrap();
        for (layer, lifted) in n.layers().iter().zip(&region.layers) {
            for (&w, iv) in layer.weights().as_slice().iter().zip(&lifted.weights) {
                for flipped in [w, -w, w + w, w * Rational::new(1, 2)] {
                    assert!(iv.contains(flipped), "{iv:?} must contain flip {flipped}");
                }
            }
        }
        assert!(FaultRegion::lift(&n, &FaultModel::BitFlips { budget: 0 })
            .unwrap()
            .is_point());
    }

    #[test]
    fn quantization_lift_uses_half_ulp_bound() {
        let n = net();
        let region = FaultRegion::lift(&n, &FaultModel::Quantization { denom_bits: 8 }).unwrap();
        let e = Rational::new(1, 512);
        let w = n.layers()[0].weights()[(0, 0)];
        let iv = region.layers[0].weights[0];
        assert_eq!(iv, Interval::new(w - e, w + e));
    }

    #[test]
    fn stuck_at_lift_is_point_with_override() {
        let n = net();
        let region = FaultRegion::lift(
            &n,
            &FaultModel::StuckAt {
                layer: 0,
                neuron: 1,
                value: r(7),
            },
        )
        .unwrap();
        assert!(region.is_point());
        assert_eq!(region.layers[0].stuck, vec![(1, r(7))]);
        assert!(region.layers[1].stuck.is_empty());
        // The midpoint assignment carries the override into evaluation.
        let faulted = region.midpoint();
        let x = [r(10), r(10)];
        let plain = FaultedNetwork::from_network(&n);
        assert_ne!(faulted.forward(&x).unwrap(), plain.forward(&x).unwrap());
    }

    #[test]
    fn split_bisects_widest_parameter_deterministically() {
        let n = net();
        let region = FaultRegion::lift(
            &n,
            &FaultModel::WeightNoise {
                rel_eps: Rational::new(1, 4),
            },
        )
        .unwrap();
        let (a, b) = region.split().expect("non-point region splits");
        // Exactly one parameter interval changed in each half, the same
        // one — the widest is the first |−10| bias of layer 0 (width 5,
        // beating every |w| ≤ 2 weight), tie-broken toward the earlier
        // index — and their union is the original.
        let widest = region.layers[0].biases[0];
        assert_eq!(widest.width(), Rational::new(5, 1));
        assert_eq!(a.layers[0].biases[0].hull(&b.layers[0].biases[0]), widest);
        assert_eq!(a.layers[0].biases[0].hi(), b.layers[0].biases[0].lo());
        assert_eq!(a.layers[0].weights, b.layers[0].weights);
        // Determinism: splitting twice yields identical halves.
        let (a2, b2) = region.split().unwrap();
        assert_eq!((a.clone(), b.clone()), (a2, b2));
        // Point regions cannot split.
        assert!(FaultRegion::lift(&n, &FaultModel::BitFlips { budget: 0 })
            .unwrap()
            .split()
            .is_none());
    }

    #[test]
    fn faulted_network_matches_plain_forward_when_unfaulted() {
        let n = net();
        let plain = FaultedNetwork::from_network(&n);
        for x in [[r(12), r(5)], [r(-3), r(4)], [r(9), r(8)]] {
            assert_eq!(plain.forward(&x).unwrap(), n.forward(&x).unwrap());
            assert_eq!(plain.classify(&x).unwrap(), n.classify(&x).unwrap());
        }
        assert!(plain.forward(&[r(1)]).is_err());
    }

    #[test]
    fn corner_assignments_stay_inside_the_region() {
        let n = net();
        let region = FaultRegion::lift(
            &n,
            &FaultModel::WeightNoise {
                rel_eps: Rational::new(1, 10),
            },
        )
        .unwrap();
        let lo = region.corner_lo();
        let hi = region.corner_hi();
        let mid = region.midpoint();
        for (l, lifted) in region.layers.iter().enumerate() {
            for (i, iv) in lifted.weights.iter().enumerate() {
                for candidate in [lo.weight(l, i), hi.weight(l, i), mid.weight(l, i)] {
                    assert!(iv.contains(candidate));
                }
            }
        }
    }

    #[test]
    fn setters_round_trip() {
        let n = net();
        let mut f = FaultedNetwork::from_network(&n);
        f.set_weight(0, 1, r(42));
        assert_eq!(f.weight(0, 1), r(42));
        f.set_bias(1, 0, r(-5));
        assert_eq!(f.bias(1, 0), r(-5));
        assert_eq!(f.layer_shapes(), vec![(6, 3), (6, 2)]);
    }
    #[test]
    fn center_radius_covers_both_endpoints() {
        for (lo, hi) in [
            (rq(1, 3), rq(2, 3)),
            (rq(-7, 11), rq(22, 7)),
            (rq(-5, 2), rq(-1, 2)),
            (rq(1, 1_000_003), rq(1, 1_000_000)),
        ] {
            let (c, r) = center_radius(enclose_rational(lo), enclose_rational(hi));
            let lo_f = lo.to_f64();
            let hi_f = hi.to_f64();
            assert!(
                c - r <= lo_f.next_up() && hi_f.next_down() <= c + r,
                "[{c} ± {r}] must cover [{lo}, {hi}]"
            );
        }
    }
}
