//! Bit-identity of the cached float images (DESIGN.md §11): the float
//! and zonotope tiers, the split choice and the normalized width must
//! equal, bit for bit, what converting every parameter per box gave.
//! The oracle below is that per-box conversion, kept verbatim.

use super::*;
use crate::joint::ProductRegion;
use crate::model::FaultModel;
use crate::test_nets::small_integer_net;
use fannet_nn::{Activation, DenseLayer, Network, Readout};
use fannet_numeric::affine::{enclose_rational, ulp_gap};
use fannet_tensor::Matrix;
use proptest::prop_assert_eq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// The per-box conversion oracle
// ---------------------------------------------------------------------------

fn float_iv(iv: &Interval) -> FloatInterval {
    FloatInterval::from_rationals(iv.lo(), iv.hi())
}

fn center_radius(iv: &Interval) -> (f64, f64) {
    let (lc, ls) = enclose_rational(iv.lo());
    let (hc, hs) = enclose_rational(iv.hi());
    let sum = lc + hc;
    let center = sum * 0.5;
    let diff = hc - lc;
    let mut radius = (diff * 0.5).abs();
    radius = (radius + ulp_gap(diff)).next_up();
    radius = (radius + ls.max(hs)).next_up();
    radius = (radius + ulp_gap(sum)).next_up();
    (center, radius)
}

fn oracle_uncertain_constant(iv: &Interval, fault_symbol: &mut usize) -> AffineForm {
    if iv.is_point() {
        let (c, s) = enclose_rational(iv.lo());
        let mut form = AffineForm::constant(c);
        form.add_err(s);
        form
    } else {
        let (c, r) = center_radius(iv);
        let mut form = AffineForm::constant(c);
        form.set_coeff(*fault_symbol, r);
        *fault_symbol += 1;
        form
    }
}

fn oracle_float_outputs(region: &FaultRegion, x: &[FloatInterval]) -> Vec<FloatInterval> {
    let mut acts = x.to_vec();
    for layer in &region.layers {
        let mut next = Vec::with_capacity(layer.rows);
        for r in 0..layer.rows {
            let row = &layer.weights[r * layer.cols..(r + 1) * layer.cols];
            let mut z = float_iv(&layer.biases[r]);
            for (w, a) in row.iter().zip(&acts) {
                z = z.add(&float_iv(w).mul_interval(a));
            }
            next.push(apply_float(layer.activation, z));
        }
        for &(neuron, value) in &layer.stuck {
            next[neuron] = FloatInterval::from_rational_point(value);
        }
        acts = next;
    }
    acts
}

fn oracle_zonotope_outputs(
    region: &FaultRegion,
    x: &[Rational],
    noise: &NoiseRegion,
) -> Vec<AffineForm> {
    let mut acts: Vec<AffineForm> = x
        .iter()
        .zip(noise.ranges())
        .enumerate()
        .map(|(k, (&xk, &(lo, hi)))| {
            let (xc, xs) = enclose_rational(xk);
            input_form(xc, xs, lo, hi, k)
        })
        .collect();
    let mut fault_symbol = region.inputs;
    let mut fresh_symbol = region.inputs + region.faulted_params();
    for layer in &region.layers {
        let mut next = Vec::with_capacity(layer.rows);
        for r in 0..layer.rows {
            let row = &layer.weights[r * layer.cols..(r + 1) * layer.cols];
            let mut z = oracle_uncertain_constant(&layer.biases[r], &mut fault_symbol);
            for (w, a) in row.iter().zip(&acts) {
                let term = if w.is_point() {
                    let (wc, ws) = enclose_rational(w.lo());
                    a.scale(wc, ws)
                } else {
                    let (wc, wr) = center_radius(w);
                    let sym = fault_symbol;
                    fault_symbol += 1;
                    mul_uncertain(a, wc, wr, sym)
                };
                z = z.add(&term);
            }
            next.push(match layer.activation {
                Activation::Identity => z,
                Activation::ReLU => relu_form(&z, &mut fresh_symbol),
                Activation::Sigmoid => unreachable!(),
            });
        }
        for &(neuron, value) in &layer.stuck {
            next[neuron] = AffineForm::from_rational(value);
        }
        acts = next;
    }
    acts
}

/// Every parameter as `((layer, kind, index), interval)` in canonical
/// order (kind 0 = weight, 1 = bias).
fn oracle_params(region: &FaultRegion) -> Vec<((usize, usize, usize), Interval)> {
    let mut out = Vec::new();
    for (l, layer) in region.layers.iter().enumerate() {
        out.extend(
            layer
                .weights
                .iter()
                .enumerate()
                .map(|(i, &iv)| ((l, 0, i), iv)),
        );
        out.extend(
            layer
                .biases
                .iter()
                .enumerate()
                .map(|(i, &iv)| ((l, 1, i), iv)),
        );
    }
    out
}

/// The widest non-point parameter by a full exact scan, ties toward the
/// earlier one.
fn oracle_widest(region: &FaultRegion) -> Option<(usize, usize, usize)> {
    oracle_params(region)
        .into_iter()
        .filter(|(_, iv)| !iv.is_point())
        .max_by(|(ka, a), (kb, b)| a.width().cmp(&b.width()).then_with(|| kb.cmp(ka)))
        .map(|(k, _)| k)
}

fn oracle_split(region: &FaultRegion) -> Option<(FaultRegion, FaultRegion)> {
    let (l, kind, i) = oracle_widest(region)?;
    let layer = &region.layers[l];
    let iv = if kind == 0 {
        layer.weights[i]
    } else {
        layer.biases[i]
    };
    let (lo_half, hi_half) = iv.bisect();
    let half = |h: Interval| {
        let mut out = region.clone();
        if kind == 0 {
            out.layers[l].weights[i] = h;
        } else {
            out.layers[l].biases[i] = h;
        }
        out
    };
    Some((half(lo_half), half(hi_half)))
}

fn oracle_normalized_width(region: &FaultRegion) -> Rational {
    let one = Rational::from_integer(1);
    oracle_params(region)
        .iter()
        .map(|(_, iv)| iv.width() / iv.midpoint().abs().max(one))
        .max()
        .unwrap_or(Rational::from_integer(0))
}

fn oracle_product_split(region: &ProductRegion) -> Option<(ProductRegion, ProductRegion)> {
    let split_noise = || {
        region.noise.split().map(|(a, b)| {
            (
                ProductRegion::new(a, region.fault.clone()),
                ProductRegion::new(b, region.fault.clone()),
            )
        })
    };
    let split_fault = || {
        oracle_split(&region.fault).map(|(a, b)| {
            (
                ProductRegion::new(region.noise.clone(), a),
                ProductRegion::new(region.noise.clone(), b),
            )
        })
    };
    if region.noise_normalized_width() >= oracle_normalized_width(&region.fault) {
        split_noise().or_else(split_fault)
    } else {
        split_fault().or_else(split_noise)
    }
}

// ---------------------------------------------------------------------------
// Bitwise comparisons
// ---------------------------------------------------------------------------

fn iv_bits(iv: &FloatInterval) -> (u64, u64) {
    (iv.lo().to_bits(), iv.hi().to_bits())
}

fn form_bits(f: &AffineForm) -> (u64, Vec<u64>, u64) {
    (
        f.center().to_bits(),
        f.coeffs().iter().map(|c| c.to_bits()).collect(),
        f.err().to_bits(),
    )
}

/// Every cached image equals both a fresh image of its interval (no
/// stale entry after splits) and the oracle's per-box conversions.
fn check_images(region: &FaultRegion) -> Result<(), String> {
    for layer in &region.layers {
        let pairs = layer
            .weights
            .iter()
            .zip(&layer.weight_images)
            .chain(layer.biases.iter().zip(&layer.bias_images));
        for (iv, img) in pairs {
            let fresh = ParamImage::of(iv);
            let (c, r) = if iv.is_point() {
                enclose_rational(iv.lo())
            } else {
                center_radius(iv)
            };
            let got = (
                iv_bits(&img.float),
                img.center.to_bits(),
                img.radius.to_bits(),
            );
            let want = (iv_bits(&float_iv(iv)), c.to_bits(), r.to_bits());
            if got != want || format!("{img:?}") != format!("{fresh:?}") {
                return Err(format!("image of {iv:?}: {img:?} vs fresh {fresh:?}"));
            }
        }
    }
    Ok(())
}

fn check_region(region: &FaultRegion, x: &[Rational], noise: &NoiseRegion) -> Result<(), String> {
    check_images(region)?;
    let xf = enclose_input_float(x, noise);
    let float: Vec<_> = region.float_outputs(&xf).iter().map(iv_bits).collect();
    let oracle: Vec<_> = oracle_float_outputs(region, &xf)
        .iter()
        .map(iv_bits)
        .collect();
    if float != oracle {
        return Err(format!("float outputs {float:?} vs {oracle:?}"));
    }
    let zono: Vec<_> = region
        .zonotope_outputs(x, noise)
        .iter()
        .map(form_bits)
        .collect();
    let oracle: Vec<_> = oracle_zonotope_outputs(region, x, noise)
        .iter()
        .map(form_bits)
        .collect();
    if zono != oracle {
        return Err(format!("zonotope outputs {zono:?} vs {oracle:?}"));
    }
    if region.normalized_width() != oracle_normalized_width(region) {
        return Err("normalized width".to_string());
    }
    if region.split() != oracle_split(region) {
        return Err("split choice".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Networks, models, split walks
// ---------------------------------------------------------------------------

/// Random `2 → 3 → 2` ReLU network with weights `k/d` over small
/// denominators, most of them not powers of two (non-dyadic endpoints
/// take the slack path of `enclose_rational`).
fn small_rational_net(seed: u64) -> Network<Rational> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut param = || {
        let d = [1, 2, 3, 5, 7, 8, 10, 12][rng.gen_range(0..8usize)];
        Rational::new(i128::from(rng.gen_range(-24i64..=24)), d)
    };
    let mut layer = |rows: usize, cols: usize, activation| {
        let weights = (0..rows)
            .map(|_| (0..cols).map(|_| param()).collect())
            .collect();
        let biases = (0..rows).map(|_| param()).collect();
        DenseLayer::new(Matrix::from_rows(weights).unwrap(), biases, activation).unwrap()
    };
    let hidden = layer(3, 2, Activation::ReLU);
    let output = layer(2, 3, Activation::Identity);
    Network::new(vec![hidden, output], Readout::MaxPool).unwrap()
}

fn model(pick: usize, eps_numer: i64) -> FaultModel {
    match pick {
        0 | 1 => FaultModel::WeightNoise {
            rel_eps: Rational::new(i128::from(eps_numer), 100),
        },
        2 => FaultModel::Quantization { denom_bits: 3 },
        3 => FaultModel::BitFlips { budget: 2 },
        _ => FaultModel::StuckAt {
            layer: 0,
            neuron: 1,
            value: Rational::new(5, 2),
        },
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(60))]

    /// Fault-only walks: a random descent through 24 fault splits, every
    /// region on the way checked against the oracle.
    #[test]
    fn cached_images_equal_per_box_conversion_under_fault_splits(
        seed in 0u64..100_000,
        rational in 0u8..=1,
        pick in 0usize..5,
        eps_numer in 0i64..=40,
        x0 in -20i64..=20,
        x1 in -20i64..=20,
    ) {
        let net = if rational == 1 { small_rational_net(seed) } else { small_integer_net(seed) };
        let x = [Rational::from_integer(i128::from(x0)), Rational::from_integer(i128::from(x1))];
        let noise = NoiseRegion::symmetric(0, 2);
        let mut region = FaultRegion::lift(&net, &model(pick, eps_numer)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for step in 0..24 {
            prop_assert_eq!(check_region(&region, &x, &noise), Ok(()), "seed {} step {}", seed, step);
            let Some((a, b)) = region.split() else { break };
            region = if rng.gen_range(0..2u8) == 0 { a } else { b };
        }
    }

    /// Product walks: random descents through joint splits, which pick
    /// the factor by comparing normalized widths.
    #[test]
    fn cached_images_equal_per_box_conversion_under_product_splits(
        seed in 0u64..100_000,
        rational in 0u8..=1,
        eps_numer in 0i64..=40,
        delta in 0i64..=6,
        x0 in -20i64..=20,
        x1 in -20i64..=20,
    ) {
        let net = if rational == 1 { small_rational_net(seed) } else { small_integer_net(seed) };
        let x = [Rational::from_integer(i128::from(x0)), Rational::from_integer(i128::from(x1))];
        let fault = FaultRegion::lift(&net, &model(0, eps_numer)).unwrap();
        let mut region = ProductRegion::new(NoiseRegion::symmetric(delta, 2), fault);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e0d);
        for step in 0..24 {
            prop_assert_eq!(
                check_region(&region.fault, &x, &region.noise), Ok(()), "seed {} step {}", seed, step
            );
            let split = region.split();
            prop_assert_eq!(&split, &oracle_product_split(&region), "seed {} step {}", seed, step);
            let Some((a, b)) = split else { break };
            region = if rng.gen_range(0..2u8) == 0 { a } else { b };
        }
    }
}

// ---------------------------------------------------------------------------
// Constructed ties
// ---------------------------------------------------------------------------

/// A one-layer `2 → 2` identity-activation network with the given
/// weights (row-major) and zero biases.
fn one_layer(weights: [Rational; 4]) -> Network<Rational> {
    let [a, b, c, d] = weights;
    let layer = DenseLayer::new(
        Matrix::from_rows(vec![vec![a, b], vec![c, d]]).unwrap(),
        vec![Rational::ZERO, Rational::ZERO],
        Activation::Identity,
    )
    .unwrap();
    Network::new(vec![layer], Readout::MaxPool).unwrap()
}

/// The index of the single weight of layer 0 the split bisected.
fn split_weight(region: &FaultRegion) -> usize {
    let (a, b) = region.split().expect("splits");
    assert_eq!(Some((a.clone(), b.clone())), oracle_split(region));
    let changed: Vec<usize> = (0..4)
        .filter(|&i| a.layers[0].weights[i] != region.layers[0].weights[i])
        .collect();
    assert_eq!(changed.len(), 1, "exactly one weight bisected");
    assert_eq!(
        a.layers[0].weights[changed[0]].hi(),
        b.layers[0].weights[changed[0]].lo()
    );
    changed[0]
}

#[test]
fn near_ties_below_f64_resolution_pick_the_exactly_wider_parameter() {
    let one = Rational::ONE;
    // 1 + 2⁻⁶⁰: its relative width differs from 1's by 2⁻⁶⁰, far below
    // the f64 resolution of both estimates (which are equal).
    let nudged = one + Rational::new(1, 1 << 60);
    let eps = FaultModel::WeightNoise {
        rel_eps: Rational::new(1, 10),
    };
    let later = FaultRegion::lift(&one_layer([one, nudged, one, one]), &eps).unwrap();
    let est = |r: &FaultRegion, i: usize| r.layers[0].weight_images[i].width;
    assert_eq!(est(&later, 0), est(&later, 1), "estimates must tie");
    assert_eq!(
        split_weight(&later),
        1,
        "the exactly wider later weight wins"
    );
    let earlier = FaultRegion::lift(&one_layer([one, one, nudged, one]), &eps).unwrap();
    assert_eq!(split_weight(&earlier), 2);

    // The same for normalized widths: below magnitude 1 they scale with
    // the weight, so 1/2 and 1/2 + 2⁻⁶¹ tie in f64 but not exactly.
    let half = Rational::new(1, 2);
    let region = FaultRegion::lift(
        &one_layer([half, half + Rational::new(1, 1 << 61), half, half]),
        &eps,
    )
    .unwrap();
    assert_eq!(
        region.layers[0].weight_images[0].normalized_width,
        region.layers[0].weight_images[1].normalized_width
    );
    let nw = region.normalized_width();
    assert_eq!(nw, oracle_normalized_width(&region));
    assert!(
        nw > Rational::new(1, 10),
        "the nudged weight sets the maximum"
    );
}

#[test]
fn exact_ties_pick_the_earlier_parameter() {
    let one = Rational::ONE;
    let eps = FaultModel::WeightNoise {
        rel_eps: Rational::new(1, 10),
    };
    // Equal magnitudes of either sign have identical widths.
    for weights in [[one, one, one, one], [Rational::ZERO, -one, one, -one]] {
        let region = FaultRegion::lift(&one_layer(weights), &eps).unwrap();
        let first = weights.iter().position(|w| !w.is_zero()).unwrap();
        assert_eq!(split_weight(&region), first, "{weights:?}");
    }
    // Quantization widens every parameter, biases included, by the same
    // amount: the very first weight wins, then its sibling once the
    // first is halved.
    let region = FaultRegion::lift(
        &one_layer([one, one, one, one]),
        &FaultModel::Quantization { denom_bits: 4 },
    )
    .unwrap();
    assert_eq!(split_weight(&region), 0);
    let (a, _) = region.split().unwrap();
    assert_eq!(split_weight(&a), 1);
}
