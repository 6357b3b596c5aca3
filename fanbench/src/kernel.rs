//! Propagation kernels timed on boxes the workload itself probed: ns per
//! box for the float interval shadow, its 16-lane batched form, the
//! zonotope shadow, exact rational interval propagation and the
//! interval-weight fault propagation. Work per box is stated from tensor
//! sizes (not measured): multiply-adds, and weight bytes read at `f64`
//! interval and exact rational interval width.

use std::hint::black_box;
use std::time::Instant;

use fannet_faults::propagate::enclose_input;
use fannet_faults::{FaultModel, FaultRegion};
use fannet_nn::Network;
use fannet_numeric::{FloatInterval, Interval, Rational};
use fannet_verify::batch::{BatchFloatShadow, BatchWorkspace, BATCH_WIDTH};
use fannet_verify::propagate::{output_intervals_with, FloatShadow, PropagationWorkspace};
use fannet_verify::region::NoiseRegion;
use fannet_verify::zonotope::ZonotopeShadow;

use crate::metrics::Metrics;

/// Passes over the box set per kernel; enough for the total to dwarf the
/// clock's resolution.
const REPS: usize = 20;
/// Boxes timed per kernel at most.
const MAX_BOXES: usize = 512;

/// A noise box of one query: input, label and region.
pub struct NoiseBox<'n> {
    pub net: &'n Network<Rational>,
    pub x: Vec<Rational>,
    pub label: usize,
    pub region: NoiseRegion,
}

/// A fault-domain probe: input noise radius `delta` and weight noise
/// `eps` on one input.
pub struct FaultBox<'n> {
    pub net: &'n Network<Rational>,
    pub x: Vec<Rational>,
    pub delta: i64,
    pub eps: Rational,
}

/// ns per box of each noise-domain kernel.
pub struct NoiseKernels {
    pub float: f64,
    pub batch: f64,
    pub zonotope: f64,
    pub exact: f64,
}

fn ns_per(total: std::time::Duration, boxes: usize) -> f64 {
    if boxes == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / (boxes * REPS) as f64
    }
}

pub fn noise(boxes: &[NoiseBox<'_>]) -> NoiseKernels {
    let boxes = &boxes[..boxes.len().min(MAX_BOXES)];
    // Per-network shadows and per-box input enclosures are set-up work of
    // a query, not kernel work: build them outside the timed loops.
    let prepared: Vec<_> = boxes
        .iter()
        .map(|b| {
            let shadow = FloatShadow::new(b.net);
            let batch = BatchFloatShadow::from_shadow(&shadow);
            let zonotope = ZonotopeShadow::new(b.net);
            (
                b,
                FloatShadow::enclose_input(&b.x),
                ZonotopeShadow::enclose_input(&b.x),
                shadow,
                batch,
                zonotope,
            )
        })
        .collect();

    let start = Instant::now();
    for _ in 0..REPS {
        for (b, xf, _, shadow, _, _) in &prepared {
            black_box(shadow.output_intervals(black_box(xf), &b.region));
        }
    }
    let float = ns_per(start.elapsed(), prepared.len());

    // Lanes of one batch share an input: group consecutive boxes of the
    // same query, up to the lane width.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, b) in boxes.iter().enumerate() {
        match groups.last_mut() {
            Some(group)
                if group.len() < BATCH_WIDTH
                    && std::ptr::eq(boxes[group[0]].net, b.net)
                    && boxes[group[0]].x == b.x =>
            {
                group.push(k);
            }
            _ => groups.push(vec![k]),
        }
    }
    let mut ws = BatchWorkspace::default();
    let start = Instant::now();
    for _ in 0..REPS {
        for group in &groups {
            let (b, xf, _, _, batch, _) = &prepared[group[0]];
            let regions: Vec<&NoiseRegion> = group.iter().map(|&k| &boxes[k].region).collect();
            black_box(batch.classify_batch(black_box(xf), b.label, &regions, &mut ws));
        }
    }
    let batch = ns_per(start.elapsed(), prepared.len());

    let start = Instant::now();
    for _ in 0..REPS {
        for (b, _, xz, _, _, zonotope) in &prepared {
            black_box(zonotope.output_forms(black_box(xz), &b.region));
        }
    }
    let zonotope = ns_per(start.elapsed(), prepared.len());

    let mut ws = PropagationWorkspace::default();
    let start = Instant::now();
    for _ in 0..REPS {
        for (b, ..) in &prepared {
            let out = output_intervals_with(b.net, black_box(&b.x), &b.region, &mut ws)
                .expect("widths match the network");
            black_box(out);
        }
    }
    let exact = ns_per(start.elapsed(), prepared.len());

    NoiseKernels {
        float,
        batch,
        zonotope,
        exact,
    }
}

/// ns per box of exact interval-weight propagation over the lifted
/// weight-noise region of each probe.
pub fn fault(boxes: &[FaultBox<'_>]) -> f64 {
    let boxes = &boxes[..boxes.len().min(MAX_BOXES)];
    let prepared: Vec<(FaultRegion, Vec<Interval>)> = boxes
        .iter()
        .map(|b| {
            let model = FaultModel::WeightNoise { rel_eps: b.eps };
            let region = FaultRegion::lift(b.net, &model).expect("weight noise lifts");
            let noise = NoiseRegion::symmetric(b.delta, b.x.len());
            (region, enclose_input(&b.x, &noise))
        })
        .collect();
    let start = Instant::now();
    for _ in 0..REPS {
        for (region, x) in &prepared {
            black_box(region.output_intervals(black_box(x)));
        }
    }
    ns_per(start.elapsed(), prepared.len())
}

/// Work per box derived from the layer shapes of `net`.
pub fn set_sizes(m: &mut Metrics, net: &Network<Rational>) {
    let params: usize = net
        .layers()
        .iter()
        .map(|layer| layer.weights().rows() * layer.weights().cols() + layer.biases().len())
        .sum();
    let macs: usize = net
        .layers()
        .iter()
        .map(|layer| layer.weights().rows() * layer.weights().cols())
        .sum();
    m.set("kernel.macs_per_box", macs as f64);
    m.set(
        "kernel.f64_bytes_per_box",
        (params * std::mem::size_of::<FloatInterval>()) as f64,
    );
    m.set(
        "kernel.rational_bytes_per_box",
        (params * std::mem::size_of::<Interval>()) as f64,
    );
}
