//! Experiment E1 / ablation A2 — Figure 3-1: latency of the SIMD
//! computation model vs. the skewed computation model.
//!
//! The paper's instance: a 4-step stage whose step 4 consumes the
//! previous stage's step-4 result — 4 cycles of per-cell latency under
//! SIMD, 1 under skewing. The series below sweeps stage lengths to show
//! the gap growing linearly while the skew stays constant.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use w2_lang::ast::Dir;
use warp_skew::{paper, ModelComparison};

fn print_series() {
    eprintln!("\n=== Figure 3-1: per-cell latency, SIMD vs skewed ===");
    eprintln!("stage steps | SIMD latency | skewed latency | 3-cell latency (SIMD/skewed)");
    for steps in [4u32, 8, 16, 32, 64] {
        let stage = paper::fig_3_1_stage(steps as usize, steps - 2, steps - 1);
        let cmp = ModelComparison::of(&stage, Dir::Right);
        eprintln!(
            "{:>11} | {:>12} | {:>14} | {} / {}",
            steps,
            cmp.simd_latency,
            cmp.skewed_latency,
            cmp.simd_array_latency(3),
            cmp.skewed_array_latency(3)
        );
    }
    eprintln!();
}

fn bench_model(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("fig3_1_model");
    for steps in [4usize, 64] {
        let stage = paper::fig_3_1_stage(steps, steps as u32 - 2, steps as u32 - 1);
        group.bench_function(format!("compare_{steps}_steps"), |b| {
            b.iter(|| ModelComparison::of(black_box(&stage), Dir::Right))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_model
}
criterion_main!(benches);
