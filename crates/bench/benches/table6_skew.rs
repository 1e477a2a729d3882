//! Experiments E4 and E6 — Tables 6-1, 6-2, 6-4: the skew analysis on
//! the paper's worked examples, and the scaling contrast between exact
//! enumeration (linear in loop counts) and the closed-form bound
//! (constant in loop counts).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use w2_lang::ast::{Chan, Dir};
use warp_skew::{analyze, extract, min_skew_bound, paper, SkewOptions, Timeline};

fn print_tables() {
    // Table 6-1.
    let code = paper::fig_6_2_code();
    let tl = Timeline::build(&code);
    eprintln!("\n=== Table 6-1: straight-line program (Figure 6-2) ===");
    eprintln!("n | tau_O | tau_I | tau_O - tau_I");
    let outs = &tl.sends[&(Dir::Right, Chan::X)];
    let ins = &tl.recvs[&(Dir::Left, Chan::X)];
    for (n, (o, i)) in outs.iter().zip(ins).enumerate() {
        eprintln!("{n} | {o:>5} | {i:>5} | {:>3}", *o as i64 - *i as i64);
    }
    eprintln!("min skew = {} (paper: 3)", tl.min_skew(Dir::Right));

    // Table 6-2.
    let code = paper::fig_6_4_code();
    let tl = Timeline::build(&code);
    eprintln!("\n=== Table 6-2: loop program (Figure 6-4) ===");
    eprintln!("n | tau_O | tau_I | tau_O - tau_I");
    let outs = &tl.sends[&(Dir::Right, Chan::X)];
    let ins = &tl.recvs[&(Dir::Left, Chan::X)];
    for (n, (o, i)) in outs.iter().zip(ins).enumerate() {
        eprintln!("{n} | {o:>5} | {i:>5} | {:>3}", *o as i64 - *i as i64);
    }
    eprintln!("min skew = {} (paper: 18)", tl.min_skew(Dir::Right));

    // Table 6-4: closed forms.
    eprintln!("\n=== Table 6-4: timing functions (Figure 6-4) ===");
    let stmts = extract(&code);
    for (idx, s) in stmts.iter().enumerate() {
        let kind = if s.is_recv { "I" } else { "O" };
        let (lo, hi) = s.tf.ordinal_range();
        eprintln!(
            "{kind}({idx}): tau(n) = {}   domain {lo} <= n <= {hi}",
            s.tf.closed_form()
        );
    }
    eprintln!();
}

/// A Figure 6-4-shaped program whose input loop runs `scale`×5 times
/// (send counts padded to match), to show how the two methods scale.
fn scaled_program(scale: u64) -> warp_cell::CellCode {
    use warp_cell::CodeRegion;
    use warp_ir::LoopId;
    let input_loop = CodeRegion::Loop {
        id: LoopId(0),
        count: 5 * scale,
        body: vec![paper::block(
            3,
            vec![(0, Dir::Left, Chan::X, true), (1, Dir::Left, Chan::X, true)],
        )],
    };
    let out_loop = CodeRegion::Loop {
        id: LoopId(1),
        count: 5 * scale,
        body: vec![paper::block(
            2,
            vec![
                (0, Dir::Right, Chan::X, false),
                (1, Dir::Right, Chan::X, false),
            ],
        )],
    };
    warp_cell::CellCode {
        name: "scaled".into(),
        regions: vec![paper::block(1, vec![]), input_loop, out_loop],
        regs_used: 0,
        scratch_words: 0,
        pipelined: vec![],
    }
}

fn bench_skew(c: &mut Criterion) {
    print_tables();

    let mut group = c.benchmark_group("table6_skew");
    group.bench_function("fig6_4_exact", |b| {
        let code = paper::fig_6_4_code();
        b.iter(|| analyze(black_box(&code), &SkewOptions::default()).expect("ok"))
    });
    group.bench_function("fig6_4_analytic", |b| {
        let code = paper::fig_6_4_code();
        b.iter(|| {
            analyze(
                black_box(&code),
                &SkewOptions {
                    method: warp_skew::SkewMethod::Analytic,
                    ..SkewOptions::default()
                },
            )
            .expect("ok")
        })
    });

    // Scaling: exact enumeration grows linearly with loop counts; the
    // analytic bound does not.
    for scale in [1u64, 100, 10_000] {
        let code = scaled_program(scale);
        group.bench_function(format!("exact_scale_{scale}"), |b| {
            b.iter(|| Timeline::build(black_box(&code)).min_skew(Dir::Right))
        });
        group.bench_function(format!("analytic_scale_{scale}"), |b| {
            b.iter(|| {
                let stmts = extract(black_box(&code));
                min_skew_bound(&stmts, Dir::Right)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_skew
}
criterion_main!(benches);
