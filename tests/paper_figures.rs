//! Reproductions of the paper's figures and tables as assertions
//! (experiments E1–E7 of DESIGN.md). Each test states which artifact it
//! regenerates.

use warp::cell::CodeRegion;
use warp::skew::{
    analyze, bound_pair, extract, paper, ModelComparison, SkewMethod, SkewOptions, Timeline,
};
use warp::w2::parse_and_check;
use warp_common::Rat;
use warp_ir::comm;

/// Figure 3-1: comparing latencies between the SIMD and skewed
/// computation models. A 4-step stage whose fourth step needs the
/// previous stage's fourth-step result has a per-cell latency of 4 in
/// the SIMD model but only 1 in the skewed model.
#[test]
fn fig3_1_simd_vs_skewed_latency() {
    // Receive consumed at step 4 (index 3); result for the next cell
    // produced at step 4 — but the consumer needs it one step after the
    // producer in the paper's picture, i.e. the dependency allows a skew
    // of one step: recv at step 2 (index 2), send at step 3 (index 3).
    let stage = paper::fig_3_1_stage(4, 2, 3);
    let cmp = ModelComparison::of(&stage, w2_lang::ast::Dir::Right);
    assert_eq!(cmp.simd_latency, 4, "SIMD latency = whole stage");
    assert_eq!(cmp.skewed_latency, 1, "skewed latency = minimum skew");
    // Through a 3-cell array (the figure's width):
    assert_eq!(cmp.simd_array_latency(3), 12);
    assert_eq!(cmp.skewed_array_latency(3), 3);
}

/// Figure 3-1, parameterized: the SIMD/skewed latency gap grows with the
/// stage length while the skew stays fixed by the dependency distance.
#[test]
fn fig3_1_gap_grows_with_stage_length() {
    for steps in [4u32, 8, 16, 32] {
        let stage = paper::fig_3_1_stage(steps as usize, steps - 2, steps - 1);
        let cmp = ModelComparison::of(&stage, w2_lang::ast::Dir::Right);
        assert_eq!(cmp.simd_latency, u64::from(steps));
        assert_eq!(cmp.skewed_latency, 1);
    }
}

/// Figure 4-2: the polynomial program's send/receive matching. The
/// first cell consumes c[0] and forwards c[1..9] plus a balancing 0.0;
/// word counts on each channel are conserved (10 on X for coefficients
/// + 100 for data, 100 on Y).
#[test]
fn fig4_2_polynomial_channel_accounting() {
    let m = warp::compiler::compile(
        warp::compiler::corpus::POLYNOMIAL,
        &warp::compiler::CompileOptions::default(),
    )
    .expect("compiles");
    assert_eq!(m.skew.words_per_channel[&w2_lang::ast::Chan::X], 110);
    assert_eq!(m.skew.words_per_channel[&w2_lang::ast::Chan::Y], 100);
    // The host supplies exactly the sequence of Figure 4-2: 10
    // coefficients then 100 data points on X, 100 zero seeds on Y.
    assert_eq!(m.host.inputs[&w2_lang::ast::Chan::X].word_count(), 110);
    assert_eq!(m.host.inputs[&w2_lang::ast::Chan::Y].word_count(), 100);
}

/// Figure 5-1: programs with and without communication cycles.
#[test]
fn fig5_1_cycle_classification() {
    let wrap = |body: &str| {
        let src = format!(
            "module m (zs in, rs out) float zs[8]; float rs[8]; \
             cellprogram (cid : 0 : 3) begin function f begin float a, b; \
             {body} end call f; end"
        );
        comm::analyze(&parse_and_check(&src).expect("valid"))
    };
    // Program A: values sent are unrelated to values received.
    let a = wrap(
        "receive (L, X, a, zs[0]); send (R, X, 1.0); \
         receive (R, Y, b); send (L, Y, 2.0);",
    );
    assert!(!a.right_cycle && !a.left_cycle);
    assert!(a.is_mappable());

    // Program B: each cell forwards what it received — a right cycle.
    let b = wrap("receive (L, X, a, zs[0]); send (R, X, a);");
    assert!(b.right_cycle && !b.left_cycle);
    assert!(b.is_mappable());

    // Both kinds of cycle: not mappable onto the skewed model.
    let both = wrap(
        "receive (L, X, a, zs[0]); send (R, X, a); \
         receive (R, Y, b); send (L, Y, b, rs[0]);",
    );
    assert!(both.right_cycle && both.left_cycle);
    assert!(!both.is_mappable());
}

/// Figure 6-2 and Table 6-1: the straight-line example's I/O timing and
/// minimum skew of 3.
#[test]
fn table6_1_straight_line_skew() {
    let code = paper::fig_6_2_code();
    let tl = Timeline::build(&code);
    use w2_lang::ast::{Chan, Dir};
    // Table 6-1 rows: τ_O = (0, 5), τ_I = (1, 2), diffs (−1, 3).
    assert_eq!(tl.sends[&(Dir::Right, Chan::X)], vec![0, 5]);
    assert_eq!(tl.recvs[&(Dir::Left, Chan::X)], vec![1, 2]);
    assert_eq!(tl.min_skew(Dir::Right), 3);
    // The analytic method agrees exactly on this program.
    let stmts = extract(&code);
    assert_eq!(warp::skew::min_skew_bound(&stmts, Dir::Right), Ok(3));
}

/// Figure 6-3: two cells executing with minimum skew — the second
/// cell's inputs never precede the matching outputs, and input_1 shares
/// cycle 5 with output_1.
#[test]
fn fig6_3_two_cells_at_minimum_skew() {
    use w2_lang::ast::{Chan, Dir};
    let code = paper::fig_6_2_code();
    let tl = Timeline::build(&code);
    let outs = &tl.sends[&(Dir::Right, Chan::X)];
    let ins = &tl.recvs[&(Dir::Left, Chan::X)];
    let skew = 3i64;
    for (n, (&o, &i)) in outs.iter().zip(ins).enumerate() {
        let cell2_input = i as i64 + skew;
        assert!(
            cell2_input >= o as i64,
            "input {n} at {cell2_input} precedes output at {o}"
        );
    }
    // The figure's cycle-5 coincidence.
    assert_eq!(outs[1], 5);
    assert_eq!(ins[1] as i64 + skew, 5);
    // And the whole execution occupies cycles 0..=8 (cell 2 ends at 8).
    assert_eq!(skew as u64 + tl.span - 1, 8);
}

/// Tables 6-2, 6-3, 6-4: the loop program of Figure 6-4.
#[test]
fn tables_6_2_to_6_4_loop_program() {
    use w2_lang::ast::{Chan, Dir};
    let code = paper::fig_6_4_code();

    // Table 6-2: the exact timing of all ten inputs and outputs.
    let tl = Timeline::build(&code);
    let tau_i = &tl.recvs[&(Dir::Left, Chan::X)];
    let tau_o = &tl.sends[&(Dir::Right, Chan::X)];
    assert_eq!(tau_i, &vec![1, 2, 4, 5, 7, 8, 10, 11, 13, 14]);
    assert_eq!(tau_o, &vec![18, 19, 20, 21, 24, 25, 26, 29, 30, 31]);
    let diffs: Vec<i64> = tau_o
        .iter()
        .zip(tau_i)
        .map(|(&o, &i)| o as i64 - i as i64)
        .collect();
    assert_eq!(diffs, vec![17, 17, 16, 16, 17, 17, 16, 18, 17, 17]);
    assert_eq!(tl.min_skew(Dir::Right), 18);

    // Table 6-3: the five vectors (verified in detail in warp-skew's
    // unit tests; spot-check O(2) here).
    let stmts = extract(&code);
    let outputs: Vec<_> = stmts.iter().filter(|s| !s.is_recv).collect();
    let o2 = &outputs[2].tf;
    assert_eq!(
        o2.levels
            .iter()
            .map(|l| (l.r, l.n, l.s, l.l, l.t))
            .collect::<Vec<_>>(),
        vec![(2, 3, 4, 5, 24), (1, 1, 0, 1, 0)]
    );

    // Table 6-4: closed forms and domains.
    assert_eq!(o2.base(), Ok(Rat::new(52, 3)));
    assert_eq!(o2.slope(), Ok(Rat::new(5, 3)));
    let i0 = &stmts.iter().find(|s| s.is_recv).unwrap().tf;
    assert_eq!(i0.eval(4), Some(7));
    assert_eq!(i0.eval(3), None, "n=3 belongs to I(1)");

    // The paper's bound for the completely-overlapped pair is 17; ours
    // matches exactly. For the partially-overlapped pair the paper
    // bounds 17⅔; ours is at most that and still sound.
    let o0 = &outputs[0].tf;
    assert_eq!(bound_pair(o0, i0), Ok(Some(Rat::from(17))));
    let o4 = &outputs[4].tf;
    let b = bound_pair(o4, i0).expect("no overflow").expect("overlaps");
    assert!(b <= Rat::new(53, 3));

    // End to end, both skew methods safely cover the exact minimum.
    let exact = analyze(&code, &SkewOptions::default()).unwrap();
    let analytic = analyze(
        &code,
        &SkewOptions {
            method: SkewMethod::Analytic,
            ..SkewOptions::default()
        },
    )
    .unwrap();
    assert_eq!(exact.min_skew, 18);
    assert!(analytic.min_skew >= 18);
}

/// Table 6-5: the three operand allocations for `a[i,j+1]` and
/// `b[i+j,j]` and their costs.
#[test]
fn table6_5_iu_operand_allocation() {
    let rows = warp::iu::table_6_5();
    let costs: Vec<(usize, usize, usize)> = rows
        .iter()
        .map(|(_, c)| (c.registers, c.arith_ops, c.update_ops))
        .collect();
    assert_eq!(costs, vec![(3, 6, 2), (4, 2, 2), (5, 1, 3)]);
}

/// The paper's remark that loop programs like Figure 6-4 admit varying
/// skews: inserting extra delay before inputs does not reduce the
/// minimum skew (it is limited by the worst pair), and any skew at or
/// above the minimum keeps every pair safe.
#[test]
fn skew_above_minimum_is_always_safe() {
    use w2_lang::ast::{Chan, Dir};
    let tl = Timeline::build(&paper::fig_6_4_code());
    let outs = &tl.sends[&(Dir::Right, Chan::X)];
    let ins = &tl.recvs[&(Dir::Left, Chan::X)];
    for extra in [0i64, 1, 5, 100] {
        let skew = 18 + extra;
        for (&o, &i) in outs.iter().zip(ins) {
            assert!(i as i64 + skew >= o as i64);
        }
    }
}

/// Sequencing sanity for the code regions the skew machinery consumes:
/// static and dynamic lengths of the Figure 6-4 program.
#[test]
fn fig6_4_program_shape() {
    let code = paper::fig_6_4_code();
    assert_eq!(code.dynamic_len(), 1 + 15 + 2 + 4 + 2 + 10 + 1);
    let n_loops = code
        .regions
        .iter()
        .filter(|r| matches!(r, CodeRegion::Loop { .. }))
        .count();
    assert_eq!(n_loops, 3);
}
