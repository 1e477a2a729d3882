//! Property-based tests over the core analyses and the whole pipeline.
//!
//! Strategy summary (DESIGN.md §7):
//!
//! * random loop-structured I/O programs → the closed-form timing
//!   functions agree with exact enumeration, and the analytic skew
//!   bound covers the exact skew;
//! * queue occupancy is monotone in the skew;
//! * random parameters through the corpus generators → compiled +
//!   simulated results equal the references bit-for-bit;
//! * random affine nests → IU emissions equal direct evaluation;
//! * `Rat` obeys field laws and order compatibility.

use proptest::prelude::*;
use warp::compiler::{compile, corpus, reference, CompileOptions};
use warp::skew::{extract, min_skew_bound, paper, Timeline};
use warp_common::Rat;

// ---------- random I/O region programs ----------

#[derive(Clone, Debug)]
enum ProgShape {
    /// A straight-line block: `len`, events at strictly increasing
    /// cycles, each `true` = input (recv L,X), `false` = output
    /// (send R,X).
    Block(Vec<bool>),
    /// A loop around blocks.
    Loop(u8, Vec<ProgShape>),
}

fn shape_strategy(depth: u32) -> impl Strategy<Value = ProgShape> {
    let leaf = prop::collection::vec(any::<bool>(), 0..4).prop_map(ProgShape::Block);
    leaf.prop_recursive(depth, 16, 4, |inner| {
        (1u8..4, prop::collection::vec(inner, 1..3)).prop_map(|(c, body)| ProgShape::Loop(c, body))
    })
}

fn build_regions(shapes: &[ProgShape], next_loop: &mut u32) -> Vec<warp::cell::CodeRegion> {
    use w2_lang::ast::{Chan, Dir};
    let mut out = Vec::new();
    for s in shapes {
        match s {
            ProgShape::Block(events) => {
                let evs: Vec<(u32, Dir, Chan, bool)> = events
                    .iter()
                    .enumerate()
                    .map(|(i, &is_recv)| {
                        if is_recv {
                            (i as u32, Dir::Left, Chan::X, true)
                        } else {
                            (i as u32, Dir::Right, Chan::X, false)
                        }
                    })
                    .collect();
                out.push(paper::block(events.len().max(1), evs));
            }
            ProgShape::Loop(count, body) => {
                let id = warp_ir::LoopId(*next_loop);
                *next_loop += 1;
                let inner = build_regions(body, next_loop);
                out.push(warp::cell::CodeRegion::Loop {
                    id,
                    count: u64::from(*count),
                    body: inner,
                });
            }
        }
    }
    out
}

fn build_code(shapes: &[ProgShape]) -> warp::cell::CellCode {
    let mut next_loop = 0;
    warp::cell::CellCode {
        name: "prop".into(),
        regions: build_regions(shapes, &mut next_loop),
        regs_used: 0,
        scratch_words: 0,
        pipelined: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The closed-form τ functions evaluate to exactly the enumerated
    /// operation times, over their exact domains.
    #[test]
    fn timing_functions_match_enumeration(shapes in prop::collection::vec(shape_strategy(3), 1..4)) {
        use w2_lang::ast::{Chan, Dir};
        let code = build_code(&shapes);
        let tl = Timeline::build(&code);
        let stmts = extract(&code);
        for (key, times) in tl.recvs.iter().chain(tl.sends.iter()) {
            let is_recv = tl.recvs.contains_key(key) && tl.recvs.get(key).map(|v| std::ptr::eq(v, times)).unwrap_or(false);
            let (dir, chan) = *key;
            prop_assert_eq!(chan, Chan::X);
            for (n, &t) in times.iter().enumerate() {
                let matches: Vec<i64> = stmts
                    .iter()
                    .filter(|s| s.dir == dir && s.chan == chan && s.is_recv == is_recv)
                    .filter_map(|s| s.tf.eval(n as i64))
                    .collect();
                prop_assert_eq!(matches.len(), 1, "ordinal {} must match exactly one statement", n);
                prop_assert_eq!(matches[0], t as i64);
            }
            // Past-the-end ordinals are in no domain.
            let past = times.len() as i64;
            for s in stmts.iter().filter(|s| s.dir == dir && s.chan == chan && s.is_recv == is_recv) {
                prop_assert_eq!(s.tf.eval(past), None);
            }
        }
        let _ = (Dir::Left, Dir::Right);
    }

    /// The analytic skew bound is sound: it never under-approximates
    /// the exact minimum skew.
    #[test]
    fn analytic_skew_bound_sound(shapes in prop::collection::vec(shape_strategy(3), 1..4)) {
        use w2_lang::ast::Dir;
        let code = build_code(&shapes);
        let tl = Timeline::build(&code);
        let outs = tl.sends.get(&(Dir::Right, w2_lang::ast::Chan::X));
        let ins = tl.recvs.get(&(Dir::Left, w2_lang::ast::Chan::X));
        if let (Some(outs), Some(ins)) = (outs, ins) {
            if !outs.is_empty() && !ins.is_empty() {
                let n = outs.len().min(ins.len());
                let exact = outs[..n]
                    .iter()
                    .zip(&ins[..n])
                    .map(|(&o, &i)| o as i64 - i as i64)
                    .max()
                    .unwrap()
                    .max(0);
                let stmts = extract(&code);
                let bound = min_skew_bound(&stmts, Dir::Right);
                prop_assert!(bound >= exact, "bound {} < exact {}", bound, exact);
            }
        }
    }

    /// Queue occupancy never decreases as the skew grows.
    #[test]
    fn occupancy_monotone_in_skew(
        shapes in prop::collection::vec(shape_strategy(2), 1..4),
        skew_a in 0i64..40,
        delta in 0i64..40,
    ) {
        use w2_lang::ast::{Chan, Dir};
        let code = build_code(&shapes);
        let tl = Timeline::build(&code);
        let outs = tl.sends.get(&(Dir::Right, Chan::X));
        let ins = tl.recvs.get(&(Dir::Left, Chan::X));
        if let (Some(outs), Some(ins)) = (outs, ins) {
            let n = outs.len().min(ins.len());
            let a = Timeline::queue_occupancy(&outs[..n], &ins[..n], skew_a);
            let b = Timeline::queue_occupancy(&outs[..n], &ins[..n], skew_a + delta);
            prop_assert!(b >= a, "occupancy {} at skew {} fell to {} at {}", a, skew_a, b, skew_a + delta);
        }
    }
}

// ---------- end-to-end: corpus generators vs references ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn polynomial_pipeline_correct(
        n_cells in 2u32..6,
        points in 1u32..24,
        coeffs in prop::collection::vec(-2.0f32..2.0, 8),
        zs in prop::collection::vec(-1.5f32..1.5, 24),
    ) {
        let src = corpus::polynomial_source(n_cells, points);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let c = &coeffs[..n_cells as usize];
        let z = &zs[..points as usize];
        let r = m.run(&[("c", c), ("z", z)]).expect("runs");
        prop_assert_eq!(r.host.get("results"), &reference::polynomial(c, z)[..]);
    }

    #[test]
    fn conv_pipeline_correct(
        taps in 2u32..6,
        n in 8u32..32,
        ws in prop::collection::vec(-1.0f32..1.0, 6),
        xs in prop::collection::vec(-4.0f32..4.0, 32),
    ) {
        prop_assume!(n > taps);
        let src = corpus::conv1d_source(taps, n);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let w = &ws[..taps as usize];
        let x = &xs[..n as usize];
        let r = m.run(&[("w", w), ("x", x)]).expect("runs");
        prop_assert_eq!(r.host.get("y"), &reference::conv1d(w, x)[..]);
    }

    #[test]
    fn matmul_correct(
        cells in 1u32..4,
        m_rows in 1u32..4,
        p in 1u32..4,
        w in 1u32..3,
        data in prop::collection::vec(-3.0f32..3.0, 64),
    ) {
        let q = cells * w;
        let src = corpus::matmul_source(cells, m_rows, p, w);
        let module = compile(&src, &CompileOptions::default()).expect("compiles");
        let a: Vec<f32> = data[..(m_rows * p) as usize].to_vec();
        let b: Vec<f32> = data[32..32 + (p * q) as usize].to_vec();
        let r = module.run(&[("a", &a), ("b", &b)]).expect("runs");
        prop_assert_eq!(
            r.host.get("c"),
            &reference::matmul(&a, &b, m_rows as usize, p as usize, q as usize)[..]
        );
    }

    #[test]
    fn mandelbrot_correct(
        size in 2u32..6,
        iters in 1u32..5,
        seeds in prop::collection::vec(-2.0f32..2.0, 72),
    ) {
        let src = corpus::mandelbrot_source(size, iters);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let n = (size * size) as usize;
        let cre = &seeds[..n];
        let cim = &seeds[36..36 + n];
        let r = m.run(&[("cre", cre), ("cim", cim)]).expect("runs");
        prop_assert_eq!(r.host.get("count"), &reference::mandelbrot(cre, cim, iters)[..]);
    }
}

// ---------- Rat laws ----------

fn rat_strategy() -> impl Strategy<Value = Rat> {
    (-1000i128..1000, 1i128..60).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rat_field_laws(a in rat_strategy(), b in rat_strategy(), c in rat_strategy()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Rat::ZERO, a);
        prop_assert_eq!(a * Rat::ONE, a);
        prop_assert_eq!(a - a, Rat::ZERO);
        if b != Rat::ZERO {
            prop_assert_eq!((a / b) * b, a);
        }
    }

    #[test]
    fn rat_order_compatible(a in rat_strategy(), b in rat_strategy(), c in rat_strategy()) {
        if a < b {
            prop_assert!(a + c < b + c);
            if c.signum() > 0 {
                prop_assert!(a * c < b * c);
            }
        }
        let f = a.floor();
        let ce = a.ceil();
        prop_assert!(Rat::from(f) <= a);
        prop_assert!(a <= Rat::from(ce));
        prop_assert!(ce - f <= 1);
    }
}

// ---------- IU address streams on random nests ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random 1- or 2-deep loop nest with random strides: the IU's
    /// strength-reduced address stream equals direct evaluation (checked
    /// end to end: the program buffers through cell memory and must
    /// still reproduce its input).
    #[test]
    fn iu_streams_permutation_roundtrip(
        rows in 1u32..5,
        cols in 1u32..5,
        flip_row in any::<bool>(),
    ) {
        // Write elements in (i, j) order, read back in a possibly
        // flipped row order: exercises negative strides.
        let n = rows * cols;
        let read_idx = if flip_row {
            format!("t[{rmax} - i, j]", rmax = rows - 1)
        } else {
            "t[i, j]".to_owned()
        };
        let src = format!(
            "module perm (xs in, ys out) float xs[{n}]; float ys[{n}]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; \
             float t[{rows}, {cols}]; int i, j; \
             for i := 0 to {rlast} do for j := 0 to {clast} do begin \
               receive (L, X, v, xs[i * {cols} + j]); t[i, j] := v; end; \
             for i := 0 to {rlast} do for j := 0 to {clast} do begin \
               v := {read_idx}; send (R, X, v, ys[i * {cols} + j]); end; \
             end call f; end",
            rlast = rows - 1,
            clast = cols - 1,
        );
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let r = m.run(&[("xs", &xs)]).expect("runs");
        let expect: Vec<f32> = (0..rows)
            .flat_map(|i| {
                let src_row = if flip_row { rows - 1 - i } else { i };
                (0..cols).map(move |j| (src_row * cols + j) as f32)
            })
            .collect();
        prop_assert_eq!(r.host.get("ys"), &expect[..]);
    }
}

// ---------- scheduler and height reduction on random DAGs ----------

/// A recipe for a random arithmetic DAG: each op picks two earlier
/// values (by index modulo the current frontier) and an opcode.
#[derive(Clone, Debug)]
struct DagRecipe {
    n_loads: usize,
    ops: Vec<(u8, usize, usize)>,
}

fn dag_strategy() -> impl Strategy<Value = DagRecipe> {
    (
        2usize..6,
        prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..24),
    )
        .prop_map(|(n_loads, ops)| DagRecipe { n_loads, ops })
}

fn build_dag(recipe: &DagRecipe) -> (warp_ir::Block, Vec<warp_ir::NodeId>) {
    use w2_lang::hir::VarId;
    use warp_ir::{Affine, Node, NodeKind};
    let mut b = warp_ir::Block::new();
    let mut values: Vec<warp_ir::NodeId> = (0..recipe.n_loads)
        .map(|i| {
            b.nodes.push(Node {
                kind: NodeKind::Load {
                    var: VarId(0),
                    addr: Affine::constant(i as i64),
                },
                inputs: vec![],
                deps: vec![],
            })
        })
        .collect();
    let loads = values.clone();
    for &(op, x, y) in &recipe.ops {
        let a = values[x % values.len()];
        let c = values[y % values.len()];
        let kind = match op {
            0 => NodeKind::FAdd,
            1 => NodeKind::FMul,
            _ => NodeKind::FSub,
        };
        let n = b.nodes.push(Node {
            kind,
            inputs: vec![a, c],
            deps: vec![],
        });
        values.push(n);
    }
    // Store the last value so everything upstream of it is live.
    let last = *values.last().expect("nonempty");
    let store = b.nodes.push(warp_ir::Node {
        kind: NodeKind::Store {
            var: VarId(0),
            addr: Affine::constant(100),
        },
        inputs: vec![last],
        deps: vec![],
    });
    b.roots.push(store);
    (b, loads)
}

/// Evaluates the DAG with integer-valued leaves (exact in f32, so
/// reassociation by height reduction cannot change the result).
fn eval_dag(b: &warp_ir::Block, loads: &[warp_ir::NodeId], inputs: &[f64]) -> f64 {
    use warp_ir::NodeKind;
    fn go(
        b: &warp_ir::Block,
        n: warp_ir::NodeId,
        loads: &[warp_ir::NodeId],
        inputs: &[f64],
        memo: &mut std::collections::HashMap<warp_ir::NodeId, f64>,
    ) -> f64 {
        if let Some(&v) = memo.get(&n) {
            return v;
        }
        let node = &b.nodes[n];
        let v = match &node.kind {
            NodeKind::Load { .. } => {
                let idx = loads.iter().position(|&l| l == n).expect("is a load");
                inputs[idx]
            }
            NodeKind::FAdd => {
                go(b, node.inputs[0], loads, inputs, memo)
                    + go(b, node.inputs[1], loads, inputs, memo)
            }
            NodeKind::FSub => {
                go(b, node.inputs[0], loads, inputs, memo)
                    - go(b, node.inputs[1], loads, inputs, memo)
            }
            NodeKind::FMul => {
                go(b, node.inputs[0], loads, inputs, memo)
                    * go(b, node.inputs[1], loads, inputs, memo)
            }
            NodeKind::Store { .. } => go(b, node.inputs[0], loads, inputs, memo),
            other => unreachable!("{other:?}"),
        };
        memo.insert(n, v);
        v
    }
    go(
        b,
        b.roots[0],
        loads,
        inputs,
        &mut std::collections::HashMap::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every random DAG gets a legal schedule (latencies, deps, and
    /// resource limits all validated).
    #[test]
    fn scheduler_always_legal(recipe in dag_strategy()) {
        let (b, _) = build_dag(&recipe);
        let m = warp::cell::CellMachine::default();
        let s = warp::cell::schedule(&b, &m);
        prop_assert!(warp::cell::validate(&b, &m, &s).is_ok());
    }

    /// Height reduction preserves semantics (integer-valued inputs keep
    /// f64 evaluation exact under reassociation) and never lengthens
    /// the critical path.
    #[test]
    fn height_reduction_semantics(
        recipe in dag_strategy(),
        raw_inputs in prop::collection::vec(-4i8..4, 8),
    ) {
        let (mut b, loads) = build_dag(&recipe);
        let inputs: Vec<f64> = raw_inputs.iter().map(|&v| f64::from(v)).collect();
        let before = eval_dag(&b, &loads, inputs[..loads.len().min(inputs.len())].to_vec().as_slice());
        let m = warp::cell::CellMachine::default();
        let latency = |k: &warp_ir::NodeKind| m.latency_of(k);
        let cp_before = warp_ir::rewrite::critical_path(&b, latency);
        warp_ir::rewrite::height_reduce(&mut b, &m.latency_model());
        let after = eval_dag(&b, &loads, inputs[..loads.len().min(inputs.len())].to_vec().as_slice());
        // Multiplying up to 24 values in [-4,4] can overflow f64
        // precision only beyond 2^53; 4^24 < 2^48, safe.
        prop_assert_eq!(before, after);
        let cp_after = warp_ir::rewrite::critical_path(&b, latency);
        prop_assert!(cp_after <= cp_before);
        // The rewritten DAG still schedules legally.
        let s = warp::cell::schedule(&b, &m);
        prop_assert!(warp::cell::validate(&b, &m, &s).is_ok());
    }

    /// Register allocation under any file size either succeeds within
    /// budget or honestly reports a spillable victim.
    #[test]
    fn allocation_respects_budget(recipe in dag_strategy(), regs in 2u32..64) {
        let (b, _) = build_dag(&recipe);
        let m = warp::cell::CellMachine::default();
        let s = warp::cell::schedule(&b, &m);
        match warp::cell::allocate(&b, &m, &s, regs) {
            Ok(a) => prop_assert!(a.regs_used <= regs),
            Err(spill) => prop_assert!(spill.victim.is_some() || regs < 4),
        }
    }
}
