//! Host transfer descriptors expand to exactly the per-word sequence.
//!
//! `HostProgram` keeps each channel's transfers as a loop nest. This
//! test rebuilds the per-word transfer lists the descriptor replaces —
//! one entry per dynamic boundary `send`/`receive`, with every affine
//! index evaluated in a loop environment — and requires the descriptor's
//! cursors to yield exactly that sequence, on the corpus files, the
//! image generators at 512×512, and generated programs, under both
//! cell-codegen modes.

use std::collections::BTreeMap;

use w2_lang::ast::{Chan, Dir};
use warp::cell::CodeRegion;
use warp::compiler::{corpus, CompileOptions, CompiledModule, Session, SessionCtrl};
use warp::host::HostWord;
use warp::ir::affine::LoopId;
use warp::ir::HostSlot;
use warp::oracle::gen::{generate, GenConfig};

/// Per channel, every input word then every output word, in order.
type Words = BTreeMap<(bool, Chan), Vec<HostWord>>;

/// The reference: walk every dynamic I/O event with an explicit loop
/// environment, the way the per-word host code generator did.
fn enumerate(m: &CompiledModule) -> Words {
    fn walk(
        regions: &[CodeRegion],
        m: &CompiledModule,
        env: &mut BTreeMap<LoopId, i64>,
        out: &mut Words,
    ) {
        let flow = m.skew.flow;
        for region in regions {
            match region {
                CodeRegion::Block(b) => {
                    for e in &b.io_events {
                        let is_input = e.is_recv && e.dir == flow.opposite();
                        let is_output = !e.is_recv && e.dir == flow;
                        if !is_input && !is_output {
                            continue;
                        }
                        let word = match &e.ext {
                            Some(HostSlot::Elem { var, index }) => HostWord::Elem {
                                var: *var,
                                index: u32::try_from(index.eval(env)).expect("in range"),
                            },
                            Some(HostSlot::Lit(v)) if is_input => HostWord::Lit(*v),
                            None if is_input => HostWord::Lit(0.0),
                            _ => HostWord::Discard,
                        };
                        out.entry((is_output, e.chan)).or_default().push(word);
                    }
                }
                CodeRegion::Loop { id, count, body } => {
                    let lo = m.ir.loops[*id].lo;
                    for iter in 0..*count {
                        env.insert(*id, lo + iter as i64);
                        walk(body, m, env, out);
                    }
                    env.remove(id);
                }
            }
        }
    }
    let mut out = Words::new();
    walk(&m.cell_code.regions, m, &mut BTreeMap::new(), &mut out);
    out
}

fn expand(m: &CompiledModule) -> Words {
    let mut out = Words::new();
    for (is_output, scripts) in [(false, &m.host.inputs), (true, &m.host.outputs)] {
        for (chan, script) in scripts {
            let words: Vec<HostWord> = script.cursor().collect();
            assert_eq!(words.len() as u64, script.word_count(), "{chan:?}");
            out.insert((is_output, *chan), words);
        }
    }
    out
}

fn compile(source: &str, pipeline: bool) -> Option<CompiledModule> {
    Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        })
        .try_compile(source)
        .ok()
}

fn check(name: &str, source: &str, pipeline: bool) {
    let m = compile(source, pipeline)
        .unwrap_or_else(|| panic!("{name} (pipeline {pipeline}) compiles"));
    let want = enumerate(&m);
    let got = expand(&m);
    assert!(
        got == want,
        "{name} (pipeline {pipeline}): descriptor expansion differs from the per-event \
         enumeration"
    );
    let words: usize = want.values().map(Vec::len).sum();
    assert_eq!(
        m.host.input_count() + m.host.output_count(),
        words,
        "{name}"
    );
}

#[test]
fn corpus_files_expand_to_the_enumerated_sequence() {
    for file in [
        "polynomial.w2",
        "conv1d.w2",
        "binop.w2",
        "colorseg.w2",
        "mandelbrot.w2",
        "fft16.w2",
        "matmul_2x4x4.w2",
    ] {
        let path = format!("{}/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).expect("corpus file");
        for pipeline in [true, false] {
            check(file, &source, pipeline);
        }
    }
}

#[test]
fn image_generators_expand_to_the_enumerated_sequence() {
    for (name, source) in [
        ("binop 512x512", corpus::binop_source(512, 512)),
        ("colorseg 512x509", corpus::colorseg_source(512, 509)),
        ("grayseg 509x512", corpus::grayseg_source(509, 512)),
    ] {
        for pipeline in [true, false] {
            check(name, &source, pipeline);
        }
        // The descriptor is sized by the program, not the image.
        let m = compile(&source, true).expect("compiles");
        assert!(m.host.step_count() < 64, "{name}: {}", m.host.step_count());
    }
}

#[test]
fn generated_programs_expand_to_the_enumerated_sequence() {
    let cfg = GenConfig::default();
    let mut compiled = 0;
    for seed in 0..200u64 {
        let program = generate(seed, &cfg);
        for pipeline in [true, false] {
            let Some(m) = compile(&program.source, pipeline) else {
                continue;
            };
            compiled += 1;
            assert!(
                expand(&m) == enumerate(&m),
                "generated seed {seed} (pipeline {pipeline}):\n{}",
                program.source
            );
        }
    }
    assert!(compiled >= 300, "only {compiled} of 400 compiles succeeded");
}

#[test]
fn binop_descriptor_is_one_loop_nest_per_channel() {
    let m = compile(&corpus::binop_source(512, 512), false).expect("compiles");
    assert_eq!(m.host.input_count(), 2 * 512 * 512);
    assert_eq!(m.host.output_count(), 512 * 512);
    assert_eq!(m.skew.flow, Dir::Right);
    // List-scheduled, each of the three channels (X and Y in, X out) is
    // an `i` loop around a `j` loop around one word: three steps apiece.
    assert_eq!(m.host.step_count(), 9, "{}", m.host.listing());
}
