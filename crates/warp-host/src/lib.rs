//! Host I/O processor program generation.
//!
//! The Warp host's I/O processors "must be programmed to supply input in
//! the exact sequence as the data is used in the Warp cells" (paper
//! §2.2). The compiler derives that sequence from the external-variable
//! annotations of the boundary cell's `send`/`receive` operations. This
//! crate keeps it as a program-sized descriptor: per channel, a
//! [`HostScript`] that mirrors the cell program's loop nest and keeps
//! only the boundary transfers. A [`HostCursor`] expands a script word
//! by word on demand, and [`HostMemory`] holds the data the simulator
//! binds to it.
//!
//! # Examples
//!
//! ```
//! use w2_lang::parse_and_check;
//! use warp_ir::{decompose, lower, LowerOptions};
//! use warp_cell::{codegen, CellMachine};
//! use warp_host::{host_codegen, HostStep, HostWord};
//!
//! let src = r#"
//! module copy (xs in, ys out)
//! float xs[4];
//! float ys[4];
//! cellprogram (cid : 0 : 0)
//! begin
//!   function body
//!   begin
//!     float v;
//!     int i;
//!     for i := 0 to 3 do begin
//!       receive (L, X, v, xs[i]);
//!       send (R, X, v, ys[i]);
//!     end;
//!   end
//!   call body;
//! end
//! "#;
//! let hir = parse_and_check(src)?;
//! let mut ir = lower(&hir, &LowerOptions::default())?;
//! decompose::decompose(&mut ir);
//! let code = codegen(&ir, &CellMachine::default())?;
//! let host = host_codegen(&ir, &code, w2_lang::ast::Dir::Right)?;
//! assert_eq!(host.input_count(), 4);
//! assert_eq!(host.output_count(), 4);
//! // One loop step of one word per channel, whatever the array size.
//! let xs = &host.inputs[&w2_lang::ast::Chan::X];
//! assert!(matches!(&xs.steps[..], [HostStep::Loop { count: 4, .. }]));
//! let indices: Vec<u32> = xs
//!     .cursor()
//!     .map(|w| match w {
//!         HostWord::Elem { index, .. } => index,
//!         _ => unreachable!(),
//!     })
//!     .collect();
//! assert_eq!(indices, [0, 1, 2, 3]);
//! # Ok::<(), warp_common::DiagnosticBag>(())
//! ```

mod script;

pub use script::{HostCursor, HostScript, HostStep, HostWord};

use std::collections::{BTreeMap, HashMap};
use w2_lang::ast::{Chan, Dir};
use w2_lang::hir::{VarId, VarInfo, VarKind};
use warp_cell::{CellCode, CodeRegion};
use warp_common::{Diagnostic, DiagnosticBag, IdVec};
use warp_ir::affine::LoopId;
use warp_ir::{Affine, CellIr, HostSlot};

/// The compiled host I/O processor programs: per channel, the exact
/// transfer order as a loop-nest descriptor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostProgram {
    /// Words to feed the boundary input cell, per channel, in
    /// consumption order. Every word is bound (`Some`).
    pub inputs: BTreeMap<Chan, HostScript>,
    /// Destinations of the words the boundary output cell produces;
    /// `None` discards the word (e.g. the conservation padding the
    /// polynomial program sends).
    pub outputs: BTreeMap<Chan, HostScript>,
}

impl HostProgram {
    /// Total words the host sends per array execution.
    pub fn input_count(&self) -> usize {
        self.inputs.values().map(|s| s.word_count() as usize).sum()
    }

    /// Total words the host receives per array execution.
    pub fn output_count(&self) -> usize {
        self.outputs.values().map(|s| s.word_count() as usize).sum()
    }

    /// Steps across every script — the descriptor's size, independent
    /// of how many words it transfers.
    pub fn step_count(&self) -> usize {
        self.inputs
            .values()
            .chain(self.outputs.values())
            .map(HostScript::step_count)
            .sum()
    }

    /// The host variables the input scripts read, sorted by id.
    pub fn input_vars(&self) -> Vec<VarId> {
        let mut vars = Vec::new();
        for script in self.inputs.values() {
            script.collect_vars(&mut vars);
        }
        vars.sort();
        vars.dedup();
        vars
    }

    /// A human-readable listing of the per-channel transfer scripts.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "host program: {} input word(s), {} output word(s), {} step(s)\n",
            self.input_count(),
            self.output_count(),
            self.step_count()
        );
        for (kind, scripts) in [("input", &self.inputs), ("output", &self.outputs)] {
            for (chan, script) in scripts {
                let _ = writeln!(out, "{kind} {chan:?} ({} words):", script.word_count());
                script.write_listing(&mut out, 1);
            }
        }
        out
    }
}

impl warp_common::Artifact for HostProgram {
    fn kind(&self) -> &'static str {
        "host-program"
    }

    fn dump(&self) -> String {
        self.listing()
    }
}

/// A host-memory binding error: the caller named a variable the module
/// does not declare, or supplied data of the wrong length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostError {
    /// No host variable with this name exists in the module.
    UnknownVariable {
        /// The requested name.
        name: String,
    },
    /// The supplied slice does not match the variable's word count.
    LengthMismatch {
        /// The variable name.
        name: String,
        /// Words the variable holds.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownVariable { name } => {
                write!(f, "unknown host variable `{name}`")
            }
            HostError::LengthMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "host variable `{name}` holds {expected} word(s), got {got}"
            ),
        }
    }
}

impl std::error::Error for HostError {}

/// Generates the host program for a module whose data flows in `flow`
/// direction.
///
/// One walk over the cell program's region tree: each boundary
/// `send`/`receive` becomes a word step of its channel's script, each
/// loop around at least one of them a loop step, and loops that never
/// run are dropped.
///
/// # Errors
///
/// Reports a diagnostic if an external reference indexes outside its
/// host array at any point of its loop box.
pub fn host_codegen(ir: &CellIr, code: &CellCode, flow: Dir) -> Result<HostProgram, DiagnosticBag> {
    let mut cx = Codegen {
        ir,
        flow,
        open: Vec::new(),
        diags: DiagnosticBag::new(),
    };
    let mut scripts = Scripts::default();
    cx.regions(&code.regions, &mut scripts);
    if cx.diags.has_errors() {
        return Err(cx.diags);
    }
    let [in_x, in_y, out_x, out_y] = scripts;
    let by_chan = |x: Vec<HostStep>, y: Vec<HostStep>| {
        [(Chan::X, x), (Chan::Y, y)]
            .into_iter()
            .filter(|(_, steps)| !steps.is_empty())
            .map(|(chan, steps)| (chan, HostScript::new(steps)))
            .collect()
    };
    Ok(HostProgram {
        inputs: by_chan(in_x, in_y),
        outputs: by_chan(out_x, out_y),
    })
}

/// Steps under construction: inputs X, Y then outputs X, Y.
type Scripts = [Vec<HostStep>; 4];

struct Codegen<'a> {
    ir: &'a CellIr,
    flow: Dir,
    /// Enclosing loops, innermost last: `(id, lo, count)`.
    open: Vec<(LoopId, i64, u64)>,
    diags: DiagnosticBag,
}

impl Codegen<'_> {
    fn regions(&mut self, regions: &[CodeRegion], out: &mut Scripts) {
        for region in regions {
            match region {
                CodeRegion::Block(b) => {
                    for e in &b.io_events {
                        let script = if e.is_recv && e.dir == self.flow.opposite() {
                            chan_index(e.chan)
                        } else if !e.is_recv && e.dir == self.flow {
                            2 + chan_index(e.chan)
                        } else {
                            continue;
                        };
                        let slot = match &e.ext {
                            Some(HostSlot::Elem { var, index }) => {
                                self.check_bounds(*var, index);
                                e.ext.clone()
                            }
                            Some(HostSlot::Lit(_)) if script >= 2 => None,
                            Some(lit) => Some(lit.clone()),
                            None if script < 2 => Some(HostSlot::Lit(0.0)),
                            None => None,
                        };
                        out[script].push(HostStep::Word(slot));
                    }
                }
                CodeRegion::Loop { id, count, body } => {
                    if *count == 0 {
                        continue;
                    }
                    let lo = self.ir.loops[*id].lo;
                    self.open.push((*id, lo, *count));
                    let mut inner = Scripts::default();
                    self.regions(body, &mut inner);
                    self.open.pop();
                    for (steps, body) in out.iter_mut().zip(inner) {
                        if !body.is_empty() {
                            steps.push(HostStep::Loop {
                                id: *id,
                                lo,
                                count: *count,
                                body,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Checks `index` over the box of its enclosing loops. An affine
    /// function takes its extremes at the box corners, so the exact
    /// range is the sum of each term's extreme at its loop's first or
    /// last value.
    fn check_bounds(&mut self, var: VarId, index: &Affine) {
        let info = &self.ir.vars[var];
        let (mut min, mut max) = (i128::from(index.constant), i128::from(index.constant));
        for (l, &coeff) in &index.terms {
            let Some(&(_, lo, count)) = self.open.iter().rev().find(|(id, ..)| id == l) else {
                self.diags.push(Diagnostic::error_global(format!(
                    "external reference to host variable `{}` reads loop {l:?} outside \
                     its loop nest",
                    info.name
                )));
                return;
            };
            let first = i128::from(coeff) * i128::from(lo);
            let last = i128::from(coeff) * (i128::from(lo) + i128::from(count) - 1);
            min += first.min(last);
            max += first.max(last);
        }
        let size = i128::from(info.size());
        let bad = if min < 0 {
            min
        } else if max >= size {
            max
        } else {
            return;
        };
        self.diags.push(Diagnostic::error_global(format!(
            "external reference indexes host variable `{}` at word {bad}, \
             but it has {size} word(s)",
            info.name
        )));
    }
}

fn chan_index(chan: Chan) -> usize {
    match chan {
        Chan::X => 0,
        Chan::Y => 1,
    }
}

/// Host memory: the module-level variables the W2 program binds at the
/// array boundary. The simulator loads `in` parameters before a run and
/// reads `out` parameters after it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostMemory {
    /// Storage indexed by variable id; `None` for non-host variables,
    /// so word access is two array indexings.
    arrays: Vec<Option<Vec<f32>>>,
    by_name: HashMap<String, VarId>,
}

impl HostMemory {
    /// Creates zero-initialized storage for every host variable.
    pub fn new(vars: &IdVec<VarId, VarInfo>) -> HostMemory {
        let mut mem = HostMemory::default();
        for (id, info) in vars.iter() {
            let storage = (info.kind == VarKind::Host).then(|| {
                mem.by_name.insert(info.name.clone(), id);
                vec![0.0; info.size() as usize]
            });
            mem.arrays.push(storage);
        }
        mem
    }

    fn array(&self, var: VarId) -> Option<&Vec<f32>> {
        self.arrays.get(var.0 as usize)?.as_ref()
    }

    fn array_mut(&mut self, var: VarId) -> Option<&mut Vec<f32>> {
        self.arrays.get_mut(var.0 as usize)?.as_mut()
    }

    /// Resolves a host variable by source name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// Loads data into a host variable.
    ///
    /// # Errors
    ///
    /// Returns a [`HostError`] if `name` is unknown or `data` has the
    /// wrong length.
    pub fn set(&mut self, name: &str, data: &[f32]) -> Result<(), HostError> {
        let var = self.var(name).ok_or_else(|| HostError::UnknownVariable {
            name: name.to_owned(),
        })?;
        let arr = self.array_mut(var).expect("host storage exists");
        if arr.len() != data.len() {
            return Err(HostError::LengthMismatch {
                name: name.to_owned(),
                expected: arr.len(),
                got: data.len(),
            });
        }
        arr.copy_from_slice(data);
        Ok(())
    }

    /// Reads a host variable's contents.
    ///
    /// # Errors
    ///
    /// Returns a [`HostError`] if `name` is unknown.
    pub fn get(&self, name: &str) -> Result<&[f32], HostError> {
        let var = self.var(name).ok_or_else(|| HostError::UnknownVariable {
            name: name.to_owned(),
        })?;
        Ok(self.array(var).expect("host storage exists"))
    }

    /// Moves a variable's words out of the image without copying. The
    /// variable reads as an empty array until [`HostMemory::put_words`]
    /// restores it — callers that take must put back before anyone else
    /// observes the memory. Exists for the native executor, which owns
    /// the arrays flat for the duration of a run.
    pub fn take_words(&mut self, name: &str) -> Option<Vec<f32>> {
        let var = self.var(name)?;
        Some(std::mem::take(self.array_mut(var)?))
    }

    /// Moves words back into a variable taken with
    /// [`HostMemory::take_words`]. The words replace the array verbatim
    /// (no length check — the contract is give back what was taken,
    /// possibly with values updated in place).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::UnknownVariable`] if `name` is unknown.
    pub fn put_words(&mut self, name: &str, words: Vec<f32>) -> Result<(), HostError> {
        let var = self.var(name).ok_or_else(|| HostError::UnknownVariable {
            name: name.to_owned(),
        })?;
        *self.array_mut(var).expect("host storage exists") = words;
        Ok(())
    }

    /// Reads one word by variable id.
    pub fn word(&self, var: VarId, index: u32) -> f32 {
        self.array(var).expect("host variable")[index as usize]
    }

    /// Writes one word by variable id.
    pub fn set_word(&mut self, var: VarId, index: u32, value: f32) {
        if let Some(arr) = self.array_mut(var) {
            arr[index as usize] = value;
        }
    }
}

// Wire codec impls so host programs persist inside `CompiledModule`
// artifacts. Enum tags and field orders are on-disk format; changing
// them requires a store schema-version bump.
warp_common::wire_enum!(HostStep {
    0 => Word(slot),
    1 => Loop { id, lo, count, body },
});
warp_common::wire_struct!(HostScript { steps });
warp_common::wire_struct!(HostProgram { inputs, outputs });

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;
    use warp_cell::{codegen, CellMachine};
    use warp_ir::{decompose, lower, LowerOptions};

    fn compile(src: &str) -> (CellIr, CellCode) {
        let hir = parse_and_check(src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        decompose::decompose(&mut ir);
        let code = codegen(&ir, &CellMachine::default()).expect("codegen");
        (ir, code)
    }

    const COPY: &str = "module copy (xs in, ys out) float xs[4]; float ys[4]; \
        cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
        for i := 0 to 3 do begin receive (L, X, v, xs[i]); send (R, X, v, ys[i]); end; \
        end call f; end";

    fn words(script: &HostScript) -> Vec<HostWord> {
        script.cursor().collect()
    }

    fn var(ir: &CellIr, name: &str) -> VarId {
        ir.vars.iter().find(|(_, v)| v.name == name).unwrap().0
    }

    #[test]
    fn copy_program_sequences() {
        let (ir, code) = compile(COPY);
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let (xs, ys) = (var(&ir, "xs"), var(&ir, "ys"));
        assert_eq!(
            words(&host.inputs[&Chan::X]),
            (0..4)
                .map(|index| HostWord::Elem { var: xs, index })
                .collect::<Vec<_>>()
        );
        assert_eq!(
            words(&host.outputs[&Chan::X]),
            (0..4)
                .map(|index| HostWord::Elem { var: ys, index })
                .collect::<Vec<_>>()
        );
        // One loop of one word per script, not one step per word.
        assert_eq!(host.step_count(), 4);
        assert_eq!(host.input_vars(), vec![xs]);
    }

    #[test]
    fn literal_ext_becomes_lit_source() {
        let (ir, code) = compile(
            "module m (rs out) float rs[2]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; \
             receive (L, Y, v, 0.0); send (R, Y, v + 1.0, rs[0]); \
             receive (L, Y, v, 2.5); send (R, Y, v, rs[1]); \
             end call f; end",
        );
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        assert_eq!(
            words(&host.inputs[&Chan::Y]),
            vec![HostWord::Lit(0.0), HostWord::Lit(2.5)]
        );
        assert!(host.input_vars().is_empty());
    }

    #[test]
    fn discarded_output_is_none() {
        let (ir, code) = compile(
            "module m (xs in) float xs[2]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; \
             receive (L, X, v, xs[0]); send (R, X, v); \
             receive (L, X, v, xs[1]); send (R, X, v); \
             end call f; end",
        );
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        assert_eq!(
            host.outputs[&Chan::X].steps,
            vec![HostStep::Word(None), HostStep::Word(None)]
        );
        assert_eq!(
            words(&host.outputs[&Chan::X]),
            vec![HostWord::Discard, HostWord::Discard]
        );
    }

    fn bounds_err(src: &str) -> String {
        let (ir, code) = compile(src);
        host_codegen(&ir, &code, Dir::Right)
            .expect_err("out of range")
            .to_string()
    }

    #[test]
    fn out_of_bounds_ext_rejected() {
        let err = bounds_err(
            "module m (xs in, rs out) float xs[4]; float rs[4]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
             for i := 0 to 5 do begin receive (L, X, v, xs[i]); send (R, X, v); end; \
             end call f; end",
        );
        assert!(
            err.contains("indexes host variable `xs` at word 5"),
            "{err}"
        );
    }

    #[test]
    fn negative_coefficient_is_checked_at_both_corners() {
        // xs[3 - i] counts down: in range for i in 0..=3, below zero at 4.
        let prog = |hi: u32| {
            format!(
                "module m (xs in) float xs[4]; \
                 cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
                 for i := 0 to {hi} do begin receive (L, X, v, xs[3 - i]); send (R, X, v); end; \
                 end call f; end"
            )
        };
        let (ir, code) = compile(&prog(3));
        let host = host_codegen(&ir, &code, Dir::Right).expect("in range");
        let xs = var(&ir, "xs");
        assert_eq!(
            words(&host.inputs[&Chan::X]),
            (0..4)
                .rev()
                .map(|index| HostWord::Elem { var: xs, index })
                .collect::<Vec<_>>()
        );
        let err = bounds_err(&prog(4));
        assert!(err.contains("at word -1"), "{err}");
    }

    #[test]
    fn out_of_range_only_at_the_inner_loop_corner_is_rejected() {
        // xs[i, j + 1] flattens to 4i + j + 1: every word is inside the
        // array except the very last one (i = 2, j = 3 → word 12).
        let err = bounds_err(
            "module m (xs in) float xs[3, 4]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; int i, j; \
             for i := 0 to 2 do for j := 0 to 3 do begin \
             receive (L, X, v, xs[i, j + 1]); send (R, X, v); end; \
             end call f; end",
        );
        assert!(err.contains("at word 12, but it has 12 word(s)"), "{err}");
    }

    #[test]
    fn loop_with_nonzero_lower_bound() {
        let prog = |size: u32| {
            format!(
                "module m (xs in) float xs[{size}]; \
                 cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
                 for i := 2 to 5 do begin receive (L, X, v, xs[i]); send (R, X, v); end; \
                 end call f; end"
            )
        };
        let (ir, code) = compile(&prog(6));
        let host = host_codegen(&ir, &code, Dir::Right).expect("in range");
        let script = &host.inputs[&Chan::X];
        assert!(
            matches!(
                &script.steps[..],
                [HostStep::Loop {
                    lo: 2,
                    count: 4,
                    ..
                }]
            ),
            "{script:?}"
        );
        let xs = var(&ir, "xs");
        assert_eq!(
            words(script),
            (2..6)
                .map(|index| HostWord::Elem { var: xs, index })
                .collect::<Vec<_>>()
        );
        let err = bounds_err(&prog(5));
        assert!(err.contains("at word 5, but it has 5 word(s)"), "{err}");
    }

    #[test]
    fn host_memory_roundtrip() {
        let (ir, _) = compile(COPY);
        let mut mem = HostMemory::new(&ir.vars);
        mem.set("xs", &[1.0, 2.0, 3.0, 4.0]).expect("xs exists");
        assert_eq!(mem.get("xs").expect("xs exists"), &[1.0, 2.0, 3.0, 4.0]);
        let xs = mem.var("xs").unwrap();
        assert_eq!(mem.word(xs, 2), 3.0);
        mem.set_word(xs, 2, 9.0);
        assert_eq!(mem.word(xs, 2), 9.0);
        assert_eq!(mem.get("ys").expect("ys exists"), &[0.0; 4]);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let (ir, _) = compile(COPY);
        let mut mem = HostMemory::new(&ir.vars);
        let err = mem.get("nope").unwrap_err();
        assert_eq!(
            err,
            HostError::UnknownVariable {
                name: "nope".to_owned()
            }
        );
        assert!(err.to_string().contains("unknown host variable"), "{err}");
        let err = mem.set("nope", &[1.0]).unwrap_err();
        assert!(matches!(err, HostError::UnknownVariable { .. }), "{err:?}");
    }

    #[test]
    fn wrong_length_is_an_error() {
        let (ir, _) = compile(COPY);
        let mut mem = HostMemory::new(&ir.vars);
        let err = mem.set("xs", &[1.0]).unwrap_err();
        assert_eq!(
            err,
            HostError::LengthMismatch {
                name: "xs".to_owned(),
                expected: 4,
                got: 1
            }
        );
        assert!(err.to_string().contains("4 word(s), got 1"), "{err}");
    }

    #[test]
    fn host_program_listing_is_deterministic() {
        let (ir, code) = compile(COPY);
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let a = host.listing();
        assert_eq!(a, host.listing());
        assert!(a.contains("input X (4 words):"), "{a}");
        assert!(a.contains("output X (4 words):"), "{a}");
        assert!(a.contains("loop L0 from 0, 4 trip(s), 1 word(s):"), "{a}");
        use warp_common::Artifact as _;
        assert_eq!(host.kind(), "host-program");
    }
}
