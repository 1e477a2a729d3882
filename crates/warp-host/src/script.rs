//! Transfer scripts: the per-channel word sequence as a loop nest.
//!
//! A [`HostScript`] mirrors the cell program's region tree but keeps
//! only the boundary transfers of one channel, so its size follows the
//! program, not the data. A [`HostCursor`] expands it on demand, the way
//! the IU produces addresses (paper §6.3): every affine word index is
//! initialized once, advanced by a precomputed stride at each loop
//! back-edge, and rewound by a compensation constant at each loop exit.

use std::fmt::Write as _;
use w2_lang::hir::VarId;
use warp_ir::affine::LoopId;
use warp_ir::HostSlot;

/// One step of a transfer script.
#[derive(Clone, Debug, PartialEq)]
pub enum HostStep {
    /// One word. In an input script the slot says what the host sends;
    /// in an output script `None` discards the word.
    Word(Option<HostSlot>),
    /// A counted loop: `body` runs `count` times with loop `id` bound to
    /// `lo`, `lo + 1`, … — the bindings the slots' affine indices read.
    Loop {
        /// The cell-program loop this mirrors.
        id: LoopId,
        /// First value of the loop index.
        lo: i64,
        /// Trip count (never zero: empty loops are pruned).
        count: u64,
        /// The transfers of one iteration.
        body: Vec<HostStep>,
    },
}

/// The transfers of one channel in one direction, in transfer order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostScript {
    /// Top-level steps.
    pub steps: Vec<HostStep>,
}

/// One word a [`HostCursor`] yields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HostWord {
    /// A constant (e.g. the `0.0` accumulator seed of Figure 4-1).
    Lit(f32),
    /// A word of a host variable.
    Elem {
        /// The host array.
        var: VarId,
        /// Flat word index.
        index: u32,
    },
    /// No host binding: an output word that is dropped (an unbound
    /// input word reads as `0.0`).
    Discard,
}

impl HostScript {
    /// Wraps a step list.
    pub fn new(steps: Vec<HostStep>) -> HostScript {
        HostScript { steps }
    }

    /// Words the script transfers, computed from trip counts.
    pub fn word_count(&self) -> u64 {
        count_words(&self.steps)
    }

    /// Steps in the script, loops included — the descriptor's size.
    pub fn step_count(&self) -> usize {
        count_steps(&self.steps)
    }

    /// The binding of the last word transferred, if any word is.
    pub fn last_word(&self) -> Option<&Option<HostSlot>> {
        let mut steps = &self.steps;
        loop {
            match steps.last()? {
                HostStep::Word(slot) => return Some(slot),
                HostStep::Loop { body, .. } => steps = body,
            }
        }
    }

    /// `true` if at least one word is bound to a host variable.
    pub fn binds_any_var(&self) -> bool {
        fn any(steps: &[HostStep]) -> bool {
            steps.iter().any(|s| match s {
                HostStep::Word(slot) => matches!(slot, Some(HostSlot::Elem { .. })),
                HostStep::Loop { body, .. } => any(body),
            })
        }
        any(&self.steps)
    }

    /// Appends the host variables the script reads or writes to `out`
    /// (unsorted, with repeats).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        collect_vars(&self.steps, out);
    }

    /// A cursor over every word of the script.
    pub fn cursor(&self) -> HostCursor {
        HostCursor::new(self, u64::MAX)
    }

    /// A cursor that stops after at most `cap` words.
    pub fn cursor_capped(&self, cap: u64) -> HostCursor {
        HostCursor::new(self, cap)
    }

    /// Appends the nested listing of the script, indented by `depth`.
    pub(crate) fn write_listing(&self, out: &mut String, depth: usize) {
        write_steps(&self.steps, out, depth);
    }
}

fn count_words(steps: &[HostStep]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            HostStep::Word(_) => 1,
            HostStep::Loop { count, body, .. } => count.saturating_mul(count_words(body)),
        })
        .fold(0, u64::saturating_add)
}

fn count_steps(steps: &[HostStep]) -> usize {
    steps
        .iter()
        .map(|s| match s {
            HostStep::Word(_) => 1,
            HostStep::Loop { body, .. } => 1 + count_steps(body),
        })
        .sum()
}

fn collect_vars(steps: &[HostStep], out: &mut Vec<VarId>) {
    for s in steps {
        match s {
            HostStep::Word(Some(HostSlot::Elem { var, .. })) => out.push(*var),
            HostStep::Word(_) => {}
            HostStep::Loop { body, .. } => collect_vars(body, out),
        }
    }
}

fn write_steps(steps: &[HostStep], out: &mut String, depth: usize) {
    let pad = "  ".repeat(depth);
    for s in steps {
        match s {
            HostStep::Word(None) => {
                let _ = writeln!(out, "{pad}discard");
            }
            HostStep::Word(Some(HostSlot::Lit(v))) => {
                let _ = writeln!(out, "{pad}literal {v}");
            }
            HostStep::Word(Some(HostSlot::Elem { var, index })) => {
                let _ = writeln!(out, "{pad}{var:?}[{index}]");
            }
            HostStep::Loop {
                id,
                lo,
                count,
                body,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}loop {id:?} from {lo}, {count} trip(s), {} word(s):",
                    count_words(body)
                );
                write_steps(body, out, depth + 1);
            }
        }
    }
}

/// One flattened script operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Yield a literal.
    Lit(f32),
    /// Yield a dropped word.
    Discard,
    /// Yield `var[index[slot]]`.
    Elem { var: VarId, slot: u32 },
    /// Enter a loop of `count` trips.
    Enter { count: u64 },
    /// Close the loop entered at `head`; `strides` indexes the loop's
    /// `(slot, stride)` list.
    Back { head: u32, count: u64, strides: u32 },
}

/// A streaming, strength-reduced expansion of a [`HostScript`].
///
/// Building the cursor flattens the script once (program-sized work);
/// each [`HostCursor::next`] then costs a few additions, with no
/// per-word environment and no map lookup.
#[derive(Clone, Debug)]
pub struct HostCursor {
    ops: Vec<Op>,
    /// Current flat index per `Elem` slot.
    index: Vec<i64>,
    /// Per loop (by `Back::strides`), the `(slot, stride)` pairs of the
    /// indices it advances.
    strides: Vec<Vec<(u32, i64)>>,
    /// Trips left per open loop, innermost last.
    trips: Vec<u64>,
    pc: usize,
    /// Words left to yield (the script's word count, or the cap).
    left: u64,
}

impl HostCursor {
    fn new(script: &HostScript, cap: u64) -> HostCursor {
        let mut b = Flatten::default();
        b.steps(&script.steps);
        HostCursor {
            ops: b.ops,
            index: b.index,
            strides: b.loop_strides,
            trips: Vec::new(),
            pc: 0,
            left: script.word_count().min(cap),
        }
    }

    fn rebase(&mut self, loop_ix: u32, times: i64) {
        for &(slot, stride) in &self.strides[loop_ix as usize] {
            self.index[slot as usize] += stride * times;
        }
    }
}

impl Iterator for HostCursor {
    type Item = HostWord;

    fn next(&mut self) -> Option<HostWord> {
        if self.left == 0 {
            return None;
        }
        loop {
            let op = *self.ops.get(self.pc)?;
            self.pc += 1;
            match op {
                Op::Lit(v) => {
                    self.left -= 1;
                    return Some(HostWord::Lit(v));
                }
                Op::Discard => {
                    self.left -= 1;
                    return Some(HostWord::Discard);
                }
                Op::Elem { var, slot } => {
                    self.left -= 1;
                    return Some(HostWord::Elem {
                        var,
                        index: self.index[slot as usize] as u32,
                    });
                }
                Op::Enter { count } => self.trips.push(count),
                Op::Back {
                    head,
                    count,
                    strides,
                } => {
                    let trips = self.trips.last_mut().expect("loop is open");
                    *trips -= 1;
                    if *trips > 0 {
                        self.rebase(strides, 1);
                        self.pc = head as usize + 1;
                    } else {
                        self.trips.pop();
                        self.rebase(strides, 1 - count as i64);
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.left).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

/// Builds a cursor's flat program from the script tree.
#[derive(Default)]
struct Flatten {
    ops: Vec<Op>,
    index: Vec<i64>,
    loop_strides: Vec<Vec<(u32, i64)>>,
    /// Open loops, innermost last: `(id, lo, loop index)`.
    open: Vec<(LoopId, i64, usize)>,
}

impl Flatten {
    fn steps(&mut self, steps: &[HostStep]) {
        for s in steps {
            match s {
                HostStep::Word(None) => self.ops.push(Op::Discard),
                HostStep::Word(Some(HostSlot::Lit(v))) => self.ops.push(Op::Lit(*v)),
                HostStep::Word(Some(HostSlot::Elem { var, index })) => {
                    let slot = self.index.len() as u32;
                    let mut start = index.constant;
                    for (l, &coeff) in &index.terms {
                        let &(_, lo, loop_ix) = self
                            .open
                            .iter()
                            .rev()
                            .find(|(id, ..)| id == l)
                            .unwrap_or_else(|| {
                                panic!("host slot reads loop {l:?} outside its nest")
                            });
                        start += coeff * lo;
                        self.loop_strides[loop_ix].push((slot, coeff));
                    }
                    self.index.push(start);
                    self.ops.push(Op::Elem { var: *var, slot });
                }
                HostStep::Loop {
                    id,
                    lo,
                    count,
                    body,
                } => {
                    let loop_ix = self.loop_strides.len();
                    self.loop_strides.push(Vec::new());
                    let head = self.ops.len() as u32;
                    self.ops.push(Op::Enter { count: *count });
                    self.open.push((*id, *lo, loop_ix));
                    self.steps(body);
                    self.open.pop();
                    self.ops.push(Op::Back {
                        head,
                        count: *count,
                        strides: loop_ix as u32,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_ir::Affine;

    fn elem(var: u32, index: Affine) -> HostStep {
        HostStep::Word(Some(HostSlot::Elem {
            var: VarId(var),
            index,
        }))
    }

    fn indices(script: &HostScript) -> Vec<u32> {
        script
            .cursor()
            .map(|w| match w {
                HostWord::Elem { index, .. } => index,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn nested_loops_expand_row_major() {
        // for i := 1 to 2, for j := 3 to 5: x[10*i + j]
        let (i, j) = (LoopId(0), LoopId(1));
        let script = HostScript::new(vec![HostStep::Loop {
            id: i,
            lo: 1,
            count: 2,
            body: vec![HostStep::Loop {
                id: j,
                lo: 3,
                count: 3,
                body: vec![elem(0, Affine::term(i, 10).add(&Affine::term(j, 1)))],
            }],
        }]);
        assert_eq!(script.word_count(), 6);
        assert_eq!(indices(&script), vec![13, 14, 15, 23, 24, 25]);
    }

    #[test]
    fn negative_strides_and_mixed_words() {
        // for i := 0 to 3: lit, x[7 - 2*i], discard
        let i = LoopId(0);
        let script = HostScript::new(vec![HostStep::Loop {
            id: i,
            lo: 0,
            count: 4,
            body: vec![
                HostStep::Word(Some(HostSlot::Lit(1.5))),
                elem(2, Affine::constant(7).add(&Affine::term(i, -2))),
                HostStep::Word(None),
            ],
        }]);
        let words: Vec<HostWord> = script.cursor().collect();
        assert_eq!(words.len(), 12);
        let xs: Vec<u32> = words
            .iter()
            .filter_map(|w| match w {
                HostWord::Elem { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(xs, vec![7, 5, 3, 1]);
        assert_eq!(words[0], HostWord::Lit(1.5));
        assert_eq!(words[2], HostWord::Discard);
    }

    #[test]
    fn cap_truncates_the_expansion() {
        let i = LoopId(0);
        let script = HostScript::new(vec![HostStep::Loop {
            id: i,
            lo: 0,
            count: 5,
            body: vec![elem(0, Affine::term(i, 1))],
        }]);
        let mut cur = script.cursor_capped(3);
        assert_eq!(cur.size_hint(), (3, Some(3)));
        assert_eq!(cur.by_ref().count(), 3);
        assert_eq!(cur.next(), None);
        assert_eq!(script.cursor_capped(99).count(), 5);
    }

    #[test]
    fn last_word_and_step_count() {
        let i = LoopId(0);
        let script = HostScript::new(vec![
            HostStep::Word(None),
            HostStep::Loop {
                id: i,
                lo: 0,
                count: 2,
                body: vec![elem(4, Affine::term(i, 1))],
            },
        ]);
        assert_eq!(script.step_count(), 3);
        assert!(matches!(
            script.last_word(),
            Some(Some(HostSlot::Elem { var: VarId(4), .. }))
        ));
        assert!(script.binds_any_var());
        assert_eq!(HostScript::default().last_word(), None);
    }
}
