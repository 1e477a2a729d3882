//! The worked example programs of paper §6.2.1, as constructed microcode.
//!
//! These are used by the unit tests and by the benchmark harness that
//! regenerates Tables 6-1 through 6-4 and Figure 6-3.

use w2_lang::ast::{Chan, Dir};
use warp_cell::{BlockCode, CellCode, CodeRegion, IoEvent, MicroInst};
use warp_ir::affine::LoopId;

/// Builds a straight-line code block of `len` cycles with the given
/// `(cycle, dir, chan, is_recv)` I/O events.
pub fn block(len: usize, events: Vec<(u32, Dir, Chan, bool)>) -> CodeRegion {
    CodeRegion::Block(BlockCode {
        insts: vec![MicroInst::default(); len],
        io_events: events
            .into_iter()
            .map(|(cycle, dir, chan, is_recv)| IoEvent {
                cycle,
                dir,
                chan,
                is_recv,
                ext: None,
            })
            .collect(),
        adr_deadlines: vec![],
        source: None,
    })
}

/// The straight-line program of Figure 6-2: `output; input; input; nop;
/// nop; output`. Its I/O timing is Table 6-1 and its two-cell execution
/// at minimum skew is Figure 6-3.
pub fn fig_6_2_code() -> CellCode {
    CellCode {
        name: "fig6-2".into(),
        pipelined: vec![],
        regions: vec![block(
            6,
            vec![
                (0, Dir::Right, Chan::X, false),
                (1, Dir::Left, Chan::X, true),
                (2, Dir::Left, Chan::X, true),
                (5, Dir::Right, Chan::X, false),
            ],
        )],
        regs_used: 0,
        scratch_words: 0,
    }
}

/// The loop program of Figure 6-4: a 5-iteration input loop (2 inputs +
/// nop), a 2-iteration output loop (2 outputs), and a 2-iteration output
/// loop (3 outputs + 2 nops), separated by nops. Its timing is Tables
/// 6-2 through 6-4; the exact minimum skew is 18.
pub fn fig_6_4_code() -> CellCode {
    let input_loop = CodeRegion::Loop {
        id: LoopId(0),
        count: 5,
        body: vec![block(
            3,
            vec![(0, Dir::Left, Chan::X, true), (1, Dir::Left, Chan::X, true)],
        )],
    };
    let out_loop_1 = CodeRegion::Loop {
        id: LoopId(1),
        count: 2,
        body: vec![block(
            2,
            vec![
                (0, Dir::Right, Chan::X, false),
                (1, Dir::Right, Chan::X, false),
            ],
        )],
    };
    let out_loop_2 = CodeRegion::Loop {
        id: LoopId(2),
        count: 2,
        body: vec![block(
            5,
            vec![
                (0, Dir::Right, Chan::X, false),
                (1, Dir::Right, Chan::X, false),
                (2, Dir::Right, Chan::X, false),
            ],
        )],
    };
    CellCode {
        name: "fig6-4".into(),
        pipelined: vec![],
        regions: vec![
            block(1, vec![]),
            input_loop,
            block(2, vec![]),
            out_loop_1,
            block(2, vec![]),
            out_loop_2,
            block(1, vec![]),
        ],
        regs_used: 0,
        scratch_words: 0,
    }
}

/// The abstract stage program of Figure 3-1: a stage of `steps` cycles
/// where the input is consumed at cycle `recv_at` and the result for the
/// next cell is produced at cycle `send_at`. The paper's instance has 4
/// steps with the dependency at step 4 (`recv_at = 3`, `send_at = 3`).
pub fn fig_3_1_stage(steps: usize, recv_at: u32, send_at: u32) -> CellCode {
    CellCode {
        name: "fig3-1".into(),
        pipelined: vec![],
        regions: vec![block(
            steps,
            vec![
                (recv_at, Dir::Left, Chan::X, true),
                (send_at, Dir::Right, Chan::X, false),
            ],
        )],
        regs_used: 0,
        scratch_words: 0,
    }
}
