//! Regenerates the Table 7-1 metrics (and the companion analyses) for
//! all corpus programs — the numbers recorded in EXPERIMENTS.md.
//!
//! The corpus is batch-compiled with [`compile_many`] (a client of the
//! compile daemon's worker pool, like `w2c --corpus all`), then a
//! per-pass wall-clock breakdown is printed for the first program.
//!
//! ```sh
//! cargo run --release --example metrics
//! ```

use warp::common::observe::timing_table;
use warp::compiler::{compile, compile_many, corpus, CompileOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 7-1 reproduction (paper values in parentheses)\n");
    println!(
        "{:<12} {:>9} {:>11} {:>9} {:>13} {:>6} {:>6}",
        "Name", "W2 Lines", "Cell ucode", "IU ucode", "Compile time", "skew", "cells"
    );
    let programs: [(&str, &str, (u32, u32, u32)); 5] = [
        ("1d-Conv", corpus::ONED_CONV, (59, 69, 72)),
        ("Binop", corpus::BINOP, (61, 118, 130)),
        ("ColorSeg", corpus::COLORSEG, (88, 556, 270)),
        ("Mandelbrot", corpus::MANDELBROT, (102, 1511, 254)),
        ("Polynomial", corpus::POLYNOMIAL, (49, 72, 83)),
    ];
    let sources: Vec<&str> = programs.iter().map(|(_, src, _)| *src).collect();
    let modules = compile_many(&sources, &CompileOptions::default());
    for ((name, _, (pl, pc, pi)), result) in programs.iter().zip(modules) {
        let m = result?;
        println!(
            "{:<12} {:>4} ({:>3}) {:>5} ({:>4}) {:>4} ({:>3}) {:>13.1?} {:>6} {:>6}",
            name,
            m.metrics.w2_lines,
            pl,
            m.metrics.cell_ucode,
            pc,
            m.metrics.iu_ucode,
            pi,
            m.metrics.compile_time,
            m.skew.min_skew,
            m.n_cells,
        );
    }

    println!("\nExtension program (not in the paper's table):");
    let mm = compile(
        &corpus::matmul_source(10, 16, 16, 2),
        &CompileOptions::default(),
    )?;
    println!(
        "{:<12} {:>4}       {:>5}        {:>4}       {:>13.1?} {:>6} {:>6}",
        "Matmul-10c",
        mm.metrics.w2_lines,
        mm.metrics.cell_ucode,
        mm.metrics.iu_ucode,
        mm.metrics.compile_time,
        mm.skew.min_skew,
        mm.n_cells,
    );

    println!("\nper-pass timing for `{}`:", mm.name);
    print!(
        "{}",
        timing_table(&mm.metrics.per_pass, mm.metrics.compile_time)
    );
    Ok(())
}
