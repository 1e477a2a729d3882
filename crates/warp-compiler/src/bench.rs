//! Compile-and-run benchmarking of the corpus: the numbers behind
//! `BENCH_compile.json`.
//!
//! For every program the harness compiles twice — once with the
//! modulo-scheduling pipeline enabled (the default) and once with the
//! `--no-pipeline` list-scheduled baseline — simulates both builds on
//! the same seeded inputs, and records:
//!
//! * static µcode size (cell and IU words),
//! * simulated array cycles for each build,
//! * compile wall time of the pipelined build,
//! * the mid-end's per-pattern rewrite hit counts,
//! * how many innermost loops actually pipelined and at what IIs.
//!
//! The report serializes to JSON without any external dependency (the
//! container is offline), and [`BenchReport::improved`] /
//! [`BenchReport::regressed`] carry the acceptance criterion: modulo
//! scheduling must drop simulated cycles on several programs and may
//! regress none — the scheduler's profitability gate keeps every
//! unprofitable loop on its list schedule, so a regression here is a
//! bug, not a tuning matter.
//!
//! The native half ([`run_native_bench`], behind `wbench --native`)
//! measures the serving question instead: best-of-N single-run wall
//! clock for the simulator vs best-of-N for the native backend on the
//! *same* module and inputs, with a bitwise cross-check that the two
//! executors produced identical words before any timing is trusted.
//! Its JSON goes to `BENCH_native.json`.

use crate::{audit, CompileOptions, Session, SessionCtrl};
use warp_ir::Region;

/// One program's before/after measurements.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Program name (corpus file stem).
    pub name: String,
    /// Cell µcode words of the pipelined build.
    pub cell_ucode: u32,
    /// IU µcode words of the pipelined build.
    pub iu_ucode: u64,
    /// Simulated array cycles of the `pipeline: false` baseline.
    pub cycles_baseline: u64,
    /// Simulated array cycles of the default (pipelined) build.
    pub cycles_pipelined: u64,
    /// Wall-clock compile time of the pipelined build, in milliseconds.
    pub compile_ms: f64,
    /// Per-pattern rewrite application counts (mid-end `Metrics`).
    pub rewrite_hits: Vec<(String, u64)>,
    /// One entry per *innermost* loop, in region order:
    /// `Some((ii, stages))` when it modulo-scheduled, `None` when the
    /// profitability gate kept it on its list schedule. The JSON
    /// serialization keeps the entry and emits explicit `null`s, so the
    /// schema is stable whether or not a loop pipelined.
    pub pipelined_loops: Vec<Option<(u32, u32)>>,
}

/// The whole corpus, measured.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// One record per program, in input order.
    pub programs: Vec<BenchRecord>,
}

impl BenchReport {
    /// Programs whose simulated cycles dropped under pipelining.
    pub fn improved(&self) -> usize {
        self.programs
            .iter()
            .filter(|r| r.cycles_pipelined < r.cycles_baseline)
            .count()
    }

    /// Programs whose simulated cycles *rose* under pipelining. The
    /// profitability gate makes this a correctness criterion: it must
    /// be zero.
    pub fn regressed(&self) -> usize {
        self.programs
            .iter()
            .filter(|r| r.cycles_pipelined > r.cycles_baseline)
            .count()
    }

    /// Hand-rolled JSON (the container has no serde): the
    /// `BENCH_compile.json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"programs\": [\n");
        for (i, r) in self.programs.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            out.push_str(&format!("\"cell_ucode\": {}, ", r.cell_ucode));
            out.push_str(&format!("\"iu_ucode\": {}, ", r.iu_ucode));
            out.push_str(&format!("\"cycles_baseline\": {}, ", r.cycles_baseline));
            out.push_str(&format!("\"cycles_pipelined\": {}, ", r.cycles_pipelined));
            out.push_str(&format!("\"compile_ms\": {:.3}, ", r.compile_ms));
            out.push_str("\"rewrite_hits\": {");
            for (j, (name, n)) in r.rewrite_hits.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(name), n));
            }
            out.push_str("}, \"pipelined_loops\": [");
            for (j, entry) in r.pipelined_loops.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match entry {
                    Some((ii, stages)) => {
                        out.push_str(&format!("{{\"ii\": {ii}, \"stages\": {stages}}}"));
                    }
                    // A loop the gate skipped still gets its entry —
                    // explicit nulls, never a missing key.
                    None => out.push_str("{\"ii\": null, \"stages\": null}"),
                }
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.programs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"improved\": {},\n", self.improved()));
        out.push_str(&format!("  \"regressed\": {}\n", self.regressed()));
        out.push_str("}\n");
        out
    }

    /// A fixed-width console summary.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<14} {:>10} {:>8} {:>10} {:>10} {:>7} {:>9} {:>6}\n",
            "name", "cell ucode", "iu", "base cyc", "piped cyc", "delta", "rewrites", "loops"
        );
        for r in &self.programs {
            let delta = r.cycles_baseline as i64 - r.cycles_pipelined as i64;
            let rewrites: u64 = r.rewrite_hits.iter().map(|(_, n)| n).sum();
            out.push_str(&format!(
                "{:<14} {:>10} {:>8} {:>10} {:>10} {:>7} {:>9} {:>6}\n",
                r.name,
                r.cell_ucode,
                r.iu_ucode,
                r.cycles_baseline,
                r.cycles_pipelined,
                delta,
                rewrites,
                r.pipelined_loops.iter().flatten().count(),
            ));
        }
        out.push_str(&format!(
            "improved on {} of {} programs, regressed on {}\n",
            self.improved(),
            self.programs.len(),
            self.regressed(),
        ));
        out
    }
}

/// Quotes and escapes `s` as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Innermost loops of the region tree in region order — the loops the
/// modulo scheduler considers. A loop is innermost when its body
/// contains no further loop.
fn innermost_loops(region: &Region, out: &mut Vec<warp_ir::LoopId>) {
    match region {
        Region::Block(_) => {}
        Region::Loop { id, body } => {
            let before = out.len();
            innermost_loops(body, out);
            if out.len() == before {
                out.push(*id);
            }
        }
        Region::Seq(rs) => {
            for r in rs {
                innermost_loops(r, out);
            }
        }
    }
}

fn compile_mode(
    source: &str,
    opts: &CompileOptions,
    pipeline: bool,
) -> Result<crate::CompiledModule, String> {
    Session::new(opts.clone())
        .with_ctrl(SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        })
        .compile(source)
        .map_err(|d| d.to_string())
}

fn simulate(module: &crate::CompiledModule, seed: u64) -> Result<u64, String> {
    let owned = audit::seeded_inputs(module, seed);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    module
        .run(&inputs)
        .map(|r| r.cycles)
        .map_err(|e| e.to_string())
}

/// Measures one program: both builds, both simulations.
///
/// # Errors
///
/// Returns the compile diagnostics or simulator error, prefixed with
/// the program name.
pub fn bench_program(
    name: &str,
    source: &str,
    opts: &CompileOptions,
    seed: u64,
) -> Result<BenchRecord, String> {
    let err = |stage: &str, e: String| format!("{name}: {stage}: {e}");

    let t0 = std::time::Instant::now();
    let piped = compile_mode(source, opts, true).map_err(|e| err("compile (pipelined)", e))?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let base = compile_mode(source, opts, false).map_err(|e| err("compile (baseline)", e))?;

    let cycles_pipelined = simulate(&piped, seed).map_err(|e| err("simulate (pipelined)", e))?;
    let cycles_baseline = simulate(&base, seed).map_err(|e| err("simulate (baseline)", e))?;

    let mut loops = Vec::new();
    innermost_loops(&piped.ir.root, &mut loops);
    let pipelined_loops = loops
        .iter()
        .map(|lid| {
            piped
                .cell_code
                .pipelined
                .iter()
                .find(|p| p.id == *lid)
                .map(|p| (p.ii, p.stages))
        })
        .collect();

    Ok(BenchRecord {
        name: name.to_owned(),
        cell_ucode: piped.metrics.cell_ucode,
        iu_ucode: piped.metrics.iu_ucode,
        cycles_baseline,
        cycles_pipelined,
        compile_ms,
        rewrite_hits: piped.metrics.rewrite_hits.clone(),
        pipelined_loops,
    })
}

/// Measures every `(name, source)` pair; fails on the first program
/// that does not compile and simulate in both modes.
///
/// # Errors
///
/// Propagates the first [`bench_program`] failure.
pub fn run_bench(
    programs: &[(String, String)],
    opts: &CompileOptions,
    seed: u64,
) -> Result<BenchReport, String> {
    let mut report = BenchReport::default();
    for (name, source) in programs {
        report
            .programs
            .push(bench_program(name, source, opts, seed)?);
    }
    Ok(report)
}

/// One program's simulator-vs-native wall-clock measurement.
#[derive(Clone, Debug)]
pub struct NativeBenchRecord {
    /// Program name (corpus file stem).
    pub name: String,
    /// Simulated array cycles of the measured (pipelined) build — the
    /// work the native path skips, for context.
    pub cycles: u64,
    /// Best single-run simulator wall time (min over a few timed runs
    /// after one warmup), in milliseconds.
    pub sim_wall_ms: f64,
    /// Best single-run native wall time (min over
    /// [`NativeBenchRecord::native_repeats`] timed runs after one
    /// warmup), in milliseconds.
    pub native_wall_ms: f64,
    /// Timed native runs the minimum was taken over. Sub-millisecond
    /// walls jitter tens of percent on a shared machine; the minimum
    /// is the run least disturbed by that noise, applied symmetrically
    /// to both executors.
    pub native_repeats: u32,
    /// `sim_wall_ms / native_wall_ms` (`inf` if the native time rounds
    /// to zero).
    pub speedup: f64,
    /// Whether the two executors produced bitwise-identical host words
    /// and output streams. Always `true` in a passing run — the timing
    /// of a wrong answer is not interesting.
    pub bitwise_equal: bool,
}

/// The whole corpus, raced: `BENCH_native.json`.
#[derive(Clone, Debug, Default)]
pub struct NativeBenchReport {
    /// One record per program, in input order.
    pub programs: Vec<NativeBenchRecord>,
}

impl NativeBenchReport {
    /// Programs where the native path is at least 10× faster than one
    /// simulator run — the headline acceptance number.
    pub fn speedup_10x(&self) -> usize {
        self.programs.iter().filter(|r| r.speedup >= 10.0).count()
    }

    /// `true` when every program's native run matched the simulator
    /// bitwise.
    pub fn all_bitwise_equal(&self) -> bool {
        self.programs.iter().all(|r| r.bitwise_equal)
    }

    /// Hand-rolled JSON: the `BENCH_native.json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"programs\": [\n");
        for (i, r) in self.programs.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            out.push_str(&format!("\"cycles\": {}, ", r.cycles));
            out.push_str(&format!("\"sim_wall_ms\": {:.3}, ", r.sim_wall_ms));
            out.push_str(&format!("\"native_wall_ms\": {:.4}, ", r.native_wall_ms));
            out.push_str(&format!("\"native_repeats\": {}, ", r.native_repeats));
            let speedup = if r.speedup.is_finite() {
                format!("{:.1}", r.speedup)
            } else {
                // JSON has no Infinity literal.
                "null".to_owned()
            };
            out.push_str(&format!("\"speedup\": {speedup}, "));
            out.push_str(&format!("\"bitwise_equal\": {}}}", r.bitwise_equal));
            out.push_str(if i + 1 < self.programs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"speedup_10x\": {},\n", self.speedup_10x()));
        out.push_str(&format!(
            "  \"all_bitwise_equal\": {}\n",
            self.all_bitwise_equal()
        ));
        out.push_str("}\n");
        out
    }

    /// A fixed-width console summary.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<14} {:>10} {:>10} {:>12} {:>9} {:>8}\n",
            "name", "cycles", "sim ms", "native ms", "speedup", "bitwise"
        );
        for r in &self.programs {
            out.push_str(&format!(
                "{:<14} {:>10} {:>10.3} {:>12.4} {:>8.1}x {:>8}\n",
                r.name,
                r.cycles,
                r.sim_wall_ms,
                r.native_wall_ms,
                r.speedup,
                if r.bitwise_equal { "ok" } else { "MISMATCH" },
            ));
        }
        out.push_str(&format!(
            ">=10x speedup on {} of {} programs\n",
            self.speedup_10x(),
            self.programs.len(),
        ));
        out
    }
}

/// `true` when the two reports carry bitwise-identical host words (for
/// every host variable) and output streams.
fn reports_bitwise_equal(
    module: &crate::CompiledModule,
    a: &warp_sim::RunReport,
    b: &warp_sim::RunReport,
) -> bool {
    for (_, info) in module.ir.vars.iter() {
        if info.kind != w2_lang::hir::VarKind::Host {
            continue;
        }
        let (Ok(av), Ok(bv)) = (a.host.get(&info.name), b.host.get(&info.name)) else {
            return false;
        };
        if av.len() != bv.len() || av.iter().zip(bv).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return false;
        }
    }
    if a.out_streams.len() != b.out_streams.len() {
        return false;
    }
    a.out_streams.iter().all(|(chan, aw)| {
        b.out_streams.get(chan).is_some_and(|bw| {
            aw.len() == bw.len() && aw.iter().zip(bw).all(|(x, y)| x.to_bits() == y.to_bits())
        })
    })
}

/// Times `f` as the minimum over `runs` individually-timed calls. The
/// minimum is the noise-robust estimator for a wall clock: scheduler
/// preemption, interrupts, and cold caches only ever add time. Both
/// executors are timed with this same protocol (single runs, not
/// batched throughput loops), so neither gets an amortization the
/// other is denied.
fn min_single_wall_ms<E>(runs: u32, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t = std::time::Instant::now();
        f()?;
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(best)
}

/// Races one program: compiles pipelined with reassociation off (so
/// the bitwise cross-check is meaningful), then times the simulator
/// and the native backend on the same seeded inputs — one untimed
/// warmup each, then the best of N single runs ([`min_single_wall_ms`]).
/// The native side reuses one [`warp_native::NativeRunner`] across
/// runs, the way a long-lived serving process would; input binding is
/// inside both timed paths.
///
/// # Errors
///
/// Returns the compile diagnostics or either executor's error, prefixed
/// with the program name.
pub fn bench_native_program(
    name: &str,
    source: &str,
    opts: &CompileOptions,
    seed: u64,
    repeats: u32,
) -> Result<NativeBenchRecord, String> {
    let err = |stage: &str, e: String| format!("{name}: {stage}: {e}");
    let repeats = repeats.max(1);
    // The slow side gets fewer runs to keep the bench quick; long
    // walls don't need noise suppression anyway.
    let sim_runs = repeats.min(3);

    let mut copts = opts.clone();
    copts.lower.reassociate = false;
    let module = compile_mode(source, &copts, true).map_err(|e| err("compile", e))?;

    let owned = audit::seeded_inputs(&module, seed);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();

    // One warmup run per executor keeps cold page faults out of the
    // timed runs and supplies the report for the bitwise check.
    let sim = module
        .run(&inputs)
        .map_err(|e| err("simulate", e.to_string()))?;
    let sim_wall_ms = min_single_wall_ms(sim_runs, || {
        module
            .run(&inputs)
            .map(|_| ())
            .map_err(|e| err("simulate", e.to_string()))
    })?;

    // Build the op tables and the runner once and amortize — the
    // serving path a long-lived daemon would take.
    let program = module.native_program();
    let native_opts = warp_native::NativeOptions::default();
    let mut runner = warp_native::NativeRunner::new(&program, &native_opts)
        .map_err(|e| err("native", e.to_string()))?;
    let mut native_once = || -> Result<warp_sim::RunReport, String> {
        let mut host = warp_host::HostMemory::new(&module.ir.vars);
        for (n, d) in &inputs {
            host.set(n, d).map_err(|e| err("bind", e.to_string()))?;
        }
        runner
            .run(host, &native_opts)
            .map_err(|e| err("native", e.to_string()))
    };
    let native = native_once()?;
    let native_wall_ms = min_single_wall_ms(repeats, || native_once().map(|_| ()))?;

    let speedup = if native_wall_ms > 0.0 {
        sim_wall_ms / native_wall_ms
    } else {
        f64::INFINITY
    };
    Ok(NativeBenchRecord {
        name: name.to_owned(),
        cycles: sim.cycles,
        sim_wall_ms,
        native_wall_ms,
        native_repeats: repeats,
        speedup,
        bitwise_equal: reports_bitwise_equal(&module, &sim, &native),
    })
}

/// Races every `(name, source)` pair; fails on the first program that
/// does not compile and run on both executors.
///
/// # Errors
///
/// Propagates the first [`bench_native_program`] failure.
pub fn run_native_bench(
    programs: &[(String, String)],
    opts: &CompileOptions,
    seed: u64,
    repeats: u32,
) -> Result<NativeBenchReport, String> {
    let mut report = NativeBenchReport::default();
    for (name, source) in programs {
        report
            .programs
            .push(bench_native_program(name, source, opts, seed, repeats)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn polynomial_improves_and_serializes() {
        let report = run_bench(
            &[("polynomial".to_owned(), corpus::polynomial_source(4, 64))],
            &CompileOptions::default(),
            1,
        )
        .expect("benches");
        assert_eq!(report.programs.len(), 1);
        let r = &report.programs[0];
        assert!(
            r.cycles_pipelined < r.cycles_baseline,
            "polynomial should pipeline: {} vs {}",
            r.cycles_pipelined,
            r.cycles_baseline
        );
        assert!(r.pipelined_loops.iter().any(Option::is_some));
        let json = report.to_json();
        assert!(json.contains("\"cycles_baseline\""));
        assert!(json.contains("\"improved\": 1"));
        assert!(json.contains("\"regressed\": 0"));
    }

    #[test]
    fn non_pipelined_loops_serialize_as_explicit_nulls() {
        let report = BenchReport {
            programs: vec![BenchRecord {
                name: "t".to_owned(),
                cell_ucode: 1,
                iu_ucode: 1,
                cycles_baseline: 2,
                cycles_pipelined: 2,
                compile_ms: 0.1,
                rewrite_hits: vec![],
                pipelined_loops: vec![Some((3, 2)), None],
            }],
        };
        let json = report.to_json();
        assert!(
            json.contains("{\"ii\": 3, \"stages\": 2}, {\"ii\": null, \"stages\": null}"),
            "{json}"
        );
    }

    #[test]
    fn every_innermost_loop_gets_a_record_entry() {
        // One pipelined build of the polynomial generator: the record
        // must carry one entry per innermost loop whether or not the
        // gate scheduled it, so consumers can line entries up with the
        // loop structure.
        let src = corpus::polynomial_source(4, 64);
        let r = bench_program("polynomial", &src, &CompileOptions::default(), 1).expect("benches");
        let module = compile_mode(&src, &CompileOptions::default(), true).expect("compiles");
        let mut loops = Vec::new();
        innermost_loops(&module.ir.root, &mut loops);
        assert_eq!(r.pipelined_loops.len(), loops.len());
        assert!(r.pipelined_loops.len() >= module.cell_code.pipelined.len());
    }

    #[test]
    fn native_bench_races_and_serializes() {
        let report = run_native_bench(
            &[("polynomial".to_owned(), corpus::polynomial_source(4, 64))],
            &CompileOptions::default(),
            1,
            3,
        )
        .expect("benches");
        assert_eq!(report.programs.len(), 1);
        let r = &report.programs[0];
        assert!(r.bitwise_equal, "executors must agree before timing");
        assert!(r.cycles > 0);
        assert!(r.sim_wall_ms > 0.0);
        assert!(r.speedup > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"native_wall_ms\""), "{json}");
        assert!(json.contains("\"all_bitwise_equal\": true"), "{json}");
        assert!(report.table().contains("speedup"));
    }

    #[test]
    fn json_escapes_are_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
