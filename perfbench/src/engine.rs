//! In-process requests against the compiler and both executors: the
//! `kernels` and `images` workloads, and the universe check of `serve`.
//!
//! One request is one program instance: a cold `Session::try_compile`
//! with default options, one simulator run and one native run, both on
//! `audit::seeded_inputs`. Every run's output is compared bitwise with
//! `warp_oracle::interpret_run` outside the timed regions.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use warp_common::{Artifact, PassObserver, StableHasher};
use warp_compiler::{audit, store, CompileOptions, CompiledModule, Session};
use warp_host::HostMemory;
use warp_native::NativeOptions;
use warp_sim::RunReport;

use crate::trace::Tracer;
use crate::universe::Instance;
use crate::Errors;

/// Exact, deterministic facts about one compiled module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Signature {
    pub cell_words: u64,
    pub iu_words: u64,
    pub host_words: u64,
    pub rewrite_hits: u64,
    pub modulo_loops: u64,
    pub ii_sum: u64,
}

impl Signature {
    pub fn of(m: &CompiledModule) -> Signature {
        Signature {
            cell_words: u64::from(m.cell_code.static_len()),
            iu_words: m.iu.static_len(),
            host_words: (m.host.input_count() + m.host.output_count()) as u64,
            rewrite_hits: m.metrics.rewrite_hits.iter().map(|(_, n)| n).sum(),
            modulo_loops: m.cell_code.pipelined.len() as u64,
            ii_sum: m.cell_code.pipelined.iter().map(|p| u64::from(p.ii)).sum(),
        }
    }
}

/// Length and hash of a module's canonical artifact bytes.
fn artifact_id(m: &CompiledModule) -> (u64, u64) {
    let bytes = store::canonical_artifact_bytes(m);
    let mut h = StableHasher::new();
    h.write(&bytes);
    (bytes.len() as u64, h.finish())
}

/// Oracle outputs as raw bits: `out` parameters and host-bound streams.
struct Reference {
    outs: Vec<(String, Vec<u32>)>,
    streams: BTreeMap<String, Vec<u32>>,
}

fn bits(words: &[f32]) -> Vec<u32> {
    words.iter().map(|w| w.to_bits()).collect()
}

impl Reference {
    fn first_divergence(&self, report: &RunReport) -> Option<String> {
        for (name, want) in &self.outs {
            let got = report.host.get(name).map(bits).unwrap_or_default();
            if got.len() != want.len() {
                return Some(format!(
                    "`{name}` has {} words, oracle {}",
                    got.len(),
                    want.len()
                ));
            }
            if let Some(k) = got.iter().zip(want).position(|(g, w)| g != w) {
                return Some(format!(
                    "`{name}[{k}]` = {:#010x}, oracle {:#010x}",
                    got[k], want[k]
                ));
            }
        }
        let streams: BTreeMap<String, Vec<u32>> = report
            .out_streams
            .iter()
            .map(|(c, w)| (format!("{c:?}"), bits(w)))
            .filter(|(_, w)| !w.is_empty())
            .collect();
        let want: BTreeMap<&String, &Vec<u32>> =
            self.streams.iter().filter(|(_, w)| !w.is_empty()).collect();
        let got: BTreeMap<&String, &Vec<u32>> = streams.iter().collect();
        if got != want {
            return Some("host-bound output streams differ from the oracle's".to_owned());
        }
        None
    }
}

/// An instance's fastest time at each step of a request over the whole
/// run. On a small shared machine the same work takes up to twice as
/// long while neighbours contend for the memory system, in bursts that
/// cover a different share of every run; the fastest of an instance's
/// repeats is the time of the work itself, and it repeats from run to
/// run where a median over all samples flips between the two speeds.
#[derive(Clone, Copy, Debug)]
pub struct Best {
    /// Simulated cycles of one run of the instance.
    pub cycles: u64,
    pub compile_ms: f64,
    pub sim_s: f64,
    pub native_s: f64,
    /// One untraced request: compile, sim run and native run.
    pub request_ms: f64,
    /// One traced request.
    pub traced_request_ms: f64,
}

impl Default for Best {
    fn default() -> Best {
        Best {
            cycles: 0,
            compile_ms: f64::INFINITY,
            sim_s: f64::INFINITY,
            native_s: f64::INFINITY,
            request_ms: f64::INFINITY,
            traced_request_ms: f64::INFINITY,
        }
    }
}

fn lower(best: &mut f64, sample: f64) {
    *best = best.min(sample);
}

/// One instance ready to serve requests.
struct Prepared<'a> {
    inst: &'a Instance,
    inputs: Vec<(String, Vec<f32>)>,
    signature: Signature,
    artifact_bytes: u64,
    reference: Option<Reference>,
    /// Simulated cycles of the first run; every later run must agree.
    cycles: Option<u64>,
    fp_ops: u64,
    words_out: u64,
    queue_high_water: u64,
    best: Best,
}

/// How one engine run is shaped.
pub struct Plan {
    /// Seconds of timed requests.
    pub seconds: f64,
    /// Cold compiles of each instance to reach, adding compile-only
    /// requests if the timed requests gave fewer.
    pub compiles_per_instance: usize,
    /// Set-up rounds before the timed requests (at least one).
    pub setup_rounds: usize,
    /// More set-up rounds, spread evenly over the timed requests so the
    /// set-up time samples the machine across the whole run, not only
    /// its first fraction of a second. Short set-ups get more rounds, up
    /// to [`SETUP_SHARE`] of the run: the shorter a round, the more of
    /// it one burst of the machine covers.
    pub late_setups: usize,
    /// Record spans: requests alternate untraced and traced on the same
    /// instance so the tracing overhead can be measured.
    pub traced: bool,
    /// Flip one bit of the first simulated output word before checking
    /// it (the self-test of the correctness gate).
    pub corrupt: bool,
}

/// Everything one engine run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up round before the timed requests.
    pub setup_s: Vec<f64>,
    /// Seconds of each late set-up round.
    pub late_setup_s: Vec<f64>,
    /// Cold compiles taken, in requests and outside them.
    pub compiles: usize,
    /// Each instance's fastest times, in instance order.
    pub best: Vec<Best>,
    /// Untraced requests per instance; runs end on whole cycles over
    /// the instances, so every instance gets the same number.
    pub repeats: usize,
    /// Untraced requests taken.
    pub requests: usize,
    pub array_cycles: u64,
    pub ucode_words: u64,
    pub artifact_bytes: u64,
    /// Exact counts summed over the instance set.
    pub exact: Signature,
    pub fp_ops: u64,
    pub words_out: u64,
    pub queue_high_water: u64,
    /// The compiled instances, on traced runs only.
    pub modules: Vec<(Instance, CompiledModule)>,
}

/// Records each pass as a span, from the observer's own clock reads.
#[derive(Default)]
struct PassSpans {
    open: Option<(&'static str, Instant)>,
    done: Vec<(&'static str, Instant, Instant)>,
}

impl PassObserver for PassSpans {
    fn enter_pass(&mut self, name: &'static str) {
        self.open = Some((name, Instant::now()));
    }

    fn exit_pass(&mut self, name: &'static str, _elapsed: Duration, _artifact: &dyn Artifact) {
        let end = Instant::now();
        if let Some((open, start)) = self.open.take() {
            if open == name {
                self.done.push((name, start, end));
            }
        }
    }
}

fn as_inputs(owned: &[(String, Vec<f32>)]) -> Vec<(&str, &[f32])> {
    owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect()
}

fn compile(source: &str) -> Result<CompiledModule, String> {
    Session::new(CompileOptions::default())
        .try_compile(source)
        .map_err(|e| e.to_string().lines().next().unwrap_or("").to_owned())
}

/// A late set-up round: returns its seconds, or `None` if it failed
/// (the round records the failure itself).
pub type LateSetup<'a> = dyn FnMut(&mut Errors) -> Option<f64> + 'a;

/// One set-up round of the in-process workloads: draw the instances and
/// compile each once.
pub fn setup_round(
    draw: &dyn Fn() -> Vec<Instance>,
) -> (f64, Vec<Instance>, Vec<Option<CompiledModule>>) {
    let t = Instant::now();
    let instances = draw();
    let compiled = instances.iter().map(|i| compile(&i.source).ok()).collect();
    (t.elapsed().as_secs_f64(), instances, compiled)
}

/// The share of a run that late set-up rounds beyond
/// `Plan::late_setups` may take, and the most late rounds a run makes.
const SETUP_SHARE: f64 = 0.05;
const MAX_LATE_SETUPS: usize = 99;

/// Runs the engine over the instances `draw` makes. `draw` is part of
/// the timed set-up, which it repeats `plan.setup_rounds` times before
/// the requests; `late_setup` runs at least `plan.late_setups` more
/// rounds between them.
pub fn run(
    draw: &dyn Fn() -> Vec<Instance>,
    plan: &Plan,
    late_setup: &mut LateSetup,
    tracer: &mut Tracer,
    errors: &mut Errors,
) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: draw the instances and warm each one with a compile.
    // Every round must compile to the same canonical bytes.
    let mut instances = Vec::new();
    let mut compiled: Vec<Option<CompiledModule>> = Vec::new();
    let mut ids: Option<Vec<Option<(u64, u64)>>> = None;
    for _ in 0..plan.setup_rounds.max(1) {
        compiled.clear();
        let (seconds, drawn, modules) = setup_round(draw);
        (instances, compiled) = (drawn, modules);
        out.setup_s.push(seconds);
        let round: Vec<Option<(u64, u64)>> = compiled
            .iter()
            .map(|m| m.as_ref().map(artifact_id))
            .collect();
        if let Some(prev) = &ids {
            for (k, (a, b)) in prev.iter().zip(&round).enumerate() {
                if a != b {
                    errors.nondeterministic(format!(
                        "{}: canonical artifact bytes differ between two compiles",
                        instances[k].label()
                    ));
                }
            }
        }
        ids = Some(round);
    }

    let ids = ids.unwrap_or_default();
    let mut prepared: Vec<Prepared> = Vec::new();
    for ((inst, module), id) in instances.iter().zip(compiled).zip(ids) {
        errors.attempt();
        let (Some(module), Some((artifact_bytes, _))) = (module, id) else {
            errors.fail(
                inst,
                "compile failed",
                compile(&inst.source).err().unwrap_or_default(),
            );
            continue;
        };
        let inputs = audit::seeded_inputs(&module, inst.input_seed);
        let mut p = Prepared {
            inst,
            signature: Signature::of(&module),
            artifact_bytes,
            inputs,
            reference: None,
            cycles: None,
            fp_ops: 0,
            words_out: 0,
            queue_high_water: 0,
            best: Best::default(),
        };
        // The oracle reference, outside every timed region.
        errors.attempt();
        let start = Instant::now();
        match oracle(&inst.source, &module, &p.inputs) {
            Ok(r) => p.reference = Some(r),
            Err(e) => errors.fail(inst, "oracle failed", e),
        }
        tracer.span("oracle", 0, None, start, Instant::now());
        // Kept only for the traced run's daemon replay, so untraced
        // runs do not count them in peak memory.
        if plan.traced {
            out.modules.push((inst.clone(), module));
        }
        prepared.push(p);
    }
    if prepared.is_empty() {
        return out;
    }

    // Timed requests, round-robin over the instances.
    let pair = if plan.traced { 2 } else { 1 };
    let n = prepared.len();
    let min_compiles = plan.compiles_per_instance * n;
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let mut k = 0usize;
    let mut corrupt = plan.corrupt;
    let start = Instant::now();
    let mut filler = 0usize;
    let mut rotor = crate::affinity::Rotor::new();
    let mut late_done = 0usize;
    let mut late_s = 0.0;
    // Whole cycles only: every instance gets the same number of
    // samples, so a quantile cannot drift between two instances' costs
    // with where the clock happened to stop.
    while k < n * pair || Instant::now() < deadline || !k.is_multiple_of(n * pair) {
        if let Some(r) = rotor.as_mut() {
            r.tick();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let late_due = (elapsed / plan.seconds * (plan.late_setups + 1) as f64) as usize;
        while late_done < MAX_LATE_SETUPS
            && (late_done < late_due.min(plan.late_setups) || late_s < SETUP_SHARE * elapsed)
        {
            let t = Instant::now();
            out.late_setup_s.extend(late_setup(errors));
            late_s += t.elapsed().as_secs_f64();
            late_done += 1;
        }
        // Compile-only requests keep pace with the clock, so the
        // compile sample spans the whole run.
        let due = min_compiles as f64 * start.elapsed().as_secs_f64() / plan.seconds;
        while (out.compiles as f64) < due.min(min_compiles as f64) {
            compile_only(&mut prepared[filler % n], &mut out, errors);
            filler += 1;
        }
        let traced = plan.traced && k % 2 == 1;
        let p = &mut prepared[(k / pair) % n];
        k += 1;
        errors.attempt();
        let request = k as u64;
        let mut passes = PassSpans::default();
        let t0 = Instant::now();
        let module = if traced {
            Session::with_observer(CompileOptions::default(), &mut passes)
                .try_compile(&p.inst.source)
                .map_err(|e| e.to_string())
        } else {
            compile(&p.inst.source)
        };
        let t1 = Instant::now();
        let module = match module {
            Ok(m) => m,
            Err(e) => {
                errors.fail(p.inst, "compile failed", e);
                continue;
            }
        };
        let inputs = as_inputs(&p.inputs);
        let sim = module.run(&inputs);
        let t2 = Instant::now();
        let (native, tb) = if traced {
            let program = module.native_program();
            let tb = Instant::now();
            let mut host = HostMemory::new(&module.ir.vars);
            let bound = inputs.iter().try_for_each(|(n, d)| host.set(n, d));
            let run = match bound {
                Ok(()) => program
                    .run(host, &NativeOptions::default())
                    .map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            };
            (run, tb)
        } else {
            let run = module
                .run_native(&inputs, &NativeOptions::default())
                .map_err(|e| e.to_string());
            (run, t2)
        };
        let t3 = Instant::now();

        let req_ms = (t3 - t0).as_secs_f64() * 1e3;
        out.compiles += 1;
        lower(&mut p.best.compile_ms, (t1 - t0).as_secs_f64() * 1e3);
        if traced {
            lower(&mut p.best.traced_request_ms, req_ms);
            let root = tracer.span("request", request, None, t0, t3);
            let c = tracer.span("compile", request, Some(root), t0, t1);
            for (name, a, b) in &passes.done {
                tracer.span(&format!("pass.{name}"), request, Some(c), *a, *b);
            }
            tracer.span("sim", request, Some(root), t1, t2);
            let nat = tracer.span("native", request, Some(root), t2, t3);
            tracer.span("native.build", request, Some(nat), t2, tb);
            tracer.span("native.run", request, Some(nat), tb, t3);
        } else {
            out.requests += 1;
            lower(&mut p.best.request_ms, req_ms);
        }

        // Checks, outside the timed region.
        if Signature::of(&module) != p.signature {
            errors.nondeterministic(format!(
                "{}: exact compile counts changed between two compiles",
                p.inst.label()
            ));
        }
        match sim {
            Ok(mut report) => {
                if corrupt {
                    corrupt = false;
                    flip_first_output_word(&mut report, p.reference.as_ref());
                }
                match p.cycles {
                    None => {
                        p.cycles = Some(report.cycles);
                        p.fp_ops = report.fp_ops;
                        p.words_out = report.words_out;
                        p.queue_high_water =
                            report.queue_high_water.values().copied().max().unwrap_or(0);
                    }
                    Some(c) if c != report.cycles => errors.nondeterministic(format!(
                        "{}: simulated cycles changed between two runs ({c} then {})",
                        p.inst.label(),
                        report.cycles
                    )),
                    Some(_) => {}
                }
                lower(&mut p.best.sim_s, (t2 - t1).as_secs_f64());
                if let Some(d) = p
                    .reference
                    .as_ref()
                    .and_then(|r| r.first_divergence(&report))
                {
                    errors.fail(p.inst, "simulator disagrees with the oracle", d);
                }
            }
            Err(e) => errors.fail(p.inst, "simulator failed", e.to_string()),
        }
        match native {
            Ok(report) => {
                lower(&mut p.best.native_s, (t3 - t2).as_secs_f64());
                if let Some(d) = p
                    .reference
                    .as_ref()
                    .and_then(|r| r.first_divergence(&report))
                {
                    errors.fail(p.inst, "native backend disagrees with the oracle", d);
                }
            }
            Err(e) => errors.fail(p.inst, "native backend failed", e),
        }
    }

    while out.compiles < min_compiles || !filler.is_multiple_of(n) {
        if let Some(r) = rotor.as_mut() {
            r.tick();
        }
        compile_only(&mut prepared[filler % n], &mut out, errors);
        filler += 1;
    }

    while late_done < plan.late_setups {
        out.late_setup_s.extend(late_setup(errors));
        late_done += 1;
    }
    drop(rotor);

    let exact = &mut out.exact;
    for p in &prepared {
        let s = &p.signature;
        exact.cell_words += s.cell_words;
        exact.iu_words += s.iu_words;
        exact.host_words += s.host_words;
        exact.rewrite_hits += s.rewrite_hits;
        exact.modulo_loops += s.modulo_loops;
        exact.ii_sum += s.ii_sum;
        out.array_cycles += p.cycles.unwrap_or(0);
        out.artifact_bytes += p.artifact_bytes;
        out.fp_ops += p.fp_ops;
        out.words_out += p.words_out;
        out.queue_high_water = out.queue_high_water.max(p.queue_high_water);
        out.best.push(Best {
            cycles: p.cycles.unwrap_or(0),
            ..p.best
        });
    }
    out.repeats = k / (n * pair);
    out.ucode_words = out.exact.cell_words + out.exact.iu_words;
    out
}

/// One cold compile outside a request, checked against the instance's
/// exact counts.
fn compile_only(p: &mut Prepared, out: &mut Outcome, errors: &mut Errors) {
    let t = Instant::now();
    let module = compile(&p.inst.source);
    out.compiles += 1;
    lower(&mut p.best.compile_ms, t.elapsed().as_secs_f64() * 1e3);
    errors.attempt();
    match module {
        Ok(m) if Signature::of(&m) != p.signature => errors.nondeterministic(format!(
            "{}: exact compile counts changed between two compiles",
            p.inst.label()
        )),
        Ok(_) => {}
        Err(e) => errors.fail(p.inst, "compile failed", e),
    }
}

fn oracle(
    source: &str,
    module: &CompiledModule,
    inputs: &[(String, Vec<f32>)],
) -> Result<Reference, String> {
    let hir = w2_lang::parse_and_check(source).map_err(|d| d.to_string())?;
    let mut host = HostMemory::new(&module.ir.vars);
    for (name, data) in inputs {
        host.set(name, data).map_err(|e| e.to_string())?;
    }
    let run = warp_oracle::interpret_run(&hir, &host)?;
    let outs = hir
        .params
        .iter()
        .filter(|(_, dir)| *dir == w2_lang::ast::ParamDir::Out)
        .map(|(var, _)| {
            let name = hir.vars[*var].name.clone();
            let words = run.host.get(&name).map(bits).unwrap_or_default();
            (name, words)
        })
        .collect();
    let streams = run
        .streams
        .iter()
        .map(|(c, w)| (format!("{c:?}"), bits(w)))
        .collect();
    Ok(Reference { outs, streams })
}

/// Flips the lowest mantissa bit of the first word of the first `out`
/// parameter in a run's host memory.
fn flip_first_output_word(report: &mut RunReport, reference: Option<&Reference>) {
    let Some((name, _)) = reference.and_then(|r| r.outs.first()) else {
        return;
    };
    if let Ok(words) = report.host.get(name) {
        let mut words = words.to_vec();
        if let Some(w) = words.first_mut() {
            *w = f32::from_bits(w.to_bits() ^ 1);
            let _ = report.host.set(name, &words);
        }
    }
}
