//! The repository benchmark: one named workload on one seed.
//!
//! ```text
//! perfbench --workload kernels|images|serve --seed N --seconds S --trace 0|1
//!           --w2cd PATH --work DIR [--smoke] [--corrupt]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it records spans around its calls into each layer and prints the
//! per-layer metrics, the span coverage and the tracing overhead. The
//! last line of standard output is one JSON object. `perfbench/run.py`
//! builds this binary and `w2cd`, then runs it.

mod affinity;
mod engine;
mod serve;
mod stats;
mod trace;
mod universe;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use stats::{mean, median, quantile, Sheet};
use trace::Tracer;
use universe::Instance;

/// Compile-pass names, in pipeline order.
const PASSES: [&str; 9] = [
    "frontend",
    "comm",
    "lower",
    "rewrite",
    "decompose",
    "cell-codegen",
    "skew",
    "iu-codegen",
    "host-codegen",
];

/// Cold compiles of each instance a run collects at least: enough that
/// the fastest of them is one the machine's bursts left alone.
const COMPILES_PER_INSTANCE: usize = 50;

/// Set-up rounds before the measured requests, and set-up rounds
/// spread over them; `setup_s` is the median of all of them.
const SETUP_ROUNDS: usize = 2;
const LATE_SETUPS: usize = 9;

/// Longest prefix of the `serve` request sequence the replay runs.
const REPLAY_REQUESTS: usize = 400;

/// The shortest traced span coverage a run accepts.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    w2cd: PathBuf,
    work: PathBuf,
    smoke: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        w2cd: PathBuf::new(),
        work: PathBuf::from(".bench_work"),
        smoke: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--w2cd" => args.w2cd = PathBuf::from(value()?),
            "--work" => args.work = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["kernels", "images", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be kernels, images or serve, not `{}`",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Failures counted against operations attempted. Every failure is
/// printed with its family, size and seed.
pub struct Errors {
    seed: u64,
    attempted: u64,
    failed: u64,
    nondeterministic: bool,
}

impl Errors {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, inst: &Instance, what: &str, detail: String) {
        self.failed += 1;
        println!(
            "error: {} size {} seed {} input-seed {:#x}: {what}: {detail}",
            inst.family, inst.size, self.seed, inst.input_seed
        );
    }

    /// An exact count or artifact that differed between two runs of
    /// one seed.
    pub fn nondeterministic(&mut self, detail: String) {
        self.failed += 1;
        self.nondeterministic = true;
        println!("error: seed {}: not deterministic: {detail}", self.seed);
    }

    /// A failure of the benchmark's own machinery.
    pub fn note(&mut self, detail: String) {
        self.attempted += 1;
        self.failed += 1;
        println!("error: seed {}: {detail}", self.seed);
    }

    fn rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB (0 if unreadable).
pub fn vm_hwm_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How big each workload's inputs are. The full-size instance counts
/// (35 kernels, 9 images) are odd, so the median over the instance set
/// is one instance's time, and the two costliest images differ only by
/// a few percent in size.
struct Shape {
    kernels_per_family: u32,
    images_per_family: u32,
    image_side: u32,
    image_step: u32,
    serve_side: u32,
    serve_step: u32,
}

impl Shape {
    fn new(smoke: bool) -> Shape {
        if smoke {
            Shape {
                kernels_per_family: 2,
                images_per_family: 1,
                image_side: 24,
                image_step: 8,
                serve_side: 8,
                serve_step: 8,
            }
        } else {
            Shape {
                kernels_per_family: 7,
                images_per_family: 3,
                image_side: 480,
                image_step: 16,
                serve_side: 160,
                serve_step: 96,
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut errors = Errors {
        seed: args.seed,
        attempted: 0,
        failed: 0,
        nondeterministic: false,
    };
    let mut tracer = Tracer::default();
    let (sheet, coverage_ok) = match args.workload.as_str() {
        "serve" => run_serve(&args, &dir, &mut tracer, &mut errors),
        images => run_in_process(&args, images == "images", &dir, &mut tracer, &mut errors),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        let path = args
            .work
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => errors.note(format!("cannot write {}: {e}", path.display())),
        }
    }

    sheet.print_lines();
    let finite = sheet.metrics.iter().all(|m| m.value.is_finite());
    let correct = errors.failed == 0 && !errors.nondeterministic && coverage_ok && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.attempted,
        errors.failed,
        sheet.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn engine_plan(args: &Args, seconds: f64, setup_rounds: usize) -> engine::Plan {
    engine::Plan {
        seconds,
        compiles_per_instance: if args.smoke { 2 } else { COMPILES_PER_INSTANCE },
        setup_rounds,
        late_setups: LATE_SETUPS,
        traced: args.trace,
        corrupt: args.corrupt,
    }
}

/// The `kernels` and `images` workloads.
fn run_in_process(
    args: &Args,
    images: bool,
    dir: &Path,
    tracer: &mut Tracer,
    errors: &mut Errors,
) -> (Sheet, bool) {
    let shape = Shape::new(args.smoke);
    let seed = args.seed;
    let (families, per_family): (&[&str], u32) = if images {
        (&universe::IMAGES, shape.images_per_family)
    } else {
        (&universe::KERNELS, shape.kernels_per_family)
    };
    let draw = move || {
        universe::draw(
            seed,
            families,
            per_family,
            shape.image_side,
            shape.image_step,
        )
    };
    let mut late = |errors: &mut Errors| {
        let (seconds, _, compiled) = engine::setup_round(&draw);
        if compiled.iter().any(Option::is_none) {
            errors.note("a set-up compile failed".to_owned());
            return None;
        }
        Some(seconds)
    };
    let out = engine::run(
        &draw,
        &engine_plan(args, args.seconds, SETUP_ROUNDS),
        &mut late,
        tracer,
        errors,
    );
    let mut sheet = Sheet::default();
    if !args.trace {
        end_to_end(&mut sheet, &out, None, errors);
        return (sheet, true);
    }
    let instances: Vec<Instance> = out.modules.iter().map(|(i, _)| i.clone()).collect();
    let sequence: Vec<serve::Draw> = (0..2)
        .flat_map(|_| 0..instances.len())
        .flat_map(|i| {
            [
                (i, warp_compiler::ExecBackend::Sim),
                (i, warp_compiler::ExecBackend::Native),
            ]
        })
        .collect();
    let replay = serve::replay(
        &instances,
        &sequence,
        serve::cache_bytes(out.modules.iter().map(|(_, m)| m)),
        dir,
        tracer,
        errors,
    );
    let overhead = out.best.iter().map(|b| b.traced_request_ms).sum::<f64>()
        / out.best.iter().map(|b| b.request_ms).sum::<f64>()
        - 1.0;
    let ok = per_layer(&mut sheet, &out, &replay, None, tracer, overhead, errors);
    (sheet, ok)
}

/// The `serve` workload.
fn run_serve(args: &Args, dir: &Path, tracer: &mut Tracer, errors: &mut Errors) -> (Sheet, bool) {
    let shape = Shape::new(args.smoke);
    let seed = args.seed;
    let draw = move || universe::serve_universe(seed, shape.serve_side, shape.serve_step);
    let src = dir.join("src");

    let mut setup_s = Vec::new();
    let mut running = None;
    for round in 0..SETUP_ROUNDS {
        match serve_setup(args, dir, round, &draw) {
            Ok(mut setup) => {
                setup_s.push(setup.seconds);
                if round + 1 < SETUP_ROUNDS {
                    setup.daemon.stop(setup.clients.first_mut());
                } else {
                    running = Some(setup);
                }
            }
            Err(e) => {
                errors.note(format!("daemon set-up failed: {e}"));
                return (Sheet::default(), false);
            }
        }
    }
    let Some(ServeSetup {
        universe,
        cache_bytes,
        daemon,
        clients,
        ..
    }) = running
    else {
        return (Sheet::default(), false);
    };

    // Live phase: half the run; the universe check takes the other half.
    let (live, mut client) = serve::live(
        &daemon,
        clients,
        &serve::Traffic {
            universe: &universe,
            dir: &src,
            seed,
        },
        args.seconds * 0.5,
        args.trace,
        tracer,
        errors,
    );
    daemon.stop(client.as_mut());
    let images = live
        .samples
        .iter()
        .filter(|s| universe[s.index].is_image())
        .count();
    let native = live
        .samples
        .iter()
        .filter(|s| s.backend == warp_compiler::ExecBackend::Native)
        .count();
    let n = live.samples.len().max(1) as f64;
    println!(
        "traffic: {} requests, image share {:.3}, native share {:.3}",
        live.samples.len(),
        images as f64 / n,
        native as f64 / n
    );

    let mut round = SETUP_ROUNDS;
    let mut late = |errors: &mut Errors| {
        round += 1;
        match serve_setup(args, dir, round, &draw) {
            Ok(mut setup) => {
                setup.daemon.stop(setup.clients.first_mut());
                Some(setup.seconds)
            }
            Err(e) => {
                errors.note(format!("daemon set-up failed: {e}"));
                None
            }
        }
    };
    let mut out = engine::run(
        &draw,
        &engine_plan(args, args.seconds * 0.5, 1),
        &mut late,
        tracer,
        errors,
    );
    // The engine's own set-up compiles the universe in-process; the
    // workload's set-up is the daemon's.
    out.setup_s = setup_s;
    let mut sheet = Sheet::default();
    if !args.trace {
        end_to_end(&mut sheet, &out, Some(&live), errors);
        return (sheet, true);
    }
    for (i, s) in live.samples.iter().enumerate().filter(|(_, s)| s.traced) {
        let request = 2_000_000 + i as u64;
        let root = tracer.push("serve.request", request, None, s.start, s.end);
        tracer.push("client.submit", request, Some(root), s.start, s.accepted);
        tracer.push("client.run", request, Some(root), s.accepted, s.end);
    }
    let mut sequence = Vec::new();
    let longest = live.per_client.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for c in &live.per_client {
            if let Some(d) = c.get(k) {
                sequence.push(*d);
            }
        }
    }
    sequence.truncate(REPLAY_REQUESTS);
    let replay = serve::replay(
        &universe,
        &sequence,
        cache_bytes,
        &dir.join("replay"),
        tracer,
        errors,
    );
    let traced: Vec<f64> = live
        .samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.ms())
        .collect();
    let untraced: Vec<f64> = live
        .samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.ms())
        .collect();
    let overhead = median(&nonempty(&traced)) / median(&nonempty(&untraced)) - 1.0;
    let ok = per_layer(
        &mut sheet,
        &out,
        &replay,
        Some(&live),
        tracer,
        overhead,
        errors,
    );
    (sheet, ok)
}

/// A finished `serve` set-up round.
struct ServeSetup {
    seconds: f64,
    universe: Vec<Instance>,
    /// The memory tier's byte budget.
    cache_bytes: u64,
    daemon: serve::Daemon,
    clients: Vec<serve::Client>,
}

/// One `serve` set-up round: draw the universe, size the memory tier
/// from its in-process compiles, write its sources, spawn the daemon and
/// wait until both clients have read the ready banner and answered a
/// `health` round trip.
fn serve_setup(
    args: &Args,
    dir: &Path,
    round: usize,
    draw: &dyn Fn() -> Vec<Instance>,
) -> Result<ServeSetup, String> {
    let round_dir = dir.join(format!("daemon{round}"));
    let t = Instant::now();
    let universe = draw();
    let modules: Vec<_> = universe
        .iter()
        .filter_map(|i| {
            warp_compiler::Session::new(warp_compiler::CompileOptions::default())
                .try_compile(&i.source)
                .ok()
        })
        .collect();
    if modules.len() != universe.len() {
        return Err("a serve universe program did not compile".to_owned());
    }
    let cache_bytes = serve::cache_bytes(&modules);
    serve::write_sources(&dir.join("src"), &universe).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&round_dir).map_err(|e| e.to_string())?;
    let daemon = serve::Daemon::spawn(&args.w2cd, &round_dir, cache_bytes)?;
    let clients = (0..serve::CLIENTS)
        .map(|_| {
            let mut c = serve::Client::connect(&daemon)?;
            c.ask("health")?;
            Ok(c)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ServeSetup {
        seconds: t.elapsed().as_secs_f64(),
        universe,
        cache_bytes,
        daemon,
        clients,
    })
}

/// The end-to-end metrics of an untraced run. `live` holds the socket
/// clients' requests on `serve`; elsewhere a request is one in-process
/// compile + sim run + native run.
fn end_to_end(
    sheet: &mut Sheet,
    out: &engine::Outcome,
    live: Option<&serve::Live>,
    errors: &Errors,
) {
    let setup: Vec<f64> = out
        .setup_s
        .iter()
        .chain(&out.late_setup_s)
        .copied()
        .collect();
    let setup = nonempty(&setup);
    sheet.put_sampled("setup_s", median(&setup), "s", setup.len());
    // Timings are each instance's fastest (see `engine::Best`); the
    // quantiles and rates are taken over the instance set.
    let best = |f: fn(&engine::Best) -> f64| -> Vec<f64> { out.best.iter().map(f).collect() };
    println!(
        "timings: fastest of {} requests per instance over {} instances",
        out.repeats,
        out.best.len()
    );
    let compile = nonempty(&best(|b| b.compile_ms));
    sheet.put_sampled(
        "compile_p50_ms",
        quantile(&compile, 0.5),
        "ms",
        out.compiles,
    );
    sheet.put_sampled(
        "compile_p90_ms",
        quantile(&compile, 0.9),
        "ms",
        out.compiles,
    );
    let cycles: f64 = out.best.iter().map(|b| b.cycles as f64).sum();
    let sim_s: f64 = best(|b| b.sim_s).iter().sum();
    let native_s: f64 = best(|b| b.native_s).iter().sum();
    sheet.put("sim_mcycles_per_s", cycles / sim_s / 1e6, "Mcycles/s");
    sheet.put("native_mcycles_per_s", cycles / native_s / 1e6, "Mcycles/s");
    sheet.put("array_cycles", out.array_cycles as f64, "cycles");
    sheet.put("ucode_words", out.ucode_words as f64, "words");
    sheet.put("artifact_bytes", out.artifact_bytes as f64, "bytes");
    let (requests, taken, per_s, rss) = match live {
        Some(l) => {
            let ms: Vec<f64> = l.samples.iter().map(serve::Sample::ms).collect();
            let n = ms.len();
            (ms, n, n as f64 / l.seconds, l.peak_rss_mb)
        }
        None => {
            // Each part at its fastest: the parts are timed apart, so a
            // burst during one part does not spoil the others.
            let ms = best(|b| b.compile_ms + (b.sim_s + b.native_s) * 1e3);
            let per_s = ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
            let rss = vm_hwm_mb("/proc/self/status");
            (ms, out.requests, per_s, rss)
        }
    };
    let requests = nonempty(&requests);
    sheet.put_sampled("req_p50_ms", quantile(&requests, 0.5), "ms", taken);
    sheet.put_sampled("req_p99_ms", quantile(&requests, 0.99), "ms", taken);
    sheet.put("req_per_s", per_s, "1/s");
    sheet.put("peak_rss_mb", rss, "MB");
    sheet.put("ok_ratio", 1.0 - errors.rate(), "ratio");
    println!(
        "metric error_rate = {} ratio ({} of {} failed)",
        errors.rate(),
        errors.failed,
        errors.attempted
    );
}

/// NaN in place of an empty sample, so the run reports a broken metric
/// instead of panicking.
fn nonempty(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        vec![f64::NAN]
    } else {
        xs.to_vec()
    }
}

/// The per-layer metrics of a traced run. Returns whether every root
/// span kind is covered by its layer spans for at least
/// `MIN_COVERAGE` of its time.
fn per_layer(
    sheet: &mut Sheet,
    out: &engine::Outcome,
    replay: &serve::Replay,
    live: Option<&serve::Live>,
    tracer: &Tracer,
    overhead: f64,
    errors: &Errors,
) -> bool {
    let layers = tracer.by_name();
    for pass in PASSES {
        sheet.put(
            format!("pass.{pass}.ms"),
            layers.mean_ms(&format!("pass.{pass}")),
            "ms",
        );
    }
    sheet.put("session.overhead.ms", layers.mean_self_ms("compile"), "ms");
    let exact = &out.exact;
    sheet.put("rewrite.hits", exact.rewrite_hits as f64, "count");
    sheet.put("modulo.loops", exact.modulo_loops as f64, "count");
    sheet.put("modulo.ii_sum", exact.ii_sum as f64, "cycles");
    sheet.put("ucode.cell_words", exact.cell_words as f64, "words");
    sheet.put("ucode.iu_words", exact.iu_words as f64, "words");
    sheet.put("host.words", exact.host_words as f64, "words");
    sheet.put("sim.ms", layers.mean_ms("sim"), "ms");
    sheet.put("sim.fp_ops", out.fp_ops as f64, "count");
    sheet.put("sim.words_out", out.words_out as f64, "words");
    sheet.put("sim.queue_high_water", out.queue_high_water as f64, "words");
    sheet.put("native.build.ms", layers.mean_ms("native.build"), "ms");
    sheet.put("native.run.ms", layers.mean_ms("native.run"), "ms");
    sheet.put("oracle.ms", layers.mean_ms("oracle"), "ms");
    sheet.put("store.encode.ms", layers.mean_ms("store.encode"), "ms");
    sheet.put("store.put.ms", layers.mean_ms("store.put"), "ms");
    sheet.put("store.get.ms", layers.mean_ms("store.get"), "ms");

    // Daemon counters: the live daemon's verbs on `serve`, the replay
    // daemon's elsewhere.
    let counters = live.map_or(&replay.counters, |l| &l.counters);
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    let hit_ratio = counter("cache.hits") / counter("cache.lookups").max(1.0);
    sheet.put("store.puts", counter("disk.puts"), "count");
    sheet.put("store.hits", counter("disk.hits"), "count");
    sheet.put("store.resident_bytes", counter("disk.bytes"), "bytes");
    sheet.put("cache.hit_ratio", hit_ratio, "ratio");
    sheet.put("cache.evictions", counter("cache.evictions"), "count");
    sheet.put("cache.coalesced", counter("cache.coalesced"), "count");
    sheet.put("cache.resident_bytes", counter("cache.bytes"), "bytes");
    let (submit_ms, queue_wait_ms) = match live {
        Some(l) => (
            mean(
                &l.samples
                    .iter()
                    .map(|s| (s.accepted - s.start) * 1e3)
                    .collect::<Vec<_>>(),
            ),
            mean(
                &l.samples
                    .iter()
                    .map(|s| ((s.end - s.accepted) * 1e3 - s.wall_ms).max(0.0))
                    .collect::<Vec<_>>(),
            ),
        ),
        None => (
            layers.mean_ms("protocol.submit"),
            mean(&replay.queue_wait_ms),
        ),
    };
    sheet.put("pool.queue_wait.ms", queue_wait_ms, "ms");
    sheet.put(
        "pool.max_queue_depth",
        counter("pool.max-queue-depth"),
        "count",
    );
    sheet.put("pool.shed", counter("pool.shed"), "count");
    sheet.put("protocol.submit.ms", submit_ms, "ms");
    sheet.put(
        "reply.batch_report.ms",
        layers.mean_ms("reply.batch_report"),
        "ms",
    );
    sheet.put(
        "serve.native_validate.ms",
        layers.mean_ms("serve.native_validate"),
        "ms",
    );
    sheet.put("native.attempts", counter("native.attempts"), "count");
    sheet.put("native.fallbacks", counter("native.fallbacks"), "count");
    let share = |tier: &str| {
        replay.tiers.get(tier).copied().unwrap_or(0) as f64 / replay.requests.max(1) as f64
    };
    sheet.put("tier.memory_share", share("memory"), "ratio");
    sheet.put("tier.disk_share", share("disk"), "ratio");
    sheet.put("tier.miss_share", share("miss"), "ratio");

    let mut coverage = f64::INFINITY;
    for root in ["request", "serve.request", "replay.request"] {
        if layers.count(root) > 0 {
            let c = tracer.coverage(root);
            println!("coverage {root}: {:.4} of {} spans", c, layers.count(root));
            coverage = coverage.min(c);
        }
    }
    if !coverage.is_finite() {
        coverage = 0.0;
    }
    sheet.put("trace.coverage", coverage, "ratio");
    sheet.put("trace.overhead", overhead, "ratio");
    sheet.put("error_rate", errors.rate(), "ratio");
    println!(
        "tracing overhead: {:+.2}% of request time",
        overhead * 100.0
    );
    if coverage < MIN_COVERAGE {
        println!(
            "error: layer spans cover {coverage:.4} of traced request time, below {MIN_COVERAGE}"
        );
        return false;
    }
    true
}
