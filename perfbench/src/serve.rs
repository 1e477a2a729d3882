//! The `serve` workload: a live `w2cd --listen` driven by two
//! closed-loop socket clients, and the in-process replay of a request
//! sequence against a `CompileDaemon` built with the same config.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use warp_common::{RealVfs, SplitMix64};
use warp_compiler::cache::{cache_key, estimate_module_bytes, CacheConfig};
use warp_compiler::daemon::{batch_report, CompileDaemon, DaemonConfig};
use warp_compiler::isolate::VALIDATE_SEED;
use warp_compiler::protocol::ClientSession;
use warp_compiler::service::ServiceConfig;
use warp_compiler::store::{self, DiskStore, StoreConfig};
use warp_compiler::{audit, CompileOptions, CompiledModule, ExecBackend, SessionCtrl};
use warp_native::NativeOptions;
use warp_service::{ExecutorConfig, ShutdownMode};

use crate::trace::Tracer;
use crate::universe::{Instance, Zipf};
use crate::Errors;

/// Client connections, and the daemon's `--workers`.
pub const CLIENTS: usize = 2;

/// The memory tier gets this share of the universe's footprint as the
/// cache estimates it, so the disk tier serves reads beside its writes.
const CACHE_SHARE: f64 = 0.5;

/// One request of the seeded sequence: a universe index and a backend.
pub type Draw = (usize, ExecBackend);

/// The request sequence of client `client`: Zipf(1) ranks, backend
/// sim or native with equal odds.
pub fn client_stream(seed: u64, client: usize, universe: usize) -> impl Iterator<Item = Draw> {
    let zipf = Zipf::new(universe);
    let mut rng = SplitMix64::new(seed ^ (0xc1 << 40) ^ client as u64);
    std::iter::from_fn(move || {
        let rank = zipf.sample(&mut rng);
        let backend = if rng.next_u64() & 1 == 0 {
            ExecBackend::Sim
        } else {
            ExecBackend::Native
        };
        Some((rank, backend))
    })
}

pub fn job_name(universe: &[Instance], index: usize) -> String {
    format!("r{index:02}-{}", universe[index].family)
}

fn source_path(dir: &Path, universe: &[Instance], index: usize) -> PathBuf {
    dir.join(format!("{}.w2", job_name(universe, index)))
}

/// Writes every universe source under `dir`.
pub fn write_sources(dir: &Path, universe: &[Instance]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for i in 0..universe.len() {
        std::fs::write(source_path(dir, universe, i), &universe[i].source)?;
    }
    Ok(())
}

/// The memory-tier byte budget for `modules`: `CACHE_SHARE` of their
/// estimated footprint, one entry per backend.
pub fn cache_bytes<'a>(modules: impl IntoIterator<Item = &'a CompiledModule>) -> u64 {
    let footprint: u64 = modules.into_iter().map(estimate_module_bytes).sum::<u64>() * 2;
    ((footprint as f64 * CACHE_SHARE) as u64).max(1)
}

/// The configuration `w2cd` starts with by default, with the given
/// workers, memory budget and store directory.
fn daemon_config(cache_bytes: u64, store_dir: &Path) -> DaemonConfig {
    DaemonConfig {
        service: ServiceConfig {
            exec: ExecutorConfig {
                queue_capacity: 64,
                deadline_ticks: 30_000_000,
                max_attempts: 1,
                breaker_threshold: 3,
                ..ExecutorConfig::default()
            },
            skew_max_events: 50_000_000,
            max_cell_cycles: 100_000_000,
            max_source_bytes: 4 * 1024 * 1024,
            workers: CLIENTS,
            supervise_grace_ticks: 10_000_000,
            supervise_interval_ms: 0,
        },
        cache: CacheConfig {
            byte_budget: cache_bytes,
            ..CacheConfig::default()
        },
        store: Some(StoreConfig::new(store_dir)),
    }
}

/// A running `w2cd --listen` child.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits for its listening line.
    pub fn spawn(exe: &Path, dir: &Path, cache_bytes: u64) -> Result<Daemon, String> {
        let socket = dir.join("w2cd.sock");
        let store = dir.join("store");
        let mut child = Command::new(exe)
            .arg("--listen")
            .arg(&socket)
            .args(["--workers", &CLIENTS.to_string()])
            .arg("--store-dir")
            .arg(&store)
            .args(["--cache-bytes", &cache_bytes.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("no daemon stdout")?;
        let _ = BufReader::new(stdout).read_line(&mut line);
        if !line.starts_with("w2cd listening") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {line:?}"));
        }
        Ok(Daemon { child, socket })
    }

    /// VmHWM of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to stop and waits until it has exited, killing
    /// it after ten seconds.
    pub fn stop(mut self, client: Option<&mut Client>) {
        if let Some(c) = client {
            let _ = c.send("shutdown");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One socket client session.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects and reads the ready banner, which ends with the
    /// `health:` line.
    pub fn connect(daemon: &Daemon) -> Result<Client, String> {
        let stream = UnixStream::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        loop {
            let line = client.line()?;
            if line.starts_with("health:") {
                return Ok(client);
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends one command and returns its first reply line.
    pub fn ask(&mut self, command: &str) -> Result<String, String> {
        self.send(command)?;
        self.line()
    }

    /// Skips replies until a `health` probe answers, so a reply of
    /// unexpected length cannot shift the next request's reads.
    fn resync(&mut self) -> Result<(), String> {
        self.send("health")?;
        loop {
            let line = self.line()?;
            if ["healthy", "degraded", "critical"]
                .iter()
                .any(|l| line.starts_with(l))
            {
                return Ok(());
            }
        }
    }
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub index: usize,
    pub backend: ExecBackend,
    pub start: f64,
    pub accepted: f64,
    pub end: f64,
    /// The job's execution time on its worker, from the batch summary.
    pub wall_ms: f64,
    pub traced: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Sends one `submit` + `run` and parses the summary: returns when
/// the daemon accepted the job and the job's worker time in ms. `Err`
/// carries the reason the request failed.
fn request(
    client: &mut Client,
    universe: &[Instance],
    dir: &Path,
    draw: Draw,
) -> Result<(Instant, f64), String> {
    let (index, backend) = draw;
    let name = job_name(universe, index);
    let path = source_path(dir, universe, index);
    let reply = client.ask(&format!("submit {name} {} {backend}", path.display()))?;
    let accepted = Instant::now();
    if !reply.starts_with("accepted ") {
        return Err(format!("submit: {reply}"));
    }
    let batch = client.ask("run")?;
    if batch != "batch: 1 ok (0 degraded), 0 failed, 0 timed out, 0 quarantined, 0 wedged"
        && batch != "batch: 1 ok (1 degraded), 0 failed, 0 timed out, 0 quarantined, 0 wedged"
    {
        client.resync()?;
        return Err(format!("run: {batch}"));
    }
    let job = client.line()?;
    let mut words = job.split_whitespace();
    let (Some(_), Some(label), Some(ticks)) = (words.next(), words.next(), words.next()) else {
        client.resync()?;
        return Err(format!("run: unreadable job line {job:?}"));
    };
    if label != "ok" && label != "degraded" {
        return Err(format!("run: job {label}"));
    }
    let wall_ms = ticks
        .parse::<f64>()
        .map_err(|_| format!("run: unreadable ticks in {job:?}"))?
        / 1e3;
    Ok((accepted, wall_ms))
}

/// What the live clients send: the universe, the directory holding its
/// sources, and the seed of the clients' request streams.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub universe: &'a [Instance],
    pub dir: &'a Path,
    pub seed: u64,
}

/// Everything the live phase measured.
#[derive(Default)]
pub struct Live {
    pub samples: Vec<Sample>,
    /// Requests completed per client, in order: the replay follows them.
    pub per_client: Vec<Vec<Draw>>,
    pub seconds: f64,
    pub counters: BTreeMap<String, f64>,
    pub peak_rss_mb: f64,
}

/// Drives the live daemon with `CLIENTS` closed-loop clients for
/// `seconds`, then reads its `cache`, `store` and `stats` counters.
pub fn live(
    daemon: &Daemon,
    clients: Vec<Client>,
    traffic: &Traffic,
    seconds: f64,
    traced: bool,
    tracer: &Tracer,
    errors: &mut Errors,
) -> (Live, Option<Client>) {
    let Traffic {
        universe,
        dir,
        seed,
    } = *traffic;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut done = Vec::new();
                    let mut failures = Vec::new();
                    for (k, draw) in client_stream(seed, c, universe.len()).enumerate() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let t0 = Instant::now();
                        let outcome = request(&mut client, universe, dir, draw);
                        let t2 = Instant::now();
                        done.push(draw);
                        match outcome {
                            Ok((accepted, wall_ms)) => samples.push(Sample {
                                index: draw.0,
                                backend: draw.1,
                                start: tracer.at(t0),
                                accepted: tracer.at(accepted),
                                end: tracer.at(t2),
                                wall_ms,
                                traced: traced && k % 2 == 1,
                            }),
                            Err(e) => failures.push((draw, e)),
                        }
                        if failures.len() > 100 {
                            break;
                        }
                    }
                    (client, samples, done, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut live = Live {
        seconds,
        ..Live::default()
    };
    let mut first = None;
    for (client, samples, done, failures) in results {
        for _ in &done {
            errors.attempt();
        }
        for ((index, backend), e) in failures {
            errors.fail(&universe[index], &format!("{backend} request failed"), e);
        }
        live.samples.extend(samples);
        live.per_client.push(done);
        first.get_or_insert(client);
    }
    if let Some(client) = first.as_mut() {
        for verb in ["cache", "store", "stats"] {
            match client.ask(verb) {
                Ok(line) => {
                    parse_counters(&line, verb, &mut live.counters);
                    if verb == "cache" {
                        if let Ok(disk) = client.line() {
                            parse_counters(&disk, "disk", &mut live.counters);
                        }
                    }
                }
                Err(e) => errors.note(format!("`{verb}` verb failed: {e}")),
            }
        }
    }
    live.peak_rss_mb = daemon.peak_rss_mb();
    (live, first)
}

/// Reads `key=value` words into `prefix.key` counters; a section word
/// such as `native:` switches the prefix.
fn parse_counters(line: &str, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let mut prefix = prefix.to_owned();
    for word in line.split_whitespace() {
        if let Some(section) = word.strip_suffix(':') {
            if section != "cache" && section != "store" && section != "disk" {
                prefix = section.to_owned();
            }
            continue;
        }
        if let Some((k, v)) = word.split_once('=') {
            if let Ok(v) = v.parse::<f64>() {
                out.insert(format!("{prefix}.{k}"), v);
            }
        }
    }
}

/// Everything the in-process replay measured.
#[derive(Default)]
pub struct Replay {
    pub requests: usize,
    pub tiers: BTreeMap<&'static str, usize>,
    pub queue_wait_ms: Vec<f64>,
    pub counters: BTreeMap<String, f64>,
}

/// Replays `sequence` serially against an in-process `CompileDaemon`
/// with `w2cd`'s config, through the line protocol's `submit`, so
/// counter deltas attribute each request to its cache tier. Also times
/// the store calls on every module it serves.
pub fn replay(
    universe: &[Instance],
    sequence: &[Draw],
    cache_bytes: u64,
    dir: &Path,
    tracer: &mut Tracer,
    errors: &mut Errors,
) -> Replay {
    let mut out = Replay::default();
    let src = dir.join("src");
    if let Err(e) = write_sources(&src, universe) {
        errors.note(format!("cannot write replay sources: {e}"));
        return out;
    }
    let daemon = CompileDaemon::with_system_clock(
        CompileOptions::default(),
        daemon_config(cache_bytes, &dir.join("store")),
    );
    let bench_store =
        match DiskStore::open(Arc::new(RealVfs), StoreConfig::new(dir.join("bench-store"))) {
            Ok(s) => Some(s),
            Err(e) => {
                errors.note(format!("cannot open the bench store: {e}"));
                None
            }
        };
    let mut session = ClientSession::new(&daemon);
    let mut stored: BTreeSet<(usize, bool)> = BTreeSet::new();
    for (j, &(index, backend)) in sequence.iter().enumerate() {
        let inst = &universe[index];
        errors.attempt();
        let request = 1_000_000 + j as u64;
        let name = format!("{}#{j}", job_name(universe, index));
        let line = format!(
            "submit {name} {} {backend}",
            source_path(&src, universe, index).display()
        );
        let before = (
            daemon.cache_stats(),
            daemon.store_stats().unwrap_or_default(),
        );
        let mut reply = Vec::new();
        let t0 = Instant::now();
        let handled = session.handle_line(&mut reply, &line);
        let t1 = Instant::now();
        let reply = String::from_utf8_lossy(&reply);
        let id = reply
            .trim_end()
            .strip_prefix(&format!("accepted {name} id="))
            .and_then(|id| id.parse::<usize>().ok());
        let (Ok(_), Some(id)) = (handled, id) else {
            errors.fail(inst, "replay submit failed", reply.trim_end().to_owned());
            continue;
        };
        let reports = daemon.wait(&[id]);
        let t2 = Instant::now();
        let wall_ms = reports.first().map_or(0.0, |r| r.wall_ticks as f64 / 1e3);
        let module = reports.first().and_then(|r| match &r.outcome {
            warp_service::JobOutcome::Success(s) => Some(s.value.clone()),
            _ => None,
        });
        let batch = batch_report(reports, daemon.quarantined_names());
        let t3 = Instant::now();
        if batch.failed() != 0 || !batch.is_healthy() || batch.succeeded() != 1 {
            errors.fail(inst, "replay request failed", batch.summary());
        }
        let after = (
            daemon.cache_stats(),
            daemon.store_stats().unwrap_or_default(),
        );
        let tier = if after.0.hits > before.0.hits {
            "memory"
        } else if after.1.hits > before.1.hits {
            "disk"
        } else {
            "miss"
        };
        *out.tiers.entry(tier).or_default() += 1;
        out.requests += 1;
        out.queue_wait_ms
            .push(((t2 - t1).as_secs_f64() * 1e3 - wall_ms).max(0.0));
        let root = tracer.span("replay.request", request, None, t0, t3);
        tracer.span("protocol.submit", request, Some(root), t0, t1);
        tracer.span("daemon.wait", request, Some(root), t1, t2);
        tracer.span("reply.batch_report", request, Some(root), t2, t3);

        let Some(module) = module else { continue };
        if backend == ExecBackend::Native {
            // The daemon's native validation, repeated where it can be
            // timed on its own.
            let owned = audit::seeded_inputs(&module, VALIDATE_SEED);
            let inputs: Vec<(&str, &[f32])> = owned
                .iter()
                .map(|(n, d)| (n.as_str(), d.as_slice()))
                .collect();
            let t = Instant::now();
            let run = module.run_native(&inputs, &NativeOptions::default());
            tracer.span("serve.native_validate", request, None, t, Instant::now());
            if let Err(e) = run {
                errors.fail(inst, "native validation failed", e.to_string());
            }
        }
        let key = (index, backend == ExecBackend::Native);
        if let (Some(s), true) = (&bench_store, stored.insert(key)) {
            let ctrl = SessionCtrl {
                backend,
                ..SessionCtrl::default()
            };
            let key = cache_key(&inst.source, &CompileOptions::default(), &ctrl);
            let t = Instant::now();
            let bytes = store::artifact_bytes(&module);
            let te = Instant::now();
            let put = s.put(key, &module);
            let tp = Instant::now();
            let got = s.get(key);
            let tg = Instant::now();
            tracer.span("store.encode", request, None, t, te);
            tracer.span("store.put", request, None, te, tp);
            tracer.span("store.get", request, None, tp, tg);
            match (put, got) {
                (Ok(()), Some(back)) if store::artifact_bytes(&back) == bytes => {}
                (Err(e), _) => errors.fail(inst, "store put failed", e.to_string()),
                _ => errors.fail(inst, "store get", "artifact did not round-trip".to_owned()),
            }
        }
    }
    let c = daemon.cache_stats();
    let d = daemon.store_stats().unwrap_or_default();
    let p = daemon.pool_stats();
    let n = daemon.native_stats();
    for (k, v) in [
        ("cache.hits", c.hits as f64),
        ("cache.lookups", c.lookups as f64),
        ("cache.evictions", c.evictions as f64),
        ("cache.coalesced", c.coalesced as f64),
        ("cache.bytes", c.resident_bytes as f64),
        ("disk.puts", d.puts as f64),
        ("disk.hits", d.hits as f64),
        ("disk.bytes", d.resident_bytes as f64),
        ("pool.max-queue-depth", p.max_queue_depth as f64),
        ("pool.shed", p.shed as f64),
        ("native.attempts", n.attempts as f64),
        ("native.fallbacks", n.fallbacks as f64),
    ] {
        out.counters.insert(k.to_owned(), v);
    }
    daemon.shutdown(ShutdownMode::Drain);
    out
}
