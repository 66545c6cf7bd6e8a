//! `jobserver`: spawn the `server` binary with two in-process workers
//! and no ledger, then run one closed-loop client: submit a Phase A job
//! of ~250 faults in 4 shards (one 64-lane batch each), wait for its
//! `job_done` event, fetch the merged result, and only then submit the
//! next. Each merged result must equal an in-process `sbst::flow` run of
//! the same spec.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::client;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow;
use sbst::jobs::{self, CampaignJobSpec};
use sbst::phases::Phase;
use serde_json::{Map, Value};

use crate::grade::{self, CYCLE_MARGIN};
use crate::measure::{self, Checks, Spans};
use crate::{sample_seed, Args, Metrics};

/// Fault-sample target: small enough that 4 shards of the sampled list
/// hold at most 63 faults each, one 64-lane batch per shard.
pub const SAMPLE: usize = 240;
pub const SHARDS: usize = 4;
pub const LANES: usize = 64;
pub const WORKERS: usize = 2;
/// Distinct job specs a run cycles through (each checked against its
/// own in-process reference).
const SPECS: u64 = 4;
/// Jobs per timed block; `wall_s` is the median block time.
const BLOCK: usize = 8;
/// At least this many jobs per run, so `job_p75_s` has ten samples
/// above it.
const MIN_JOBS: usize = 40;
/// Server spawns per run; `setup_s` is their median.
const SPAWNS: usize = 9;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `server` process, killed and reaped on drop.
struct Server {
    child: Child,
    base: String,
    fingerprint: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait until it announces its port. Returns
    /// the server and the seconds from spawn to announcement.
    fn spawn(bin: &std::path::Path) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // Every knob is in the job spec; the environment is pinned too.
        // One malloc arena: with glibc's per-thread arenas the server's
        // peak RSS jumps by several MiB depending on which thread grew
        // its arena first, which would hide a real change in memory use.
        measure::pin_env(&mut cmd).env("MALLOC_ARENA_MAX", "1");
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Read the announcement, then keep draining stderr so the
        // server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut announced = false;
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if !announced && line.contains("listening on http://") {
                    announced = true;
                    let _ = tx.send(line);
                }
            }
        });
        let mut server = Server {
            child,
            base: String::new(),
            fingerprint: String::new(),
            drain: Some(drain),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "the server never announced its port".to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .ok_or_else(|| format!("bad announcement: {line}"))?;
        server.base = format!("http://{addr}");
        server.fingerprint = line
            .split("netlist ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_default()
            .to_string();
        Ok((server, secs))
    }

    fn peak_rss_mb(&self) -> f64 {
        measure::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// A finished (or failed) job as the client saw it.
struct Done {
    id: String,
    ok: bool,
    at: Instant,
}

/// Subscribe to `/events` and forward every `job_done` / `job_failed`
/// with its arrival time. The thread ends when the stream closes or
/// `stop` is set.
fn listen(base: &str, stop: Arc<AtomicBool>) -> Result<(Receiver<Done>, JoinHandle<()>), String> {
    let authority = client::authority(base);
    let mut stream =
        TcpStream::connect(&authority).map_err(|e| format!("connect {authority}: {e}"))?;
    write!(stream, "GET /events HTTP/1.1\r\nHost: {authority}\r\n\r\n")
        .map_err(|e| format!("subscribe: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while !stop.load(Ordering::Relaxed) {
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                // A timed-out read keeps any partial line in `line`.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(_) => break,
            }
            let at = Instant::now();
            if let Some(data) = line.trim_end().strip_prefix("data: ") {
                if let Ok(ev) = serde_json::from_str(data) {
                    let ev: Value = ev;
                    let kind = ev["ev"].as_str().unwrap_or_default();
                    if kind == "job_done" || kind == "job_failed" {
                        let id = ev["job"].as_str().unwrap_or_default().to_string();
                        let _ = tx.send(Done {
                            id,
                            ok: kind == "job_done",
                            at,
                        });
                    }
                }
            }
            line.clear();
        }
    });
    Ok((rx, handle))
}

/// The job spec of job `i`: Phase A, every knob explicit.
fn spec(sample_seed: u64, i: u64) -> CampaignJobSpec {
    CampaignJobSpec {
        phase: Phase::A,
        fault_sample: Some(SAMPLE),
        seed: sample_seed ^ (i % SPECS).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        cycle_margin: CYCLE_MARGIN,
        engine: fault::EngineConfig::compiled(LANES),
        threads: 1,
        shards: SHARDS,
    }
}

/// What one closed-loop stretch of jobs observed.
#[derive(Default)]
struct Loop {
    latencies: Vec<f64>,
    blocks: Vec<f64>,
    rtts: Vec<f64>,
    faults: u64,
    elapsed: f64,
    /// (spec index, conformance digest) per finished job.
    results: Vec<(u64, String)>,
}

/// Submit jobs one at a time for `seconds` (and at least `MIN_JOBS`).
fn closed_loop(
    server: &Server,
    events: &Receiver<Done>,
    seed: u64,
    tag: &str,
    seconds: f64,
    spans: &Spans,
    checks: &mut Checks,
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let mut block_start = start;
    for i in 0u64.. {
        if (start.elapsed().as_secs_f64() >= seconds && out.latencies.len() >= MIN_JOBS)
            || start.elapsed() > Duration::from_secs(150)
        {
            break;
        }
        let s = spec(seed, i);
        let id = format!("pb-{tag}-{i}");
        let mut doc = bench::server::spec_json(&server.fingerprint, &s);
        if let Value::Object(o) = &mut doc {
            o.insert("id".into(), Value::String(id.clone()));
        }
        let t0 = Instant::now();
        let (ack, _) = spans.time("client.submit_job", || {
            client::submit_job(&server.base, &doc)
        });
        // A failed job fails the run; stop rather than retry.
        if let Err((status, body)) = ack {
            checks.check(false, || format!("job {id} refused: {status} {body}"));
            break;
        }
        let (done, _) = spans.time("client.wait_job_done", || wait_done(events, &id, t0));
        let Some(at) = done else {
            checks.check(false, || format!("job {id} failed or timed out"));
            break;
        };
        out.latencies.push((at - t0).as_secs_f64());
        let (result, _) = spans.time("client.fetch_result", || {
            client::fetch_result(&server.base, &id)
        });
        let (status, rtt) = spans.time("client.get_status", || {
            client::get(&server.base, &format!("/jobs/{id}")).map(|(code, _)| code)
        });
        out.rtts.push(rtt);
        match (result, status) {
            (Ok(doc), Ok(200)) => {
                out.faults += doc["conformance"]["faults"].as_u64().unwrap_or(0);
                out.results
                    .push((i % SPECS, measure::digest_json(&doc["conformance"])));
            }
            (r, st) => checks.check(false, || {
                format!("job {id}: result {:?}, status {:?}", r.err(), st.ok())
            }),
        }
        if out.latencies.len() % BLOCK == 0 {
            out.blocks.push(block_start.elapsed().as_secs_f64());
            block_start = Instant::now();
        }
    }
    out.elapsed = start.elapsed().as_secs_f64();
    out
}

/// Wait for job `id`'s terminal event; `Some(arrival)` when it is done.
fn wait_done(events: &Receiver<Done>, id: &str, since: Instant) -> Option<Instant> {
    loop {
        let left = JOB_TIMEOUT.checked_sub(since.elapsed())?;
        match events.recv_timeout(left) {
            Ok(d) if d.id == id => return d.ok.then_some(d.at),
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// Compare every job's merged result with an in-process `sbst::flow`
/// run of the same spec.
fn check_results(
    core: &PlasmaCore,
    fingerprint: &str,
    seed: u64,
    runs: &[Loop],
    checks: &mut Checks,
    digests: &mut Map,
) {
    for k in 0..SPECS {
        let s = spec(seed, k);
        let opts = grade::flow_options(SAMPLE, s.seed, LANES);
        let report = flow::run_flow(core, s.phase, &opts);
        let reference = bench::server::conformance_json(
            fingerprint,
            s.phase,
            report.golden_cycles + s.cycle_margin,
            &report.campaign,
            &report.coverage,
        );
        let want = measure::digest_json(&reference);
        for run in runs {
            for (_, got) in run.results.iter().filter(|(idx, _)| *idx == k) {
                checks.check(*got == want, || {
                    format!("spec {k}: merged result {got} != in-process flow {want}")
                });
            }
        }
        digests.insert(format!("spec{k}"), Value::String(want));
    }
}

/// Mean of a Prometheus histogram's observations, in its own unit.
fn prom_mean(text: &str, family: &str, labels: &str) -> f64 {
    let sum = prom_value(text, &format!("{family}_sum{labels}"));
    let count = prom_value(text, &format!("{family}_count{labels}"));
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// The value of the sample line `series value`, 0 when absent.
fn prom_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(series))
        .find_map(|rest| rest.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

pub fn run(
    args: &Args,
    spans: &Spans,
    checks: &mut Checks,
    metrics: &mut Metrics,
    digests: &mut Map,
) {
    let seed = sample_seed(args.seed);
    let mut spawns = Vec::new();
    let mut server = None;
    for _ in 0..SPAWNS {
        drop(server.take());
        match spans
            .time("server.spawn", || Server::spawn(&args.server_bin))
            .0
        {
            Ok((s, secs)) => {
                spawns.push(secs);
                server = Some(s);
            }
            Err(e) => {
                checks.check(false, || e);
                return;
            }
        }
    }
    let server = server.expect("spawned");
    metrics.set("setup_s", measure::median(&spawns));
    metrics.samples("setup_s", &spawns);

    let core = PlasmaCore::build(PlasmaConfig::default());
    let fingerprint = bench::netlist_fingerprint(&core);
    checks.check(fingerprint == server.fingerprint, || {
        format!(
            "server grades `{}`, this core is `{fingerprint}`",
            server.fingerprint
        )
    });
    let mut prepare_s = Vec::new();
    for k in 0..SPECS {
        let (job, secs) = spans.time("sbst.jobs.prepare", || jobs::prepare(&core, &spec(seed, k)));
        prepare_s.push(secs);
        checks.check(job.bounds.iter().all(|(lo, hi)| hi - lo < LANES), || {
            format!(
                "spec {k}: a shard holds more than {} faults: {:?}",
                LANES - 1,
                job.bounds
            )
        });
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (events, listener) = match listen(&server.base, Arc::clone(&stop)) {
        Ok(l) => l,
        Err(e) => {
            checks.check(false, || e);
            return;
        }
    };
    let quiet = Spans::new(false);
    let runs: Vec<Loop> = if args.trace {
        // The same stretch untraced and traced, for the overhead ratio.
        let half = args.seconds / 2.0;
        let a = closed_loop(&server, &events, seed, "u", half, &quiet, checks);
        let b = closed_loop(&server, &events, seed, "t", half, spans, checks);
        vec![a, b]
    } else {
        vec![closed_loop(
            &server,
            &events,
            seed,
            "u",
            args.seconds,
            &quiet,
            checks,
        )]
    };
    let metrics_text = spans
        .time("client.scrape_metrics", || {
            client::get(&server.base, "/metrics")
        })
        .0
        .map(|(_, body)| body)
        .unwrap_or_default();
    let rss = server.peak_rss_mb();
    stop.store(true, Ordering::Relaxed);
    drop(server);
    let _ = listener.join();

    spans.time("reference.flow", || {
        check_results(&core, &fingerprint, seed, &runs, checks, digests)
    });
    let all = |f: fn(&Loop) -> &Vec<f64>| {
        runs.iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let latencies = all(|r| &r.latencies);
    if latencies.is_empty() {
        checks.check(false, || "no job finished".into());
        return;
    }
    if args.trace {
        metrics.set("jobs.prepare_ms", 1e3 * measure::median(&prepare_s));
        let family = "sbst_server_phase_latency_us";
        for phase in ["queue", "claim", "grade", "merge", "finalize"] {
            let labels = format!("{{phase=\"{phase}\"}}");
            metrics.set(
                &format!("server.{phase}_ms"),
                prom_mean(&metrics_text, family, &labels) / 1e3,
            );
        }
        // Critical-path grading: the shards' total grade time spread
        // over the workers.
        let jobs_done = prom_value(&metrics_text, "sbst_server_jobs_completed_total").max(1.0);
        let grade_sum_ms =
            prom_value(&metrics_text, &format!("{family}_sum{{phase=\"grade\"}}")) / 1e3;
        let critical_ms = grade_sum_ms / jobs_done / WORKERS.min(SHARDS) as f64;
        let mean_latency_ms = 1e3 * latencies.iter().sum::<f64>() / latencies.len() as f64;
        metrics.set("server.overhead_ms", mean_latency_ms - critical_ms);
        metrics.set(
            "server.poll_rtt_ms",
            1e3 * measure::median(&all(|r| &r.rtts)),
        );
        metrics.set(
            "server.steals",
            prom_value(&metrics_text, "sbst_server_shards_stolen_total"),
        );
        metrics.set(
            "obs.events_dropped",
            prom_value(&metrics_text, "obs_events_dropped_total"),
        );
        let per_job = |r: &Loop| r.elapsed / r.latencies.len().max(1) as f64;
        metrics.set(
            "obs.trace_overhead_frac",
            per_job(&runs[1]) / per_job(&runs[0]) - 1.0,
        );
    } else {
        let r = &runs[0];
        let blocks = if r.blocks.is_empty() {
            vec![r.elapsed]
        } else {
            r.blocks.clone()
        };
        metrics.set("wall_s", measure::median(&blocks));
        metrics.set("faults_per_s", r.faults as f64 / r.elapsed);
        metrics.set("job_p50_s", measure::median(&latencies));
        metrics.set("job_p75_s", measure::quantile(&latencies, 0.75));
        metrics.set("jobs_per_s", latencies.len() as f64 / r.elapsed);
        metrics.set("peak_rss_mb", rss);
        metrics.samples("job_s", &latencies);
        metrics.samples("block_s", &blocks);
    }
}
