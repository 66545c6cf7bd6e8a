//! Chrome trace-event export: the [`Tracer`](crate::Tracer) JSONL stream
//! and the 7-phase hot-loop profile rendered as Perfetto-compatible
//! trace-event JSON (`{"traceEvents":[...]}`), one track per worker
//! thread, loadable in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Mapping:
//! - `<kind>_begin` / `<kind>_end` pairs (per thread, per kind, LIFO)
//!   become `ph:"X"` complete slices named `<kind>`, merging the fields
//!   of both endpoints.
//! - `batch` events carrying `dur_us` become per-worker `batch` slices;
//!   without a duration they degrade to instants. Each batch also feeds
//!   the `coverage_pct` and `mlane_cycles_per_sec` counter tracks
//!   (`ph:"C"`), computed cumulatively against the fault total and lane
//!   width announced by `campaign_begin`.
//! - `campaign_begin`/`campaign_end` are synthesized into one top-level
//!   `campaign` slice spanning the whole run.
//! - any other event carrying `dur_us` becomes a complete slice ending
//!   at its timestamp; the rest become thread-scoped instants (`ph:"i"`).
//! - an optional [`PhaseProfile`] is appended as a synthetic
//!   "hot-loop phases" track (pid 2): one slice per phase, widths
//!   proportional to attributed wall time.
//!
//! [`render_fleet`] merges streams from *several processes* (the job
//! coordinator plus every worker process that shipped spans to
//! `POST /spans`) into one trace: each [`ProcessStream`] renders under
//! its own pid with a `process_name` metadata record, so a sharded job
//! appears as one waterfall with a track group per process. Worker
//! streams are expected to have been rebased onto the coordinator's
//! clock (the claim response carries `now_us` for exactly that).
//!
//! Keys are written in a fixed order (`name`, `ph`, `pid`, `tid`, `ts`,
//! `dur`, `s`, `args`) so the output is byte-stable for golden tests.

use std::io;
use std::path::{Path, PathBuf};

use serde_json::{Map, Value};

use crate::profile::{PhaseProfile, ProfilePhase};

/// Process id used for real tracer events (the only/coordinator process).
pub const PID_TRACE: u64 = 1;
/// Process id of the synthetic hot-loop phase track.
const PID_PHASES: u64 = 2;
/// First pid available to fleet worker processes (1 and 2 are taken).
pub const PID_FLEET_BASE: u64 = 3;

fn push_key(m: &mut Map, k: &str, v: Value) {
    m.insert(k.to_string(), v);
}

fn complete(name: &str, pid: u64, tid: u64, ts_us: u64, dur_us: u64, args: Map) -> Value {
    let mut m = Map::new();
    push_key(&mut m, "name", Value::String(name.to_string()));
    push_key(&mut m, "ph", Value::String("X".to_string()));
    push_key(&mut m, "pid", Value::U64(pid));
    push_key(&mut m, "tid", Value::U64(tid));
    push_key(&mut m, "ts", Value::U64(ts_us));
    push_key(&mut m, "dur", Value::U64(dur_us.max(1)));
    push_key(&mut m, "args", Value::Object(args));
    Value::Object(m)
}

fn instant(name: &str, pid: u64, tid: u64, ts_us: u64, args: Map) -> Value {
    let mut m = Map::new();
    push_key(&mut m, "name", Value::String(name.to_string()));
    push_key(&mut m, "ph", Value::String("i".to_string()));
    push_key(&mut m, "pid", Value::U64(pid));
    push_key(&mut m, "tid", Value::U64(tid));
    push_key(&mut m, "ts", Value::U64(ts_us));
    push_key(&mut m, "s", Value::String("t".to_string()));
    push_key(&mut m, "args", Value::Object(args));
    Value::Object(m)
}

fn counter(name: &str, pid: u64, ts_us: u64, series: &str, value: f64) -> Value {
    let mut args = Map::new();
    push_key(&mut args, series, Value::F64(value));
    let mut m = Map::new();
    push_key(&mut m, "name", Value::String(name.to_string()));
    push_key(&mut m, "ph", Value::String("C".to_string()));
    push_key(&mut m, "pid", Value::U64(pid));
    push_key(&mut m, "tid", Value::U64(0));
    push_key(&mut m, "ts", Value::U64(ts_us));
    push_key(&mut m, "args", Value::Object(args));
    Value::Object(m)
}

fn thread_name(pid: u64, tid: u64, label: &str) -> Value {
    let mut args = Map::new();
    push_key(&mut args, "name", Value::String(label.to_string()));
    let mut m = Map::new();
    push_key(&mut m, "name", Value::String("thread_name".to_string()));
    push_key(&mut m, "ph", Value::String("M".to_string()));
    push_key(&mut m, "pid", Value::U64(pid));
    push_key(&mut m, "tid", Value::U64(tid));
    push_key(&mut m, "args", Value::Object(args));
    Value::Object(m)
}

fn process_name(pid: u64, label: &str) -> Value {
    let mut args = Map::new();
    push_key(&mut args, "name", Value::String(label.to_string()));
    let mut m = Map::new();
    push_key(&mut m, "name", Value::String("process_name".to_string()));
    push_key(&mut m, "ph", Value::String("M".to_string()));
    push_key(&mut m, "pid", Value::U64(pid));
    push_key(&mut m, "tid", Value::U64(0));
    push_key(&mut m, "args", Value::Object(args));
    Value::Object(m)
}

/// Copy every field of `v` except the tracer envelope (`us`/`tid`/`ev`)
/// and the keys in `skip` into `dst`, preserving order.
fn copy_args(dst: &mut Map, v: &Value, skip: &[&str]) {
    let Some(obj) = v.as_object() else { return };
    for (k, val) in obj.iter() {
        if matches!(k.as_str(), "us" | "tid" | "ev") || skip.contains(&k.as_str()) {
            continue;
        }
        dst.insert(k.clone(), val.clone());
    }
}

/// One process's tracer stream in a fleet render: the pid its tracks
/// render under, a human label for the `process_name` metadata, and the
/// JSONL events (timestamps already on the merged clock).
pub struct ProcessStream {
    /// Perfetto process id (coordinator = 1; workers from
    /// [`PID_FLEET_BASE`] up — pid 2 is the phase track).
    pub pid: u64,
    /// Label shown on the process track group.
    pub name: String,
    /// The process's tracer JSONL stream.
    pub jsonl: String,
}

/// Per-stream render accumulation: announced thread ids, slice/instant
/// events, and counter samples, in input order.
struct StreamRender {
    tids: Vec<u64>,
    slices: Vec<Value>,
    counters: Vec<Value>,
}

fn render_stream(pid: u64, jsonl: &str) -> StreamRender {
    let mut slices: Vec<Value> = Vec::new();
    let mut counters: Vec<Value> = Vec::new();
    let mut tids: Vec<u64> = Vec::new();
    // Open begin-events per (tid, kind), LIFO per key.
    let mut open: Vec<(u64, String, u64, Value)> = Vec::new();
    // Campaign context for the counter tracks.
    let mut campaign: Option<(u64, u64, Value)> = None; // (begin_us, tid, begin line)
    let mut faults_total = 0u64;
    let mut lanes = 1u64;
    let mut cum_detected = 0u64;
    let mut cum_cycles = 0u64;

    for line in jsonl.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        let us = v["us"].as_u64().unwrap_or(0);
        let tid = v["tid"].as_u64().unwrap_or(0);
        let Some(ev) = v["ev"].as_str().map(str::to_string) else {
            continue;
        };
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        if ev == "campaign_begin" {
            // One trace holds every campaign of a run; the counters
            // restart with each.
            faults_total = v["faults"].as_u64().unwrap_or(0);
            lanes = v["lanes"].as_u64().unwrap_or(1).max(1);
            cum_detected = 0;
            cum_cycles = 0;
            campaign = Some((us, tid, v));
            continue;
        }
        if ev == "campaign_end" {
            if let Some((begin_us, begin_tid, begin)) = campaign.take() {
                let mut args = Map::new();
                copy_args(&mut args, &begin, &[]);
                copy_args(&mut args, &v, &[]);
                slices.push(complete(
                    "campaign",
                    pid,
                    begin_tid,
                    begin_us,
                    us.saturating_sub(begin_us),
                    args,
                ));
            }
            continue;
        }
        if ev == "batch" {
            cum_detected += v["detected"].as_u64().unwrap_or(0);
            cum_cycles += v["cycles"].as_u64().unwrap_or(0);
            let mut args = Map::new();
            copy_args(&mut args, &v, &["dur_us"]);
            match v["dur_us"].as_u64() {
                Some(dur) => slices.push(complete(
                    "batch",
                    pid,
                    tid,
                    us.saturating_sub(dur),
                    dur,
                    args,
                )),
                None => slices.push(instant("batch", pid, tid, us, args)),
            }
            if faults_total > 0 {
                counters.push(counter(
                    "coverage_pct",
                    pid,
                    us,
                    "pct",
                    100.0 * cum_detected as f64 / faults_total as f64,
                ));
            }
            if let Some((begin_us, _, _)) = &campaign {
                let elapsed_us = us.saturating_sub(*begin_us);
                if elapsed_us > 0 {
                    counters.push(counter(
                        "mlane_cycles_per_sec",
                        pid,
                        us,
                        "mlcps",
                        (cum_cycles as f64 * lanes as f64) / elapsed_us as f64,
                    ));
                }
            }
            continue;
        }
        if let Some(kind) = ev.strip_suffix("_begin") {
            open.push((tid, kind.to_string(), us, v));
            continue;
        }
        if let Some(kind) = ev.strip_suffix("_end") {
            if let Some(pos) = open
                .iter()
                .rposition(|(t, k, _, _)| *t == tid && k == kind)
            {
                let (_, _, begin_us, begin) = open.remove(pos);
                let dur = v["dur_us"].as_u64().unwrap_or(us.saturating_sub(begin_us));
                let mut args = Map::new();
                copy_args(&mut args, &begin, &[]);
                copy_args(&mut args, &v, &["dur_us"]);
                slices.push(complete(kind, pid, tid, us.saturating_sub(dur), dur, args));
                continue;
            }
            // An orphan end (truncated file) degrades to an instant.
        }
        let mut args = Map::new();
        copy_args(&mut args, &v, &["dur_us"]);
        // Any event carrying a duration renders as a slice ending at its
        // timestamp (coordinator phase events like `queue_wait` are
        // emitted this way — single events, since their begin and end
        // happen on different connection threads); the rest are instants.
        match v["dur_us"].as_u64() {
            Some(dur) => slices.push(complete(&ev, pid, tid, us.saturating_sub(dur), dur, args)),
            None => slices.push(instant(&ev, pid, tid, us, args)),
        }
    }

    // A live file may end mid-campaign: still give the counters context
    // by closing nothing, and leave open spans unpaired (Perfetto copes).
    tids.sort_unstable();
    StreamRender {
        tids,
        slices,
        counters,
    }
}

/// Append the synthetic hot-loop phase track (pid 2) to `events`.
fn push_phase_track(events: &mut Vec<Value>, profile: Option<&PhaseProfile>) {
    if let Some(p) = profile {
        if !p.is_empty() {
            events.push(thread_name(PID_PHASES, 1, "hot-loop phases"));
            let total = p.total_ns().max(1);
            let mut cursor_us = 0u64;
            for phase in ProfilePhase::ALL {
                let ns = p.ns(phase);
                if ns == 0 {
                    continue;
                }
                let dur_us = (ns / 1_000).max(1);
                let mut args = Map::new();
                push_key(&mut args, "calls", Value::U64(p.count(phase)));
                push_key(
                    &mut args,
                    "share_pct",
                    Value::F64(100.0 * ns as f64 / total as f64),
                );
                events.push(complete(
                    phase.name(),
                    PID_PHASES,
                    1,
                    cursor_us,
                    dur_us,
                    args,
                ));
                cursor_us += dur_us;
            }
        }
    }
}

fn finish(events: Vec<Value>) -> Value {
    let mut root = Map::new();
    push_key(&mut root, "traceEvents", Value::Array(events));
    push_key(
        &mut root,
        "displayTimeUnit",
        Value::String("ms".to_string()),
    );
    Value::Object(root)
}

/// Render a tracer JSONL stream (and optionally the hot-loop phase
/// profile) as trace-event JSON. Unparseable lines are skipped, so a
/// file still being appended to by a live campaign renders its complete
/// prefix.
pub fn render(jsonl: &str, profile: Option<&PhaseProfile>) -> Value {
    let s = render_stream(PID_TRACE, jsonl);
    let mut events: Vec<Value> = Vec::new();
    for &tid in &s.tids {
        events.push(thread_name(PID_TRACE, tid, &format!("worker {tid}")));
    }
    events.extend(s.slices);
    events.extend(s.counters);
    push_phase_track(&mut events, profile);
    finish(events)
}

/// Render streams from several processes into ONE merged trace: per
/// stream a `process_name` metadata record and its thread tracks, then
/// every stream's slices and counters (stream order), then the optional
/// phase track. Streams must carry distinct pids (coordinator 1,
/// workers [`PID_FLEET_BASE`]..); timestamps are taken as-is, so worker
/// streams must already be rebased onto the coordinator's clock.
pub fn render_fleet(streams: &[ProcessStream], profile: Option<&PhaseProfile>) -> Value {
    let mut events: Vec<Value> = Vec::new();
    let mut rendered: Vec<StreamRender> = Vec::new();
    for st in streams {
        let s = render_stream(st.pid, &st.jsonl);
        events.push(process_name(st.pid, &st.name));
        for &tid in &s.tids {
            events.push(thread_name(st.pid, tid, &format!("worker {tid}")));
        }
        rendered.push(s);
    }
    for s in &mut rendered {
        events.append(&mut s.slices);
    }
    for s in &mut rendered {
        events.append(&mut s.counters);
    }
    push_phase_track(&mut events, profile);
    finish(events)
}

/// The conventional output path for a rendered trace:
/// `results/TRACE_<tag>.trace.json`.
pub fn trace_json_path(tag: &str) -> PathBuf {
    PathBuf::from("results").join(format!("TRACE_{tag}.trace.json"))
}

/// Write a rendered trace to `path`, creating parent directories.
pub fn write_trace(path: &Path, trace: &Value) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut body = serde_json::to_string(trace).expect("json");
    body.push('\n');
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> String {
        format!("{s}\n")
    }

    #[test]
    fn pairs_spans_and_builds_counters() {
        let mut jsonl = String::new();
        jsonl += &line(r#"{"us":0,"tid":1,"ev":"campaign_begin","mode":"parallel","faults":100,"batches":2,"lanes":64,"budget":500,"threads":2,"nets":9,"gates":5,"dffs":2,"segments":2}"#);
        jsonl += &line(r#"{"us":1000,"tid":2,"ev":"batch","batch":0,"faults":63,"cycles":500,"detected":40,"dur_us":900}"#);
        jsonl += &line(r#"{"us":2000,"tid":3,"ev":"batch","batch":1,"faults":37,"cycles":400,"detected":30,"dur_us":800}"#);
        jsonl += &line(r#"{"us":2500,"tid":1,"ev":"campaign_end","cycles":900,"budget_cycles":1000,"dropped":0,"wall_us":2500}"#);
        let trace = render(&jsonl, None);
        let events = trace["traceEvents"].as_array().unwrap();
        // 3 thread_name + 2 batch slices + 1 campaign slice + 4 counters.
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e["ph"].as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 4);
        // Batch slice sits on its worker's track, shifted by its duration.
        let batch = events
            .iter()
            .find(|e| e["name"].as_str() == Some("batch"))
            .unwrap();
        assert_eq!(batch["tid"].as_u64(), Some(2));
        assert_eq!(batch["ts"].as_u64(), Some(100));
        assert_eq!(batch["dur"].as_u64(), Some(900));
        // Coverage counter accumulates to 70%.
        let cov: Vec<f64> = events
            .iter()
            .filter(|e| e["name"].as_str() == Some("coverage_pct"))
            .map(|e| e["args"]["pct"].as_f64().unwrap())
            .collect();
        assert_eq!(cov, vec![40.0, 70.0]);
        // A run's trace holds every campaign of the run: the counters
        // restart at each `campaign_begin`.
        jsonl += &line(r#"{"us":3000,"tid":1,"ev":"campaign_begin","mode":"serial","faults":10,"batches":1,"lanes":64,"budget":100,"threads":1,"nets":9,"gates":5,"dffs":2,"segments":2}"#);
        jsonl += &line(r#"{"us":3500,"tid":2,"ev":"batch","batch":0,"faults":10,"cycles":100,"detected":5,"dur_us":400}"#);
        let trace = render(&jsonl, None);
        let cov = trace["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"].as_str() == Some("coverage_pct"))
            .map(|e| e["args"]["pct"].as_f64().unwrap())
            .last();
        assert_eq!(cov, Some(50.0));
    }

    #[test]
    fn begin_end_pairs_merge_args_and_nest_lifo() {
        let mut jsonl = String::new();
        jsonl += &line(r#"{"us":10,"tid":1,"ev":"work_begin","batch":3}"#);
        jsonl += &line(r#"{"us":20,"tid":1,"ev":"work_begin","batch":4}"#);
        jsonl += &line(r#"{"us":30,"tid":1,"ev":"work_end","dur_us":10,"ok":true}"#);
        jsonl += &line(r#"{"us":40,"tid":1,"ev":"work_end","dur_us":30}"#);
        let trace = render(&jsonl, None);
        let events = trace["traceEvents"].as_array().unwrap();
        let xs: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        // Inner span closes first (LIFO): batch 4 with the merged end arg.
        assert_eq!(xs[0]["args"]["batch"].as_u64(), Some(4));
        assert_eq!(xs[0]["args"]["ok"], Value::Bool(true));
        assert_eq!(xs[1]["args"]["batch"].as_u64(), Some(3));
        assert_eq!(xs[1]["ts"].as_u64(), Some(10));
        assert_eq!(xs[1]["dur"].as_u64(), Some(30));
    }

    #[test]
    fn fleet_render_groups_streams_under_their_own_pids() {
        let coord = ProcessStream {
            pid: 1,
            name: "coordinator".into(),
            jsonl: line(r#"{"us":0,"tid":1,"ev":"job_submitted","trace_id":"j","shards":2}"#)
                + &line(r#"{"us":900,"tid":2,"ev":"queue_wait","trace_id":"j","dur_us":900}"#),
        };
        let worker = ProcessStream {
            pid: 3,
            name: "worker proc-0".into(),
            jsonl: line(
                r#"{"us":1000,"tid":1,"ev":"shard_grade_begin","trace_id":"j","shard":0}"#,
            ) + &line(
                r#"{"us":2000,"tid":1,"ev":"shard_grade_end","trace_id":"j","dur_us":1000}"#,
            ),
        };
        let trace = render_fleet(&[coord, worker], None);
        let events = trace["traceEvents"].as_array().unwrap();
        let procs: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .map(|e| (e["pid"].as_u64().unwrap(), e["args"]["name"].as_str().unwrap()))
            .collect();
        assert_eq!(procs, vec![(1, "coordinator"), (3, "worker proc-0")]);
        // queue_wait carries dur_us → a slice back-dated to the submit.
        let qw = events
            .iter()
            .find(|e| e["name"].as_str() == Some("queue_wait"))
            .unwrap();
        assert_eq!(qw["ph"].as_str(), Some("X"));
        assert_eq!(qw["pid"].as_u64(), Some(1));
        assert_eq!(qw["ts"].as_u64(), Some(0));
        // The worker's grade span lands on its own pid with the context.
        let grade = events
            .iter()
            .find(|e| e["name"].as_str() == Some("shard_grade"))
            .unwrap();
        assert_eq!(grade["pid"].as_u64(), Some(3));
        assert_eq!(grade["args"]["trace_id"].as_str(), Some("j"));
    }

    #[test]
    fn unknown_events_become_instants_and_bad_lines_are_skipped() {
        let jsonl = "not json\n{\"us\":5,\"tid\":2,\"ev\":\"tb_window\",\"cycle\":17}\n";
        let trace = render(jsonl, None);
        let events = trace["traceEvents"].as_array().unwrap();
        let inst = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("i"))
            .unwrap();
        assert_eq!(inst["name"].as_str(), Some("tb_window"));
        assert_eq!(inst["args"]["cycle"].as_u64(), Some(17));
    }
}
