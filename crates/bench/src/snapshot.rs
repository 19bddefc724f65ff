//! The `BENCH_repro.json` snapshot: schema, validation (`repro
//! check`), and metric-by-metric comparison (`repro diff`).
//!
//! `repro diff old.json new.json` is the perf-regression gate: the
//! verify smoke compares a fresh `repro all --quick` snapshot against
//! the committed `BENCH_baseline.json` and fails loudly when wall
//! times or event-counter volumes move past the threshold. Counters
//! are deterministic for a given command and scale, so *any*
//! above-threshold counter growth means the simulator started doing
//! more work — that is either a bug or an intentional change that
//! must refresh the baseline.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sat_obs::json::Json;

/// The snapshot schema written, and the only one `repro check` and
/// `repro diff` accept.
///
/// History: `repro-v1` carried command/scale/threads/experiments/
/// total_wall_ms; `repro-v2` added per-experiment `"events"` counter
/// deltas and the run-wide `"obs"` section; `repro-v3` added `"p50"`/
/// `"p95"` summaries to every exported histogram; `repro-v4` added
/// `"p99"`, per-experiment `"gauges"` high-water marks, and the
/// run-wide `"gauges"` section; `repro-v5` added per-experiment
/// `"latency"` request percentiles (serve cells) — in simulated
/// cycles, deterministic, and gated by the diff like wall times;
/// `repro-v6` added per-experiment `"mem_frames"` budgets and
/// `"reclaim"` totals (passes/pages/pte_tears/shared_tears/refaults)
/// for budgeted serve and pressure cells, gated like counters;
/// `repro-v7` adds per-experiment `"translation"` totals (promotions/
/// demotions/splits/waste_frames) for the reach cells, gated the same
/// way.
pub const SCHEMA: &str = "sat-bench/repro-v7";

/// Subsystems `repro all --trace` must cover for the trace to count as
/// healthy (the acceptance floor; `sim` and `bench` ride along).
pub const REQUIRED_SUBSYSTEMS: [&str; 5] = ["kernel", "share", "vm-fault", "tlb", "android"];

/// Coverage floor for a `repro fleet --trace` run: the fleet drives
/// fork/timeshare/reap through the scheduler and never walks the
/// app-launch sequence, so no `android` events are expected.
pub const FLEET_REQUIRED_SUBSYSTEMS: [&str; 5] = ["kernel", "share", "tlb", "sched", "bench"];

/// Coverage floor for a `repro serve --trace` run: request flows
/// arrive through the scheduler (`sched`), every charge site is
/// machine-level (`sim`), and the servers boot from the zygote
/// (`android`, `kernel`, `share`, `tlb`).
pub const SERVE_REQUIRED_SUBSYSTEMS: [&str; 6] =
    ["kernel", "share", "tlb", "sched", "sim", "android"];

/// Coverage floor for a `repro reach --trace` run: the reach grid
/// drives demand faults, the promotion scanner, fork sharing, and
/// size-tagged flushes — but never walks the app-launch sequence, so
/// no `android` or `sched` events are expected.
pub const REACH_REQUIRED_SUBSYSTEMS: [&str; 4] = ["kernel", "share", "vm-fault", "tlb"];

/// Experiments whose wall time is too small to gate on: below this
/// floor, scheduler noise dominates and a 25% swing means nothing.
const WALL_FLOOR_MS: f64 = 25.0;

/// Counters below this volume (in both snapshots) are ignored by the
/// diff — a handful of events swinging 25% is noise, not a signal.
const COUNTER_FLOOR: u64 = 100;

/// Gauge high-water marks below this level (in both snapshots) never
/// gate: a tiny occupancy doubling is noise, a big one is a leak.
const GAUGE_FLOOR: u64 = 64;

/// Latency percentiles below this many cycles (in both snapshots)
/// never gate. Request walls are deterministic, but a sub-floor
/// percentile swinging past the threshold is a few kernel lines, not
/// a tail regression.
const LATENCY_FLOOR_CYCLES: u64 = 10_000;

/// Reclaim totals below this volume (in both snapshots) never gate:
/// a budgeted cell evicting a handful more pages is quantisation, a
/// big swing means the pressure the workload faces actually changed.
const RECLAIM_FLOOR: u64 = 50;

/// Translation totals below this volume (in both snapshots) never
/// gate. The floor is deliberately low: even the quick reach grid
/// promotes ~96 groups, and a silent halving of promotions or a
/// doubling of waste is exactly the regression this block exists to
/// catch.
const TRANSLATION_FLOOR: u64 = 8;

/// One parsed experiment record.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    pub wall_ms: f64,
    pub cells: u64,
    /// Per-gauge high-water marks over the experiment's sampling
    /// window (v4 traced runs; empty otherwise).
    pub gauges: BTreeMap<String, u64>,
    /// Request-latency percentiles `(p50, p95, p99)` in simulated
    /// cycles (v5 serve cells; absent otherwise).
    pub latency: Option<(u64, u64, u64)>,
    /// Physical-frame budget the cell ran under (v6 budgeted serve /
    /// pressure cells; absent otherwise).
    pub mem_frames: Option<u64>,
    /// Reclaim totals (v6 budgeted cells; empty otherwise):
    /// passes, pages, pte_tears, shared_tears, refaults.
    pub reclaim: BTreeMap<String, u64>,
    /// Translation totals (v7 reach cells; empty otherwise):
    /// promotions, demotions, splits, waste_frames.
    pub translation: BTreeMap<String, u64>,
}

/// The parts of a snapshot the diff compares.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub schema: String,
    pub command: String,
    pub scale: String,
    pub experiments: BTreeMap<String, Experiment>,
    pub total_wall_ms: f64,
    pub obs_enabled: bool,
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Parses a snapshot document, requiring the current [`SCHEMA`].
    pub fn parse(text: &str, label: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text).map_err(|e| format!("{label}: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: missing \"schema\""))?;
        if schema != SCHEMA {
            return Err(format!(
                "{label}: schema \"{schema}\" (expected \"{SCHEMA}\")"
            ));
        }
        let mut experiments = BTreeMap::new();
        for exp in doc
            .get("experiments")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{label}: missing \"experiments\" array"))?
        {
            let name = exp
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{label}: experiment without \"name\""))?;
            let mut gauges = BTreeMap::new();
            if let Some(map) = exp.get("gauges").and_then(Json::as_object) {
                for (k, v) in map {
                    if let Some(n) = v.as_u64() {
                        gauges.insert(k.clone(), n);
                    }
                }
            }
            let latency = exp.get("latency").and_then(|l| {
                Some((
                    l.get("p50").and_then(Json::as_u64)?,
                    l.get("p95").and_then(Json::as_u64)?,
                    l.get("p99").and_then(Json::as_u64)?,
                ))
            });
            let mut reclaim = BTreeMap::new();
            if let Some(map) = exp.get("reclaim").and_then(Json::as_object) {
                for (k, v) in map {
                    if let Some(n) = v.as_u64() {
                        reclaim.insert(k.clone(), n);
                    }
                }
            }
            let mut translation = BTreeMap::new();
            if let Some(map) = exp.get("translation").and_then(Json::as_object) {
                for (k, v) in map {
                    if let Some(n) = v.as_u64() {
                        translation.insert(k.clone(), n);
                    }
                }
            }
            experiments.insert(
                name.to_string(),
                Experiment {
                    wall_ms: exp.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
                    cells: exp.get("cells").and_then(Json::as_u64).unwrap_or(0),
                    gauges,
                    latency,
                    mem_frames: exp.get("mem_frames").and_then(Json::as_u64),
                    reclaim,
                    translation,
                },
            );
        }
        let obs = doc.get("obs");
        let obs_enabled = obs
            .and_then(|o| o.get("enabled"))
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let mut counters = BTreeMap::new();
        if let Some(map) = obs
            .and_then(|o| o.get("counters"))
            .and_then(Json::as_object)
        {
            for (k, v) in map {
                if let Some(n) = v.as_u64() {
                    counters.insert(k.clone(), n);
                }
            }
        }
        Ok(Snapshot {
            schema: schema.to_string(),
            command: doc
                .get("command")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            scale: doc
                .get("scale")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            experiments,
            total_wall_ms: doc
                .get("total_wall_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            obs_enabled,
            counters,
        })
    }
}

/// One line of the diff, classified.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiffClass {
    /// Fails the gate.
    Regression,
    /// Informational: the new snapshot got faster / smaller.
    Improvement,
    /// Informational: structure changed without regressing.
    Note,
}

/// The rendered comparison of two snapshots.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    pub lines: Vec<(DiffClass, String)>,
    /// Metrics compared (regardless of outcome).
    pub compared: usize,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.lines
            .iter()
            .filter(|(c, _)| *c == DiffClass::Regression)
            .count()
    }

    /// Human-readable summary; one line per finding, stable order.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut out = String::new();
        for (class, line) in &self.lines {
            let tag = match class {
                DiffClass::Regression => "REGRESSION",
                DiffClass::Improvement => "improvement",
                DiffClass::Note => "note",
            };
            let _ = writeln!(out, "{tag:<12} {line}");
        }
        let _ = writeln!(
            out,
            "repro diff: {} metrics compared, {} regression(s) at +{threshold_pct}% threshold",
            self.compared,
            self.regressions()
        );
        out
    }
}

fn pct_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (new - old) / old
    }
}

/// Compares two snapshots metric by metric. A wall-time or counter
/// increase beyond `threshold_pct` is a regression; decreases are
/// reported as improvements; an experiment that vanished between runs
/// of the *same* command is a regression (when the commands differ the
/// experiment lists are expected to differ, so it is informational).
/// Sub-floor metrics (see [`WALL_FLOOR_MS`], [`COUNTER_FLOOR`]) are
/// compared but never gate.
pub fn diff(old: &Snapshot, new: &Snapshot, threshold_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();

    if old.command != new.command || old.scale != new.scale {
        report.lines.push((
            DiffClass::Note,
            format!(
                "comparing different runs: {} ({}) vs {} ({})",
                old.command, old.scale, new.command, new.scale
            ),
        ));
    }

    for (name, old_exp) in &old.experiments {
        report.compared += 1;
        let Some(new_exp) = new.experiments.get(name) else {
            if old.command == new.command {
                report.lines.push((
                    DiffClass::Regression,
                    format!("experiment \"{name}\" missing from the new snapshot"),
                ));
            } else {
                report.lines.push((
                    DiffClass::Note,
                    format!("experiment \"{name}\" not in the new snapshot (different command)"),
                ));
            }
            continue;
        };
        let change = pct_change(old_exp.wall_ms, new_exp.wall_ms);
        let line = format!(
            "{name}.wall_ms: {:.1} -> {:.1} ({change:+.1}%)",
            old_exp.wall_ms, new_exp.wall_ms
        );
        if change > threshold_pct {
            if old_exp.wall_ms >= WALL_FLOOR_MS {
                report.lines.push((DiffClass::Regression, line));
            } else {
                report.lines.push((
                    DiffClass::Note,
                    format!("{line} — below {WALL_FLOOR_MS}ms floor"),
                ));
            }
        } else if change < -threshold_pct && old_exp.wall_ms >= WALL_FLOOR_MS {
            report.lines.push((DiffClass::Improvement, line));
        }
        if old_exp.cells != new_exp.cells {
            report.lines.push((
                DiffClass::Note,
                format!("{name}.cells: {} -> {}", old_exp.cells, new_exp.cells),
            ));
        }
        // Gauge high-water marks gate peak occupancy the same way
        // counters gate volume: above-threshold growth in peak frame /
        // slab / registry population is a leak or a regression.
        for (key, &old_hw) in &old_exp.gauges {
            let Some(&new_hw) = new_exp.gauges.get(key) else {
                continue;
            };
            report.compared += 1;
            if old_hw.max(new_hw) < GAUGE_FLOOR {
                continue;
            }
            let change = pct_change(old_hw as f64, new_hw as f64);
            let line =
                format!("{name}.gauge {key} high water: {old_hw} -> {new_hw} ({change:+.1}%)");
            if change > threshold_pct {
                report.lines.push((DiffClass::Regression, line));
            } else if change < -threshold_pct {
                report.lines.push((DiffClass::Improvement, line));
            }
        }
        // Reclaim totals of budgeted cells are deterministic, so they
        // gate like counters: above-threshold eviction growth under
        // the *same* frame budget means reclaim got hungrier. A budget
        // change makes old and new incomparable — note it instead.
        if old_exp.mem_frames != new_exp.mem_frames {
            if old_exp.mem_frames.is_some() || new_exp.mem_frames.is_some() {
                report.lines.push((
                    DiffClass::Note,
                    format!(
                        "{name}.mem_frames: {:?} -> {:?} (budget changed; reclaim not compared)",
                        old_exp.mem_frames, new_exp.mem_frames
                    ),
                ));
            }
        } else {
            for (key, &old_n) in &old_exp.reclaim {
                let Some(&new_n) = new_exp.reclaim.get(key) else {
                    continue;
                };
                report.compared += 1;
                if old_n.max(new_n) < RECLAIM_FLOOR {
                    continue;
                }
                let change = pct_change(old_n as f64, new_n as f64);
                let line = format!("{name}.reclaim {key}: {old_n} -> {new_n} ({change:+.1}%)");
                if change > threshold_pct {
                    report.lines.push((DiffClass::Regression, line));
                } else if change < -threshold_pct {
                    report.lines.push((DiffClass::Improvement, line));
                }
            }
        }
        // Translation totals of the reach cells are deterministic, so
        // they gate like counters: waste or splits growing past the
        // threshold fails on its own, and any above-threshold movement
        // (a promotion drop included) is surfaced. A scanner that
        // never fires at all is `repro check`'s warning.
        for (key, &old_n) in &old_exp.translation {
            let Some(&new_n) = new_exp.translation.get(key) else {
                continue;
            };
            report.compared += 1;
            if old_n.max(new_n) < TRANSLATION_FLOOR {
                continue;
            }
            let change = pct_change(old_n as f64, new_n as f64);
            let line = format!("{name}.translation {key}: {old_n} -> {new_n} ({change:+.1}%)");
            if change > threshold_pct {
                report.lines.push((DiffClass::Regression, line));
            } else if change < -threshold_pct {
                report.lines.push((DiffClass::Improvement, line));
            }
        }
        // Serve latency percentiles are deterministic simulated
        // cycles: an above-threshold p99 (or p95/p50) growth means the
        // critical path of the tail actually got longer.
        if let (Some(old_lat), Some(new_lat)) = (old_exp.latency, new_exp.latency) {
            let olds = [old_lat.0, old_lat.1, old_lat.2];
            let news = [new_lat.0, new_lat.1, new_lat.2];
            for (pname, (o, n)) in ["p50", "p95", "p99"].iter().zip(olds.into_iter().zip(news)) {
                report.compared += 1;
                if o.max(n) < LATENCY_FLOOR_CYCLES {
                    continue;
                }
                let change = pct_change(o as f64, n as f64);
                let line = format!("{name}.latency {pname}: {o} -> {n} cycles ({change:+.1}%)");
                if change > threshold_pct {
                    report.lines.push((DiffClass::Regression, line));
                } else if change < -threshold_pct {
                    report.lines.push((DiffClass::Improvement, line));
                }
            }
        }
    }
    for name in new.experiments.keys() {
        if !old.experiments.contains_key(name) {
            report.lines.push((
                DiffClass::Note,
                format!("new experiment \"{name}\" (not in the baseline)"),
            ));
        }
    }

    report.compared += 1;
    let total_change = pct_change(old.total_wall_ms, new.total_wall_ms);
    let total_line = format!(
        "total_wall_ms: {:.1} -> {:.1} ({total_change:+.1}%)",
        old.total_wall_ms, new.total_wall_ms
    );
    if total_change > threshold_pct && old.total_wall_ms >= WALL_FLOOR_MS {
        report.lines.push((DiffClass::Regression, total_line));
    } else if total_change < -threshold_pct && old.total_wall_ms >= WALL_FLOOR_MS {
        report.lines.push((DiffClass::Improvement, total_line));
    }

    // Event counters only compare when both runs recorded them (an
    // untraced run has an empty, disabled registry).
    if old.obs_enabled && new.obs_enabled {
        for (key, &old_n) in &old.counters {
            let new_n = new.counters.get(key).copied().unwrap_or(0);
            report.compared += 1;
            if old_n.max(new_n) < COUNTER_FLOOR {
                continue;
            }
            let change = pct_change(old_n as f64, new_n as f64);
            let line = format!("counter {key}: {old_n} -> {new_n} ({change:+.1}%)");
            if change > threshold_pct {
                report.lines.push((DiffClass::Regression, line));
            } else if change < -threshold_pct {
                report.lines.push((DiffClass::Improvement, line));
            }
        }
        for (key, &new_n) in &new.counters {
            if !old.counters.contains_key(key) && new_n >= COUNTER_FLOOR {
                report.lines.push((
                    DiffClass::Note,
                    format!("new counter {key}: {new_n} (not in the baseline)"),
                ));
            }
        }
    }

    report
}

/// Validates the artifacts a traced run wrote: the snapshot's schema
/// and experiment list, and — when `trace` names the trace file — a
/// re-ingest of the full event stream with subsystem coverage, tick
/// monotonicity, and span begin/end pairing enforced.
pub fn check(trace: Option<&str>, out: &str) -> Result<String, String> {
    let mut report = String::new();

    let text = std::fs::read_to_string(out).map_err(|e| format!("read {out}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{out}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{out}: missing \"schema\""))?;
    if schema != SCHEMA {
        return Err(format!(
            "{out}: schema \"{schema}\" (expected \"{SCHEMA}\")"
        ));
    }
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{out}: missing \"experiments\" array"))?;
    if experiments.is_empty() {
        return Err(format!("{out}: empty \"experiments\" array"));
    }
    let command = doc
        .get("command")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let obs = doc
        .get("obs")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{out}: missing \"obs\" section"))?;
    let obs_enabled = obs.get("enabled").and_then(Json::as_bool).unwrap_or(false);
    let _ = writeln!(
        report,
        "repro check: {out} ok ({} experiments, obs {})",
        experiments.len(),
        if obs_enabled { "enabled" } else { "disabled" }
    );

    // A run under a frame budget that never reclaimed proves nothing
    // about behaviour under pressure: the budget sat above the peak
    // footprint the whole time. Warn, mirroring the partial-blame
    // warning (works untraced — the totals live in the snapshot).
    let budgeted: Vec<&Json> = experiments
        .iter()
        .filter(|e| e.get("mem_frames").and_then(Json::as_u64).is_some())
        .collect();
    if !budgeted.is_empty() {
        let pages: u64 = budgeted
            .iter()
            .filter_map(|e| e.get("reclaim"))
            .filter_map(|r| r.get("pages"))
            .filter_map(Json::as_u64)
            .sum();
        if pages == 0 {
            let _ = writeln!(
                report,
                "repro check: warning: the frame budget never bit ({} budgeted \
                 experiment(s) reclaimed zero pages; lower --mem-frames below the \
                 uncapped peak for real pressure)",
                budgeted.len()
            );
        }
    }

    // A reach run whose promoted cell collapsed nothing measured only
    // 4KB paging three times: the waste-vs-reach trade the experiment
    // exists for never happened. Warn, mirroring the budget warning
    // (works untraced — the totals live in the snapshot).
    if command == "reach" {
        let promoted_fired = experiments.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("reach_promoted")
                && e.get("translation")
                    .and_then(|t| t.get("promotions"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    > 0
        });
        if !promoted_fired {
            let _ = writeln!(
                report,
                "repro check: warning: the promotion scanner never fired (the \
                 reach_promoted cell reports zero promotions; every cell ran plain \
                 4KB paging, so the reach-vs-waste trade was not measured)"
            );
        }
    }

    if let Some(trace_path) = trace {
        let text =
            std::fs::read_to_string(trace_path).map_err(|e| format!("read {trace_path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{trace_path}: {e}"))?;
        let parsed = sat_obs::parse_chrome_trace(&doc).map_err(|e| format!("{trace_path}: {e}"))?;
        if parsed.events.is_empty() {
            return Err(format!("{trace_path}: empty event stream"));
        }
        sat_obs::analyze::validate_ticks(&parsed.events)
            .map_err(|e| format!("{trace_path}: {e}"))?;
        // Counter-track samples must carry non-empty gauge names on
        // strictly increasing per-gauge ticks (exact even under ring
        // overflow: a monotone series minus a prefix stays monotone).
        sat_obs::analyze::validate_samples(&parsed.events)
            .map_err(|e| format!("{trace_path}: {e}"))?;
        // Span pairing is only checkable on a lossless stream: ring
        // overflow drops the oldest events, begins first.
        let spans_note = if parsed.dropped == 0 {
            sat_obs::analyze::validate_spans(&parsed.events)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            "spans paired"
        } else {
            "span pairing skipped (ring overflow)"
        };
        // A lossy ring under a charge-carrying trace means blame can
        // no longer be reconstructed exactly: some `CycleCharge`
        // events are gone, so per-request sums understate their walls.
        let has_charges = parsed
            .events
            .iter()
            .any(|e| matches!(e.payload, sat_obs::Payload::CycleCharge { .. }));
        if parsed.dropped > 0 && has_charges {
            let _ = writeln!(
                report,
                "repro check: warning: blame attribution is partial ({} events dropped \
                 from a stream carrying cycle charges; raise SAT_OBS_RING for exact tails)",
                parsed.dropped
            );
        }
        let cats: std::collections::BTreeSet<&str> =
            parsed.events.iter().map(|e| e.subsystem.as_str()).collect();
        let required: &[&str] = match command.as_str() {
            "fleet" => &FLEET_REQUIRED_SUBSYSTEMS,
            "serve" => &SERVE_REQUIRED_SUBSYSTEMS,
            "reach" => &REACH_REQUIRED_SUBSYSTEMS,
            _ => &REQUIRED_SUBSYSTEMS,
        };
        let missing: Vec<&str> = required
            .iter()
            .filter(|s| !cats.contains(**s))
            .copied()
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{trace_path}: no events from subsystem(s) {} (saw: {})",
                missing.join(", "),
                cats.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        if !obs_enabled {
            return Err(format!(
                "{out}: obs section disabled although a trace was produced"
            ));
        }
        let (samples, gauges) = {
            let mut n = 0usize;
            let mut names = std::collections::BTreeSet::new();
            for e in &parsed.events {
                if let sat_obs::Payload::Sample { gauge, .. } = &e.payload {
                    n += 1;
                    names.insert(gauge.as_str());
                }
            }
            (n, names.len())
        };
        let _ = writeln!(
            report,
            "repro check: {trace_path} ok ({} events, {} dropped, ticks monotonic, \
             {spans_note}, {samples} samples over {gauges} gauges, subsystems: {})",
            parsed.events.len(),
            parsed.dropped,
            cats.into_iter().collect::<Vec<_>>().join(", ")
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_json(wall_a: f64, total: f64, flushes: u64) -> String {
        format!(
            r#"{{
  "schema": "sat-bench/repro-v7",
  "command": "all",
  "scale": "quick",
  "threads": 4,
  "experiments": [
    {{"name": "launch", "wall_ms": {wall_a:.3}, "cells": 6, "events": {{}}}},
    {{"name": "steady", "wall_ms": 40.000, "cells": 4, "events": {{}}}}
  ],
  "total_wall_ms": {total:.3},
  "obs": {{"enabled": true, "dropped_events": 0,
           "counters": {{"tlb.flush": {flushes}, "tiny.counter": 3}},
           "histograms": {{}}}}
}}
"#
        )
    }

    fn parse(text: &str) -> Snapshot {
        Snapshot::parse(text, "test").unwrap()
    }

    #[test]
    fn identical_snapshots_produce_no_regressions() {
        let a = parse(&snapshot_json(100.0, 150.0, 5000));
        let report = diff(&a, &a, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report.compared >= 4);
    }

    #[test]
    fn doctored_wall_time_regresses() {
        let old = parse(&snapshot_json(100.0, 150.0, 5000));
        let new = parse(&snapshot_json(150.0, 210.0, 5000));
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 2, "{:?}", report.lines);
        let text = report.render(25.0);
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("launch.wall_ms"), "{text}");
        assert!(text.contains("total_wall_ms"), "{text}");
    }

    #[test]
    fn counter_growth_regresses_and_shrinkage_improves() {
        let old = parse(&snapshot_json(100.0, 150.0, 5000));
        let grown = parse(&snapshot_json(100.0, 150.0, 8000));
        let report = diff(&old, &grown, 25.0);
        assert_eq!(report.regressions(), 1, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, l)| *c == DiffClass::Regression && l.contains("tlb.flush")));

        let shrunk = parse(&snapshot_json(100.0, 150.0, 1000));
        let report = diff(&old, &shrunk, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, _)| *c == DiffClass::Improvement));
    }

    #[test]
    fn sub_floor_metrics_never_gate() {
        // launch at 10ms (below the 25ms floor) doubling is a note,
        // and tiny.counter (3 -> 6) stays ignored.
        let old = parse(&snapshot_json(10.0, 150.0, 5000));
        let mut new = parse(&snapshot_json(20.0, 150.0, 5000));
        new.counters.insert("tiny.counter".to_string(), 6);
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, l)| *c == DiffClass::Note && l.contains("floor")));
    }

    #[test]
    fn missing_experiment_is_a_regression() {
        let old = parse(&snapshot_json(100.0, 150.0, 5000));
        let mut new = parse(&snapshot_json(100.0, 150.0, 5000));
        new.experiments.remove("steady");
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 1);
        assert!(report.lines[0].1.contains("steady"));
    }

    #[test]
    fn cross_command_missing_experiment_is_informational() {
        // Diffing a full-suite baseline against a single-experiment
        // run: the absent experiments are expected, not regressions.
        let old = parse(&snapshot_json(100.0, 150.0, 5000));
        let mut new = parse(&snapshot_json(100.0, 150.0, 5000));
        new.command = "launch".to_string();
        new.experiments.remove("steady");
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report.lines.iter().any(|(c, l)| *c == DiffClass::Note
            && l.contains("steady")
            && l.contains("different command")));
    }

    #[test]
    fn fleet_regression_at_one_n_is_not_masked_by_the_aggregate() {
        // The fleet grid writes one record per N. A 3x wall-time blowup
        // at N=4096 with every other cell *faster* keeps the aggregate
        // total inside the threshold — the per-N record must still fail
        // the gate on its own.
        let fleet = |n256: f64, n4096: f64, total: f64| -> Snapshot {
            parse(&format!(
                r#"{{
  "schema": "sat-bench/repro-v7",
  "command": "fleet",
  "scale": "paper",
  "threads": 4,
  "experiments": [
    {{"name": "fleet_n256", "wall_ms": {n256:.3}, "cells": 2, "events": {{}}}},
    {{"name": "fleet_n4096", "wall_ms": {n4096:.3}, "cells": 2, "events": {{}}}}
  ],
  "total_wall_ms": {total:.3},
  "obs": {{"enabled": false, "dropped_events": 0, "counters": {{}}, "histograms": {{}}}}
}}
"#
            ))
        };
        let old = fleet(400.0, 400.0, 800.0);
        let new = fleet(100.0, 800.0, 900.0);
        let total_change = pct_change(old.total_wall_ms, new.total_wall_ms);
        assert!(total_change < 25.0, "aggregate must stay inside threshold");
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 1, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, l)| *c == DiffClass::Regression && l.contains("fleet_n4096")));
    }

    #[test]
    fn doctored_gauge_high_water_regresses_and_tiny_gauges_never_gate() {
        let v4 = |slab_hw: u64, runq_hw: u64| -> Snapshot {
            parse(&format!(
                r#"{{
  "schema": "sat-bench/repro-v7",
  "command": "fleet",
  "scale": "quick",
  "threads": 4,
  "experiments": [
    {{"name": "fleet_n256", "wall_ms": 100.000, "cells": 2, "events": {{}},
      "gauges": {{"phys.slab.live": {slab_hw}, "sched.runq.c0": {runq_hw}}}}}
  ],
  "total_wall_ms": 100.000,
  "obs": {{"enabled": true, "dropped_events": 0, "counters": {{}}, "histograms": {{}}}}
}}
"#
            ))
        };
        let old = v4(1000, 3);
        assert_eq!(old.experiments["fleet_n256"].gauges["phys.slab.live"], 1000);

        // A +50% slab high-water mark fails the 25% gate.
        let doctored = v4(1500, 3);
        let report = diff(&old, &doctored, 25.0);
        assert_eq!(report.regressions(), 1, "{:?}", report.lines);
        assert!(report.lines.iter().any(|(c, l)| *c == DiffClass::Regression
            && l.contains("phys.slab.live")
            && l.contains("1000 -> 1500")));

        // A sub-floor gauge doubling (3 -> 6 run-queue peak) is noise.
        let report = diff(&old, &v4(1000, 6), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);

        // Shrinkage is an improvement, not a failure.
        let report = diff(&old, &v4(600, 3), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, _)| *c == DiffClass::Improvement));
    }

    #[test]
    fn doctored_serve_p99_regresses_and_sub_floor_latency_never_gates() {
        let v5 = |p99: u64, p50: u64| -> Snapshot {
            parse(&format!(
                r#"{{
  "schema": "sat-bench/repro-v7",
  "command": "serve",
  "scale": "quick",
  "threads": 4,
  "experiments": [
    {{"name": "serve_shared", "wall_ms": 100.000, "cells": 1,
      "latency": {{"p50": {p50}, "p95": 90000, "p99": {p99}}}, "events": {{}}, "gauges": {{}}}}
  ],
  "total_wall_ms": 100.000,
  "obs": {{"enabled": false, "dropped_events": 0, "counters": {{}}, "histograms": {{}}}}
}}
"#
            ))
        };
        let old = v5(120_000, 500);
        assert_eq!(
            old.experiments["serve_shared"].latency,
            Some((500, 90_000, 120_000))
        );

        // A +50% p99 tail fails the 25% gate on its own.
        let report = diff(&old, &v5(180_000, 500), 25.0);
        assert_eq!(report.regressions(), 1, "{:?}", report.lines);
        assert!(report.lines.iter().any(|(c, l)| *c == DiffClass::Regression
            && l.contains("serve_shared.latency p99")
            && l.contains("120000 -> 180000")));

        // A sub-floor p50 doubling (500 -> 1000 cycles) is noise.
        let report = diff(&old, &v5(120_000, 1000), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);

        // A shrinking tail is an improvement, not a failure.
        let report = diff(&old, &v5(60_000, 500), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, l)| *c == DiffClass::Improvement && l.contains("p99")));
    }

    fn v6(budget: u64, pages: u64, shared_tears: u64) -> Snapshot {
        parse(&format!(
            r#"{{
  "schema": "sat-bench/repro-v7",
  "command": "pressure",
  "scale": "quick",
  "threads": 4,
  "experiments": [
    {{"name": "pressure_shared_starved", "wall_ms": 100.000, "cells": 1,
      "latency": {{"p50": 20000, "p95": 90000, "p99": 120000}},
      "mem_frames": {budget},
      "reclaim": {{"passes": 40, "pages": {pages}, "pte_tears": 30,
                   "shared_tears": {shared_tears}, "refaults": {pages}}},
      "events": {{}}, "gauges": {{}}}}
  ],
  "total_wall_ms": 100.000,
  "obs": {{"enabled": false, "dropped_events": 0, "counters": {{}}, "histograms": {{}}}}
}}
"#
        ))
    }

    #[test]
    fn doctored_reclaim_totals_regress_under_the_same_budget() {
        let old = v6(900, 400, 120);
        let exp = &old.experiments["pressure_shared_starved"];
        assert_eq!(exp.mem_frames, Some(900));
        assert_eq!(exp.reclaim["pages"], 400);

        // +50% eviction volume under the same budget fails the gate.
        let report = diff(&old, &v6(900, 600, 120), 25.0);
        assert_eq!(report.regressions(), 2, "{:?}", report.lines);
        assert!(report.lines.iter().any(|(c, l)| *c == DiffClass::Regression
            && l.contains("pressure_shared_starved.reclaim pages")
            && l.contains("400 -> 600")));
        // (refaults mirror pages in this fixture, hence the second.)

        // Shrinking shared tears is an improvement, not a failure.
        let report = diff(&old, &v6(900, 400, 60), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, l)| *c == DiffClass::Improvement && l.contains("shared_tears")));

        // Sub-floor totals never gate (passes 40 stays under 50).
        let report = diff(&old, &v6(900, 400, 120), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
    }

    #[test]
    fn changed_budget_notes_instead_of_comparing_reclaim() {
        let old = v6(900, 400, 120);
        let new = v6(600, 4000, 1200);
        let report = diff(&old, &new, 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report.lines.iter().any(|(c, l)| *c == DiffClass::Note
            && l.contains("mem_frames")
            && l.contains("budget changed")));
    }

    fn v7(promotions: u64, waste: u64) -> Snapshot {
        parse(&format!(
            r#"{{
  "schema": "sat-bench/repro-v7",
  "command": "reach",
  "scale": "quick",
  "threads": 4,
  "experiments": [
    {{"name": "reach_promoted", "wall_ms": 100.000, "cells": 1,
      "translation": {{"promotions": {promotions}, "demotions": 2,
                       "splits": 32, "waste_frames": {waste}}},
      "events": {{}}, "gauges": {{}}}}
  ],
  "total_wall_ms": 100.000,
  "obs": {{"enabled": false, "dropped_events": 0, "counters": {{}}, "histograms": {{}}}}
}}
"#
        ))
    }

    #[test]
    fn doctored_translation_totals_gate_like_counters() {
        let old = v7(96, 960);
        let exp = &old.experiments["reach_promoted"];
        assert_eq!(exp.translation["promotions"], 96);
        assert_eq!(exp.translation["waste_frames"], 960);

        // +50% promotion fill waste fails the 25% gate on its own.
        let report = diff(&old, &v7(96, 1440), 25.0);
        assert_eq!(report.regressions(), 1, "{:?}", report.lines);
        assert!(report.lines.iter().any(|(c, l)| *c == DiffClass::Regression
            && l.contains("reach_promoted.translation waste_frames")
            && l.contains("960 -> 1440")));

        // The scanner halving its collapses is surfaced (improvement
        // direction — `repro check` owns the never-fired warning).
        let report = diff(&old, &v7(48, 960), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|(c, l)| *c == DiffClass::Improvement && l.contains("promotions")));

        // Sub-floor totals never gate (demotions 2 stays under 8).
        let report = diff(&old, &v7(96, 960), 25.0);
        assert_eq!(report.regressions(), 0, "{:?}", report.lines);
    }

    #[test]
    fn older_schema_snapshots_are_rejected() {
        let current = snapshot_json(100.0, 150.0, 5000);
        assert_eq!(parse(&current).schema, SCHEMA);
        let v6 = current.replace("repro-v7", "repro-v6");
        let err = Snapshot::parse(&v6, "old").unwrap_err();
        assert!(err.contains("sat-bench/repro-v6"), "{err}");
    }
}
