//! End-to-end and per-layer benchmark of the shared-address-translation
//! simulator.
//!
//! One process runs one workload, single-threaded, under both kernels
//! the paper compares (`stock` and `shared` = shared PTPs + shared TLB
//! entries). It repeats the whole workload — boot, set-up, measured
//! phase — until `--seconds` have passed (at least [`MIN_REPS`] times
//! untraced), reports medians, and checks that every repetition's
//! simulated counts are identical. `--trace 1` alternates untraced and
//! traced repetitions and reports the per-layer table instead.
//!
//! Host times are in reference seconds (see [`refclock`]); the raw
//! seconds are printed beside them but are not part of the result.

pub mod counts;
pub mod probe;
pub mod refclock;
pub mod workloads;

use std::time::Instant;

use counts::Counts;
use probe::{Aggs, Kind, Probe, KINDS};
use refclock::Meter;
use workloads::{kernels, Ctx, KernelRun, Ops, Size, Workload};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Untraced repetitions a run makes at least.
pub const MIN_REPS: usize = 3;

/// The command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to keep repeating, in seconds.
    pub seconds: f64,
    /// Whether to run traced and report per-layer metrics.
    pub trace: bool,
    /// The work size.
    pub size: Size,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: String,
}

/// The usage line.
pub const USAGE: &str = "usage: perfbench --workload steady|churn|pressure|promote \
[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] [--trace-out FILE]";

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 20.0;
        let mut trace = false;
        let mut size = Size::Full;
        let mut trace_out = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--size" => {
                    size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(bad()),
                    }
                }
                "--trace-out" => trace_out = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            size,
            trace_out: trace_out
                .unwrap_or_else(|| format!(".bench_out/trace-{}.json", workload.name())),
        })
    }
}

/// One repetition: both kernels, in [`kernels`] order.
struct Rep {
    runs: Vec<KernelRun>,
    /// Raw host nanoseconds of each kernel's root span.
    walls_ns: [u64; 2],
    /// Raw host nanoseconds each kernel spent in reference readings.
    ref_ns: [u64; 2],
    /// The traced probe (untraced repetitions carry a pass-through).
    probe: Probe,
    /// Reference speed factor over the repetition.
    factor: f64,
}

impl Rep {
    fn counts(&self) -> [Counts; 2] {
        [self.runs[0].counts, self.runs[1].counts]
    }

    /// Measured-phase time in reference seconds, both kernels.
    fn wall_s(&self, meter: &Meter) -> f64 {
        self.runs
            .iter()
            .flat_map(|r| r.steps.iter())
            .map(|&s| meter.norm_s(s))
            .sum()
    }

    fn wall_raw_s(&self) -> f64 {
        self.runs
            .iter()
            .flat_map(|r| r.steps.iter())
            .map(|s| s.raw_s())
            .sum()
    }
}

/// Runs one repetition of both kernels.
fn repetition(
    args: &Args,
    meter: &mut Meter,
    mut probe: Probe,
    ops: &mut Ops,
    violations: &mut Vec<String>,
) -> Result<Rep, String> {
    let first = meter.readings_len();
    let mut runs = Vec::with_capacity(2);
    let mut walls_ns = [0u64; 2];
    let mut ref_ns = [0u64; 2];
    for (k, (_, config)) in kernels().into_iter().enumerate() {
        probe.set_kernel(k);
        let sampled = meter.sampling_ns();
        let t = Instant::now();
        probe.open(Kind::Rep);
        let mut ctx = Ctx::new(&mut probe, meter);
        let run = workloads::run(&mut ctx, args.workload, config, args.seed, args.size);
        ops.attempted += ctx.ops.attempted;
        ops.failed += ctx.ops.failed;
        violations.extend(
            ctx.violations
                .drain(..)
                .map(|v| format!("{}: {v}", kernels()[k].0)),
        );
        drop(ctx);
        probe.close();
        walls_ns[k] = t.elapsed().as_nanos() as u64;
        ref_ns[k] = meter.sampling_ns() - sampled;
        runs.push(run?);
    }
    let factor = meter.mean_factor(first, meter.readings_len());
    Ok(Rep {
        runs,
        walls_ns,
        ref_ns,
        probe,
        factor,
    })
}

/// One metric of the result line.
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run prints.
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile (0..=1) by linear interpolation between order
/// statistics.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB. Read after the
/// first repetition: later ones only add the allocator fragmentation
/// of repeating inside one process, which a single run does not have.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let empty_ns = if args.trace {
        Probe::empty_call_ns()
    } else {
        0.0
    };
    let mut meter = Meter::new();
    let start = Instant::now();
    let mut ops = Ops::default();
    let mut violations = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    let min = if args.trace { 1 } else { MIN_REPS };
    loop {
        let probe = Probe::new(false, false);
        plain.push(repetition(
            args,
            &mut meter,
            probe,
            &mut ops,
            &mut violations,
        )?);
        if plain.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        if args.trace {
            let probe = Probe::new(true, traced.is_empty());
            traced.push(repetition(
                args,
                &mut meter,
                probe,
                &mut ops,
                &mut violations,
            )?);
        }
        if plain.len() >= min && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Every repetition, traced or not, must produce the same counts.
    let want = plain[0].counts();
    for (i, rep) in plain.iter().chain(traced.iter()).enumerate().skip(1) {
        for ((got, want), (name, _)) in rep.counts().iter().zip(&want).zip(kernels()) {
            if got != want {
                violations.push(format!(
                    "{name}: repetition {i} counts differ from repetition 0:\n  {got:?}\n  {want:?}"
                ));
            }
        }
    }

    let mut notes = Vec::new();
    let metrics = if args.trace {
        layer_metrics(
            &meter,
            &plain,
            &traced,
            empty_ns,
            &mut violations,
            &mut notes,
        )
    } else {
        end_to_end(&meter, &plain, rss_mb, &mut notes)
    };
    notes.push(format!(
        "ops_failed_frac {:.6} ({} of {} public calls returned Err)",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    ));
    if args.trace {
        if let Some(first) = traced.first() {
            write_trace(&args.trace_out, &first.probe)?;
            notes.push(format!(
                "trace: {} spans -> {}",
                first.probe.kept(),
                args.trace_out
            ));
        }
    }
    for v in &violations {
        notes.push(format!("CHECK FAILED: {v}"));
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        notes,
    })
}

fn write_trace(path: &str, probe: &Probe) -> Result<(), String> {
    use std::io::Write;
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let names = kernels().map(|(n, _)| n);
    probe
        .write_chrome(&mut out, names)
        .and_then(|_| out.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The `q` quantile of one kernel's step times in `reps`, pooled, in
/// milliseconds (reference or raw).
fn step_quantile(meter: &Meter, reps: &[Rep], k: usize, q: f64, raw: bool) -> f64 {
    let mut v: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.runs[k].steps.iter())
        .map(|&s| 1e3 * if raw { s.raw_s() } else { meter.norm_s(s) })
        .collect();
    quantile(&mut v, q)
}

/// The end-to-end metrics of the untraced repetitions.
fn end_to_end(meter: &Meter, reps: &[Rep], rss_mb: f64, notes: &mut Vec<String>) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let setup = per_rep(&|r| r.runs.iter().map(|k| meter.norm_s(k.setup)).sum());
    let setup_raw = per_rep(&|r| r.runs.iter().map(|k| k.setup.raw_s()).sum());
    let wall = per_rep(&|r| r.wall_s(meter));
    let wall_raw = per_rep(&Rep::wall_raw_s);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!(
        "{} repetitions; medians: setup {:.4} s (raw {:.4} s), measured phase {:.4} s (raw {:.4} s)",
        reps.len(),
        median(setup.clone()),
        median(setup_raw),
        median(wall.clone()),
        median(wall_raw.clone()),
    ));
    notes.push(format!("setup per repetition: {}", list(&setup)));
    notes.push(format!("measured phase per repetition: {}", list(&wall)));
    notes.push(format!(
        "raw measured phase per repetition: {}",
        list(&wall_raw)
    ));

    let mut p50 = 0.0;
    let mut p90 = 0.0;
    for (k, (name, _)) in kernels().into_iter().enumerate() {
        let q = |q: f64, raw: bool| step_quantile(meter, reps, k, q, raw);
        let (a, b) = (q(0.5, false), q(0.9, false));
        notes.push(format!(
            "{name}: step p50 {a:.4} ms, p90 {b:.4} ms ({} steps: {} per repetition); raw p50 {:.4} ms, p90 {:.4} ms",
            reps.len() * reps[0].runs[k].steps.len(),
            reps[0].runs[k].steps.len(),
            q(0.5, true),
            q(0.9, true),
        ));
        p50 += a / 2.0;
        p90 += b / 2.0;
    }
    notes.push(format!(
        "reference loop ran at {:.3}x its nominal time (median sample)",
        meter.median_reading()
    ));
    let counts = reps[0].counts();
    let wall = median(wall);
    let accesses: u64 = counts.iter().map(|c| c.accesses).sum();
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("setup_s", median(setup), "s"),
        m("wall_s", wall, "s"),
        m("accesses_per_s", accesses as f64 / wall, "1/s"),
        m("step_p50_ms", p50, "ms"),
        m("step_p90_ms", p90, "ms"),
        m("peak_rss_mb", rss_mb, "MiB"),
        m(
            "sim_mcycles.stock",
            counts[0].cycles as f64 / 1e6,
            "Mcycles",
        ),
        m(
            "sim_mcycles.shared",
            counts[1].cycles as f64 / 1e6,
            "Mcycles",
        ),
    ]
}

/// Untimed time a traced repetition may hold per layer call, in
/// reference nanoseconds: the tracing bookkeeping around a call (two
/// timer reads, the access classification, the span record). Measured
/// at 40–75 ns.
const UNTIMED_PER_CALL_NS: f64 = 120.0;

/// Untimed time a traced repetition may hold beyond the per-call
/// allowance, as a share of its wall.
const UNTIMED_SHARE: f64 = 0.02;

/// And in reference nanoseconds, so that the host descheduling the
/// process during the benchmark's own code cannot fail a short run.
const UNTIMED_FLOOR_NS: f64 = 5e6;

/// Timed layer calls of the per-layer table: kind and whether its call
/// count is reported too.
const TIMED: [(Kind, bool); 13] = [
    (Kind::AccessHit, true),
    (Kind::ContextSwitch, true),
    (Kind::AccessWalk, true),
    (Kind::AccessFault, true),
    (Kind::Fork, true),
    (Kind::Exit, true),
    (Kind::AccessReclaim, true),
    (Kind::PromoteScan, true),
    (Kind::Munmap, true),
    (Kind::Boot, false),
    (Kind::Launch, true),
    (Kind::Attach, false),
    (Kind::FetchStream, false),
];

/// The per-layer metrics of the traced repetitions.
fn layer_metrics(
    meter: &Meter,
    plain: &[Rep],
    traced: &[Rep],
    empty_ns: f64,
    violations: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

    for (i, rep) in traced.iter().enumerate() {
        for k in 0..2 {
            let kname = kernels()[k].0;
            let a = rep.probe.aggs(k);
            let wall = rep.walls_ns[k];
            // A sanity identity: a span's self time is its duration
            // minus its children's, so the self times sum to the root
            // span, which the wall brackets.
            let total: u64 = a.iter().map(|a| a.self_ns).sum();
            if total.abs_diff(wall) as f64 > 0.001 * wall as f64 + 50_000.0 {
                violations.push(format!(
                    "{kname}: traced repetition {i}: span self times sum to {total} ns, wall is {wall} ns"
                ));
            }
            // The check that can fail: the benchmark's own time, less
            // its reference readings, is the tracing bookkeeping around
            // each layer call plus anything no span times. Above the
            // allowance, some call into a layer is running untimed.
            let own: u64 = Kind::ALL
                .iter()
                .filter(|k| k.is_bench())
                .map(|&k| a[k as usize].self_ns)
                .sum();
            let leaves: u64 = Kind::ALL
                .iter()
                .filter(|k| !k.is_bench())
                .map(|&k| a[k as usize].calls)
                .sum();
            let untimed = own.saturating_sub(rep.ref_ns[k]) as f64 * rep.factor;
            let allowed = leaves as f64 * UNTIMED_PER_CALL_NS
                + UNTIMED_SHARE * wall as f64 * rep.factor
                + UNTIMED_FLOOR_NS;
            if i == 0 {
                notes.push(format!(
                    "{kname}: bench.self {own} ns raw = reference readings {} ns + untimed {} ns; untimed at reference speed {untimed:.0} ns ({:.1} ns per layer call), allowed {allowed:.0} ns",
                    rep.ref_ns[k],
                    own.saturating_sub(rep.ref_ns[k]),
                    untimed / leaves.max(1) as f64,
                ));
            }
            if untimed > allowed {
                violations.push(format!(
                    "{kname}: traced repetition {i}: {untimed:.0} ns (reference speed) lies in no layer span, more than the {allowed:.0} ns allowed: a call into a layer runs untimed"
                ));
            }
        }
        // Layer call counts repeat exactly across traced repetitions.
        for k in 0..2 {
            let a = rep.probe.aggs(k);
            let b = traced[0].probe.aggs(k);
            if (0..KINDS).any(|j| a[j].calls != b[j].calls) {
                violations.push(format!(
                    "{}: traced repetition {i} span counts differ from repetition 0",
                    kernels()[k].0
                ));
            }
        }
    }

    let counts = traced[0].counts();
    for (k, (kname, _)) in kernels().into_iter().enumerate() {
        let aggs: Vec<&Aggs> = traced.iter().map(|r| r.probe.aggs(k)).collect();
        let calls = |kind: Kind| aggs[0][kind as usize].calls;
        // Mean self ns per call at reference speed, empty-call cost
        // removed.
        let ns = |kind: Kind| {
            let j = kind as usize;
            let n: u64 = aggs.iter().map(|a| a[j].calls).sum();
            if n == 0 {
                return 0.0;
            }
            let t: f64 = traced
                .iter()
                .zip(&aggs)
                .map(|(r, a)| (a[j].self_ns as f64 - a[j].calls as f64 * empty_ns) * r.factor)
                .sum();
            t / n as f64
        };
        for (kind, with_calls) in TIMED {
            push(format!("{}.ns.{kname}", kind.name()), ns(kind), "ns");
            if with_calls {
                push(
                    format!("{}.calls.{kname}", kind.name()),
                    calls(kind) as f64,
                    "count",
                );
            }
        }
        let c = counts[k];
        let n =
            |name: &str, v: u64, unit: &'static str| (format!("{name}.{kname}"), v as f64, unit);
        for (name, v, unit) in [
            n("tlb.main.hits", c.tlb_hits, "count"),
            n("tlb.main.misses", c.tlb_misses, "count"),
            n("tlb.main.global_hits", c.tlb_global_hits, "count"),
            n("cache.l1i.misses", c.l1i_misses, "count"),
            n("cache.l1d.misses", c.l1d_misses, "count"),
            n("cache.l2.misses", c.l2_misses, "count"),
            n("cache.walk_stall_cycles", c.walk_stall_cycles, "cycles"),
            n(
                "sim.inst_tlb_stall_cycles",
                c.inst_tlb_stall_cycles,
                "cycles",
            ),
            n(
                "sim.data_tlb_stall_cycles",
                c.data_tlb_stall_cycles,
                "cycles",
            ),
            n("vm.page_faults", c.page_faults, "count"),
            n("vm.refaults", c.refaults, "count"),
            n("core.forks", c.forks, "count"),
            n("core.ptp_unshares", c.ptp_unshares, "count"),
            n("mmu.ptps_allocated", c.ptps_allocated, "count"),
            n("mmu.ptes_copied", c.ptes_copied, "count"),
            n("tlb.main.entries_flushed", c.tlb_entries_flushed, "count"),
            n("tlb.main.avoided_flushes", c.tlb_avoided_flushes, "count"),
            n("tlb.shootdown_ipis", c.shootdown_ipis, "count"),
            n("core.reclaims", c.reclaims, "count"),
            n("core.reclaim_pages", c.reclaim_pages, "count"),
            n("core.reclaim_pte_tears", c.reclaim_pte_tears, "count"),
            n("core.reclaim_shared_tears", c.reclaim_shared_tears, "count"),
            n("phys.frames_peak", c.frames_peak, "frames"),
            n("core.promotions", c.promotions, "count"),
            n("core.demotions", c.demotions, "count"),
            n("core.waste_frames", c.waste_frames, "frames"),
            n("phys.total_allocs", c.total_allocs, "count"),
        ] {
            push(name, v, unit);
        }
        let lookups = c.tlb_hits + c.tlb_misses;
        push(
            format!("tlb.main.hit_ratio.{kname}"),
            if lookups == 0 {
                0.0
            } else {
                c.tlb_hits as f64 / lookups as f64
            },
            "ratio",
        );
        // The layer table, reconciled to the wall.
        let rep = &traced[0];
        let a = rep.probe.aggs(k);
        let leaf_calls: u64 = Kind::ALL
            .iter()
            .filter(|k| !k.is_bench())
            .map(|&k| a[k as usize].calls)
            .sum();
        let bench_self: u64 = Kind::ALL
            .iter()
            .filter(|k| k.is_bench())
            .map(|&k| a[k as usize].self_ns)
            .sum();
        notes.push(format!(
            "{kname}: layer self time (traced repetition 0, raw ns, empty-call cost {empty_ns:.1} ns per span moved to bench.self):"
        ));
        for kind in Kind::ALL.iter().filter(|k| !k.is_bench()) {
            let x = a[*kind as usize];
            if x.calls > 0 {
                notes.push(format!(
                    "  {:<22} {:>10} calls {:>14.0} ns",
                    kind.name(),
                    x.calls,
                    x.self_ns as f64 - x.calls as f64 * empty_ns
                ));
            }
        }
        let layers: f64 = Kind::ALL
            .iter()
            .filter(|k| !k.is_bench())
            .map(|&k| a[k as usize].self_ns as f64)
            .sum::<f64>()
            - leaf_calls as f64 * empty_ns;
        let bench = bench_self as f64 + leaf_calls as f64 * empty_ns;
        notes.push(format!(
            "  layers {layers:.0} ns + bench.self {bench:.0} ns = {:.0} ns; wall {} ns",
            layers + bench,
            rep.walls_ns[k]
        ));
    }

    let bench_self: Vec<f64> = traced
        .iter()
        .map(|r| {
            (0..2)
                .map(|k| {
                    let a = r.probe.aggs(k);
                    let leaf_calls: u64 = Kind::ALL
                        .iter()
                        .filter(|k| !k.is_bench())
                        .map(|&k| a[k as usize].calls)
                        .sum();
                    let own: u64 = Kind::ALL
                        .iter()
                        .filter(|k| k.is_bench())
                        .map(|&k| a[k as usize].self_ns)
                        .sum();
                    (own as f64 + leaf_calls as f64 * empty_ns) * r.factor
                })
                .sum()
        })
        .collect();
    push("bench.self.ns".into(), median(bench_self), "ns");
    let untraced = median(plain.iter().map(|r| r.wall_s(meter)).collect());
    let with = median(traced.iter().map(|r| r.wall_s(meter)).collect());
    let overhead = 100.0 * (with - untraced) / untraced;
    notes.push(format!(
        "tracing overhead {overhead:.1}% (measured phase {with:.4} s traced vs {untraced:.4} s untraced, reference seconds)"
    ));
    push("bench.trace_overhead_pct".into(), overhead, "%");
    out
}
