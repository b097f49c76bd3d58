//! The repository benchmark.
//!
//! `perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]`
//! runs one workload in this process on at most two threads and prints
//! its metrics, one `name = value unit` line each, then one JSON object
//! as the last line:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//!
//! The workload repeats — set-up, measured phase, checks — until the
//! measured phases add up to `--seconds`; timings are medians over the
//! repetitions, and every timing is process CPU seconds (see
//! [`spans::cpu_s`]). With `--trace 0` nothing is traced and the
//! metrics are the end-to-end ones ([`E2E_METRICS`]). With `--trace 1`
//! repetitions alternate untraced and traced: traced ones record a span
//! around every call into a layer and turn the program's obs metrics
//! and engine profiling on, and the metrics are the per-layer ones
//! ([`LAYER_METRICS`]), including the tracing overhead `obs.overhead_s`.
//! The spans are written to `out/spans-<workload>-<seed>.jsonl` in this
//! package's directory.
//!
//! The process exits 1 when any check failed (a Tier-1 repetition that
//! did not quiesce, failed an audit or, at the default seed, missed its
//! pinned digest; a fuzz batch whose inputs at the default seed miss
//! their pinned digest) and 2 on bad arguments. Failing fuzz cases are
//! what the fuzz workload measures: they count in `failed` and their
//! seeds are printed, but they are not a failure of the benchmark.

pub mod fuzz;
pub mod spans;
pub mod stats;
pub mod tier1;

use spans::Tracer;
use stats::{median, step_medians, tail, Ratio};
use std::collections::BTreeMap;
use std::time::Instant;
use tier1::Kind;

/// End-to-end metrics: name and unit. Printed with `--trace 0`.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("feed_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
];

/// Per-layer metrics, `<module>.<metric>`: name and unit. Printed with
/// `--trace 1`; a metric a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.model_s", "s"),
    ("workload.trace_s", "s"),
    ("workload.feed_records", "count"),
    ("netsim.schedule_s", "s"),
    ("netsim.converge_s", "s"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.events_per_feed", "ratio"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.max_queue", "count"),
    ("netsim.msgs", "count"),
    ("netsim.dropped", "count"),
    ("core.build_sim_s", "s"),
    ("core.updates.received", "count"),
    ("core.updates.generated", "count"),
    ("core.updates.transmitted", "count"),
    ("core.updates.bytes", "B"),
    ("core.arr.received_avg", "count"),
    ("core.arr.generated_avg", "count"),
    ("core.arr.transmitted_avg", "count"),
    ("core.ebgp.events", "count"),
    ("core.ebgp.exported", "count"),
    ("core.fanout", "ratio"),
    ("bgp-rib.rib_in_paths", "count"),
    ("bgp-rib.rib_out_paths", "count"),
    ("bgp-rib.loc_rib_prefixes", "count"),
    ("bgp-rib.arr.rib_in_avg", "count"),
    ("bgp-rib.arr.rib_out_avg", "count"),
    ("bgp-rib.bytes_per_path", "B"),
    ("bgp-types.intern.entries", "count"),
    ("bgp-types.intern.hit_ratio", "ratio"),
    ("bgp-wire.encoded", "count"),
    ("bgp-wire.decoded", "count"),
    ("bgp-wire.bytes_decoded", "B"),
    ("faults.compile_s", "s"),
    ("scenario.gen_s", "s"),
    ("scenario.compile_s", "s"),
    ("scenario.check_s", "s"),
    ("scenario.checks_run", "count"),
    ("scenario.failures", "count"),
    ("scenario.run_seq_s", "s"),
    ("scenario.run_sharded_s", "s"),
    ("scenario.run_wire_s", "s"),
    ("audit.blackholes", "count"),
    ("audit.loops", "count"),
    ("obs.overhead_s", "s"),
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One of the Tier-1 workloads.
    Tier1(Kind),
    /// Generated scenarios through the oracle stack.
    Fuzz,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "converge" => Workload::Tier1(Kind::Converge),
            "churn" => Workload::Tier1(Kind::Churn),
            "failover" => Workload::Tier1(Kind::Failover),
            "fuzz" => Workload::Fuzz,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tier1(Kind::Converge) => "converge",
            Workload::Tier1(Kind::Churn) => "churn",
            Workload::Tier1(Kind::Failover) => "failover",
            Workload::Fuzz => "fuzz",
        }
    }

    /// The seed the workload's digests are pinned at.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Tier1(_) => tier1::DEFAULT_SEED,
            Workload::Fuzz => fuzz::DEFAULT_SEED,
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds to accumulate.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text for bad arguments.
pub const USAGE: &str = "usage: perfbench --workload converge|churn|failover|fuzz \
                         [--seed N] [--seconds S] [--trace 0|1]";

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 16.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
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
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// The outcome of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (Tier-1 repetitions, distinct fuzz cases).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The printed metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// JSON has no NaN or infinity; no metric should produce one.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Wall-clock cap on the repetition loop, so a run ends well inside the
/// three minutes a run may take even on a much slower host.
const WALL_CAP_S: f64 = 100.0;

/// The loop also stops starting repetitions once it has run this many
/// times `--seconds` of wall clock: the measured seconds are CPU
/// seconds, and a host that withholds the CPU would otherwise stretch a
/// run's wall time without bound short of [`WALL_CAP_S`].
const WALL_PER_MEASURED: f64 = 2.0;

/// Turns the benchmark's spans and the program's obs metrics and
/// engine profiling on or off together.
pub fn set_tracing(tr: &mut Tracer, on: bool) {
    tr.set_enabled(on);
    obs::metrics::set_enabled(on);
    obs::profile::set_enabled(on);
}

/// Repeats `rep` until the measured phases (`run_s`) add up to
/// `seconds` or the wall-clock cap passes. In a traced invocation
/// repetitions alternate untraced and traced, starting untraced, and at
/// least one of each runs.
fn repeat<R>(
    args: &Args,
    tr: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer) -> R,
    run_s: impl Fn(&R) -> f64,
) -> Vec<(bool, R)> {
    let wall = Instant::now();
    let wall_cap_s = (WALL_PER_MEASURED * args.seconds).min(WALL_CAP_S);
    let mut reps = Vec::new();
    let mut measured = 0.0;
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        set_tracing(tr, traced);
        let r = rep(tr);
        set_tracing(tr, false);
        measured += run_s(&r);
        reps.push((traced, r));
        let complete = !args.trace || reps.len() >= 2;
        if complete && (measured >= args.seconds || wall.elapsed().as_secs_f64() > wall_cap_s) {
            return reps;
        }
    }
}

/// Runs the workload and builds its report. Spans of a traced run are
/// written under `out/` in this package's directory.
pub fn run(args: &Args) -> Report {
    let mut tr = Tracer::new(false);
    let mut report = match args.workload {
        Workload::Tier1(kind) => {
            let p = kind.params();
            let reps = repeat(
                args,
                &mut tr,
                |tr| tier1::run_rep(kind, &p, args.seed, Some(p.slice), tr),
                |r| r.run_s,
            );
            tier1_report(kind, args, &reps)
        }
        Workload::Fuzz => {
            let reps = repeat(
                args,
                &mut tr,
                |tr| fuzz::run_rep(args.seed, tr),
                |r| r.run_s,
            );
            fuzz_report(args, &reps)
        }
    };
    if args.trace {
        report
            .notes
            .push("span totals (count, total s, self s):".into());
        for (name, t) in tr.totals() {
            report.notes.push(format!(
                "  {name:<24} {:>7} {:>12.6} {:>12.6}",
                t.count, t.total_s, t.self_s
            ));
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path)) {
            Ok(()) => report.notes.push(format!(
                "{} spans written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => {
                report.correct = false;
                report.notes.push(format!("could not write spans: {e}"));
            }
        }
    }
    report
}

/// Values collected per metric name before they are put in order.
type Values = BTreeMap<&'static str, f64>;

/// The timings every repetition records.
trait Timings {
    /// Set-up seconds.
    fn setup_s(&self) -> f64;
    /// Measured-phase seconds.
    fn run_s(&self) -> f64;
    /// Seconds of each step, in step order.
    fn steps_s(&self) -> &[f64];
}

impl Timings for tier1::Rep {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn run_s(&self) -> f64 {
        self.run_s
    }
    fn steps_s(&self) -> &[f64] {
        &self.steps_s
    }
}

impl Timings for fuzz::Rep {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn run_s(&self) -> f64 {
        self.run_s
    }
    fn steps_s(&self) -> &[f64] {
        &self.steps_s
    }
}

/// Splits repetitions into the untraced and the traced ones.
fn split<R>(reps: &[(bool, R)]) -> (Vec<&R>, Vec<&R>) {
    let pick = |traced: bool| {
        reps.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| r)
            .collect()
    };
    (pick(false), pick(true))
}

/// Median of `f` over `reps`.
fn med<R>(reps: &[&R], f: impl Fn(&R) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Fills the end-to-end metrics from the untraced repetitions: `feed`
/// eBGP records and `cases` cases per measured phase. Each step's time
/// is its median over the repetitions.
fn e2e<R: Timings>(
    values: &mut Values,
    untraced: &[&R],
    feed: f64,
    cases: f64,
    notes: &mut Vec<String>,
) {
    let run_s = med(untraced, R::run_s);
    let steps = step_medians(&untraced.iter().map(|r| r.steps_s()).collect::<Vec<_>>());
    values.insert("setup_s", med(untraced, R::setup_s));
    values.insert("run_s", run_s);
    values.insert("feed_per_s", feed / run_s);
    values.insert("cases_per_s", cases / run_s);
    values.insert("peak_rss_mb", abrr_bench::peak_rss_kb() as f64 / 1024.0);
    values.insert("step_p50_ms", median(&steps) * 1e3);
    let about = format!(
        "steps: {} per repetition, each the median of {} repetitions",
        steps.len(),
        untraced.len()
    );
    match tail(&steps) {
        Some(t) => {
            values.insert("step_tail_ms", t.value * 1e3);
            notes.push(format!(
                "{about} (step_tail_ms is p{} with {} steps beyond it)",
                t.percentile, t.beyond
            ));
        }
        None => {
            let max = steps.iter().copied().fold(0.0, f64::max);
            values.insert("step_tail_ms", max * 1e3);
            notes.push(format!(
                "{about} (too few for a tail with 10 beyond; step_tail_ms is the maximum)"
            ));
        }
    }
}

/// Traced minus untraced median measured-phase seconds.
fn overhead_s<R: Timings>(untraced: &[&R], traced: &[&R]) -> f64 {
    med(traced, R::run_s) - med(untraced, R::run_s)
}

/// Puts `values` in the order of `names` (missing ones read 0).
fn ordered(
    values: &Values,
    names: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    names
        .iter()
        .map(|(name, unit)| (*name, values.get(name).copied().unwrap_or(0.0), *unit))
        .collect()
}

fn tier1_report(kind: Kind, args: &Args, reps: &[(bool, tier1::Rep)]) -> Report {
    let mut notes = Vec::new();
    let mut failed = 0;
    for (i, (traced, r)) in reps.iter().enumerate() {
        failed += u64::from(!r.ok(kind, args.seed));
        notes.push(format!(
            "rep {i}{}: setup {:.3} s, run {:.3} s, quiesced {}, blackholes {}, loops {}, digest {:#018x}{}",
            if *traced { " (traced)" } else { "" },
            r.setup_s,
            r.run_s,
            r.quiesced,
            r.blackholes,
            r.loops,
            r.digest,
            if args.seed != tier1::DEFAULT_SEED {
                String::new()
            } else if r.digest == kind.pinned_digest() {
                " (matches pinned)".to_string()
            } else {
                format!(" (pinned {:#018x}: MISMATCH)", kind.pinned_digest())
            },
        ));
    }
    let (untraced, traced) = split(reps);
    let mut values = Values::new();
    e2e(
        &mut values,
        &untraced,
        untraced[0].feed_records as f64,
        1.0,
        &mut notes,
    );

    if let Some(last) = traced.last() {
        let engine_s = med(&traced, |r| r.engine_s);
        let u = &last.updates;
        let events_per_feed = Ratio::new(last.events as f64, last.feed_records as f64);
        let fanout = Ratio::new(u.transmitted as f64, u.generated as f64);
        let hit_ratio = Ratio::new(
            last.intern_hits as f64,
            (last.intern_hits + last.intern_misses) as f64,
        );
        let first = &reps[0].1;
        let bytes_per_path = Ratio::new(
            first.hwm_rise_kb as f64 * 1024.0,
            first.converged_paths as f64,
        );
        for (name, r) in [
            ("netsim.events_per_feed", events_per_feed),
            ("core.fanout", fanout),
            ("bgp-types.intern.hit_ratio", hit_ratio),
            ("bgp-rib.bytes_per_path (first rep)", bytes_per_path),
        ] {
            notes.push(format!("{name} = {r}"));
        }
        values.extend([
            ("workload.model_s", med(&traced, |r| r.model_s)),
            ("workload.trace_s", med(&traced, |r| r.trace_s)),
            ("workload.feed_records", last.feed_records as f64),
            ("netsim.schedule_s", med(&traced, |r| r.schedule_s)),
            ("netsim.converge_s", med(&traced, |r| r.converge_s)),
            ("netsim.run_s", engine_s),
            ("netsim.events", last.events as f64),
            ("netsim.events_per_feed", events_per_feed.value()),
            ("netsim.events_per_s", last.events as f64 / engine_s),
            ("netsim.max_queue", last.max_queue as f64),
            ("netsim.msgs", last.msgs as f64),
            ("netsim.dropped", last.dropped as f64),
            ("core.build_sim_s", med(&traced, |r| r.build_sim_s)),
            ("core.updates.received", u.received as f64),
            ("core.updates.generated", u.generated as f64),
            ("core.updates.transmitted", u.transmitted as f64),
            ("core.updates.bytes", u.bytes_transmitted as f64),
            ("core.arr.received_avg", last.arr_updates_avg[0]),
            ("core.arr.generated_avg", last.arr_updates_avg[1]),
            ("core.arr.transmitted_avg", last.arr_updates_avg[2]),
            ("core.ebgp.events", u.ebgp_events as f64),
            ("core.ebgp.exported", u.ebgp_exported as f64),
            ("core.fanout", fanout.value()),
            ("bgp-rib.rib_in_paths", last.rib_in as f64),
            ("bgp-rib.rib_out_paths", last.rib_out as f64),
            ("bgp-rib.loc_rib_prefixes", last.loc_rib as f64),
            ("bgp-rib.arr.rib_in_avg", last.arr_rib_in_avg),
            ("bgp-rib.arr.rib_out_avg", last.arr_rib_out_avg),
            ("bgp-rib.bytes_per_path", bytes_per_path.value()),
            ("bgp-types.intern.entries", last.intern_entries as f64),
            ("bgp-types.intern.hit_ratio", hit_ratio.value()),
            ("bgp-wire.encoded", last.wire[0] as f64),
            ("bgp-wire.decoded", last.wire[1] as f64),
            ("bgp-wire.bytes_decoded", last.wire[2] as f64),
            ("faults.compile_s", med(&traced, |r| r.faults_compile_s)),
            ("audit.blackholes", last.blackholes as f64),
            ("audit.loops", last.loops as f64),
            ("obs.overhead_s", overhead_s(&untraced, &traced)),
        ]);
    }
    finish(args, reps.len() as u64, failed, failed == 0, values, notes)
}

fn fuzz_report(args: &Args, reps: &[(bool, fuzz::Rep)]) -> Report {
    let mut notes = Vec::new();
    let mut correct = true;
    let first = &reps[0].1;
    notes.push(format!(
        "seed base {}, {} cases per batch, {} batches",
        args.seed,
        fuzz::CASES,
        reps.len()
    ));
    let failing = fuzz::failing_cases(reps.iter().map(|(_, r)| r));
    for (seed, (why, batches)) in &failing {
        let flaky = if *batches == reps.len() {
            String::new()
        } else {
            format!(" (in {batches} of {} batches)", reps.len())
        };
        notes.push(format!("failing seed {seed}{flaky}: {why}"));
    }
    let attempted = fuzz::CASES;
    let failed = failing.len() as u64;
    if args.seed == fuzz::DEFAULT_SEED {
        let ok = reps
            .iter()
            .all(|(_, r)| r.input_digest == fuzz::PINNED_INPUT_DIGEST);
        correct &= ok;
        notes.push(format!(
            "input digest {:#018x} ({})",
            first.input_digest,
            if ok {
                "matches pinned"
            } else {
                "MISMATCH with pinned"
            }
        ));
    }
    let (untraced, traced) = split(reps);
    let mut values = Values::new();
    e2e(
        &mut values,
        &untraced,
        first.feed_records as f64,
        fuzz::CASES as f64,
        &mut notes,
    );
    if let Some(last) = traced.last() {
        values.extend([
            ("workload.feed_records", last.feed_records as f64),
            ("netsim.events", last.events as f64),
            ("bgp-wire.encoded", last.wire[0] as f64),
            ("bgp-wire.decoded", last.wire[1] as f64),
            ("bgp-wire.bytes_decoded", last.wire[2] as f64),
            ("scenario.gen_s", med(&traced, |r| r.gen_s)),
            ("scenario.compile_s", med(&traced, |r| r.compile_s)),
            ("scenario.check_s", med(&traced, |r| r.run_s)),
            ("scenario.checks_run", last.checks_run as f64),
            ("scenario.failures", last.failing.len() as f64),
            ("scenario.run_seq_s", med(&traced, |r| r.engines_s[0])),
            ("scenario.run_sharded_s", med(&traced, |r| r.engines_s[1])),
            ("scenario.run_wire_s", med(&traced, |r| r.engines_s[2])),
            ("obs.overhead_s", overhead_s(&untraced, &traced)),
        ]);
    }
    finish(args, attempted, failed, correct, values, notes)
}

/// Adds the metric lines and the failure ratio to the notes and picks
/// the metric set the invocation prints.
fn finish(
    args: &Args,
    attempted: u64,
    failed: u64,
    correct: bool,
    values: Values,
    mut notes: Vec<String>,
) -> Report {
    let metrics = ordered(
        &values,
        if args.trace {
            LAYER_METRICS
        } else {
            E2E_METRICS
        },
    );
    notes.push(format!(
        "fail_ratio = {}",
        Ratio::new(failed as f64, attempted as f64)
    ));
    for (name, value, unit) in &metrics {
        notes.push(format!("{name} = {value} {unit}"));
    }
    Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}
