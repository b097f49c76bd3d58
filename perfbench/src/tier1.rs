//! The Tier-1 workloads: `converge`, `churn` and `failover`, all on the
//! same ABRR network — `abrr_spec(model, 8 APs, 2 ARRs per AP)` over a
//! seeded [`Tier1Model`] — and all on the default sequential engine.
//!
//! One repetition ([`run_rep`]) builds everything from the seed, runs
//! the measured phase in fixed slices (one `run_engine` call per slice
//! is one step; see [`Slice`]), then audits and digests
//! the final state outside the timed phases.

use crate::spans::Tracer;
use abrr::{BgpNode, NetworkSpec, UpdateCounters};
use abrr_bench::{counter_delta, fleet_stats, peak_rss_kb, SETTLE_BUDGET_US};
use bgp_types::RouterId;
use faults::{FaultKind, FaultSchedule, ResilienceProbe};
use netsim::{Engine, RunLimits, Sim, Time};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use workload::specs::{self, SpecOptions};
use workload::{churn, regen, ChurnConfig, Tier1Config, Tier1Model, TraceRecord};

/// The Tier-1 model seed the digests are pinned at (the paper's trace
/// start date, as in [`Tier1Config::default`]).
pub const DEFAULT_SEED: u64 = 20101220;
/// Address partitions.
const APS: usize = 8;
/// ARRs serving each partition.
const ARRS_PER_AP: usize = 2;
/// Replay speed-up of the initial RIB snapshot (as in the fig6 runs).
const SNAPSHOT_SPEEDUP: u64 = 1_000;

/// One of the three Tier-1 workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Snapshot load to quiescence (insert-only RIB traffic).
    Converge,
    /// Churn trace replayed on a converged network.
    Churn,
    /// Churn trace with the first ARR failing at its midpoint.
    Failover,
}

/// The size of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Routed prefixes in the model.
    pub prefixes: usize,
    /// iBGP MRAI, µs.
    pub mrai_us: Time,
    /// Churn trace length, simulated µs (churn and failover).
    pub trace_us: Time,
    /// How the measured phase is cut into steps.
    pub slice: Slice,
}

/// The fixed slice of one step.
#[derive(Clone, Copy, Debug)]
pub enum Slice {
    /// Simulated time, µs.
    Time(Time),
    /// Engine events. Used for the snapshot load, whose work per slice
    /// of simulated time spans four orders of magnitude (MRAI bursts),
    /// so a time-sliced median would hinge on the seed.
    Events(u64),
}

impl Kind {
    /// The benchmark's settings for this workload.
    pub fn params(self) -> Params {
        match self {
            Kind::Converge => Params {
                prefixes: 5_000,
                mrai_us: 1_000_000,
                trace_us: 0,
                slice: Slice::Events(2_000),
            },
            Kind::Churn => Params {
                prefixes: 1_000,
                mrai_us: 1_000_000,
                trace_us: 600_000_000,
                slice: Slice::Time(250_000),
            },
            Kind::Failover => Params {
                prefixes: 1_000,
                mrai_us: 0,
                trace_us: 600_000_000,
                slice: Slice::Time(250_000),
            },
        }
    }

    /// The final-state digest at [`DEFAULT_SEED`] with [`Kind::params`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Kind::Converge => 0x9ded_5489_3541_3477,
            Kind::Churn => 0xf393_4f5e_ec27_b4b7,
            Kind::Failover => 0x31b0_4793_bcd4_e15c,
        }
    }
}

/// Everything one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// CPU seconds before the measured phase.
    pub setup_s: f64,
    /// CPU seconds of the measured phase.
    pub run_s: f64,
    /// CPU seconds of each step.
    pub steps_s: Vec<f64>,
    /// `Tier1Model::generate`, s.
    pub model_s: f64,
    /// Snapshot and churn-trace generation, s.
    pub trace_s: f64,
    /// Spec construction and `build_sim`, s.
    pub build_sim_s: f64,
    /// Snapshot convergence inside set-up (churn, failover), s.
    pub converge_s: f64,
    /// Fault-schedule compilation (failover), s.
    pub faults_compile_s: f64,
    /// `regen::replay` of the measured feed, s.
    pub schedule_s: f64,
    /// `run_engine` calls of the measured phase, s.
    pub engine_s: f64,
    /// eBGP feed records replayed in the measured phase.
    pub feed_records: usize,
    /// Whether every run (set-up convergence and measured phase) drained
    /// its event queue before its deadline.
    pub quiesced: bool,
    /// Final-state digest (see [`digest`]).
    pub digest: u64,
    /// Blackholed (router, prefix) pairs in the final state.
    pub blackholes: usize,
    /// Forwarding-loop observations in the final state.
    pub loops: u64,
    /// Engine events of the measured phase.
    pub events: u64,
    /// Session messages sent in the measured phase.
    pub msgs: u64,
    /// Messages dropped in the measured phase.
    pub dropped: u64,
    /// Largest event-queue depth (only with engine profiling on).
    pub max_queue: usize,
    /// Update counters of the measured phase, summed over all nodes.
    pub updates: UpdateCounters,
    /// Per-ARR averages of received, generated and transmitted updates.
    pub arr_updates_avg: [f64; 3],
    /// Adj-RIB-In paths over all nodes at the end.
    pub rib_in: usize,
    /// Adj-RIB-Out paths over all nodes at the end.
    pub rib_out: usize,
    /// Loc-RIB prefixes over all nodes at the end.
    pub loc_rib: usize,
    /// Per-ARR average Adj-RIB-In size.
    pub arr_rib_in_avg: f64,
    /// Per-ARR average Adj-RIB-Out size.
    pub arr_rib_out_avg: f64,
    /// Rise in peak RSS (kB) across building and converging the network.
    pub hwm_rise_kb: u64,
    /// Adj-RIB-In plus Adj-RIB-Out paths right after convergence.
    pub converged_paths: usize,
    /// Interner lookups that found a shared entry during the repetition.
    pub intern_hits: u64,
    /// Interner lookups that allocated during the repetition.
    pub intern_misses: u64,
    /// Live interner entries at the end, network still alive.
    pub intern_entries: usize,
    /// obs `core.wire.{encoded,decoded,bytes_decoded}` (metrics on only).
    pub wire: [u64; 3],
}

impl Rep {
    /// Whether the repetition passed every check: quiescence, the
    /// blackhole and loop audits and, at the default seed, the pinned
    /// digest.
    pub fn ok(&self, kind: Kind, seed: u64) -> bool {
        self.quiesced
            && self.blackholes == 0
            && self.loops == 0
            && (seed != DEFAULT_SEED || self.digest == kind.pinned_digest())
    }
}

/// The converged network a measured phase starts from.
struct Prepared {
    spec: Arc<NetworkSpec>,
    sim: Sim<BgpNode>,
    feed: Vec<TraceRecord>,
    speedup: u64,
    quiesced: bool,
}

/// Runs one repetition of `kind`. With `slice = None` the measured
/// phase is a single `run_engine` call; the digest must not depend on
/// it, nor on whether tracing or obs metrics are on.
pub fn run_rep(kind: Kind, p: &Params, seed: u64, slice: Option<Slice>, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let intern0 = bgp_types::intern::stats();
    if obs::metrics::enabled() {
        obs::metrics::reset();
    }
    let hwm0 = peak_rss_kb();

    let (prep, setup_s) = tr.span("setup", |tr| setup(kind, p, seed, tr, &mut rep));
    rep.setup_s = setup_s;
    let Prepared {
        spec,
        mut sim,
        feed,
        speedup,
        quiesced: setup_quiesced,
    } = prep;
    if kind != Kind::Converge {
        rep.hwm_rise_kb = peak_rss_kb().saturating_sub(hwm0);
        rep.converged_paths = paths(&sim, &spec);
    }
    obs::profile::take_runs();

    let nodes = spec.all_nodes();
    let arrs = spec.all_arrs();
    let (all0, arrs0) = (fleet_stats(&sim, &nodes), fleet_stats(&sim, &arrs));
    let (msgs0, dropped0) = (sent(&sim, &nodes), sim.dropped_messages());
    let deadline = sim.now() + feed.last().map_or(0, |r| r.t_us) / speedup + SETTLE_BUDGET_US;
    let ((quiesced, events, steps), run_s) = tr.span("measure", |tr| {
        let ((), schedule_s) = tr.span("netsim.schedule", |_| {
            regen::replay(&mut sim, &feed, speedup)
        });
        let (out, engine_s) = tr.span("netsim.run", |tr| drive(&mut sim, deadline, slice, tr));
        rep.schedule_s = schedule_s;
        rep.engine_s = engine_s;
        out
    });
    rep.run_s = run_s;
    rep.steps_s = steps;
    rep.events = events;
    rep.quiesced = setup_quiesced && quiesced;
    rep.feed_records = feed.len();
    rep.max_queue = obs::profile::take_runs()
        .iter()
        .map(|r| r.max_queue)
        .max()
        .unwrap_or(0);
    if kind == Kind::Converge {
        rep.hwm_rise_kb = peak_rss_kb().saturating_sub(hwm0);
        rep.converged_paths = paths(&sim, &spec);
    }

    let (all1, arrs1) = (fleet_stats(&sim, &nodes), fleet_stats(&sim, &arrs));
    rep.msgs = sent(&sim, &nodes) - msgs0;
    rep.dropped = sim.dropped_messages() - dropped0;
    rep.updates = counter_delta(&all0, &all1);
    let per_arr = counter_delta(&arrs0, &arrs1);
    let n_arrs = arrs.len().max(1) as f64;
    rep.arr_updates_avg =
        [per_arr.received, per_arr.generated, per_arr.transmitted].map(|v| v as f64 / n_arrs);
    rep.arr_rib_in_avg = arrs1.rib_in.avg;
    rep.arr_rib_out_avg = arrs1.rib_out.avg;
    for r in &nodes {
        let n = sim.node(*r);
        rep.rib_in += n.rib_in_size();
        rep.rib_out += n.rib_out_size();
        rep.loc_rib += n.loc_rib_len();
    }

    let intern = bgp_types::intern::stats();
    rep.intern_hits = intern.hits - intern0.hits;
    rep.intern_misses = intern.misses - intern0.misses;
    rep.intern_entries = intern.entries;
    rep.wire = wire_counters();

    let ((blackholes, loops), _) = tr.span("audit.final_state", |_| {
        let mut probe = ResilienceProbe::new(sim.now());
        probe.sample(&sim, &spec, true);
        (probe.currently_blackholed, probe.loop_observations)
    });
    rep.blackholes = blackholes;
    rep.loops = loops;
    rep.digest = digest(&sim, &spec, rep.quiesced);
    rep
}

/// Builds the inputs and the network; for churn and failover also
/// converges the snapshot and (failover) compiles the ARR failure.
fn setup(kind: Kind, p: &Params, seed: u64, tr: &mut Tracer, rep: &mut Rep) -> Prepared {
    let (model, model_s) = tr.span("workload.model", |_| {
        Tier1Model::generate(Tier1Config {
            seed,
            n_prefixes: p.prefixes,
            ..Tier1Config::default()
        })
    });
    rep.model_s = model_s;
    let ((snapshot, trace), trace_s) = tr.span("workload.trace", |_| {
        let trace = (kind != Kind::Converge).then(|| {
            churn::generate(
                &model,
                &ChurnConfig {
                    seed,
                    duration_us: p.trace_us,
                    events_per_sec: 2.0,
                    ..ChurnConfig::default()
                },
            )
        });
        (churn::initial_snapshot(&model), trace)
    });
    rep.trace_s = trace_s;
    let opts = SpecOptions {
        mrai_us: p.mrai_us,
        ..SpecOptions::default()
    };
    let ((spec, mut sim), build_sim_s) = tr.span("core.build_sim", |_| {
        let spec = Arc::new(specs::abrr_spec(&model, APS, ARRS_PER_AP, &opts));
        let sim = abrr::build_sim(spec.clone());
        (spec, sim)
    });
    rep.build_sim_s = build_sim_s;

    let Some(trace) = trace else {
        return Prepared {
            spec,
            sim,
            feed: snapshot,
            speedup: SNAPSHOT_SPEEDUP,
            quiesced: true,
        };
    };
    let (out, converge_s) = tr.span("netsim.converge", |_| {
        regen::replay(&mut sim, &snapshot, SNAPSHOT_SPEEDUP);
        sim.run_engine(
            Engine::Seq,
            RunLimits {
                max_events: u64::MAX,
                max_time: sim.now() + SETTLE_BUDGET_US,
            },
        )
    });
    rep.converge_s = converge_s;
    if kind == Kind::Failover {
        let at = sim.now() + p.trace_us / 2;
        let ((), compile_s) = tr.span("faults.compile", |_| {
            let mut sched = FaultSchedule::new(seed);
            sched.push(
                at,
                FaultKind::ArrFailure {
                    arr: spec.all_arrs()[0],
                },
            );
            faults::compile(&sched, &spec, &mut sim)
                .expect("an ARR failure of a spec ARR always compiles");
        });
        rep.faults_compile_s = compile_s;
    }
    Prepared {
        spec,
        sim,
        feed: trace,
        speedup: 1,
        quiesced: out.quiesced,
    }
}

/// Runs the engine to `deadline`, one `run_engine` call per slice (or
/// one call in all). Returns whether the queue drained, the events
/// processed, and the CPU seconds of each call that processed at
/// least one event (a step; idle slices are not steps).
fn drive(
    sim: &mut Sim<BgpNode>,
    deadline: Time,
    slice: Option<Slice>,
    tr: &mut Tracer,
) -> (bool, u64, Vec<f64>) {
    let start = sim.now();
    let mut events = 0;
    let mut steps = Vec::new();
    for k in 1.. {
        let (max_time, max_events) = match slice {
            None => (deadline, u64::MAX),
            Some(Slice::Time(w)) => ((start + k * w).min(deadline), u64::MAX),
            Some(Slice::Events(n)) => (deadline, n),
        };
        let (out, step_s) = tr.span("netsim.step", |_| {
            sim.run_engine(
                Engine::Seq,
                RunLimits {
                    max_events,
                    max_time,
                },
            )
        });
        events += out.events;
        if out.events > 0 {
            steps.push(step_s);
        }
        // Not drained: stopped by this slice's limit, or by the deadline.
        if out.quiesced || (max_time >= deadline && out.events < max_events) {
            return (out.quiesced, events, steps);
        }
    }
    unreachable!("every slice ends at the deadline or after its events")
}

/// Session messages sent by `nodes` so far.
fn sent(sim: &Sim<BgpNode>, nodes: &[RouterId]) -> u64 {
    nodes.iter().map(|r| sim.stats(*r).transmitted).sum()
}

/// Adj-RIB-In plus Adj-RIB-Out paths over every node.
fn paths(sim: &Sim<BgpNode>, spec: &NetworkSpec) -> usize {
    spec.all_nodes()
        .iter()
        .map(|r| sim.node(*r).rib_in_size() + sim.node(*r).rib_out_size())
        .sum()
}

/// The obs wire counters summed over nodes (zero while metrics are off).
pub fn wire_counters() -> [u64; 3] {
    let mut out = [0; 3];
    for ((name, _), value) in obs::metrics::snapshot() {
        let slot = match name.as_str() {
            "core.wire.encoded" => 0,
            "core.wire.decoded" => 1,
            "core.wire.bytes_decoded" => 2,
            _ => continue,
        };
        if let obs::MetricValue::Counter(v) = value {
            out[slot] += v;
        }
    }
    out
}

/// A digest of the final state: `quiesced`, and for every node its
/// update counters, Adj-RIB-In/Out sizes and Loc-RIB selections.
pub fn digest(sim: &Sim<BgpNode>, spec: &NetworkSpec, quiesced: bool) -> u64 {
    let mut h = Fnv1a::default();
    quiesced.hash(&mut h);
    for r in spec.all_nodes() {
        let n = sim.node(r);
        let c = n.counters();
        r.hash(&mut h);
        (
            c.received,
            c.generated,
            c.transmitted,
            c.bytes_transmitted,
            c.loop_prevented,
            c.ebgp_events,
            c.ebgp_exported,
        )
            .hash(&mut h);
        (n.rib_in_size(), n.rib_out_size()).hash(&mut h);
        for (prefix, sel) in n.selections() {
            prefix.hash(&mut h);
            sel.attrs.hash(&mut h);
            sel.source.hash(&mut h);
            sel.neighbor_id.hash(&mut h);
        }
    }
    h.finish()
}

/// 64-bit FNV-1a: a fixed hash, so pinned digests hold across runs and
/// builds (the standard library's hasher promises neither).
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
