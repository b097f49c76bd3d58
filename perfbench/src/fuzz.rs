//! The `fuzz` workload: a fixed batch of generated scenarios, each run
//! through the scenario crate's full oracle stack on the sequential
//! engine (which itself runs the epoch and sharded engines and the
//! wire-verify codec). No shrinking: a failing case is counted and its
//! seed printed.
//!
//! The seed base and the case count are fixed here, before any result
//! is looked at, and failing seeds are never dropped from the batch.

use crate::spans::Tracer;
use crate::tier1::{wire_counters, Fnv1a};
use netsim::{Engine, WireMode};
use scenario::{compile, gen, Loaded};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The seed base the input digest is pinned at (the reproduction seed
/// of the known ARR flap-then-fail blackhole).
pub const DEFAULT_SEED: u64 = 4242;
/// Cases per batch: seeds `base .. base + CASES`.
pub const CASES: u64 = 1_000;
/// Digest of the generated scenario files at [`DEFAULT_SEED`].
pub const PINNED_INPUT_DIGEST: u64 = 0x57f1_0642_d362_f06f;

/// Everything one batch measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Generating and compiling the batch, s.
    pub setup_s: f64,
    /// Running the oracle stack over the batch, s.
    pub run_s: f64,
    /// Oracle-stack seconds of each case.
    pub steps_s: Vec<f64>,
    /// `scenario::gen::generate` over the batch, s.
    pub gen_s: f64,
    /// `scenario::compile::compile` over the batch, s.
    pub compile_s: f64,
    /// Oracles run over the batch.
    pub checks_run: usize,
    /// Failing cases: seed and first oracle failure.
    pub failing: Vec<(u64, String)>,
    /// eBGP feed announcements and withdrawals over the batch.
    pub feed_records: usize,
    /// Digest of the generated scenario files.
    pub input_digest: u64,
    /// obs `core.wire.{encoded,decoded,bytes_decoded}` (metrics on only).
    pub wire: [u64; 3],
    /// Run times over the batch of the first check mode on seq,
    /// sharded(2) and seq with wire verify (tracing on only), s.
    pub engines_s: [f64; 3],
    /// Engine events of the seq runs (tracing on only).
    pub events: u64,
}

/// Runs one batch from seed base `base`. With tracing on, also times
/// the seq, sharded and wire-verify runs of each case separately,
/// after (and outside) the measured phase.
pub fn run_rep(base: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    if obs::metrics::enabled() {
        obs::metrics::reset();
    }
    let (cases, setup_s) = tr.span("setup", |tr| {
        let mut cases = Vec::new();
        for seed in base..base + CASES {
            let (file, gen_s) = tr.span("scenario.gen", |_| gen::generate(seed));
            let (loaded, compile_s) = tr.span("scenario.compile", |_| compile::compile(file));
            rep.gen_s += gen_s;
            rep.compile_s += compile_s;
            cases.push((seed, loaded));
        }
        cases
    });
    rep.setup_s = setup_s;

    let ((), run_s) = tr.span("measure", |tr| {
        for (seed, loaded) in &cases {
            let (report, step_s) = tr.span("scenario.check", |_| {
                scenario::run_checks(loaded, Engine::Seq)
            });
            rep.steps_s.push(step_s);
            rep.checks_run += report.checks_run;
            if let Some(first) = report.failures.first() {
                rep.failing.push((*seed, first.to_string()));
            }
        }
    });
    rep.run_s = run_s;
    rep.wire = wire_counters();
    obs::profile::take_runs();

    let mut h = Fnv1a::default();
    for (seed, loaded) in &cases {
        let w = &loaded.file().workload;
        rep.feed_records += w.feeds.len() + w.withdraws.len();
        seed.hash(&mut h);
        loaded.file().to_json_pretty().hash(&mut h);
    }
    rep.input_digest = h.finish();

    if tr.enabled() {
        for (_, loaded) in &cases {
            breakdown(loaded, tr, &mut rep);
        }
    }
    rep
}

/// The cases that failed in any of `reps`, by seed: the first failure
/// seen and the number of batches the case failed in. Every batch runs
/// the same cases, so a case is one operation however many batches ran.
pub fn failing_cases<'a>(
    reps: impl IntoIterator<Item = &'a Rep>,
) -> BTreeMap<u64, (&'a str, usize)> {
    let mut out: BTreeMap<u64, (&str, usize)> = BTreeMap::new();
    for rep in reps {
        for (seed, why) in &rep.failing {
            out.entry(*seed).or_insert((why, 0)).1 += 1;
        }
    }
    out
}

/// Times the seq, sharded(2) and seq wire-verify runs of `loaded`'s
/// first check mode.
fn breakdown(loaded: &Loaded, tr: &mut Tracer, rep: &mut Rep) {
    let Some(mode) = loaded.file().checks.first().map(|c| c.mode) else {
        return;
    };
    let (seq, seq_s) = tr.span("scenario.run_seq", |_| {
        loaded.run_engine(mode, Engine::Seq, true)
    });
    let (_, sharded_s) = tr.span("scenario.run_sharded", |_| {
        loaded.run_engine(mode, Engine::Sharded(2), true)
    });
    let (_, wire_s) = tr.span("scenario.run_wire", |_| {
        loaded.run_wire(mode, Engine::Seq, true, WireMode::Verify)
    });
    rep.engines_s[0] += seq_s;
    rep.engines_s[1] += sharded_s;
    rep.engines_s[2] += wire_s;
    if let Ok(run) = seq {
        rep.events += run.outcome.events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_case_failing_in_several_batches_counts_once() {
        let batch = |failing: &[(u64, &str)]| Rep {
            failing: failing.iter().map(|&(s, w)| (s, w.to_string())).collect(),
            ..Rep::default()
        };
        let reps = [
            batch(&[(7, "a"), (9, "b")]),
            batch(&[(7, "a2")]),
            batch(&[(7, "a")]),
        ];
        let failing = failing_cases(&reps);
        assert_eq!(failing.len(), 2);
        assert_eq!(failing[&7], ("a", 3));
        assert_eq!(failing[&9], ("b", 1));
        assert!(failing_cases(&[batch(&[])]).is_empty());
    }
}
