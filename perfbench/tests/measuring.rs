//! Measuring must not change the program: for each Tier-1 workload the
//! untraced, traced and step-sliced runs end in the same final state as
//! one `run_engine` call over the whole measured phase.
//!
//! The workloads run at a reduced prefix count and trace length so the
//! test stays quick in a debug build; the code path is the benchmark's.

use perfbench::set_tracing;
use perfbench::spans::Tracer;
use perfbench::tier1::{run_rep, Kind, Params, DEFAULT_SEED};

fn small(kind: Kind) -> Params {
    Params {
        prefixes: 200,
        trace_us: 60_000_000,
        ..kind.params()
    }
}

#[test]
fn tracing_and_slicing_leave_the_digest_unchanged() {
    for kind in [Kind::Converge, Kind::Churn, Kind::Failover] {
        let p = small(kind);
        let mut tr = Tracer::new(false);
        let whole = run_rep(kind, &p, DEFAULT_SEED, None, &mut tr);
        assert!(whole.quiesced, "{kind:?} did not quiesce");
        assert_eq!((whole.blackholes, whole.loops), (0, 0), "{kind:?} audit");
        assert_eq!(whole.steps_s.len(), 1, "{kind:?}: one call, one step");

        let sliced = run_rep(kind, &p, DEFAULT_SEED, Some(p.slice), &mut tr);
        assert!(sliced.steps_s.len() > 1, "{kind:?} was not sliced");
        assert_eq!(
            sliced.digest, whole.digest,
            "{kind:?}: slicing changed the state"
        );

        set_tracing(&mut tr, true);
        let traced = run_rep(kind, &p, DEFAULT_SEED, Some(p.slice), &mut tr);
        set_tracing(&mut tr, false);
        assert!(!tr.spans().is_empty(), "{kind:?}: no spans recorded");
        assert!(traced.max_queue > 0, "{kind:?}: engine profiling was off");
        assert_eq!(
            traced.digest, whole.digest,
            "{kind:?}: tracing changed the state"
        );
    }
}
