//! The timing adapters must not change the program they measure: a timed
//! simulator run reproduces the library runner's virtual-time digest bit
//! for bit, and a timed TCP run still meets its quota and conserves
//! requests.  Run with `--release`; the simulator workloads are full size.

use mra_workloads::{run, Algorithm};
use perfbench::sim::{run_timed, Digest, SimWorkload};
use perfbench::tcp::{self, TcpWorkload};

fn timed_sim_matches_library_run(w: SimWorkload, seed: u64) {
    let library = run(Algorithm::LassLoan, &w.scenario(seed));
    let (timed, ledger) = run_timed(w, seed);
    let (a, b) = (Digest::of(&library), Digest::of(&timed.result));
    assert!(
        a.same(&b),
        "{w:?}: timed digest differs\n  library: {}\n  timed:   {}",
        a.line(),
        b.line()
    );
    // The adapters saw every call the engine made.
    assert_eq!(ledger.request.calls, ledger.next_request.calls);
    assert!(ledger.messages().calls >= timed.result.msgs_total);
}

#[test]
fn timed_paper_sim_is_bit_identical_to_an_unwrapped_run() {
    timed_sim_matches_library_run(SimWorkload::Paper, 11);
}

#[test]
fn timed_scale_sim_is_bit_identical_to_an_unwrapped_run() {
    timed_sim_matches_library_run(SimWorkload::Scale, 12);
}

#[test]
fn timed_tcp_run_meets_quota_and_conserves() {
    // `run_timed` fails unless the quota is met and the serving counters
    // conserve; the cluster panics on a safety or holder-table breach.
    let (run, ledger) = tcp::run_timed(TcpWorkload::Serve, 13).expect("checked TCP run");
    assert!(run.serve.served > 0);
    assert_eq!(ledger.request.calls, run.serve.batches);
    assert_eq!(ledger.release.calls, run.serve.batches);
}
