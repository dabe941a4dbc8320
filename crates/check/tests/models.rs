//! Drives the protocol models through the explorer: the fixed
//! protocols must hold their invariants across every explored interleaving
//! (>1,000 of them), and each deliberately broken variant must fail —
//! proving the checker can actually find the bugs it exists to find.

use check::Config;

fn cfg() -> Config {
    Config {
        max_schedules: 8_000,
        max_steps: 2_000,
    }
}

#[test]
fn snapshot_invariants_hold_in_every_interleaving() {
    let report = check::models::snapshot::run(false, cfg());
    println!("snapshot: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn snapshot_version_before_slot_write_is_caught() {
    let report = check::models::snapshot::run(true, cfg());
    println!("snapshot(broken): {report}");
    let failure = report.failure.expect("reordered publication must fail");
    assert!(
        failure.contains("stale snapshot"),
        "wrong failure: {failure}"
    );
}

#[test]
fn shutdown_drain_holds_in_every_interleaving() {
    let report = check::models::shutdown::run(false, cfg());
    println!("shutdown: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn shutdown_try_recv_drain_loses_replies() {
    let report = check::models::shutdown::run(true, cfg());
    println!("shutdown(broken): {report}");
    assert!(
        report.failure.is_some(),
        "dropping the drain-to-disconnect ordering must fail: {report}"
    );
}

#[test]
fn slow_client_grace_then_kill_holds_in_every_interleaving() {
    let report = check::models::slow_client::run(false, cfg());
    println!("slow_client: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn slow_client_blocking_send_wedges() {
    let report = check::models::slow_client::run(true, cfg());
    println!("slow_client(broken): {report}");
    let failure = report.failure.expect("the PR 5 blocking send must wedge");
    assert!(failure.contains("deadlock"), "wrong failure: {failure}");
}

#[test]
fn epoch_collection_holds_in_every_interleaving() {
    let report = check::models::epoch::run(false, cfg());
    println!("epoch: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn epoch_untagged_collection_folds_stale_roots() {
    let report = check::models::epoch::run(true, cfg());
    println!("epoch(broken): {report}");
    let failure = report
        .failure
        .expect("dropping the epoch-tag check must fold a stale root");
    assert!(
        failure.contains("stale shard root"),
        "wrong failure: {failure}"
    );
}

#[test]
fn stage2_doorbell_commits_every_position_exactly_once() {
    let report = check::models::stage2_doorbell::run(false, cfg());
    println!("stage2_doorbell: {report}");
    assert!(report.failure.is_none(), "{report}");
    assert!(
        report.explored > 1_000,
        "state space too small to be meaningful: {report}"
    );
}

#[test]
fn stage2_doorbell_ring_before_publish_strands_a_position() {
    let report = check::models::stage2_doorbell::run(true, cfg());
    println!("stage2_doorbell(broken): {report}");
    let failure = report
        .failure
        .expect("ringing before publishing must strand a position");
    assert!(failure.contains("lost wake-up"), "wrong failure: {failure}");
}
