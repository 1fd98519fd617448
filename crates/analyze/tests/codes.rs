//! One fixture per diagnostic code, asserting both the code and the
//! reported location.

use std::sync::Arc;

use failmpi_analyze::{analyze_programs, check_source, Diagnostic, Severity};
use failmpi_mpi::{Program, ProgramBuilder, Rank, Tag};

/// Runs the scenario passes and returns `(code, line, severity)` triples.
fn findings(src: &str) -> Vec<(&'static str, u32, Severity)> {
    let mut v: Vec<_> = check_source(src)
        .into_iter()
        .map(|d| (d.code, d.line, d.severity))
        .collect();
    v.sort();
    v
}

#[test]
fn fa000_compile_error() {
    let f = findings("daemon A { node 1: garbage }");
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].0, "FA000");
    assert_eq!(f[0].2, Severity::Error);
}

#[test]
fn fa001_unreachable_node() {
    let src = "daemon A {\n  node 1:\n    onload -> goto 1;\n  node 2:\n    onexit -> goto 2;\n}\n";
    assert_eq!(f1(src), ("FA001", 4, Severity::Warning));
}

#[test]
fn fa002_always_false_guard() {
    let src = "param K = 3;\ndaemon A {\n  node 1:\n    ?m && K == 4 -> goto 1;\n}\n";
    assert_eq!(f1(src), ("FA002", 4, Severity::Error));
}

#[test]
fn fa003_shadowed_transition() {
    let src = "daemon A {\n  node 1:\n    onload -> goto 1;\n    onload -> halt, goto 1;\n}\n";
    assert_eq!(f1(src), ("FA003", 4, Severity::Warning));
}

#[test]
fn fa004_unused_timer() {
    let src = "daemon A {\n  node 1:\n    timer t = 5;\n    onload -> goto 1;\n}\n";
    assert_eq!(f1(src), ("FA004", 2, Severity::Warning));
}

#[test]
fn fa005_zero_delay_warns_negative_errors() {
    let zero = "daemon A {\n  node 1:\n    timer t = 0;\n    t -> goto 1;\n}\n";
    assert_eq!(f1(zero), ("FA005", 2, Severity::Warning));
    let neg = "param K = 5;\ndaemon A {\n  node 1:\n    timer t = 3 - K;\n    t -> goto 1;\n}\n";
    assert_eq!(f1(neg), ("FA005", 3, Severity::Error));
}

#[test]
fn fa006_write_only_variable() {
    let src = "daemon A {\n  int c = 0;\n  node 1:\n    onload -> c = 1, goto 1;\n}\n";
    assert_eq!(f1(src), ("FA006", 1, Severity::Warning));
}

#[test]
fn fa007_unread_probe() {
    let src = "daemon A {\n  probe p;\n  node 1:\n    onload -> goto 1;\n}\n";
    assert_eq!(f1(src), ("FA007", 1, Severity::Warning));
}

#[test]
fn fa008_orphan_send() {
    let src = "daemon S {\n  node 1:\n    onload -> !ping(P2), goto 1;\n}\ndaemon R {\n  node 1:\n    onload -> continue, goto 1;\n}\ninstance P1 = S;\ninstance P2 = R;\n";
    assert_eq!(f1(src), ("FA008", 3, Severity::Error));
}

#[test]
fn fa009_unsatisfiable_message_guard() {
    let src = "daemon S {\n  node 1:\n    ?go -> goto 1;\n}\ninstance P1 = S;\n";
    assert_eq!(f1(src), ("FA009", 3, Severity::Error));
}

#[test]
fn fa009_not_raised_for_fail_sender_replies() {
    // B replies via FAIL_SENDER, which can reach any class: A's `?pong`
    // must not be flagged.
    let src = "daemon A {\n  node 1:\n    onload -> !ping(P2), goto 2;\n  node 2:\n    ?pong -> goto 2;\n}\ndaemon B {\n  node 1:\n    ?ping -> !pong(FAIL_SENDER), goto 1;\n}\ninstance P1 = A;\ninstance P2 = B;\n";
    assert_eq!(findings(src), vec![]);
}

#[test]
fn fa010_group_index_out_of_bounds() {
    let src = "param N = 9;\ndaemon S {\n  node 1:\n    onload -> !ping(G[N]), goto 1;\n}\ndaemon R {\n  node 1:\n    ?ping -> goto 1;\n}\ngroup G[4] = R;\ninstance P = S;\n";
    assert_eq!(f1(src), ("FA010", 4, Severity::Error));
}

#[test]
fn fa012_breakpoint_on_no_instrumentable_function() {
    let src = "daemon A {\n  node 1:\n    onload -> goto 2;\n  node 2:\n    before(MPI_Snd) -> halt, goto 2;\n}\n";
    assert_eq!(f1(src), ("FA012", 5, Severity::Error));
    let d = &check_source(src)[0];
    assert!(d.message.contains("`before(MPI_Snd)`"), "{}", d.message);
    assert!(d.help.ends_with("localMPI_setCommand"), "{}", d.help);
    let fine = src.replace("MPI_Snd", "localMPI_setCommand");
    assert_eq!(findings(&fine), vec![]);
}

#[test]
fn message_passes_skipped_without_deployment_sugar() {
    // Same shape as the FA009 fixture, minus the sugar: a bare class
    // fragment does not pin down who talks to whom, so nothing fires.
    let src = "daemon S {\n  node 1:\n    ?go -> goto 1;\n}\n";
    assert_eq!(findings(src), vec![]);
}

/// Asserts exactly one finding and returns it.
fn f1(src: &str) -> (&'static str, u32, Severity) {
    let f = findings(src);
    assert_eq!(f.len(), 1, "expected one finding, got {f:?}");
    f[0]
}

/// `(code, line)` pairs from the op-program passes.
fn op_findings(programs: &[Arc<Program>]) -> Vec<(&'static str, u32)> {
    let mut v: Vec<_> = analyze_programs(programs)
        .into_iter()
        .map(|d: Diagnostic| (d.code, d.line))
        .collect();
    v.sort();
    v
}

#[test]
fn fb001_unmatched_blocking_recv() {
    let p0 = ProgramBuilder::new(0)
        .send(Rank(1), Tag(1), 8)
        .recv(Rank(1), Tag(7))
        .finalize();
    let p1 = ProgramBuilder::new(0).recv(Rank(0), Tag(1)).finalize();
    let f = op_findings(&[p0, p1]);
    // Op 2 of rank 0 waits for tag 7, which rank 1 never sends.
    assert!(f.contains(&("FB001", 2)), "got {f:?}");
}

#[test]
fn fb002_cyclic_blocking_wait() {
    let p0 = ProgramBuilder::new(0)
        .recv(Rank(1), Tag(1))
        .send(Rank(1), Tag(2), 8)
        .finalize();
    let p1 = ProgramBuilder::new(0)
        .recv(Rank(0), Tag(2))
        .send(Rank(0), Tag(1), 8)
        .finalize();
    assert_eq!(op_findings(&[p0, p1]), vec![("FB002", 1)]);
}

#[test]
fn fb003_send_to_self() {
    let p0 = ProgramBuilder::new(0).send(Rank(0), Tag(1), 8).finalize();
    let f = op_findings(&[p0]);
    assert!(f.contains(&("FB003", 1)), "got {f:?}");
}

#[test]
fn fb004_missing_finalize() {
    let p0 = Program::new(vec![failmpi_mpi::Op::Progress(1)], 0);
    assert_eq!(op_findings(&[p0]), vec![("FB004", 1)]);
}

#[test]
fn fb005_channel_count_mismatch() {
    let p0 = ProgramBuilder::new(0)
        .send(Rank(1), Tag(1), 8)
        .send(Rank(1), Tag(1), 8)
        .finalize();
    let p1 = ProgramBuilder::new(0).recv(Rank(0), Tag(1)).finalize();
    let f = op_findings(&[p0, p1]);
    // Anchored on the surplus side's first op (rank 0's first send).
    assert!(f.contains(&("FB005", 1)), "got {f:?}");
}

#[test]
fn broken_fixture_carries_the_seeded_defects() {
    let src = include_str!("../fixtures/broken.fail");
    let f = findings(src);
    assert!(f.contains(&("FA008", 10, Severity::Error)), "got {f:?}");
    assert!(f.contains(&("FA002", 12, Severity::Error)), "got {f:?}");
    assert!(f.contains(&("FA009", 12, Severity::Error)), "got {f:?}");
    assert!(f.contains(&("FA001", 13, Severity::Warning)), "got {f:?}");
}
