//! End-to-end validation of the `repro profile` artifacts: the emitted
//! chrome://tracing JSON must parse (with our own strict parser — the
//! same bytes chrome://tracing ingests), contain per-thread timelines,
//! and in barrier mode cover every ABMC color on every thread.
//!
//! The CI `profile-smoke` job additionally points `FBMPK_PROFILE_TRACE`
//! at the trace the `repro` binary itself wrote, so the binary's output
//! (not just the library path) is validated.

use fbmpk_bench::report::Json;
use fbmpk_bench::runner;
use fbmpk_bench::BenchConfig;

/// Structural checks on a parsed chrome-trace document. Returns the
/// number of complete ("X") events validated.
fn validate_trace(doc: &Json) -> usize {
    let events =
        doc.get("traceEvents").and_then(Json::as_array).expect("trace has a traceEvents array");
    assert!(!events.is_empty(), "empty trace");
    // pid -> process name, from metadata events.
    let mut names: Vec<(u32, String)> = Vec::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("M") {
            let pid = e.get("pid").and_then(Json::as_f64).expect("metadata pid") as u32;
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .expect("process_name args.name");
            names.push((pid, name.to_string()));
        }
    }
    assert!(!names.is_empty(), "no process_name metadata");
    let mut nspans = 0;
    // (pid, tid) -> forward-span colors seen.
    let mut colors: std::collections::BTreeMap<(u32, u32), std::collections::BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        nspans += 1;
        let pid = e.get("pid").and_then(Json::as_f64).expect("span pid") as u32;
        let tid = e.get("tid").and_then(Json::as_f64).expect("span tid") as u32;
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "span missing ts");
        assert!(e.get("dur").and_then(Json::as_f64).expect("span dur") >= 0.0);
        let name = e.get("name").and_then(Json::as_str).expect("span name");
        let cat = e.get("cat").and_then(Json::as_str).expect("span cat");
        assert!(matches!(cat, "compute" | "wait" | "phase"), "unexpected category {cat}");
        if name == "forward" {
            if let Some(c) = e.get("args").and_then(|a| a.get("color")).and_then(Json::as_f64) {
                colors.entry((pid, tid)).or_default().insert(c as u64);
            }
        }
    }
    assert!(nspans > 0, "no complete events");
    // Barrier-mode processes enumerate every color on every thread (the
    // sweep records a span per (thread, color) even for empty row
    // ranges); each thread of a barrier pid must cover the pid's full
    // color set.
    for (pid, name) in &names {
        if !name.ends_with("/ barrier") {
            continue;
        }
        let per_thread: Vec<_> =
            colors.iter().filter(|((p, _), _)| p == pid).map(|((_, t), set)| (*t, set)).collect();
        assert!(!per_thread.is_empty(), "barrier process {name} has no forward spans");
        let all: std::collections::BTreeSet<u64> =
            per_thread.iter().flat_map(|(_, s)| s.iter().copied()).collect();
        let ncolors = all.len() as u64;
        assert_eq!(all, (0..ncolors).collect(), "{name}: colors not contiguous from 0");
        for (t, set) in per_thread {
            assert_eq!(*set, all, "{name}: thread {t} missing colors");
        }
    }
    nspans
}

#[test]
fn profile_trace_parses_and_covers_every_thread_and_color() {
    let cfg = BenchConfig { scale: 0.002, threads: 2, reps: 1, seed: 42 };
    let cases: Vec<_> = runner::load_suite(&cfg).into_iter().take(2).collect();
    let (rows, trace) = runner::profile(&cfg, &cases, None);
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.identical), "recording changed the numerics");
    // perf_event_open may be unavailable (sandboxes, non-Linux): hw is
    // then None and everything else still works — the degradation path.
    let path =
        std::env::temp_dir().join(format!("fbmpk_profile_trace_{}.json", std::process::id()));
    trace.write(&path).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("trace must be valid JSON");
    let nspans = validate_trace(&doc);
    // Two processes per matrix were registered and both recorded spans;
    // the plan-phase process (pid 5) appears only when phase spans fired
    // during this process's plan constructions.
    let expected_pids: std::collections::BTreeSet<u64> = (1..=4).collect();
    let seen: std::collections::BTreeSet<u64> = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| e.get("pid").and_then(Json::as_f64).unwrap() as u64)
        .collect();
    assert!(seen.is_superset(&expected_pids), "missing kernel pids: {seen:?}");
    assert!(seen.iter().all(|p| (1..=5).contains(p)), "unexpected pids: {seen:?}");
    assert!(nspans > 8, "implausibly few spans: {nspans}");
}

/// When CI (or a user) sets `FBMPK_PROFILE_TRACE` to a trace emitted by
/// the `repro` binary, validate that artifact too. Skips silently when
/// the variable is unset so the test is a no-op in plain `cargo test`.
#[test]
fn emitted_trace_file_is_valid_when_provided() {
    let Ok(path) = std::env::var("FBMPK_PROFILE_TRACE") else {
        return;
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let doc = Json::parse(&text).expect("emitted trace must be valid JSON");
    let nspans = validate_trace(&doc);
    eprintln!("validated {nspans} spans from {path}");
}
