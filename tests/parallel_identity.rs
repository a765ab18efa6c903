//! Parallel identity: extraction output is byte-identical at every
//! thread count.
//!
//! The compute layer (`ancstr-par`) promises that thread count is a
//! scheduling detail, never an output detail. These tests hold the real
//! binary and the library pipeline to that promise on a mixed
//! comparator/OTA/ADC suite: constraints, scores, warnings, and the
//! trace event order must all match between `--threads 1` and
//! `--threads 8`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use ancstr_circuits::{adc, block_benchmarks};
use ancstr_core::{detect_constraints, SymmetryExtractor};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::write::write_spice;
use ancstr_obs::validate_trace;

const COMPARATOR: &str = "\
.subckt sa inp inn outp outn clk vdd vss
*.class comparator
M1 x1 inp tail vss nch_lvt w=6u l=0.1u
M2 x2 inn tail vss nch_lvt w=6u l=0.1u
M3 outn outp x1 vss nch_lvt w=6u l=0.1u
M4 outp outn x2 vss nch_lvt w=6u l=0.1u
M5 outn outp vdd vdd pch_lvt w=12u l=0.1u
M6 outp outn vdd vdd pch_lvt w=12u l=0.1u
M7 tail clk vss vss nch w=12u l=0.1u
.ends
";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ancstr"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ancstr-par-id-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// Everything one `extract` run produced that must be invariant across
/// thread counts.
struct RunOutput {
    constraints: String,
    /// stderr with the wall-clock line and the `wrote <path>` echo
    /// removed (the only run-specific lines) — pins warning text *and*
    /// encounter order.
    stderr: String,
    /// Trace events projected to `(kind, span, stage)` — the order and
    /// structure of the stream, minus timestamps.
    trace: Vec<(String, String, String)>,
}

fn extract_at(dir: &Path, sp: &Path, tag: &str, threads: usize) -> RunOutput {
    let sym = dir.join(format!("{tag}-t{threads}.sym"));
    let trace = dir.join(format!("{tag}-t{threads}.trace"));
    let out = bin()
        .arg("extract")
        .arg(sp)
        .args(["--epochs", "12", "--seed", "7", "--threads", &threads.to_string()])
        .arg("--trace-out")
        .arg(&trace)
        .arg("-o")
        .arg(&sym)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| !l.contains(" ms") && !l.starts_with("wrote "))
        .collect::<Vec<_>>()
        .join("\n");
    let events = validate_trace(&fs::read_to_string(&trace).expect("trace written"))
        .expect("trace is schema-valid");
    RunOutput {
        constraints: fs::read_to_string(&sym).expect("constraints written"),
        stderr,
        trace: events.into_iter().map(|e| (e.kind, e.span, e.stage)).collect(),
    }
}

/// The CLI contract: every thread count produces the same constraint
/// bytes, the same diagnostic stream (warnings included, in order), and
/// the same trace event sequence on every circuit class. One thread —
/// the fully sequential schedule — is the reference everything else is
/// compared against.
#[test]
fn extract_output_is_byte_identical_across_threads() {
    let dir = workdir("cli");

    // A mixed suite: the inline comparator, a generated OTA, and the
    // smallest ADC benchmark, all round-tripped through real files.
    let ota = write_spice(&block_benchmarks(20210705)[0]);
    let adc1 = write_spice(&adc::adc_benchmarks()[0]);
    let suite: Vec<(&str, String)> = vec![
        ("comparator", COMPARATOR.to_owned()),
        ("ota", ota),
        ("adc1", adc1),
    ];

    for (tag, text) in &suite {
        let sp = dir.join(format!("{tag}.sp"));
        fs::write(&sp, text).unwrap();
        let base = extract_at(&dir, &sp, tag, 1);
        assert!(!base.trace.is_empty(), "{tag}: trace captured events");
        for threads in [2usize, 8] {
            let run = extract_at(&dir, &sp, tag, threads);
            assert_eq!(
                base.constraints, run.constraints,
                "{tag}: constraints diverged at {threads} threads"
            );
            assert_eq!(
                base.stderr, run.stderr,
                "{tag}: diagnostics/warnings diverged at {threads} threads"
            );
            assert_eq!(
                base.trace, run.trace,
                "{tag}: trace event order diverged at {threads} threads"
            );
        }
    }
}

/// The library contract, one level below the CLI: every score's exact
/// bit pattern, every acceptance decision, and every warning are
/// invariant across thread counts. (In-process `set_threads` is
/// global, so this file keeps a single library-level test.)
#[test]
fn detection_scores_and_warnings_are_bit_identical_in_process() {
    let flat = FlatCircuit::elaborate(&parse_spice(COMPARATOR).unwrap()).unwrap();
    let config = ancstr_bench::quick_config();

    let run = |threads: usize| {
        ancstr_par::set_threads(threads);
        let mut ex = SymmetryExtractor::new(config.clone());
        ex.fit(&[&flat]);
        let z = ex.vertex_embeddings(&flat);
        let det = detect_constraints(&flat, &z, &config.thresholds, &config.embed);
        let weights: Vec<u64> = ex
            .model()
            .to_text()
            .into_bytes()
            .chunks(8)
            .map(|c| c.iter().fold(0u64, |a, &b| (a << 8) | u64::from(b)))
            .collect();
        (weights, det)
    };

    let (w1, d1) = run(1);
    for threads in [2usize, 8] {
        let (wn, dn) = run(threads);
        assert_eq!(w1, wn, "trained weights diverged at {threads} threads");
        assert_eq!(
            d1.scored.len(),
            dn.scored.len(),
            "scored-pair count diverged at {threads} threads"
        );
        for (a, b) in d1.scored.iter().zip(&dn.scored) {
            assert_eq!(a.candidate, b.candidate);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "score bits diverged at {threads} threads for {:?}",
                a.candidate
            );
            assert_eq!(a.accepted, b.accepted);
        }
        assert_eq!(d1.constraints, dn.constraints);
        let render = |w: &[ancstr_core::NumericWarning]| -> Vec<String> {
            w.iter().map(|x| x.to_string()).collect()
        };
        assert_eq!(
            render(&d1.warnings),
            render(&dn.warnings),
            "warning order diverged at {threads} threads"
        );
    }
    ancstr_par::set_threads(0);
}
