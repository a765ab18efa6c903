//! `perfbench-helper`: the in-process half of the repository benchmark.
//! `perfbench/run.py` drives it; see `perfbench/README.md`.
//!
//! ```text
//! perfbench-helper inputs adc <dir>             ADC1..ADC5 as SPICE
//! perfbench-helper inputs blocks <dir> <seed>   the 15 Table IV blocks
//! perfbench-helper describe <netlist.sp>...          fingerprint inputs
//! perfbench-helper quality <netlist.sp> <constraints.txt>
//! perfbench-helper trace <out-dir> [--model FILE] [--profile] <netlist.sp>...
//! perfbench-helper pipeline <out-dir> --model FILE --reps N <netlist.sp>...
//! perfbench-helper load --addr HOST:PORT --manifest FILE --seed S
//!                       --seconds T --conns N
//! ```
//!
//! Every command prints one JSON object on stdout and exits 1 with a
//! message on stderr when anything fails.

mod load;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use ancstr_circuits::{adc, adc_benchmark_names, block_benchmark_names, block_benchmarks};
use ancstr_core::runstore::config_hash;
use ancstr_core::{read_constraints, valid_pairs, ExtractorConfig};
use ancstr_netlist::parse::parse_spice_file;
use ancstr_netlist::write::write_spice;
use ancstr_netlist::{FlatCircuit, SymmetryKind};

/// Render a flat string → number map as a JSON object.
pub fn json_object(fields: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The file stem of `path`, used as the design name.
pub fn stem(path: &Path) -> String {
    path.file_stem()
        .map_or_else(|| "input".to_owned(), |s| s.to_string_lossy().into_owned())
}

fn write_inputs(args: &[String]) -> Result<String, String> {
    let (names, netlists) = match args {
        [kind, _] if kind == "adc" => (adc_benchmark_names(), adc::adc_benchmarks()),
        [kind, _, seed] if kind == "blocks" => {
            let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
            (block_benchmark_names(), block_benchmarks(seed))
        }
        _ => return Err("usage: inputs adc <dir> | inputs blocks <dir> <seed>".to_owned()),
    };
    let dir = Path::new(&args[1]);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, netlist) in names.iter().zip(&netlists) {
        let path = dir.join(format!("{name}.sp"));
        fs::write(&path, write_spice(netlist)).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(format!("{{\"written\": {}}}", names.len()))
}

/// The workload fingerprint the program itself determines: the default
/// configuration's hash and epoch count, and each input's device and net
/// counts after elaboration.
fn describe(args: &[String]) -> Result<String, String> {
    let cfg = ExtractorConfig::default();
    let mut rows = Vec::new();
    for path in args {
        let nl = parse_spice_file(path).map_err(|e| format!("{path}: {e}"))?;
        let flat = FlatCircuit::elaborate(&nl).map_err(|e| format!("{path}: {e}"))?;
        rows.push(format!(
            "\"{}\": {{\"devices\": {}, \"nets\": {}}}",
            stem(Path::new(path)),
            flat.devices().len(),
            flat.net_count()
        ));
    }
    Ok(format!(
        "{{\"config_hash\": \"{}\", \"epochs\": {}, \"inputs\": {{{}}}}}",
        config_hash(&cfg),
        cfg.train.epochs,
        rows.join(", ")
    ))
}

/// Score an exported constraint file against the ground truth the
/// generators annotated in the netlist (`*.symmetry` pragmas), over the
/// design's valid pairs. Prints a confusion matrix per level.
fn quality(args: &[String]) -> Result<String, String> {
    let [netlist, constraints] = args else {
        return Err("usage: quality <netlist.sp> <constraints.txt>".to_owned());
    };
    let nl = parse_spice_file(netlist).map_err(|e| format!("{netlist}: {e}"))?;
    let flat = FlatCircuit::elaborate(&nl).map_err(|e| format!("{netlist}: {e}"))?;
    let text = fs::read_to_string(constraints).map_err(|e| format!("{constraints}: {e}"))?;
    let found = read_constraints(&flat, &text).map_err(|e| format!("{constraints}: {e}"))?;
    let truth = flat.ground_truth();
    let mut fields = BTreeMap::new();
    for level in ["sys", "dev"] {
        for cell in ["tp", "fn", "fp", "tn"] {
            fields.insert(format!("{level}_{cell}"), 0.0);
        }
    }
    for cand in valid_pairs(&flat) {
        let level = match cand.kind {
            SymmetryKind::System => "sys",
            SymmetryKind::Device => "dev",
        };
        let cell = match (found.contains_key(cand.pair), truth.contains_key(cand.pair)) {
            (true, true) => "tp",
            (false, true) => "fn",
            (true, false) => "fp",
            (false, false) => "tn",
        };
        *fields
            .get_mut(&format!("{level}_{cell}"))
            .expect("every cell is present") += 1.0;
    }
    Ok(json_object(&fields))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "inputs" => write_inputs(rest),
            "describe" => describe(rest),
            "quality" => quality(rest),
            "trace" => trace::run(rest),
            "pipeline" => trace::pipeline(rest),
            "load" => load::run(rest),
            other => Err(format!("unknown command `{other}`")),
        },
        None => Err(
            "usage: perfbench-helper <inputs|describe|quality|trace|pipeline|load> ...".to_owned(),
        ),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench-helper: {msg}");
            ExitCode::FAILURE
        }
    }
}
