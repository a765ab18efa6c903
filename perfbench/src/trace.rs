//! The traced run: `ancstr extract`'s sequence of public calls, with a
//! timer around each layer, and the count-only pass for kernel counts.
//!
//! The sequence mirrors the CLI with observability off: parse the file,
//! elaborate, then either use the model loaded once per invocation or
//! self-train one (graph build, features, guarded training), then graph
//! build, features, embed, detect and export. `run.py` checks that the
//! bytes written here equal the CLI's output for the same input.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ancstr_core::{
    circuit_features, detect_constraints, embed_all_blocks, service::extract_source, valid_pairs,
    write_constraints, ExtractorConfig, PipelineObs, SymmetryExtractor,
};
use ancstr_gnn::{
    try_train_resumable, EmbedError, EpochTelemetry, GnnModel, GraphTensors, HealthConfig,
    HealthEvent, ResumableHooks, TrainGraph, TrainerHooks,
};
use ancstr_graph::HetMultigraph;
use ancstr_netlist::parse::parse_spice_file;
use ancstr_netlist::FlatCircuit;
use ancstr_nn::Matrix;

use crate::{json_object, stem};

/// Per-layer milliseconds and counts, summed over every design of a pass.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, f64>,
    epoch_ms: Vec<f64>,
}

impl Layers {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_owned()).or_default() += value;
    }
}

/// Training observer: epoch boundaries, optimizer steps and retries.
/// It only reads telemetry, so training results are unchanged.
struct EpochClock {
    last: Instant,
    epoch_ms: Vec<f64>,
    steps: usize,
    retries: usize,
}

impl TrainerHooks for EpochClock {
    fn on_epoch(&mut self, telemetry: &EpochTelemetry) {
        let now = Instant::now();
        self.epoch_ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
        self.steps += telemetry.steps;
    }

    fn on_retry(&mut self, _event: &HealthEvent) {
        self.retries += 1;
    }
}

/// `SymmetryExtractor::train_graph`, one timer per layer.
fn train_graph(flat: &FlatCircuit, cfg: &ExtractorConfig, layers: &mut Layers) -> TrainGraph {
    let tensors = layers.time("graph.build_ms", || {
        GraphTensors::from_multigraph(&HetMultigraph::from_circuit(flat, &cfg.build))
    });
    let features = layers.time("core.features_ms", || circuit_features(flat, &cfg.features));
    TrainGraph { tensors, features }
}

/// What the detect-side breakdown needs after the pass.
struct Extracted {
    flat: FlatCircuit,
    z: Matrix,
}

fn extract(
    path: &Path,
    model: Option<&GnnModel>,
    cfg: &ExtractorConfig,
    layers: &mut Layers,
) -> Result<(String, Extracted), String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let netlist = layers
        .time("netlist.parse_ms", || parse_spice_file(path))
        .map_err(|e| at(&e))?;
    let flat = layers
        .time("netlist.elaborate_ms", || FlatCircuit::elaborate(&netlist))
        .map_err(|e| at(&e))?;
    layers.add("netlist.devices", flat.devices().len() as f64);
    layers.add("netlist.nets", flat.net_count() as f64);

    let trained;
    let model = match model {
        Some(m) => m,
        None => {
            let mut model = GnnModel::new(cfg.gnn.clone());
            let dataset = [train_graph(&flat, cfg, layers)];
            let mut clock = EpochClock {
                last: Instant::now(),
                epoch_ms: Vec::new(),
                steps: 0,
                retries: 0,
            };
            layers
                .time("gnn.train_ms", || {
                    clock.last = Instant::now();
                    try_train_resumable(
                        &mut model,
                        &dataset,
                        &cfg.train,
                        &HealthConfig::default(),
                        ResumableHooks {
                            observer: Some(&mut clock),
                            ..ResumableHooks::default()
                        },
                    )
                })
                .map_err(|e| at(&e))?;
            layers.add("gnn.steps", clock.steps as f64);
            layers.add("gnn.retries", clock.retries as f64);
            layers.epoch_ms.extend(clock.epoch_ms);
            trained = model;
            &trained
        }
    };

    let tg = train_graph(&flat, cfg, layers);
    layers.add("graph.edges", tg.tensors.edge_count() as f64);
    let z = layers.time("gnn.embed_ms", || {
        match model.try_embed(&tg.tensors, &tg.features) {
            Ok(z) => Ok(z),
            Err(EmbedError::NonFiniteFeatures) => Ok(model.embed(&tg.tensors, &tg.features)),
            Err(other) => Err(at(&other)),
        }
    })?;
    let detection = layers.time("core.detect_ms", || {
        detect_constraints(&flat, &z, &cfg.thresholds, &cfg.embed)
    });
    layers.add("core.constraints", detection.constraints.len() as f64);
    let text = layers.time("core.export_ms", || {
        write_constraints(&flat, &detection.constraints)
    });
    Ok((text, Extracted { flat, z }))
}

struct Options {
    out_dir: PathBuf,
    model: Option<PathBuf>,
    profile: bool,
    reps: usize,
    inputs: Vec<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let out_dir = PathBuf::from(it.next().ok_or("missing <out-dir>")?);
    let mut opts = Options {
        out_dir,
        model: None,
        profile: false,
        reps: 1,
        inputs: Vec::new(),
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => opts.model = Some(PathBuf::from(it.next().ok_or("--model needs a file")?)),
            "--profile" => opts.profile = true,
            "--reps" => {
                let n = it.next().ok_or("--reps needs a value")?;
                opts.reps = n
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("bad --reps `{n}`"))?;
            }
            other => opts.inputs.push(PathBuf::from(other)),
        }
    }
    if opts.inputs.is_empty() {
        return Err("no input netlists".to_owned());
    }
    fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    Ok(opts)
}

fn write_output(opts: &Options, input: &Path, text: &str) -> Result<(), String> {
    let path = opts.out_dir.join(format!("{}.txt", stem(input)));
    fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--model`, read and parsed once per invocation (`gnn.load_ms`),
/// outside the pass wall: a daemon loads its model once, and one
/// `extract --model` loads it once per input.
fn load_model(opts: &Options, layers: &mut Layers) -> Result<Option<GnnModel>, String> {
    let Some(m) = opts.model.as_deref() else {
        return Ok(None);
    };
    layers
        .time("gnn.load_ms", || {
            let text = fs::read_to_string(m).map_err(|e| e.to_string())?;
            GnnModel::from_text(&text).map_err(|e| e.to_string())
        })
        .map(Some)
        .map_err(|e| format!("{}: {e}", m.display()))
}

/// `trace`: one traced pass over the inputs (per-layer times, counts,
/// and per-design walls), followed by the untimed-pass breakdown of
/// detection into Algorithm 2 block embedding and pair enumeration.
/// With `--profile` it is the count-only pass instead: kernel counters
/// on, every reported time discarded.
pub fn run(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let cfg = ExtractorConfig::default();
    let mut layers = Layers::default();
    let model = load_model(&opts, &mut layers)?;
    if opts.profile {
        // Every timed kernel call records the configured thread count;
        // with the count left at its default that is a fresh
        // `available_parallelism` query (cgroup file reads) per call,
        // which makes this pass ~30x slower. Pinning the same count
        // changes no schedule and no counter.
        ancstr_par::set_threads(ancstr_par::available_parallelism());
        ancstr_par::profile::reset();
        ancstr_par::profile::set_enabled(true);
        for input in &opts.inputs {
            let (text, _) = extract(input, model.as_ref(), &cfg, &mut layers)?;
            write_output(&opts, input, &text)?;
        }
        ancstr_par::profile::set_enabled(false);
        let mut counts = BTreeMap::new();
        for k in ancstr_par::profile::snapshot() {
            counts.insert(format!("{}.calls", k.name), k.calls as f64);
            counts.insert(format!("{}.elems", k.name), k.elems as f64);
        }
        return Ok(format!("{{\"kernels\": {}}}", json_object(&counts)));
    }

    let mut designs = BTreeMap::new();
    let mut kept = Vec::new();
    let pass = Instant::now();
    for input in &opts.inputs {
        let start = Instant::now();
        let (text, extracted) = extract(input, model.as_ref(), &cfg, &mut layers)?;
        write_output(&opts, input, &text)?;
        designs.insert(stem(input), start.elapsed().as_secs_f64() * 1e3);
        kept.push(extracted);
    }
    let pass_ms = pass.elapsed().as_secs_f64() * 1e3;
    // Outside the pass wall: the two parts of detection that have their
    // own public entry points, timed on the pass's own embeddings.
    for e in &kept {
        black_box(layers.time("core.block_embed_ms", || {
            embed_all_blocks(&e.flat, &e.z, &cfg.embed)
        }));
        let pairs = layers.time("core.pairs_ms", || valid_pairs(&e.flat));
        layers.add("core.candidates", pairs.len() as f64);
    }
    let epochs: Vec<String> = layers.epoch_ms.iter().map(f64::to_string).collect();
    Ok(format!(
        "{{\"pass_ms\": {pass_ms}, \"designs\": {}, \"layers\": {}, \"epoch_ms\": [{}]}}",
        json_object(&designs),
        json_object(&layers.values),
        epochs.join(", ")
    ))
}

/// `pipeline`: the daemon's miss path in-process — `service::
/// extract_source` on each body with a warm extractor — `--reps` times
/// per body. Prints each body's times in milliseconds.
pub fn pipeline(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let model_path = opts.model.as_deref().ok_or("pipeline needs --model")?;
    let model_text =
        fs::read_to_string(model_path).map_err(|e| format!("{}: {e}", model_path.display()))?;
    let extractor = SymmetryExtractor::try_new(ExtractorConfig::default())
        .and_then(|x| x.with_model_text(&model_text))
        .map_err(|e| format!("{}: {e}", model_path.display()))?;
    let obs = PipelineObs::disabled();
    let mut rows = Vec::new();
    for input in &opts.inputs {
        let name = stem(input);
        let source = fs::read_to_string(input).map_err(|e| format!("{}: {e}", input.display()))?;
        let mut times = Vec::with_capacity(opts.reps);
        let mut first: Option<String> = None;
        for _ in 0..opts.reps {
            let start = Instant::now();
            let reply = extract_source(&source, &name, &extractor, &obs)
                .map_err(|e| format!("{name}: {e}"))?;
            times.push((start.elapsed().as_secs_f64() * 1e3).to_string());
            match &first {
                None => first = Some(reply.constraints_text),
                Some(text) if *text != reply.constraints_text => {
                    return Err(format!("{name}: output changed between repetitions"));
                }
                Some(_) => {}
            }
        }
        write_output(&opts, input, first.as_deref().unwrap_or_default())?;
        rows.push(format!("\"{name}\": [{}]", times.join(", ")));
    }
    Ok(format!("{{\"pipeline_ms\": {{{}}}}}", rows.join(", ")))
}
