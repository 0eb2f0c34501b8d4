//! Helper binary of the perfbench benchmark.
//!
//! ```text
//! perfbench-harness gen <seed> <dir> [adc] [blocks]
//! perfbench-harness score <netlist.sp> <constraints.txt> [<netlist.sp> <constraints.txt>]...
//! perfbench-harness host
//! perfbench-harness trace --seed S --model M.txt --spans FILE --out DIR
//!                         [--fit] [--train a.sp,b.sp,..] <input.sp>...
//! ```
//!
//! `gen` writes ADC1–ADC5 and the Table IV block netlists and prints the
//! CPU seconds that generating and writing them took, as `{"gen_s":..}`.
//! `score` parses
//! constraint files back with `read_constraints` and prints the Eq. 6
//! pair confusion against each netlist's ground truth. `host` prints
//! the compute layer's default thread count and kernel backend.
//!
//! `trace` is the traced in-process run: it repeats a workload's work
//! by calling the library's public functions in pipeline order, one
//! span per call. With `--fit` every input is trained on itself (the
//! `ancstr extract --seed S` flow); otherwise the inputs are extracted
//! with the pre-trained model `M`, and the `--train` netlists are
//! trained on again (the `ancstr train` set-up step) so training is
//! traced too. Spans stay in memory and are written to `--spans` as
//! JSON lines when the run ends; the summary (counts, kernel counters,
//! the profiling-overhead probe) is printed to stdout as one JSON
//! object. The kernel counters come from a second pass that repeats
//! only the calls the CLI makes for each input, so the counts describe
//! the workload's own work. Each extraction's constraint text is
//! written to `DIR/<stem>.out` so the caller can compare it with the
//! CLI's output.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ancstr_core::{
    circuit_features, detect_constraints, detect_constraints_pruned, embed_all_blocks,
    extract_source, level_confusions, read_constraints, valid_pairs, write_constraints,
    ExtractorConfig, PipelineObs, SymmetryExtractor,
};
use ancstr_gnn::{
    context_loss, try_train, ContextBatch, GnnModel, GraphTensors, HealthConfig, TrainGraph,
};
use ancstr_graph::HetMultigraph;
use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::write::write_spice;
use ancstr_netlist::FlatCircuit;
use ancstr_nn::{Adam, Matrix, Tape};
use ancstr_par::profile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Epochs of the hand-driven training loop that splits one step into
/// forward, loss, backward and the Adam update.
const STEP_EPOCHS: usize = 3;

/// Off/on pairs of the profiling-overhead probe.
const OVERHEAD_PAIRS: usize = 4;

type Result<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("score") => cmd_score(&args[1..]),
        Some("host") => cmd_host(),
        Some("trace") => cmd_trace(&args[1..]),
        _ => Err("usage: perfbench-harness gen|score|host|trace ...".to_owned()),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench-harness: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<()> {
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn cmd_gen(args: &[String]) -> Result<()> {
    let [seed, dir, kinds @ ..] = args else {
        return Err("gen needs <seed> <dir> adc|blocks..".to_owned());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let dir = Path::new(dir);
    let start = process_cpu_s()?;
    for kind in kinds {
        match kind.as_str() {
            // ADC1–ADC5 take no seed: the seed reaches them through
            // training (`ancstr extract --seed S`).
            "adc" => {
                for (i, nl) in ancstr_circuits::adc::adc_benchmarks().iter().enumerate() {
                    write_file(&dir.join(format!("adc{}.sp", i + 1)), &write_spice(nl))?;
                }
            }
            "blocks" => {
                for (i, nl) in ancstr_circuits::block_benchmarks(seed).iter().enumerate() {
                    write_file(&dir.join(format!("block{:02}.sp", i + 1)), &write_spice(nl))?;
                }
            }
            other => return Err(format!("unknown input kind `{other}`")),
        }
    }
    println!("{{\"gen_s\":{}}}", process_cpu_s()? - start);
    Ok(())
}

/// CPU time (user + system, all threads) this process has used so far,
/// in seconds: the same measure the benchmark takes of `ancstr` runs.
fn process_cpu_s() -> Result<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout on
    // 64-bit Linux, the one platform the benchmark runs on.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err("clock_gettime failed".to_owned());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

fn load_flat(path: &Path) -> Result<FlatCircuit> {
    let nl = parse_spice(&read_file(path)?).map_err(|e| format!("{}: {e}", path.display()))?;
    FlatCircuit::elaborate(&nl).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_score(args: &[String]) -> Result<()> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err("score needs <netlist> <constraints> pairs".to_owned());
    }
    let mut rows = Vec::new();
    for pair in args.chunks(2) {
        let flat = load_flat(Path::new(&pair[0]))?;
        let text = read_file(Path::new(&pair[1]))?;
        let set = read_constraints(&flat, &text).map_err(|e| format!("{}: {e}", pair[1]))?;
        let [(_, overall), _, _] = level_confusions(&flat, &set);
        rows.push(format!(
            "{{\"netlist\":{:?},\"tp\":{},\"fp\":{},\"fn\":{},\"constraints\":{}}}",
            pair[0],
            overall.tp,
            overall.fp,
            overall.fn_,
            set.len()
        ));
    }
    println!("[{}]", rows.join(","));
    Ok(())
}

fn cmd_host() -> Result<()> {
    println!(
        "{{\"threads\":{},\"backend\":\"{}\"}}",
        ancstr_par::threads(),
        ancstr_nn::backend::backend_kind().name()
    );
    Ok(())
}

/// One closed span: a call into a layer, with the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder. Spans are opened and closed in stack
/// order; the open span is the parent of the next one.
struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.stack.borrow().last().copied(),
                start_ns: self.t0.elapsed().as_nanos(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.t0.elapsed().as_nanos();
        out
    }

    fn write_jsonl(&self, path: &Path) -> Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        write_file(path, &out)
    }
}

struct TraceArgs {
    seed: u64,
    model: PathBuf,
    spans: PathBuf,
    out: PathBuf,
    fit: bool,
    train: Vec<PathBuf>,
    inputs: Vec<PathBuf>,
}

fn parse_trace_args(args: &[String]) -> Result<TraceArgs> {
    let mut seed = None;
    let mut model = None;
    let mut spans = None;
    let mut out = None;
    let mut fit = false;
    let mut train = Vec::new();
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|_| "bad --seed")?),
            "--model" => model = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--train" => train = value()?.split(',').map(PathBuf::from).collect(),
            "--fit" => fit = true,
            _ => inputs.push(PathBuf::from(a)),
        }
    }
    let missing = |flag: &str| format!("trace needs {flag}");
    if inputs.is_empty() {
        return Err(missing("at least one input"));
    }
    Ok(TraceArgs {
        seed: seed.ok_or_else(|| missing("--seed"))?,
        model: model.ok_or_else(|| missing("--model"))?,
        spans: spans.ok_or_else(|| missing("--spans"))?,
        out: out.ok_or_else(|| missing("--out"))?,
        fit,
        train,
        inputs,
    })
}

/// The CLI's configuration for `--seed S` (`config_with` in `ancstr`).
fn config_for(seed: u64) -> ExtractorConfig {
    let mut cfg = ExtractorConfig::default();
    cfg.train.seed = seed;
    cfg.gnn.seed = seed;
    cfg
}

/// Totals the summary reports next to the spans.
#[derive(Default)]
struct Counts {
    graph_edges: usize,
    adj_nnz: usize,
    pairs: usize,
    constraints: usize,
    train_calls: usize,
    train_epochs: usize,
    train_steps: usize,
    embed_batch_parts: usize,
}

fn load_traced(tr: &Tracer, path: &Path) -> Result<(FlatCircuit, usize)> {
    let text = read_file(path)?;
    let nl = tr
        .span("netlist.parse", || parse_spice(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let flat = tr
        .span("netlist.elaborate", || FlatCircuit::elaborate(&nl))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let devices = flat.devices().len();
    Ok((flat, devices))
}

/// `SymmetryExtractor::train_graph`, one span per layer call. Returns
/// the graph's edge count next to the training graph.
fn train_graph_traced(
    tr: &Tracer,
    cfg: &ExtractorConfig,
    flat: &FlatCircuit,
) -> (TrainGraph, usize) {
    let g = tr.span("graph.build", || {
        HetMultigraph::from_circuit(flat, &cfg.build)
    });
    let tensors = tr.span("gnn.tensors", || GraphTensors::from_multigraph(&g));
    let features = tr.span("core.features", || circuit_features(flat, &cfg.features));
    (TrainGraph { tensors, features }, g.edge_count())
}

/// Guarded training (`SymmetryExtractor::try_fit`, the CLI's path).
fn train_traced(
    tr: &Tracer,
    cfg: &ExtractorConfig,
    dataset: &[TrainGraph],
    counts: &mut Counts,
) -> Result<GnnModel> {
    let mut model = GnnModel::new(cfg.gnn.clone());
    tr.span("gnn.train", || {
        try_train(&mut model, dataset, &cfg.train, &HealthConfig::default())
    })
    .map_err(|e| format!("training failed: {e}"))?;
    counts.train_calls += 1;
    counts.train_epochs += cfg.train.epochs;
    counts.train_steps += cfg.train.epochs * dataset.len();
    Ok(model)
}

/// `STEP_EPOCHS` epochs of the unguarded training loop driven by hand,
/// so one step splits into its forward, loss, backward and Adam spans.
fn steps_traced(tr: &Tracer, cfg: &ExtractorConfig, dataset: &[TrainGraph]) {
    let mut model = GnnModel::new(cfg.gnn.clone());
    let mut rng = StdRng::seed_from_u64(cfg.train.seed);
    let mut opt = Adam::new(cfg.train.learning_rate);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    for _ in 0..STEP_EPOCHS {
        order.shuffle(&mut rng);
        for &gi in &order {
            let graph = &dataset[gi];
            let batch = ContextBatch::sample(&graph.tensors, &cfg.train.loss, &mut rng);
            if batch.is_empty() {
                continue;
            }
            let mut tape = Tape::new();
            let (z, leaves) = tr.span("gnn.forward", || {
                model.forward_on_tape(&mut tape, &graph.tensors, &graph.features)
            });
            let loss = tr.span("gnn.loss", || {
                context_loss(&mut tape, z, &batch, &cfg.train.loss)
            });
            let mut grads = tr.span("gnn.backward", || tape.backward(loss));
            let grad_mats: Vec<Matrix> = leaves
                .ids()
                .iter()
                .map(|&id| {
                    grads.take(id).unwrap_or_else(|| {
                        let (r, c) = tape.value(id).shape();
                        Matrix::zeros(r, c)
                    })
                })
                .collect();
            tr.span("nn.adam", || {
                opt.step(&mut model.matrices_mut(), &grad_mats)
            });
        }
    }
}

/// Embed and detect one circuit, one span per layer call. With `full`,
/// also the calls the CLI does not make: `embed_all_blocks` and
/// `valid_pairs` on their own, pruned detect and the ALIGN export.
/// Returns the exported constraint text and the numbers of candidate
/// pairs (0 without `full`) and of accepted constraints.
fn extract_traced(
    tr: &Tracer,
    cfg: &ExtractorConfig,
    model: &GnnModel,
    flat: &FlatCircuit,
    tg: &TrainGraph,
    full: bool,
) -> Result<(String, usize, usize)> {
    let z = tr.span("gnn.embed", || model.embed(&tg.tensors, &tg.features));
    let mut pairs = 0;
    if full {
        // Detect calls both of these internally; they are timed again
        // as separate calls so detect's own scoring share can be split
        // out. The first call of `embed_all_blocks` on a circuit pays
        // for fresh memory that later calls reuse, so one untimed call
        // comes first and both timed ones run warm.
        tr.span("core.embed_blocks.warm-up", || {
            embed_all_blocks(flat, &z, &cfg.embed)
        });
        tr.span("core.embed_blocks", || {
            embed_all_blocks(flat, &z, &cfg.embed)
        });
        pairs = tr.span("core.pairs", || valid_pairs(flat)).len();
    }
    let det = tr.span("core.detect", || {
        detect_constraints(flat, &z, &cfg.thresholds, &cfg.embed)
    });
    let text = tr.span("core.export", || write_constraints(flat, &det.constraints));
    if full {
        let pruned = tr.span("core.detect_pruned", || {
            detect_constraints_pruned(flat, &z, &cfg.thresholds, &cfg.embed)
        });
        tr.span("hier.align", || {
            ancstr_hier::align::export_align(flat, &det.constraints)
        });
        if write_constraints(flat, &pruned.constraints) != text {
            return Err("pruned detect disagrees with exact detect".to_owned());
        }
    }
    Ok((text, pairs, det.constraints.len()))
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .map_or_else(|| "input".to_owned(), |s| s.to_string_lossy().into_owned())
}

/// The workload's work, in pipeline order, one span per layer call.
/// With `full`, also the set-up training, the calls of
/// `extract_traced`'s full mode, a batched embed and the hand-driven
/// training steps; without it, only the calls the CLI makes per input.
fn tour(
    tr: &Tracer,
    a: &TraceArgs,
    cfg: &ExtractorConfig,
    pretrained: &SymmetryExtractor,
    model_text: &str,
    full: bool,
) -> Result<Counts> {
    let mut counts = Counts::default();
    let mut step_sets: Vec<Vec<TrainGraph>> = Vec::new();
    // The two largest extraction inputs, kept for the batched embed.
    let mut largest: Vec<(usize, TrainGraph)> = Vec::new();
    if full && !a.fit {
        // The set-up step `ancstr train <netlists> --seed S`.
        tr.span("setup", || -> Result<()> {
            let mut dataset = Vec::new();
            for path in &a.train {
                let (flat, _) = load_traced(tr, path)?;
                dataset.push(train_graph_traced(tr, cfg, &flat).0);
            }
            let model = train_traced(tr, cfg, &dataset, &mut counts)?;
            if model.to_text() != model_text {
                return Err("retrained model differs from the set-up model".to_owned());
            }
            step_sets.push(dataset);
            Ok(())
        })?;
    }
    for path in &a.inputs {
        tr.span("input", || -> Result<()> {
            let (flat, devices) = load_traced(tr, path)?;
            let trained;
            let model = if a.fit {
                // `ancstr extract --seed S`: build the training graph,
                // fit, then rebuild it for extraction.
                let set = vec![train_graph_traced(tr, cfg, &flat).0];
                trained = train_traced(tr, cfg, &set, &mut counts)?;
                step_sets.push(set);
                &trained
            } else {
                pretrained.model()
            };
            let (tg, edges) = train_graph_traced(tr, cfg, &flat);
            counts.graph_edges += edges;
            counts.adj_nnz += tg.tensors.edge_count();
            let (text, pairs, constraints) = extract_traced(tr, cfg, model, &flat, &tg, full)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            counts.pairs += pairs;
            counts.constraints += constraints;
            if full {
                write_file(&a.out.join(format!("{}.out", stem(path))), &text)?;
                largest.push((devices, tg));
                largest.sort_by_key(|x| std::cmp::Reverse(x.0));
                largest.truncate(2);
            }
            Ok(())
        })?;
    }
    if !full {
        return Ok(counts);
    }
    let parts: Vec<(&GraphTensors, &Matrix)> = largest
        .iter()
        .map(|(_, tg)| (&tg.tensors, &tg.features))
        .collect();
    tr.span("gnn.embed_batch", || pretrained.model().embed_batch(&parts));
    counts.embed_batch_parts = parts.len();
    for set in &step_sets {
        tr.span("steps", || steps_traced(tr, cfg, set));
    }
    Ok(counts)
}

fn cmd_trace(args: &[String]) -> Result<()> {
    let a = parse_trace_args(args)?;
    let model_text = read_file(&a.model)?;
    let cfg = config_for(a.seed);
    let pretrained = SymmetryExtractor::try_new(cfg.clone())
        .and_then(|ex| ex.with_model_text(&model_text))
        .map_err(|e| format!("{}: {e}", a.model.display()))?;

    // First, while the thread count is still unset as in the daemon.
    let (off_ms, on_ms) = profile_overhead(&pretrained)?;

    // The timed pass: profiling off, the default thread count.
    let tr = Tracer::new();
    let counts = tr.span("tour", || {
        tour(&tr, &a, &cfg, &pretrained, &model_text, true)
    })?;
    tr.write_jsonl(&a.spans)?;

    // The counted pass repeats, with the kernel counters on, only the
    // calls the CLI makes for each input. With no thread count set,
    // every counted call would re-query the OS for it; pinning the same
    // count keeps the counts identical and the pass short.
    ancstr_par::set_threads(ancstr_par::available_parallelism());
    profile::reset();
    profile::set_enabled(true);
    let counted = Tracer::new();
    let recount = tour(&counted, &a, &cfg, &pretrained, &model_text, false);
    profile::set_enabled(false);
    ancstr_par::set_threads(0);
    recount?;
    let kernels = profile::snapshot();

    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"graph_edges\":{},\"adj_nnz\":{},\"pairs\":{},\"constraints\":{},\
         \"train_calls\":{},\"train_epochs\":{},\"train_steps\":{},\"embed_batch_parts\":{},\
         \"profile_off_ms\":{off_ms},\"profile_on_ms\":{on_ms},\"kernels\":{{",
        counts.graph_edges,
        counts.adj_nnz,
        counts.pairs,
        counts.constraints,
        counts.train_calls,
        counts.train_epochs,
        counts.train_steps,
        counts.embed_batch_parts,
    );
    let rows: Vec<String> = kernels
        .iter()
        .map(|k| {
            format!(
                "\"{}\":{{\"calls\":{},\"elements\":{}}}",
                k.name, k.calls, k.elems
            )
        })
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

/// Median wall time of the ADC5 service path (`extract_source`, the
/// daemon's per-request pipeline) with kernel profiling off and on,
/// alternating which runs first.
fn profile_overhead(extractor: &SymmetryExtractor) -> Result<(f64, f64)> {
    let source = write_spice(&ancstr_circuits::adc::adc5());
    let obs = PipelineObs::disabled();
    let run = |on: bool| -> Result<f64> {
        profile::set_enabled(on);
        let start = Instant::now();
        let reply = extract_source(&source, "adc5", extractor, &obs);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        profile::set_enabled(false);
        reply
            .map(|_| ms)
            .map_err(|e| format!("adc5 service path failed: {e}"))
    };
    run(false)?;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..OVERHEAD_PAIRS {
        let first_on = i % 2 == 1;
        let a = run(first_on)?;
        let b = run(!first_on)?;
        let (x, y) = if first_on { (b, a) } else { (a, b) };
        off.push(x);
        on.push(y);
    }
    Ok((median(&mut off), median(&mut on)))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
