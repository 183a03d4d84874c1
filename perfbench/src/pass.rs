//! One pass of a workload: set-up, grading of every kernel, assembly of
//! the outputs, and their check. A pass is what one user run of the
//! workload does; a benchmark run repeats passes for its measuring time.

use crate::check::{self, invariant_error, kernel_line, netlist_line, rows_line, structure_line};
use crate::host::HostRef;
use crate::trace::Trace;
use crate::workload::{
    grade_product, grade_replica, options, setup, Graded, Spec, Stream, Unit, Workload,
};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Where a per-layer metric comes from in a traced pass.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Self time of the spans with this name, in seconds.
    Span(&'static str),
    /// A counter recorded at a layer boundary.
    Counter,
    /// One counter divided by another.
    Ratio(&'static str, &'static str),
    /// Traced minus untraced grading time.
    Overhead,
}

/// The per-layer metrics of a traced run: name, unit, source.
pub const LAYER_METRICS: &[(&str, &str, Source)] = &[
    ("datapath.build_s", "s", Source::Span("datapath.build")),
    ("core.bibs.select_s", "s", Source::Span("core.bibs.select")),
    ("core.ka85.select_s", "s", Source::Span("core.ka85.select")),
    (
        "core.design.kernels_s",
        "s",
        Source::Span("core.design.kernels"),
    ),
    ("core.design.kernel_count", "count", Source::Counter),
    ("core.schedule.s", "s", Source::Span("core.schedule")),
    ("core.schedule.sessions", "count", Source::Counter),
    ("datapath.elab.s", "s", Source::Span("datapath.elab")),
    (
        "faultsim.fault.universe_s",
        "s",
        Source::Span("faultsim.fault.universe"),
    ),
    ("faultsim.fault.universe_faults", "count", Source::Counter),
    (
        "netlist.compiled.compile_s",
        "s",
        Source::Span("netlist.compiled.compile"),
    ),
    ("netlist.compiled.instructions", "count", Source::Counter),
    (
        "faultsim.fault.analyze_s",
        "s",
        Source::Span("faultsim.fault.analyze"),
    ),
    ("faultsim.fault.unobservable", "count", Source::Counter),
    ("faultsim.fault.untestable_static", "count", Source::Counter),
    ("source.build_s", "s", Source::Span("source.build")),
    ("source.fallbacks", "count", Source::Counter),
    ("source.pull_s", "s", Source::Span("source.pull")),
    ("source.blocks", "count", Source::Counter),
    ("source.clocks", "count", Source::Counter),
    ("faultsim.par.sim_s", "s", Source::Span("faultsim.par.sim")),
    ("faultsim.par.gate_evals", "count", Source::Counter),
    ("faultsim.par.fault_evals", "count", Source::Counter),
    ("faultsim.par.blocks", "count", Source::Counter),
    ("faultsim.par.patterns", "count", Source::Counter),
    (
        "faultsim.par.dropped_per_fault_eval",
        "ratio",
        Source::Ratio("faultsim.par.faults_dropped", "faultsim.par.fault_evals"),
    ),
    ("faultsim.atpg.s", "s", Source::Span("faultsim.atpg")),
    ("faultsim.atpg.faults", "count", Source::Counter),
    ("faultsim.atpg.backtracks", "count", Source::Counter),
    ("faultsim.atpg.tests", "count", Source::Counter),
    ("faultsim.atpg.redundant", "count", Source::Counter),
    ("faultsim.atpg.aborted", "count", Source::Counter),
    ("unattributed_s", "s", Source::Span("kernel")),
    ("trace_overhead_s", "s", Source::Overhead),
];

/// One untraced kernel grading.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the grading started.
    pub at: Instant,
    /// Grading latency in seconds.
    pub secs: f64,
    /// Collapsed faults classified.
    pub faults: u64,
    /// Patterns simulated.
    pub patterns: u64,
}

/// What one pass measured and found.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Set-up time: build, select, kernels, schedule.
    pub setup_s: f64,
    /// The whole pass, less the host probes taken in it.
    pub wall_s: f64,
    /// Untraced kernel gradings (the product calls).
    pub samples: Vec<Sample>,
    /// Kernel gradings attempted.
    pub attempted: u64,
    /// Kernel gradings that panicked or failed a check.
    pub failed: u64,
    /// One message per problem found.
    pub problems: Vec<String>,
    /// Per-layer values (traced passes only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer values of each kernel (traced passes only).
    pub kernel_layers: Vec<(String, BTreeMap<&'static str, f64>)>,
    /// The output records, keyed by [`check::key`].
    pub lines: BTreeMap<String, String>,
}

struct Job<'a> {
    label: String,
    group: String,
    unit: Unit<'a>,
    seed: u64,
    stream: Stream,
}

/// splitmix64: derives independent seeds from one.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Runs one pass at `seed`. `traced` grades every kernel twice — through
/// the spanned replica and through the product — and checks they agree.
/// `full_check` compares every record with `golden`; otherwise only the
/// seed-independent `structure` records are compared. `None` skips the
/// comparison (recording new golden records). `host` is probed between
/// kernel gradings.
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    traced: bool,
    full_check: bool,
    golden: Option<&BTreeMap<String, String>>,
    host: &mut HostRef,
) -> PassOut {
    let started = Instant::now();
    let mut out = PassOut::default();
    let mut tr = Trace::new(traced);
    let built = catch_unwind(AssertUnwindSafe(|| setup(spec, &mut tr)));
    out.setup_s = started.elapsed().as_secs_f64();
    let built = match built {
        Ok(b) => b,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problems
                .push(format!("set-up panicked: {}", panic_text(&*e)));
            return out;
        }
    };

    let mut jobs: Vec<Job> = Vec::new();
    for col in &built.columns {
        let stream = match spec.workload {
            Workload::KchainMintpg => Stream::MinTpg,
            _ => Stream::Legacy,
        };
        for (i, kernel) in col.kernels.iter().enumerate() {
            jobs.push(Job {
                label: format!("{} k{i}", col.label),
                group: col.label.clone(),
                unit: Unit::Rtl {
                    circuit: &col.circuit,
                    design: &col.design,
                    kernel,
                },
                seed,
                stream,
            });
        }
    }
    for (n, (name, netlist)) in built.netlists.iter().enumerate() {
        // The multiplier is graded once per pass, the cheap adder under
        // several seeds (see NOTES.md on kernel_ms quantiles).
        let runs = if n == 0 { 0..1 } else { 1..spec.add_seeds + 1 };
        for j in runs {
            jobs.push(Job {
                label: format!("{name} s{j}"),
                group: name.clone(),
                unit: Unit::Gate(netlist),
                seed: if j == 0 { seed } else { mix(seed, j) },
                stream: Stream::Random,
            });
        }
    }
    if spec.workload == Workload::KchainMintpg {
        // The seed orders the kernels (Fisher–Yates).
        let mut state = seed;
        for i in (1..jobs.len()).rev() {
            state = mix(state, i as u64);
            jobs.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }

    let mut failed: BTreeSet<String> = BTreeSet::new();
    let mut graded: BTreeMap<String, Vec<Graded>> = BTreeMap::new();
    let mut overhead = 0.0;
    let mut probing = 0.0;
    for (n, job) in jobs.iter().enumerate() {
        probing += host.probe_if_due();
        out.attempted += 1;
        let opts = options(job.seed);
        let product = |out: &mut PassOut| {
            let t = Instant::now();
            let g = catch_unwind(AssertUnwindSafe(|| {
                grade_product(job.unit, &opts, job.stream)
            }));
            let secs = t.elapsed().as_secs_f64();
            g.map(|g| {
                out.samples.push(Sample {
                    at: t,
                    secs,
                    faults: g.stats.faults as u64,
                    patterns: g.patterns,
                });
                (g, secs)
            })
        };
        let result = if traced {
            let mut kernel_trace = Trace::new(true);
            let mut replica = || {
                let t = Instant::now();
                let g = catch_unwind(AssertUnwindSafe(|| {
                    grade_replica(job.unit, &opts, job.stream, &mut kernel_trace)
                }));
                g.map(|g| (g, t.elapsed().as_secs_f64()))
            };
            // Alternate which runs first so neither always meets warm caches.
            let (r, p) = if n % 2 == 0 {
                let r = replica();
                (r, product(&mut out))
            } else {
                let p = product(&mut out);
                (replica(), p)
            };
            match (r, p) {
                (Ok((r, rs)), Ok((p, ps))) => {
                    overhead += rs - ps;
                    out.kernel_layers
                        .push((job.label.clone(), layer_values(&kernel_trace, rs - ps)));
                    tr.absorb(kernel_trace);
                    let (rl, pl) = (kernel_line(&job.label, &r), kernel_line(&job.label, &p));
                    if rl != pl {
                        Err(format!("traced result differs from untraced:\n  traced   {rl}\n  untraced {pl}"))
                    } else {
                        Ok(p)
                    }
                }
                (Err(e), _) | (_, Err(e)) => Err(format!("panicked: {}", panic_text(&*e))),
            }
        } else {
            product(&mut out)
                .map(|(g, _)| g)
                .map_err(|e| format!("panicked: {}", panic_text(&*e)))
        };
        match result.and_then(|g| invariant_error(&g).map_or(Ok(g), Err)) {
            Ok(g) => {
                out.lines
                    .insert(format!("kernel {}", job.label), kernel_line(&job.label, &g));
                graded.entry(job.group.clone()).or_default().push(g);
            }
            Err(msg) => {
                out.problems.push(format!("{}: {msg}", job.label));
                failed.insert(job.label.clone());
            }
        }
    }

    for col in &built.columns {
        let line = structure_line(col);
        out.lines.insert(check::key(&line).to_string(), line);
        if spec.workload == Workload::Table2Paper {
            if let Some(g) = graded
                .get(&col.label)
                .filter(|g| g.len() == col.kernels.len())
            {
                let line = rows_line(col, g);
                out.lines.insert(check::key(&line).to_string(), line);
            }
        }
    }
    for (name, netlist) in &built.netlists {
        let line = netlist_line(name, netlist);
        out.lines.insert(check::key(&line).to_string(), line);
    }
    out.wall_s = started.elapsed().as_secs_f64() - probing;

    let checked = |k: &str| full_check || k.starts_with("structure ");
    let mismatched = golden.map_or(Vec::new(), |g| check::mismatches(&out.lines, g, checked));
    for k in mismatched {
        let golden = golden.expect("mismatches come from a golden record");
        out.problems.push(format!(
            "output differs from golden: {k}\n  got      {}\n  expected {}",
            out.lines.get(&k).map_or("(missing)", |s| s.as_str()),
            golden.get(&k).map_or("(missing)", |s| s.as_str())
        ));
        match k.strip_prefix("kernel ") {
            Some(label) => {
                failed.insert(label.to_string());
            }
            // A design-level record fails every kernel of its design.
            None => {
                let group = k.split_once(' ').map_or("", |(_, g)| g);
                failed.extend(
                    jobs.iter()
                        .filter(|j| j.group == group)
                        .map(|j| j.label.clone()),
                );
            }
        }
    }
    out.failed = failed.len() as u64;

    if traced {
        out.layers = layer_values(&tr, overhead);
    }
    out
}

/// The [`LAYER_METRICS`] of a trace, given its tracing overhead.
fn layer_values(tr: &Trace, overhead: f64) -> BTreeMap<&'static str, f64> {
    let spans = tr.self_seconds();
    let counters = tr.counters();
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    LAYER_METRICS
        .iter()
        .map(|&(name, _, source)| {
            let value = match source {
                Source::Span(span) => get(&spans, span),
                Source::Counter => get(counters, name),
                Source::Ratio(num, den) => match get(counters, den) {
                    d if d > 0.0 => get(counters, num) / d,
                    _ => 0.0,
                },
                Source::Overhead => overhead,
            };
            (name, value)
        })
        .collect()
}
