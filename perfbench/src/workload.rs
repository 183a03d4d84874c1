//! The three workloads: their circuits, their set-up, and how one kernel
//! is graded, both through the product's own entry point and through the
//! benchmark's layer-by-layer replica of it.

use crate::trace::{TimedSource, Trace};
use bibs_bench::{
    build_source, kernel_fault_stats, KernelFaultStats, SourceRun, SourceSpec, Table2Options,
};
use bibs_core::bibs::{self, BibsOptions};
use bibs_core::design::{kernels, BilboDesign, Kernel};
use bibs_core::ka85;
use bibs_core::schedule::{schedule, TestSession};
use bibs_corpus::gen::Family;
use bibs_datapath::elab::elaborate_kernel;
use bibs_datapath::filters::scaled;
use bibs_faultsim::atpg::Atpg;
use bibs_faultsim::fault::{Fault, FaultUniverse, StaticFaultAnalysis};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::{BlockSim, FaultSimReport};
use bibs_faultsim::source::{PatternSource, RandomWords};
use bibs_netlist::{EvalProgram, Netlist};
use bibs_rtl::{Circuit, VertexKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Fault-simulation worker threads. Set explicitly (never from
/// `BIBS_JOBS`) and recorded with every result; one worker keeps the whole
/// load in one process on a two-core host.
pub const JOBS: usize = 1;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 2: three datapaths under both TDMs, legacy RNG.
    Table2Paper,
    /// Gate-level 32-bit multiplier and 64-bit adder as single kernels.
    WideArith,
    /// A long `MultiKernel` chain driven by the paper's own TPG.
    KchainMintpg,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table2Paper,
        Workload::WideArith,
        Workload::KchainMintpg,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Paper => "table2-paper",
            Workload::WideArith => "wide-arith",
            Workload::KchainMintpg => "kchain-mintpg",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size for measurement, smoke size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A size that finishes in seconds.
    Smoke,
}

impl Size {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// A workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Datapath width of the Table 2 circuits.
    pub table2_width: u32,
    /// Multiplier operand width.
    pub mul_width: usize,
    /// Adder operand width.
    pub add_width: usize,
    /// Adder gradings per pass, each under its own seed.
    pub add_seeds: u64,
    /// Kernel-chain stage count.
    pub stages: usize,
    /// Kernel-chain word width.
    pub chain_width: u32,
}

/// The Table 2 datapaths.
const FILTERS: [&str; 3] = ["c5a2m", "c3a2m", "c4a4m"];

impl Spec {
    /// The sizes of `workload` at `size`.
    pub fn new(workload: Workload, size: Size) -> Spec {
        let full = size == Size::Full;
        Spec {
            workload,
            table2_width: if full { 8 } else { 3 },
            mul_width: if full { 32 } else { 8 },
            add_width: if full { 64 } else { 16 },
            add_seeds: 4,
            stages: if full { 64 } else { 6 },
            chain_width: if full { 8 } else { 4 },
        }
    }

    /// Whether graded results are independent of the seed, so that every
    /// pass can be checked against the golden record. The paper's TPG is
    /// deterministic hardware: on `kchain-mintpg` the seed only orders the
    /// kernels.
    pub fn seed_independent(&self) -> bool {
        self.workload == Workload::KchainMintpg
    }

    /// The workload sizes as a JSON object, for the run metadata.
    pub fn sizes_json(&self) -> String {
        match self.workload {
            Workload::Table2Paper => format!(
                "{{\"circuits\":\"c5a2m,c3a2m,c4a4m\",\"tdms\":\"BIBS,[3]\",\"width\":{}}}",
                self.table2_width
            ),
            Workload::WideArith => format!(
                "{{\"mul_width\":{},\"add_width\":{},\"add_seeds\":{}}}",
                self.mul_width, self.add_width, self.add_seeds
            ),
            Workload::KchainMintpg => format!(
                "{{\"stages\":{},\"width\":{}}}",
                self.stages, self.chain_width
            ),
        }
    }
}

/// One circuit under one TDM after set-up.
pub struct Column {
    /// `"<circuit> <TDM>"`.
    pub label: String,
    /// The circuit the design applies to.
    pub circuit: Circuit,
    /// The selected BILBO design.
    pub design: BilboDesign,
    /// Logic-bearing kernels.
    pub kernels: Vec<Kernel>,
    /// The test-session schedule.
    pub sessions: Vec<TestSession>,
}

/// Everything a pass builds before grading.
#[derive(Default)]
pub struct Setup {
    /// RTL designs with their kernels.
    pub columns: Vec<Column>,
    /// Gate-level netlists graded whole.
    pub netlists: Vec<(String, Netlist)>,
}

/// Builds the circuits, selects the TDM, extracts kernels and schedules
/// them: the public calls `bibs_bench::apply_tdm` and the Table 2 driver
/// make, one span per layer.
pub fn setup(spec: &Spec, tr: &mut Trace) -> Setup {
    let mut out = Setup::default();
    match spec.workload {
        Workload::Table2Paper => {
            for name in FILTERS {
                let circuit = tr.span("datapath.build", |_| scaled(name, spec.table2_width));
                let r = tr.span("core.bibs.select", |_| {
                    bibs::select(&circuit, &BibsOptions::default())
                        .expect("experiment circuits are IO-registered")
                });
                out.columns
                    .push(column(format!("{name} BIBS"), r.circuit, r.design, tr));
                let design = tr.span("core.ka85.select", |_| {
                    ka85::select(&circuit).expect("experiment circuits satisfy [3]'s assumptions")
                });
                out.columns
                    .push(column(format!("{name} [3]"), circuit, design, tr));
            }
        }
        Workload::WideArith => {
            for family in [
                Family::Multiplier {
                    width: spec.mul_width,
                },
                Family::Adder {
                    width: spec.add_width,
                },
            ] {
                let netlist = tr.span("datapath.build", |_| family.build());
                out.netlists.push((family.to_string(), netlist));
            }
        }
        Workload::KchainMintpg => {
            let family = Family::MultiKernel {
                stages: spec.stages,
                width: spec.chain_width,
            };
            let circuit = tr.span("datapath.build", |_| {
                family.rtl().expect("MultiKernel has an RTL circuit")
            });
            let r = tr.span("core.bibs.select", |_| {
                bibs::select(&circuit, &family.bibs_options())
                    .expect("kernel chains are IO-registered")
            });
            out.columns
                .push(column(format!("{family} BIBS"), r.circuit, r.design, tr));
        }
    }
    out
}

fn column(label: String, circuit: Circuit, design: BilboDesign, tr: &mut Trace) -> Column {
    let ks: Vec<Kernel> = tr.span("core.design.kernels", |_| {
        kernels(&circuit, &design)
            .into_iter()
            .filter(|k| {
                k.vertices
                    .iter()
                    .any(|&v| circuit.vertex(v).kind == VertexKind::Logic)
            })
            .collect()
    });
    let sessions = tr.span("core.schedule", |_| schedule(&design, &ks));
    tr.add("core.design.kernel_count", ks.len() as f64);
    tr.add("core.schedule.sessions", sessions.len() as f64);
    Column {
        label,
        circuit,
        design,
        kernels: ks,
        sessions,
    }
}

/// What drives a kernel's pattern phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The product's legacy seeded-RNG path (no pattern source).
    Legacy,
    /// Seeded random words through the `PatternSource` layer.
    Random,
    /// The paper's minimal TPG (`SourceSpec::MinTpg`).
    MinTpg,
}

/// One thing the benchmark grades.
#[derive(Clone, Copy)]
pub enum Unit<'a> {
    /// A kernel of an RTL design.
    Rtl {
        /// The design's circuit.
        circuit: &'a Circuit,
        /// The BILBO design.
        design: &'a BilboDesign,
        /// The kernel.
        kernel: &'a Kernel,
    },
    /// A gate-level netlist graded as one combinational kernel.
    Gate(&'a Netlist),
}

/// A graded kernel: the product's statistics plus the stream accounting
/// the output check compares.
#[derive(Debug, Clone)]
pub struct Graded {
    /// The per-kernel statistics, as `kernel_fault_stats` returns them.
    pub stats: KernelFaultStats,
    /// Patterns applied by the simulator.
    pub patterns: u64,
    /// Source descriptor kind (`legacy` for the RNG path).
    pub source_kind: String,
    /// Clocks the source accounts for (0 for the RNG path).
    pub clocks: u64,
}

/// Grading options shared by every kernel of a pass.
pub fn options(seed: u64) -> Table2Options {
    Table2Options {
        seed,
        jobs: JOBS,
        ..Table2Options::default()
    }
}

/// Grades through the product: `kernel_fault_stats` for RTL kernels, the
/// untraced replica for gate-level netlists (they have no RTL entry).
pub fn grade_product(unit: Unit, opts: &Table2Options, stream: Stream) -> Graded {
    let Unit::Rtl {
        circuit,
        design,
        kernel,
    } = unit
    else {
        return grade_replica(unit, opts, stream, &mut Trace::new(false));
    };
    let opts = Table2Options {
        source: match stream {
            Stream::Legacy => None,
            Stream::Random => Some(SourceSpec::Random),
            Stream::MinTpg => Some(SourceSpec::MinTpg),
        },
        ..opts.clone()
    };
    let stats = kernel_fault_stats(circuit, design, kernel, &opts);
    // The scalar driver pulls a block only to apply it, so patterns
    // applied are the emitted lanes (random blocks are always full) capped
    // by the pattern budget.
    let (patterns, source_kind, clocks) = match &stats.source {
        Some(run) => (
            run.emitted.min(opts.max_patterns),
            descriptor_kind(&run.descriptor_json),
            run.clocks,
        ),
        None => (
            (stats.sim.blocks * 64).min(opts.max_patterns),
            "legacy".to_string(),
            0,
        ),
    };
    Graded {
        stats,
        patterns,
        source_kind,
        clocks,
    }
}

fn descriptor_kind(json: &str) -> String {
    json.strip_prefix("{\"kind\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("unknown")
        .to_string()
}

/// The public calls of `kernel_fault_stats`, in its order and with its
/// default options (equivalence collapsing, compiled engine, 64 lanes,
/// no `--opt`), each inside a layer span. The pattern source is wrapped in
/// a [`TimedSource`] so its pulls are timed apart from the simulator.
pub fn grade_replica(unit: Unit, opts: &Table2Options, stream: Stream, tr: &mut Trace) -> Graded {
    tr.span("kernel", |tr| {
        let comb = tr.span("datapath.elab", |_| match unit {
            Unit::Rtl {
                circuit,
                design,
                kernel,
            } => {
                let cut: HashSet<_> = design.bilbo.iter().chain(&design.cbilbo).copied().collect();
                let kernel_set: HashSet<_> = kernel.vertices.iter().copied().collect();
                elaborate_kernel(circuit, &kernel_set, &cut)
                    .expect("kernel elaborates")
                    .netlist
                    .combinational_equivalent()
            }
            Unit::Gate(netlist) => netlist.combinational_equivalent(),
        });
        let universe = tr.span("faultsim.fault.universe", |_| {
            FaultUniverse::collapsed(&comb)
        });
        tr.add("faultsim.fault.universe_faults", universe.len() as f64);
        let program = tr.span("netlist.compiled.compile", |_| {
            EvalProgram::compile(&comb).expect("kernel equivalents are acyclic")
        });
        tr.add(
            "netlist.compiled.instructions",
            program.instr_count() as f64,
        );
        let (unobservable, untestable, to_sim) = tr.span("faultsim.fault.analyze", |_| {
            let (observable, unobservable) = universe.split_by_observability(&program);
            let sfa = StaticFaultAnalysis::new(&program);
            let (to_sim, untestable) = sfa.partition(&program, &observable);
            (unobservable, untestable, to_sim)
        });
        tr.add("faultsim.fault.unobservable", unobservable.len() as f64);
        tr.add("faultsim.fault.untestable_static", untestable.len() as f64);

        let kernel_seed = match unit {
            Unit::Rtl { kernel, .. } => opts.seed ^ kernel.input_edges.len() as u64,
            Unit::Gate(_) => opts.seed,
        };
        let simulator = || {
            ParFaultSimulator::with_program(&comb, program.clone(), to_sim.clone(), opts.jobs)
                .with_lanes(opts.lanes)
        };
        let (report, source_run, source_kind, clocks): (
            FaultSimReport,
            Option<SourceRun>,
            String,
            u64,
        ) = match stream {
            Stream::Legacy => {
                let report = tr.span("faultsim.par.sim", |_| {
                    let mut rng = StdRng::seed_from_u64(kernel_seed);
                    simulator().run_random_with_plateau(&mut rng, opts.max_patterns, opts.plateau)
                });
                (report, None, "legacy".to_string(), 0)
            }
            Stream::Random | Stream::MinTpg => {
                let mut source: Box<dyn PatternSource> = tr.span("source.build", |_| {
                    if stream == Stream::Random {
                        // What `build_source` returns for `SourceSpec::Random`.
                        return Box::new(RandomWords::seeded(kernel_seed))
                            as Box<dyn PatternSource>;
                    }
                    let Unit::Rtl {
                        circuit,
                        design,
                        kernel,
                    } = unit
                    else {
                        unreachable!("the paper's TPG is built from an RTL kernel")
                    };
                    build_source(
                        &SourceSpec::MinTpg,
                        kernel_seed,
                        comb.input_width(),
                        circuit,
                        design,
                        kernel,
                    )
                    .expect("pattern source builds")
                });
                let report = tr.span("faultsim.par.sim", |tr| {
                    let mut timed = TimedSource::new(&mut *source);
                    let report = simulator().run_source_with(
                        &mut timed,
                        opts.max_patterns,
                        opts.plateau,
                        1.0,
                    );
                    tr.child_time("source.pull", timed.pull);
                    tr.add("source.blocks", timed.blocks as f64);
                    report
                });
                let kind = source.descriptor().kind().to_string();
                tr.add("source.clocks", source.clocks_consumed() as f64);
                tr.add(
                    "source.fallbacks",
                    f64::from(stream == Stream::MinTpg && kind != "mintpg"),
                );
                // The product reports a source record for every stream
                // but the uniform one, whose JSON stays legacy.
                let run = (stream != Stream::Random).then(|| SourceRun {
                    descriptor_json: source.descriptor().to_json(),
                    clocks: source.clocks_consumed(),
                    emitted: source.patterns_emitted(),
                });
                (report, run, kind, source.clocks_consumed())
            }
        };
        let sim = report.stats();
        tr.add("faultsim.par.gate_evals", sim.gate_evals as f64);
        tr.add("faultsim.par.fault_evals", sim.fault_evals as f64);
        tr.add("faultsim.par.blocks", sim.blocks as f64);
        tr.add("faultsim.par.patterns", report.patterns_applied() as f64);
        tr.add("faultsim.par.faults_dropped", sim.faults_dropped as f64);

        let detection = report.detection();
        let survivors: Vec<Fault> = to_sim
            .iter()
            .zip(detection)
            .filter(|(_, d)| d.is_none())
            .map(|(&f, _)| f)
            .collect();
        let (class, backtracks) = tr.span("faultsim.atpg", |_| {
            let mut atpg = Atpg::new(&comb);
            let class = atpg.classify(&survivors, opts.backtrack_limit);
            (class, atpg.backtracks_total())
        });
        tr.add("faultsim.atpg.faults", survivors.len() as f64);
        tr.add("faultsim.atpg.backtracks", backtracks as f64);
        tr.add("faultsim.atpg.tests", class.detectable.len() as f64);
        tr.add("faultsim.atpg.redundant", class.redundant.len() as f64);
        tr.add("faultsim.atpg.aborted", class.aborted.len() as f64);

        let mut detection_indices: Vec<u64> = detection.iter().flatten().copied().collect();
        detection_indices.sort_unstable();
        let mut sim = sim.clone();
        sim.universe_faults = universe.len() as u64;
        sim.simulated_faults = to_sim.len() as u64;
        sim.untestable_static = untestable.len() as u64;
        Graded {
            stats: KernelFaultStats {
                faults: universe.len(),
                redundant: unobservable.len() + untestable.len() + class.redundant.len(),
                aborted: class.aborted.len(),
                unreached: class.detectable.len(),
                detected: detection_indices.len(),
                detection_indices,
                sim,
                source: source_run,
                opt: None,
            },
            patterns: report.patterns_applied(),
            source_kind,
            clocks,
        }
    })
}
