//! End-to-end and per-layer benchmark of the BIBS fault-grading pipeline.
//!
//! ```text
//! perfbench --workload <table2-paper|wide-arith|kchain-mintpg> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|smoke] [--record-golden]
//! ```
//!
//! A run first grades one pass at the product's default seed and checks it
//! against the golden records (workloads whose results depend on the
//! seed), then repeats passes at seeds derived from `--seed` until
//! `--seconds` have passed. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics. End-to-end times are in reference
//! seconds, scaled by a host-speed probe (see `host`). The last line of
//! standard output is the result object; the lines before it give every
//! metric with its unit and sample count, and the run metadata. See
//! NOTES.md.

mod check;
mod host;
mod pass;
mod trace;
mod workload;

use host::HostRef;
use pass::{mix, run_pass, PassOut, LAYER_METRICS};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Size, Spec, Workload, JOBS};

/// A run repeats passes at least this often, whatever `--seconds` says,
/// so medians over passes have a middle.
const MIN_PASSES: usize = 3;
/// `kernel_ms_p90` needs at least this many kernel samples.
const MIN_KERNEL_SAMPLES: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    record_golden: bool,
}

const USAGE: &str = "usage: perfbench --workload <table2-paper|wide-arith|kchain-mintpg> \
--seed <n> --seconds <s> --trace <0|1> [--size full|smoke] [--record-golden]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut record_golden = false;
    while let Some(flag) = args.next() {
        if flag == "--record-golden" {
            record_golden = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        size,
        record_golden,
    })
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of unsorted samples (0 for none).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    std::fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_once(' '))
                .map(|(hash, _)| hash.to_string())
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// FNV-1a over the repository's Rust sources and manifests, so results
/// from checkouts without git history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "compat", "src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.bytes().chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A metric: name, value, unit and sample count.
type Metric = (&'static str, f64, &'static str, usize);

/// The end-to-end metrics of `passes`, which started at `starts`, with
/// every time multiplied by `scale(start, raw seconds)`; `peak_mb` is the
/// peak resident memory.
fn end_to_end(
    passes: &[PassOut],
    starts: &[Instant],
    scale: impl Fn(Instant, f64) -> f64,
    peak_mb: f64,
) -> Vec<Metric> {
    let kernel_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.samples)
        .map(|s| s.secs * scale(s.at, s.secs) * 1e3)
        .collect();
    let grading_s: f64 = kernel_ms.iter().sum::<f64>() / 1e3;
    let sum = |f: fn(&pass::Sample) -> u64| -> f64 {
        passes.iter().flat_map(|p| &p.samples).map(f).sum::<u64>() as f64
    };
    let timed = |f: fn(&PassOut) -> f64| -> Vec<f64> {
        passes
            .iter()
            .zip(starts)
            .map(|(p, &at)| f(p) * scale(at, f(p)))
            .collect()
    };
    let rate = |count: f64| {
        if grading_s > 0.0 {
            count / grading_s
        } else {
            0.0
        }
    };
    let n = kernel_ms.len();
    vec![
        ("setup_s", median(&timed(|p| p.setup_s)), "s", passes.len()),
        ("wall_s", median(&timed(|p| p.wall_s)), "s", passes.len()),
        ("kernel_ms_p50", quantile(&kernel_ms, 0.5), "ms", n),
        ("kernel_ms_p90", quantile(&kernel_ms, 0.9), "ms", n),
        ("faults_per_s", rate(sum(|s| s.faults)), "1/s", n),
        ("patterns_per_s", rate(sum(|s| s.patterns)), "1/s", n),
        ("peak_rss_mb", peak_mb, "MB", 1),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.size);
    let golden = check::golden(args.workload, args.size);
    let mut host = HostRef::new();

    if args.record_golden {
        let out = run_pass(&spec, check::GOLDEN_SEED, false, true, None, &mut host);
        if out.failed > 0 {
            eprintln!(
                "perfbench: not recording, the pass failed:\n{}",
                out.problems.join("\n")
            );
            return ExitCode::FAILURE;
        }
        let mut text = format!(
            "# Golden outputs of {} ({} size) at seed {:#x}; regenerate with --record-golden.\n",
            args.workload.name(),
            args.size.name(),
            check::GOLDEN_SEED
        );
        for line in out.lines.values() {
            text.push_str(line);
            text.push('\n');
        }
        let path = check::golden_path(args.workload, args.size);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }

    let run_started = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut splits_shown = false;
    let mut report = |out: &PassOut, what: &str| {
        attempted += out.attempted;
        failed += out.failed;
        for p in &out.problems {
            eprintln!("perfbench: {what}: {p}");
        }
        // The per-kernel split of the first traced pass.
        if !splits_shown && !out.kernel_layers.is_empty() {
            splits_shown = true;
            for (label, layers) in &out.kernel_layers {
                let fields: Vec<String> = layers
                    .iter()
                    .filter(|(_, v)| **v != 0.0)
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                eprintln!("perfbench: {what} split {label}: {}", fields.join(" "));
            }
        }
    };
    // `peak_rss_mb` is the peak after the process's first pass, which does
    // what one user run does. Later passes only add allocator growth,
    // which makes the lifetime peak depend on the run length (NOTES.md).
    let mut first_peak_mb = None;
    if !spec.seed_independent() {
        let check_pass = run_pass(
            &spec,
            check::GOLDEN_SEED,
            args.trace,
            true,
            Some(&golden),
            &mut host,
        );
        report(&check_pass, "golden pass");
        first_peak_mb = Some(peak_rss_mb());
    }
    let window = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    let mut starts: Vec<Instant> = Vec::new();
    let mut samples = 0usize;
    while measuring.elapsed() < window
        || passes.len() < MIN_PASSES
        || (!args.trace && samples < MIN_KERNEL_SAMPLES)
    {
        host.probe();
        starts.push(Instant::now());
        let out = run_pass(
            &spec,
            mix(args.seed, passes.len() as u64),
            args.trace,
            spec.seed_independent(),
            Some(&golden),
            &mut host,
        );
        first_peak_mb.get_or_insert_with(peak_rss_mb);
        report(&out, &format!("pass {}", passes.len()));
        eprintln!(
            "perfbench: pass {} setup {:.4} s, wall {:.4} s, {} kernels",
            passes.len(),
            out.setup_s,
            out.wall_s,
            out.samples.len()
        );
        samples += out.samples.len();
        passes.push(out);
    }
    host.probe();

    let mut metrics: Vec<Metric> = Vec::new();
    let mut raw: Vec<Metric> = Vec::new();
    if args.trace {
        for &(name, unit, _) in LAYER_METRICS {
            let per_pass: Vec<f64> = passes.iter().map(|p| p.layers[name]).collect();
            metrics.push((name, median(&per_pass), unit, per_pass.len()));
        }
    } else {
        let peak_mb = first_peak_mb.unwrap_or_else(peak_rss_mb);
        metrics = end_to_end(&passes, &starts, |at, secs| host.scale(at, secs), peak_mb);
        raw = end_to_end(&passes, &starts, |_, _| 1.0, peak_mb);
    }
    let failed_frac = if attempted > 0 {
        failed as f64 / attempted as f64
    } else {
        1.0
    };

    for &(name, value, unit, n) in &metrics {
        println!("metric {name} = {value} {unit} (n={n})");
    }
    // The same metrics in raw host seconds, unscaled by the probe.
    for &(name, value, unit, n) in &raw {
        println!("raw {name} = {value} {unit} (n={n})");
    }
    println!("metric failed_frac = {failed_frac} frac (n={attempted})");
    println!(
        "{{\"meta\":{{\"workload\":{},\"size\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"jobs\":{JOBS},\"sizes\":{},\"passes\":{},\"kernel_samples\":{},\
         \"run_s\":{},\"probes\":{},\"probe_us\":{},\"nominal_probe_us\":{},\
         \"commit\":{},\"source_digest\":{},\"rustc\":{}}}}}",
        json_str(args.workload.name()),
        json_str(args.size.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        spec.sizes_json(),
        passes.len(),
        samples,
        run_started.elapsed().as_secs_f64(),
        host.count(),
        host.median_s() * 1e6,
        host::NOMINAL_S * 1e6,
        json_str(&commit()),
        json_str(&source_digest()),
        json_str(env!("PERFBENCH_RUSTC")),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit, _)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(",")
    );
    ExitCode::SUCCESS
}
