//! The `supersim` command-line simulator (paper Listing 1):
//!
//! ```text
//! supersim myconfig.json \
//!     network.router.architecture=string=my_arch \
//!     network.concentration=uint=16
//! ```
//!
//! Loads a JSON configuration — expanding `$include` files and `$ref`
//! object references (paper §III-C) — applies `path=type=value` overrides
//! in order, runs the simulation, prints an SSParse-style summary, and
//! writes the requested output files.
//!
//! Three ways in: a configuration file; `--scenario <name|file>`, which
//! compiles a library scenario (like `incast_storm`) or a declaration file
//! into a full configuration; or a declaration file given as the plain
//! argument, detected by its top-level `"scenario"` name. Every file under
//! `configs/` — plain or declarative — runs with the same command line.
//! Expand a declaration without running it via the `ssgen` tool.
//!
//! **Configuration flags are overrides.** Each flag in the `SHORTHANDS`
//! table below stands for the `path=type=value` overrides its row lists
//! (`supersim --help` prints them all): `--workers 2` is
//! `engine.kind=string=sharded engine.transport=string=process
//! engine.shards=uint=2`, `--faults 0.002` is `fault.enabled=bool=true
//! fault.bit_error_rate=float=0.002`. The expansions are applied after the
//! positional overrides, in command-line order, so a flag outranks the
//! configuration file, the positional overrides and the `SUPERSIM_ENGINE`
//! / `SUPERSIM_SHARDS` environment defaults. The configuration layer is
//! the one parser and the builder the one validator of every value; a bad
//! value fails as `--flag: <override error>` or with the builder's
//! message, exit code 1. What the command line checks itself is what the
//! configuration cannot say: a zero interval (0 means "off" in a file),
//! `--workers` together with `--engine` or `--shards`, and the three ways
//! in.
//!
//! **Output files come from the `OUTPUTS` table.** The sample log is
//! written next to the configuration as `<config>.log` unless `--log
//! <file>` moves it or `--no-log` drops it, and the time series as
//! `<config>.timeseries` whenever sampling is on; `--metrics`, `--trace`,
//! `--span-log` and `--host-trace` write only when asked. An output whose
//! plane the final configuration leaves off is refused before the run.
//! The sample log, flit trace, time series and span log are
//! byte-identical across engines and shard counts for one
//! `(configuration, seed)`, and so is the metrics snapshot minus its
//! `engine_shard_*` and host planes.

use std::borrow::Cow;
use std::fmt::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use supersim::config::{self, Value};
use supersim::core::{RunOutput, SimError, SuperSim};
use supersim::scenario;
use supersim::stats::Filter;
use supersim::tools;

/// A configuration flag and the overrides it stands for: space-separated
/// `path=type=value` texts, `{}` standing for the flag's value.
struct Shorthand {
    flag: &'static str,
    /// The value's name in `--help`; `None` for a switch. A flag ending in
    /// `=` takes its value inline (`--progress=500`).
    value: Option<&'static str>,
    overrides: &'static str,
    /// Refuse a zero value: in a configuration file 0 turns the plane off,
    /// so the builder accepts it, but a flag naming an interval means one.
    non_zero: bool,
    /// A command-line spelling of a value: `(alias, value)`.
    alias: Option<(&'static str, &'static str)>,
}

/// The columns most rows leave empty.
const FLAG: Shorthand = Shorthand {
    flag: "",
    value: None,
    overrides: "",
    non_zero: false,
    alias: None,
};

#[rustfmt::skip]
const SHORTHANDS: &[Shorthand] = &[
    // The execution backend; results are byte-identical across engines.
    Shorthand { flag: "--engine", value: Some("sequential|sharded"), alias: Some(("seq", "sequential")),
                overrides: "engine.kind=string={}", ..FLAG },
    Shorthand { flag: "--shards", value: Some("n"),
                overrides: "engine.shards=uint={}", ..FLAG },
    // One OS process per shard: the parent re-executes this binary in the
    // hidden `__worker` role and merges the workers' outputs.
    Shorthand { flag: "--workers", value: Some("n"),
                overrides: "engine.kind=string=sharded engine.transport=string=process \
                            engine.shards=uint={}", ..FLAG },
    Shorthand { flag: "--faults", value: Some("bit-error-rate"),
                overrides: "fault.enabled=bool=true fault.bit_error_rate=float={}", ..FLAG },
    Shorthand { flag: "--watchdog-ticks", value: Some("n"),
                overrides: "watchdog.ticks=uint={}", ..FLAG },
    // The windowed time series and per-packet latency attribution.
    Shorthand { flag: "--sample-interval", value: Some("n"), non_zero: true,
                overrides: "sample.interval=uint={}", ..FLAG },
    Shorthand { flag: "--spans",
                overrides: "spans.enabled=bool=true", ..FLAG },
    // Checkpoint every n ticks; `--resume` restores one and continues the
    // run to the uninterrupted run's bytes.
    Shorthand { flag: "--checkpoint-interval", value: Some("n"), non_zero: true,
                overrides: "checkpoint.interval=uint={}", ..FLAG },
    Shorthand { flag: "--checkpoint-dir", value: Some("dir"),
                overrides: "checkpoint.dir=string={}", ..FLAG },
    Shorthand { flag: "--resume", value: Some("checkpoint"),
                overrides: "checkpoint.resume=string={}", ..FLAG },
    Shorthand { flag: "--worker-timeout-ms", value: Some("ms"), non_zero: true,
                overrides: "process.timeout_ms=uint={}", ..FLAG },
    // Host time, strictly out-of-band: the wall-clock profiler, its Chrome
    // trace (the file is an `OUTPUTS` row) and the stderr heartbeat.
    Shorthand { flag: "--host-profile",
                overrides: "host.profile.enabled=bool=true", ..FLAG },
    Shorthand { flag: "--host-trace", value: Some("file"),
                overrides: "host.profile.enabled=bool=true host.trace.enabled=bool=true", ..FLAG },
    Shorthand { flag: "--progress",
                overrides: "progress.interval_ms=uint=1000", ..FLAG },
    Shorthand { flag: "--progress=", value: Some("ms"), non_zero: true,
                overrides: "progress.interval_ms=uint={}", ..FLAG },
];

/// An output file of the run.
struct Output {
    flag: &'static str,
    /// What the file holds, for messages.
    what: &'static str,
    /// The switch that drops a default output.
    off: Option<&'static str>,
    /// Without the flag, the file is written next to the configuration
    /// with this extension whenever the run collected it.
    default_ext: Option<&'static str>,
    /// The setting the final configuration must turn on for the run to
    /// collect this output, and how to turn it on; checked before the run.
    needs: Option<(&'static str, &'static str)>,
    text: fn(&RunOutput) -> Option<Cow<'_, str>>,
}

/// The columns most rows leave empty.
const FILE: Output = Output {
    flag: "",
    what: "",
    off: None,
    default_ext: None,
    needs: None,
    text: |_| None,
};

#[rustfmt::skip]
const OUTPUTS: &[Output] = &[
    Output { flag: "--log", what: "sample log", off: Some("--no-log"), default_ext: Some("log"),
             text: |o| Some(o.log.to_text().into()), ..FILE },
    Output { flag: "--metrics", what: "metrics snapshot",
             text: |o| Some(o.metrics.to_json().into()), ..FILE },
    Output { flag: "--trace", what: "flit trace",
             needs: Some(("observability.trace.enabled", "observability.trace.enabled=bool=true")),
             text: |o| o.trace.as_deref().map(Cow::from), ..FILE },
    Output { flag: "--timeseries", what: "time series", default_ext: Some("timeseries"),
             needs: Some(("sample.interval", "--sample-interval <n> or sample.interval")),
             text: |o| o.timeseries.as_deref().map(Cow::from), ..FILE },
    Output { flag: "--host-trace", what: "host trace",
             text: |o| o.host_trace.as_deref().map(Cow::from), ..FILE },
    Output { flag: "--span-log", what: "span log",
             needs: Some(("spans.enabled", "--spans or spans.enabled")),
             text: |o| o.spans.as_deref().map(Cow::from), ..FILE },
];

/// Where one `OUTPUTS` row goes.
#[derive(Debug, Default, PartialEq)]
enum Dest {
    /// Next to the configuration, if the row has a default extension.
    #[default]
    Default,
    File(PathBuf),
    /// Dropped by the row's `off` switch, whatever else the line says.
    Off,
}

#[derive(Default)]
struct Args {
    config_path: Option<PathBuf>,
    scenario: Option<String>,
    /// Positional `path=type=value` overrides.
    overrides: Vec<String>,
    /// `(flag, override)` expansions of the configuration flags, applied
    /// after `overrides`.
    flags: Vec<(&'static str, String)>,
    /// One destination per `OUTPUTS` row.
    outputs: [Dest; OUTPUTS.len()],
}

/// The pinned exit code of a degraded run; documented in the README.
/// 0 = clean, 1 = usage/configuration/build/output-io error, 2 = the
/// simulation degraded (deadlock, lost traffic, model error), 3 = the
/// no-progress watchdog tripped, 4 = a worker process failed, 5 = a
/// checkpoint resume failed.
fn exit_code(error: &SimError) -> u8 {
    match error {
        SimError::Model(_) | SimError::Stalled { .. } | SimError::Incomplete { .. } => 2,
        SimError::Watchdog { .. } => 3,
        SimError::Worker { .. } => 4,
        SimError::Resume { .. } => 5,
    }
}

/// The `--help` text, generated from the two tables.
fn usage() -> String {
    let mut s = String::from(
        "usage: supersim <config.json | --scenario <name|file>> [path=type=value ...] [flags]\n\
         \noutputs:\n",
    );
    for o in OUTPUTS {
        let off = o.off.map_or(String::new(), |off| format!(" | {off}"));
        let ext = o
            .default_ext
            .map_or(String::new(), |e| format!(" (default <config>.{e})"));
        let flag = format!("{} <file>{off}", o.flag);
        writeln!(s, "  {flag:<30} {}{ext}", o.what).expect("write to String");
    }
    s.push_str("\nconfiguration flags, each the overrides shown, after the positional ones:\n");
    for f in SHORTHANDS {
        let value = f.value.map_or(String::new(), |v| format!("<{v}>"));
        let flag = format!("{} {value}", f.flag).replacen("= ", "=", 1);
        let overrides = f.overrides.replace("{}", &value);
        writeln!(s, "  {:<30} {overrides}", flag.trim_end()).expect("write to String");
    }
    s
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        // `--flag=value` names the inline row `--flag=`.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (&arg[..=f.len()], Some(v)),
            _ => (arg.as_str(), None),
        };
        let shorthand = SHORTHANDS.iter().find(|s| s.flag == flag);
        let output = OUTPUTS.iter().position(|o| o.flag == flag);
        if shorthand.is_some() || output.is_some() {
            let takes = output.is_some() || shorthand.is_some_and(|s| s.value.is_some());
            let value = match inline {
                Some(v) => v.to_string(),
                None if takes => it.next().ok_or(format!("{flag} needs a value"))?,
                None => String::new(),
            };
            if let Some(s) = shorthand {
                let v = match s.alias {
                    Some((alias, to)) if alias == value => to,
                    _ => &value,
                };
                if s.non_zero && v.parse::<u64>() == Ok(0) {
                    return Err(format!("{} must be non-zero", flag.trim_end_matches('=')));
                }
                let texts = s.overrides.split(' ').map(|o| (s.flag, o.replace("{}", v)));
                args.flags.extend(texts);
            }
            if let Some(i) = output.filter(|&i| args.outputs[i] != Dest::Off) {
                args.outputs[i] = Dest::File(PathBuf::from(value));
            }
            continue;
        }
        if let Some(i) = OUTPUTS.iter().position(|o| o.off == Some(flag)) {
            args.outputs[i] = Dest::Off;
            continue;
        }
        match arg.as_str() {
            "--scenario" => {
                let s = it
                    .next()
                    .ok_or("--scenario needs a name or declaration file")?;
                args.scenario = Some(s);
            }
            "--help" | "-h" => return Err(usage()),
            a if a.contains('=') => args.overrides.push(arg),
            a if args.config_path.is_none() => args.config_path = Some(PathBuf::from(a)),
            a => return Err(format!("unexpected argument {a:?}")),
        }
    }
    if args.config_path.is_none() && args.scenario.is_none() {
        return Err("missing configuration file (or --scenario <name|file>)".to_string());
    }
    if args.config_path.is_some() && args.scenario.is_some() {
        return Err("give either a configuration file or --scenario, not both".to_string());
    }
    let given = |flag: &str| args.flags.iter().any(|(f, _)| *f == flag);
    if given("--workers") && (given("--engine") || given("--shards")) {
        return Err("--workers already implies --engine sharded and --shards; \
                    give one or the other"
            .to_string());
    }
    Ok(args)
}

/// The configuration to run and the path the default outputs sit next
/// to, from whichever of the three ways in the command line took.
fn load(args: &Args) -> Result<(Value, PathBuf), String> {
    if let Some(arg) = &args.scenario {
        let c = scenario::resolve(arg).map_err(|e| e.to_string())?;
        eprintln!("supersim: scenario {} expanded", c.name);
        return Ok((c.config, PathBuf::from(format!("{}.json", c.name))));
    }
    let path = args.config_path.clone().expect("checked in parse_args");
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let loaded = config::expand_file(&path).map_err(|e| at(&e))?;
    if !scenario::is_declaration(&loaded) {
        return Ok((loaded, path));
    }
    let c = scenario::compile(&loaded).map_err(|e| at(&e))?;
    eprintln!("supersim: scenario {} expanded", c.name);
    Ok((c.config, path))
}

fn run(args: Args) -> Result<ExitCode, String> {
    let (mut cfg, base) = load(&args)?;
    config::apply_overrides(&mut cfg, &args.overrides).map_err(|e| e.to_string())?;
    // Flags outrank the file, the positional overrides and the environment.
    for (flag, text) in &args.flags {
        config::apply_override(&mut cfg, text)
            .map_err(|e| format!("{}: {e}", flag.trim_end_matches('=')))?;
    }
    let sim = SuperSim::from_config(&cfg).map_err(|e| e.to_string())?;
    // An output the final configuration never collects is refused before
    // the run, not after it. The build above has type-checked each key.
    for (o, dest) in OUTPUTS.iter().zip(&args.outputs) {
        let Some((key, how)) = o.needs.filter(|_| matches!(dest, Dest::File(_))) else {
            continue;
        };
        // On is `true` or a non-zero count.
        let on = cfg
            .path(key)
            .is_some_and(|v| v.as_bool().unwrap_or(v.as_u64() > Some(0)));
        if !on {
            return Err(format!("{} needs {how} in the configuration", o.flag));
        }
    }
    eprintln!(
        "supersim: {} — {} terminals, {} routers",
        sim.topology().name(),
        sim.topology().num_terminals(),
        sim.topology().num_routers()
    );
    let started = std::time::Instant::now();
    // A degraded run (deadlock, watchdog trip, model error) still flushes
    // every requested output below — marked degraded in the metrics — and
    // exits nonzero after printing the diagnostic snapshot.
    let report = sim.run_report();
    let out = &report.output;
    match &report.error {
        None => eprintln!(
            "supersim: drained at tick {} — {} events in {:.2?} ({:.2} M events/s)",
            out.engine.end_time.tick(),
            out.engine.events_executed,
            started.elapsed(),
            out.engine.events_per_second() / 1e6
        ),
        Some(e) => eprintln!(
            "supersim: DEGRADED after {} events in {:.2?}: {e}",
            out.engine.events_executed,
            started.elapsed(),
        ),
    }
    if let Some(diag) = &report.diagnostic {
        eprint!("supersim: {diag}");
    }
    for (phase, tick) in &out.phase_times {
        eprintln!("supersim: phase {phase} at tick {tick}");
    }

    print!("{}", tools::analyze(&out.log, &Filter::new()).to_table());

    for (o, dest) in OUTPUTS.iter().zip(args.outputs) {
        let (path, asked) = match (dest, o.default_ext) {
            (Dest::File(path), _) => (path, true),
            (Dest::Default, Some(ext)) => (base.with_extension(ext), false),
            _ => continue,
        };
        let text = match ((o.text)(out), asked) {
            (Some(text), _) => text,
            (None, false) => continue,
            // The plane was armed (checked before the run), so the run
            // never assembled this output.
            (None, true) => return Err(format!("no {} collected", o.what)),
        };
        std::fs::write(&path, text.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "supersim: wrote {} ({}, {} bytes)",
            path.display(),
            o.what,
            text.len()
        );
    }
    Ok(match &report.error {
        Some(e) => ExitCode::from(exit_code(e)),
        None => ExitCode::SUCCESS,
    })
}

fn main() -> ExitCode {
    // The hidden worker role of `--workers` runs: the parent re-executes
    // this binary as `supersim __worker <socket> <index>`. Dispatched
    // before normal argument parsing — the configuration arrives over
    // the socket, not argv.
    #[cfg(unix)]
    {
        let argv: Vec<String> = std::env::args().collect();
        if argv.get(1).is_some_and(|a| a == "__worker") {
            let (Some(socket), Some(index)) = (argv.get(2), argv.get(3)) else {
                eprintln!("usage: supersim __worker <socket> <index>");
                return ExitCode::FAILURE;
            };
            let Ok(index) = index.parse::<u32>() else {
                eprintln!("supersim __worker: index must be an integer, got {index:?}");
                return ExitCode::FAILURE;
            };
            return ExitCode::from(supersim::core::run_worker(socket, index) as u8);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Pinned exit codes, documented in the README: 0 clean, 1 usage /
    // configuration / output-io error, 2 degraded simulation, 3 watchdog
    // trip, 4 worker failure, 5 resume failure.
    run(args).unwrap_or_else(|msg| {
        eprintln!("supersim: {msg}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split(' ').map(String::from))
    }

    #[test]
    fn every_shorthand_expands_to_its_documented_overrides() {
        #[rustfmt::skip]
        let documented = [
            ("--engine seq", "engine.kind=string=sequential"),
            ("--engine sharded", "engine.kind=string=sharded"),
            ("--shards 4", "engine.shards=uint=4"),
            ("--workers 3",
             "engine.kind=string=sharded engine.transport=string=process engine.shards=uint=3"),
            ("--faults 0.002", "fault.enabled=bool=true fault.bit_error_rate=float=0.002"),
            ("--watchdog-ticks 5000", "watchdog.ticks=uint=5000"),
            ("--sample-interval 100", "sample.interval=uint=100"),
            ("--spans", "spans.enabled=bool=true"),
            ("--checkpoint-interval 200", "checkpoint.interval=uint=200"),
            ("--checkpoint-dir ck", "checkpoint.dir=string=ck"),
            ("--resume ck/a.ssckpt", "checkpoint.resume=string=ck/a.ssckpt"),
            ("--worker-timeout-ms 900", "process.timeout_ms=uint=900"),
            ("--host-profile", "host.profile.enabled=bool=true"),
            ("--host-trace h.json", "host.profile.enabled=bool=true host.trace.enabled=bool=true"),
            ("--progress", "progress.interval_ms=uint=1000"),
            ("--progress=250", "progress.interval_ms=uint=250"),
        ];
        let mut covered = Vec::new();
        for (line, want) in documented {
            let args = parse(&format!("c.json {line}")).unwrap();
            let got: Vec<&str> = args.flags.iter().map(|(_, o)| o.as_str()).collect();
            assert_eq!(got.join(" "), want, "{line}");
            covered.extend(args.flags.iter().map(|(flag, _)| *flag));
        }
        for row in SHORTHANDS {
            assert!(covered.contains(&row.flag), "{} is undocumented", row.flag);
        }
    }

    #[test]
    fn flags_follow_positional_overrides_in_command_line_order() {
        let args = parse("c.json --spans seed=uint=7 --shards 1").unwrap();
        assert_eq!(args.overrides, ["seed=uint=7"]);
        let flags: Vec<_> = args.flags.iter().map(|(f, _)| *f).collect();
        assert_eq!(flags, ["--spans", "--shards"]);
    }

    #[test]
    fn command_line_rules_the_configuration_cannot_state() {
        for line in [
            "c.json --sample-interval 0",
            "c.json --checkpoint-interval 0",
            "c.json --worker-timeout-ms 0",
            "c.json --progress=0",
            "c.json --workers 2 --shards 2",
            "c.json --workers 2 --engine sharded",
            "c.json --scenario incast_storm",
            "--no-log",
            "c.json --shards",
        ] {
            assert!(parse(line).is_err(), "{line} accepted");
        }
        // Values the builder checks pass the command line untouched.
        assert!(parse("c.json --shards 0 --faults 1.5").is_ok());
    }

    #[test]
    fn output_rows_take_paths_and_no_log_wins() {
        let row = |flag| OUTPUTS.iter().position(|o| o.flag == flag).unwrap();
        let args = parse("c.json --metrics m.json --no-log --log x").unwrap();
        assert_eq!(args.outputs[row("--log")], Dest::Off);
        assert_eq!(args.outputs[row("--metrics")], Dest::File("m.json".into()));
        // `--host-trace` is both an output and a configuration flag.
        let args = parse("c.json --host-trace h.json").unwrap();
        assert_eq!(
            args.outputs[row("--host-trace")],
            Dest::File("h.json".into())
        );
        assert_eq!(args.flags.len(), 2);
    }
}
