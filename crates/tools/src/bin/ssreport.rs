//! The `ssreport` command-line tool: render a metrics snapshot JSON file
//! (as emitted by `supersim --metrics`) for reading or plotting.
//!
//! ```text
//! ssreport <snapshot.json>                  # per-component text report
//! ssreport <snapshot.json> --csv            # scalar metrics as CSV
//! ssreport <snapshot.json> --hist <component> <metric>
//!                                           # one histogram as
//!                                           # bin_start,count CSV
//! ssreport <snapshot.json> --hist-ascii <component> <metric>
//!                                           # one histogram as ASCII bars
//! ssreport <snapshot.json> --list-hist      # histogram metric names
//! ssreport <snapshot.json> --shards         # per-shard engine breakdown
//!                                           # with aggregate totals
//! ssreport <snapshot.json> --faults         # fault-plane lifecycle
//!                                           # summary + degraded flag
//! ssreport <snapshot.json> --host-profile   # host-time profiling plane:
//!                                           # wall-clock phase attribution,
//!                                           # shard imbalance, wire bytes,
//!                                           # flits per router cycle
//! ssreport <snapshot.json> --checkpoint     # checkpoint write costs from
//!                                           # the host plane (count, bytes,
//!                                           # wall time per write)
//! ssreport --checkpoint <file.ssckpt>       # checkpoint header: version,
//!                                           # tick, round, shard layout,
//!                                           # CRC status
//! ```

use std::process::ExitCode;

use supersim_stats::MetricsSnapshot;

/// Prints the header and layout of a checkpoint file. Corruption is
/// reported, not refused: a damaged file still gets its header printed
/// with `crc: MISMATCH`, so an operator can see what was lost.
fn checkpoint_report(path: &str) -> ExitCode {
    let info = match supersim_core::checkpoint::inspect_file(std::path::Path::new(path)) {
        Ok(info) => info,
        Err(e) => {
            eprintln!("ssreport: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let h = &info.header;
    println!("checkpoint {path}");
    println!("  version:   {}", h.version);
    println!("  seed:      {}", h.seed);
    println!("  tick:      {}", h.tick);
    println!("  round:     {}", h.round);
    println!(
        "  network:   {} terminals, {} routers",
        h.terminals, h.routers
    );
    println!("  shards:    {}", h.num_shards);
    for (s, bytes) in info.shard_bytes.iter().enumerate() {
        println!("    shard {s}: {bytes} bytes");
    }
    match info.trace_bytes {
        Some(bytes) => println!("  trace:     {bytes} bytes"),
        None => println!("  trace:     absent"),
    }
    println!("  file:      {} bytes", info.file_bytes);
    println!(
        "  crc:       {}",
        if info.crc_ok { "ok" } else { "MISMATCH" }
    );
    if info.crc_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = args.as_slice() {
        if flag == "--checkpoint" {
            return checkpoint_report(path);
        }
    }
    let Some((path, rest)) = args.split_first() else {
        eprintln!(
            "usage: ssreport <snapshot.json> [--csv | --shards | --faults | --host-profile | --checkpoint | --list-hist | --hist <component> <metric>]\n       ssreport --checkpoint <file.ssckpt>"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("ssreport: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snap = match MetricsSnapshot::from_json(&text) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("ssreport: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match rest {
        [] => print!("{}", supersim_tools::report_text(&snap)),
        [flag] if flag == "--csv" => print!("{}", supersim_tools::counters_csv(&snap)),
        [flag] if flag == "--shards" => match supersim_tools::shard_report(&snap) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("ssreport: snapshot has no engine_shard planes");
                return ExitCode::FAILURE;
            }
        },
        [flag] if flag == "--faults" => match supersim_tools::fault_report(&snap) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("ssreport: snapshot has no fault plane (run with fault.enabled)");
                return ExitCode::FAILURE;
            }
        },
        [flag] if flag == "--host-profile" => match supersim_tools::host_profile_report(&snap) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("ssreport: snapshot has no host plane (run with --host-profile)");
                return ExitCode::FAILURE;
            }
        },
        [flag] if flag == "--checkpoint" => match supersim_tools::checkpoint_host_report(&snap) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!(
                    "ssreport: snapshot has no host-plane checkpoint writes \
                     (run with --host-profile and a checkpoint interval)"
                );
                return ExitCode::FAILURE;
            }
        },
        [flag] if flag == "--list-hist" => {
            for (component, name) in supersim_tools::histogram_names(&snap) {
                println!("{component} {name}");
            }
        }
        [flag, component, metric] if flag == "--hist" => {
            match supersim_tools::histogram_report(&snap, component, metric) {
                Some(csv) => print!("{csv}"),
                None => {
                    eprintln!("ssreport: no histogram metric {component}/{metric}");
                    return ExitCode::FAILURE;
                }
            }
        }
        [flag, component, metric] if flag == "--hist-ascii" => {
            match supersim_tools::histogram_ascii_report(&snap, component, metric, 48) {
                Some(text) => print!("{text}"),
                None => {
                    eprintln!("ssreport: no histogram metric {component}/{metric}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            eprintln!(
                "usage: ssreport <snapshot.json> [--csv | --shards | --faults | \
                 --host-profile | --checkpoint | --list-hist | --hist <component> <metric> | \
                 --hist-ascii <component> <metric>]"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
