//! The JSON configurations shipped under `configs/` must stay buildable
//! and runnable (they are the quickstart path for CLI users). The sweep
//! test at the bottom enforces 100% coverage of the directory: every
//! shipped file — plain configuration or scenario declaration — either
//! runs end-to-end or is the deliberate deadlock case.

use supersim::config::{apply_override, expand_file, Value};
use supersim::core::SuperSim;
use supersim::scenario;

fn load(name: &str) -> Value {
    let path = format!("{}/configs/{name}", env!("CARGO_MANIFEST_DIR"));
    expand_file(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_shipped_config_runs() {
    for name in [
        "quickstart.json",
        "torus_3d_dor.json",
        "clos_adaptive.json",
        "dragonfly_ugal.json",
        "included_demo.json",
        // deadlock_2router.json is deliberately absent: it exists to trip
        // the watchdog (see fault_determinism.rs and the tier1-faults CI
        // job) and never completes cleanly.
        "fault_smoke.json",
        "latent_congestion.json",
    ] {
        let mut cfg = load(name);
        // Keep CI fast: shrink the sample counts, keep everything else.
        let blast = &cfg
            .req_str("workload.applications.0.name")
            .map(str::to_string);
        if blast.as_deref() == Ok("blast")
            && cfg
                .path("workload.applications.0.sample_messages")
                .is_some()
        {
            apply_override(&mut cfg, "workload.applications.0.sample_messages=uint=20")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        apply_override(&mut cfg, "workload.applications.0.warmup_ticks=uint=100")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = SuperSim::from_config(&cfg)
            .unwrap_or_else(|e| panic!("{name}: build: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{name}: run: {e}"));
        assert!(out.packets_delivered() > 0, "{name}: no samples");
        assert_eq!(
            out.counters.flits_sent, out.counters.flits_received,
            "{name}: flits lost"
        );
    }
}

#[test]
fn listing_1_overrides_apply_to_shipped_configs() {
    // The paper's Listing 1, verbatim mechanics.
    let mut cfg = load("quickstart.json");
    apply_override(&mut cfg, "network.topology.concentration=uint=2").expect("valid");
    apply_override(&mut cfg, "workload.applications.0.sample_messages=uint=10").expect("valid");
    let sim = SuperSim::from_config(&cfg).expect("build");
    assert_eq!(sim.topology().num_terminals(), 8); // 4 routers x 2
    let out = sim.run().expect("run");
    assert!(out.packets_delivered() >= 8 * 10);
}

#[test]
fn shipped_deadlock_config_trips_the_watchdog() {
    // The one shipped config that must NOT complete: total credit loss
    // wedges the 2-router network and the watchdog converts the hang into
    // a typed error plus diagnostic within its tick window.
    let cfg = load("deadlock_2router.json");
    let report = SuperSim::from_config(&cfg).expect("build").run_report();
    assert!(
        matches!(
            report.error,
            Some(supersim::core::SimError::Watchdog { .. })
        ),
        "expected watchdog trip, got {:?}",
        report.error
    );
    assert!(report.diagnostic.is_some(), "no diagnostic snapshot");
}

#[test]
fn config_sweep_covers_the_whole_directory() {
    // Enumerate configs/, configs/paper/ and configs/scenarios/ so a newly added file can
    // never be silently untested: each must run end-to-end through the
    // same load path the CLI uses (declarations are auto-compiled), or be
    // the deliberate deadlock case checked above.
    let root = format!("{}/configs", env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in [
        root.clone(),
        format!("{root}/paper"),
        format!("{root}/scenarios"),
    ] {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
            let path = entry.expect("dir entry").path();
            if path.is_file() && path.extension().and_then(|e| e.to_str()) == Some("json") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    assert!(
        paths.len() >= 17,
        "configs/ shrank to {} files",
        paths.len()
    );

    let mut swept = 0;
    for path in &paths {
        let name = path.file_name().unwrap().to_str().unwrap();
        if name == "deadlock_2router.json" {
            continue; // expected-fail case, pinned by its own test above
        }
        let mut cfg = expand_file(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if cfg.path("workload").is_none() && !scenario::is_declaration(&cfg) {
            // An $include fragment (e.g. base_network.json): it must parse
            // (just did) and actually be included by some sibling config.
            let stem = name;
            let included = paths.iter().any(|p| {
                p.file_name().unwrap() != stem
                    && std::fs::read_to_string(p)
                        .map(|t| t.contains(stem))
                        .unwrap_or(false)
            });
            assert!(included, "{name}: orphan fragment — nothing includes it");
            swept += 1;
            continue;
        }
        if scenario::is_declaration(&cfg) {
            cfg = scenario::compile(&cfg)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .config;
        }
        // Keep the sweep fast: shrink the first app's sample count where
        // the knob exists, exactly as the CLI override would.
        if cfg.req_str("workload.applications.0.name") == Ok("blast")
            && cfg
                .path("workload.applications.0.sample_messages")
                .is_some()
        {
            apply_override(&mut cfg, "workload.applications.0.sample_messages=uint=20")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // The paper's case studies warm up for many channel round trips
        // (2500 ticks on the 512-terminal Clos); running the file is what
        // this sweep checks, not its steady state.
        if path.parent().is_some_and(|dir| dir.ends_with("paper")) {
            apply_override(&mut cfg, "workload.applications.0.warmup_ticks=uint=200")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let out = SuperSim::from_config(&cfg)
            .unwrap_or_else(|e| panic!("{name}: build: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{name}: run: {e}"));
        assert!(out.packets_delivered() > 0, "{name}: no samples");
        swept += 1;
    }
    assert_eq!(
        swept,
        paths.len() - 1,
        "every file but the deadlock case runs"
    );
}
