//! Test support shared by the workspace's integration tests.

use supersim_config::Value;
use supersim_des::{ComponentId, RunOutcome, Tick};

use crate::builder::build;
use crate::factory::Factories;

/// Checks every component's checkpoint state at the boundary `tick` of
/// the run `config` describes: the component is snapshotted, restored
/// into the same component of a freshly built simulation, and must
/// consume its snapshot exactly and snapshot again to the same bytes.
/// `Err` names the first component that does not, or says the run did
/// not reach `tick`.
pub fn check_component_round_trip(config: &Value, tick: Tick) -> Result<(), String> {
    let factories = Factories::with_defaults();
    let mut live = build(config, &factories).map_err(|e| e.to_string())?;
    let stats = live.engine.run_until(tick);
    if !matches!(stats.outcome, RunOutcome::TickLimit) {
        return Err(format!(
            "the run ended ({:?}) before tick {tick}",
            stats.outcome
        ));
    }
    let mut fresh = build(config, &factories).map_err(|e| e.to_string())?;
    for i in 0..live.engine.num_components() {
        let id = ComponentId::from_index(i);
        let component = live.engine.component(id).expect("every component is local");
        let mut saved = Vec::new();
        component.snapshot(&mut saved);
        let label = format!("{} ({id})", component.name());
        let rebuilt = fresh.engine.component_mut(id).expect("same layout");
        let mut rest = saved.as_slice();
        if rebuilt.restore(&mut rest).is_none() || !rest.is_empty() {
            return Err(format!(
                "{label}: its {}-byte snapshot does not restore",
                saved.len()
            ));
        }
        let mut again = Vec::new();
        rebuilt.snapshot(&mut again);
        if again != saved {
            return Err(format!(
                "{label}: {} snapshot bytes re-snapshot as {} different ones",
                saved.len(),
                again.len()
            ));
        }
    }
    Ok(())
}
