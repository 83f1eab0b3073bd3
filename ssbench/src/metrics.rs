//! The published metrics and workloads, read from the `BENCHMARK.json`
//! compiled into the binary: names, units, which direction is better, and
//! for end-to-end metrics the share of the parent's median by which one
//! may worsen. The driver reads the same file, so the two cannot disagree.

use std::sync::OnceLock;

use supersim::config::{self, Value};

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// 0 for a per-layer metric, which has no bound.
    pub bound: f64,
}

pub struct Published {
    pub end_to_end: Vec<Metric>,
    /// `<crate>.<what>`. The README says which end-to-end metric each
    /// should move and on which workload.
    pub per_layer: Vec<Metric>,
    /// Name and reason of each workload.
    pub workloads: Vec<(String, String)>,
}

impl Published {
    pub fn why(&self, workload: &str) -> &str {
        self.workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map_or("", |(_, why)| why)
    }
}

pub fn published() -> &'static Published {
    static PUBLISHED: OnceLock<Published> = OnceLock::new();
    PUBLISHED.get_or_init(|| {
        let doc = config::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let rows = |key: &str| doc.req_array(key).expect(key).to_vec();
        let text = |row: &Value, key: &str| row.req_str(key).expect(key).to_string();
        let metrics = |key: &str| -> Vec<Metric> {
            rows(key)
                .iter()
                .map(|row| Metric {
                    name: text(row, "name"),
                    unit: text(row, "unit"),
                    better: text(row, "better"),
                    bound: row.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Published {
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            workloads: rows("workloads")
                .iter()
                .map(|row| (text(row, "name"), text(row, "why")))
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_fits_the_contract_and_names_the_workloads() {
        let legal_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let legal_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let p = published();
        let mut names: Vec<&str> = Vec::new();
        for m in p.end_to_end.iter().chain(&p.per_layer) {
            assert!(legal_name(&m.name) && legal_unit(&m.unit), "{}", m.name);
            assert!(
                matches!(m.better.as_str(), "higher" | "lower"),
                "{}",
                m.name
            );
            names.push(&m.name);
        }
        for m in &p.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = p.end_to_end.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(p.end_to_end.iter().all(|m| m.bound <= setup.bound));

        let listed = &crate::workloads::WORKLOADS;
        assert_eq!(p.workloads.len(), listed.len());
        for (w, (name, why)) in listed.iter().zip(&p.workloads) {
            assert_eq!(w.name, name);
            assert!(legal_name(name) && why.len() <= 200 && !why.contains('\n'));
            names.push(name);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }
}
