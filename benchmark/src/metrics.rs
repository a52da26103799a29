//! The metric registry: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json`, the README glossary and the result lines are
//! all checked against these two tables (see the tests in `manifest.rs`).

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees. `host` metrics are what the simulator
/// costs its user; `sim` metrics are what the modelled machine achieves and
/// repeat exactly for a fixed `--seed` and `--seconds`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub sim: bool,
}

/// Every bound is the widest the driver allows. The driver compares runs made
/// with different seeds on a shared two-core sandbox: identical work already
/// spreads by 5-8% there (quartile distance over median), and a different
/// seed is a different graph and different roots, which moves host times by
/// another 5-8% and the sim metrics by 7-18%. For one fixed seed the sim
/// metrics do not move at all; `--compare` checks that, to the bit.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sim: false,
    },
    EndToEnd {
        name: "host_total_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sim: false,
    },
    EndToEnd {
        name: "host_op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        sim: false,
    },
    EndToEnd {
        name: "sim_throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        sim: true,
    },
    EndToEnd {
        name: "sim_op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        sim: true,
    },
    EndToEnd {
        name: "sim_op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        sim: true,
    },
];

/// A metric of one layer, read in the traced pass. `exact` counts repeat bit
/// for bit for a fixed `--seed` and `--seconds`; the rest are host times or
/// depend on the host scheduler.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn count_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: true,
    }
}

const fn host_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // gen
    host("gen.generate_s", "s"),
    host_up("gen.medges_per_s", "1e6/s"),
    host("gen.edge_block_s", "s"),
    // graph
    host("graph.root_sample_s", "s"),
    host("graph.csr_build_s", "s"),
    // partition
    host("partition.relabel_s", "s"),
    host("partition.assemble_s", "s"),
    count("partition.assemble_bytes", "B"),
    count("partition.arc_imbalance", "ratio"),
    host("partition.gather_ms_p50", "ms"),
    // sssp::dist
    host("dist.root_ms_p50", "ms"),
    host("dist.root_ms_tail", "ms"),
    host("dist.us_per_superstep", "us"),
    host("dist.ns_per_relaxation", "ns"),
    count("dist.supersteps_per_root", "count"),
    count("dist.buckets_per_root", "count"),
    count("dist.relaxations_per_root", "count"),
    count("dist.updates_sent_per_root", "count"),
    count("dist.update_keep_ratio", "ratio"),
    // sssp::codec
    host("codec.encode_ns_per_update", "ns"),
    host("codec.tagged_encode_ns_per_update", "ns"),
    count("codec.bytes_per_update", "B"),
    // sssp::serve / sssp::multi
    host("serve.landmark_precompute_s", "s"),
    host("serve.window_ms_p50", "ms"),
    host("serve.window_ms_tail", "ms"),
    host("serve.host_ms_per_lane", "ms"),
    count("serve.supersteps_per_window", "count"),
    count("serve.relaxations_per_lane", "count"),
    count_up("serve.pruned_per_lane", "count"),
    count_up("serve.cache_hit_ratio", "ratio"),
    count_up("serve.early_exit_ratio", "ratio"),
    count("serve.shed", "count"),
    count("serve.retried", "count"),
    // sssp::dist2d
    host("dist2d.build_s", "s"),
    host("dist2d.root_ms_p50", "ms"),
    count("dist2d.relaxations_per_root", "count"),
    // simnet
    host("simnet.barrier_us", "us"),
    host("simnet.alltoallv_empty_us", "us"),
    host("simnet.machine_spawn_ms", "ms"),
    count("simnet.sim_construction_s", "s"),
    count("simnet.msgs_per_op", "count"),
    count("simnet.bytes_per_op", "B"),
    count("simnet.user_bytes_per_op", "B"),
    count("simnet.coll_bytes_per_op", "B"),
    count("simnet.collectives_per_op", "count"),
    count("simnet.barriers_per_op", "count"),
    count_up("simnet.sim_compute_share", "ratio"),
    count("simnet.sim_comm_share", "ratio"),
    count("simnet.sim_wait_share", "ratio"),
    count("simnet.retransmits", "count"),
    count("simnet.timeouts", "count"),
    count("simnet.retransmit_ratio", "ratio"),
    count("simnet.crashes", "count"),
    count("simnet.checkpoints", "count"),
    count("simnet.checkpoint_bytes", "B"),
    count("simnet.restores", "count"),
    count("simnet.replayed_supersteps", "count"),
    count("simnet.replay_ratio", "ratio"),
    count("simnet.trace_events", "count"),
    // validate
    host("validate.root_ms_p50", "ms"),
    host_up("validate.medges_per_s", "1e6/s"),
    // rayon
    host("rayon.local_runs", "count"),
    host("rayon.steals", "count"),
    host("rayon.parks", "count"),
    host("rayon.steal_ratio", "ratio"),
    // baselines
    host("baselines.dijkstra_root_ms_p50", "ms"),
    host("dist.vs_dijkstra_ratio", "ratio"),
    // core and the trace itself
    host("core.peak_rss_mb", "MiB"),
    host("core.glue_s", "s"),
    host("trace.host_ratio", "ratio"),
    host_up("trace.span_coverage", "ratio"),
    count_up("trace.mirror_parity", "ratio"),
    // host
    host("host.calibration_spin_ms", "ms"),
];

/// Measured values by metric name. A per-layer metric nobody set reads 0:
/// that layer did no work on the workload.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the registry"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Names and units in emission order, for one pass.
pub fn names_and_units(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The `metrics` object of an untraced result line. Every end-to-end metric
/// must have been measured.
pub fn end_to_end_json(v: &Values) -> Json {
    Json::Obj(
        END_TO_END
            .iter()
            .map(|m| {
                let value = v
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                (m.name.to_string(), metric_obj(value, m.unit))
            })
            .collect(),
    )
}

/// The `metrics` object of a traced result line.
pub fn per_layer_json(v: &Values) -> Json {
    Json::Obj(
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    metric_obj(v.get(m.name).unwrap_or(0.0), m.unit),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_fits_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert_eq!(setup.better, Better::Lower);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s gets the largest bound");
        }
    }

    #[test]
    fn unset_layers_read_zero_and_ratios_do_not_divide_by_zero() {
        let mut v = Values::default();
        v.set("dist.root_ms_p50", 1.5);
        let text = per_layer_json(&v).to_string();
        assert!(text.contains("\"dist.root_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(text.contains("\"serve.shed\": {\"value\": 0, \"unit\": \"count\"}"));
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
