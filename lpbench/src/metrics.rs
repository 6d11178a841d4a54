//! The names, units and directions of every metric `lpbench` prints —
//! the same tables `BENCHMARK.json` publishes (a unit test keeps the
//! two in step).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// Reported by every workload; the failure ratio travels in the result
/// line's `failed` / `attempted` (a metric that is 0 on every healthy
/// run has no median to bound).
///
/// The two timing metrics are ratios to the `none` blocks of the same
/// repetition, the form every table of the paper takes. The absolute
/// times behind them (`workload.op_ns`, `workload.cpu_ns_per_op`) are
/// per-layer rows without a bound: the shared host this runs on changes
/// speed by a third for seconds to minutes at a time — the same
/// `sfip_mix` code read 460 and 700 ns/op in runs a minute apart, an
/// interquartile range of 48 % over ten runs — which no bound the
/// contract allows can hold, while the ratios of those same runs stayed
/// within 3 %. What an absolute time would add is a guard against
/// slowing the baseline; only `httpd_static` has a baseline made of
/// this repository's code, and `httpd.base_cpu_ns_per_req` shows it.
///
/// Bounds from ten-seed sets on the 2-vCPU sandbox (`README.md`).
pub const END_TO_END: [Metric; 4] = [
    e2e("overhead_x", "x", 0.2),
    e2e("cpu_overhead_x", "x", 0.2),
    e2e("peak_rss_mb", "MiB", 0.25),
    e2e("setup_s", "s", 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// Reported by every traced run, in ledger order (outside in).
pub const PER_LAYER: [Metric; 68] = [
    lo("syscalls.raw_ns", "ns"),
    lo("sud.allow_ns", "ns"),
    lo("sud.set_selector_ns", "ns"),
    lo("sud.sigsys_ns", "ns"),
    lo("zpoline.trampoline_install_us", "us"),
    lo("lazypoline.init_us", "us"),
    lo("lazypoline.teardown_us", "us"),
    lo("httpd.base_cpu_ns_per_req", "ns"),
    hi("httpd.server_cpu_util", "ratio"),
    lo("httpd.overhead_x.lazypoline", "x"),
    lo("httpd.overhead_x.zpoline", "x"),
    lo("httpd.overhead_x.sud", "x"),
    lo("httpd.lat_p50_us", "us"),
    lo("httpd.lat_p99_us", "us"),
    lo("httpd.shed_ratio", "ratio"),
    lo("httpd.syscalls_per_req", "count"),
    lo("lazypoline-preload.startup_added_us", "us"),
    lo("lazypoline-preload.sites_rewritten_per_exec", "count"),
    lo("lazypoline-preload.dispatches_per_exec", "count"),
    lo("interpose.dispatch_hit_ns", "ns"),
    lo("interpose.dispatch_miss_ns", "ns"),
    lo("interpose.stack_ns_per_hook", "ns"),
    lo("hookabi.load_us", "us"),
    lo("hookabi.call_ns", "ns"),
    lo("sfip.check_ns", "ns"),
    hi("sfip.learn_mevents_per_s", "Mev/s"),
    lo("sfip.load_us", "us"),
    lo("replay.push_ns", "ns"),
    lo("replay.ring_push_ns", "ns"),
    hi("replay.drain_mevents_per_s", "Mev/s"),
    lo("replay.encode_ns", "ns"),
    lo("replay.bytes_per_event", "B"),
    hi("replay.spill_mb_per_s", "MB/s"),
    hi("replay.decode_mevents_per_s", "Mev/s"),
    lo("zpoline.fast_added_ns", "ns"),
    lo("lazypoline.selector_added_ns", "ns"),
    lo("lazypoline.xstate_added_ns", "ns"),
    lo("lazypoline.xstate_ns.x87", "ns"),
    lo("lazypoline.xstate_ns.sse", "ns"),
    lo("lazypoline.xstate_ns.avx", "ns"),
    lo("zpoline.sweep_ns_per_page", "ns"),
    hi("zpoline.scan_mb_per_s", "MB/s"),
    lo("lazypoline.slow_us_per_sigsys.sparse", "us"),
    lo("lazypoline.slow_us_per_sigsys.dense", "us"),
    lo("mechanism.resolve_ns.static", "ns"),
    lo("mechanism.resolve_ns.dynamic", "ns"),
    lo("mechanism.install_us.lazypoline", "us"),
    lo("mechanism.install_us.record", "us"),
    lo("mechanism.install_us.hooks", "us"),
    lo("mechanism.install_us.sfip", "us"),
    // Exact counts from the traced workload's own mechanism windows.
    lo("lazypoline.dispatches_per_op", "count"),
    lo("lazypoline.slow_path_hits", "count"),
    lo("lazypoline.sites_patched", "count"),
    hi("lazypoline.sites_per_sigsys", "count"),
    lo("lazypoline.patch_retries", "count"),
    lo("lazypoline.pages_blocklisted", "count"),
    lo("lazypoline.unpatchable_emulations", "count"),
    lo("hookabi.hook_dispatches", "count"),
    lo("sfip.checks", "count"),
    lo("replay.events_recorded", "count"),
    lo("replay.events_dropped", "count"),
    lo("replay.ring_grows", "count"),
    lo("replay.ring_near_full", "count"),
    lo("replay.drain_yields", "count"),
    // The traced workload's untraced quarter-run, in absolute time.
    lo("workload.none_op_ns", "ns"),
    lo("workload.op_ns", "ns"),
    lo("workload.cpu_ns_per_op", "ns"),
    lo("trace_overhead_pct", "%"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` is what the outside world reads; these tables
    /// are what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_publishes_these_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let check = |key: &str, table: &[Metric], bounded: bool| {
            let listed = doc
                .get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} missing"));
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, m) in listed.iter().zip(table) {
                let s = |k: &str| entry.get(k).and_then(Value::as_str);
                assert_eq!(s("name"), Some(m.name));
                assert_eq!(s("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(s("better"), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    bounded.then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let listed: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
