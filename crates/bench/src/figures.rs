//! Regeneration of the paper's figures.
//!
//! - **Figure 4**: six log-log latency distribution panels, one per
//!   OS x service, each with the four workload series.
//! - **Figure 5**: the virus scanner's effect on Windows 98 thread latency.
//! - **Figures 6–7**: soft modem mean-time-to-underrun vs buffering for
//!   DPC-based and thread-based datapumps on Windows 98.

use wdm_analysis::mttf::{fig6_axis, fig7_axis, mttf_seconds, MttfParams, MTTF_MARKS_S};
use wdm_latency::{
    report::{render_panel, PanelSeries},
    session::{measure_scenario, MeasureOptions, ScenarioMeasurement},
};
use wdm_osmodel::personality::OsKind;
use wdm_workloads::WorkloadKind;

use crate::cells::{cell_seed, AllCells, RunConfig};

/// Renders the six Figure 4 panels from measured cells.
pub fn figure4(cells: &AllCells) -> String {
    let mut out = String::from(
        "Figure 4: Measured Interrupt and Thread Latencies under Load\n\
         (percent of samples per log2 bin; compare tails, not bodies)\n\n",
    );
    let panel = |title: &str, ms: &[&ScenarioMeasurement], f: &dyn Fn(&ScenarioMeasurement) -> &wdm_latency::LatencyHistogram| {
        let series: Vec<PanelSeries<'_>> = ms
            .iter()
            .map(|m| PanelSeries {
                workload: m.workload.name(),
                hist: f(m),
            })
            .collect();
        render_panel(title, &series)
    };
    let nt: Vec<&ScenarioMeasurement> = cells.nt.iter().collect();
    let w98: Vec<&ScenarioMeasurement> = cells.win98.iter().collect();
    out += &panel(
        "Windows NT 4.0 DPC Interrupt Latency (ms)",
        &nt,
        &|m| &m.int_to_dpc.hist,
    );
    out.push('\n');
    out += &panel("Windows 98 Interrupt + DPC Latency (ms)", &w98, &|m| {
        &m.int_to_dpc.hist
    });
    out.push('\n');
    out += &panel(
        "Windows NT 4.0 Kernel Mode Thread (RT Priority 28) Latency (ms)",
        &nt,
        &|m| &m.thread_lat_28.hist,
    );
    out.push('\n');
    out += &panel(
        "Windows 98 Kernel Mode Thread (RT Priority 28) Latency (ms)",
        &w98,
        &|m| &m.thread_lat_28.hist,
    );
    out.push('\n');
    out += &panel(
        "Windows NT 4.0 Kernel Mode Thread (RT Priority 24) Latency (ms)",
        &nt,
        &|m| &m.thread_lat_24.hist,
    );
    out.push('\n');
    out += &panel(
        "Windows 98 Kernel Mode Thread (RT Priority 24) Latency (ms)",
        &w98,
        &|m| &m.thread_lat_24.hist,
    );
    out
}

/// Result of the Figure 5 experiment.
pub struct Figure5 {
    /// Distribution without the scanner.
    pub without: ScenarioMeasurement,
    /// Distribution with the scanner.
    pub with: ScenarioMeasurement,
}

impl Figure5 {
    /// Frequency of >=16 ms thread (RT 24) latencies per wait, scanner off.
    pub fn freq_without(&self) -> f64 {
        per_wait_frequency(&self.without, 16.0)
    }

    /// Same with the scanner on.
    pub fn freq_with(&self) -> f64 {
        per_wait_frequency(&self.with, 16.0)
    }

    /// The separation factor (paper: about two orders of magnitude).
    pub fn separation(&self) -> f64 {
        let w = self.freq_with();
        let wo = self.freq_without();
        if wo <= 0.0 {
            f64::INFINITY
        } else {
            w / wo
        }
    }
}

fn per_wait_frequency(m: &ScenarioMeasurement, threshold_ms: f64) -> f64 {
    let over = m.thread_lat_24.hist.survival(threshold_ms);
    // survival is per recorded latency sample; every recorded sample is one
    // satisfied wait.
    over
}

/// Runs the Figure 5 experiment: Business apps on Windows 98, no sound
/// scheme, virus scanner off vs on.
pub fn figure5(cfg: &RunConfig) -> Figure5 {
    let hours = cfg.duration.hours_for(WorkloadKind::Business);
    let seed = cell_seed(cfg.seed, OsKind::Win98, WorkloadKind::Business) ^ 0xF16;
    // The two runs are independent simulations; fan them out.
    let threads = crate::parallel::effective_threads(cfg.threads, 2);
    let mut runs = crate::parallel::parallel_map(2, threads, |i| {
        let mut opts = MeasureOptions::default();
        opts.scenario.virus_scanner = i == 1;
        measure_scenario(OsKind::Win98, WorkloadKind::Business, seed, hours, &opts)
    });
    let with = runs.pop().expect("two runs");
    let without = runs.pop().expect("two runs");
    Figure5 { without, with }
}

/// Renders Figure 5.
pub fn render_figure5(f: &Figure5) -> String {
    let mut out = String::from(
        "Figure 5: Effect of the Virus Scanner on Win98 RT-24 Thread Latency\n\
         (Business apps, no sound scheme)\n\n",
    );
    out += &render_panel(
        "Windows 98 Kernel Mode Thread (RT Priority 24) Latency (ms)",
        &[
            PanelSeries {
                workload: "w/o Virus Scanner",
                hist: &f.without.thread_lat_24.hist,
            },
            PanelSeries {
                workload: "with Virus Scanner",
                hist: &f.with.thread_lat_24.hist,
            },
        ],
    );
    out += &format!(
        "\nP(thread latency >= 16 ms per wait):\n  \
         without scanner: {:.3e} (paper: ~1 in 165,000 waits = 6.1e-6)\n  \
         with scanner:    {:.3e} (paper: ~1 in 1,000 waits = 1.0e-3)\n  \
         separation:      {:.0}x (paper: ~two orders of magnitude)\n",
        f.freq_without(),
        f.freq_with(),
        f.separation()
    );
    out
}

/// Renders Figures 6 and 7 from the Windows 98 cells: MTTF curves per
/// workload for the two datapump modalities.
pub fn figures_6_7(cells: &AllCells) -> String {
    let params = MttfParams::default();
    let render = |title: &str, axis: &[f64], pick: &dyn Fn(&ScenarioMeasurement) -> &wdm_latency::LatencyHistogram| {
        let mut out = format!("=== {title} ===\n");
        out += &format!("{:<14}", "buffering ms");
        for m in &cells.win98 {
            out += &format!("{:>22}", m.workload.name());
        }
        out.push('\n');
        for &b in axis {
            out += &format!("{b:<14}");
            for m in &cells.win98 {
                let v = mttf_seconds(pick(m), b, &params);
                let cell = if v.is_infinite() {
                    format!("{:>21}s", ">10000")
                } else {
                    format!("{:>21.1}s", v)
                };
                out += &cell;
            }
            out.push('\n');
        }
        out += "marks: ";
        for (s, label) in MTTF_MARKS_S {
            out += &format!("{label} = {s} s;  ");
        }
        out.push('\n');
        out
    };
    let mut out = String::from(
        "Soft modem mean time to buffer underrun on Windows 98, data transfer\n\
         mode (datapump = 25% of a cycle on a P-II 300; double buffered).\n\n",
    );
    out += &render(
        "Figure 6: DPC-based datapump (indexed by interrupt+DPC latency)",
        &fig6_axis(),
        &|m| &m.int_to_dpc.hist,
    );
    out.push('\n');
    out += &render(
        "Figure 7: Thread-based datapump, high RT priority (indexed by interrupt-to-thread latency)",
        &fig7_axis(),
        &|m| &m.thread_int_28.hist,
    );
    out.push_str(
        "\nNT 4.0: worst-case latencies sit below the minimum modem slack time\n\
         of 3 ms, so the paper forgoes the NT analysis (§5.1); see `repro sched`.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{measure_all, Duration};

    fn quick_cfg() -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(0.05),
            seed: 5,
            threads: 0,
            shards: 1,
            trace: false,
            sampler_mode: wdm_osmodel::dist::SamplerMode::Exact,
            batch_record: true,
            blame: None,
            flame_hz: None,
        }
    }

    #[test]
    fn figure4_renders_all_panels() {
        let cells = measure_all(&quick_cfg());
        let f = figure4(&cells);
        assert_eq!(f.matches("===").count(), 12, "six panels");
        assert!(f.contains("Windows 98 Kernel Mode Thread (RT Priority 24)"));
        assert!(f.contains("Business Apps"));
        assert!(f.contains("Web Browsing"));
    }

    #[test]
    fn figures_6_7_render_curves() {
        let cells = measure_all(&quick_cfg());
        let f = figures_6_7(&cells);
        assert!(f.contains("Figure 6"));
        assert!(f.contains("Figure 7"));
        assert!(f.contains("1 hour"));
    }
}
