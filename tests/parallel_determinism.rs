//! Tier-1 guarantee of the sweep executor: the parallel matrix produces
//! bit-for-bit the same `SimReport`s as the sequential one.
//!
//! Both runs happen inside a single `#[test]` so the `READDUO_THREADS`
//! environment flips cannot race another test in this binary. Sharded
//! multi-channel runs are pinned across pool widths by
//! `tests/shard_equivalence.rs`.

use readduo::core::{DeviceSpec, SchemeKind};
use readduo::memsim::MemoryConfig;
use readduo::trace::Workload;
use readduo_bench::{Harness, Source};

#[test]
fn run_matrix_is_identical_across_thread_counts() {
    let harness = Harness {
        instructions_per_core: 40_000,
        cores: 2,
        seed: 0x00D5_EAD0_2016,
        memory: MemoryConfig::small_test(),
    };
    let schemes = [
        SchemeKind::Scrubbing,
        SchemeKind::MMetric,
        SchemeKind::Lwt { k: 4 },
    ];
    let workloads = [Workload::toy(), Workload::by_name("gcc").expect("gcc")];

    // The worn and tiered legs run on two channels: a 1-channel run never
    // touches the pool, so only a sharded run lets the env flips reach
    // them. With hard faults and remapping enabled the merged report must
    // still be independent of the pool width (the wear table is
    // per-channel state like everything else).
    let sharded = Harness { memory: harness.memory.with_channels(2), ..harness };
    let wear = readduo::core::WearConfig::new(0x00FA_0017).with_accel(4_000_000);
    let worn_spec = DeviceSpec::from(SchemeKind::Select { k: 4, s: 2 })
        .with_fault(0x00FA_0017)
        .with_wear(wear);
    let worn_workload = Workload::by_name("mcf").expect("mcf");

    // Tiered runs too: the DRAM cache is per-channel state, so the merged
    // tiered report must also be independent of the pool width.
    let dram = readduo::dram::DramConfig::new(harness.seed, 1_024).with_threshold(1);
    let tiered_spec = DeviceSpec::from(SchemeKind::Lwt { k: 4 }).with_dram(dram);
    let tiered_workload = Workload::by_name("gcc").expect("gcc");

    let runs = || {
        let matrix = harness
            .run_matrix(&schemes, &workloads)
            .expect("bare schemes");
        let streamed = harness
            .run_matrix_streamed(&schemes, &workloads)
            .expect("bare schemes");
        let worn = sharded
            .run(&worn_workload, worn_spec, Source::Stream)
            .expect("Select is injectable");
        let tiered = sharded
            .run(&tiered_workload, tiered_spec, Source::Stream)
            .expect("LWT-4 is tierable");
        (matrix, streamed, worn, tiered)
    };
    std::env::set_var("READDUO_THREADS", "4");
    let (parallel, streamed_par, worn_par, tiered_par) = runs();
    std::env::set_var("READDUO_THREADS", "1");
    let (sequential, streamed_seq, worn_seq, tiered_seq) = runs();
    std::env::remove_var("READDUO_THREADS");

    assert_eq!(
        worn_par.report, worn_seq.report,
        "worn run diverged across thread counts"
    );
    assert_eq!(
        tiered_par.report, tiered_seq.report,
        "tiered run diverged across thread counts"
    );
    assert!(
        tiered_par.report.dram_hits > 0,
        "tiered determinism leg must actually hit in DRAM"
    );

    assert_eq!(parallel.len(), schemes.len() * workloads.len());
    assert_eq!(sequential.len(), parallel.len());
    assert_eq!(streamed_par.len(), parallel.len());
    assert_eq!(streamed_seq.len(), parallel.len());
    for (((p, s), sp), ss) in parallel
        .iter()
        .zip(&sequential)
        .zip(&streamed_par)
        .zip(&streamed_seq)
    {
        assert_eq!(p.workload, s.workload, "matrix order must not depend on completion order");
        assert_eq!(p.scheme, s.scheme);
        assert_eq!(
            p.report, s.report,
            "parallel report diverged for {} / {}",
            p.workload, p.scheme
        );
        assert_eq!((&sp.workload, sp.scheme), (&p.workload, p.scheme));
        assert_eq!((&ss.workload, ss.scheme), (&p.workload, p.scheme));
        assert_eq!(
            sp.report, p.report,
            "streamed parallel report diverged for {} / {}",
            p.workload, p.scheme
        );
        assert_eq!(
            ss.report, p.report,
            "streamed sequential report diverged for {} / {}",
            p.workload, p.scheme
        );
    }
    // Workload-major, scheme-minor order — exactly the old nested loop.
    assert_eq!(parallel[0].workload, "toy");
    assert_eq!(parallel[2].workload, "toy");
    assert_eq!(parallel[3].workload, "gcc");
    assert_eq!(parallel[0].scheme, SchemeKind::Scrubbing);
    assert_eq!(parallel[4].scheme, SchemeKind::MMetric);
}
