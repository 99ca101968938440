//! `serve_read`: read-only serving at scale.
//!
//! An `ambiguous_world` corpus is preloaded through `LoggedWriter`, a
//! two-replica fleet replays it, and a `SagaServer` fronts the fleet.
//! Two closed-loop connections, each a `SagaPool`, send whole rounds of
//! point reads, hot and cold KGQ conjunctions and wide type scans until
//! the window closes. Every reply is checked against the oracle.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_core::Result;
use saga_fleet::FleetConfig;
use saga_graph::OperationLog;
use saga_net::{PoolConfig, SagaPool};

use crate::common::{
    chunks, graph_facts, peak_rss_mb, preload, rss_mb, writer_over, CpuTicks, Report, Run, Stack,
    BULK_FACTS, SMALL_FACTS,
};
use crate::layers::Layers;
use crate::probes::{self, ProbeTexts};
use crate::reads::{Kind, Mix, ReadCorpus, Reads};
use crate::stats::{median, Summary};

/// Homonym groups of the corpus (~82 facts each).
const GROUPS: usize = 3000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop connections.
const CONNECTIONS: usize = 2;
/// One round of one connection. The counts give each request kind of the
/// design (point reads, KGQ conjunctions, wide scans) about a third of a
/// connection's time, at the medians measured at the benchmark's
/// reference revision (0.079, 0.205 and 0.605 ms; README); within a kind,
/// each sub-kind is sent equally often.
const MIX: Mix = Mix {
    record: 30,
    resolve: 30,
    hot: 12,
    cold: 12,
    scan: 8,
};
/// Times each connection sends each hot and scan text before the window.
const WARM_PASSES: usize = 4;

/// The fleet: two replicas; a lazy poll, since nothing is written while
/// the window is open.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        replicas: 2,
        shards: probes::SHARDS,
        poll_interval: Duration::from_millis(25),
        ..FleetConfig::default()
    }
}

/// One closed-loop connection: the reads it saw and its elapsed time.
fn connection(
    c: usize,
    corpus: &ReadCorpus,
    addr: &str,
    run: &Run,
    start: &Barrier,
) -> (Reads, f64) {
    let mut pool = SagaPool::new([addr.to_string()], PoolConfig::default());
    let mut out = Reads::default();
    let warm: Vec<&str> = corpus.hot_texts().chain(corpus.scan_texts()).collect();
    for _ in 0..WARM_PASSES {
        for text in &warm {
            let _ = pool.query(text);
        }
    }
    let mut rng =
        StdRng::seed_from_u64(run.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut cold = c;
    start.wait();
    let t0 = Instant::now();
    let deadline = t0 + run.window();
    while Instant::now() < deadline {
        let reqs = corpus.round(&mut rng, &MIX, || {
            cold += CONNECTIONS;
            cold - CONNECTIONS
        });
        corpus.serve_round(&mut pool, &reqs, &mut out);
    }
    (out, t0.elapsed().as_secs_f64())
}

/// Run the workload.
pub fn run(run: &Run) -> Result<Report> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let t0 = Instant::now();
    let facts = graph_facts(&saga_bench::ambiguous_world(run.seed, GROUPS).kg);
    let corpus = ReadCorpus::new(&facts, run.seed);
    report.note(format!(
        "serve_read: ambiguous_world(seed, {GROUPS}): {} entities, {} facts, {} cold texts; inputs made in {:.2} s",
        corpus.oracle.entity_count(),
        corpus.oracle.fact_count(),
        corpus.cold_count(),
        t0.elapsed().as_secs_f64()
    ));

    report.note(format!(
        "serve_read: memory before set-up (inputs and oracle): VmRSS {:.1} MB",
        rss_mb()
    ));
    let mut setups = Vec::new();
    let mut stack: Option<Stack> = None;
    for i in 0..SETUPS {
        if let Some(old) = stack.take() {
            old.shutdown();
        }
        let dir = run.subdir(&format!("fleet{i}"));
        let t = Instant::now();
        let writer = writer_over(OperationLog::in_memory());
        preload(&writer, &facts)?;
        let s = Stack::start(writer, fleet_config(), &dir, None)?;
        report.check(s.wait_all_caught_up(Duration::from_secs(120)), || {
            "replicas did not catch up with the preload".into()
        });
        setups.push(t.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    report.note(format!("serve_read: set-ups (s): {setups:.3?}"));

    let addr = stack.addr();
    let ticks = CpuTicks::now();
    let start = Barrier::new(CONNECTIONS);
    let conns: Vec<(Reads, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (corpus, addr, start) = (&corpus, &addr, &start);
                s.spawn(move || connection(c, corpus, addr, run, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let steal = ticks.steal_pct_since();
    let mut reads = Reads::default();
    let mut elapsed: f64 = 0.0;
    for (conn, conn_s) in conns {
        elapsed = elapsed.max(conn_s);
        reads.absorb(conn);
    }
    report.attempted = reads.attempted;
    report.failed = reads.failed;
    for w in reads.wrong.iter().take(5) {
        report.check(false, || w.clone());
    }
    let summary = |k: Kind| Summary::of(&reads.of(k));
    for kind in [Kind::Point, Kind::Hot, Kind::Cold, Kind::Scan] {
        report.note(format!(
            "  {kind:?} reads: {}",
            summary(kind).describe("ms")
        ));
    }
    let mut kgq = reads.of(Kind::Hot);
    kgq.extend(reads.of(Kind::Cold));
    report.note(format!(
        "  KGQ conjunctions: {}",
        Summary::of(&kgq).describe("ms")
    ));
    let all: Vec<f64> = reads.lat_ms.iter().map(|&(_, ms)| ms).collect();
    let completed = all.len() as f64;
    report.note(format!("  all reads: {}", Summary::of(&all).describe("ms")));
    report.note(format!(
        "  {} reads in {elapsed:.2} s over {CONNECTIONS} connections: {:.0} reads/s over the window",
        all.len(),
        completed / elapsed
    ));
    report.note(format!(
        "  host steal while measuring: {steal:.1} % of CPU time"
    ));

    report.metric("setup_s", "s", median(&setups));
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    // The rate of the median round, over both connections: steadier on a
    // shared host than the window's mean, which a few stalls can drag.
    report.metric(
        "work_per_s",
        "1/s",
        CONNECTIONS as f64 * median(&reads.round_rates),
    );
    report.metric("op_p50_ms", "ms", summary(Kind::Point).p50);
    report.metric("heavy_p50_ms", "ms", summary(Kind::Scan).p50);
    if run.trace {
        let mut layers = Layers::default();
        let texts = ProbeTexts {
            hot: corpus.hot_texts().map(str::to_string).collect(),
            // Stream positions ten passes ahead: texts no window sends.
            cold: (0..200)
                .map(|k| corpus.cold(10 * corpus.cold_count() + k).0)
                .collect(),
            scans: corpus.scan_texts().map(str::to_string).collect(),
            scan_types: ["city", "place", "song"].map(String::from).to_vec(),
            ids: corpus.sample_ids(1000, run.seed),
        };
        probes::serving(&mut layers, &stack, &texts)?;
        let small = chunks(&facts[..40 * SMALL_FACTS], SMALL_FACTS);
        let bulk = chunks(&facts[..10 * BULK_FACTS], BULK_FACTS);
        probes::graph(&mut layers, &run.subdir("graph"), &small, &bulk, None)?;
        crate::construct_cycle::probe(&mut layers, run)?;
        layers.report_into(&mut report);
    }
    stack.shutdown();
    Ok(report)
}
