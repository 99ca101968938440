//! `ingest_fresh`: writes beside reads.
//!
//! A smaller `ambiguous_world` corpus is preloaded through `LoggedWriter`
//! into an fsync-per-append log, a two-replica fleet tails it, and a
//! `FleetController` ticker checkpoints and compacts while the window is
//! open. One connection commits whole rounds of batches through
//! `SagaPool` (most ~10 facts, every tenth ~200) and reads each commit
//! back with its session token; the other sends point reads and hot
//! KGQ until the writer stops. Afterwards every replica, and a replica
//! bootstrapped cold from the checkpoint directory and the reopened log
//! file, must hold exactly the preload plus every acknowledged commit.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{
    intern, EntityId, ExtendedTriple, FactMeta, GraphRead, Result, SagaError, SourceId, Value,
};
use saga_fleet::FleetConfig;
use saga_graph::OperationLog;
use saga_live::LiveReplica;
use saga_net::{PoolConfig, SagaPool, WireBatch};

use crate::common::{
    add_fact, fsync_log, graph_facts, ms_since, oracle_of, peak_rss_mb, preload, record_ok, rss_mb,
    wire_batch, writer_over, CpuTicks, Report, Run, Stack, BULK_FACTS,
};
use crate::layers::Layers;
use crate::oracle::Oracle;
use crate::probes::{self, ProbeTexts, SHARDS};
use crate::reads::{Kind, Mix, ReadCorpus, Reads};
use crate::stats::{median, Summary};

/// Homonym groups of the preloaded corpus (~82 facts each).
const GROUPS: usize = 400;
/// Set-ups per run, half before the window and half after it; `setup_s`
/// is their median. Each takes about half a second, short enough that
/// one slow phase of a shared host can cover every set-up made in a row,
/// so the run samples two moments a window apart.
const SETUPS: usize = 12;
/// Commits per writer round; every tenth is a bulk batch.
const BATCHES_PER_ROUND: usize = 20;
/// Facts per committed entity.
const ENTITY_FACTS: usize = 5;
/// Entities in a small and in a bulk batch (10 and 200 facts).
const SMALL_ENTITIES: usize = 2;
const BULK_ENTITIES: usize = BULK_FACTS / ENTITY_FACTS;
/// One round of the reading connection: point reads and hot KGQ in
/// counts that give each kind about half the connection's time, at the
/// medians measured beside the writer (0.055 and 0.080 ms; README).
const READ_MIX: Mix = Mix {
    record: 15,
    resolve: 15,
    hot: 20,
    cold: 0,
    scan: 0,
};
/// Controller tick; checkpoints fire every `checkpoint_every` log ops.
const TICK: Duration = Duration::from_millis(20);
/// Source ids of committed facts: round `r` writes as source
/// `FRESH_SOURCE + r % GENERATIONS` and first retracts what that source
/// wrote `GENERATIONS` rounds before, so the served graph (and memory)
/// stays bounded however fast the writer goes.
const FRESH_SOURCE: u32 = 1000;
const GENERATIONS: u64 = 4;
/// Small and bulk commit batches kept for the traced run's probes.
const PROBE_SMALL: usize = 40;
const PROBE_BULK: usize = 10;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        replicas: 2,
        shards: SHARDS,
        checkpoint_every: 256,
        ..FleetConfig::default()
    }
}

/// Facts of one fresh entity: disjoint from the corpus in type, name
/// tokens and literals, so corpus reads keep their expected answers.
fn fresh_entity(source: SourceId, id: u64, name: &str, city: u64) -> Vec<ExtendedTriple> {
    let meta = || FactMeta::from_source(source, 0.9);
    let fact = |p: &str, v: Value| ExtendedTriple::simple(EntityId(id), intern(p), v, meta());
    vec![
        fact("name", Value::str(name)),
        fact("type", Value::str("fresh_item")),
        fact("description", Value::str(format!("fresh item {id}"))),
        fact("located_in", Value::Entity(EntityId(city))),
        fact("seq", Value::Int(id as i64)),
    ]
}

/// What the writing connection saw.
#[derive(Default)]
struct Writer {
    small_ms: Vec<f64>,
    bulk_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    retract_ms: Vec<f64>,
    /// Facts acknowledged, retracted ones included.
    acked_facts: usize,
    /// Acknowledged facts not yet retracted, per writing round.
    live: VecDeque<Vec<ExtendedTriple>>,
    small_batches: Vec<Vec<ExtendedTriple>>,
    bulk_batches: Vec<Vec<ExtendedTriple>>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    elapsed_s: f64,
}

fn writer_conn(addr: &str, run: &Run, first_id: u64, cities: &[u64], start: &Barrier) -> Writer {
    let mut pool = SagaPool::new([addr.to_string()], PoolConfig::default());
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x1A6E57);
    let mut out = Writer::default();
    let mut next_id = first_id;
    start.wait();
    let t0 = Instant::now();
    let deadline = t0 + run.window();
    let mut round = 0u64;
    while Instant::now() < deadline {
        let source = SourceId(FRESH_SOURCE + (round % GENERATIONS) as u32);
        if round >= GENERATIONS {
            let t = Instant::now();
            let retracted = pool.commit(WireBatch::new().retract_source(source));
            out.attempted += 1;
            match retracted {
                Ok(_) => {
                    out.retract_ms.push(ms_since(t));
                    out.live.pop_front();
                }
                Err(e) => {
                    out.failed += 1;
                    out.wrong.push(format!("retraction failed: {e}"));
                }
            }
        }
        out.live.push_back(Vec::new());
        for b in 0..BATCHES_PER_ROUND {
            let bulk = b % 10 == 9;
            let entities = if bulk { BULK_ENTITIES } else { SMALL_ENTITIES };
            let first = next_id;
            let name = format!("fresh r{round}b{b}");
            let facts: Vec<ExtendedTriple> = (0..entities)
                .flat_map(|e| {
                    next_id += 1;
                    let city = cities[rng.gen_range(0..cities.len())];
                    let name = if e == 0 {
                        name.clone()
                    } else {
                        format!("{name}e{e}")
                    };
                    fresh_entity(source, next_id - 1, &name, city)
                })
                .collect();
            let t = Instant::now();
            let committed = pool.commit(wire_batch(&facts));
            let ms = ms_since(t);
            out.attempted += 1;
            match committed {
                Ok(_) => {
                    // The traced run's probes replay a few of these
                    // batches; keeping all would tie memory to speed.
                    let (lat, kept, keep) = if bulk {
                        (&mut out.bulk_ms, &mut out.bulk_batches, PROBE_BULK)
                    } else {
                        (&mut out.small_ms, &mut out.small_batches, PROBE_SMALL)
                    };
                    lat.push(ms);
                    if kept.len() < keep {
                        kept.push(facts.clone());
                    }
                    out.acked_facts += facts.len();
                    out.live.back_mut().expect("pushed above").extend(facts);
                }
                Err(e) => {
                    out.failed += 1;
                    out.wrong.push(format!("commit failed: {e}"));
                    continue;
                }
            }
            // Read the commit back with the session token.
            let text = format!("FIND fresh_item WHERE name = \"{name}\"");
            let t = Instant::now();
            let read = pool.query_with_session(&text);
            let ms = ms_since(t);
            out.attempted += 1;
            match read {
                Ok(r) => {
                    out.visible_ms.push(ms);
                    if r.entities() != [EntityId(first)] {
                        out.wrong.push(format!(
                            "session read of {name} returned {:?}",
                            r.entities()
                        ));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.wrong.push(format!("session read failed: {e}"));
                }
            }
        }
        round += 1;
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out
}

/// The reading connection: closed-loop rounds of point reads and hot KGQ
/// until the writer is done. (A paced reader was tried: its idle gaps made
/// every thread slower to wake on the reference host, writer included.)
fn reader_conn(
    addr: &str,
    run: &Run,
    corpus: &ReadCorpus,
    start: &Barrier,
    done: &AtomicBool,
) -> Reads {
    let mut pool = SagaPool::new([addr.to_string()], PoolConfig::default());
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x2EAD);
    let mut out = Reads::default();
    for text in corpus.hot_texts() {
        let _ = pool.query(text);
    }
    start.wait();
    while !done.load(Ordering::Acquire) {
        let reqs = corpus.round(&mut rng, &READ_MIX, || unreachable!("no cold reads"));
        corpus.serve_round(&mut pool, &reqs, &mut out);
    }
    out
}

/// Check that `graph` holds exactly the oracle's entities and records.
fn holds_exactly(
    oracle: &Oracle,
    graph: &impl GraphRead,
    len: usize,
) -> std::result::Result<(), String> {
    if len != oracle.entity_count() {
        return Err(format!(
            "{len} entities, expected {}",
            oracle.entity_count()
        ));
    }
    for id in oracle.subjects() {
        if !record_ok(oracle, id, graph.record(EntityId(id)).as_ref()) {
            return Err(format!("record {id} differs from the tally"));
        }
    }
    Ok(())
}

/// One timed set-up and where it lives.
struct SetUp {
    stack: Stack,
    dir: PathBuf,
    /// Seconds from the first preload commit until every replica is
    /// caught up and the server is listening.
    seconds: f64,
    /// Seconds of that spent preloading.
    preload_s: f64,
}

impl SetUp {
    /// Stop the stack and remove its files.
    fn discard(self) {
        self.stack.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Preload the corpus through `LoggedWriter` into a fresh Fsync log,
/// start the fleet, controller and server over it, and wait until every
/// replica has replayed the preload.
fn set_up(run: &Run, facts: &[ExtendedTriple], i: usize) -> Result<SetUp> {
    let dir = run.subdir(&format!("ingest{i}"));
    let t = Instant::now();
    let writer = writer_over(fsync_log(&dir.join("oplog"))?);
    preload(&writer, facts)?;
    let preload_s = t.elapsed().as_secs_f64();
    let stack = Stack::start(writer, fleet_config(), &dir.join("ckpt"), Some(TICK))?;
    if !stack.wait_all_caught_up(Duration::from_secs(120)) {
        stack.shutdown();
        return Err(SagaError::Unavailable(
            "replicas did not catch up with the preload".into(),
        ));
    }
    Ok(SetUp {
        stack,
        dir,
        seconds: t.elapsed().as_secs_f64(),
        preload_s,
    })
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
    let cities = corpus.oracle.scan("city", usize::MAX);
    let first_id = corpus.oracle.subjects().last().unwrap_or(0) + 1;
    report.note(format!(
        "ingest_fresh: ambiguous_world(seed, {GROUPS}): {} entities, {} facts; inputs made in {:.2} s",
        corpus.oracle.entity_count(),
        corpus.oracle.fact_count(),
        t0.elapsed().as_secs_f64()
    ));

    report.note(format!(
        "ingest_fresh: memory before set-up (inputs and oracle): VmRSS {:.1} MB",
        rss_mb()
    ));
    let mut setups = Vec::new();
    let mut stack: Option<SetUp> = None;
    for i in 0..SETUPS / 2 {
        if let Some(old) = stack.take() {
            old.discard();
        }
        let s = set_up(run, &facts, i)?;
        setups.push((s.seconds, s.preload_s));
        stack = Some(s);
    }
    let SetUp { mut stack, dir, .. } = stack.expect("at least one set-up");

    let addr = stack.addr();
    let ticks = CpuTicks::now();
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| reader_conn(&addr, run, &corpus, &start, &done));
        let writer = writer_conn(&addr, run, first_id, &cities, &start);
        done.store(true, Ordering::Release);
        (writer, reader.join().expect("reader thread"))
    });
    stack.stop_ticker();
    let steal = ticks.steal_pct_since();

    report.attempted = writer.attempted + reader.attempted;
    report.failed = writer.failed + reader.failed;
    for w in writer.wrong.iter().chain(&reader.wrong).take(5) {
        report.check(false, || w.clone());
    }
    let small = Summary::of(&writer.small_ms);
    let bulk = Summary::of(&writer.bulk_ms);
    report.note(format!("  small commits: {}", small.describe("ms")));
    report.note(format!("  bulk commits: {}", bulk.describe("ms")));
    report.note(format!(
        "  commit-to-visible session reads: {}",
        Summary::of(&writer.visible_ms).describe("ms")
    ));
    report.note(format!(
        "  source retractions: {}",
        Summary::of(&writer.retract_ms).describe("ms")
    ));
    report.note(format!(
        "  point reads beside the writer: {}",
        Summary::of(&reader.of(Kind::Point)).describe("ms")
    ));
    report.note(format!(
        "  hot KGQ beside the writer: {}",
        Summary::of(&reader.of(Kind::Hot)).describe("ms")
    ));
    report.note(format!(
        "  {} facts acknowledged in {:.2} s ({:.0} facts/s over the window); {} checkpoints",
        writer.acked_facts,
        writer.elapsed_s,
        writer.acked_facts as f64 / writer.elapsed_s,
        stack.controller.stats().checkpoints
    ));
    report.note(format!(
        "  host steal while measuring: {steal:.1} % of CPU time"
    ));

    // Every replica, and a cold bootstrap, hold exactly the preload plus
    // the acknowledged commits not yet retracted.
    let mut expected = oracle_of(&facts);
    for t in writer.live.iter().flatten() {
        add_fact(&mut expected, t);
    }
    report.check(stack.wait_all_caught_up(Duration::from_secs(60)), || {
        "replicas did not catch up after the window".into()
    });
    {
        let a = stack.router.read()?;
        let b = stack.router.read()?;
        report.check(a.replica() != b.replica(), || {
            "could not pin both replicas".into()
        });
        for pin in [&a, &b] {
            let checked = holds_exactly(&expected, pin.graph(), pin.graph().len());
            report.check(checked.is_ok(), || {
                format!("replica {}: {}", pin.replica(), checked.unwrap_err())
            });
        }
    }
    let log = OperationLog::durable(&dir.join("oplog"))?;
    let cold = LiveReplica::bootstrap(SHARDS, &dir.join("ckpt"), Arc::new(log))?;
    let checked = holds_exactly(&expected, cold.live(), cold.live().len());
    report.check(checked.is_ok(), || {
        format!("cold bootstrap: {}", checked.unwrap_err())
    });
    drop(cold);

    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    // Acknowledged facts over the writer's whole window, so stalls
    // (checkpoints, compaction, retractions) count.
    report.metric(
        "work_per_s",
        "1/s",
        writer.acked_facts as f64 / writer.elapsed_s,
    );
    report.metric("op_p50_ms", "ms", small.p50);
    report.metric("heavy_p50_ms", "ms", bulk.p50);
    if run.trace {
        let mut layers = Layers::default();
        let texts = ProbeTexts {
            hot: corpus.hot_texts().map(str::to_string).collect(),
            cold: (0..200).map(|k| corpus.cold(k).0).collect(),
            scans: corpus.scan_texts().map(str::to_string).collect(),
            scan_types: ["city", "place", "song"].map(String::from).to_vec(),
            ids: corpus.sample_ids(1000, run.seed),
        };
        probes::serving(&mut layers, &stack, &texts)?;
        probes::graph(
            &mut layers,
            &run.subdir("graph"),
            &writer.small_batches,
            &writer.bulk_batches,
            None,
        )?;
        crate::construct_cycle::probe(&mut layers, run)?;
        layers.report_into(&mut report);
    }
    stack.shutdown();

    for i in SETUPS / 2..SETUPS {
        let s = set_up(run, &facts, i)?;
        setups.push((s.seconds, s.preload_s));
        s.discard();
    }
    let (totals, preloads): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    report.note(format!(
        "ingest_fresh: set-ups (s): {totals:.3?}, of which preload {preloads:.3?}"
    ));
    report.metric("setup_s", "s", median(&totals));
    Ok(report)
}
