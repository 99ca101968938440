//! What the workloads share: the run context, the serving stack, batch
//! shaping, memory readings and the result report.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use saga_core::{ExtendedTriple, KnowledgeGraph, Result, Value, WriteBatch, WriteOp};
use saga_fleet::controller::TickerHandle;
use saga_fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool};
use saga_graph::{CheckpointWriter, FlushPolicy, LoggedWriter, OpKind, OperationLog};
use saga_net::{SagaServer, ServerConfig, WireBatch};

use crate::oracle::Oracle;

/// Facts in a bulk batch: the preload chunk and construction-delta size.
pub const BULK_FACTS: usize = 200;
/// Facts in a small batch.
pub const SMALL_FACTS: usize = 10;

/// Arguments of one benchmark run.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub dir: PathBuf,
}

impl Run {
    /// A fresh sub-directory of the run's scratch directory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    /// The measured window as a `Duration`.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// This machine's CPU time as `/proc/stat` counts it, summed over CPUs,
/// in clock ticks: all of it, and the part the host gave to others
/// (`steal`). A shared host's slow phases show as steal.
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The counters now (zero where `/proc/stat` cannot be read).
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user).
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Percent of CPU time stolen since `self` was read.
    pub fn steal_pct_since(&self) -> f64 {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total).max(1);
        100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Microseconds elapsed since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Every fact of a generated graph, ordered by subject then record order.
pub fn graph_facts(kg: &KnowledgeGraph) -> Vec<ExtendedTriple> {
    let mut records: Vec<_> = kg.entities().collect();
    records.sort_unstable_by_key(|r| r.id);
    records
        .into_iter()
        .flat_map(|r| r.triples.iter().cloned())
        .collect()
}

/// An oracle holding exactly `facts`.
pub fn oracle_of(facts: &[ExtendedTriple]) -> Oracle {
    let mut oracle = Oracle::new();
    for t in facts {
        add_fact(&mut oracle, t);
    }
    oracle
}

/// Record one triple in an oracle.
pub fn add_fact(oracle: &mut Oracle, t: &ExtendedTriple) {
    oracle.add(subject_of(t), &t.predicate.text(), &t.object);
}

/// The entity id a triple is about.
pub fn subject_of(t: &ExtendedTriple) -> u64 {
    match t.subject {
        saga_core::SubjectRef::Kg(id) => id.0,
        ref other => panic!("generated facts are about KG entities, got {other:?}"),
    }
}

/// `(predicate, object)` pairs of a served record, for oracle checks.
fn record_pairs(record: &saga_core::EntityRecord) -> Vec<(String, Value)> {
    record
        .triples
        .iter()
        .map(|t| (t.predicate.text().to_string(), t.object.clone()))
        .collect()
}

/// True if a served record equals the oracle's record of `id`.
pub fn record_ok(oracle: &Oracle, id: u64, record: Option<&saga_core::EntityRecord>) -> bool {
    let pairs = record.map(record_pairs);
    oracle.record_matches(
        id,
        pairs
            .as_ref()
            .map(|p| p.iter().map(|(p, o)| (p.as_str(), o))),
    )
}

/// Split facts into batches of `size` (the last may be shorter).
pub fn chunks(facts: &[ExtendedTriple], size: usize) -> Vec<Vec<ExtendedTriple>> {
    facts.chunks(size).map(<[ExtendedTriple]>::to_vec).collect()
}

/// An in-process upsert batch.
pub fn write_batch(facts: &[ExtendedTriple]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for t in facts {
        batch.push(WriteOp::Upsert(t.clone()));
    }
    batch
}

/// The same upserts as a wire batch.
pub fn wire_batch(facts: &[ExtendedTriple]) -> WireBatch {
    facts
        .iter()
        .cloned()
        .fold(WireBatch::new(), WireBatch::upsert)
}

/// A logged writer over an empty graph and `log`.
pub fn writer_over(log: OperationLog) -> Arc<LoggedWriter> {
    Arc::new(LoggedWriter::new(
        Arc::new(RwLock::new(KnowledgeGraph::new())),
        Arc::new(log),
    ))
}

/// A durable log that fsyncs every append.
pub fn fsync_log(path: &Path) -> Result<OperationLog> {
    OperationLog::durable_with(path, FlushPolicy::Fsync)
}

/// Commit `facts` through `writer` in bulk chunks.
pub fn preload(writer: &LoggedWriter, facts: &[ExtendedTriple]) -> Result<()> {
    for chunk in facts.chunks(BULK_FACTS) {
        writer.commit(OpKind::Upsert, write_batch(chunk))?;
    }
    Ok(())
}

/// Writer → replica fleet → server, the serving path under test.
pub struct Stack {
    /// The write-ahead writer the server commits through.
    pub writer: Arc<LoggedWriter>,
    /// The replicas tailing the writer's log.
    pub pool: Arc<ReplicaPool>,
    /// Routing over the replicas.
    pub router: Arc<FleetRouter>,
    /// The fleet supervisor (and checkpoint cadence, if enabled).
    pub controller: Arc<FleetController>,
    /// The TCP server.
    pub server: SagaServer,
    ticker: Option<TickerHandle>,
}

impl Stack {
    /// Start a fleet over `writer`'s log, wait until it has replayed the
    /// log head, and put a server in front of it. With `tick` set, a
    /// controller ticker checkpoints and compacts into `ckpt_dir`.
    pub fn start(
        writer: Arc<LoggedWriter>,
        cfg: FleetConfig,
        ckpt_dir: &Path,
        tick: Option<Duration>,
    ) -> Result<Stack> {
        let pool = ReplicaPool::start(cfg, Arc::clone(writer.log()), ckpt_dir)?;
        let router = Arc::new(FleetRouter::new(Arc::clone(&pool)));
        router.wait_for_lsn(writer.log().head(), Duration::from_secs(120))?;
        let controller = Arc::new(match tick {
            Some(_) => FleetController::with_checkpointer(
                Arc::clone(&pool),
                CheckpointWriter::new(&writer, ckpt_dir),
            ),
            None => FleetController::new(Arc::clone(&pool)),
        });
        let ticker = tick.map(|every| controller.spawn_ticker(every));
        let server = SagaServer::start(
            Arc::clone(&router),
            Arc::clone(&writer),
            ServerConfig::default(),
        )?;
        Ok(Stack {
            writer,
            pool,
            router,
            controller,
            server,
            ticker,
        })
    }

    /// The server's address.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Wait until every replica has replayed the log head.
    pub fn wait_all_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = self.controller.stats();
            if stats.replicas.iter().all(|r| r.lag == 0) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop the checkpoint ticker (and wait for its thread).
    pub fn stop_ticker(&mut self) {
        drop(self.ticker.take());
    }

    /// Stop the ticker, the server and every replica worker, and wait for
    /// them.
    pub fn shutdown(mut self) {
        drop(self.ticker.take());
        self.server.shutdown();
        self.pool.shutdown();
    }
}

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Whether every hard output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (counted, not fatal).
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed hard check: the run is marked incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit of the measurement (`null` for
/// a value that could not be measured, which fails the run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
