//! Per-layer probes of the traced run. Each times public calls into one
//! layer on the workload's own state: its serving stack, its texts, its
//! commit batches and its log.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use saga_core::{checkpoint, intern, EntityId, ExtendedTriple, GraphRead, ProbeKey, Result};
use saga_graph::{CheckpointWriter, FlushPolicy, OpKind, OperationLog};
use saga_live::LiveReplica;
use saga_net::protocol::{decode_request, read_frame};
use saga_net::{PoolConfig, Request, SagaClient, SagaPool};

use crate::common::{fsync_log, us_since, wire_batch, write_batch, writer_over, Stack};
use crate::layers::Layers;

/// Round trips per ping probe.
const PINGS: usize = 300;
/// Routing decisions per pin probe.
const PINS: usize = 300;
/// Session reads per freshness probe.
const SESSION_READS: usize = 30;
/// First entity id of the freshness probe's commits, far above any
/// generated id.
const PROBE_IDS: u64 = 1 << 40;
/// Shards of replicas the probes build.
pub const SHARDS: usize = 8;

/// KGQ texts the serving probe sends to a pinned replica.
pub struct ProbeTexts {
    /// Texts the workload already sent (cached plans).
    pub hot: Vec<String>,
    /// Texts never sent before (compiled on first use).
    pub cold: Vec<String>,
    /// Wide type scans.
    pub scans: Vec<String>,
    /// Types the scans probe.
    pub scan_types: Vec<String>,
    /// Entity ids for point reads.
    pub ids: Vec<u64>,
}

/// Net, fleet, KGQ and core-read probes against a running stack. Reads
/// the layers' own counters first, so they describe the workload rather
/// than the probes.
pub fn serving(layers: &mut Layers, stack: &Stack, texts: &ProbeTexts) -> Result<()> {
    let stats = stack.controller.stats();
    layers.push("fleet.lag_skips", stats.lag_skips as f64);
    layers.push("fleet.session_skips", stats.session_skips as f64);
    layers.push("fleet.checkpoints", stats.checkpoints as f64);
    layers.push(
        "net.requests_shed",
        stack.server.stats().requests_shed as f64,
    );
    {
        // Holding one pin makes the other replica the least loaded, so
        // two pins cover both replicas' plan caches.
        let a = stack.router.read()?;
        let b = stack.router.read()?;
        let mut pins = vec![&a];
        if b.replica() != a.replica() {
            pins.push(&b);
        }
        for pin in pins {
            let (hits, compiles) = pin.engine().plan_cache_stats();
            layers.push("kgq.plan_hits", hits as f64);
            layers.push("kgq.plan_compiles", compiles as f64);
            layers.push("kgq.cached_plans", pin.engine().cached_plans() as f64);
        }
    }

    let mut client = SagaClient::connect(stack.addr())?;
    let mut pool = SagaPool::new([stack.addr()], PoolConfig::default());
    for _ in 0..PINGS {
        layers.time("net.ping_p50_us", || client.ping())?;
        layers.time("net.pool_ping_p50_us", || pool.ping())?;
    }
    for _ in 0..PINS {
        layers.time("fleet.pin_p50_us", || stack.router.read().map(drop))?;
    }

    let pin = stack.router.read()?;
    for text in &texts.hot {
        layers.time("kgq.hot_p50_us", || pin.query(text))?;
    }
    for text in &texts.cold {
        layers.time("kgq.cold_p50_us", || pin.query(text))?;
    }
    for text in &texts.scans {
        layers.time("kgq.scan_p50_us", || pin.query(text))?;
    }
    for &id in &texts.ids {
        layers.time("core.record_p50_us", || pin.graph().record(EntityId(id)));
    }
    for ty in &texts.scan_types {
        let probe = [ProbeKey::Type(intern(ty))];
        for _ in 0..10 {
            layers.time("core.scan_probe_p50_us", || pin.graph().probe_all(&probe));
        }
    }
    drop(pin);

    // Freshness: a commit's token, then the routed read that waits for it.
    for i in 0..SESSION_READS {
        let fact = ExtendedTriple::simple(
            EntityId(PROBE_IDS + i as u64),
            intern("name"),
            saga_core::Value::str(format!("probe{i}")),
            saga_core::FactMeta::default(),
        );
        let commit = stack
            .writer
            .commit(OpKind::Upsert, write_batch(std::slice::from_ref(&fact)))?;
        let token = commit.session_token();
        layers.time("fleet.session_wait_p50_us", || {
            stack.router.read_with_session(&token).map(drop)
        })?;
    }
    Ok(())
}

/// Wire decode, write path, log, checkpoint and JSON probes over the
/// workload's own commit batches, on side writers in `dir`. The log that
/// is reopened and replayed is `replay_log` when given (the workload's
/// own), else the side writer's.
pub fn graph(
    layers: &mut Layers,
    dir: &Path,
    small: &[Vec<ExtendedTriple>],
    bulk: &[Vec<ExtendedTriple>],
    replay_log: Option<&Path>,
) -> Result<()> {
    let mut payload_bytes = 0usize;
    let mut payload_us = 0.0;
    for facts in bulk {
        let frame_bytes = Request::Commit(wire_batch(facts)).encode(1);
        let frame = read_frame(&mut frame_bytes.as_slice())
            .map_err(|e| saga_core::SagaError::Storage(e.to_string()))?
            .expect("one whole frame");
        layers.time("net.decode_commit_p50_us", || decode_request(&frame))?;
        let payload = Request::Commit(wire_batch(facts))
            .to_json()
            .to_string_compact();
        let t0 = Instant::now();
        saga_core::json::parse(&payload).expect("commit payload parses");
        payload_us += us_since(t0);
        payload_bytes += payload.len();
    }

    let side_path = dir.join("side.log");
    let side = writer_over(fsync_log(&side_path)?);
    for facts in small {
        layers.time("graph.commit_small_p50_us", || {
            side.commit(OpKind::Upsert, write_batch(facts))
        })?;
    }
    for facts in bulk {
        layers.time("graph.commit_bulk_p50_us", || {
            side.commit(OpKind::Upsert, write_batch(facts))
        })?;
    }
    let flushed = writer_over(OperationLog::durable_with(
        &dir.join("flush.log"),
        FlushPolicy::Flush,
    )?);
    for facts in small {
        flushed.commit(OpKind::Upsert, write_batch(facts))?;
        layers.time("graph.fsync_p50_us", || flushed.log().sync())?;
    }

    let replay_path = replay_log.unwrap_or(&side_path);
    let log = layers.time("graph.log_open_ms", || OperationLog::durable(replay_path))?;
    let mut replica = LiveReplica::new(SHARDS, Arc::new(log));
    layers.time("live.catch_up_ms", || replica.catch_up())?;
    let text = std::fs::read_to_string(replay_path)?;
    let t0 = Instant::now();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        saga_core::json::parse(line).expect("log line parses");
    }
    let log_us = us_since(t0);
    layers.push(
        "core.json_parse_us_per_kb",
        (log_us + payload_us) / ((text.len() + payload_bytes) as f64 / 1024.0),
    );

    let ckpt = CheckpointWriter::new(&side, dir.join("ckpt"));
    let receipt = layers.time("graph.checkpoint_ms", || ckpt.checkpoint_and_compact())?;
    let loaded = layers.time("core.ckpt_load_ms", || checkpoint::load(&receipt.path))?;
    drop(loaded);
    let facts = side.read().fact_count().max(1);
    layers.push(
        "core.ckpt_bytes_per_fact",
        std::fs::metadata(&receipt.path)?.len() as f64 / facts as f64,
    );
    Ok(())
}
