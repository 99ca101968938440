//! `construct_cycle`: construction with serving idle.
//!
//! One round onboards two noisy `MusicWorld` song providers (the batch
//! half), then onboards one clean provider and runs its delta cycles over
//! an evolving world (ingest, then `consume_logged` into an
//! fsync-per-append log). It then opens the log file cold and replays it
//! into a fresh `LiveReplica`, checkpoints and compacts, and bootstraps a
//! replica from checkpoint + tail. Rounds repeat until the window closes.
//!
//! Hard checks: the writer's graph, the replayed replica and the
//! bootstrapped replica hold the same fact set. Counted checks: every
//! song live in the final world version reads its current title and
//! duration from the clean provider. Retraction erasing merged siblings
//! (a known fault) fails some of these; the world is generated from a
//! fixed seed so that count does not move with `--seed`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use saga_construct::{KnowledgeConstructor, LinkTableResolver, RuleMatcher, SourceBatch};
use saga_core::{intern, Dataset, EntityRecord, IdGenerator, Result, SourceId, Symbol, Value};
use saga_graph::{CheckpointWriter, LoggedWriter, OperationLog};
use saga_ingest::synth::{provider_datasets, song_alignment, GroundSong, MusicWorld, ProviderSpec};
use saga_ingest::{DataTransformer, SourceIngestionPipeline, TransformSpec};
use saga_live::LiveReplica;
use saga_ontology::{default_ontology, Ontology};

use crate::common::{
    chunks, fsync_log, ms_since, peak_rss_mb, rss_mb, writer_over, CpuTicks, Report, Run, Stack,
    BULK_FACTS, SMALL_FACTS,
};
use crate::layers::Layers;
use crate::probes::{self, ProbeTexts, SHARDS};
use crate::stats::{median, Summary};

/// Seed of the world, the providers' noise and the evolution: fixed, so
/// the counted song failures are the same at every `--seed`.
const WORLD_SEED: u64 = 5;
/// Cold replays and bootstraps per round.
const RESTARTS: usize = 2;
/// Construction lanes running rounds side by side (`nproc` on the
/// reference host). Each lane has its own graph, log and files.
const LANES: usize = 2;
/// The clean provider's source id and local-id prefix.
const CLEAN: (u32, &str) = (1, "c_");

/// Sizes of one construction round.
#[derive(Clone, Copy)]
struct Shape {
    /// Ground-truth artists.
    artists: usize,
    /// Songs per artist (each gets `songs/2..=songs`).
    songs_per_artist: usize,
    /// Noisy providers onboarded in the batch half.
    noisy: usize,
    /// Delta cycles of the clean provider after its onboarding cycle.
    delta_cycles: usize,
    /// `MusicWorld::evolve(adds, update_rate, delete_rate)` per cycle.
    evolve: (usize, f64, f64),
}

/// The workload's shape.
const SHAPE: Shape = Shape {
    artists: 200,
    songs_per_artist: 4,
    noisy: 2,
    delta_cycles: 10,
    evolve: (3, 0.05, 0.02),
};

/// The smaller shape other workloads' traced runs use to time the
/// construct and ingest layers.
const PROBE_SHAPE: Shape = Shape {
    artists: 30,
    songs_per_artist: 4,
    noisy: 2,
    delta_cycles: 4,
    evolve: (2, 0.05, 0.02),
};

/// Generated inputs: what each provider publishes at each step.
struct Inputs {
    /// Songs datasets of the noisy providers (world version 0).
    noisy: Vec<Dataset>,
    /// The clean provider's songs dataset at its onboarding cycle, then
    /// at each delta cycle.
    clean: Vec<Dataset>,
    /// Songs live in the final world version.
    final_songs: Vec<GroundSong>,
}

impl Inputs {
    fn new(shape: &Shape) -> Inputs {
        let mut world = MusicWorld::generate(WORLD_SEED, shape.artists, shape.songs_per_artist);
        let noisy = (0..shape.noisy)
            .map(|i| {
                let spec = ProviderSpec::noisy(WORLD_SEED * 100 + i as u64, &format!("n{i}_"));
                provider_datasets(&world, &spec).1
            })
            .collect();
        let clean_spec = ProviderSpec::clean(WORLD_SEED, CLEAN.1);
        let mut clean = Vec::new();
        for cycle in 0..=shape.delta_cycles {
            if cycle > 0 {
                let (adds, update, delete) = shape.evolve;
                world.evolve(adds, update, delete);
            }
            clean.push(provider_datasets(&world, &clean_spec).1);
        }
        Inputs {
            noisy,
            clean,
            final_songs: world.songs,
        }
    }
}

fn song_pipeline(source: u32, name: &str) -> SourceIngestionPipeline {
    SourceIngestionPipeline::new(
        SourceId(source),
        name,
        DataTransformer::new(TransformSpec::simple("song_id")),
        song_alignment(0.9),
    )
}

/// The construction stack before its first cycle: ontology, constructor
/// and the onboarding batches ingested from the noisy providers.
struct Setup {
    ontology: Ontology,
    ctor: KnowledgeConstructor,
    onboarding: Vec<SourceBatch>,
}

fn set_up(inputs: &Inputs) -> Result<Setup> {
    let ontology = default_ontology();
    let mut ctor = KnowledgeConstructor::new(ontology.volatile_predicates());
    // Serial consumption: the parallel cycle builds a different graph
    // from the same inputs from run to run (see README), which would make
    // the counted song checks vary.
    ctor.parallel = false;
    let mut onboarding = Vec::new();
    for (i, songs) in inputs.noisy.iter().enumerate() {
        let mut pipe = song_pipeline(10 + i as u32, &format!("noisy-{i}"));
        let (delta, _) = pipe.ingest(&ontology, std::slice::from_ref(songs))?;
        onboarding.push(SourceBatch {
            source: pipe.source(),
            name: pipe.name().to_string(),
            delta,
        });
    }
    Ok(Setup {
        ontology,
        ctor,
        onboarding,
    })
}

/// What one round measured and checked.
#[derive(Default)]
struct Round {
    onboard_ms: f64,
    clean_onboard_ms: f64,
    ingest_ms: Vec<f64>,
    consume_ms: Vec<f64>,
    cycle_ms: Vec<f64>,
    payloads: usize,
    changes: usize,
    pairs_scored: usize,
    facts_added: usize,
    wal_bytes: u64,
    replay_ms: Vec<f64>,
    checkpoint_ms: f64,
    bootstrap_ms: Vec<f64>,
    round_ms: f64,
    songs: usize,
    song_failures: usize,
    mismatches: Vec<String>,
    writer: Option<Arc<LoggedWriter>>,
}

/// The served form of every fact of a set of records, sorted: what a
/// replica can hold. Replication ships `(predicate, object)` pairs, with
/// composite facets as `predicate.facet`; metadata, nulls and unresolved
/// source references stay with the writer's graph.
fn fact_set<'a>(records: impl Iterator<Item = &'a EntityRecord>) -> Vec<String> {
    let mut facts: Vec<String> = records
        .flat_map(|r| {
            r.triples.iter().filter_map(move |t| {
                if matches!(t.object, Value::Null | Value::SourceRef(_)) {
                    return None;
                }
                let facet = t
                    .rel
                    .map(|rel| format!(".{}", rel.rel_predicate.text()))
                    .unwrap_or_default();
                Some(format!(
                    "{}|{}{facet}|{:?}",
                    r.id.0,
                    t.predicate.text(),
                    t.object
                ))
            })
        })
        .collect();
    facts.sort_unstable();
    facts
}

fn replica_facts(replica: &LiveReplica) -> Vec<String> {
    let records: Vec<EntityRecord> = replica
        .live()
        .entity_ids()
        .into_iter()
        .filter_map(|id| replica.live().get(id))
        .collect();
    fact_set(records.iter())
}

/// True if the record holds the song's current title and duration.
fn song_is_current(
    record: Option<&EntityRecord>,
    song: &GroundSong,
    name: Symbol,
    secs: Symbol,
) -> bool {
    record.is_some_and(|r| {
        r.values(name)
            .iter()
            .any(|v| v.as_str() == Some(song.title.as_str()))
            && r.values(secs).contains(&&Value::Int(song.duration))
    })
}

fn round(inputs: &Inputs, setup: &Setup, dir: &Path, keep_log_copy: bool) -> Result<Round> {
    let mut out = Round::default();
    let log_path = dir.join("oplog");
    let writer = writer_over(fsync_log(&log_path)?);
    let id_gen = IdGenerator::starting_at(1);
    let t_round = Instant::now();

    let consume = |batches: Vec<SourceBatch>, out: &mut Round| -> Result<f64> {
        let t = Instant::now();
        let (report, _) = setup.ctor.consume_logged(
            &writer,
            &id_gen,
            batches,
            &RuleMatcher::default(),
            &LinkTableResolver,
        )?;
        let ms = ms_since(t);
        out.pairs_scored += report.pairs_scored;
        out.facts_added += report.deltas.iter().map(|d| d.added.len()).sum::<usize>();
        Ok(ms)
    };
    out.payloads += setup
        .onboarding
        .iter()
        .map(|b| b.delta.change_count())
        .sum::<usize>();
    out.onboard_ms = consume(setup.onboarding.clone(), &mut out)?;

    let mut clean = song_pipeline(CLEAN.0, "clean");
    for (cycle, songs) in inputs.clean.iter().enumerate() {
        let t = Instant::now();
        let (delta, _) = clean.ingest(&setup.ontology, std::slice::from_ref(songs))?;
        let ingest_ms = ms_since(t);
        out.changes += delta.change_count();
        out.payloads += delta.change_count();
        let batch = SourceBatch {
            source: clean.source(),
            name: clean.name().to_string(),
            delta,
        };
        let consume_ms = consume(vec![batch], &mut out)?;
        if cycle == 0 {
            out.clean_onboard_ms = ingest_ms + consume_ms;
            continue;
        }
        out.ingest_ms.push(ingest_ms);
        out.consume_ms.push(consume_ms);
        out.cycle_ms.push(ingest_ms + consume_ms);
    }
    out.wal_bytes = std::fs::metadata(&log_path)?.len();
    if keep_log_copy {
        std::fs::copy(&log_path, dir.join("oplog.copy"))?;
    }

    let mut replayed = None;
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let mut replica = LiveReplica::new(SHARDS, Arc::new(OperationLog::durable(&log_path)?));
        replica.catch_up()?;
        out.replay_ms.push(ms_since(t));
        replayed = Some(replica);
    }
    let ckpt_dir = dir.join("ckpt");
    let t = Instant::now();
    CheckpointWriter::new(&writer, &ckpt_dir).checkpoint_and_compact()?;
    out.checkpoint_ms = ms_since(t);
    let mut booted = None;
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let log = Arc::new(OperationLog::durable(&log_path)?);
        booted = Some(LiveReplica::bootstrap(SHARDS, &ckpt_dir, log)?);
        out.bootstrap_ms.push(ms_since(t));
    }
    out.round_ms = ms_since(t_round);

    // Hard checks: writer graph ≡ file replay ≡ checkpoint bootstrap.
    let kg = writer.read();
    let built = fact_set(kg.entities());
    for (what, replica) in [("file replay", &replayed), ("bootstrap", &booted)] {
        let got = replica_facts(replica.as_ref().expect("restarted at least once"));
        if got != built {
            out.mismatches.push(format!(
                "{what} holds {} facts, the writer's graph {}",
                got.len(),
                built.len()
            ));
        }
    }
    // Counted checks: each live song reads its current title and duration.
    let (name, secs) = (intern("name"), intern("duration_s"));
    for song in &inputs.final_songs {
        let local = format!("{}s{}", CLEAN.1, song.key);
        let record = kg
            .lookup_link(SourceId(CLEAN.0), &local)
            .and_then(|id| kg.entity(id));
        out.songs += 1;
        if !song_is_current(record, song, name, secs) {
            out.song_failures += 1;
        }
    }
    drop(kg);
    out.writer = Some(writer);
    Ok(out)
}

/// Construct and ingest layer timings for traced runs of the other
/// workloads, from one round of a smaller fixed world.
pub fn probe(layers: &mut Layers, run: &Run) -> Result<()> {
    let inputs = Inputs::new(&PROBE_SHAPE);
    let setup = set_up(&inputs)?;
    let r = round(&inputs, &setup, &run.subdir("construct-probe"), false)?;
    record_layers(layers, std::slice::from_ref(&r));
    Ok(())
}

/// Construct and ingest layer figures of some rounds. Every round does
/// the same work, so counts come from the first.
fn record_layers(layers: &mut Layers, rounds: &[Round]) {
    for r in rounds {
        for &ms in &r.consume_ms {
            layers.push("construct.delta_p50_ms", ms);
        }
        for &ms in &r.ingest_ms {
            layers.push("ingest.delta_p50_ms", ms);
        }
    }
    let onboard: Vec<f64> = rounds.iter().map(|r| r.onboard_ms).collect();
    layers.push("construct.onboard_ms", median(&onboard));
    layers.push("construct.pairs_scored", rounds[0].pairs_scored as f64);
    layers.push("ingest.changes", rounds[0].changes as f64);
}

/// Rounds of one construction lane.
struct Lane {
    rounds: Vec<Round>,
    setups: Vec<f64>,
}

/// Run whole rounds on one lane until the window that opened at `t0`
/// closes.
fn lane(l: usize, inputs: &Inputs, run: &Run, t0: Instant) -> Result<Lane> {
    let mut out = Lane {
        rounds: Vec::new(),
        setups: Vec::new(),
    };
    while out.rounds.is_empty() || t0.elapsed() < run.window() {
        let dir = run.subdir(&format!("lane{l}-round{}", out.rounds.len() % 2));
        let t = Instant::now();
        let setup = set_up(inputs)?;
        out.setups.push(t.elapsed().as_secs_f64());
        let r = round(inputs, &setup, &dir, run.trace)?;
        // The previous round's writer and files are no longer needed.
        if let Some(prev) = out.rounds.last_mut() {
            prev.writer = None;
        }
        out.rounds.push(r);
    }
    Ok(out)
}

/// Run the workload. `--seed` does not change its inputs (see the module
/// docs).
pub fn run(run: &Run) -> Result<Report> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let inputs = Inputs::new(&SHAPE);
    report.note(format!(
        "construct_cycle: MusicWorld::generate({WORLD_SEED}, {}, {}) + {} noisy providers, {} delta cycles of evolve{:?}; {} songs live at the end",
        SHAPE.artists, SHAPE.songs_per_artist, SHAPE.noisy, SHAPE.delta_cycles, SHAPE.evolve, inputs.final_songs.len()
    ));

    report.note(format!(
        "construct_cycle: memory before set-up (inputs and oracle): VmRSS {:.1} MB",
        rss_mb()
    ));

    // Every round starts from its own set-up, so `setup_s` is a median
    // over the whole window.
    let t0 = Instant::now();
    let ticks = CpuTicks::now();
    let lanes: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|l| {
                let inputs = &inputs;
                s.spawn(move || lane(l, inputs, run, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("construction lane"))
            .collect::<Result<Vec<Lane>>>()
    })?;
    let steal = ticks.steal_pct_since();
    let setups: Vec<f64> = lanes
        .iter()
        .flat_map(|l| l.setups.iter().copied())
        .collect();
    let mut lanes = lanes.into_iter();
    let mut rounds: Vec<Round> = lanes.next().expect("one lane at least").rounds;
    let last_dir = run
        .dir
        .join(format!("lane0-round{}", (rounds.len() - 1) % 2));
    let last_writer = rounds.last_mut().and_then(|r| r.writer.take());
    rounds.extend(lanes.flat_map(|l| l.rounds));
    for r in &rounds {
        report.attempted += (r.songs + 1 + inputs.clean.len()) as u64;
        report.failed += r.song_failures as u64;
        for m in &r.mismatches {
            report.check(false, || m.clone());
        }
    }

    let all = |f: fn(&Round) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let cycles = Summary::of(&all(|r| &r.cycle_ms));
    // One sample per round: its delta half, per cycle. Cycles of one
    // round differ in size; their mean is the steadier sample.
    let delta_means: Vec<f64> = rounds
        .iter()
        .map(|r| r.cycle_ms.iter().sum::<f64>() / r.cycle_ms.len() as f64)
        .collect();
    let delta_rounds = Summary::of(&delta_means);
    let replays = Summary::of(&all(|r| &r.replay_ms));
    let boots = Summary::of(&all(|r| &r.bootstrap_ms));
    let onboard: Vec<f64> = rounds.iter().map(|r| r.onboard_ms).collect();
    // Every round does the same work, so any one stands for all.
    let last = rounds.first().expect("at least one round");
    report.note(format!(
        "  rounds: {} over {LANES} lanes in {:.2} s; host steal while measuring: {steal:.1} % of CPU time",
        rounds.len(),
        t0.elapsed().as_secs_f64()
    ));
    report.note(format!(
        "  onboarding cycle: median {:.3} ms over {} rounds; set-up median {:.3} ms",
        median(&onboard),
        rounds.len(),
        median(&setups) * 1e3
    ));
    report.note(format!(
        "  delta cycles (ingest + consume_logged): {}; per-round mean {}",
        cycles.describe("ms"),
        delta_rounds.describe("ms")
    ));
    let clean_onboard: Vec<f64> = rounds.iter().map(|r| r.clean_onboard_ms).collect();
    report.note(format!(
        "  clean provider's onboarding cycle: median {:.3} ms",
        median(&clean_onboard)
    ));
    report.note(format!("  cold replays: {}", replays.describe("ms")));
    report.note(format!("  bootstraps: {}", boots.describe("ms")));
    report.note(format!(
        "  log bytes per fact added: {:.1} ({} bytes, {} facts)",
        last.wal_bytes as f64 / last.facts_added.max(1) as f64,
        last.wal_bytes,
        last.facts_added
    ));
    report.note(format!(
        "  songs reading a stale title or duration: {} of {} per round",
        last.song_failures, last.songs
    ));

    report.metric("setup_s", "s", median(&setups));
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    // The rate of the median round, over the lanes (see serve_read).
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.payloads as f64 / (r.round_ms / 1e3))
        .collect();
    report.metric("work_per_s", "1/s", LANES as f64 * median(&rates));
    report.metric("op_p50_ms", "ms", delta_rounds.p50);
    report.metric("heavy_p50_ms", "ms", replays.p50);
    if run.trace {
        let mut layers = Layers::default();
        record_layers(&mut layers, &rounds);

        let dir = last_dir;
        let writer = last_writer.expect("a lane's last round keeps its writer");
        let records: Vec<EntityRecord> = writer.read().entities().cloned().collect();
        let facts: Vec<_> = records
            .iter()
            .flat_map(|r| r.triples.iter().cloned())
            .collect();
        let small = chunks(&facts, SMALL_FACTS);
        let bulk = chunks(&facts, BULK_FACTS);
        probes::graph(
            &mut layers,
            &run.subdir("graph"),
            &small[..small.len().min(40)],
            &bulk[..bulk.len().min(10)],
            Some(&dir.join("oplog.copy")),
        )?;

        let stack = Stack::start(
            writer,
            saga_fleet::FleetConfig {
                replicas: 2,
                shards: SHARDS,
                ..saga_fleet::FleetConfig::default()
            },
            &dir.join("ckpt"),
            None,
        )?;
        let titles: Vec<String> = {
            let mut t: Vec<String> = inputs.final_songs.iter().map(|s| s.title.clone()).collect();
            t.sort();
            t.dedup();
            t
        };
        let text = |title: &String| format!("FIND song WHERE name = \"{title}\"");
        let hot: Vec<String> = titles.iter().take(16).map(text).collect();
        for t in &hot {
            stack.router.query(t)?;
        }
        let mut ids: Vec<u64> = records.iter().map(|r| r.id.0).collect();
        ids.truncate(1000);
        let texts = ProbeTexts {
            hot,
            cold: titles.iter().skip(16).take(200).map(text).collect(),
            scans: [300, 400, 500]
                .map(|k| format!("FIND song LIMIT {k}"))
                .to_vec(),
            scan_types: vec!["song".to_string()],
            ids,
        };
        probes::serving(&mut layers, &stack, &texts)?;
        stack.shutdown();
        layers.report_into(&mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{EntityId, ExtendedTriple, FactMeta, RelId, RelPart};

    fn fact(id: u64, p: &str, v: Value, source: u32) -> ExtendedTriple {
        ExtendedTriple::simple(
            EntityId(id),
            intern(p),
            v,
            FactMeta::from_source(SourceId(source), 0.9),
        )
    }

    #[test]
    fn fact_sets_keep_what_replicas_serve() {
        let mut writer = EntityRecord::new(EntityId(3));
        writer.triples = vec![
            fact(3, "name", Value::str("Halo"), 1),
            fact(3, "performed_by", Value::SourceRef("c_a1".into()), 1),
            fact(3, "note", Value::Null, 1),
            ExtendedTriple {
                rel: Some(RelPart {
                    rel_id: RelId(0),
                    rel_predicate: intern("school"),
                }),
                ..fact(3, "educated_at", Value::Entity(EntityId(9)), 2)
            },
        ];
        // The replica's copy: same served facts, no metadata, no
        // unresolved references, in another order.
        let mut replica = EntityRecord::new(EntityId(3));
        replica.triples = vec![
            ExtendedTriple {
                rel: Some(RelPart {
                    rel_id: RelId(0),
                    rel_predicate: intern("school"),
                }),
                ..fact(3, "educated_at", Value::Entity(EntityId(9)), 0)
            },
            ExtendedTriple::simple(
                EntityId(3),
                intern("name"),
                Value::str("Halo"),
                FactMeta::default(),
            ),
        ];
        assert_eq!(
            fact_set([&writer].into_iter()),
            fact_set([&replica].into_iter())
        );
        assert_eq!(fact_set([&writer].into_iter()).len(), 2);
        replica.triples.pop();
        assert_ne!(
            fact_set([&writer].into_iter()),
            fact_set([&replica].into_iter())
        );
    }

    #[test]
    fn a_song_is_current_only_with_its_title_and_duration() {
        let song = GroundSong {
            key: 4,
            artist_key: 1,
            title: "Blue Sky".into(),
            duration: 200,
        };
        let (name, secs) = (intern("name"), intern("duration_s"));
        let mut record = EntityRecord::new(EntityId(8));
        record.triples = vec![
            fact(8, "name", Value::str("Blue Skyy"), 10),
            fact(8, "name", Value::str("Blue Sky"), 1),
            fact(8, "duration_s", Value::Int(200), 1),
        ];
        assert!(song_is_current(Some(&record), &song, name, secs));
        record.triples.remove(1);
        assert!(
            !song_is_current(Some(&record), &song, name, secs),
            "stale title"
        );
        assert!(
            !song_is_current(None, &song, name, secs),
            "link to a removed record"
        );
    }
}
