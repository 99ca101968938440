//! The read mix served over the wire: point reads, KGQ conjunctions
//! (a small hot set plus cold texts drawn from every corpus name) and
//! wide type scans, each checked against the oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saga_core::{EntityId, ExtendedTriple, Result, Value};
use saga_net::SagaPool;

use crate::common::{ms_since, oracle_of, record_ok, subject_of};
use crate::oracle::Oracle;

/// Result budget of a cold conjunction.
const COLD_LIMIT: usize = 20;
/// Result budget of a hot conjunction.
const HOT_LIMIT: usize = 50;
/// A description shared by at least this many entities is a hot text.
const HOT_MIN_SHARED: usize = 10;
/// Scan sizes (`FIND <type> LIMIT k`).
const SCAN_LIMITS: [usize; 3] = [300, 400, 500];

/// Request classes, reported separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `record` or `resolve_name`.
    Point,
    /// A conjunction from the hot set (plan cache hits).
    Hot,
    /// A conjunction never sent before (plan cache grows).
    Cold,
    /// `FIND <type> LIMIT k`.
    Scan,
}

/// One read request with what it must return.
pub enum ReadReq {
    /// `record(id)`.
    Record(u64),
    /// `resolve_name(name)`.
    Resolve(String),
    /// A KGQ text and its expected entity list.
    Query {
        /// Request class.
        kind: Kind,
        /// KGQ text.
        text: String,
        /// Expected ids, ascending.
        expected: Vec<u64>,
    },
}

impl ReadReq {
    /// The request's class.
    pub fn kind(&self) -> Kind {
        match self {
            ReadReq::Record(_) | ReadReq::Resolve(_) => Kind::Point,
            ReadReq::Query { kind, .. } => *kind,
        }
    }
}

/// Requests of each class in one round of one connection.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// `record` reads.
    pub record: usize,
    /// `resolve_name` reads.
    pub resolve: usize,
    /// Hot conjunctions.
    pub hot: usize,
    /// Cold conjunctions.
    pub cold: usize,
    /// Wide scans.
    pub scan: usize,
}

impl Mix {
    /// Requests per round.
    pub fn len(&self) -> usize {
        self.record + self.resolve + self.hot + self.cold + self.scan
    }
}

/// What reading connections saw.
#[derive(Default)]
pub struct Reads {
    /// Latency of every answered request, by class.
    pub lat_ms: Vec<(Kind, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Wrong replies and errors, described.
    pub wrong: Vec<String>,
    /// Answered requests per second, one sample per round.
    pub round_rates: Vec<f64>,
}

impl Reads {
    /// Latencies of one class.
    pub fn of(&self, kind: Kind) -> Vec<f64> {
        self.lat_ms
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, ms)| ms)
            .collect()
    }

    /// Fold another connection's tally into this one.
    pub fn absorb(&mut self, other: Reads) {
        self.lat_ms.extend(other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.round_rates.extend(other.round_rates);
    }
}

/// The served corpus as the read mix sees it: the oracle plus the
/// texts and ids requests are drawn from.
pub struct ReadCorpus {
    /// Expected answers.
    pub oracle: Oracle,
    ids: Vec<u64>,
    /// `(name, type)` pairs in a seeded order: the cold-text stream.
    names: Vec<(String, String)>,
    hot: Vec<(String, Vec<u64>)>,
    scans: Vec<(String, Vec<u64>)>,
}

impl ReadCorpus {
    /// Build the oracle and the request pools from the generated facts.
    pub fn new(facts: &[ExtendedTriple], seed: u64) -> ReadCorpus {
        let oracle = oracle_of(facts);
        let mut name_of: BTreeMap<u64, String> = BTreeMap::new();
        let mut type_of: BTreeMap<u64, String> = BTreeMap::new();
        let mut descriptions: BTreeMap<String, usize> = BTreeMap::new();
        for t in facts {
            let (Value::Str(s), p) = (&t.object, t.predicate.text()) else {
                continue;
            };
            match &*p {
                "name" => {
                    name_of.insert(subject_of(t), s.to_string());
                }
                "type" => {
                    type_of.insert(subject_of(t), s.to_string());
                }
                "description" => *descriptions.entry(s.to_string()).or_default() += 1,
                _ => {}
            }
        }
        let pairs: BTreeSet<(String, String)> = name_of
            .iter()
            .filter_map(|(id, n)| type_of.get(id).map(|ty| (n.clone(), ty.clone())))
            .collect();
        let mut names: Vec<(String, String)> = pairs.into_iter().collect();
        names.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xC01D));

        let hot = descriptions
            .iter()
            .filter(|(_, &n)| n >= HOT_MIN_SHARED)
            .map(|(d, _)| {
                let text = format!("FIND city WHERE description = \"{d}\" LIMIT {HOT_LIMIT}");
                let expected = oracle.find(
                    Some("city"),
                    &[],
                    &[("description", Value::str(d))],
                    HOT_LIMIT,
                );
                (text, expected)
            })
            .collect();
        let types: BTreeSet<&String> = type_of.values().collect();
        let scans = types
            .iter()
            .flat_map(|ty| {
                SCAN_LIMITS.map(|k| (format!("FIND {ty} LIMIT {k}"), oracle.scan(ty, k)))
            })
            .collect();
        ReadCorpus {
            ids: oracle.subjects().collect(),
            oracle,
            names,
            hot,
            scans,
        }
    }

    /// Hot KGQ texts.
    pub fn hot_texts(&self) -> impl Iterator<Item = &str> {
        self.hot.iter().map(|(t, _)| t.as_str())
    }

    /// Scan KGQ texts.
    pub fn scan_texts(&self) -> impl Iterator<Item = &str> {
        self.scans.iter().map(|(t, _)| t.as_str())
    }

    /// Number of distinct cold texts.
    pub fn cold_count(&self) -> usize {
        self.names.len()
    }

    /// The `i`-th cold text and its expected answer. Each pass over the
    /// names raises the limit by one, so no text ever repeats.
    pub fn cold(&self, i: usize) -> (String, Vec<u64>) {
        let (name, ty) = &self.names[i % self.names.len()];
        let limit = COLD_LIMIT + i / self.names.len();
        let text = format!("FIND {ty} WHERE name = \"{name}\" LIMIT {limit}");
        (text, self.oracle.find(Some(ty), &[name], &[], limit))
    }

    /// A sample of entity ids (for probes).
    pub fn sample_ids(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| self.ids[rng.gen_range(0..self.ids.len())])
            .collect()
    }

    /// One round of requests in a seeded order. Cold texts come from
    /// `next_cold`, which yields stream positions never used before.
    pub fn round(
        &self,
        rng: &mut StdRng,
        mix: &Mix,
        mut next_cold: impl FnMut() -> usize,
    ) -> Vec<ReadReq> {
        let mut reqs = Vec::with_capacity(mix.len());
        for _ in 0..mix.record {
            reqs.push(ReadReq::Record(self.ids[rng.gen_range(0..self.ids.len())]));
        }
        for _ in 0..mix.resolve {
            let (name, _) = &self.names[rng.gen_range(0..self.names.len())];
            reqs.push(ReadReq::Resolve(name.clone()));
        }
        for _ in 0..mix.hot {
            let (text, expected) = &self.hot[rng.gen_range(0..self.hot.len())];
            reqs.push(ReadReq::Query {
                kind: Kind::Hot,
                text: text.clone(),
                expected: expected.clone(),
            });
        }
        for _ in 0..mix.cold {
            let (text, expected) = self.cold(next_cold());
            reqs.push(ReadReq::Query {
                kind: Kind::Cold,
                text,
                expected,
            });
        }
        for _ in 0..mix.scan {
            let (text, expected) = &self.scans[rng.gen_range(0..self.scans.len())];
            reqs.push(ReadReq::Query {
                kind: Kind::Scan,
                text: text.clone(),
                expected: expected.clone(),
            });
        }
        reqs.shuffle(rng);
        reqs
    }

    /// Send a round in order, timing and checking every request.
    pub fn serve_round(&self, pool: &mut SagaPool, reqs: &[ReadReq], out: &mut Reads) {
        let t_round = Instant::now();
        let answered_before = out.lat_ms.len();
        for req in reqs {
            let t = Instant::now();
            let result = self.execute(pool, req);
            let ms = ms_since(t);
            out.attempted += 1;
            match result {
                Ok(ok) => {
                    out.lat_ms.push((req.kind(), ms));
                    if !ok {
                        out.wrong
                            .push(format!("{:?} reply differs from the oracle", req.kind()));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.wrong
                        .push(format!("{:?} request failed: {e}", req.kind()));
                }
            }
        }
        let answered = out.lat_ms.len() - answered_before;
        out.round_rates
            .push(answered as f64 / t_round.elapsed().as_secs_f64());
    }

    /// Send one request; `Ok(true)` if the reply equals the oracle's.
    fn execute(&self, pool: &mut SagaPool, req: &ReadReq) -> Result<bool> {
        Ok(match req {
            ReadReq::Record(id) => {
                let record = pool.record(EntityId(*id))?;
                record_ok(&self.oracle, *id, record.as_ref())
            }
            ReadReq::Resolve(name) => {
                let got = pool.resolve_name(name)?;
                got.iter().map(|e| e.0).eq(self.oracle.resolve_name(name))
            }
            ReadReq::Query { text, expected, .. } => {
                let got = pool.query(text)?;
                got.entities()
                    .iter()
                    .map(|e| e.0)
                    .eq(expected.iter().copied())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_core::{intern, FactMeta};

    /// Twelve cities sharing one description, one with a second name
    /// token, and a place.
    fn tiny() -> Vec<ExtendedTriple> {
        let fact = |id: u64, p: &str, v: Value| {
            ExtendedTriple::simple(EntityId(id), intern(p), v, FactMeta::default())
        };
        let mut facts = Vec::new();
        for id in 1..=12 {
            facts.push(fact(id, "name", Value::str(format!("Town {id}"))));
            facts.push(fact(id, "type", Value::str("city")));
            facts.push(fact(id, "description", Value::str("Major city")));
        }
        facts.push(fact(20, "name", Value::str("Town")));
        facts.push(fact(20, "type", Value::str("place")));
        facts
    }

    #[test]
    fn hot_texts_are_shared_descriptions_and_scans_cover_every_type() {
        let corpus = ReadCorpus::new(&tiny(), 1);
        let hot: Vec<&str> = corpus.hot_texts().collect();
        assert_eq!(
            hot,
            ["FIND city WHERE description = \"Major city\" LIMIT 50"]
        );
        assert_eq!(corpus.hot[0].1, (1..=12).collect::<Vec<u64>>());
        let scans: Vec<&str> = corpus.scan_texts().collect();
        assert_eq!(scans.len(), 6, "3 sizes x 2 types");
        assert!(scans.contains(&"FIND place LIMIT 300"));
    }

    #[test]
    fn cold_texts_pair_each_name_with_its_type() {
        let corpus = ReadCorpus::new(&tiny(), 1);
        assert_eq!(corpus.cold_count(), 13);
        let mut seen = Vec::new();
        for i in 0..corpus.cold_count() {
            let (text, expected) = corpus.cold(i);
            if text == "FIND place WHERE name = \"Town\" LIMIT 20" {
                // The token "town" also names every city, but the type
                // condition keeps only the place.
                assert_eq!(expected, vec![20]);
            }
            if text == "FIND city WHERE name = \"Town 3\" LIMIT 20" {
                assert_eq!(expected, vec![3]);
            }
            seen.push(text);
        }
        let (wrapped, _) = corpus.cold(corpus.cold_count());
        assert!(wrapped.ends_with("LIMIT 21"), "{wrapped}");
        seen.push(wrapped);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 14, "the cold stream never repeats a text");
    }

    #[test]
    fn rounds_follow_the_mix() {
        let corpus = ReadCorpus::new(&tiny(), 1);
        let mix = Mix {
            record: 3,
            resolve: 2,
            hot: 1,
            cold: 2,
            scan: 1,
        };
        let mut next = 0;
        let round = corpus.round(&mut StdRng::seed_from_u64(9), &mix, || {
            next += 1;
            next - 1
        });
        assert_eq!(round.len(), mix.len());
        let count = |k: Kind| round.iter().filter(|r| r.kind() == k).count();
        assert_eq!(count(Kind::Point), 5);
        assert_eq!(count(Kind::Hot), 1);
        assert_eq!(count(Kind::Cold), 2);
        assert_eq!(count(Kind::Scan), 1);
        assert_eq!(next, 2, "each cold request takes a fresh stream position");
    }
}
