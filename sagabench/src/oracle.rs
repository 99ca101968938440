//! Expected answers computed from the generated facts alone.
//!
//! Nothing here goes through a saga index, query engine or codec: the
//! oracle keeps the facts the benchmark generated (or committed) as
//! plain sorted lists and answers every served read kind by scanning
//! and sorting them. A reply is correct when it equals the oracle's
//! answer exactly.

use std::collections::{BTreeMap, HashMap};

use saga_core::Value;

/// Canonical text of one `(predicate, object)` pair. Records compare as
/// sorted lists of these keys, so a record is a multiset of facts.
pub fn fact_key(predicate: &str, object: &Value) -> String {
    format!("{predicate}={object:?}")
}

/// The keys a name or alias string answers to: each lowercased
/// alphanumeric token, plus the whole lowercased phrase.
pub fn name_keys(name: &str) -> Vec<String> {
    let mut keys: Vec<String> = name
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect();
    keys.push(name.to_lowercase());
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Insert `id` into an ascending, duplicate-free list.
fn insert_sorted(list: &mut Vec<u64>, id: u64) {
    if let Err(at) = list.binary_search(&id) {
        list.insert(at, id);
    }
}

/// Ascending intersection of ascending lists (plain merge by probing
/// the shortest list's members in the others).
fn intersect(lists: &[&[u64]]) -> Vec<u64> {
    let Some(shortest) = lists.iter().min_by_key(|l| l.len()) else {
        return Vec::new();
    };
    shortest
        .iter()
        .copied()
        .filter(|id| lists.iter().all(|l| l.binary_search(id).is_ok()))
        .collect()
}

/// The expected state of a served graph, built from plain facts.
#[derive(Default)]
pub struct Oracle {
    /// Sorted fact keys per subject.
    records: BTreeMap<u64, Vec<String>>,
    /// Subjects per name key (ascending).
    by_name: HashMap<String, Vec<u64>>,
    /// Subjects per fact key (ascending); types are `type` facts.
    by_fact: HashMap<String, Vec<u64>>,
    facts: usize,
}

impl Oracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Record one fact about `subject`.
    pub fn add(&mut self, subject: u64, predicate: &str, object: &Value) {
        let key = fact_key(predicate, object);
        let record = self.records.entry(subject).or_default();
        let at = record.partition_point(|k| k <= &key);
        record.insert(at, key.clone());
        insert_sorted(self.by_fact.entry(key).or_default(), subject);
        if predicate == "name" || predicate == "alias" {
            if let Value::Str(s) = object {
                for k in name_keys(s) {
                    insert_sorted(self.by_name.entry(k).or_default(), subject);
                }
            }
        }
        self.facts += 1;
    }

    /// Subjects known to the oracle.
    pub fn entity_count(&self) -> usize {
        self.records.len()
    }

    /// Facts known to the oracle.
    pub fn fact_count(&self) -> usize {
        self.facts
    }

    /// Every subject, ascending.
    pub fn subjects(&self) -> impl Iterator<Item = u64> + '_ {
        self.records.keys().copied()
    }

    /// The expected record of `id` as sorted fact keys.
    fn record(&self, id: u64) -> Option<&[String]> {
        self.records.get(&id).map(Vec::as_slice)
    }

    /// True if `facts` (in any order) is exactly the expected record of
    /// `id`; an absent record matches only an unknown id.
    pub fn record_matches<'a>(
        &self,
        id: u64,
        facts: Option<impl IntoIterator<Item = (&'a str, &'a Value)>>,
    ) -> bool {
        match (self.record(id), facts) {
            (None, None) => true,
            (Some(expected), Some(got)) => {
                let mut got: Vec<String> = got.into_iter().map(|(p, o)| fact_key(p, o)).collect();
                got.sort_unstable();
                got == expected
            }
            _ => false,
        }
    }

    /// `resolve_name`: subjects with a name or alias answering to `name`.
    pub fn resolve_name(&self, name: &str) -> Vec<u64> {
        self.by_name
            .get(&name.to_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// `FIND <ty> LIMIT k`: the first `k` ascending subjects of a type.
    pub fn scan(&self, ty: &str, limit: usize) -> Vec<u64> {
        let key = fact_key("type", &Value::str(ty));
        let mut ids = self.by_fact.get(&key).cloned().unwrap_or_default();
        ids.truncate(limit);
        ids
    }

    /// A `FIND` conjunction: the first `limit` ascending subjects with
    /// the type, every name and every literal.
    pub fn find(
        &self,
        ty: Option<&str>,
        names: &[&str],
        literals: &[(&str, Value)],
        limit: usize,
    ) -> Vec<u64> {
        let mut keys: Vec<String> = Vec::new();
        if let Some(ty) = ty {
            keys.push(fact_key("type", &Value::str(ty)));
        }
        keys.extend(literals.iter().map(|(p, v)| fact_key(p, v)));
        let empty: Vec<u64> = Vec::new();
        let mut lists: Vec<&[u64]> = keys
            .iter()
            .map(|k| self.by_fact.get(k).unwrap_or(&empty).as_slice())
            .collect();
        for name in names {
            lists.push(
                self.by_name
                    .get(&name.to_lowercase())
                    .unwrap_or(&empty)
                    .as_slice(),
            );
        }
        let mut ids = intersect(&lists);
        ids.truncate(limit);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built graph: two cities sharing a name, a town, a country.
    fn tiny() -> Oracle {
        let mut o = Oracle::new();
        let facts: [(u64, &str, Value); 11] = [
            (4, "name", Value::str("Springfield")),
            (4, "type", Value::str("city")),
            (4, "located_in", Value::Entity(saga_core::EntityId(9))),
            (2, "name", Value::str("Springfield")),
            (2, "type", Value::str("city")),
            (2, "description", Value::str("Small town")),
            (7, "name", Value::str("Shelby Ville")),
            (7, "alias", Value::str("Shelbyville")),
            (7, "type", Value::str("city")),
            (9, "name", Value::str("Usa")),
            (9, "type", Value::str("place")),
        ];
        for (s, p, v) in &facts {
            o.add(*s, p, v);
        }
        o
    }

    #[test]
    fn name_keys_are_tokens_plus_phrase() {
        assert_eq!(
            name_keys("Shelby Ville"),
            vec!["shelby", "shelby ville", "ville"]
        );
        assert_eq!(name_keys("Ward-3"), vec!["3", "ward", "ward-3"]);
    }

    #[test]
    fn records_compare_as_multisets_in_any_order() {
        let o = tiny();
        let usa = Value::str("Usa");
        let place = Value::str("place");
        assert!(o.record_matches(9, Some([("type", &place), ("name", &usa)])));
        assert!(!o.record_matches(9, Some([("name", &usa)])));
        assert!(!o.record_matches(
            9,
            Some([("name", &usa), ("type", &place), ("type", &place)])
        ));
        assert!(!o.record_matches(9, None::<[(&str, &Value); 0]>));
        assert!(o.record_matches(99, None::<[(&str, &Value); 0]>));
        assert_eq!(o.entity_count(), 4);
        assert_eq!(o.fact_count(), 11);
    }

    #[test]
    fn resolve_name_matches_phrases_tokens_and_aliases_ascending() {
        let o = tiny();
        assert_eq!(o.resolve_name("SPRINGFIELD"), vec![2, 4]);
        assert_eq!(o.resolve_name("ville"), vec![7]);
        assert_eq!(o.resolve_name("shelbyville"), vec![7]);
        assert_eq!(o.resolve_name("nowhere"), Vec::<u64>::new());
    }

    #[test]
    fn scans_take_the_first_k_ascending_ids_of_a_type() {
        let o = tiny();
        assert_eq!(o.scan("city", 2), vec![2, 4]);
        assert_eq!(o.scan("city", 10), vec![2, 4, 7]);
        assert_eq!(o.scan("song", 10), Vec::<u64>::new());
    }

    #[test]
    fn conjunctions_need_every_condition() {
        let o = tiny();
        assert_eq!(o.find(Some("city"), &["Springfield"], &[], 10), vec![2, 4]);
        assert_eq!(
            o.find(
                Some("city"),
                &["Springfield"],
                &[("description", Value::str("Small town"))],
                10
            ),
            vec![2]
        );
        assert_eq!(
            o.find(
                None,
                &[],
                &[("located_in", Value::Entity(saga_core::EntityId(9)))],
                10
            ),
            vec![4]
        );
        assert_eq!(
            o.find(Some("place"), &["Springfield"], &[], 10),
            Vec::<u64>::new()
        );
        assert_eq!(o.find(Some("city"), &[], &[], 1), vec![2]);
    }
}
