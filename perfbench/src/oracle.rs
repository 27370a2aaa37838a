//! Ground truth: the generated records and the answers they imply. Every
//! result the system returns is compared against it; a mismatch is a
//! failed operation, never a silently accepted one.

use asterix_adm::Value;
use std::collections::{BTreeMap, HashMap};

/// Modulus of the analytics predicate `m.messageId % MOD != s`.
pub const MOD: i64 = 16;
/// `LIMIT k` of the analytics template.
pub const TOP_K: usize = 10;

/// Location-bearing fields of one generated message.
#[derive(Clone, Copy, Debug)]
pub struct MessageFacts {
    pub id: i64,
    pub author: i64,
    pub location: Option<(f64, f64)>,
}

impl MessageFacts {
    pub fn of(record: &Value) -> MessageFacts {
        let id = record
            .field("messageId")
            .as_i64()
            .expect("generated messageId");
        let author = record
            .field("authorId")
            .as_i64()
            .expect("generated authorId");
        let location = match record.field("senderLocation") {
            Value::Point(p) => Some((p.x, p.y)),
            _ => None,
        };
        MessageFacts {
            id,
            author,
            location,
        }
    }
}

/// Per-author message counts split by `messageId % MOD`.
#[derive(Clone, Default)]
pub struct AuthorCounts {
    by_residue: HashMap<i64, [u32; MOD as usize]>,
}

impl AuthorCounts {
    pub fn add(&mut self, m: &MessageFacts) {
        self.by_residue.entry(m.author).or_insert([0; MOD as usize])
            [m.id.rem_euclid(MOD) as usize] += 1;
    }

    /// Count per author of messages with `messageId % MOD != skip`.
    pub fn excluding(&self, skip: i64) -> HashMap<i64, u64> {
        self.by_residue
            .iter()
            .map(|(a, r)| {
                let n: u64 = r
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i as i64 != skip)
                    .map(|(_, c)| u64::from(*c))
                    .sum();
                (*a, n)
            })
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

/// The loaded data set as the benchmark generated it.
pub struct GroundTruth {
    /// Messages by id, exactly as generated.
    pub messages: BTreeMap<i64, Value>,
    facts: Vec<MessageFacts>,
    by_author: HashMap<i64, Vec<i64>>,
    pub counts: AuthorCounts,
}

impl GroundTruth {
    pub fn new(messages: &[Value]) -> GroundTruth {
        let facts: Vec<MessageFacts> = messages.iter().map(MessageFacts::of).collect();
        let mut by_author: HashMap<i64, Vec<i64>> = HashMap::new();
        let mut counts = AuthorCounts::default();
        for m in &facts {
            by_author.entry(m.author).or_default().push(m.id);
            counts.add(m);
        }
        for ids in by_author.values_mut() {
            ids.sort_unstable();
        }
        let messages = facts
            .iter()
            .map(|f| f.id)
            .zip(messages.iter().cloned())
            .collect();
        GroundTruth {
            messages,
            facts,
            by_author,
            counts,
        }
    }

    /// A primary-key lookup must return exactly the generated record.
    pub fn check_lookup(&self, key: i64, rows: &[Value]) -> Result<(), String> {
        let want = self.messages.get(&key);
        match (rows, want) {
            ([row], Some(want)) if row == want => Ok(()),
            ([], None) => Ok(()),
            _ => Err(format!(
                "lookup {key}: got {} row(s), want {}",
                rows.len(),
                want.map_or(0, |_| 1)
            )),
        }
    }

    /// Ids of messages by `author`, ascending.
    pub fn author_ids(&self, author: i64) -> Vec<i64> {
        self.by_author.get(&author).cloned().unwrap_or_default()
    }

    /// Ids of messages whose location lies in the closed window, ascending.
    pub fn window_ids(&self, (x1, y1, x2, y2): (f64, f64, f64, f64)) -> Vec<i64> {
        let mut ids: Vec<i64> = self
            .facts
            .iter()
            .filter(|m| {
                m.location
                    .is_some_and(|(x, y)| x1 <= x && x <= x2 && y1 <= y && y <= y2)
            })
            .map(|m| m.id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Compares a set-valued result (message ids, any order) with the truth.
pub fn check_id_set(what: &str, rows: &[Value], want: &[i64]) -> Result<(), String> {
    let mut got: Vec<i64> = rows.iter().filter_map(Value::as_i64).collect();
    got.sort_unstable();
    if got.len() == rows.len() && got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {} id(s), want {}",
            rows.len(),
            want.len()
        ))
    }
}

/// Checks an analytics top-k result: `rows` are `{id, c}` objects in
/// descending `c`. Each author's count must lie in `[lo, hi]` (equal
/// bounds when the data cannot change under the query), the result must
/// hold `min(k, authors)` rows, and no author left out may be certain to
/// outrank the last row returned.
pub fn check_top_k(
    rows: &[Value],
    lo: &HashMap<i64, u64>,
    hi: &HashMap<i64, u64>,
) -> Result<(), String> {
    let possible = hi.values().filter(|n| **n > 0).count();
    let certain = lo.values().filter(|n| **n > 0).count();
    if rows.len() > TOP_K.min(possible) || rows.len() < TOP_K.min(certain) {
        return Err(format!(
            "top-k: got {} rows, want between {} and {}",
            rows.len(),
            TOP_K.min(certain),
            TOP_K.min(possible)
        ));
    }
    let mut seen = std::collections::HashSet::new();
    let mut prev = u64::MAX;
    for row in rows {
        let (Some(a), Some(c)) = (row.field("id").as_i64(), row.field("c").as_i64()) else {
            return Err(format!("top-k: malformed row {row}"));
        };
        let c = c as u64;
        let (l, h) = (
            lo.get(&a).copied().unwrap_or(0),
            hi.get(&a).copied().unwrap_or(0),
        );
        if c < l || c > h || c > prev || !seen.insert(a) {
            return Err(format!(
                "top-k: author {a} count {c} outside [{l}, {h}] or out of order"
            ));
        }
        prev = c;
    }
    if rows.len() == TOP_K {
        if let Some((a, l)) = lo.iter().find(|(a, l)| !seen.contains(*a) && **l > prev) {
            return Err(format!(
                "top-k: author {a} with at least {l} messages missing"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_core::datagen::DataGen;

    fn truth() -> (GroundTruth, Vec<Value>) {
        let mut g = DataGen::new(9);
        let msgs: Vec<Value> = (1..=400).map(|i| g.message(i, 20)).collect();
        (GroundTruth::new(&msgs), msgs)
    }

    fn top_k_rows(counts: &HashMap<i64, u64>) -> Vec<Value> {
        let mut v: Vec<(i64, u64)> = counts.iter().map(|(a, c)| (*a, *c)).collect();
        v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        v.truncate(TOP_K);
        v.into_iter()
            .map(|(a, c)| {
                let mut o = asterix_adm::Object::new();
                o.set("id", Value::Int(a));
                o.set("c", Value::Int(c as i64));
                Value::Object(o)
            })
            .collect()
    }

    #[test]
    fn lookup_accepts_the_generated_record_only() {
        let (t, msgs) = truth();
        assert!(t.check_lookup(7, &msgs[6..7]).is_ok());
        assert!(t.check_lookup(7, &msgs[7..8]).is_err());
        assert!(t.check_lookup(7, &[]).is_err());
        assert!(t.check_lookup(10_000, &[]).is_ok());
    }

    #[test]
    fn oracle_catches_a_corrupted_expected_value() {
        let (mut t, msgs) = truth();
        let rows = vec![msgs[41].clone()];
        assert!(t.check_lookup(42, &rows).is_ok());
        // corrupt the ground truth: the same system answer must now fail
        let mut bad = msgs[41].clone();
        if let Value::Object(o) = &mut bad {
            o.set("authorId", Value::Int(-1));
        }
        t.messages.insert(42, bad);
        assert!(t.check_lookup(42, &rows).is_err());

        // analytics: a count off by one anywhere in the top k is caught
        let exact = t.counts.excluding(3);
        let rows = top_k_rows(&exact);
        assert!(check_top_k(&rows, &exact, &exact).is_ok());
        let victim = rows[4].field("id").as_i64().unwrap();
        let mut corrupt = exact.clone();
        *corrupt.get_mut(&victim).unwrap() += 1;
        assert!(check_top_k(&rows, &corrupt, &corrupt).is_err());

        // id sets: a missing id is caught
        let want = t.author_ids(5);
        let ids: Vec<Value> = want.iter().map(|i| Value::Int(*i)).collect();
        assert!(check_id_set("btree", &ids, &want).is_ok());
        assert!(check_id_set("btree", &ids[1..], &want).is_err());
    }

    #[test]
    fn top_k_bounds_admit_any_count_the_data_allows() {
        let (t, _) = truth();
        let lo = t.counts.excluding(0);
        let mut hi = lo.clone();
        for v in hi.values_mut() {
            *v += 2;
        }
        let rows = top_k_rows(&lo);
        assert!(check_top_k(&rows, &lo, &hi).is_ok());
        // a row above its upper bound, or out of order, is rejected
        let mut over = rows.clone();
        if let Value::Object(o) = &mut over[0] {
            o.set("c", Value::Int(10_000));
        }
        assert!(check_top_k(&over, &lo, &hi).is_err());
        let mut swapped = rows.clone();
        swapped.swap(0, TOP_K - 1);
        if lo[&swapped[0].field("id").as_i64().unwrap()]
            != lo[&swapped[1].field("id").as_i64().unwrap()]
        {
            assert!(check_top_k(&swapped, &lo, &hi).is_err());
        }
        // leaving out an author certain to outrank the last row is caught
        let mut all: Vec<(i64, u64)> = lo.iter().map(|(a, c)| (*a, *c)).collect();
        all.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        let skipped: HashMap<i64, u64> = all[1..].iter().copied().collect();
        let rows_without_top = top_k_rows(&skipped);
        if all[0].1 > all[TOP_K].1 {
            assert!(check_top_k(&rows_without_top, &lo, &lo).is_err());
        }
        // too few rows is caught as well
        assert!(check_top_k(&rows[1..], &lo, &lo).is_err());
    }

    #[test]
    fn window_and_author_truth_match_a_brute_force_scan() {
        let (t, msgs) = truth();
        let win = (-110.0, 30.0, -90.0, 45.0);
        let brute: Vec<i64> = msgs
            .iter()
            .filter(|m| match m.field("senderLocation") {
                Value::Point(p) => p.x >= win.0 && p.x <= win.2 && p.y >= win.1 && p.y <= win.3,
                _ => false,
            })
            .map(|m| m.field("messageId").as_i64().unwrap())
            .collect();
        assert_eq!(t.window_ids(win), brute);
        let total: usize = (1..=20).map(|a| t.author_ids(a).len()).sum();
        assert_eq!(total, msgs.len());
    }
}
