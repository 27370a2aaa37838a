//! Property-based tests for the storage layer: B+ tree vs model, LSM vs
//! model, R-tree vs brute force, bloom filter totality, hash vs model.

use asterix_adm::binary::encode_key;
use asterix_adm::{Point, Rectangle, Value};
use asterix_storage::btree::{BTreeBuilder, DiskBTree};
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::linear_hash::LinearHash;
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::rtree::{DiskRTree, MemRTree, RTreeBuilder, SpatialEntry};
use asterix_storage::stats::IoStats;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "asterix-storage-prop-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(cache_pages: usize) -> (Arc<BufferCache>, TempDir) {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    (BufferCache::new(fm, cache_pages), dir)
}

fn k(i: i64) -> Vec<u8> {
    encode_key(&[Value::Int(i)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The LZSS compressor round-trips arbitrary byte strings and never
    /// inflates beyond the 1-byte framing overhead.
    #[test]
    fn compression_roundtrips(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let c = asterix_storage::compress::compress(&data);
        prop_assert!(c.len() <= data.len() + 1);
        let d = asterix_storage::compress::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    /// Repetitive inputs shrink.
    #[test]
    fn compression_shrinks_repetition(unit in prop::collection::vec(any::<u8>(), 4..32),
                                      reps in 20usize..100) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = asterix_storage::compress::compress(&data);
        prop_assert!(c.len() < data.len() / 2, "{} vs {}", c.len(), data.len());
        prop_assert_eq!(asterix_storage::compress::decompress(&c).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A bulk-loaded B+ tree answers every point and range query identically
    /// to a sorted model.
    #[test]
    fn btree_matches_model(mut keys in prop::collection::btree_set(-500i64..500, 1..300),
                           probes in prop::collection::vec(-600i64..600, 20),
                           lo in -600i64..600, width in 0i64..200) {
        let (cache, _d) = setup(64);
        let w = cache.manager().bulk_writer("p.btree").unwrap();
        let mut b = BTreeBuilder::new(w, keys.len());
        let model: BTreeMap<i64, Vec<u8>> = std::mem::take(&mut keys)
            .into_iter()
            .map(|i| (i, format!("v{i}").into_bytes()))
            .collect();
        for (i, v) in &model {
            b.add(&k(*i), v).unwrap();
        }
        let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
        for p in probes {
            prop_assert_eq!(t.get(&k(p)).unwrap(), model.get(&p).cloned());
        }
        let hi = lo + width;
        let got: Vec<i64> = t
            .range(Bound::Included(&k(lo)), Bound::Included(k(hi)))
            .unwrap()
            .map(|r| {
                let (key, _) = r.unwrap();
                match asterix_adm::binary::decode_key(&key).unwrap().pop().unwrap() {
                    Value::Int(i) => i,
                    other => panic!("{other:?}"),
                }
            })
            .collect();
        let want: Vec<i64> = model.range(lo..=hi).map(|(i, _)| *i).collect();
        prop_assert_eq!(got, want);
    }

    /// An LSM tree under random upserts/deletes/flushes/merges answers
    /// point gets, full scans and bounded range reads identically to a map
    /// model.
    #[test]
    fn lsm_matches_model(
        ops in prop::collection::vec((0u8..11, -100i64..100), 1..400),
        probes in prop::collection::vec((0u8..3, -110i64..110, 0u8..3, -110i64..110), 12),
    ) {
        let (cache, _d) = setup(128);
        let mut t = LsmTree::new(
            cache,
            LsmConfig {
                name: "p".into(),
                mem_budget: 2 << 10,
                merge_policy: MergePolicy::Constant { max_components: 3 },
                bloom: true,
                compress_values: true, // exercise the compression path too
            },
        );
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (op, key) in ops {
            match op {
                0..=6 => {
                    let v = format!("v{key}-{op}").into_bytes();
                    t.upsert(k(key), v.clone()).unwrap();
                    model.insert(key, v);
                }
                7 | 8 => {
                    t.delete(k(key)).unwrap();
                    model.remove(&key);
                }
                9 => t.flush().unwrap(),
                _ => t.merge_newest(key.rem_euclid(5) as usize).unwrap(),
            }
        }
        for probe in -100i64..100 {
            prop_assert_eq!(t.get(&k(probe)).unwrap(), model.get(&probe).cloned());
        }
        let scan: Vec<(Vec<u8>, Vec<u8>)> = t.scan().unwrap().map(Result::unwrap).collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(i, v)| (k(*i), v.clone())).collect();
        prop_assert_eq!(scan, want);
        // 0 = Included, 1 = Excluded, 2 = Unbounded; crossed bounds read nothing
        let bound = |kind: u8, key: i64| match kind {
            0 => Bound::Included(key),
            1 => Bound::Excluded(key),
            _ => Bound::Unbounded,
        };
        for (lo_kind, lo, hi_kind, hi) in probes {
            let (lo, hi) = (bound(lo_kind, lo), bound(hi_kind, hi));
            let (lo_key, hi_key) = (lo.map(k), hi.map(k));
            let got: Vec<(Vec<u8>, Vec<u8>)> = t
                .range(lo_key.as_ref().map(Vec::as_slice), hi_key.as_ref().map(Vec::as_slice))
                .unwrap()
                .map(Result::unwrap)
                .collect();
            let want: Vec<(Vec<u8>, Vec<u8>)> = model
                .iter()
                .filter(|(i, _)| (lo, hi).contains(*i))
                .map(|(i, v)| (k(*i), v.clone()))
                .collect();
            prop_assert_eq!(got, want, "range {:?}..{:?}", lo, hi);
        }
    }

    /// Disk R-tree search equals brute-force filtering.
    #[test]
    fn rtree_matches_brute_force(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..300),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0, qw in 0.0f64..50.0, qh in 0.0f64..50.0,
    ) {
        let (cache, _d) = setup(64);
        let entries: Vec<SpatialEntry> = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| SpatialEntry {
                mbr: Point::new(*x, *y).to_mbr(),
                key: i.to_le_bytes().to_vec(),
            })
            .collect();
        let w = cache.manager().bulk_writer("p.rtree").unwrap();
        let t = DiskRTree::from_built(
            Arc::clone(&cache),
            RTreeBuilder::new(w, true).build(entries.clone()).unwrap(),
        );
        let q = Rectangle::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let mut got: Vec<Vec<u8>> = t.search(&q).unwrap().into_iter().map(|e| e.key).collect();
        let mut want: Vec<Vec<u8>> = entries
            .iter()
            .filter(|e| e.mbr.intersects(&q))
            .map(|e| e.key.clone())
            .collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// In-memory R-tree also equals brute force, including after removals.
    #[test]
    fn mem_rtree_matches_brute_force(
        pts in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 1..150),
        remove_mask in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut t = MemRTree::with_capacity(5);
        let mut live: Vec<(Point, Vec<u8>)> = Vec::new();
        for (i, (x, y)) in pts.iter().enumerate() {
            let key = i.to_le_bytes().to_vec();
            t.insert(Point::new(*x, *y).to_mbr(), key.clone());
            live.push((Point::new(*x, *y), key));
        }
        for (i, rm) in remove_mask.iter().enumerate() {
            if *rm && i < live.len() {
                let (p, key) = live[i].clone();
                prop_assert!(t.remove(&p.to_mbr(), &key));
            }
        }
        let live: Vec<_> = live
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !remove_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, e)| e)
            .collect();
        let q = Rectangle::new(Point::new(10.0, 10.0), Point::new(35.0, 35.0));
        let mut got: Vec<Vec<u8>> = t.search(&q).into_iter().map(|e| e.key).collect();
        let mut want: Vec<Vec<u8>> = live
            .iter()
            .filter(|(p, _)| q.contains_point(p))
            .map(|(_, k)| k.clone())
            .collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Linear hashing behaves like a HashMap under puts/removes, even with a
    /// tiny buffer cache (forced writebacks).
    #[test]
    fn linear_hash_matches_model(ops in prop::collection::vec((0u8..4, 0u64..200), 1..400)) {
        let (cache, _d) = setup(8);
        let mut h = LinearHash::create(cache, "p.lh", 2, 10).unwrap();
        let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for (op, key) in ops {
            let kb = key.to_le_bytes();
            match op {
                0..=2 => {
                    let v = format!("v{key}").into_bytes();
                    h.put(&kb, &v).unwrap();
                    model.insert(key, v);
                }
                _ => {
                    let removed = h.remove(&kb).unwrap();
                    prop_assert_eq!(removed, model.remove(&key).is_some());
                }
            }
        }
        for probe in 0u64..200 {
            prop_assert_eq!(h.get(&probe.to_le_bytes()).unwrap(), model.get(&probe).cloned());
        }
    }
}
