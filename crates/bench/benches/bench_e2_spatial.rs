//! Criterion bench for E2: LSM R-tree vs Hilbert-linearized B-tree probes.
use asterix_adm::binary::encode_key;
use asterix_adm::{Point, Rectangle, Value};
use asterix_core::datagen::DataGen;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::lsm_rtree::{LsmRTree, LsmRTreeConfig};
use asterix_storage::spatial_keys::{curve_ranges, hilbert_d, World};
use asterix_storage::stats::IoStats;
use criterion::{criterion_group, criterion_main, Criterion};
use std::ops::Bound;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("bench-e2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fm = FileManager::new(&dir, IoStats::new()).unwrap();
    let cache = BufferCache::new(fm, 1024);
    let world = World::new(Rectangle::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)));
    let mut rtree = LsmRTree::new(Arc::clone(&cache), LsmRTreeConfig::new("rt"));
    let mut hilbert = LsmTree::new(
        Arc::clone(&cache),
        LsmConfig { name: "h".into(), mem_budget: 1 << 20,
                    merge_policy: MergePolicy::Constant { max_components: 4 }, bloom: false, compress_values: false },
    );
    let mut gen = DataGen::new(2);
    for i in 0..20_000i64 {
        let p = gen.clustered_point(1000.0, 4);
        rtree.insert(p.to_mbr(), encode_key(&[Value::Int(i)])).unwrap();
        hilbert
            .upsert(
                encode_key(&[Value::Int(world.hilbert_key(&p) as i64), Value::Int(i)]),
                asterix_adm::binary::encode(&Value::Point(p)),
            )
            .unwrap();
    }
    rtree.flush().unwrap();
    hilbert.flush().unwrap();
    let q = Rectangle::new(Point::new(300.0, 300.0), Point::new(380.0, 380.0));
    let mut g = c.benchmark_group("e2_spatial");
    g.sample_size(20);
    g.bench_function("lsm_rtree_probe", |b| b.iter(|| rtree.search(&q).unwrap().len()));
    g.bench_function("hilbert_btree_probe", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (lo, hi) in curve_ranges(&world, &q, 7, hilbert_d) {
                let lo_k = encode_key(&[Value::Int(lo as i64)]);
                let hi_k = encode_key(&[Value::Int(hi as i64)]);
                for (_, v) in hilbert
                    .range(Bound::Included(lo_k.as_slice()), Bound::Excluded(hi_k.as_slice()))
                    .unwrap()
                    .map(Result::unwrap)
                {
                    if let Ok(Value::Point(p)) = asterix_adm::binary::decode(&v) {
                        if q.contains_point(&p) {
                            n += 1;
                        }
                    }
                }
            }
            n
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
