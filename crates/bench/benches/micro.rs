//! Microbenchmarks for the building blocks: prefix store, decision
//! process, wire codec, SPF, MRAI pacing, attribute interning, and the
//! hash-backed RIB tables.

use bgp_rib::{
    best_as_level, best_path, AdjRibIn, Candidate, CandidateBatch, DecisionConfig, LocRib,
    PrefixSlab,
};
use bgp_types::{
    intern, AsPath, Asn, Ipv4Prefix, Med, NextHop, PathAttributes, RouteSource, RouterId,
};
use bgp_wire::{CodecConfig, Message, Nlri, UpdateMessage};
use bytes::BytesMut;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use igp::{IgpOracle, PopTopologyBuilder};
use netsim::Mrai;
use std::sync::Arc;

fn prefixes(n: usize) -> Vec<Ipv4Prefix> {
    // Deterministic pseudo-random spread (LCG).
    let mut x = 0x2545F491_4F6CDD1Du64;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Ipv4Prefix::new((x >> 32) as u32, 24)
        })
        .collect()
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefix_slab");
    for n in [1_000usize, 10_000, 100_000] {
        let pfx = prefixes(n);
        g.bench_with_input(BenchmarkId::new("insert", n), &pfx, |b, pfx| {
            b.iter(|| {
                let mut t = PrefixSlab::new();
                for (i, p) in pfx.iter().enumerate() {
                    t.insert(*p, i);
                }
                black_box(t.len())
            })
        });
        let slab: PrefixSlab<usize> = pfx.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        g.bench_with_input(BenchmarkId::new("longest_match", n), &slab, |b, t| {
            let mut addr = 0u32;
            b.iter(|| {
                addr = addr.wrapping_add(0x9E3779B9);
                black_box(t.longest_match(addr))
            })
        });
    }
    g.finish();
}

fn candidates(n: usize) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            let mut attrs = PathAttributes::ebgp(
                AsPath::sequence([Asn(100 + (i % 5) as u32), Asn(50_000)]),
                NextHop(i as u32 + 1),
            );
            attrs.med = Some(Med((i % 3) as u32));
            Candidate {
                attrs: Arc::new(attrs),
                source: RouteSource::Ebgp {
                    peer_as: Asn(100 + (i % 5) as u32),
                    peer_addr: 9000 + i as u32,
                },
                neighbor_id: i as u32 + 1,
            }
        })
        .collect()
}

fn bench_decision(c: &mut Criterion) {
    let mut g = c.benchmark_group("decision");
    let cfg = DecisionConfig::default();
    for n in [2usize, 10, 50] {
        let cands = candidates(n);
        g.bench_with_input(BenchmarkId::new("best_path", n), &cands, |b, cands| {
            let igp = |nh: NextHop| Some(nh.0);
            b.iter(|| black_box(best_path(cands, &cfg, &igp)))
        });
        g.bench_with_input(BenchmarkId::new("best_as_level", n), &cands, |b, cands| {
            b.iter(|| black_box(best_as_level(cands, &cfg)))
        });
        // The SoA survivor scan an ARR runs per managed-route change:
        // load the decision-key columns once, scan contiguous memory.
        // Compare against `best_as_level` above, which chases an
        // `Arc<PathAttributes>` per comparison.
        g.bench_with_input(BenchmarkId::new("soa_batch_scan", n), &cands, |b, cands| {
            let mut batch = CandidateBatch::new();
            b.iter(|| {
                batch.load(cands);
                black_box(batch.survivors(&cfg).len())
            })
        });
    }
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let attrs = PathAttributes::ebgp(
        AsPath::sequence([Asn(7018), Asn(3356), Asn(15169)]),
        NextHop(0x0A000001),
    );
    for n_paths in [1usize, 10] {
        let nlri: Vec<Nlri> = (0..n_paths)
            .map(|i| Nlri::with_path_id("10.0.0.0/8".parse().unwrap(), bgp_types::PathId(i as u32)))
            .collect();
        let msg = Message::Update(UpdateMessage::announce(attrs.clone(), nlri));
        let cfg = CodecConfig::with_add_paths();
        g.bench_with_input(BenchmarkId::new("encode", n_paths), &msg, |b, msg| {
            b.iter(|| {
                let mut buf = BytesMut::with_capacity(256);
                msg.encode(&mut buf, cfg).unwrap();
                black_box(buf.len())
            })
        });
        let mut encoded = BytesMut::new();
        msg.encode(&mut encoded, cfg).unwrap();
        g.bench_with_input(BenchmarkId::new("decode", n_paths), &encoded, |b, e| {
            b.iter(|| {
                let mut buf = e.clone();
                black_box(Message::decode(&mut buf, cfg).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_spf(c: &mut Criterion) {
    let mut g = c.benchmark_group("igp");
    for (pops, per) in [(5usize, 10usize), (13, 8), (20, 20)] {
        let view = PopTopologyBuilder::new(pops, per).build();
        let n = pops * per;
        g.bench_with_input(
            BenchmarkId::new("all_pairs_spf", n),
            &view.topo,
            |b, topo| b.iter(|| black_box(IgpOracle::compute(topo))),
        );
    }
    g.finish();
}

fn bench_mrai(c: &mut Criterion) {
    c.bench_function("mrai/offer_flush_1k", |b| {
        b.iter(|| {
            let mut m: Mrai<u32, u64> = Mrai::new(5_000_000);
            let mut sent = 0u64;
            for i in 0..1_000u32 {
                match m.offer(0, i % 64, i as u64) {
                    netsim::MraiVerdict::SendNow(v) => sent += v,
                    netsim::MraiVerdict::Deferred { .. } => {}
                }
            }
            sent += m.flush(5_000_000).len() as u64;
            black_box(sent)
        })
    });
}

fn bench_intern(c: &mut Criterion) {
    let mut g = c.benchmark_group("intern");
    // Hot path in a converged network: the same few attribute sets are
    // re-derived over and over — every call after the first is a hit.
    g.bench_function("hit", |b| {
        let attrs = PathAttributes::ebgp(AsPath::sequence([Asn(7018), Asn(3356)]), NextHop(42));
        let _keepalive = intern(attrs.clone());
        b.iter(|| black_box(intern(attrs.clone())))
    });
    // Plain allocation, for the cost delta interning must amortize.
    g.bench_function("arc_new", |b| {
        let attrs = PathAttributes::ebgp(AsPath::sequence([Asn(7018), Asn(3356)]), NextHop(42));
        b.iter(|| black_box(Arc::new(attrs.clone())))
    });
    g.bench_function("miss_churn_64", |b| {
        // Worst case: a rotating window of distinct sets, so the
        // registry keeps sweeping dead entries.
        let mut nh = 0u32;
        b.iter(|| {
            nh = nh.wrapping_add(1);
            let attrs = PathAttributes::ebgp(
                AsPath::sequence([Asn(7018), Asn(3356)]),
                NextHop(0x5000_0000 + (nh % 64)),
            );
            black_box(intern(attrs))
        })
    });
    g.finish();
}

fn bench_rib(c: &mut Criterion) {
    let mut g = c.benchmark_group("rib");
    let pfx = prefixes(10_000);
    let path = |i: usize| {
        vec![(
            bgp_types::PathId(i as u32),
            intern(PathAttributes::ebgp(
                AsPath::sequence([Asn(100 + (i % 16) as u32)]),
                NextHop(i as u32),
            )),
        )]
    };
    g.bench_function("adj_rib_in_set_10k", |b| {
        b.iter(|| {
            let mut rib = AdjRibIn::new();
            for (i, p) in pfx.iter().enumerate() {
                rib.set_paths(RouterId((i % 8) as u32), *p, path(i));
            }
            black_box(rib.num_entries())
        })
    });
    let mut rib = AdjRibIn::new();
    for (i, p) in pfx.iter().enumerate() {
        rib.set_paths(RouterId((i % 8) as u32), *p, path(i));
    }
    g.bench_function("adj_rib_in_all_paths", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % pfx.len();
            black_box(rib.all_paths(&pfx[k]).count())
        })
    });
    let mut loc: LocRib<usize> = LocRib::new();
    for (i, p) in pfx.iter().enumerate() {
        loc.set(*p, Some(i));
    }
    g.bench_function("loc_rib_get", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % pfx.len();
            black_box(loc.get(&pfx[k]))
        })
    });
    g.bench_function("loc_rib_iter_sorted", |b| {
        b.iter(|| black_box(loc.iter().count()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_store,
    bench_decision,
    bench_wire,
    bench_spf,
    bench_mrai,
    bench_intern,
    bench_rib
);
criterion_main!(benches);
