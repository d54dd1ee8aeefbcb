//! B1 — streams throughput (§V-A): publish rate and fan-out cost on the
//! orchestration substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use blueprint_core::streams::{Message, Selector, StreamStore, Tag, TagFilter};

fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("streams/publish");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));

    group.bench_function("no_subscribers", |b| {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        b.iter(|| {
            store
                .publish(&id, Message::data("a short payload message"))
                .unwrap()
        });
    });

    for subs in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("fanout", subs), &subs, |b, &subs| {
            let store = StreamStore::new();
            let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
            let subscriptions: Vec<_> = (0..subs)
                .map(|_| {
                    store
                        .subscribe(Selector::Stream(id.clone()), TagFilter::all())
                        .unwrap()
                })
                .collect();
            b.iter(|| {
                store
                    .publish(&id, Message::data("a short payload message"))
                    .unwrap();
                for s in &subscriptions {
                    s.drain();
                }
            });
        });
    }
    group.finish();
}

fn bench_tag_filtering(c: &mut Criterion) {
    let mut group = c.benchmark_group("streams/tag_filter");
    group.sample_size(20);
    // 64 subscribers, each on a distinct tag; only one matches per publish.
    group.bench_function("selective_64_subscribers", |b| {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let subscriptions: Vec<_> = (0..64)
            .map(|i| {
                store
                    .subscribe(
                        Selector::Stream(id.clone()),
                        TagFilter::any_of([format!("tag-{i}")]),
                    )
                    .unwrap()
            })
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let tag = format!("tag-{}", i % 64);
            i += 1;
            store
                .publish(&id, Message::data("payload").with_tag(tag.as_str()))
                .unwrap();
            for s in &subscriptions {
                s.drain();
            }
        });
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("streams/replay");
    group.sample_size(20);
    for n in [100u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("read_full", n), &n, |b, &n| {
            let store = StreamStore::new();
            let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
            for i in 0..n {
                store.publish(&id, Message::data(format!("m{i}"))).unwrap();
            }
            b.iter(|| store.read(&id, 0).unwrap().len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_publish, bench_tag_filtering, bench_replay);
criterion_main!(benches);
