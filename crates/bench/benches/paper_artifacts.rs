//! One Criterion benchmark per paper table/figure: the cost of regenerating
//! each artifact at smoke scale, for every entry of `ARTIFACTS`.

use cia_data::presets::Scale;
use cia_experiments::ARTIFACTS;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_artifacts(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_artifacts");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for (name, run) in ARTIFACTS {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(run(Scale::Smoke, 42)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_artifacts);
criterion_main!(benches);
