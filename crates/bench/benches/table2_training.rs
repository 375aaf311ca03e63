//! Table 2 bench: the offline speedup-model pipeline — 15 benchmarks run
//! on symmetric big-only and little-only machines, PCA counter selection
//! over the per-thread corpus, and the linear-regression fit.

use criterion::{criterion_group, criterion_main, Criterion};

use amp_workloads::Scale;
use colab::training;

fn bench_corpus(c: &mut Criterion) {
    c.bench_function("table2_build_corpus", |b| {
        b.iter(|| {
            let set = training::build_training_set(4, 42, Scale::new(0.25)).expect("corpus builds");
            assert!(set.len() >= 15);
            set.len()
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    c.bench_function("table2_train_model", |b| {
        b.iter(|| {
            let model = training::train_model(4, 42, Scale::new(0.25)).expect("training succeeds");
            assert_eq!(model.selected_counters().len(), training::SELECTED_COUNTERS);
            model.r_squared()
        })
    });
}

fn bench_online_prediction(c: &mut Criterion) {
    // The 10 ms online path: one model evaluation per thread per tick.
    let model = training::train_model(4, 42, Scale::new(0.25)).expect("training succeeds");
    let set = training::build_training_set(4, 7, Scale::new(0.25)).expect("corpus builds");
    let rows: Vec<_> = set.rows().to_vec();
    c.bench_function("table2_online_predict", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % rows.len();
            model.predict(&rows[i].0)
        })
    });
}

criterion_group! {
    name = table2;
    config = Criterion::default().sample_size(10);
    targets = bench_corpus, bench_full_pipeline, bench_online_prediction
}
criterion_main!(table2);
