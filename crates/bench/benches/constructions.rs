//! Timing of the compact-representation constructions: the offline
//! step of the paper's two-step query answering (Table 1/2 YES
//! cells).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revkb_logic::{Formula, Var};
use revkb_revision::compact::{
    dalal_compact_auto, forbus_bounded, satoh_bounded, weber_compact_auto, winslett_bounded,
};
use revkb_revision::{ModelBasedOp, RevisedKb};

fn chain_size(op: ModelBasedOp, t: &Formula, ps: &[Formula]) -> usize {
    RevisedKb::compile_iterated(op, t, ps).unwrap().size()
}

fn chain_inputs(n: u32) -> (Formula, Formula) {
    let t = Formula::and_all((0..n).map(|i| Formula::var(Var(i))));
    let p = Formula::var(Var(0)).not().or(Formula::var(Var(1)).not());
    (t, p)
}

fn bench_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_constructions");
    group.sample_size(20);
    for n in [8u32, 16, 32] {
        let (t, p) = chain_inputs(n);
        group.bench_with_input(
            BenchmarkId::new("dalal_thm34", n),
            &(&t, &p),
            |b, (t, p)| b.iter(|| dalal_compact_auto(t, p).size()),
        );
        group.bench_with_input(
            BenchmarkId::new("weber_thm35", n),
            &(&t, &p),
            |b, (t, p)| b.iter(|| weber_compact_auto(t, p).unwrap().size()),
        );
        group.bench_with_input(
            BenchmarkId::new("winslett_f5", n),
            &(&t, &p),
            |b, (t, p)| b.iter(|| winslett_bounded(t, p).size()),
        );
        group.bench_with_input(BenchmarkId::new("forbus_f6", n), &(&t, &p), |b, (t, p)| {
            b.iter(|| forbus_bounded(t, p).size())
        });
        group.bench_with_input(BenchmarkId::new("satoh_f7", n), &(&t, &p), |b, (t, p)| {
            b.iter(|| satoh_bounded(t, p).size())
        });
    }
    group.finish();
}

fn bench_iterated(c: &mut Criterion) {
    let mut group = c.benchmark_group("iterated_constructions");
    group.sample_size(10);
    let t = Formula::and_all((0..6u32).map(|i| Formula::var(Var(i))));
    for m in [2usize, 4] {
        let ps: Vec<Formula> = (0..m)
            .map(|i| Formula::var(Var((i % 6) as u32)).not())
            .collect();
        group.bench_with_input(BenchmarkId::new("dalal_phi_m", m), &ps, |b, ps| {
            b.iter(|| chain_size(ModelBasedOp::Dalal, &t, ps))
        });
        group.bench_with_input(BenchmarkId::new("weber_f10", m), &ps, |b, ps| {
            b.iter(|| chain_size(ModelBasedOp::Weber, &t, ps))
        });
        group.bench_with_input(BenchmarkId::new("winslett_f16", m), &ps, |b, ps| {
            b.iter(|| chain_size(ModelBasedOp::Winslett, &t, ps))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single, bench_iterated);
criterion_main!(benches);
