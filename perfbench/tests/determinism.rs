//! Two runs of one query list must do the same work: identical verdicts,
//! SAT counters and engine counts, query by query. This is the check that
//! shows a pure speed-up left the work unchanged.
//!
//! Each workload contributes the smallest query of every
//! (scheme, design, contract) cell it covers, so every engine the
//! workload exercises is checked while the test stays short.

use perfbench::workload::{distinct, schedule, Spec, Workload};
use perfbench::{run_query, Answer, Work};

fn smallest_per_cell(specs: &[Spec]) -> Vec<&Spec> {
    let size = |s: &Spec| {
        let isa = &s.cpu.isa;
        (
            s.cpu.rob_size,
            isa.xlen,
            isa.nregs,
            isa.imem_size,
            isa.dmem_size,
        )
    };
    let mut picked: Vec<&Spec> = Vec::new();
    for spec in specs {
        let cell = |s: &Spec| (s.scheme, s.design, s.contract);
        match picked.iter_mut().find(|p| cell(p) == cell(spec)) {
            Some(p) if size(spec) < size(p) => *p = spec,
            Some(_) => {}
            None => picked.push(spec),
        }
    }
    picked
}

fn run(specs: &[&Spec], order: &[usize]) -> Vec<(&'static str, Work, Answer)> {
    order
        .iter()
        .map(|&i| {
            let query = specs[i].query();
            let raw = query.raw_instance();
            let o = run_query(&query, &raw, specs[i].expect);
            (o.verdict, o.work, o.answer)
        })
        .collect()
}

#[test]
fn sequential_workloads_repeat_their_work_exactly() {
    for workload in Workload::ALL {
        let all = distinct(workload);
        let specs = smallest_per_cell(&all);
        let order = schedule(specs.len(), 1, 7);
        let first = run(&specs, &order);
        let second = run(&specs, &order);
        for (o, &i) in first.iter().zip(&order) {
            assert_eq!(o.2, Answer::Correct, "{}", specs[i].label());
        }
        assert_eq!(first, second, "{} did different work", workload.name());
    }
}
