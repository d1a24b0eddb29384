//! Extension: the performance/area Pareto front and the batching latency curve.

fn main() {
    supernpu_bench::artifacts::main("ext_pareto");
}
