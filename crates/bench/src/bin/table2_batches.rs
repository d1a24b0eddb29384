//! Table II: the batch size each design runs each workload at.

fn main() {
    supernpu_bench::artifacts::main("table2_batches");
}
