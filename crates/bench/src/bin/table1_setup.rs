//! Table I: the evaluation setup with estimator-derived frequency, peak and area.

fn main() {
    supernpu_bench::artifacts::main("table1_setup");
}
