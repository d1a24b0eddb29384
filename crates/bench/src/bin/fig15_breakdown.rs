//! Fig. 15: Baseline's cycle breakdown — preparation dominates.

fn main() {
    supernpu_bench::artifacts::main("fig15_breakdown");
}
