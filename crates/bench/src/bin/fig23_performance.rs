//! Fig. 23: every SFQ design point vs the TPU core on six CNNs.

fn main() {
    supernpu_bench::artifacts::main("fig23_performance");
}
