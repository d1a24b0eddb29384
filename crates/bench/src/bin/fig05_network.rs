//! Fig. 5: on-chip network designs' critical-path delay and area vs PE-array width.

fn main() {
    supernpu_bench::artifacts::main("fig05_network");
}
