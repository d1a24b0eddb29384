//! Fig. 17: the Baseline roofline — fast but idle computing units.

fn main() {
    supernpu_bench::artifacts::main("fig17_roofline");
}
