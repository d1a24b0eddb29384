//! Fig. 22: performance vs weight registers per PE at widths 64 and 128.

fn main() {
    supernpu_bench::artifacts::main("fig22_registers");
}
