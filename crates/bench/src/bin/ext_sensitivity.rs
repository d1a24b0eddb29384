//! Extension: bandwidth, junction-scaling and cooling sensitivity.

fn main() {
    supernpu_bench::artifacts::main("ext_sensitivity");
}
