//! Extension: SuperNPU against a broader field of CMOS accelerators.

fn main() {
    supernpu_bench::artifacts::main("ext_accelerators");
}
