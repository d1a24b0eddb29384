//! Extension: the characterization loop, transients to architecture estimate.

fn main() {
    supernpu_bench::artifacts::main("ext_characterize");
}
