//! Fig. 21: resource balancing — narrower PE array, larger buffers.

fn main() {
    supernpu_bench::artifacts::main("fig21_resource_balance");
}
