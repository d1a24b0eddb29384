//! Fig. 20: performance and area of buffer integration and division.

fn main() {
    supernpu_bench::artifacts::main("fig20_buffer_opt");
}
