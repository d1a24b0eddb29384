//! Fig. 8: unique vs duplicated ifmap pixels under naïve buffering.

fn main() {
    supernpu_bench::artifacts::main("fig08_duplication");
}
