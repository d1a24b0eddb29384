//! Ablation study: what each §III design choice is worth end-to-end.

fn main() {
    supernpu_bench::artifacts::main("ablations");
}
