//! Fig. 7(c): feedback loops halve the frequency, cross-checked by `jjsim` transients.

fn main() {
    supernpu_bench::artifacts::main("fig07_feedback");
}
