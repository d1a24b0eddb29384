//! Fig. 13: estimator validation against `jjsim` transient testbenches.

fn main() {
    supernpu_bench::artifacts::main("fig13_validation");
}
