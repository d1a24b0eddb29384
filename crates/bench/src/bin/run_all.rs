//! `run_all` — regenerate every paper artifact in one process, in
//! presentation order: exactly what a reader runs first. Walks the
//! `supernpu_bench::artifacts` table.

fn main() {
    supernpu_bench::artifacts::run_all();
}
