//! `export_csv`: write every figure's data series to `results/*.csv`.

fn main() {
    supernpu_bench::artifacts::main("export_csv");
}
