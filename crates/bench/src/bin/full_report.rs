//! `full_report`: every table and figure as one Markdown `results/report.md`.

fn main() {
    supernpu_bench::artifacts::main("full_report");
}
