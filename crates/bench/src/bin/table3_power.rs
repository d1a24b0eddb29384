//! Table III: RSFQ/ERSFQ power and perf/W, with and without cooling.

fn main() {
    supernpu_bench::artifacts::main("table3_power");
}
