//! R10 fixture, a root when it stands under `examples/`.

fn main() {
    println!("{}", r10_lib::called_from_example() + r10_lib::live_but_marked());
}
