//! R10 fixture, a root when it stands under `src/bin/`.

fn main() {
    println!("{}", r10_lib::called_from_bin());
}
