//! The untraced benchmark binary: end-to-end metrics with the system
//! allocator, exactly as the production binaries allocate.

fn main() {
    perfbench::main();
}
