//! The traced benchmark binary: the same program with a counting global
//! allocator, so layer spans can report allocation calls.

use perfbench::clock::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    CountingAlloc::activate();
    perfbench::main();
}
