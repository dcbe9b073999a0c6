// Retired analyzer rule D3 (unjustified `unsafe`): an unsafe block with no
// `// SAFETY:` comment. CI plants this file as a module of `dpmd-simd`,
// where `unsafe` is allowed, and requires
// `clippy::undocumented_unsafe_blocks` to reject it.

pub fn first_byte(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
