// Retired analyzer rule D9 (unsafe outside the islands): a justified unsafe
// block in a crate other than `dpmd-threads` and `dpmd-simd`. CI plants
// this file as a module of `deepmd` and requires the workspace lint
// `unsafe_code = "forbid"` to reject it.

pub fn first_byte(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assert above guarantees at least one element.
    unsafe { *bytes.as_ptr() }
}
