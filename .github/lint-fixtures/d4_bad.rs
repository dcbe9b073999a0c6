// Retired analyzer rules D4 (raw wall-clock read) and D8 (unaudited clock
// reader): `Instant::now` in a function that carries no
// `#[expect(clippy::disallowed_methods, reason = "WallNs timing")]`. CI
// plants this file as a module of `deepmd` and requires
// `clippy::disallowed_methods` (clippy.toml) to reject it.
use std::time::Instant;

pub fn step_timed(work: impl FnOnce()) -> u128 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_nanos()
}
