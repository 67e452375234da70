//! A wall-clock read two calls below the `alpha` entry.

pub fn sample() -> u64 {
    stamp()
}

fn stamp() -> u64 {
    let _t = std::time::Instant::now();
    0
}

/// Shares its name with `alpha::frame::each`'s closure parameter. Nothing
/// calls it, so its panic is unreachable from the hot path.
pub fn visit(b: u8) -> u64 {
    Some(b).map(u64::from).unwrap()
}
