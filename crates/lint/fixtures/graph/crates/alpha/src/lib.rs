//! Graph-fixture crate `alpha`: a hot-path entry whose facts flow across
//! a module boundary (into [`frame`]) and a crate boundary (into `beta`).

#![forbid(unsafe_code)]

pub mod frame;

// ano-lint: entry(hot-path)
pub fn pump(data: &[u8]) -> u64 {
    frame::split(data);
    frame::each(data, |b| u64::from(b));
    beta::clock::sample()
}
