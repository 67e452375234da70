#![forbid(unsafe_code)]

pub fn used() {}

pub fn tested() {}

// ano-lint: allow(dead-export): kept for the fixture's audited-allow case
pub fn orphan() {}

/// Exported, never mentioned again.
pub struct Unused;

#[cfg(test)]
mod tests {
    pub fn used_only_here() {}
}
