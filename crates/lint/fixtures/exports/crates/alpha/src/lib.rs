pub fn used() {}

pub fn tested() {}

pub fn orphan() {}

/// Exported, never mentioned again.
#[expect(dead_code, reason = "the fixture's one exception")]
pub struct Unused;

#[cfg(test)]
mod tests {
    pub fn used_only_here() {}
}
