// Fixture: the same impls, suppressed.

pub struct RogueObserver;

impl RunObserver for RogueObserver { // hexlint: allow(sealed-impl, reason = "fixture")
    fn on_fire(&mut self) {}
}

pub struct RogueReducer;

// hexlint: allow(sealed-impl, reason = "fixture")
impl Reducer<u64> for RogueReducer {
    type Acc = u64;
}
