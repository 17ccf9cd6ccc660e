// Fixture: sealed engine traits implemented outside their home modules
// (linted under the virtual path crates/hex-des/src/fixture.rs).
// Never compiled.

pub struct RogueObserver;

impl RunObserver for RogueObserver {
    fn on_fire(&mut self) {}
}

pub struct RogueReducer;

impl Reducer<u64> for RogueReducer {
    type Acc = u64;
}
