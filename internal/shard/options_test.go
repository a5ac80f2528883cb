package shard

import "testing"

// TestDefaultsApply checks the resolved defaults: zero options mean one
// shard, and sub-minimum shard counts clamp to one.
func TestDefaultsApply(t *testing.T) {
	e := NewEngine()
	if e.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", e.Shards())
	}
	e.Close()

	e = NewEngine(WithShards(-3))
	if e.Shards() != 1 {
		t.Fatalf("Shards() = %d with WithShards(-3), want 1", e.Shards())
	}
	e.Close()
}
