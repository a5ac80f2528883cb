package shard

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestNoStealGolden pins a static-placement run of the seed-7 randomized mix
// to recorded values. Every task is run at once, so it runs on its home
// shard, and per-shard cycle totals are a fingerprint of placement: a change
// that moves any task to another shard fails here even though the summed
// checksum, which is placement-independent, would not notice.
func TestNoStealGolden(t *testing.T) {
	eng := NewEngine(WithShards(4))
	for _, tk := range randomTasks(rand.New(rand.NewSource(7)), 300) {
		eng.Run(tk.Task)
	}
	agg := eng.Close()
	var perShard []uint64
	for _, s := range agg.PerShard {
		perShard = append(perShard, s.SimCycles)
	}
	const wantChecksum, wantTotal = 0x15a92b85, 364248
	wantPerShard := []uint64{52660, 120180, 88716, 102692}
	if agg.Checksum != wantChecksum || agg.TotalCycles != wantTotal || !reflect.DeepEqual(perShard, wantPerShard) {
		t.Errorf("got checksum %#x total %d per-shard %v\nwant checksum %#x total %d per-shard %v",
			agg.Checksum, agg.TotalCycles, perShard, wantChecksum, wantTotal, wantPerShard)
	}
}
