package shard

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/stats"
)

// refResult is what the reference scheduler predicts for a task list.
type refResult struct {
	shard    []int    // the shard each task ran on, by task index
	cycles   []uint64 // each shard's clock at the end, by shard
	steals   []uint64 // tasks each shard took from a sibling, by shard
	checksum uint32
}

// refSchedule runs ts on fresh shard runtimes the way the engine's
// documented rule says, one task at a time on the calling goroutine, with
// none of the engine's code: homes are Home-1 mod shards or round-robin
// over the unhomed tasks; each shard's pinned tasks run first, in order;
// then, while any unpinned task is held, the shard with the lowest
// (clock, id) runs its own newest held task, or else the oldest held task
// of the first non-empty sibling to its right, wrapping. Tasks must not
// fail.
func refSchedule(ts []Task, shards int) refResult {
	res := refResult{
		shard:  make([]int, len(ts)),
		cycles: make([]uint64, shards),
		steals: make([]uint64, shards),
	}
	envs := make([]*appkit.CoreEnv, shards)
	for s := range envs {
		rt := core.NewRuntimeOpts(mem.NewSpace(&stats.Counters{}),
			core.Options{Safe: true, PageBatch: DefaultPageBatch})
		envs[s] = appkit.NewCoreEnv(fmt.Sprintf("ref%d", s), rt)
	}
	clock := func(s int) uint64 { return envs[s].Counters().TotalCycles() }
	run := func(s, i int) {
		res.shard[i] = s
		res.checksum += ts[i].Run(envs[s])
	}

	pinned := make([][]int, shards)
	held := make([][]int, shards)
	next := 0
	for i, t := range ts {
		home := next % shards
		if t.Home != 0 {
			home = (t.Home - 1) % shards
		} else {
			next++
		}
		if t.Pin {
			pinned[home] = append(pinned[home], i)
		} else {
			held[home] = append(held[home], i)
		}
	}
	for s, q := range pinned {
		for _, i := range q {
			run(s, i)
		}
	}
	for {
		s := 0
		for v := 1; v < shards; v++ {
			if clock(v) < clock(s) {
				s = v
			}
		}
		if own := held[s]; len(own) > 0 {
			held[s] = own[:len(own)-1]
			run(s, own[len(own)-1])
			continue
		}
		from := -1
		for k := 1; k < shards && from < 0; k++ {
			if v := (s + k) % shards; len(held[v]) > 0 {
				from = v
			}
		}
		if from < 0 {
			break
		}
		i := held[from][0]
		held[from] = held[from][1:]
		res.steals[s]++
		run(s, i)
	}
	for s := range envs {
		res.cycles[s] = clock(s)
	}
	return res
}
