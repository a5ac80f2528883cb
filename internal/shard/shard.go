// Package shard is the throughput engine: it runs N independent region
// Systems ("shards") behind a work-distributing driver, the architecture the
// ROADMAP's north star asks for. Each shard owns one simulated address
// space, one safe region runtime, and one batched free-page cache, and
// processes its tasks serially on its own goroutine; shards share nothing,
// so pinned work scales with the host's cores while every shard keeps the
// paper's single-threaded fast paths (bump allocation, dense page-index
// lookup) untouched.
//
// Placement is either round-robin (throughput) or homed: pinned tasks
// submitted with the same Task.Home always execute on the same shard, so a
// pipeline of tasks can share regions created by its predecessors without
// any cross-shard synchronization — the sharded analogue of the paper's
// single-machine model. Unpinned tasks are balanced at Close by work
// stealing on the simulated clocks, so their placement is exact per run.
package shard

import "strconv"

func shardName(i int) string { return "shard" + strconv.Itoa(i) }
