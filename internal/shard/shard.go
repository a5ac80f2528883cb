// Package shard is the throughput engine: N independent region Systems
// ("shards") that its caller drives. Each shard owns one simulated address
// space, one safe region runtime, and one batched free-page cache, and runs
// one task at a time, so every shard keeps the paper's single-threaded fast
// paths (bump allocation, dense page-index lookup) untouched. The engine
// starts no goroutine: Engine.Run runs a task on the caller's goroutine,
// and a caller that wants shards to run at once, as internal/serve does,
// calls Run for each shard from its own goroutine.
//
// Placement is either round-robin (throughput) or homed: tasks run with the
// same Task.Home always execute on the same shard, so a pipeline of tasks
// can share regions created by its predecessors without any cross-shard
// synchronization — the sharded analogue of the paper's single-machine
// model. Submitted tasks are balanced at Close by work stealing on the
// simulated clocks, so their placement is exact per run.
package shard

import "strconv"

func shardName(i int) string { return "shard" + strconv.Itoa(i) }
