package shard

import "sync"

// deque is a bounded double-ended task queue over a fixed ring buffer, the
// per-shard structure behind the work-stealing scheduler. The owning worker
// pushes and pops at the back (LIFO, so it keeps working the tasks it was
// most recently given); submitters also push at the back; thieves take from
// the front (FIFO, so a steal grabs the task that has waited longest and is
// least likely to be in anyone's working set). A mutex rather than a
// lock-free protocol: tasks here are whole app runs, so queue operations
// are nowhere near the contention point, and a mutex keeps push/pop/steal
// trivially race-clean under every interleaving.
type deque struct {
	mu    sync.Mutex
	buf   []Task
	head  int // index of the front element when count > 0
	count int
}

func newDeque(capacity int) *deque {
	return &deque{buf: make([]Task, capacity)}
}

// push appends t at the back; it reports false when the deque is full.
func (d *deque) push(t Task) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == len(d.buf) {
		return false
	}
	d.buf[(d.head+d.count)%len(d.buf)] = t
	d.count++
	return true
}

// popBack removes and returns the back (newest) element — the owner's LIFO
// pop.
func (d *deque) popBack() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return Task{}, false
	}
	i := (d.head + d.count - 1) % len(d.buf)
	t := d.buf[i]
	d.buf[i] = Task{} // drop references so completed tasks can be collected
	d.count--
	return t, true
}

// popFront removes and returns the front (oldest) element — a thief's FIFO
// steal, and the pinned queue's in-order pop.
func (d *deque) popFront() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return Task{}, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = Task{}
	d.head = (d.head + 1) % len(d.buf)
	d.count--
	return t, true
}

// len returns the current element count.
func (d *deque) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}
