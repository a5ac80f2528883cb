package mem

import (
	"errors"
	"fmt"
	"math/rand"
)

// This file is the simulated OS's failure model. The paper's experiments
// only ever exercise the happy path — MapPages always succeeds — but a
// production-shaped runtime must tolerate the OS refusing memory. A Space
// can therefore carry a page limit (the analogue of ulimit -v / a cgroup
// memory cap) and a FaultPlan, a deterministic, seeded schedule of injected
// MapPages failures. When either refuses a request, MapPages returns 0 (the
// never-mapped nil address) and the allocator above is expected to surface
// a typed error — see OOMError — instead of crashing or growing without
// bound.

// ErrOutOfMemory is the sentinel that every allocation failure caused by a
// refused page mapping wraps; errors.Is(err, ErrOutOfMemory) identifies OOM
// regardless of which allocator surfaced it.
var ErrOutOfMemory = errors.New("out of memory")

// Failure causes recorded by a refused MapPages call.
const (
	CauseAddressSpace = "address space exhausted"
	CausePageLimit    = "page limit exceeded"
	CauseByteBudget   = "byte budget exceeded"
	CauseFailNth      = "injected: nth call"
	CauseFailProb     = "injected: probability"
)

// FaultPlan is a deterministic schedule of injected MapPages failures.
// All three triggers may be combined; a call fails if any fires. The zero
// plan injects nothing.
type FaultPlan struct {
	// FailNth fails the Nth MapPages call (1-based) made after the plan is
	// installed. 0 disables.
	FailNth uint64
	// FailProb fails each call independently with this probability, drawn
	// from a PRNG seeded with Seed, so a (plan, workload) pair always fails
	// the same calls.
	FailProb float64
	// Seed seeds the FailProb draws.
	Seed int64
	// ByteBudget fails any call that would push MappedBytes past this many
	// bytes. 0 disables. Unlike SetPageLimit this is part of the injected
	// plan: it models a budget the experiment imposes, not the OS.
	ByteBudget uint64
}

// MapFailure describes one refused MapPages call.
type MapFailure struct {
	Call   uint64 // ordinal of the failing call (1-based, plan-relative)
	Pages  int    // pages the call requested
	Mapped uint64 // bytes already mapped when it failed
	Cause  string // one of the Cause* constants
}

// OOMError is the typed error allocators return when the simulated OS
// refuses pages. It wraps ErrOutOfMemory.
type OOMError struct {
	Op     string // allocator operation that needed the pages
	Pages  int    // pages the failing MapPages call requested
	Mapped uint64 // bytes mapped when the request failed
	Cause  string // why the OS refused (one of the Cause* constants)
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("%s: out of memory (%d pages refused: %s; %d bytes mapped)",
		e.Op, e.Pages, e.Cause, e.Mapped)
}

// Unwrap makes errors.Is(e, ErrOutOfMemory) true.
func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// SetFaultPlan installs (a copy of) plan; nil removes any plan. The call
// counter used by FailNth and the FailProb PRNG restart with each install,
// so re-installing the same plan replays the same failures.
func (s *Space) SetFaultPlan(plan *FaultPlan) {
	if plan == nil {
		s.plan = nil
		s.planRNG = nil
		s.planCalls = 0
		return
	}
	p := *plan
	s.plan = &p
	s.planRNG = rand.New(rand.NewSource(p.Seed))
	s.planCalls = 0
}

// SetPageLimit caps the pages the simulated OS will ever hand out (the
// reserved page 0 does not count). 0 removes the limit. Unlike a FaultPlan
// the limit is permanent OS state: every request past it fails.
func (s *Space) SetPageLimit(pages int) { s.pageLimit = pages }

// LastMapFailure describes the most recent refused MapPages call, or nil.
func (s *Space) LastMapFailure() *MapFailure {
	if s.lastFail == nil {
		return nil
	}
	f := *s.lastFail
	return &f
}

// OOM builds the typed error for op from the most recent refused mapping.
// Allocators call it right after observing MapPages return 0.
func (s *Space) OOM(op string) *OOMError {
	e := &OOMError{Op: op, Mapped: s.os.MappedBytes, Cause: "unknown"}
	if s.lastFail != nil {
		e.Pages = s.lastFail.Pages
		e.Mapped = s.lastFail.Mapped
		e.Cause = s.lastFail.Cause
	}
	return e
}

// refuse decides whether a MapPages call for n pages fails, returning the
// cause or "". It consults hard OS state (address space, page limit) first,
// then the injected plan.
func (s *Space) refuse(n int) string {
	if uint64(len(s.pages))+uint64(n) > 1<<(32-PageShift) {
		return CauseAddressSpace
	}
	if s.pageLimit > 0 && len(s.pages)-1+n > s.pageLimit {
		return CausePageLimit
	}
	if p := s.plan; p != nil {
		s.planCalls++
		if p.ByteBudget > 0 && s.os.MappedBytes+uint64(n)*PageSize > p.ByteBudget {
			return CauseByteBudget
		}
		if p.FailNth != 0 && s.planCalls == p.FailNth {
			return CauseFailNth
		}
		if p.FailProb > 0 && s.planRNG.Float64() < p.FailProb {
			return CauseFailProb
		}
	}
	return ""
}
