package gpos

import "sync/atomic"

// MemoryAccountant tracks bytes logically allocated by an optimization
// session. Orca's GPOS memory manager enforced per-session pools; Go's GC
// owns real memory, so the accountant's job here is observability: the
// optimizer charges it for Memo groups, group expressions, statistics objects
// and metadata cache entries, and the experiment harness reads the high-water
// mark to reproduce the paper's memory-footprint measurement (§7.2.2).
//
// All methods are safe for concurrent use: the metadata cache's accountant
// is charged by every request in flight.
type MemoryAccountant struct {
	current  atomic.Int64
	peak     atomic.Int64
	allocs   atomic.Int64
	released atomic.Int64
}

// Charge records n logically allocated bytes.
func (m *MemoryAccountant) Charge(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.allocs.Add(1)
	cur := m.current.Add(n)
	for {
		p := m.peak.Load()
		if cur <= p || m.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// Release returns n bytes to the accountant. Over-release — n exceeding the
// currently charged total, as on a double-release bug — clamps current at
// zero instead of going negative, so budget checks (Exhausted) and footprint
// reports stay meaningful.
func (m *MemoryAccountant) Release(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.released.Add(1)
	for {
		cur := m.current.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if m.current.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Exhausted reports whether the charged bytes meet or exceed the budget.
// A budget of 0 (or negative) means unlimited and never exhausts; a nil
// accountant never exhausts.
func (m *MemoryAccountant) Exhausted(budget int64) bool {
	if m == nil || budget <= 0 {
		return false
	}
	return m.current.Load() >= budget
}

// Current returns the currently charged bytes.
func (m *MemoryAccountant) Current() int64 {
	if m == nil {
		return 0
	}
	return m.current.Load()
}

// Peak returns the high-water mark in bytes.
func (m *MemoryAccountant) Peak() int64 {
	if m == nil {
		return 0
	}
	return m.peak.Load()
}

// Allocs returns the number of Charge calls.
func (m *MemoryAccountant) Allocs() int64 {
	if m == nil {
		return 0
	}
	return m.allocs.Load()
}

// Reset zeroes the accountant between optimization sessions.
func (m *MemoryAccountant) Reset() {
	m.current.Store(0)
	m.peak.Store(0)
	m.allocs.Store(0)
	m.released.Store(0)
}

// OwnedAccountant is the single-owner form of MemoryAccountant, for a tally
// that one goroutine charges and reads: a search's Memo, which charges it
// for every group, expression, context, statistics object and local-table
// entry it records. Its fields are plain integers, so a charge costs three
// additions instead of three atomic operations; its readings are those a
// MemoryAccountant given the same charges would report. It is not safe for
// concurrent use. A nil OwnedAccountant is inert.
type OwnedAccountant struct {
	current, peak, allocs int64
}

// Charge records n logically allocated bytes.
func (m *OwnedAccountant) Charge(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.allocs++
	m.current += n
	m.peak = max(m.peak, m.current)
}

// Exhausted reports whether the charged bytes meet or exceed the budget,
// as MemoryAccountant.Exhausted does.
func (m *OwnedAccountant) Exhausted(budget int64) bool {
	return m != nil && budget > 0 && m.current >= budget
}

// Current returns the currently charged bytes.
func (m *OwnedAccountant) Current() int64 {
	if m == nil {
		return 0
	}
	return m.current
}

// Peak returns the high-water mark in bytes.
func (m *OwnedAccountant) Peak() int64 {
	if m == nil {
		return 0
	}
	return m.peak
}

// Allocs returns the number of Charge calls.
func (m *OwnedAccountant) Allocs() int64 {
	if m == nil {
		return 0
	}
	return m.allocs
}
