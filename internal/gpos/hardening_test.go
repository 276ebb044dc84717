package gpos

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// panicDeepInside is a recognizable frame: the tests assert it appears in
// the converted exception's stack, proving the original panic site survived
// the recover.
func panicDeepInside() {
	panic("deliberate test panic")
}

func TestPanicExceptionPreservesPanicSite(t *testing.T) {
	var ex *Exception
	func() {
		defer func() {
			if r := recover(); r != nil {
				ex = PanicException(CompSearch, r)
			}
		}()
		panicDeepInside()
	}()
	if ex == nil {
		t.Fatal("no exception captured")
	}
	if ex.Code != CodePanic {
		t.Errorf("code %q, want %q", ex.Code, CodePanic)
	}
	st := ex.StackTrace()
	if !strings.Contains(st, "panicDeepInside") {
		t.Errorf("stack lost the panic site:\n%s", st)
	}
	if strings.Contains(st, "gopanic") || strings.Contains(st, "gpos.PanicException") {
		t.Errorf("stack still shows recovery machinery:\n%s", st)
	}
	// The panic site must be the first frame, not buried below the handler.
	if first := ex.Stack[0]; !strings.Contains(first, "panicDeepInside") {
		t.Errorf("first frame %q is not the panic site", first)
	}
}

func TestPanicExceptionErrorCause(t *testing.T) {
	cause := errors.New("root cause")
	var ex *Exception
	func() {
		defer func() {
			ex = PanicException(CompMemo, recover())
		}()
		panic(cause)
	}()
	if !errors.Is(ex, cause) {
		t.Error("error-valued panic not kept as cause")
	}
	if ex.Comp != CompMemo {
		t.Errorf("component %q, want %q", ex.Comp, CompMemo)
	}
}

func TestPanicExceptionOutsideHandler(t *testing.T) {
	// Degenerate use outside a panic handler must still capture something.
	ex := PanicException(CompOptimizer, "not really panicking")
	if len(ex.Stack) == 0 {
		t.Error("no stack captured outside a handler")
	}
	if !strings.Contains(ex.StackTrace(), "TestPanicExceptionOutsideHandler") {
		t.Errorf("stack missing caller:\n%s", ex.StackTrace())
	}
}

func TestMemoryAccountantReleaseClamps(t *testing.T) {
	var m MemoryAccountant
	m.Charge(100)
	m.Release(100)
	m.Release(100) // double release
	if got := m.Current(); got != 0 {
		t.Errorf("Current = %d after double release, want 0 (clamped)", got)
	}
	m.Charge(50)
	if got := m.Current(); got != 50 {
		t.Errorf("Current = %d after recharge, want 50", got)
	}
	if m.Peak() != 100 {
		t.Errorf("Peak = %d, want 100", m.Peak())
	}
}

func TestMemoryAccountantExhausted(t *testing.T) {
	var m MemoryAccountant
	if m.Exhausted(10) {
		t.Error("empty accountant exhausted")
	}
	m.Charge(10)
	if !m.Exhausted(10) {
		t.Error("at-budget accountant not exhausted")
	}
	if m.Exhausted(11) {
		t.Error("under-budget accountant exhausted")
	}
	if m.Exhausted(0) {
		t.Error("zero budget (unlimited) exhausted")
	}
	var nilAcct *MemoryAccountant
	if nilAcct.Exhausted(1) {
		t.Error("nil accountant exhausted")
	}
}

func TestMemoryAccountantHighWaterConcurrent(t *testing.T) {
	var m MemoryAccountant
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Charge(7)
				if i%3 == 0 {
					m.Release(14) // deliberate over-release pressure
				} else {
					m.Release(7)
				}
			}
		}()
	}
	wg.Wait()
	if cur := m.Current(); cur < 0 {
		t.Errorf("Current went negative under concurrency: %d", cur)
	}
	// The peak is at most all workers holding one charge at once, and at
	// least a single charge.
	if p := m.Peak(); p < 7 || p > 7*workers {
		t.Errorf("Peak = %d outside plausible [7, %d]", p, 7*workers)
	}
	if m.Exhausted(7 * workers * per) {
		t.Error("Exhausted against an absurd budget")
	}
}
