package gpos

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestRaiseCapturesStack(t *testing.T) {
	ex := Raise(CompMemo, "TestCode", "bad group %d", 7)
	if ex.Comp != CompMemo || ex.Code != "TestCode" {
		t.Errorf("component/code lost: %+v", ex)
	}
	if !strings.Contains(ex.Error(), "bad group 7") {
		t.Errorf("message lost: %s", ex.Error())
	}
	if len(ex.Stack) == 0 || !strings.Contains(ex.StackTrace(), "TestRaiseCapturesStack") {
		t.Errorf("stack missing caller:\n%s", ex.StackTrace())
	}
}

func TestWrapAndUnwrap(t *testing.T) {
	cause := errors.New("io failure")
	ex := Wrap(cause, CompMD, "FetchFailed", "fetching relation")
	if !errors.Is(ex, cause) {
		t.Error("errors.Is does not find the cause")
	}
	if AsException(ex) != ex {
		t.Error("AsException failed on direct exception")
	}
	wrapped := errorsJoin(ex)
	if AsException(wrapped) == nil {
		t.Error("AsException failed through a wrapper")
	}
	if AsException(errors.New("plain")) != nil {
		t.Error("AsException invented an exception")
	}
}

type joinErr struct{ inner error }

func (e joinErr) Error() string { return "wrapped: " + e.inner.Error() }
func (e joinErr) Unwrap() error { return e.inner }

func errorsJoin(inner error) error { return joinErr{inner} }

func TestMemoryAccountantPeak(t *testing.T) {
	var m MemoryAccountant
	m.Charge(100)
	m.Charge(200)
	m.Release(150)
	m.Charge(50)
	if m.Current() != 200 {
		t.Errorf("Current = %d, want 200", m.Current())
	}
	if m.Peak() != 300 {
		t.Errorf("Peak = %d, want 300", m.Peak())
	}
	if m.Allocs() != 3 {
		t.Errorf("Allocs = %d, want 3", m.Allocs())
	}
	m.Reset()
	if m.Current() != 0 || m.Peak() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestMemoryAccountantConcurrent(t *testing.T) {
	var m MemoryAccountant
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Charge(3)
				m.Release(3)
			}
		}()
	}
	wg.Wait()
	if m.Current() != 0 {
		t.Errorf("Current = %d after balanced charge/release", m.Current())
	}
	if m.Peak() < 3 {
		t.Errorf("Peak = %d, want >= 3", m.Peak())
	}
}

func TestNilAccountantIsSafe(t *testing.T) {
	var m *MemoryAccountant
	m.Charge(10)
	m.Release(10)
	if m.Current() != 0 || m.Peak() != 0 || m.Allocs() != 0 {
		t.Error("nil accountant must be inert")
	}
}
