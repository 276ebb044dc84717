// Package gpos is the reproduction of Orca's OS-abstraction layer. In the
// paper, GPOS supplies the optimizer with a memory manager, concurrency
// primitives, exception handling with stack traces, and file I/O so that the
// optimizer itself stays portable. In Go most of that is the runtime's job;
// this package keeps the pieces the rest of the system genuinely depends on:
//
//   - structured exceptions carrying component, code and a captured stack
//     trace (consumed by AMPERe dumps, cf. paper Listing 2),
//   - a memory accountant used to report the optimizer's footprint
//     (paper §7.2.2 reports ~200 MB average).
package gpos

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
)

// Component identifies the subsystem that raised an exception.
type Component string

// Components mirroring the paper's architecture diagram (Figure 3).
const (
	CompOptimizer Component = "optimizer"
	CompMemo      Component = "memo"
	CompSearch    Component = "search"
	CompStats     Component = "stats"
	CompCost      Component = "cost"
	CompMD        Component = "metadata"
	CompDXL       Component = "dxl"
	CompEngine    Component = "engine"
	CompSQL       Component = "sql"
	CompServe     Component = "serve"
)

// Exception is a structured error with a captured stack trace, the GPOS
// analogue of CException. AMPERe embeds the trace in its dumps.
type Exception struct {
	Comp  Component
	Code  string
	Msg   string
	Stack []string
	Cause error
}

// Raise creates an Exception capturing the current goroutine's stack.
func Raise(comp Component, code, format string, args ...any) *Exception {
	return &Exception{
		Comp:  comp,
		Code:  code,
		Msg:   fmt.Sprintf(format, args...),
		Stack: captureStack(2),
	}
}

// Wrap attaches a cause to a raised exception.
func Wrap(cause error, comp Component, code, format string, args ...any) *Exception {
	ex := Raise(comp, code, format, args...)
	ex.Cause = cause
	return ex
}

// Error implements the error interface.
func (e *Exception) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%s/%s: %s: %v", e.Comp, e.Code, e.Msg, e.Cause)
	}
	return fmt.Sprintf("%s/%s: %s", e.Comp, e.Code, e.Msg)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *Exception) Unwrap() error { return e.Cause }

// StackTrace renders the captured stack, one frame per line, in the format
// AMPERe serializes (cf. paper Listing 2).
func (e *Exception) StackTrace() string { return strings.Join(e.Stack, "\n") }

// AsException extracts an *Exception from an error chain, or nil.
func AsException(err error) *Exception {
	var ex *Exception
	if errors.As(err, &ex) {
		return ex
	}
	return nil
}

// CodePanic is the exception code of recovered panics converted by
// PanicException. Consumers (the degradation ladder, AMPERe) use it to tell
// a contained crash from an ordinary raised error.
const CodePanic = "Panic"

// PanicException converts a recovered panic value into an Exception. It must
// be called from inside the deferred recover handler: at that point the
// goroutine's stack still holds the frames of the original panic site below
// the runtime's panic machinery, and PanicException captures those — the
// exception's stack names where the panic happened, not where it was
// recovered. If the panic value is itself an error it becomes the cause.
func PanicException(comp Component, v any) *Exception {
	ex := &Exception{
		Comp:  comp,
		Code:  CodePanic,
		Msg:   fmt.Sprintf("panic: %v", v),
		Stack: capturePanicStack(),
	}
	if e, ok := v.(error); ok {
		ex.Cause = e
	}
	return ex
}

// capturePanicStack captures the current stack trimmed to start at the
// original panic site: every frame at or above the innermost
// runtime.gopanic belongs to the recovery machinery (the deferred handler,
// PanicException itself) and is dropped. Outside a panic handler there is no
// gopanic frame and the untrimmed stack is returned.
func capturePanicStack() []string {
	pcs := make([]uintptr, 64)
	n := runtime.Callers(2, pcs)
	frames := runtime.CallersFrames(pcs[:n])
	var all []runtime.Frame
	for {
		f, more := frames.Next()
		all = append(all, f)
		if !more {
			break
		}
	}
	start := 0
	for i, f := range all {
		if f.Function == "runtime.gopanic" {
			start = i + 1
			break
		}
	}
	if start >= len(all) {
		start = 0
	}
	out := make([]string, 0, 16)
	for i, f := range all[start:] {
		out = append(out, fmt.Sprintf("%d %s (%s:%d)", i+1, f.Function, trimPath(f.File), f.Line))
		if len(out) >= 16 {
			break
		}
	}
	return out
}

func captureStack(skip int) []string {
	pcs := make([]uintptr, 32)
	n := runtime.Callers(skip+1, pcs)
	frames := runtime.CallersFrames(pcs[:n])
	var out []string
	for i := 1; ; i++ {
		f, more := frames.Next()
		out = append(out, fmt.Sprintf("%d %s (%s:%d)", i, f.Function, trimPath(f.File), f.Line))
		if !more || len(out) >= 16 {
			break
		}
	}
	return out
}

func trimPath(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}
