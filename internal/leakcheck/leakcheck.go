// Package leakcheck fails a test binary whose tests leave goroutines behind.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests, then waits up to a second for every
// goroutine with a frame in this module's internal packages to exit. If one
// is still there, its stack is printed and the binary exits 1. Call it from
// TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := waitLeaks(time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines outlived the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// waitLeaks polls until no goroutine but the caller's runs module code, or
// the timeout passes; it returns the stacks still running module code.
func waitLeaks(timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "orca/internal/") && !strings.Contains(g, "orca/internal/leakcheck.") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
