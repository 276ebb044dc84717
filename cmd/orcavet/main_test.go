package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownAnalyzer: naming an analyzer the suite does not have — the
// retired hotpath and golifetime included — is a usage error, exit 2, before
// any package is loaded.
func TestUnknownAnalyzer(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "orcavet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"hotpath", "golifetime", "locks,nosuch"} {
		out, err := exec.Command(bin, "-run", name).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unknown analyzer") {
			t.Errorf("-run %s: err %v, output %q; want exit 2 and \"unknown analyzer\"", name, err, out)
		}
	}
}
