package gpos

import (
	"testing"

	"orca/internal/leakcheck"
)

// TestMain fails the package's tests when a goroutine they started outlives
// them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
