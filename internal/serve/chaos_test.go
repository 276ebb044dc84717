package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"orca/internal/fault"
)

// TestServeChaosStorm is the service-level chaos mode, run by check.sh with
// a date-rotated seed: a request storm at 4x admission capacity while a
// seeded randomized fault schedule — which can include the serve/* points
// (admission rejects, transient MD errors, handler panics and stalls) — is
// armed. The survival invariants are the serving contract under fire:
//
//   - the process answers every request (no hang, no crash);
//   - every non-2xx response carries a well-formed taxonomy body —
//     "5xx without taxonomy" is the class of bug this gate exists to catch;
//   - sheds are bounded-work responses: admitted + shed covers the storm;
//   - the server still drains and serves cleanly after the storm.
//
// Replay a failure with ORCA_CHAOS=1 ORCA_CHAOS_SEED=<n>
// go test -race -run TestServeChaosStorm ./internal/serve/.
func TestServeChaosStorm(t *testing.T) {
	if os.Getenv("ORCA_CHAOS") == "" {
		t.Skip("chaos mode: set ORCA_CHAOS=1 (and optionally ORCA_CHAOS_SEED=<n>) to run")
	}
	seed := int64(1)
	if s := os.Getenv("ORCA_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ORCA_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d", seed)

	for round := 0; round < 5; round++ {
		specs := fault.RandomSchedule(seed+int64(round), 4)
		t.Logf("round %d: %s", round, fault.FormatSpecs(specs))
		disarm, err := fault.Arm(specs)
		if err != nil {
			t.Fatalf("round %d: Arm: %v", round, err)
		}

		s := newTestServer(t, func(c *Config) {
			c.Admission = AdmissionConfig{
				MaxInFlight:  2,
				MaxQueue:     2,
				QueueTimeout: 100 * time.Millisecond,
			}
			c.RequestTimeout = 3 * time.Second
			c.Base.MDRetry.MaxAttempts = 3
			c.Base.MDRetry.InitialBackoff = time.Millisecond
		})
		ts := httptest.NewServer(s.Handler())

		const storm = 16 // 4x the admission capacity of 4
		var wg sync.WaitGroup
		statuses := make([]int, storm)
		for i := 0; i < storm; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// postJSON fails the test itself on any non-2xx response whose
				// body is not a parseable taxonomy error.
				status, _, _, _ := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
				statuses[i] = status
			}(i)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("round %d: storm requests still pending after 60s", round)
		}

		counts := map[int]int{}
		for _, st := range statuses {
			counts[st]++
		}
		t.Logf("round %d: status counts %v, varz %v", round, counts, s.Vars().Snapshot())
		snap := s.Vars().Snapshot()
		if snap["admitted"]+snap["shed"] != storm {
			t.Errorf("round %d: admitted(%d) + shed(%d) != %d",
				round, snap["admitted"], snap["shed"], storm)
		}
		if snap["in_flight"] != 0 || snap["queued"] != 0 {
			t.Errorf("round %d: gauges nonzero after storm: %v", round, snap)
		}

		disarm()
		// The server must come out of the storm healthy: a clean request
		// succeeds once the faults are gone.
		status, _, _, apiErr := postJSON(t, ts.URL, optimizeRequest{SQL: demoSQL})
		if status != http.StatusOK {
			t.Errorf("round %d: post-storm request: status %d (taxon %+v), want 200",
				round, status, apiErr)
		}
		ts.Close()
		if fault.Enabled() {
			t.Fatalf("round %d: faults still armed", round)
		}
	}
}
